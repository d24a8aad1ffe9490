//! The client side of a serve connection: [`Client`], the one driver
//! behind `cosched client`, the loopback tests, and the benches.
//!
//! A [`Client`] says how many refused connects to ride out.
//! [`Client::exchange`] runs a trace **lock-step** (each request is
//! written only after the previous response arrived);
//! [`Client::pipeline`] writes the whole trace from a sender thread
//! while the calling thread collects responses, so many requests are in
//! flight on one connection at once. Either way the server answers in
//! request order, so the k-th response belongs to the k-th request.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Connection attempts a [`Client`] makes beyond the first by default
/// (`cosched client --retries` overrides).
pub const DEFAULT_CLIENT_RETRIES: u32 = 3;

/// A serve client: the connect retry budget. Requests and responses are
/// `\n`-terminated JSON lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Client {
    /// Connect attempts beyond the first. Only the *connect* is retried:
    /// once any request has been written, a dead connection aborts the
    /// exchange (re-sending a half-delivered trace would re-apply its
    /// mutations).
    pub retries: u32,
}

impl Default for Client {
    fn default() -> Self {
        Self {
            retries: DEFAULT_CLIENT_RETRIES,
        }
    }
}

/// What [`Client::pipeline`] observed from the client's side of the
/// wire: the responses plus per-request latency samples and the wall
/// time of the whole exchange.
pub struct ExchangeStats {
    /// The responses, in request order.
    pub responses: Vec<String>,
    /// Client-observed latency of each request, in request order: from
    /// the moment the request was written to the socket to the moment
    /// its response was read. Pipelining makes these overlap — they
    /// measure what a caller waits, not server work.
    pub latencies_ns: Vec<u64>,
    /// Wall time from first byte written to last response read.
    pub wall_ns: u64,
}

impl Client {
    /// Opens one connection: connects, retrying refused/reset/unreachable
    /// attempts up to [`Client::retries`] times with exponential backoff
    /// (50 ms doubling, capped at 2 s — a just-restarting server
    /// replaying a long WAL is the expected cause), disables Nagle (tiny
    /// lines plus the peer's delayed ACK would cost ~40 ms per exchange).
    /// Non-transient errors and exhausted retries return an error naming
    /// the attempt count.
    pub fn connect(&self, addr: impl ToSocketAddrs + Copy) -> io::Result<TcpStream> {
        let mut delay = Duration::from_millis(50);
        let mut attempt = 0u32;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(e) if attempt < self.retries && is_transient(&e) => {
                    attempt += 1;
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_secs(2));
                }
                Err(e) => {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("connect failed after {} attempt(s): {e}", attempt + 1),
                    ));
                }
            }
        };
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Connects and sends each request **lock-step**, returning the
    /// responses in request order.
    pub fn exchange(
        &self,
        addr: impl ToSocketAddrs + Copy,
        requests: &[String],
    ) -> io::Result<Vec<String>> {
        let stream = self.connect(addr)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut scratch = Vec::new();
        let mut responses = Vec::with_capacity(requests.len());
        for request in requests {
            self.send(&mut writer, request, &mut scratch)?;
            responses.push(self.recv(&mut reader)?);
        }
        Ok(responses)
    }

    /// Connects and **pipelines** the requests: a sender thread writes
    /// them back to back, timestamping each as it leaves, while this
    /// thread reads the responses and clocks each against its request's
    /// timestamp.
    pub fn pipeline(
        &self,
        addr: impl ToSocketAddrs + Copy,
        requests: &[String],
    ) -> io::Result<ExchangeStats> {
        let stream = self.connect(addr)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let started = Instant::now();
        std::thread::scope(|scope| {
            let (sent_tx, sent_rx) = std::sync::mpsc::channel::<Instant>();
            let sender = scope.spawn(move || -> io::Result<()> {
                let mut scratch = Vec::new();
                for request in requests {
                    self.send(&mut writer, request, &mut scratch)?;
                    let _ = sent_tx.send(Instant::now());
                }
                Ok(())
            });
            let mut responses = Vec::with_capacity(requests.len());
            let mut latencies_ns = Vec::with_capacity(requests.len());
            for _ in 0..requests.len() {
                responses.push(self.recv(&mut reader)?);
                let sent = sent_rx
                    .recv()
                    .map_err(|_| io::Error::other("pipeline sender thread died"))?;
                latencies_ns.push(nanos_since(sent));
            }
            let wall_ns = nanos_since(started);
            // A structured error, not a panic: the sender dying (e.g.
            // the server vanished mid-write) is an exchange failure the
            // caller reports like any other I/O error.
            match sender.join() {
                Ok(result) => result?,
                Err(_) => return Err(io::Error::other("pipeline sender thread panicked")),
            }
            Ok(ExchangeStats {
                responses,
                latencies_ns,
                wall_ns,
            })
        })
    }

    /// Writes one request as a single `write_all`: a split
    /// payload/newline write would interact with Nagle and delayed ACK
    /// into a ~40 ms stall each.
    fn send(&self, w: &mut impl Write, request: &str, scratch: &mut Vec<u8>) -> io::Result<()> {
        scratch.clear();
        scratch.extend_from_slice(request.as_bytes());
        scratch.push(b'\n');
        w.write_all(scratch)
    }

    /// Reads one response; an EOF before it is an error.
    fn recv(&self, r: &mut impl BufRead) -> io::Result<String> {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-exchange",
            ));
        }
        Ok(line.trim_end().to_string())
    }
}

/// Connect errors worth retrying: the server is down or mid-restart, not
/// misaddressed.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
    )
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn zero_retries_fails_fast_with_attempt_count() {
        // Bind-then-drop yields a port with (very likely) no listener.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let e = Client { retries: 0 }.connect(addr).unwrap_err();
        assert!(e.to_string().contains("after 1 attempt(s)"), "{e}");
    }

    #[test]
    fn retries_ride_out_a_late_starting_server() {
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let listener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            let listener = TcpListener::bind(addr).expect("rebind test port");
            let _ = listener.accept();
        });
        // First attempt refused, a retry lands after the server is up.
        let stream = Client { retries: 5 }
            .connect(addr)
            .expect("retry until listening");
        drop(stream);
        listener.join().unwrap();
    }

    #[test]
    fn misaddressed_connects_are_not_retried() {
        let started = std::time::Instant::now();
        // An invalid address errors in resolution — no backoff sleeps.
        assert!(Client { retries: 3 }
            .exchange("definitely-not-a-host:1", &[])
            .is_err());
        assert!(started.elapsed() < Duration::from_secs(10));
    }
}
