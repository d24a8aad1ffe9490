//! The serve front-end: **one reactor thread per shard**, each owning
//! all of the connections dealt to it, at every worker count.
//!
//! The accept loop stays blocking (it is one thread regardless of
//! connection count), numbers connections in accept order, and deals
//! them round-robin to the reactors; each reactor runs a
//! level-triggered [`miniepoll`] readiness loop over its connections:
//!
//! * per-connection **read and write buffers**, with partial reads
//!   reassembled into `\n`-terminated lines and partial writes resumed
//!   where they left off. The `\n` search resumes where the previous
//!   read stopped, so a line torn across many reads costs linear time.
//!   A line longer than [`MAX_LINE_LEN`] is refused with one error line
//!   and the connection closes once that reply drains, so a peer that
//!   never sends `\n` cannot grow the buffer without bound;
//! * **write-interest toggling**: a connection is registered read-only
//!   while its write buffer is empty and read+write while it is not, so
//!   an idle connection costs no wakeups;
//! * **run to completion**: every complete request is answered inline on
//!   this thread by the [`router`](super::router), which locks the owning
//!   shard, solves, commits the WAL and returns the reply. The reply goes
//!   straight onto the connection's write buffer, so replies leave in
//!   request order by construction.
//!
//! One eventfd per reactor remains, for the accept loop's connection
//! hand-off and for shutdown.
//!
//! Each request's trace id (the [`coschedule::obs`] tag its spans and
//! `trace_id` echo carry) is `(connection id << 32) | seq`, unique
//! across connections; the first connection's requests are simply
//! 0, 1, 2, ….
//!
//! Solving on the reactor thread has two costs, taken knowingly (see
//! [`router`](super::router)): a long solve — a 4096-app `"auto"`, or
//! `exact` under its time budget — stalls every other connection of
//! this reactor until it finishes, and a request for a shard another
//! reactor is solving on waits for that shard's lock.
//!
//! When a reply leaves a shard's WAL due for a snapshot, the reactor
//! flushes the reply to the socket first and only then has the router
//! rotate the log, keeping the snapshot write off that request's
//! latency path.
//!
//! Shutdown: once the router accepts a `shutdown`, it signals every
//! reactor's eventfd. Each reactor stops reading, flushes what it has
//! buffered (bounded by `DRAIN_GRACE`), closes its connections, dials
//! the accept loop awake, and exits.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use miniepoll::{Epoll, Event, EventFd, Interest};

use super::metrics::NetMetrics;
use super::protocol::error_response;
use super::router::Router;

/// Registration token reserved for the reactor's own wake eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// Read granularity; also the flush-compaction threshold.
const READ_CHUNK: usize = 16 * 1024;

/// The longest request line a connection may send, `\n` excluded. The
/// largest real request, a 4096-app `create`, is ~456 KB.
pub const MAX_LINE_LEN: usize = 16 * 1024 * 1024;

/// How long a draining reactor keeps trying to flush buffered replies to
/// peers that have stopped reading before force-closing.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// A reactor's cross-thread inbox: new connections from the accept loop
/// (each with its connection id), the hard-stop flag for teardown on an
/// accept failure, and the eventfd that wakes the reactor's
/// `epoll_wait` for either — or for a shutdown.
pub(super) struct Inbox {
    conns: Mutex<Vec<(u64, TcpStream)>>,
    stop: AtomicBool,
    wake: EventFd,
}

impl Inbox {
    /// Wakes the reactor (connection hand-off, shutdown, stop).
    pub fn signal(&self) {
        self.wake.signal();
    }
}

/// A running reactor thread (see the module docs).
pub(super) struct Reactor {
    inbox: Arc<Inbox>,
    net: Arc<NetMetrics>,
    handle: JoinHandle<()>,
}

impl Reactor {
    /// Spawns shard `shard`'s reactor. Fails (cleanly, before spawning)
    /// when the platform has no epoll.
    pub fn spawn(shard: usize, router: Arc<Router>, wake_addr: SocketAddr) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        let inbox = Arc::new(Inbox {
            conns: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            wake: EventFd::new()?,
        });
        epoll.add(inbox.wake.fd(), WAKE_TOKEN, Interest::READABLE)?;
        let net = Arc::new(NetMetrics::default());
        let loop_state = Loop {
            epoll,
            router,
            inbox: Arc::clone(&inbox),
            net: Arc::clone(&net),
            wake_addr,
            conns: HashMap::new(),
            read_chunk: vec![0u8; READ_CHUNK],
            rotations: Vec::new(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("cosched-reactor-{shard}"))
            .spawn(move || loop_state.run())
            .expect("spawn reactor");
        Ok(Reactor { inbox, net, handle })
    }

    /// Hands accepted connection `id` to this reactor (called from the
    /// accept loop, which numbers connections server-wide — the id is
    /// the connection's epoll token and the high half of its requests'
    /// trace ids).
    pub fn add_connection(&self, id: u64, stream: TcpStream) {
        self.inbox
            .conns
            .lock()
            .expect("reactor inbox")
            .push((id, stream));
        self.inbox.signal();
    }

    /// The inbox/metrics pair the router needs: the inbox to signal
    /// shutdown, the metrics for the `metrics` op.
    pub fn hook(&self) -> (Arc<Inbox>, Arc<NetMetrics>) {
        (Arc::clone(&self.inbox), Arc::clone(&self.net))
    }

    /// Hard stop (accept-loop failure): drop everything without the
    /// shutdown drain.
    pub fn stop(&self) {
        self.inbox.stop.store(true, Ordering::SeqCst);
        self.inbox.signal();
    }

    /// Waits for the reactor thread to exit (it does so after a
    /// shutdown drain or a [`Reactor::stop`]).
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

/// One connection owned by a reactor.
struct Conn {
    stream: TcpStream,
    /// The server-wide connection id, also the epoll token.
    token: u64,
    /// Bytes read but not yet dispatched as lines.
    lines: LineBuf,
    /// Bytes queued to the peer, `written` of them already sent.
    write_buf: Vec<u8>,
    written: usize,
    /// The interest set currently registered with epoll (read interest
    /// drops after an EOF, write interest toggles with the buffer).
    armed: Interest,
    /// Next request sequence number to assign.
    next_seq: u64,
    /// Peer half-closed (EOF read); the connection closes once drained.
    read_closed: bool,
    /// I/O error; the connection closes immediately.
    dead: bool,
}

/// A connection's line reassembly buffer: the bytes read so far, the
/// consumed prefix (`read_at`), and how far the rest has been searched
/// for `\n` (the next search starts at the larger of `scanned` and
/// `read_at`, so a line torn across many reads costs linear time).
#[derive(Default)]
struct LineBuf {
    buf: Vec<u8>,
    read_at: usize,
    scanned: usize,
}

/// What [`LineBuf::next_line`] found.
#[derive(Debug, PartialEq)]
enum NextLine {
    /// A complete line, its `\n` and one trailing `\r` stripped
    /// (`BufRead::lines` semantics), decoded lossily as UTF-8.
    Line(String),
    /// No complete line yet.
    Pending,
    /// The line in progress is longer than [`MAX_LINE_LEN`]; the buffer
    /// has been freed.
    TooLong,
}

impl LineBuf {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn next_line(&mut self) -> NextLine {
        // Resume the search where the previous call left it: bytes
        // before `scanned` hold no `\n`.
        let from = self.scanned.max(self.read_at);
        let newline = self.buf[from..].iter().position(|&b| b == b'\n');
        let line_len = newline.map_or(self.buf.len(), |nl| from + nl) - self.read_at;
        if line_len > MAX_LINE_LEN {
            *self = LineBuf::default();
            return NextLine::TooLong;
        }
        let Some(nl) = newline else {
            self.scanned = self.buf.len();
            // Compact the consumed prefix once it dominates.
            if self.read_at > 0 && self.read_at >= self.buf.len() / 2 {
                self.buf.drain(..self.read_at);
                self.scanned -= self.read_at;
                self.read_at = 0;
            }
            return NextLine::Pending;
        };
        let end = from + nl;
        let mut line_end = end;
        if line_end > self.read_at && self.buf[line_end - 1] == b'\r' {
            line_end -= 1;
        }
        let line = String::from_utf8_lossy(&self.buf[self.read_at..line_end]).into_owned();
        self.read_at = end + 1;
        NextLine::Line(line)
    }
}

impl Conn {
    fn drained(&self) -> bool {
        self.write_buf.len() == self.written
    }
}

/// The per-thread state of one reactor loop.
struct Loop {
    epoll: Epoll,
    router: Arc<Router>,
    inbox: Arc<Inbox>,
    net: Arc<NetMetrics>,
    wake_addr: SocketAddr,
    conns: HashMap<u64, Conn>,
    /// Reusable scratch for socket reads — allocated (and zeroed) once,
    /// not 16 KiB re-zeroed per readable event.
    read_chunk: Vec<u8>,
    /// Reusable scratch: the shards a reply left due for a WAL snapshot.
    rotations: Vec<usize>,
}

impl Loop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut draining_since: Option<Instant> = None;
        loop {
            if self.inbox.stop.load(Ordering::SeqCst) {
                break; // hard stop: no drain
            }
            let draining = self.router.shutdown_requested();
            if draining && draining_since.is_none() {
                draining_since = Some(Instant::now());
            }
            // While draining, poll with a timeout so the grace period
            // advances even if a peer never reads.
            let timeout = if draining { 50 } else { -1 };
            if self.epoll.wait(&mut events, timeout).is_err() {
                break;
            }
            self.net.record_wakeup();
            for event in &events {
                if event.token == WAKE_TOKEN {
                    self.inbox.wake.drain();
                    continue;
                }
                if event.closed() {
                    // Hangup/error is terminal, and the kernel keeps
                    // reporting it level-triggered — close now or spin.
                    if let Some(conn) = self.conns.get_mut(&event.token) {
                        conn.dead = true;
                    }
                    continue;
                }
                if event.readable() && !draining {
                    self.handle_readable(event.token);
                }
                // Always re-pump: flushes the replies just produced and
                // on writable, and re-arms the interest set after an EOF
                // dropped read interest.
                self.pump(event.token);
            }
            if !draining {
                self.adopt_new_connections();
            }
            self.reap();
            if draining {
                let grace_over = draining_since
                    .map(|since| since.elapsed() > DRAIN_GRACE)
                    .unwrap_or(false);
                let all_drained = self.conns.values().all(Conn::drained);
                if all_drained || grace_over {
                    break;
                }
            }
        }
        // Deregister-then-close each connection (see the miniepoll
        // safety invariants), then nudge the accept loop so it can
        // observe the shutdown flag. Retried: shutdown was already
        // acknowledged, so a transiently dropped SYN (full backlog under
        // a connection flood) must not hang the server.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close(token);
        }
        for backoff_ms in [0u64, 10, 50, 250, 1000] {
            std::thread::sleep(Duration::from_millis(backoff_ms));
            if self.inbox.stop.load(Ordering::SeqCst) || TcpStream::connect(self.wake_addr).is_ok()
            {
                break;
            }
        }
    }

    /// Registers connections the accept loop handed over since the last
    /// wake.
    fn adopt_new_connections(&mut self) {
        let fresh: Vec<(u64, TcpStream)> =
            std::mem::take(&mut *self.inbox.conns.lock().expect("reactor inbox"));
        for (token, stream) in fresh {
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue; // the socket is already broken; drop it
            }
            if self
                .epoll
                .add(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
            {
                continue;
            }
            self.net.record_open();
            self.conns.insert(
                token,
                Conn {
                    stream,
                    token,
                    lines: LineBuf::default(),
                    write_buf: Vec::new(),
                    written: 0,
                    armed: Interest::READABLE,
                    next_seq: 0,
                    read_closed: false,
                    dead: false,
                },
            );
        }
    }

    /// Reads everything currently available on `token` and dispatches
    /// every complete line.
    fn handle_readable(&mut self, token: u64) {
        // The scratch buffer is swapped out of `self` for the duration
        // so `dispatch_lines` can borrow `self` mutably between reads.
        let mut chunk = std::mem::take(&mut self.read_chunk);
        self.read_into(token, &mut chunk);
        self.read_chunk = chunk;
    }

    fn read_into(&mut self, token: u64, chunk: &mut [u8]) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.read_closed || conn.dead {
                return;
            }
            match conn.stream.read(chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    return;
                }
                Ok(n) => {
                    self.net.add_bytes_in(n as u64);
                    conn.lines.push(&chunk[..n]);
                    self.dispatch_lines(token);
                    // A short read already proves the kernel buffer is
                    // drained — skip the extra read() that would only
                    // return EAGAIN. Level-triggered registration makes
                    // the early return safe: bytes arriving after the
                    // short read keep the socket reported readable.
                    if n < READ_CHUNK {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
            if self.router.shutdown_requested() {
                return;
            }
        }
    }

    /// Extracts and dispatches complete `\n`-terminated lines. A line
    /// longer than [`MAX_LINE_LEN`] is not dispatched: the connection
    /// gets one error line and stops reading.
    fn dispatch_lines(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let line = match conn.lines.next_line() {
                NextLine::Line(line) => line,
                NextLine::Pending => return,
                NextLine::TooLong => {
                    let error =
                        error_response(&format!("request line exceeds {MAX_LINE_LEN} bytes"), None);
                    conn.write_buf
                        .extend_from_slice(error.to_string().as_bytes());
                    conn.write_buf.push(b'\n');
                    conn.read_closed = true;
                    return;
                }
            };
            self.dispatch(token, &line);
            if self.router.shutdown_requested() {
                return;
            }
        }
    }

    /// Answers one line inline (see the module docs) under the
    /// connection's next sequence number and its server-wide trace id,
    /// and queues the reply on the connection's write buffer. May wait
    /// for a shard another reactor is solving on.
    fn dispatch(&mut self, token: u64, line: &str) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        // Trace ids stay unique while a connection has issued fewer
        // than 2^32 requests.
        let trace = (token << 32) | (seq & u64::from(u32::MAX));
        let reply = self.router.dispatch(line, trace, &mut self.rotations);
        conn.write_buf.extend_from_slice(reply.as_bytes());
        conn.write_buf.push(b'\n');
        if !self.rotations.is_empty() {
            // The reply goes out before the snapshot is written.
            self.pump(token);
            for shard in self.rotations.drain(..) {
                self.router.rotate(shard);
            }
        }
    }

    /// Writes as much buffered output as the socket accepts and re-arms
    /// write interest to match what is left.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        while conn.written < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => {
                    conn.written += n;
                    self.net.add_bytes_out(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.written == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.written = 0;
        } else if conn.written >= READ_CHUNK {
            conn.write_buf.drain(..conn.written);
            conn.written = 0;
        }
        // Re-arm: read interest while the peer can still send, write
        // interest while output is pending. (An EOF'd, fully written
        // connection keeps an empty interest set — only HUP/ERR can
        // still fire — until reap closes it.)
        let desired = Interest {
            readable: !conn.read_closed,
            writable: conn.written < conn.write_buf.len(),
        };
        if desired != conn.armed
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_ok()
        {
            conn.armed = desired;
        }
    }

    /// Closes connections that are dead (I/O error) or finished (peer
    /// half-closed and every reply flushed).
    fn reap(&mut self) {
        let finished: Vec<u64> = self
            .conns
            .values()
            .filter(|conn| conn.dead || (conn.read_closed && conn.drained()))
            .map(|conn| conn.token)
            .collect();
        for token in finished {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.net.record_close();
            // `conn.stream` drops here, closing the fd after the
            // registration is gone (miniepoll safety invariant).
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drains every complete line `lines` holds.
    fn drain(lines: &mut LineBuf) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            match lines.next_line() {
                NextLine::Line(line) => out.push(line),
                NextLine::Pending => return out,
                NextLine::TooLong => panic!("unexpected oversized line"),
            }
        }
    }

    #[test]
    fn lines_torn_at_every_byte_reassemble() {
        let payloads = ["", "x", "{\"op\":\"stats\"}", "π ≠ 3 🚀", "crlf"];
        let wire = "\nx\n{\"op\":\"stats\"}\nπ ≠ 3 🚀\ncrlf\r\n";
        // Feed the stream one byte at a time: every line is torn at every
        // possible boundary, inside multi-byte code points included.
        let mut lines = LineBuf::default();
        let mut decoded = Vec::new();
        for byte in wire.as_bytes() {
            lines.push(std::slice::from_ref(byte));
            decoded.extend(drain(&mut lines));
        }
        assert_eq!(decoded, payloads);
        assert_eq!(lines.read_at, lines.buf.len(), "no bytes may linger");
    }

    #[test]
    fn oversized_line_is_rejected_not_buffered() {
        let mut lines = LineBuf::default();
        // A line of exactly the cap is accepted.
        lines.push(&vec![b'x'; MAX_LINE_LEN]);
        assert_eq!(lines.next_line(), NextLine::Pending);
        lines.push(b"\n");
        assert_eq!(lines.next_line(), NextLine::Line("x".repeat(MAX_LINE_LEN)));
        // One byte more, with no `\n` yet, is refused and freed.
        lines.push(&vec![b'y'; MAX_LINE_LEN + 1]);
        assert_eq!(lines.next_line(), NextLine::TooLong);
        assert_eq!(lines.buf.capacity(), 0);
        assert_eq!((lines.read_at, lines.scanned), (0, 0));
    }

    #[test]
    fn compaction_keeps_the_line_buffer_bounded() {
        let line = format!("{}\n", "y".repeat(1000));
        let mut lines = LineBuf::default();
        for _ in 0..1000 {
            lines.push(line.as_bytes());
            assert!(matches!(lines.next_line(), NextLine::Line(_)));
            assert_eq!(lines.next_line(), NextLine::Pending);
        }
        // Without compaction this would be ~1 MB of consumed prefix.
        assert!(lines.buf.len() < 8 * line.len());
    }

    /// Arbitrary unicode line: random scalar values (surrogates are
    /// filtered by `char::from_u32`) without `\n` or `\r`, so multi-byte
    /// UTF-8 crosses every torn read boundary the chunking picks.
    fn arb_line() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u32..0x11_0000u32, 0..200).prop_map(|codes| {
            codes
                .into_iter()
                .filter_map(char::from_u32)
                .filter(|&c| c != '\n' && c != '\r')
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lines_round_trip_torn_at_random_boundaries(
            payloads in proptest::collection::vec(arb_line(), 1..8),
            chunk_seed in 1usize..97,
        ) {
            let mut wire = Vec::new();
            for p in &payloads {
                wire.extend_from_slice(p.as_bytes());
                wire.push(b'\n');
            }
            // Feed the stream in pseudo-random chunk sizes: every line is
            // torn at data-dependent boundaries.
            let mut lines = LineBuf::default();
            let mut decoded = Vec::new();
            let mut at = 0usize;
            let mut step = chunk_seed;
            while at < wire.len() {
                let take = (step % 13 + 1).min(wire.len() - at);
                lines.push(&wire[at..at + take]);
                at += take;
                step = step.wrapping_mul(31).wrapping_add(7);
                decoded.extend(drain(&mut lines));
            }
            prop_assert_eq!(decoded, payloads);
            prop_assert_eq!(lines.read_at, lines.buf.len(), "no bytes may linger after the last line");
        }
    }
}
