//! The serve front-end: **one reactor thread per shard**, each owning
//! all of the connections dealt to it, at every worker count.
//!
//! The accept loop stays blocking (it is one thread regardless of
//! connection count), numbers connections in accept order, and deals
//! them round-robin to the reactors; each reactor runs a
//! level-triggered [`miniepoll`] readiness loop over its connections:
//!
//! * per-connection **read and write buffers**, with partial reads
//!   reassembled into lines (or binary frames, after a hello — see
//!   [`frame`](super::frame)) and partial writes resumed where they
//!   left off;
//! * **write-interest toggling**: a connection is registered read-only
//!   while its write buffer is empty and read+write while it is not, so
//!   an idle connection costs no wakeups;
//! * a **sequence-number reorder buffer** per connection — requests are
//!   tagged in arrival order and responses released in that order,
//!   whichever shard finishes first;
//! * an **eventfd completion mailbox** per reactor: shard workers
//!   deposit finished responses via
//!   [`ResponseSink::Reactor`](super::worker::ResponseSink) and signal
//!   the eventfd, which the reactor polls like any other fd.
//!
//! Each request's trace id (the [`coschedule::obs`] tag its spans and
//! `trace_id` echo carry) is `(connection id << 32) | seq`, unique
//! across connections; the first connection's requests are simply
//! 0, 1, 2, ….
//!
//! Dispatching happens on the reactor thread, so the two blocking
//! points of the router are inherited knowingly: a `create` waits for
//! the owning shard synchronously, and a send into a **full** shard
//! queue blocks until the shard drains (backpressure that stalls every
//! connection of the reactor — bounded by [`QUEUE_CAPACITY`]).
//!
//! Shutdown: once the router accepts a `shutdown`, it signals every
//! reactor's eventfd. Each reactor stops reading, delivers and flushes
//! what is in flight (bounded by [`DRAIN_GRACE`]), closes its
//! connections, dials the accept loop awake, and exits.
//!
//! [`QUEUE_CAPACITY`]: super::worker::QUEUE_CAPACITY

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use miniepoll::{Epoll, Event, EventFd, Interest};

use super::frame::{self, FrameDecoder, FrameMode, Negotiation};
use super::metrics::NetMetrics;
use super::router::Router;
use super::worker::ResponseSink;

/// Registration token reserved for the reactor's own wake eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// Read granularity; also the flush-compaction threshold.
const READ_CHUNK: usize = 16 * 1024;

/// How long a draining reactor keeps trying to deliver in-flight
/// responses to peers that have stopped reading before force-closing.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// One reactor's cross-thread mailbox: finished responses from the
/// shard workers (any shard — a connection's requests fan out), plus
/// the eventfd that wakes the reactor's `epoll_wait`. Unbounded by
/// design; see [`ResponseSink`].
pub(super) struct Completions {
    queue: Mutex<Vec<(u64, u64, String)>>,
    wake: EventFd,
    /// Whether the reactor is (about to be) asleep in `epoll_wait`. Set
    /// by the reactor just before it commits to sleeping and cleared on
    /// wake; pushes only pay the eventfd wake syscall when they might
    /// have a sleeper to wake. The reactor re-checks the queue *after*
    /// publishing `parked` (both sides SeqCst), so a push that saw
    /// `parked == false` is always found by that re-check — the classic
    /// two-phase park; a missed wakeup is impossible.
    parked: AtomicBool,
}

impl Completions {
    /// Deposits `(connection token, request seq, response)` and wakes
    /// the owning reactor if it is parked. A non-empty queue means an
    /// undrained signal (or a pre-sleep re-check) already covers us, so
    /// back-to-back pushes skip the wake syscall too.
    pub fn push(&self, conn: u64, seq: u64, response: String) {
        let first = {
            let mut queue = self.queue.lock().expect("completions lock");
            queue.push((conn, seq, response));
            queue.len() == 1
        };
        if first && self.parked.load(Ordering::SeqCst) {
            self.wake.signal();
        }
    }

    fn is_empty(&self) -> bool {
        self.queue.lock().expect("completions lock").is_empty()
    }

    /// Wakes the reactor without a payload (new connection handoff,
    /// shutdown, stop).
    pub fn signal(&self) {
        self.wake.signal();
    }

    /// Swaps the queue's contents into `out` (which must be empty).
    /// Swapping instead of taking keeps one buffer's capacity inside
    /// the mutex, so steady-state pushes never reallocate.
    fn drain_into(&self, out: &mut Vec<(u64, u64, String)>) {
        debug_assert!(out.is_empty());
        std::mem::swap(&mut *self.queue.lock().expect("completions lock"), out);
    }
}

/// New-connection handoff from the accept loop (each stream with its
/// connection id), plus the hard-stop flag for teardown on an accept
/// failure.
struct Inbox {
    conns: Mutex<Vec<(u64, TcpStream)>>,
    stop: AtomicBool,
}

/// A running reactor thread (see the module docs).
pub(super) struct Reactor {
    completions: Arc<Completions>,
    inbox: Arc<Inbox>,
    net: Arc<NetMetrics>,
    handle: JoinHandle<()>,
}

impl Reactor {
    /// Spawns shard `shard`'s reactor. Fails (cleanly, before spawning)
    /// when the platform has no epoll.
    pub fn spawn(shard: usize, router: Arc<Router>, wake_addr: SocketAddr) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        let completions = Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            wake: EventFd::new()?,
            parked: AtomicBool::new(false),
        });
        epoll.add(completions.wake.fd(), WAKE_TOKEN, Interest::READABLE)?;
        let inbox = Arc::new(Inbox {
            conns: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let net = Arc::new(NetMetrics::default());
        let loop_state = Loop {
            epoll,
            router,
            completions: Arc::clone(&completions),
            inbox: Arc::clone(&inbox),
            net: Arc::clone(&net),
            wake_addr,
            conns: HashMap::new(),
            in_flight_total: 0,
            read_chunk: vec![0u8; READ_CHUNK],
            finished: Vec::new(),
            touched: Vec::new(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("cosched-reactor-{shard}"))
            .spawn(move || loop_state.run())
            .expect("spawn reactor");
        Ok(Reactor {
            completions,
            inbox,
            net,
            handle,
        })
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
        self.completions.signal();
    }

    /// The mailbox/metrics pair the router needs: the mailbox to build
    /// [`ResponseSink`]s and signal shutdown, the metrics for the
    /// `metrics` op.
    pub fn hook(&self) -> (Arc<Completions>, Arc<NetMetrics>) {
        (Arc::clone(&self.completions), Arc::clone(&self.net))
    }

    /// Hard stop (accept-loop failure): drop everything without the
    /// shutdown drain.
    pub fn stop(&self) {
        self.inbox.stop.store(true, Ordering::SeqCst);
        self.completions.signal();
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
    mode: FrameMode,
    /// Whether the first line was seen (the hello window is one line).
    saw_first: bool,
    /// Line reassembly buffer (JSON mode) with its consumed prefix.
    read_buf: Vec<u8>,
    read_at: usize,
    /// Frame reassembly (binary mode, after a hello).
    decoder: FrameDecoder,
    /// Bytes queued to the peer, `written` of them already sent.
    write_buf: Vec<u8>,
    written: usize,
    /// The interest set currently registered with epoll (read interest
    /// drops after an EOF, write interest toggles with the buffer).
    armed: Interest,
    /// Next request sequence number to assign.
    next_seq: u64,
    /// Next response sequence to release to the write buffer, and the
    /// out-of-order completions waiting behind it.
    next_write: u64,
    reorder: BTreeMap<u64, String>,
    /// Dispatched requests whose responses have not reached `reorder`.
    in_flight: u64,
    /// Peer half-closed (EOF read); the connection closes once drained.
    read_closed: bool,
    /// I/O error; the connection closes immediately.
    dead: bool,
}

impl Conn {
    fn drained(&self) -> bool {
        self.in_flight == 0 && self.reorder.is_empty() && self.write_buf.len() == self.written
    }
}

/// The per-thread state of one reactor loop.
struct Loop {
    epoll: Epoll,
    router: Arc<Router>,
    completions: Arc<Completions>,
    inbox: Arc<Inbox>,
    net: Arc<NetMetrics>,
    wake_addr: SocketAddr,
    conns: HashMap<u64, Conn>,
    /// Requests dispatched to workers whose responses have not yet been
    /// delivered, summed over every connection this loop owns. Lets the
    /// park path ask "is a response imminent?" without an O(conns) scan.
    in_flight_total: u64,
    /// Reusable scratch for socket reads — allocated (and zeroed) once,
    /// not 16 KiB re-zeroed per readable event.
    read_chunk: Vec<u8>,
    /// Reusable scratch for [`Loop::deliver_completions`] — the drained
    /// batch and the set of connections it touched.
    finished: Vec<(u64, u64, String)>,
    touched: Vec<u64>,
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
            // advances even if no completion ever arrives.
            let timeout = if draining { 50 } else { -1 };
            // Parking is two-phase: publish `parked`, re-check the
            // completions queue, and only then sleep. A worker that
            // pushed before seeing `parked == true` skipped its wake
            // syscall — the re-check is what finds that push (SeqCst on
            // both sides makes missing it impossible). With responses in
            // flight, one yield first often lets the worker finish, so
            // the whole park/wake round trip (eventfd write + epoll
            // sleep + eventfd drain) is skipped at lock-step.
            let mut skip_wait = false;
            if !draining && self.in_flight_total > 0 {
                skip_wait = !self.completions.is_empty();
                if !skip_wait {
                    std::thread::yield_now();
                    skip_wait = !self.completions.is_empty();
                }
            }
            if skip_wait {
                events.clear();
            } else {
                self.completions.parked.store(true, Ordering::SeqCst);
                if self.completions.is_empty() {
                    let waited = self.epoll.wait(&mut events, timeout);
                    self.completions.parked.store(false, Ordering::SeqCst);
                    if waited.is_err() {
                        break;
                    }
                    self.net.record_wakeup();
                } else {
                    self.completions.parked.store(false, Ordering::SeqCst);
                    events.clear();
                }
            }
            for event in &events {
                if event.token == WAKE_TOKEN {
                    self.completions.wake.drain();
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
                // Always re-pump: flushes on writable, and re-arms the
                // interest set after an EOF dropped read interest.
                self.pump(event.token);
            }
            if !draining {
                self.adopt_new_connections();
            }
            self.deliver_completions();
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
                    mode: FrameMode::Json,
                    saw_first: false,
                    read_buf: Vec::new(),
                    read_at: 0,
                    decoder: FrameDecoder::default(),
                    write_buf: Vec::new(),
                    written: 0,
                    armed: Interest::READABLE,
                    next_seq: 0,
                    next_write: 0,
                    reorder: BTreeMap::new(),
                    in_flight: 0,
                    read_closed: false,
                    dead: false,
                },
            );
        }
    }

    /// Reads everything currently available on `token` and dispatches
    /// every complete message.
    fn handle_readable(&mut self, token: u64) {
        // The scratch buffer is swapped out of `self` for the duration
        // so `ingest` can borrow `self` mutably between reads.
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
                    self.ingest(token, &chunk[..n]);
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

    /// Buffers freshly read bytes and dispatches the complete lines (or
    /// frames) they finish.
    fn ingest(&mut self, token: u64, bytes: &[u8]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.mode {
            FrameMode::Json => {
                conn.read_buf.extend_from_slice(bytes);
                self.dispatch_lines(token);
            }
            FrameMode::Binary => {
                conn.decoder.push(bytes);
                self.dispatch_frames(token);
            }
        }
    }

    /// Extracts and dispatches complete `\n`-terminated lines; handles
    /// the hello window on the very first one. A mid-stream hello
    /// switch moves the unconsumed tail of the line buffer into the
    /// frame decoder.
    fn dispatch_lines(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let Some(nl) = conn.read_buf[conn.read_at..]
                .iter()
                .position(|&b| b == b'\n')
            else {
                // Compact the consumed prefix once it dominates.
                if conn.read_at > 0 && conn.read_at >= conn.read_buf.len() / 2 {
                    conn.read_buf.drain(..conn.read_at);
                    conn.read_at = 0;
                }
                return;
            };
            let end = conn.read_at + nl;
            // `BufRead::lines` semantics: strip the `\n` and one `\r`.
            let mut line_end = end;
            if line_end > conn.read_at && conn.read_buf[line_end - 1] == b'\r' {
                line_end -= 1;
            }
            let line = String::from_utf8_lossy(&conn.read_buf[conn.read_at..line_end]).into_owned();
            conn.read_at = end + 1;
            if !conn.saw_first {
                conn.saw_first = true;
                match frame::negotiate(&line) {
                    Negotiation::Hello(mode) => {
                        // The ack is a line; the switch applies after it.
                        let ack = frame::hello_ack(mode);
                        conn.write_buf.extend_from_slice(ack.as_bytes());
                        conn.write_buf.push(b'\n');
                        conn.mode = mode;
                        if mode == FrameMode::Binary {
                            // Any bytes after the hello are frames.
                            let tail = conn.read_buf.split_off(conn.read_at);
                            conn.decoder.push(&tail);
                            conn.read_buf.clear();
                            conn.read_at = 0;
                            self.pump(token);
                            self.dispatch_frames(token);
                            return;
                        }
                        self.pump(token);
                        continue;
                    }
                    Negotiation::Reject(error) => {
                        conn.write_buf.extend_from_slice(error.as_bytes());
                        conn.write_buf.push(b'\n');
                        self.pump(token);
                        continue; // stay in JSON mode
                    }
                    Negotiation::NotHello => {} // the first request
                }
            }
            self.dispatch(token, &line);
            if self.router.shutdown_requested() {
                return;
            }
        }
    }

    /// Extracts and dispatches complete binary frames. Framing errors
    /// (over-long length prefix, non-UTF-8 payload) kill the
    /// connection: inside a corrupt stream there is no next frame
    /// boundary to resynchronize on.
    fn dispatch_frames(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.decoder.next_payload() {
                Ok(Some(payload)) => {
                    self.dispatch(token, &payload);
                    if self.router.shutdown_requested() {
                        return;
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Tags one message with the connection's next sequence number and
    /// its server-wide trace id, and routes it. May block on shard
    /// backpressure (see module docs).
    fn dispatch(&mut self, token: u64, line: &str) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.in_flight += 1;
        self.in_flight_total += 1;
        let sink = ResponseSink::Reactor {
            conn: token,
            completions: Arc::clone(&self.completions),
        };
        // Trace ids stay unique while a connection has issued fewer
        // than 2^32 requests.
        let trace = (token << 32) | (seq & u64::from(u32::MAX));
        self.router.dispatch(line, seq, trace, &sink);
    }

    /// Moves finished responses from the mailbox through each
    /// connection's reorder buffer into its write buffer, in request
    /// order, then pumps the touched connections.
    fn deliver_completions(&mut self) {
        let mut finished = std::mem::take(&mut self.finished);
        self.completions.drain_into(&mut finished);
        if finished.is_empty() {
            self.finished = finished;
            return;
        }
        let mut touched = std::mem::take(&mut self.touched);
        for (token, seq, response) in finished.drain(..) {
            // Counts dispatches, so every drained item decrements it —
            // including responses for connections that died meanwhile.
            self.in_flight_total = self.in_flight_total.saturating_sub(1);
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // the connection died before its response
            };
            conn.in_flight = conn.in_flight.saturating_sub(1);
            conn.reorder.insert(seq, response);
            while let Some(response) = conn.reorder.remove(&conn.next_write) {
                match conn.mode {
                    FrameMode::Json => {
                        conn.write_buf.extend_from_slice(response.as_bytes());
                        conn.write_buf.push(b'\n');
                    }
                    FrameMode::Binary => {
                        if frame::encode_frame(&response, &mut conn.write_buf).is_err() {
                            conn.dead = true;
                            break;
                        }
                    }
                }
                conn.next_write += 1;
            }
            if !touched.contains(&token) {
                touched.push(token);
            }
        }
        for &token in &touched {
            self.pump(token);
        }
        touched.clear();
        self.touched = touched;
        self.finished = finished;
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
    /// half-closed and everything in flight delivered).
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
