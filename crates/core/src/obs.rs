//! Zero-dependency structured tracing: spans, instants, and per-thread
//! ring buffers.
//!
//! Every layer of the crate (session resolve tiers, portfolio members,
//! branch-and-bound phases, the §5 bisection, the serve path, the cluster
//! simulator) records [`SpanEvent`]s here when tracing is enabled.
//! Tracing is **opt-in**: the disabled path is a single relaxed atomic
//! load per call site, and spans observe but never branch — enabling
//! tracing cannot perturb any result (the byte-identity suites run with
//! it on).
//!
//! # Design
//!
//! * **Per-thread rings.** Each recording thread lazily allocates one
//!   bounded ring buffer and registers it in a global registry. A ring is
//!   a queue of at most [`RING_CAPACITY`] events behind one mutex; a push
//!   into a full ring drops its oldest event and counts the loss, which
//!   the next drain reports.
//! * **Owned rings.** A [`RingHandle`] is a ring owned by a piece of
//!   state rather than a thread (a server shard, which any thread may
//!   serve while it holds the shard's lock). [`RingHandle::install`]
//!   makes it the calling thread's ring until the returned guard drops.
//! * **Draining** ([`drain`], [`drain_local`]) takes a ring's queued
//!   events and its pending drop count under that ring's lock. The lock
//!   is uncontended in practice: a ring is drained by the thread that
//!   writes it, under the same shard lock as its writer, or after its
//!   writers are done.
//! * **Deterministic span ids.** A span's id depends only on the ambient
//!   trace id and its structural position (root index on the thread,
//!   then per-parent child index), never on time or thread identity — the
//!   same request traced twice yields the same span tree.
//! * **Monotonic timestamps.** Nanoseconds since a process-wide epoch
//!   (first use), from [`std::time::Instant`].
//!
//! # Example
//!
//! ```
//! use coschedule::obs;
//!
//! obs::set_enabled(true);
//! obs::set_trace_id(7);
//! {
//!     let mut outer = obs::span("example", "outer");
//!     outer.set_args(1, 2);
//!     let _inner = obs::span("example", "inner");
//!     obs::instant("example", "tick", 0, 0);
//! } // spans record on drop
//! let chunk = obs::drain_local();
//! assert_eq!(chunk.events.len(), 3);
//! let json = obs::chrome_trace_json(&chunk.events);
//! assert!(json.contains("\"outer\""));
//! obs::set_enabled(false);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Events each ring can hold before it starts dropping its oldest.
pub const RING_CAPACITY: usize = 8192;

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Turns recording on or off process-wide. Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled — the only check the disabled
/// fast path performs.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide trace epoch (first call wins).
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Whether an event is a duration span or a point-in-time marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `ts_ns .. ts_ns + dur_ns`.
    Span,
    /// An instantaneous event (`dur_ns == 0`).
    Instant,
}

/// One recorded trace event. `Copy` plain-old-data on purpose: names are
/// `&'static str`, so an event owns no heap data and is copied into its
/// ring as is.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    /// Short category (`"serve"`, `"session"`, `"solver"`, `"wal"`, …).
    pub cat: &'static str,
    /// Event name (`"resolve_cold"`, `"wal_commit"`, …).
    pub name: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Start time, nanoseconds since [`now_ns`]'s epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Deterministic hierarchical span id.
    pub span_id: u64,
    /// Parent span id (0 at the root).
    pub parent_id: u64,
    /// The ambient trace id ([`set_trace_id`]) when the span opened.
    pub trace_id: u64,
    /// First free-form numeric argument.
    pub arg0: u64,
    /// Second free-form numeric argument.
    pub arg1: u64,
    /// Registration ordinal of the recording thread's ring.
    pub tid: u64,
}

/// One bounded event ring: the newest [`RING_CAPACITY`] events of its
/// writer, plus what it lost making room for them.
struct Ring {
    tid: u64,
    state: Mutex<RingState>,
}

#[derive(Default)]
struct RingState {
    events: VecDeque<SpanEvent>,
    /// Events pushed out of the full ring since the last drain.
    pending_drops: u64,
    /// Drops that earlier drains reported ([`dropped_total`] sums these).
    drained_drops: u64,
}

impl Ring {
    /// Recorders never panic holding the lock, so poisoning is ignored.
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, event: SpanEvent) {
        let mut state = self.lock();
        if state.events.len() == RING_CAPACITY {
            state.events.pop_front();
            state.pending_drops += 1;
        }
        state.events.push_back(event);
    }

    /// Moves every event recorded since the previous drain, and the drops
    /// since then, into `chunk`.
    fn drain_into(&self, chunk: &mut TraceChunk) {
        let mut state = self.lock();
        chunk.events.extend(state.events.drain(..));
        let dropped = std::mem::take(&mut state.pending_drops);
        state.drained_drops += dropped;
        chunk.dropped += dropped;
    }
}

struct Frame {
    span_id: u64,
    children: u64,
}

struct ThreadCtx {
    ring: Option<Arc<Ring>>,
    stack: Vec<Frame>,
    trace_id: u64,
    /// Root spans opened under the current trace id, for root-id mixing.
    roots: u64,
}

thread_local! {
    static TLS: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx { ring: None, stack: Vec::new(), trace_id: 0, roots: 0 })
    };
}

/// SplitMix64 finalizer — the span-id mixing function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn with_ctx<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> R {
    TLS.with(|tls| f(&mut tls.borrow_mut()))
}

/// Allocates a ring and registers it for [`drain`].
fn register_ring() -> Arc<Ring> {
    let ring = Arc::new(Ring {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        state: Mutex::default(),
    });
    REGISTRY.lock().unwrap().push(Arc::clone(&ring));
    ring
}

fn record(mut event: SpanEvent) {
    with_ctx(|ctx| {
        let ring = ctx.ring.get_or_insert_with(register_ring);
        event.tid = ring.tid;
        ring.push(event);
    });
}

/// A ring owned by a piece of state instead of a thread. The owner
/// should serialize its users (a mutex around the owning state), so that
/// the ring holds one timeline, in the order its spans closed. The ring
/// is allocated on the first [`install`](Self::install) with tracing
/// enabled, so an owner that is never traced costs nothing.
#[derive(Default)]
pub struct RingHandle(OnceLock<Arc<Ring>>);

/// Restores the thread's own ring when dropped; see [`RingHandle::install`].
#[must_use = "the ring is uninstalled when the guard drops"]
pub struct RingGuard {
    previous: Option<Arc<Ring>>,
}

impl RingHandle {
    /// Makes this ring the calling thread's ring — what spans record into
    /// and what [`drain_local`] drains — until the guard drops. While
    /// tracing is off and the ring was never allocated, the thread has no
    /// ring at all for the duration, so `drain_local` answers empty.
    pub fn install(&self) -> RingGuard {
        let ring = if enabled() {
            Some(Arc::clone(self.0.get_or_init(register_ring)))
        } else {
            self.0.get().cloned()
        };
        RingGuard {
            previous: with_ctx(|ctx| std::mem::replace(&mut ctx.ring, ring)),
        }
    }
}

impl Drop for RingGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        with_ctx(|ctx| ctx.ring = previous);
    }
}

/// Sets this thread's ambient trace id (echoed into every event) and
/// returns the previous one. The serve transports call this with the
/// per-connection request sequence number; root-span numbering restarts
/// so span ids are a pure function of `(trace_id, tree position)`.
pub fn set_trace_id(id: u64) -> u64 {
    with_ctx(|ctx| {
        let prev = ctx.trace_id;
        if ctx.trace_id != id {
            ctx.trace_id = id;
            ctx.roots = 0;
        }
        prev
    })
}

/// This thread's ambient trace id (0 if never set).
pub fn current_trace_id() -> u64 {
    with_ctx(|ctx| ctx.trace_id)
}

/// An open span. Records one [`EventKind::Span`] event on drop; inert
/// (and nearly free) while tracing is disabled.
pub struct Span {
    active: bool,
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
    span_id: u64,
    parent_id: u64,
    trace_id: u64,
    arg0: u64,
    arg1: u64,
}

impl Span {
    /// Sets the event's two numeric arguments (recorded at drop).
    pub fn set_args(&mut self, arg0: u64, arg1: u64) {
        self.arg0 = arg0;
        self.arg1 = arg1;
    }

    /// This span's deterministic id (0 when tracing is disabled).
    pub fn id(&self) -> u64 {
        self.span_id
    }
}

/// Opens a span under the current thread's span stack. The returned
/// guard records on drop; keep it alive for the duration of the phase.
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span {
            active: false,
            cat,
            name,
            start_ns: 0,
            span_id: 0,
            parent_id: 0,
            trace_id: 0,
            arg0: 0,
            arg1: 0,
        };
    }
    let (span_id, parent_id, trace_id) = with_ctx(|ctx| {
        let (parent_id, child_index) = match ctx.stack.last_mut() {
            Some(frame) => {
                frame.children += 1;
                (frame.span_id, frame.children)
            }
            None => {
                ctx.roots += 1;
                (0, ctx.roots)
            }
        };
        let basis = if parent_id == 0 {
            mix(ctx.trace_id).wrapping_add(child_index)
        } else {
            parent_id.wrapping_add(child_index)
        };
        let span_id = mix(basis).max(1);
        ctx.stack.push(Frame {
            span_id,
            children: 0,
        });
        (span_id, parent_id, ctx.trace_id)
    });
    Span {
        active: true,
        cat,
        name,
        start_ns: now_ns(),
        span_id,
        parent_id,
        trace_id,
        arg0: 0,
        arg1: 0,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_ns();
        with_ctx(|ctx| {
            // Pop our frame; tolerate out-of-LIFO drops by unwinding to it.
            if let Some(pos) = ctx.stack.iter().rposition(|f| f.span_id == self.span_id) {
                ctx.stack.truncate(pos);
            }
        });
        record(SpanEvent {
            cat: self.cat,
            name: self.name,
            kind: EventKind::Span,
            ts_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            span_id: self.span_id,
            parent_id: self.parent_id,
            trace_id: self.trace_id,
            arg0: self.arg0,
            arg1: self.arg1,
            tid: 0,
        });
    }
}

/// Records a point-in-time event under the current span.
pub fn instant(cat: &'static str, name: &'static str, arg0: u64, arg1: u64) {
    if !enabled() {
        return;
    }
    let (parent_id, trace_id) =
        with_ctx(|ctx| (ctx.stack.last().map_or(0, |f| f.span_id), ctx.trace_id));
    record(SpanEvent {
        cat,
        name,
        kind: EventKind::Instant,
        ts_ns: now_ns(),
        dur_ns: 0,
        span_id: 0,
        parent_id,
        trace_id,
        arg0,
        arg1,
        tid: 0,
    });
}

/// A batch of drained events plus how many were lost since the previous
/// drain to full rings.
#[derive(Debug, Default)]
pub struct TraceChunk {
    /// Events, in per-ring record order (rings concatenated).
    pub events: Vec<SpanEvent>,
    /// Events dropped since the last drain over the drained rings.
    pub dropped: u64,
}

/// Drains every registered ring (all threads that ever recorded).
pub fn drain() -> TraceChunk {
    let mut chunk = TraceChunk::default();
    for ring in REGISTRY.lock().unwrap().iter() {
        ring.drain_into(&mut chunk);
    }
    chunk
}

/// Drains only the calling thread's ring — its own, or the
/// [`RingHandle`] installed on it (the `trace` protocol op drains the
/// addressed shard's ring this way).
pub fn drain_local() -> TraceChunk {
    let mut chunk = TraceChunk::default();
    if let Some(ring) = with_ctx(|ctx| ctx.ring.clone()) {
        ring.drain_into(&mut chunk);
    }
    chunk
}

/// Total events ever dropped across all rings, as found by drains
/// (exposed by the Prometheus endpoint as `cosched_trace_dropped_total`).
pub fn dropped_total() -> u64 {
    REGISTRY
        .lock()
        .unwrap()
        .iter()
        .map(|ring| ring.lock().drained_drops)
        .sum()
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_micros(ns: u64, out: &mut String) {
    out.push_str(&format!("{}.{:03}", ns / 1000, ns % 1000));
}

/// Renders events as Chrome trace-event JSON (the `traceEvents` array
/// format), loadable in Perfetto / `chrome://tracing`. Spans become
/// complete (`"ph":"X"`) events — begin and end are always matched by
/// construction — and instants become `"ph":"i"` thread-scoped markers.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(ev.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(ev.cat, &mut out);
        out.push_str("\",\"ph\":\"");
        match ev.kind {
            EventKind::Span => out.push('X'),
            EventKind::Instant => out.push('i'),
        }
        out.push_str("\",\"ts\":");
        push_micros(ev.ts_ns, &mut out);
        if ev.kind == EventKind::Span {
            out.push_str(",\"dur\":");
            push_micros(ev.dur_ns, &mut out);
        } else {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(&format!(
            ",\"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"arg0\":{},\"arg1\":{}}}}}",
            ev.tid, ev.trace_id, ev.span_id, ev.parent_id, ev.arg0, ev.arg1
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global enable flag.
    static GATE: Mutex<()> = Mutex::new(());

    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("obs test thread"))
    }

    #[test]
    fn disabled_records_nothing() {
        let _gate = GATE.lock().unwrap();
        set_enabled(false);
        on_fresh_thread(|| {
            let mut sp = span("t", "noop");
            sp.set_args(1, 2);
            drop(sp);
            instant("t", "noop_i", 0, 0);
            assert!(drain_local().events.is_empty());
        });
    }

    #[test]
    fn span_tree_and_deterministic_ids() {
        let _gate = GATE.lock().unwrap();
        set_enabled(true);
        let run = || {
            on_fresh_thread(|| {
                set_trace_id(42);
                let outer = span("t", "outer");
                let outer_id = outer.id();
                let inner = span("t", "inner");
                let inner_id = inner.id();
                drop(inner);
                drop(outer);
                let chunk = drain_local();
                (outer_id, inner_id, chunk.events.len())
            })
        };
        let (o1, i1, n1) = run();
        let (o2, i2, n2) = run();
        set_enabled(false);
        assert_eq!((o1, i1, n1), (o2, i2, n2));
        assert_eq!(n1, 2);
        assert_ne!(o1, i1);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _gate = GATE.lock().unwrap();
        set_enabled(true);
        let extra = 100u64;
        let (events, dropped) = on_fresh_thread(|| {
            set_trace_id(1);
            for i in 0..(RING_CAPACITY as u64 + extra) {
                instant("t", "flood", i, 0);
            }
            let chunk = drain_local();
            (chunk.events, chunk.dropped)
        });
        set_enabled(false);
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(dropped, extra);
        // The survivors are the newest events, in order.
        assert_eq!(events.first().unwrap().arg0, extra);
        assert_eq!(
            events.last().unwrap().arg0,
            RING_CAPACITY as u64 + extra - 1
        );
    }

    #[test]
    fn installed_ring_follows_its_owner_across_threads() {
        let _gate = GATE.lock().unwrap();
        set_enabled(true);
        let handle = RingHandle::default();
        for k in 0..2 {
            on_fresh_thread(|| {
                let _ring = handle.install();
                instant("t", "owned", k, 0);
            });
        }
        let (owned, own) = on_fresh_thread(|| {
            instant("t", "own", 7, 0);
            let owned = {
                let _ring = handle.install();
                drain_local()
            };
            (owned, drain_local())
        });
        set_enabled(false);
        let args: Vec<u64> = owned.events.iter().map(|e| e.arg0).collect();
        assert_eq!(args, [0, 1], "both threads recorded into the handle's ring");
        assert_eq!(own.events.len(), 1, "the thread's own ring is restored");
        assert_eq!(own.events[0].arg0, 7);
    }

    #[test]
    fn a_drain_racing_a_recorder_sees_whole_ordered_events() {
        let _gate = GATE.lock().unwrap();
        set_enabled(true);
        let handle = RingHandle::default();
        let recorded = 4 * RING_CAPACITY as u64;
        let finished = AtomicBool::new(false);
        let (events, dropped) = std::thread::scope(|s| {
            s.spawn(|| {
                let _ring = handle.install();
                for i in 0..recorded {
                    instant("t", "race", i, i);
                }
                finished.store(true, Ordering::Release);
            });
            s.spawn(|| {
                let _ring = handle.install();
                let (mut events, mut dropped) = (Vec::new(), 0);
                loop {
                    let last = finished.load(Ordering::Acquire);
                    let chunk = drain_local();
                    events.extend(chunk.events);
                    dropped += chunk.dropped;
                    if last {
                        return (events, dropped);
                    }
                }
            })
            .join()
            .expect("drain thread")
        });
        set_enabled(false);
        for ev in &events {
            assert_eq!((ev.cat, ev.name), ("t", "race"));
            assert_eq!(ev.arg0, ev.arg1, "a torn event");
        }
        assert!(
            events.windows(2).all(|w| w[0].arg0 < w[1].arg0),
            "events out of order across drains"
        );
        assert_eq!(events.len() as u64 + dropped, recorded);
    }

    #[test]
    fn chrome_json_shape() {
        let events = [
            SpanEvent {
                cat: "c",
                name: "s\"pan",
                kind: EventKind::Span,
                ts_ns: 1_234_567,
                dur_ns: 2_500,
                span_id: 9,
                parent_id: 0,
                trace_id: 3,
                arg0: 7,
                arg1: 8,
                tid: 2,
            },
            SpanEvent {
                cat: "c",
                name: "mark",
                kind: EventKind::Instant,
                ts_ns: 2_000_000,
                dur_ns: 0,
                span_id: 0,
                parent_id: 9,
                trace_id: 3,
                arg0: 0,
                arg1: 0,
                tid: 2,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.contains("s\\\"pan"));
        assert!(json.contains("\"ph\":\"i\""));
    }
}
