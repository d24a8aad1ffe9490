//! Shard workers: one [`Session`] per shard, owned by a dedicated thread
//! and fed by a bounded mpsc request channel.
//!
//! The session API is deliberately single-threaded (`&mut self`
//! everywhere), so the concurrency unit of the server is the whole
//! session: worker `k` of `n` owns every instance whose id ≡ `k`
//! (mod `n`) — ids come from [`Session::with_id_stride`], so the shards'
//! sequences are disjoint and collectively reproduce a single session's
//! sequence. Pinning all requests for an instance to its owning shard
//! keeps the session's incremental re-solve state (patched `EvalSet`
//! columns, recycled scratch, resolve memo) warm across requests.
//!
//! The request channel is bounded ([`QUEUE_CAPACITY`]): when a shard
//! falls behind, `send` blocks the reactor that is routing to it —
//! backpressure instead of unbounded buffering.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use coschedule::session::{InstanceInfo, SessionStats};
use minijson::Json;

use super::metrics::{LatencyHistogram, QueueDepth};
use super::protocol::{self, ServeState};
use super::wal::WalStats;

/// Bound of each shard's request queue; a full queue blocks the routing
/// reactor (backpressure) rather than buffering without limit.
pub(super) const QUEUE_CAPACITY: usize = 128;

/// The shared instance directory: global instance id → owning shard.
pub(super) type Directory = Arc<Mutex<HashMap<u64, usize>>>;

/// A response tagged with the per-connection sequence number of its
/// request.
pub(super) type TaggedResponse = (u64, String);

/// Where a finished response goes:
///
/// * **reactor** — the owning reactor's completion mailbox, tagged with
///   the connection token so the reactor can route the line to the
///   right write buffer. Pushing also signals the reactor's eventfd;
/// * **channel** — an mpsc sender the router itself waits on while it
///   answers a `batch` sub-request by sub-request.
///
/// Both are unbounded, which is what makes the bounded shard queues
/// deadlock-free: a worker can always deposit its response and move on,
/// so a send into a full shard queue (backpressure on the dispatching
/// side) never waits on a worker that is itself waiting to deliver.
#[derive(Clone)]
pub(super) enum ResponseSink {
    /// To the router's internal lock-step sub-dispatches.
    Channel(Sender<TaggedResponse>),
    /// To a reactor's completion mailbox.
    Reactor {
        conn: u64,
        completions: Arc<super::reactor::Completions>,
    },
}

impl ResponseSink {
    /// Delivers one tagged response. Never blocks; a vanished receiver
    /// (the connection died mid-flight) is ignored — the shard keeps
    /// serving everyone else.
    pub fn send(&self, seq: u64, response: String) {
        match self {
            ResponseSink::Channel(tx) => {
                let _ = tx.send((seq, response));
            }
            ResponseSink::Reactor { conn, completions } => {
                completions.push(*conn, seq, response);
            }
        }
    }
}

/// One message on a shard's request queue.
pub(super) enum ShardMsg {
    /// An instance-routed request; the response goes straight to the
    /// connection's reactor (which does not wait — this is what lets one
    /// connection keep several shards busy at once).
    Apply {
        request: Json,
        seq: u64,
        /// The connection-level request id ([`coschedule::obs`] trace id)
        /// the span tree and `trace_id` echo are keyed by. Sub-requests of
        /// a `batch` carry the envelope's id, so the tag is not always
        /// `seq`.
        trace: u64,
        out: ResponseSink,
    },
    /// A `create`: the router waits for the reply so it can register the
    /// new id in the directory (and advance its round-robin cursor)
    /// before the client can possibly see the response and address the
    /// instance.
    Create {
        request: Json,
        trace: u64,
        done: SyncSender<(String, Option<u64>)>,
    },
    /// State snapshot for the `stats` / `list` / `metrics` fan-outs.
    /// Travels through the queue like any request, so the reply reflects
    /// everything enqueued before it.
    Snapshot { done: SyncSender<ShardSnapshot> },
}

/// One shard's contribution to a cross-shard `stats` / `list` / `metrics`
/// response.
pub(super) struct ShardSnapshot {
    pub live: usize,
    /// Requests the shard has handled ([`ServeState::requests`]).
    pub requests: u64,
    pub stats: SessionStats,
    pub infos: Vec<InstanceInfo>,
    pub wal: Option<WalStats>,
    pub latency: Option<LatencyHistogram>,
}

/// A running shard: its queue sender, its queue-depth gauge, and its
/// thread.
pub(super) struct Worker {
    pub tx: SyncSender<ShardMsg>,
    pub queue: Arc<QueueDepth>,
    handle: JoinHandle<()>,
}

impl Worker {
    /// Spawns shard `shard` around a pre-built state — fresh (a strided
    /// session plus the serve defaults), or recovered from a durability
    /// directory, possibly with a WAL attached.
    pub fn spawn(shard: usize, state: ServeState, directory: Directory) -> Worker {
        let (tx, rx) = std::sync::mpsc::sync_channel(QUEUE_CAPACITY);
        let queue = Arc::new(QueueDepth::default());
        let worker_queue = Arc::clone(&queue);
        let handle = std::thread::Builder::new()
            .name(format!("cosched-shard-{shard}"))
            .spawn(move || run(state, directory, rx, &worker_queue))
            .expect("spawn shard worker");
        Worker { tx, queue, handle }
    }

    /// Stops the worker: drops the queue sender and joins the thread.
    pub fn join(self) {
        let Worker { tx, handle, .. } = self;
        drop(tx);
        let _ = handle.join();
    }
}

fn run(mut state: ServeState, directory: Directory, rx: Receiver<ShardMsg>, queue: &QueueDepth) {
    // `shutdown` never reaches a shard (the router intercepts it), so the
    // per-shard flag stays false; `allow_shutdown` is router state.

    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Apply {
                request,
                seq,
                trace,
                out,
            } => {
                // Adopt the request's trace id so every span this shard
                // thread records while serving it carries the same tag the
                // response echoes.
                coschedule::obs::set_trace_id(trace);
                let response = protocol::respond(&mut state, &request);
                // Durability contract: the op is on disk before the reply
                // can reach the client.
                state.wal_commit();
                // Unregister a closed instance before the client can see
                // the response (a stale entry would still be answered
                // correctly — the session rejects the dead id — but the
                // directory should not outlive the instance).
                if is_ok(&response) && op_is(&request, "close") {
                    if let Some(id) = request.get("id").and_then(Json::as_u64) {
                        directory.lock().expect("directory lock").remove(&id);
                    }
                }
                out.send(seq, response.to_string());
                queue.completed();
                // Snapshot rotation happens after the reply is on its way
                // — off the request latency path.
                state.wal_maybe_snapshot();
            }
            ShardMsg::Create {
                request,
                trace,
                done,
            } => {
                coschedule::obs::set_trace_id(trace);
                let response = protocol::respond(&mut state, &request);
                state.wal_commit();
                let created = if is_ok(&response) {
                    response.get("id").and_then(Json::as_u64)
                } else {
                    None
                };
                let _ = done.send((response.to_string(), created));
                queue.completed();
                state.wal_maybe_snapshot();
            }
            ShardMsg::Snapshot { done } => {
                // Not a routed request: the router did not count it as
                // queued either.
                let _ = done.send(ShardSnapshot {
                    live: state.session().len(),
                    requests: state.requests(),
                    stats: state.session().stats(),
                    infos: state.session().list(),
                    wal: state.wal_stats(),
                    latency: state.latency_snapshot(),
                });
            }
        }
    }
}

fn is_ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

fn op_is(request: &Json, op: &str) -> bool {
    request.get("op").and_then(Json::as_str) == Some(op)
}
