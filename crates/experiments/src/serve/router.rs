//! Deterministic request routing for the sharded server.
//!
//! The router owns the shard workers, the instance directory (global
//! instance id → owning shard), and the round-robin create cursor:
//!
//! * `create` requests are dealt **round-robin** over the shards; the
//!   router waits for the shard's reply while holding the create cursor,
//!   so the new id is registered in the directory (and the cursor only
//!   advances on success) before the client can see the response —
//!   combined with [`Session::with_id_stride`] this reproduces a single
//!   session's id sequence 0, 1, 2, … for any worker count;
//! * requests that carry a live instance id **pin to the owning shard**,
//!   so the session's incremental re-solve state stays warm;
//! * requests with no routable id (unknown ids, missing ids, unknown
//!   ops) go to shard 0, whose protocol layer produces exactly the error
//!   a single session would — error payloads stay identical by
//!   construction instead of by duplication;
//! * `stats` / `list` are answered by **fanning a snapshot marker through
//!   every shard queue** and merging: sums for the counters, an id-sorted
//!   merge for the instance summaries — both serialize through the same
//!   body builders as the single-session path, so a fixed lock-step
//!   request trace gets payload-identical responses at any `--workers`;
//! * `solvers`, `metrics`, and `shutdown` are answered in place.
//!
//! Backpressure: shard queues are bounded, so routing to a saturated
//! shard blocks the dispatching reactor (see
//! [`QUEUE_CAPACITY`](super::worker::QUEUE_CAPACITY)).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use minijson::Json;

use super::metrics::ShardReport;
use super::protocol::{self, error_response};
use super::worker::{Directory, ResponseSink, ShardMsg, ShardSnapshot, TaggedResponse, Worker};
use super::ServeConfig;

/// The shared routing core of a server; one per [`Server`]
/// (`Arc`-shared with every reactor).
///
/// [`Server`]: super::Server
pub(super) struct Router {
    workers: Vec<Worker>,
    directory: Directory,
    /// Round-robin cursor over *successful* creates (failed creates
    /// consume neither an id nor a turn, matching a single session).
    create_cursor: Mutex<u64>,
    shutdown: AtomicBool,
    allow_shutdown: bool,
    /// The reactors' per-shard hooks (registered once they are up):
    /// each shard's completion mailbox — signalled on shutdown so parked
    /// reactors wake and drain — and its network counters for the
    /// `metrics` op.
    reactors: Mutex<Vec<ReactorHook>>,
}

/// One reactor's attachment to the router; see [`Router::attach_reactors`].
pub(super) type ReactorHook = (
    Arc<super::reactor::Completions>,
    Arc<super::metrics::NetMetrics>,
);

impl Router {
    /// Spawns one shard worker per state and the routing state. The
    /// states come from [`super::build_states`] — fresh, or recovered
    /// from a durability directory, in which case the instance directory
    /// and the round-robin create cursor are rebuilt from them (the
    /// cursor is the total count of successful creates: the `m`-th create
    /// landed on shard `m mod n`, so the count *is* the cursor).
    pub fn new(config: &ServeConfig, states: Vec<super::protocol::ServeState>) -> Router {
        let (restored_directory, create_cursor) = super::wal::routing_state(&states);
        let directory: Directory = Arc::new(Mutex::new(restored_directory.into_iter().collect()));
        let workers = states
            .into_iter()
            .enumerate()
            .map(|(k, state)| Worker::spawn(k, state, Arc::clone(&directory)))
            .collect();
        Router {
            workers,
            directory,
            create_cursor: Mutex::new(create_cursor),
            shutdown: AtomicBool::new(false),
            allow_shutdown: config.allow_shutdown,
            reactors: Mutex::new(Vec::new()),
        }
    }

    /// Registers the reactors' hooks, one per shard in shard order.
    /// Reactor `k`'s network counters appear on shard `k`'s `metrics`
    /// row.
    pub fn attach_reactors(&self, hooks: Vec<ReactorHook>) {
        *self.reactors.lock().expect("reactor hooks") = hooks;
    }

    /// `true` once a `shutdown` request has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Routes one raw request line; the response (tagged with `seq`) is
    /// delivered to `out` — immediately for router-answered ops, from the
    /// owning shard's worker for instance ops. `trace` is the server-wide
    /// request id propagated to the shard (the reactor mints it from the
    /// connection id and `seq`).
    pub fn dispatch(&self, line: &str, seq: u64, trace: u64, out: &ResponseSink) {
        let request = match Json::parse(line) {
            Ok(request) => request,
            Err(e) => {
                let body = error_response(&format!("malformed request: {e}"), None);
                out.send(seq, body.to_string());
                return;
            }
        };
        self.dispatch_parsed(request, seq, trace, out);
    }

    /// Routes one parsed request (see [`Self::dispatch`]).
    fn dispatch_parsed(&self, request: Json, seq: u64, trace: u64, out: &ResponseSink) {
        match request.get("op").and_then(Json::as_str) {
            Some("create") => self.dispatch_create(request, seq, trace, out),
            Some("batch") => self.dispatch_batch(request, seq, trace, out),
            // `protocol::is_global_op` is the single definition of which
            // ops the router answers itself; the per-shard `requests`
            // counting in `protocol::respond` keys off the same predicate,
            // so `queue_depth` and `requests` agree on what a shard
            // request is.
            Some(op) if protocol::is_global_op(op) => self.dispatch_global(op, &request, seq, out),
            // Instance ops (and anything unroutable — unknown ops,
            // missing or dead ids): the owning shard, or shard 0, whose
            // dispatch reports the identical error a single session would.
            // The `trace` op is shard-addressed by an explicit `"shard"`
            // field (it drains the addressed worker thread's ring buffer),
            // not by instance id.
            op => {
                let id = request.get("id").and_then(Json::as_u64);
                let shard = if op == Some("trace") {
                    let asked = request.get("shard").and_then(Json::as_u64).unwrap_or(0);
                    (asked as usize) % self.workers.len()
                } else {
                    id.and_then(|id| {
                        self.directory
                            .lock()
                            .expect("directory lock")
                            .get(&id)
                            .copied()
                    })
                    .unwrap_or(0)
                };
                let worker = &self.workers[shard];
                worker.queue.enqueued();
                let sent = worker.tx.send(ShardMsg::Apply {
                    request,
                    seq,
                    trace,
                    out: out.clone(),
                });
                if sent.is_err() {
                    // The shard worker is gone (it panicked mid-request).
                    // Every seq must still be answered, or the writer's
                    // reorder buffer stalls the connection forever.
                    worker.queue.completed();
                    let body = error_response("shard worker died", id);
                    out.send(seq, body.to_string());
                }
            }
        }
    }

    /// Answers one router-level (global) op — exactly the ops
    /// [`protocol::is_global_op`] names.
    fn dispatch_global(&self, op: &str, request: &Json, seq: u64, out: &ResponseSink) {
        match op {
            "stats" => {
                let snapshots = self.snapshots();
                let live = snapshots.iter().map(|s| s.live).sum();
                let mut stats = coschedule::session::SessionStats::default();
                for s in &snapshots {
                    stats.merge(s.stats);
                }
                out.send(seq, protocol::stats_body(live, stats).to_string());
            }
            "list" => {
                let mut infos: Vec<_> =
                    self.snapshots().into_iter().flat_map(|s| s.infos).collect();
                // Each shard lists its instances in ascending id order;
                // the merged view must too (ids interleave mod `shards`).
                infos.sort_by_key(|info| info.id.raw());
                out.send(seq, protocol::list_body(&infos).to_string());
            }
            "solvers" => {
                out.send(seq, protocol::solvers_body().to_string());
            }
            "metrics" => {
                let nets: Vec<_> = {
                    let hooks = self.reactors.lock().expect("reactor hooks");
                    (0..self.workers.len())
                        .map(|shard| hooks.get(shard).map(|(_, net)| net.report()))
                        .collect()
                };
                let reports: Vec<ShardReport> = self
                    .snapshots()
                    .into_iter()
                    .zip(&self.workers)
                    .zip(nets)
                    .enumerate()
                    .map(|(shard, ((snapshot, worker), net))| ShardReport {
                        shard,
                        requests: snapshot.requests,
                        queue_depth: worker.queue.get(),
                        instances: snapshot.live,
                        stats: snapshot.stats,
                        wal: snapshot.wal,
                        net,
                        latency: snapshot.latency,
                    })
                    .collect();
                let body = super::metrics::metrics_body(self.workers.len(), &reports);
                out.send(seq, body.to_string());
            }
            "shutdown" => {
                let body = if self.allow_shutdown {
                    self.shutdown.store(true, Ordering::SeqCst);
                    // Wake every reactor (they may be parked in
                    // epoll_wait with nothing in flight) so each can
                    // observe the flag, drain, and exit.
                    for (completions, _) in self.reactors.lock().expect("reactor hooks").iter() {
                        completions.signal();
                    }
                    protocol::shutdown_body()
                } else {
                    error_response(
                        "shutdown is not enabled on this server",
                        request.get("id").and_then(Json::as_u64),
                    )
                };
                out.send(seq, body.to_string());
            }
            // Defensive: is_global_op and this match are adjacent single
            // sources; a drift still answers instead of dropping the seq.
            other => {
                let body = error_response(&format!("unhandled global op {other:?}"), None);
                out.send(seq, body.to_string());
            }
        }
    }

    /// Answers a `batch` envelope by routing each sub-request through the
    /// normal dispatch **lock-step** (each sub-response is awaited before
    /// the next sub-request is routed), so the combined response is
    /// byte-identical to the sequential exchanges — including the ordering
    /// a lock-step client would observe between mutations and the global
    /// snapshot ops. Nested batches answer an error at their slot, exactly
    /// like the transport-free protocol layer.
    fn dispatch_batch(&self, request: Json, seq: u64, trace: u64, out: &ResponseSink) {
        // Take the envelope apart by value — a batched trace replay can
        // carry the whole workload in one line, and deep-cloning every
        // sub-request would defeat the op's amortization purpose.
        let id = request.get("id").and_then(Json::as_u64);
        let subs = match request {
            Json::Obj(pairs) => pairs
                .into_iter()
                // First match, like `Json::get`.
                .find(|(key, _)| key == "requests")
                .map(|(_, value)| value),
            _ => None,
        };
        let Some(Json::Arr(subs)) = subs else {
            // The identical envelope error the protocol layer produces.
            let body = error_response("missing \"requests\" array", id);
            out.send(seq, body.to_string());
            return;
        };
        let mut responses = Vec::with_capacity(subs.len());
        for sub in subs {
            if sub.get("op").and_then(Json::as_str) == Some("batch") {
                responses.push(error_response(
                    "nested batch is not supported",
                    sub.get("id").and_then(Json::as_u64),
                ));
                continue;
            }
            let (tx, rx) = std::sync::mpsc::channel::<TaggedResponse>();
            let sink = ResponseSink::Channel(tx);
            // Sub-requests inherit the envelope's trace id, so their
            // spans (and `trace_id` echoes) correlate to the one client
            // line that carried them.
            self.dispatch_parsed(sub, 0, trace, &sink);
            drop(sink);
            let line = match rx.recv() {
                Ok((_, line)) => line,
                Err(_) => error_response("shard worker died", None).to_string(),
            };
            // Shard responses arrive serialized; minijson's round-trip-
            // exact numbers make re-embedding them byte-preserving.
            responses.push(Json::parse(&line).unwrap_or_else(|e| {
                error_response(&format!("unparseable shard response: {e}"), None)
            }));
        }
        out.send(seq, protocol::batch_body(responses).to_string());
    }

    /// Routes a `create`: round-robin shard choice, then a synchronous
    /// wait for the shard's reply so the directory registration happens
    /// before the response escapes (a pipelining client may address the
    /// new id on its very next line).
    fn dispatch_create(&self, request: Json, seq: u64, trace: u64, out: &ResponseSink) {
        let mut cursor = self.create_cursor.lock().expect("create cursor lock");
        let shard = (*cursor % self.workers.len() as u64) as usize;
        let worker = &self.workers[shard];
        let (done_tx, done_rx) = std::sync::mpsc::sync_channel(1);
        worker.queue.enqueued();
        let response = match worker.tx.send(ShardMsg::Create {
            request,
            trace,
            done: done_tx,
        }) {
            Ok(()) => match done_rx.recv() {
                Ok((response, created)) => {
                    if let Some(id) = created {
                        self.directory
                            .lock()
                            .expect("directory lock")
                            .insert(id, shard);
                        *cursor += 1;
                    }
                    response
                }
                Err(_) => {
                    worker.queue.completed();
                    error_response("shard worker died", None).to_string()
                }
            },
            Err(_) => {
                worker.queue.completed();
                error_response("shard worker died", None).to_string()
            }
        };
        drop(cursor);
        out.send(seq, response);
    }

    /// Fans a snapshot marker through every shard queue and gathers the
    /// replies (all markers are enqueued before any reply is awaited, so
    /// the shards drain in parallel).
    fn snapshots(&self) -> Vec<ShardSnapshot> {
        let receivers: Vec<_> = self
            .workers
            .iter()
            .map(|worker| {
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                let _ = worker.tx.send(ShardMsg::Snapshot { done: tx });
                rx
            })
            .collect();
        receivers
            .into_iter()
            .map(|rx| {
                rx.recv().unwrap_or(ShardSnapshot {
                    live: 0,
                    requests: 0,
                    stats: Default::default(),
                    infos: Vec::new(),
                    wal: None,
                    latency: None,
                })
            })
            .collect()
    }

    /// Stops every shard worker (drops their queues, joins their threads).
    pub fn join(self) {
        for worker in self.workers {
            worker.join();
        }
    }
}
