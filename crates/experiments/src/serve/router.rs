//! Deterministic request routing for the sharded server.
//!
//! The router owns the shards — one [`ServeState`] behind a mutex each —
//! the instance directory (global instance id → owning shard), and the
//! round-robin create cursor. Every request is answered **inline, on the
//! reactor thread that read it**: the router locks the owning shard, runs
//! [`protocol::respond`] and the WAL commit, unlocks, and returns the
//! reply.
//!
//! * `create` requests are dealt **round-robin** over the shards; the
//!   router holds the create cursor while the shard answers, so the new
//!   id is registered in the directory (and the cursor only advances on
//!   success) before the client can see the response — combined with
//!   [`Session::with_id_stride`] this reproduces a single session's id
//!   sequence 0, 1, 2, … for any worker count;
//! * requests that carry a live instance id **pin to the owning shard**,
//!   so the session's incremental re-solve state stays warm;
//! * requests with no routable id (unknown ids, missing ids, unknown
//!   ops) go to shard 0, whose protocol layer produces exactly the error
//!   a single session would — error payloads stay identical by
//!   construction instead of by duplication;
//! * `stats` / `list` / `metrics` **lock the shards one at a time** and
//!   merge: sums for the counters, an id-sorted merge for the instance
//!   summaries — both serialize through the same body builders as the
//!   single-session path, so a fixed lock-step request trace gets
//!   payload-identical responses at any `--workers`;
//! * `solvers` and `shutdown` are answered in place.
//!
//! Locking: the order is create cursor → one shard → directory, and no
//! thread ever holds two shard locks at once. Solving on the reactor
//! thread has two costs. A long solve (a 4096-app `"auto"`, or `exact`
//! under its time budget) blocks every other connection of the reactor
//! that runs it, and so does the WAL commit's `fsync` under
//! `--durability fsync`. And a reactor that needs a shard another
//! reactor is solving on waits for that shard's lock.
//!
//! Fault containment: each lock-and-respond runs inside one
//! `catch_unwind`. A panic answers its own request with an `internal:`
//! error and poisons only that shard's mutex; from then on the shard
//! answers `"shard worker died"`, while the reactors and the other shards
//! keep serving.
//!
//! [`Session::with_id_stride`]: coschedule::session::Session::with_id_stride

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use coschedule::session::{InstanceInfo, SessionStats};
use minijson::Json;

use super::metrics::{LatencyHistogram, NetMetrics, ShardReport};
use super::protocol::{self, error_response, ServeState};
use super::wal::WalStats;
use super::ServeConfig;

/// The shared routing core of a server; one per [`Server`]
/// (`Arc`-shared with every reactor).
///
/// [`Server`]: super::Server
pub(super) struct Router {
    shards: Vec<Mutex<ServeState>>,
    /// Global instance id → owning shard.
    directory: Mutex<HashMap<u64, usize>>,
    /// Round-robin cursor over *successful* creates (failed creates
    /// consume neither an id nor a turn, matching a single session).
    create_cursor: Mutex<u64>,
    shutdown: AtomicBool,
    allow_shutdown: bool,
    /// The reactors' per-shard hooks (registered once they are up): each
    /// reactor's inbox — signalled on shutdown so sleeping reactors wake
    /// and drain — and its network counters for the `metrics` op.
    reactors: Mutex<Vec<ReactorHook>>,
}

/// One reactor's attachment to the router; see [`Router::attach_reactors`].
pub(super) type ReactorHook = (Arc<super::reactor::Inbox>, Arc<NetMetrics>);

/// One shard's contribution to a cross-shard `stats` / `list` / `metrics`
/// response.
#[derive(Default)]
struct ShardSnapshot {
    live: usize,
    /// Requests the shard has handled ([`ServeState::requests`]).
    requests: u64,
    stats: SessionStats,
    infos: Vec<InstanceInfo>,
    wal: Option<WalStats>,
    latency: Option<LatencyHistogram>,
}

impl Router {
    /// Puts each state behind its shard lock. The states come from
    /// [`super::build_states`] — fresh, or recovered from a durability
    /// directory, in which case the instance directory and the round-robin
    /// create cursor are rebuilt from them (the cursor is the total count
    /// of successful creates: the `m`-th create landed on shard `m mod n`,
    /// so the count *is* the cursor).
    pub fn new(config: &ServeConfig, states: Vec<ServeState>) -> Router {
        let (directory, create_cursor) = super::wal::routing_state(&states);
        Router {
            shards: states.into_iter().map(Mutex::new).collect(),
            directory: Mutex::new(directory.into_iter().collect()),
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

    /// Answers one raw request line. `trace` is the server-wide request
    /// id the shard's spans and `trace_id` echo carry (the reactor mints
    /// it from the connection id and the request's sequence number).
    /// Shards the request left due for a WAL snapshot are added to
    /// `rotations`; the caller flushes the reply first, then calls
    /// [`Self::rotate`] for each.
    pub fn dispatch(&self, line: &str, trace: u64, rotations: &mut Vec<usize>) -> String {
        match Json::parse(line) {
            Ok(request) => self.dispatch_parsed(request, trace, rotations),
            Err(e) => error_response(&format!("malformed request: {e}"), None),
        }
        .to_string()
    }

    /// Routes one parsed request (see [`Self::dispatch`]).
    fn dispatch_parsed(&self, request: Json, trace: u64, rotations: &mut Vec<usize>) -> Json {
        match request.get("op").and_then(Json::as_str) {
            Some("create") => self.dispatch_create(&request, trace, rotations),
            Some("batch") => self.dispatch_batch(request, trace, rotations),
            // `protocol::is_global_op` is the single definition of which
            // ops the router answers itself; the per-shard `requests`
            // counting in `protocol::respond` keys off the same predicate.
            Some(op) if protocol::is_global_op(op) => self.dispatch_global(op, &request),
            // Instance ops (and anything unroutable — unknown ops,
            // missing or dead ids): the owning shard, or shard 0, whose
            // dispatch reports the identical error a single session would.
            // The `trace` op is shard-addressed by an explicit `"shard"`
            // field (it drains the addressed shard's ring buffer), not by
            // instance id.
            op => {
                let id = request.get("id").and_then(Json::as_u64);
                let shard = if op == Some("trace") {
                    let asked = request.get("shard").and_then(Json::as_u64).unwrap_or(0);
                    (asked as usize) % self.shards.len()
                } else {
                    id.and_then(|id| self.directory().get(&id).copied())
                        .unwrap_or(0)
                };
                let closes = op == Some("close");
                self.on_shard(shard, trace, id, rotations, |state| {
                    let response = protocol::respond(state, &request);
                    // Unregister a closed instance before the client can
                    // see the response (a stale entry would still be
                    // answered correctly — the session rejects the dead id
                    // — but the directory should not outlive the instance).
                    if closes && is_ok(&response) {
                        if let Some(id) = id {
                            self.directory().remove(&id);
                        }
                    }
                    response
                })
            }
        }
    }

    /// Locks shard `shard` and runs `f` on it, with the request's trace
    /// id set and the shard's span ring installed on this thread, then
    /// commits the WAL — the durability contract: the op is on disk
    /// before the reply can reach the client.
    ///
    /// The lock and `f` run inside one `catch_unwind`. A panic answers
    /// `{"ok":false,…,"error":"internal: …"}` (echoing `id`) and poisons
    /// this shard's mutex only; a poisoned shard answers
    /// `"shard worker died"` from then on.
    fn on_shard(
        &self,
        shard: usize,
        trace: u64,
        id: Option<u64>,
        rotations: &mut Vec<usize>,
        f: impl FnOnce(&mut ServeState) -> Json,
    ) -> Json {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut state = self.shards[shard].lock().ok()?;
            let _ring = state.install_trace_ring();
            coschedule::obs::set_trace_id(trace);
            let response = f(&mut state);
            state.wal_commit();
            if state.wal_rotation_due() && !rotations.contains(&shard) {
                rotations.push(shard);
            }
            Some(response)
        }));
        match outcome {
            Ok(Some(response)) => response,
            Ok(None) => error_response("shard worker died", id),
            Err(panic) => error_response(&format!("internal: {}", panic_message(&*panic)), id),
        }
    }

    /// Rotates shard `shard`'s WAL to a fresh snapshot if one is due (see
    /// [`Self::dispatch`]). A failed rotation panics inside the shard's
    /// lock, which poisons that shard like any other panic.
    pub fn rotate(&self, shard: usize) {
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Ok(mut state) = self.shards[shard].lock() {
                state.wal_maybe_snapshot();
            }
        }));
    }

    /// Answers one router-level (global) op — exactly the ops
    /// [`protocol::is_global_op`] names.
    fn dispatch_global(&self, op: &str, request: &Json) -> Json {
        match op {
            "stats" => {
                let snapshots = self.snapshots();
                let live = snapshots.iter().map(|s| s.live).sum();
                let mut stats = SessionStats::default();
                for s in &snapshots {
                    stats.merge(s.stats);
                }
                protocol::stats_body(live, stats)
            }
            "list" => {
                let mut infos: Vec<_> =
                    self.snapshots().into_iter().flat_map(|s| s.infos).collect();
                // Each shard lists its instances in ascending id order;
                // the merged view must too (ids interleave mod `shards`).
                infos.sort_by_key(|info| info.id.raw());
                protocol::list_body(&infos)
            }
            "solvers" => protocol::solvers_body(),
            "metrics" => {
                let nets: Vec<_> = {
                    let hooks = self.reactors.lock().expect("reactor hooks");
                    (0..self.shards.len())
                        .map(|shard| hooks.get(shard).map(|(_, net)| net.report()))
                        .collect()
                };
                let reports: Vec<ShardReport> = self
                    .snapshots()
                    .into_iter()
                    .zip(nets)
                    .enumerate()
                    .map(|(shard, (snapshot, net))| ShardReport {
                        shard,
                        requests: snapshot.requests,
                        instances: snapshot.live,
                        stats: snapshot.stats,
                        wal: snapshot.wal,
                        net,
                        latency: snapshot.latency,
                    })
                    .collect();
                super::metrics::metrics_body(self.shards.len(), &reports)
            }
            "shutdown" => {
                if !self.allow_shutdown {
                    return error_response(
                        "shutdown is not enabled on this server",
                        request.get("id").and_then(Json::as_u64),
                    );
                }
                self.shutdown.store(true, Ordering::SeqCst);
                // Wake every reactor (they may be asleep in epoll_wait)
                // so each can observe the flag, drain, and exit.
                for (inbox, _) in self.reactors.lock().expect("reactor hooks").iter() {
                    inbox.signal();
                }
                protocol::shutdown_body()
            }
            // Defensive: is_global_op and this match are adjacent single
            // sources; a drift still answers instead of dropping the line.
            other => error_response(&format!("unhandled global op {other:?}"), None),
        }
    }

    /// Answers a `batch` envelope by routing each sub-request through the
    /// normal dispatch in order, so the combined response is
    /// byte-identical to the sequential exchanges — including the ordering
    /// a lock-step client would observe between mutations and the global
    /// snapshot ops. Nested batches answer an error at their slot, exactly
    /// like the transport-free protocol layer.
    fn dispatch_batch(&self, request: Json, trace: u64, rotations: &mut Vec<usize>) -> Json {
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
            return error_response("missing \"requests\" array", id);
        };
        let responses = subs
            .into_iter()
            .map(|sub| {
                if sub.get("op").and_then(Json::as_str) == Some("batch") {
                    let id = sub.get("id").and_then(Json::as_u64);
                    error_response("nested batch is not supported", id)
                } else {
                    // Sub-requests inherit the envelope's trace id, so
                    // their spans (and `trace_id` echoes) correlate to the
                    // one client line that carried them.
                    self.dispatch_parsed(sub, trace, rotations)
                }
            })
            .collect();
        protocol::batch_body(responses)
    }

    /// Routes a `create`: round-robin shard choice, answered while the
    /// create cursor is held, so the directory registration happens
    /// before the response escapes (a pipelining client may address the
    /// new id on its very next line).
    fn dispatch_create(&self, request: &Json, trace: u64, rotations: &mut Vec<usize>) -> Json {
        let mut cursor = self.create_cursor.lock().expect("create cursor lock");
        let shard = (*cursor % self.shards.len() as u64) as usize;
        self.on_shard(shard, trace, None, rotations, |state| {
            let response = protocol::respond(state, request);
            if is_ok(&response) {
                if let Some(id) = response.get("id").and_then(Json::as_u64) {
                    self.directory().insert(id, shard);
                    *cursor += 1;
                }
            }
            response
        })
    }

    /// One snapshot per shard, taking the shard locks one at a time. A
    /// shard poisoned by a panic contributes an empty snapshot.
    fn snapshots(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .map(|shard| match shard.lock() {
                Ok(state) => ShardSnapshot {
                    live: state.session().len(),
                    requests: state.requests(),
                    stats: state.session().stats(),
                    infos: state.session().list(),
                    wal: state.wal_stats(),
                    latency: state.latency_snapshot(),
                },
                Err(_) => ShardSnapshot::default(),
            })
            .collect()
    }

    fn directory(&self) -> MutexGuard<'_, HashMap<u64, usize>> {
        self.directory.lock().expect("directory lock")
    }
}

fn is_ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The message of a caught panic (`panic!` payloads are `&str` or
/// `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create_line(name: &str) -> String {
        format!(
            r#"{{"op":"create","apps":[{{"name":"{name}","work":1e10,"seq_fraction":0.1,"access_freq":0.5,"miss_rate_ref":1e-3}},{{"name":"B","work":2e10,"seq_fraction":0.05,"access_freq":0.6,"miss_rate_ref":2e-3}}]}}"#
        )
    }

    fn parse(line: &str) -> Json {
        Json::parse(line).expect("router replies are JSON")
    }

    #[test]
    fn a_panic_answers_an_error_and_poisons_only_its_shard() {
        let mut config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let states = super::super::build_states(&mut config).expect("fresh states");
        let router = Router::new(&config, states);
        let mut rotations = Vec::new();
        // Round-robin: instance 0 lands on shard 0, instance 1 on shard 1.
        for name in ["A", "C"] {
            let created = parse(&router.dispatch(&create_line(name), 0, &mut rotations));
            assert_eq!(created.get("ok").and_then(Json::as_bool), Some(true));
        }

        let reply = router.on_shard(0, 7, Some(0), &mut rotations, |_| {
            panic!("injected solver fault")
        });
        assert_eq!(
            reply.to_string(),
            r#"{"ok":false,"id":0,"error":"internal: injected solver fault"}"#
        );

        let later = router.dispatch(r#"{"op":"solve","id":0}"#, 8, &mut rotations);
        assert_eq!(
            later, r#"{"ok":false,"id":0,"error":"shard worker died"}"#,
            "the poisoned shard keeps answering, with an error"
        );

        let other = parse(&router.dispatch(r#"{"op":"solve","id":1}"#, 9, &mut rotations));
        assert_eq!(
            other.get("ok").and_then(Json::as_bool),
            Some(true),
            "{other}"
        );
        assert_eq!(other.get("id").and_then(Json::as_u64), Some(1));
        assert!(rotations.is_empty(), "no WAL, no rotations");
    }
}
