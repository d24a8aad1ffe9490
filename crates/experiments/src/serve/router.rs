//! Deterministic request routing for the sharded server.
//!
//! The router owns the shards — one [`ServeState`] behind a mutex each —
//! the instance directory (global instance id → owning shard), and the
//! round-robin create cursor. Every request is answered **inline, on the
//! reactor thread that read it**: the router locks the owning shard, has
//! the protocol write the reply into the reactor's buffer, commits the
//! WAL, and unlocks. The protocol tells it whether the reply is ok and
//! which id a `create` made; the router never reads reply text back.
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
//! * the server-wide ops — `stats`, `list`, `solvers`, `metrics`,
//!   `shutdown` and `batch` — are answered by the very functions that
//!   answer them for a lone [`ServeState`], here over the shard locks,
//!   **taken one at a time**: sums for the counters, an id-sorted merge
//!   for the instance summaries, one row per shard for `metrics`. A fixed
//!   lock-step request trace therefore gets payload-identical responses
//!   at any `--workers`. A `batch` routes each sub-request through this
//!   same dispatch, in order.
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
//! error in place of whatever part of the reply was written, and poisons
//! only that shard's mutex; from then on the shard answers
//! `"shard worker died"`, while the reactors and the other shards keep
//! serving. Under `--trace` both errors carry the request's `trace_id`,
//! like every other shard-routed reply.
//!
//! [`Session::with_id_stride`]: coschedule::session::Session::with_id_stride

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use minijson::JsonWriter;

use super::metrics::{metrics_body, shard_reports, NetMetrics, ShardReport};
use super::protocol::{self, Op, Request, ServeState, Writer};
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
    /// `--trace`: the router's own error replies echo the trace id too.
    echo_trace: bool,
    /// The reactors' per-shard hooks (registered once they are up): each
    /// reactor's inbox — signalled on shutdown so sleeping reactors wake
    /// and drain — and its network counters for the `metrics` op.
    reactors: Mutex<Vec<ReactorHook>>,
}

/// One reactor's attachment to the router; see [`Router::attach_reactors`].
pub(super) type ReactorHook = (Arc<super::reactor::Inbox>, Arc<NetMetrics>);

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
            echo_trace: config.trace,
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

    /// Answers one raw request line, appending the reply to `out`.
    /// `trace` is the server-wide request id the shard's spans and
    /// `trace_id` echo carry (the reactor mints it from the connection id
    /// and the request's sequence number). Shards the request left due
    /// for a WAL snapshot are added to `rotations`; the caller flushes
    /// the reply first, then calls [`Self::rotate`] for each.
    pub fn dispatch(&self, line: &str, trace: u64, rotations: &mut Vec<usize>, out: &mut String) {
        let w = &mut JsonWriter::new(out);
        match Request::read_line(line) {
            Ok(mut request) => self.dispatch_parsed(&mut request, trace, rotations, w),
            Err(e) => protocol::write_error(w, &format!("malformed request: {e}"), None, None),
        }
    }

    /// Routes one decoded request (see [`Self::dispatch`]).
    fn dispatch_parsed(
        &self,
        request: &mut Request<'_>,
        trace: u64,
        rotations: &mut Vec<usize>,
        w: &mut Writer<'_>,
    ) {
        let shard = match request.op {
            // The server-wide ops: the same functions the protocol answers
            // a lone state with, here over every shard lock.
            Ok(Op::Stats) => return protocol::stats_reply(w, &self.shards[..]),
            Ok(Op::List) => return protocol::list_reply(w, &self.shards[..]),
            Ok(Op::Solvers) => return protocol::solvers_reply(w),
            Ok(Op::Metrics) => return metrics_body(w, &self.reports()),
            Ok(Op::Shutdown) => {
                return protocol::shutdown_reply(w, request.id, self.allow_shutdown, || {
                    self.shutdown.store(true, Ordering::SeqCst);
                    // Wake every reactor (they may be asleep in
                    // epoll_wait) so each can observe the flag, drain,
                    // and exit.
                    for (inbox, _) in self.reactors.lock().expect("reactor hooks").iter() {
                        inbox.signal();
                    }
                });
            }
            // Sub-requests inherit the envelope's trace id, so their
            // spans (and `trace_id` echoes) correlate to the one client
            // line that carried them.
            Ok(Op::Batch) => {
                return protocol::batch_reply(w, request, |w, sub| {
                    self.dispatch_parsed(sub, trace, rotations, w)
                })
            }
            Ok(Op::Create) => return self.dispatch_create(request, trace, rotations, w),
            // The `trace` op is shard-addressed by an explicit `"shard"`
            // field (it drains the addressed shard's ring buffer), not by
            // instance id.
            Ok(Op::Trace) => (request.shard() as usize) % self.shards.len(),
            // Instance ops (and anything unroutable — unknown ops,
            // missing or dead ids): the owning shard, or shard 0, whose
            // dispatch reports the identical error a single session would.
            _ => request
                .id
                .and_then(|id| self.directory().get(&id).copied())
                .unwrap_or(0),
        };
        let closes = matches!(request.op, Ok(Op::Close));
        let id = request.id;
        self.on_shard(shard, trace, id, rotations, w, |state, w| {
            let replied = protocol::respond_routed(state, request, w);
            // Unregister a closed instance before the client can see the
            // response (a stale entry would still be answered correctly —
            // the session rejects the dead id — but the directory should
            // not outlive the instance).
            if closes && replied.ok {
                if let Some(id) = id {
                    self.directory().remove(&id);
                }
            }
        })
    }

    /// Locks shard `shard` and runs `f` on it, with the request's trace
    /// id set and the shard's span ring installed on this thread, then
    /// commits the WAL — the durability contract: the op is on disk
    /// before the reply can reach the client.
    ///
    /// The lock and `f` run inside one `catch_unwind`. A panic rewinds
    /// whatever `f` wrote and answers
    /// `{"ok":false,…,"error":"internal: …"}` (echoing `id`, and `trace`
    /// under `--trace`) instead, and poisons this shard's mutex only; a
    /// poisoned shard answers `"shard worker died"` from then on.
    fn on_shard(
        &self,
        shard: usize,
        trace: u64,
        id: Option<u64>,
        rotations: &mut Vec<usize>,
        w: &mut Writer<'_>,
        f: impl FnOnce(&mut ServeState, &mut Writer<'_>),
    ) {
        let mark = w.mark();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut state = self.shards[shard].lock().ok()?;
            let _ring = state.install_trace_ring();
            coschedule::obs::set_trace_id(trace);
            f(&mut state, w);
            state.wal_commit();
            if state.wal_rotation_due() && !rotations.contains(&shard) {
                rotations.push(shard);
            }
            Some(())
        }));
        let message = match outcome {
            Ok(Some(())) => return,
            Ok(None) => "shard worker died".to_string(),
            Err(panic) => format!("internal: {}", panic_message(&*panic)),
        };
        w.rewind(mark);
        protocol::write_error(w, &message, id, self.echo_trace.then_some(trace));
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

    /// Routes a `create`: round-robin shard choice, answered while the
    /// create cursor is held, so the directory registration happens
    /// before the response escapes (a pipelining client may address the
    /// new id on its very next line).
    fn dispatch_create(
        &self,
        request: &mut Request<'_>,
        trace: u64,
        rotations: &mut Vec<usize>,
        w: &mut Writer<'_>,
    ) {
        let mut cursor = self.create_cursor.lock().expect("create cursor lock");
        let shard = (*cursor % self.shards.len() as u64) as usize;
        self.on_shard(shard, trace, None, rotations, w, |state, w| {
            if let Some(id) = protocol::respond_routed(state, request, w).created {
                self.directory().insert(id, shard);
                *cursor += 1;
            }
        })
    }

    /// Every shard's `metrics` row, each read under its own lock in
    /// turn, with its reactor's network counters — what the `metrics` op
    /// and the `--metrics-addr` scrape both render.
    pub fn reports(&self) -> Vec<ShardReport> {
        let nets: Vec<_> = self
            .reactors
            .lock()
            .expect("reactor hooks")
            .iter()
            .map(|(_, net)| net.report())
            .collect();
        shard_reports(&self.shards[..], |shard| nets.get(shard).copied())
    }

    fn directory(&self) -> MutexGuard<'_, HashMap<u64, usize>> {
        self.directory.lock().expect("directory lock")
    }
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
    use minijson::Json;

    fn create_line(name: &str) -> String {
        format!(
            r#"{{"op":"create","apps":[{{"name":"{name}","work":1e10,"seq_fraction":0.1,"access_freq":0.5,"miss_rate_ref":1e-3}},{{"name":"B","work":2e10,"seq_fraction":0.05,"access_freq":0.6,"miss_rate_ref":2e-3}}]}}"#
        )
    }

    fn parse(line: &str) -> Json {
        Json::parse(line).expect("router replies are JSON")
    }

    /// A fresh two-worker router.
    fn two_shards(trace: bool) -> Router {
        let mut config = ServeConfig {
            workers: 2,
            trace,
            ..ServeConfig::default()
        };
        let states = super::super::build_states(&mut config).expect("fresh states");
        Router::new(&config, states)
    }

    /// The reply the router writes for `line` under trace id `trace`.
    fn reply(router: &Router, line: &str, trace: u64, rotations: &mut Vec<usize>) -> String {
        let mut out = String::new();
        router.dispatch(line, trace, rotations, &mut out);
        out
    }

    /// Creates instances 0 and 1 (round-robin: shard 0, then shard 1),
    /// injects a panic into shard 0 under trace id 7, and asks shard 0
    /// for a solve under trace id 8. Returns those two replies.
    fn panic_then_poisoned(router: &Router, rotations: &mut Vec<usize>) -> (String, String) {
        for name in ["A", "C"] {
            let created = parse(&reply(router, &create_line(name), 0, rotations));
            assert_eq!(created.get("ok").and_then(Json::as_bool), Some(true));
        }
        let mut panicked = String::new();
        router.on_shard(
            0,
            7,
            Some(0),
            rotations,
            &mut JsonWriter::new(&mut panicked),
            |_, w| {
                // Half a reply is on the buffer when the fault hits.
                w.begin_object().key("ok");
                panic!("injected solver fault")
            },
        );
        let poisoned = reply(router, r#"{"op":"solve","id":0}"#, 8, rotations);
        (panicked, poisoned)
    }

    #[test]
    fn a_panic_answers_an_error_and_poisons_only_its_shard() {
        let router = two_shards(false);
        let mut rotations = Vec::new();
        let (panicked, poisoned) = panic_then_poisoned(&router, &mut rotations);
        assert_eq!(
            panicked,
            r#"{"ok":false,"id":0,"error":"internal: injected solver fault"}"#
        );
        assert_eq!(
            poisoned, r#"{"ok":false,"id":0,"error":"shard worker died"}"#,
            "the poisoned shard keeps answering, with an error"
        );

        let other = parse(&reply(
            &router,
            r#"{"op":"solve","id":1}"#,
            9,
            &mut rotations,
        ));
        assert_eq!(
            other.get("ok").and_then(Json::as_bool),
            Some(true),
            "{other}"
        );
        assert_eq!(other.get("id").and_then(Json::as_u64), Some(1));
        assert!(rotations.is_empty(), "no WAL, no rotations");
    }

    #[test]
    fn a_panic_answers_an_error_and_poisons_only_its_shard_with_trace() {
        let router = two_shards(true);
        let mut rotations = Vec::new();
        let (panicked, poisoned) = panic_then_poisoned(&router, &mut rotations);
        assert_eq!(
            panicked,
            r#"{"ok":false,"id":0,"error":"internal: injected solver fault","trace_id":7}"#
        );
        assert_eq!(
            poisoned,
            r#"{"ok":false,"id":0,"error":"shard worker died","trace_id":8}"#
        );
        let other = reply(&router, r#"{"op":"solve","id":1}"#, 9, &mut rotations);
        assert!(other.ends_with(r#","trace_id":9}"#), "{other}");
    }

    #[test]
    fn a_poisoned_shard_reports_a_zero_row_and_no_samples() {
        let router = two_shards(false);
        let mut rotations = Vec::new();
        for name in ["A", "C"] {
            reply(&router, &create_line(name), 0, &mut rotations);
        }
        router.on_shard(
            0,
            1,
            Some(0),
            &mut rotations,
            &mut JsonWriter::new(&mut String::new()),
            |_, _| panic!("injected"),
        );

        let metrics = parse(&reply(&router, r#"{"op":"metrics"}"#, 2, &mut rotations));
        let rows = metrics.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].get("requests").and_then(Json::as_u64), Some(0));
        assert_eq!(rows[0].get("instances").and_then(Json::as_u64), Some(0));
        assert_eq!(rows[1].get("requests").and_then(Json::as_u64), Some(1));
        let list = reply(&router, r#"{"op":"list"}"#, 3, &mut rotations);
        assert!(
            list.contains(r#""id":1"#) && !list.contains(r#""id":0"#),
            "{list}"
        );

        let exposition = super::super::metrics::prometheus_body(0.0, &router.reports(), 0);
        assert!(exposition.contains(r#"cosched_requests_total{shard="1"} 1"#));
        assert!(!exposition.contains(r#"shard="0""#), "{exposition}");
        assert!(exposition.contains("cosched_workers 2"));
    }
}
