//! Request/response layer of the serve protocol: one parsed JSON request
//! in, one JSON response out, against a [`ServeState`].
//!
//! Everything here is transport-free by construction — [`handle_line`]
//! maps one request string to one response string, so the whole protocol
//! is testable without sockets. The server's shards funnel into
//! [`respond`] too (behind the [`router`](super::router)), so a
//! server at any worker count answers every request with the same bytes
//! a [`handle_line`] replay on one fresh state produces.
//!
//! Error responses echo the request's `"id"` field whenever the request
//! parsed and carried a numeric one, so a client multiplexing several
//! instances over one connection can attribute a failure without relying
//! on response order alone.

use std::sync::Arc;

use coschedule::model::{Application, Platform};
use coschedule::obs;
use coschedule::session::{InstanceInfo, Session, SessionStats};
use coschedule::solver;
use minijson::Json;

use super::metrics::{metrics_body, LatencyHistogram, ShardObs, ShardReport};
use super::wal::{WalStats, WalWriter};

/// Every op the protocol understands, in dispatch order — the single
/// source of truth behind unknown-op errors, which list the available
/// ops the same way [`coschedule::error::CoschedError::UnknownSolver`]
/// lists the registered solvers.
pub const OPS: &[&str] = &[
    "create",
    "mutate",
    "add_app",
    "remove_app",
    "update_app",
    "set_platform",
    "solve",
    "batch",
    "stats",
    "list",
    "solvers",
    "metrics",
    "trace",
    "close",
    "shutdown",
];

/// The actions the `mutate` envelope (and its aliases) accepts.
pub const MUTATIONS: &[&str] = &["add_app", "remove_app", "update_app", "set_platform"];

/// Protocol state: the session plus serve-level knobs.
pub struct ServeState {
    session: Session,
    /// Solver used when a `solve` request names none.
    pub default_solver: String,
    /// Seed used when a `solve` request carries none.
    pub default_seed: u64,
    /// Whether the `shutdown` op is honoured (`cosched serve
    /// --allow-shutdown`, and always in loopback smoke tests).
    pub allow_shutdown: bool,
    shutdown_requested: bool,
    /// Shard-routed request counter + dispatch-latency histogram (what
    /// the `metrics` op reports; global ops like `stats` are excluded
    /// because the router answers them without reaching a shard). Shared
    /// as an [`Arc`] so the `--metrics-addr` scrape thread reads it
    /// without taking the shard's lock; the histogram base is persisted in
    /// WAL snapshots and carried across `--restore` like the request
    /// counter.
    obs: Arc<ShardObs>,
    /// This shard's span ring: installed on whichever reactor thread
    /// serves the shard, so the `trace` op drains this shard's timeline.
    trace_ring: obs::RingHandle,
    /// Write-ahead log, attached when the server runs with `--durability
    /// log|fsync`. [`respond`] appends every shard-routed request to it
    /// *before* dispatching; the transport layer calls
    /// [`ServeState::wal_commit`] before the reply escapes.
    wal: Option<WalWriter>,
    /// This state's shard index (0 for a lone state) — the
    /// `trace` op's and slow-request log's shard label.
    pub shard: usize,
    /// When `true` (`cosched serve --trace`), every shard-routed response
    /// carries the request's `trace_id` — the server-wide request id
    /// minted by the reactor, `(connection id << 32) | sequence`. Off by default so the wire format
    /// is unchanged for existing clients and golden suites.
    pub echo_trace: bool,
    /// Dispatch-time threshold for the slow-request log (`--slow-ms N`):
    /// any shard-routed request slower than this logs one stderr line
    /// with trace id, op, shard, and a per-phase breakdown.
    pub slow_ms: Option<u64>,
}

impl Default for ServeState {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeState {
    /// Fresh state with an empty session and the CLI's defaults.
    pub fn new() -> Self {
        Self::with_session(Session::new())
    }

    /// Fresh state around an existing session (the sharded server builds
    /// per-shard sessions with [`Session::with_id_stride`]).
    pub fn with_session(session: Session) -> Self {
        Self {
            session,
            default_solver: "DominantMinRatio".to_string(),
            default_seed: 0xC05,
            allow_shutdown: false,
            shutdown_requested: false,
            obs: Arc::new(ShardObs::default()),
            trace_ring: obs::RingHandle::default(),
            wal: None,
            shard: 0,
            echo_trace: false,
            slow_ms: None,
        }
    }

    /// State rebuilt by recovery ([`super::wal::recover_shard`]): the
    /// restored session plus the request counter and latency-histogram
    /// base the crashed server had reached at its last snapshot
    /// (replaying the WAL tail through [`respond`] then advances both
    /// exactly as the original ops did).
    pub fn restore(session: Session, requests: u64, latency: LatencyHistogram) -> Self {
        let mut state = Self::with_session(session);
        state.obs = Arc::new(ShardObs::with_base(requests, &latency));
        state
    }

    /// The shared request/latency counters (the `--metrics-addr` scrape
    /// thread clones this handle).
    pub fn obs_handle(&self) -> Arc<ShardObs> {
        Arc::clone(&self.obs)
    }

    /// Makes this shard's span ring the calling thread's until the guard
    /// drops (the router holds the shard's lock meanwhile).
    pub(super) fn install_trace_ring(&self) -> obs::RingGuard {
        self.trace_ring.install()
    }

    /// Starts logging every shard-routed op to `writer`. Attached *after*
    /// any WAL replay, so recovery never re-logs what it replays.
    pub fn attach_wal(&mut self, writer: WalWriter) {
        self.wal = Some(writer);
    }

    /// The group-commit point: makes every op appended since the last
    /// call durable. Transports call this after handling a line and
    /// **before** writing the reply — the durability contract is that no
    /// acknowledged op is ever lost.
    ///
    /// # Panics
    /// On I/O failure. Durability is fail-stop by design: a server that
    /// cannot log must not keep acknowledging ops it cannot recover.
    pub fn wal_commit(&mut self) {
        if let Some(wal) = &mut self.wal {
            wal.commit().expect("write-ahead log commit failed");
        }
    }

    /// Whether [`Self::wal_maybe_snapshot`] would rotate now.
    pub(super) fn wal_rotation_due(&self) -> bool {
        self.wal.as_ref().is_some_and(WalWriter::should_rotate)
    }

    /// Rotates to a fresh snapshot + empty log once enough records have
    /// accumulated (`--snapshot-every`). Transports call this *after*
    /// replying, keeping snapshot writes out of the request latency path.
    ///
    /// # Panics
    /// On I/O failure (fail-stop, as for [`Self::wal_commit`]).
    pub fn wal_maybe_snapshot(&mut self) {
        if let Some(wal) = &mut self.wal {
            if wal.should_rotate() {
                wal.rotate(
                    &self.session,
                    self.obs.requests(),
                    &self.obs.latency_snapshot(),
                )
                .expect("write-ahead log rotation failed");
            }
        }
    }

    /// This state's durability counters; `None` without an attached WAL.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(WalWriter::stats)
    }

    /// `true` once a `shutdown` request has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested
    }

    /// The underlying session (e.g. for post-test assertions).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Shard-routed requests handled so far.
    pub fn requests(&self) -> u64 {
        self.obs.requests()
    }

    /// The dispatch-latency histogram, `None` until a shard-routed
    /// request has been answered — the `metrics` op omits `latency_*`
    /// columns for an idle shard (a restored shard resumes from its
    /// snapshot's histogram, so it usually reports immediately).
    pub fn latency_snapshot(&self) -> Option<LatencyHistogram> {
        let snap = self.obs.latency_snapshot();
        (snap.count() > 0).then_some(snap)
    }
}

/// Handles one request line, returning the response line (without the
/// trailing newline). Never panics on malformed input.
pub fn handle_line(state: &mut ServeState, line: &str) -> String {
    let response = match Json::parse(line) {
        Ok(request) => respond(state, &request),
        Err(e) => error_response(&format!("malformed request: {e}"), None),
    };
    response.to_string()
}

/// Ops the sharded router answers itself rather than enqueueing to a
/// shard (`create` is shard-routed despite its special round-robin
/// handling; `batch` is an envelope — the router answers it by routing
/// each **sub**-request, so only the sub-requests count). Single source
/// of truth shared by the router's dispatch and the `requests` counting
/// below — the two must agree, or the metrics op's per-shard request
/// totals drift from a [`handle_line`] replay's.
pub(super) fn is_global_op(op: &str) -> bool {
    matches!(
        op,
        "stats" | "list" | "solvers" | "metrics" | "shutdown" | "batch"
    )
}

/// Answers one parsed request: `dispatch` plus the error envelope. The
/// router calls this directly (it already parsed the line
/// to route it), `handle_line` after parsing.
pub fn respond(state: &mut ServeState, request: &Json) -> Json {
    if !request
        .get("op")
        .and_then(Json::as_str)
        .is_some_and(is_global_op)
    {
        let op = request.get("op").and_then(Json::as_str).unwrap_or("");
        let mut request_sp = obs::span("serve", op_span_name(op));
        request_sp.set_args(obs::current_trace_id(), state.shard as u64);
        // Log before dispatch, in the canonical serialization — replaying
        // the log re-enters here and reproduces the dispatch bit for bit.
        // Failed ops are logged too: they bump counters and eval stats,
        // and recovery must reproduce those. Fail-stop on I/O error (see
        // [`ServeState::wal_commit`]).
        let wal_started = std::time::Instant::now();
        if let Some(wal) = &mut state.wal {
            let append_sp = obs::span("wal", "wal_append");
            wal.append(&request.to_string())
                .expect("write-ahead log append failed");
            drop(append_sp);
        }
        let wal_ns = wal_started.elapsed().as_nanos() as u64;
        let started = std::time::Instant::now();
        let result = dispatch(state, request);
        let dispatch_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Count shard-routed requests only; global ops are answered by
        // the router in the sharded server and never reach a shard.
        state.obs.record_request(dispatch_ns);
        if let Some(slow_ms) = state.slow_ms {
            if dispatch_ns / 1_000_000 >= slow_ms {
                eprintln!(
                    "slow request: trace_id={} op={} shard={} dispatch_ms={:.3} wal_append_us={:.1}",
                    obs::current_trace_id(),
                    op,
                    state.shard,
                    dispatch_ns as f64 / 1e6,
                    wal_ns as f64 / 1e3,
                );
            }
        }
        let mut body = match result {
            Ok(body) => body,
            Err(message) => error_response(&message, request.get("id").and_then(Json::as_u64)),
        };
        if state.echo_trace {
            if let Json::Obj(pairs) = &mut body {
                pairs.push(("trace_id".to_string(), Json::from(obs::current_trace_id())));
            }
        }
        return body;
    }
    match dispatch(state, request) {
        Ok(body) => body,
        Err(message) => error_response(&message, request.get("id").and_then(Json::as_u64)),
    }
}

/// Static span name for a shard-routed op (ring events hold only
/// `&'static str`).
fn op_span_name(op: &str) -> &'static str {
    match op {
        "create" => "op_create",
        "mutate" => "op_mutate",
        "add_app" => "op_add_app",
        "remove_app" => "op_remove_app",
        "update_app" => "op_update_app",
        "set_platform" => "op_set_platform",
        "solve" => "op_solve",
        "trace" => "op_trace",
        "close" => "op_close",
        _ => "op_other",
    }
}

/// `{"ok":false,…}` with the offending request's instance id echoed when
/// it carried one (a multiplexing client needs it to correlate failures).
pub(super) fn error_response(message: &str, id: Option<u64>) -> Json {
    let mut pairs = vec![("ok".to_string(), Json::from(false))];
    if let Some(id) = id {
        pairs.push(("id".to_string(), Json::from(id)));
    }
    pairs.push(("error".to_string(), Json::from(message)));
    Json::Obj(pairs)
}

fn dispatch(state: &mut ServeState, request: &Json) -> Result<Json, String> {
    let op = request
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing \"op\" field")?;
    match op {
        "create" => op_create(state, request),
        "mutate" => op_mutate(state, request),
        // Direct aliases so scripts can skip the "mutate" envelope.
        "add_app" | "remove_app" | "update_app" | "set_platform" => {
            apply_mutation(state, request, op)
        }
        "solve" => op_solve(state, request),
        "batch" => op_batch(state, request),
        "stats" => Ok(stats_body(state.session.len(), state.session.stats())),
        "list" => Ok(list_body(&state.session.list())),
        "solvers" => Ok(solvers_body()),
        "metrics" => Ok(metrics_body(
            1,
            &[ShardReport {
                shard: 0,
                requests: state.obs.requests(),
                instances: state.session.len(),
                stats: state.session.stats(),
                wal: state.wal_stats(),
                // A transport-free state has no reactor; no net columns.
                net: None,
                latency: state.latency_snapshot(),
            }],
        )),
        "trace" => Ok(op_trace(state)),
        "close" => op_close(state, request),
        "shutdown" => {
            if !state.allow_shutdown {
                return Err("shutdown is not enabled on this server".into());
            }
            state.shutdown_requested = true;
            Ok(shutdown_body())
        }
        other => Err(format!(
            "unknown op {other:?}; available: {}",
            OPS.join(", ")
        )),
    }
}

/// The `batch` op: several requests in one line, one combined response.
/// Each element of `"requests"` is handled exactly as if it had arrived
/// on its own line, in order, and its response lands at the same index of
/// `"responses"` — byte-identical to the sequential exchanges (pinned by
/// the loopback tests). One level only: a batch inside a batch answers an
/// error at its slot (unbounded nesting would be a recursion hazard, and
/// the sharded router flattens exactly one level).
fn op_batch(state: &mut ServeState, request: &Json) -> Result<Json, String> {
    let subs = request
        .get("requests")
        .and_then(Json::as_array)
        .ok_or("missing \"requests\" array")?;
    let responses: Vec<Json> = subs
        .iter()
        .map(|sub| {
            if sub.get("op").and_then(Json::as_str) == Some("batch") {
                error_response(
                    "nested batch is not supported",
                    sub.get("id").and_then(Json::as_u64),
                )
            } else {
                respond(state, sub)
            }
        })
        .collect();
    Ok(batch_body(responses))
}

/// The combined `batch` response — shared with the router, so both
/// paths serialize the envelope identically.
pub(super) fn batch_body(responses: Vec<Json>) -> Json {
    Json::obj([
        ("ok", Json::from(true)),
        ("count", Json::from(responses.len())),
        ("responses", Json::Arr(responses)),
    ])
}

/// The `stats` response for `live` instances and aggregate counters —
/// shared by the single-session path and the router's cross-shard merge,
/// so both serialize identically.
pub(super) fn stats_body(live: usize, stats: SessionStats) -> Json {
    Json::obj([
        ("ok", Json::from(true)),
        ("instances", Json::from(live)),
        ("instances_created", Json::from(stats.instances_created)),
        ("mutations", Json::from(stats.mutations)),
        ("solves", Json::from(stats.solves)),
        ("incremental_solves", Json::from(stats.incremental_solves)),
        ("cold_solves", Json::from(stats.cold_solves)),
        ("memo_hits", Json::from(stats.memo_hits)),
        ("kernel_calls", Json::from(stats.eval.kernel_calls)),
        ("apps_evaluated", Json::from(stats.eval.apps_evaluated)),
    ])
}

/// The `list` response for instance summaries already sorted by id.
pub(super) fn list_body(infos: &[InstanceInfo]) -> Json {
    Json::obj([
        ("ok", Json::from(true)),
        (
            "instances",
            Json::arr(infos.iter().map(|info| {
                Json::obj([
                    ("id", Json::from(info.id.raw())),
                    ("revision", Json::from(info.revision)),
                    ("apps", Json::from(info.apps)),
                    ("processors", Json::from(info.processors)),
                    ("cache_size", Json::from(info.cache_size)),
                ])
            })),
        ),
    ])
}

/// The `solvers` response (static: the registry contents).
pub(super) fn solvers_body() -> Json {
    Json::obj([
        ("ok", Json::from(true)),
        (
            "solvers",
            Json::arr(solver::names().into_iter().map(Json::from)),
        ),
    ])
}

/// The `trace` op: drains the handling thread's span ring buffer. On the
/// server the op is routed like any other shard op (an optional
/// `"shard"` field picks the target, default 0) and the shard's own ring
/// is installed while it is served, so the drained timeline is that
/// shard's; on a lone state it is the calling thread's. Returns the
/// events plus how many were lost to ring overwrite since the previous
/// drain, and whether tracing is even on.
fn op_trace(state: &ServeState) -> Json {
    let chunk = obs::drain_local();
    Json::obj([
        ("ok", Json::from(true)),
        ("shard", Json::from(state.shard)),
        ("enabled", Json::from(obs::enabled())),
        ("dropped", Json::from(chunk.dropped)),
        (
            "events",
            Json::arr(chunk.events.iter().map(|ev| {
                Json::obj([
                    ("name", Json::from(ev.name)),
                    ("cat", Json::from(ev.cat)),
                    (
                        "ph",
                        Json::from(match ev.kind {
                            obs::EventKind::Span => "X",
                            obs::EventKind::Instant => "i",
                        }),
                    ),
                    ("ts_ns", Json::from(ev.ts_ns)),
                    ("dur_ns", Json::from(ev.dur_ns)),
                    ("span_id", Json::from(ev.span_id)),
                    ("parent_id", Json::from(ev.parent_id)),
                    ("trace_id", Json::from(ev.trace_id)),
                    ("arg0", Json::from(ev.arg0)),
                    ("arg1", Json::from(ev.arg1)),
                ])
            })),
        ),
    ])
}

/// The accepted-`shutdown` response.
pub(super) fn shutdown_body() -> Json {
    Json::obj([
        ("ok", Json::from(true)),
        ("shutting_down", Json::from(true)),
    ])
}

fn require_id(
    state: &ServeState,
    request: &Json,
) -> Result<coschedule::session::InstanceId, String> {
    let raw = request
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("missing or non-integer \"id\" field")?;
    let id = coschedule::session::InstanceId::from_raw(raw);
    // Resolve eagerly so every op reports a dead id the same way.
    state
        .session
        .instance(id)
        .map_err(|e| e.to_string())
        .map(|_| id)
}

/// `{"ok":true,"id":…,"revision":…,"apps":…}` plus op-specific extras.
fn state_header(state: &ServeState, id: coschedule::session::InstanceId) -> Vec<(String, Json)> {
    vec![
        ("ok".into(), Json::from(true)),
        ("id".into(), Json::from(id.raw())),
        (
            "revision".into(),
            Json::from(state.session.revision(id).expect("live id")),
        ),
        (
            "apps".into(),
            Json::from(state.session.instance(id).expect("live id").len()),
        ),
    ]
}

fn op_create(state: &mut ServeState, request: &Json) -> Result<Json, String> {
    let apps = request
        .get("apps")
        .and_then(Json::as_array)
        .ok_or("missing \"apps\" array")?;
    let apps: Vec<Application> = apps.iter().map(app_from_json).collect::<Result<_, _>>()?;
    let platform = match request.get("platform") {
        Some(spec) => platform_from_json(spec)?,
        None => Platform::taihulight(),
    };
    let id = state
        .session
        .create(apps, platform)
        .map_err(|e| e.to_string())?;
    Ok(Json::Obj(state_header(state, id)))
}

fn op_mutate(state: &mut ServeState, request: &Json) -> Result<Json, String> {
    let action = request
        .get("action")
        .and_then(Json::as_str)
        .ok_or("missing \"action\" field (add_app, remove_app, update_app, set_platform)")?
        // `get` borrows `request`; dispatching needs an owned copy.
        .to_string();
    apply_mutation(state, request, &action)
}

fn apply_mutation(state: &mut ServeState, request: &Json, action: &str) -> Result<Json, String> {
    let id = require_id(state, request)?;
    let mut handle = state.session.handle(id).map_err(|e| e.to_string())?;
    let mut extras: Vec<(String, Json)> = Vec::new();
    match action {
        "add_app" => {
            let app = app_from_json(request.get("app").ok_or("missing \"app\" object")?)?;
            let index = handle.add_app(app).map_err(|e| e.to_string())?;
            extras.push(("index".into(), Json::from(index)));
        }
        "remove_app" => {
            let index = request
                .get("index")
                .and_then(Json::as_usize)
                .ok_or("missing or non-integer \"index\" field")?;
            let removed = handle.remove_app(index).map_err(|e| e.to_string())?;
            extras.push(("removed".into(), Json::from(removed.name)));
        }
        "update_app" => {
            let index = request
                .get("index")
                .and_then(Json::as_usize)
                .ok_or("missing or non-integer \"index\" field")?;
            let app = app_from_json(request.get("app").ok_or("missing \"app\" object")?)?;
            let old = handle.update_app(index, app).map_err(|e| e.to_string())?;
            extras.push(("replaced".into(), Json::from(old.name)));
        }
        "set_platform" => {
            // Overrides apply on top of the instance's *current* platform:
            // a partial spec changes only the named fields.
            let platform = platform_overrides_from_json(
                handle.instance().platform().clone(),
                request
                    .get("platform")
                    .ok_or("missing \"platform\" object")?,
            )?;
            handle.set_platform(platform).map_err(|e| e.to_string())?;
        }
        other => {
            return Err(format!(
                "unknown mutation action {other:?}; available: {}",
                MUTATIONS.join(", ")
            ))
        }
    }
    let mut body = state_header(state, id);
    body.extend(extras);
    Ok(Json::Obj(body))
}

fn op_solve(state: &mut ServeState, request: &Json) -> Result<Json, String> {
    let id = require_id(state, request)?;
    let solver_name = match request.get("solver") {
        Some(v) => v.as_str().ok_or("\"solver\" must be a string")?.to_string(),
        None => state.default_solver.clone(),
    };
    let seed = match request.get("seed") {
        Some(v) => v
            .as_u64()
            .ok_or("\"seed\" must be a non-negative integer")?,
        None => state.default_seed,
    };
    let include_schedule = request
        .get("schedule")
        .and_then(Json::as_bool)
        .unwrap_or(true);

    let before = state.session.stats();
    let outcome = state
        .session
        .resolve_by_name(id, &solver_name, seed)
        .map_err(|e| e.to_string())?;
    let after = state.session.stats();
    let mode = if after.memo_hits > before.memo_hits {
        "memo"
    } else if after.incremental_solves > before.incremental_solves {
        "incremental"
    } else {
        "cold"
    };

    let mut body = state_header(state, id);
    body.extend([
        ("solver".into(), Json::from(solver_name)),
        ("seed".into(), Json::from(seed)),
        ("mode".into(), Json::from(mode)),
        ("makespan".into(), Json::from(outcome.makespan)),
        ("concurrent".into(), Json::from(outcome.concurrent)),
        ("optimal".into(), Json::from(outcome.optimal)),
        (
            "partition".into(),
            Json::arr(outcome.partition.members().iter().map(|&i| Json::from(i))),
        ),
        (
            "eval_stats".into(),
            Json::obj([
                ("kernel_calls", Json::from(outcome.eval_stats.kernel_calls)),
                (
                    "apps_evaluated",
                    Json::from(outcome.eval_stats.apps_evaluated),
                ),
            ]),
        ),
    ]);
    if include_schedule {
        let instance = state.session.instance(id).expect("live id");
        body.push((
            "assignments".into(),
            Json::arr(
                instance
                    .apps()
                    .iter()
                    .zip(&outcome.schedule.assignments)
                    .map(|(app, asg)| {
                        Json::obj([
                            ("name", Json::from(app.name.as_str())),
                            ("procs", Json::from(asg.procs)),
                            ("cache", Json::from(asg.cache)),
                        ])
                    }),
            ),
        ));
    }
    Ok(Json::Obj(body))
}

fn op_close(state: &mut ServeState, request: &Json) -> Result<Json, String> {
    let id = require_id(state, request)?;
    state.session.close(id).map_err(|e| e.to_string())?;
    Ok(Json::obj([
        ("ok", Json::from(true)),
        ("id", Json::from(id.raw())),
        ("closed", Json::from(true)),
    ]))
}

fn field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("app is missing numeric field {key:?}"))
}

/// Parses one application object. `seq_fraction` defaults to 0 (perfectly
/// parallel) and `footprint` to unbounded, matching [`Application::new`].
pub fn app_from_json(v: &Json) -> Result<Application, String> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or("app is missing string field \"name\"")?;
    let mut app = Application::new(
        name,
        field(v, "work")?,
        v.get("seq_fraction").and_then(Json::as_f64).unwrap_or(0.0),
        field(v, "access_freq")?,
        field(v, "miss_rate_ref")?,
    );
    if let Some(footprint) = v.get("footprint").and_then(Json::as_f64) {
        app = app.with_footprint(footprint);
    }
    Ok(app)
}

/// Serializes one application the way [`app_from_json`] reads it (the
/// infinite default footprint is an absent field — JSON has no `inf`).
pub fn app_to_json(app: &Application) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::from(app.name.as_str())),
        ("work".to_string(), Json::from(app.work)),
        ("seq_fraction".to_string(), Json::from(app.seq_fraction)),
        ("access_freq".to_string(), Json::from(app.access_freq)),
        ("miss_rate_ref".to_string(), Json::from(app.miss_rate_ref)),
    ];
    if app.footprint.is_finite() {
        pairs.push(("footprint".to_string(), Json::from(app.footprint)));
    }
    Json::Obj(pairs)
}

/// Parses a platform object for `create`: starts from
/// [`Platform::taihulight`] and overrides any of `processors`,
/// `cache_size` (bytes), `cache_gb`, `ref_cache_size`, `latency_cache`,
/// `latency_mem`, `alpha`.
pub fn platform_from_json(v: &Json) -> Result<Platform, String> {
    platform_overrides_from_json(Platform::taihulight(), v)
}

/// Applies a platform object's fields as **overrides of `base`** —
/// the `set_platform` mutation path, where a partial spec must change
/// only the named fields of the instance's current platform (not silently
/// reset the rest to the Taihulight defaults).
pub fn platform_overrides_from_json(base: Platform, v: &Json) -> Result<Platform, String> {
    let num = |key: &str| -> Result<Option<f64>, String> {
        match v.get(key) {
            None => Ok(None),
            Some(value) => value
                .as_f64()
                .map(Some)
                .ok_or_else(|| format!("platform field {key:?} must be a number")),
        }
    };
    let mut platform = base;
    if let Some(p) = num("processors")? {
        platform.processors = p;
    }
    if let Some(cs) = num("cache_size")? {
        platform.cache_size = cs;
    }
    if let Some(gb) = num("cache_gb")? {
        platform.cache_size = gb * 1e9;
    }
    if let Some(c0) = num("ref_cache_size")? {
        platform.ref_cache_size = c0;
    }
    if let Some(ls) = num("latency_cache")? {
        platform.latency_cache = ls;
    }
    if let Some(ll) = num("latency_mem")? {
        platform.latency_mem = ll;
    }
    if let Some(alpha) = num("alpha")? {
        platform.alpha = alpha;
    }
    Ok(platform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coschedule::solver::{Instance, SolveCtx};

    fn npb_create_line() -> String {
        Json::obj([
            ("op", Json::from("create")),
            (
                "apps",
                Json::arr(workloads::npb::npb6(&[0.05]).iter().map(app_to_json)),
            ),
        ])
        .to_string()
    }

    fn ok(response: &str) -> Json {
        let v = Json::parse(response).unwrap_or_else(|e| panic!("bad response {response}: {e}"));
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
        v
    }

    #[test]
    fn create_mutate_solve_round_trip_without_sockets() {
        let mut state = ServeState::new();
        let created = ok(&handle_line(&mut state, &npb_create_line()));
        assert_eq!(created.get("id").and_then(Json::as_u64), Some(0));
        assert_eq!(created.get("apps").and_then(Json::as_u64), Some(6));

        let removed = ok(&handle_line(
            &mut state,
            r#"{"op":"mutate","id":0,"action":"remove_app","index":1}"#,
        ));
        assert_eq!(removed.get("removed").and_then(Json::as_str), Some("BT"));
        assert_eq!(removed.get("apps").and_then(Json::as_u64), Some(5));

        let solved = ok(&handle_line(
            &mut state,
            r#"{"op":"solve","id":0,"solver":"DominantMinRatio","seed":7}"#,
        ));
        // The served makespan equals a direct cold solve bit-exactly.
        let mut apps = workloads::npb::npb6(&[0.05]);
        apps.remove(1);
        let inst = Instance::new(apps, Platform::taihulight()).unwrap();
        let direct = solver::by_name("DominantMinRatio")
            .unwrap()
            .solve(&inst, &mut SolveCtx::seeded(7))
            .unwrap();
        assert_eq!(
            solved
                .get("makespan")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
            direct.makespan.to_bits()
        );
        let assignments = solved.get("assignments").unwrap().as_array().unwrap();
        assert_eq!(assignments.len(), 5);
        assert_eq!(
            assignments[0].get("procs").and_then(Json::as_f64).unwrap(),
            direct.schedule.assignments[0].procs
        );
    }

    #[test]
    fn solve_modes_progress_cold_memo_incremental() {
        let mut state = ServeState::new();
        let _ = ok(&handle_line(&mut state, &npb_create_line()));
        let solve = r#"{"op":"solve","id":0,"seed":1,"schedule":false}"#;
        let first = ok(&handle_line(&mut state, solve));
        assert_eq!(first.get("mode").and_then(Json::as_str), Some("cold"));
        let second = ok(&handle_line(&mut state, solve));
        assert_eq!(second.get("mode").and_then(Json::as_str), Some("memo"));
        let _ = ok(&handle_line(
            &mut state,
            r#"{"op":"update_app","id":0,"index":0,"app":{"name":"CG","work":6e10,
                "seq_fraction":0.05,"access_freq":0.535,"miss_rate_ref":6.59e-4}}"#,
        ));
        let third = ok(&handle_line(&mut state, solve));
        assert_eq!(
            third.get("mode").and_then(Json::as_str),
            Some("incremental")
        );
        let stats = ok(&handle_line(&mut state, r#"{"op":"stats"}"#));
        assert_eq!(stats.get("solves").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("memo_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(
            stats.get("incremental_solves").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn errors_keep_state_and_report_reasons() {
        let mut state = ServeState::new();
        for (line, needle) in [
            ("not json", "malformed"),
            (r#"{"no":"op"}"#, "missing \"op\""),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"solve","id":9}"#, "no instance with id 9"),
            (r#"{"op":"create","apps":[]}"#, "no applications"),
            (
                r#"{"op":"create","apps":[{"name":"A"}]}"#,
                "missing numeric field",
            ),
            (r#"{"op":"shutdown"}"#, "not enabled"),
        ] {
            let v = Json::parse(&handle_line(&mut state, line)).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
            let error = v.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains(needle), "{line}: {error}");
        }
        assert!(!state.shutdown_requested());
        // Unknown solver errors carry the registry.
        let _ = ok(&handle_line(&mut state, &npb_create_line()));
        let v = Json::parse(&handle_line(
            &mut state,
            r#"{"op":"solve","id":0,"solver":"Nope"}"#,
        ))
        .unwrap();
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("DominantMinRatio"));
    }

    #[test]
    fn error_responses_echo_the_request_id() {
        let mut state = ServeState::new();
        // Dead instance: the id the client asked about comes back.
        let v = Json::parse(&handle_line(&mut state, r#"{"op":"solve","id":9}"#)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(9));
        // Bad mutation on a live instance: still echoed.
        let _ = ok(&handle_line(&mut state, &npb_create_line()));
        for line in [
            r#"{"op":"mutate","id":0,"action":"frobnicate"}"#,
            r#"{"op":"remove_app","id":0,"index":99}"#,
            r#"{"op":"solve","id":0,"solver":"Nope"}"#,
            r#"{"op":"mutate","id":0}"#,
        ] {
            let v = Json::parse(&handle_line(&mut state, line)).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(0), "{line}");
        }
        // No id in the request (or unparseable request): no id to echo.
        for line in ["not json", r#"{"op":"frobnicate"}"#, r#"{"op":"solve"}"#] {
            let v = Json::parse(&handle_line(&mut state, line)).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
            assert!(v.get("id").is_none(), "{line} must not invent an id");
        }
    }

    #[test]
    fn metrics_reports_the_single_state_as_shard_zero() {
        let mut state = ServeState::new();
        let _ = ok(&handle_line(&mut state, &npb_create_line()));
        let _ = ok(&handle_line(
            &mut state,
            r#"{"op":"solve","id":0,"seed":1,"schedule":false}"#,
        ));
        let v = ok(&handle_line(&mut state, r#"{"op":"metrics"}"#));
        assert_eq!(v.get("workers").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("requests").and_then(Json::as_u64), Some(2));
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].get("shard").and_then(Json::as_u64), Some(0));
        assert_eq!(shards[0].get("requests").and_then(Json::as_u64), Some(2));
        assert!(
            shards[0].get("queue_depth").is_none(),
            "no queue, no column"
        );
        assert_eq!(shards[0].get("cold_solves").and_then(Json::as_u64), Some(1));
        assert!(
            shards[0]
                .get("kernel_calls")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        // Both routed requests were timed; the merged top-level columns
        // mirror the single shard's histogram.
        assert_eq!(
            shards[0].get("latency_count").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(v.get("latency_count").and_then(Json::as_u64), Some(2));
        let p50 = v.get("latency_p50_ns").and_then(Json::as_u64).unwrap();
        let p95 = v.get("latency_p95_ns").and_then(Json::as_u64).unwrap();
        let p99 = v.get("latency_p99_ns").and_then(Json::as_u64).unwrap();
        assert!(0 < p50 && p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn idle_state_reports_no_latency_columns() {
        // Global ops are not shard-routed, so they are neither counted
        // nor timed — the latency columns only appear once a routed
        // request has been dispatched.
        let mut state = ServeState::new();
        let v = ok(&handle_line(&mut state, r#"{"op":"metrics"}"#));
        assert!(v.get("latency_count").is_none());
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        assert!(shards[0].get("latency_count").is_none());
        assert!(state.latency_snapshot().is_none());
    }

    #[test]
    fn unknown_op_and_mutation_errors_list_what_is_available() {
        let mut state = ServeState::new();
        let v = Json::parse(&handle_line(&mut state, r#"{"op":"frobnicate"}"#)).unwrap();
        let error = v.get("error").and_then(Json::as_str).unwrap();
        for op in OPS {
            assert!(error.contains(op), "{op} missing from {error}");
        }
        let _ = ok(&handle_line(&mut state, &npb_create_line()));
        let v = Json::parse(&handle_line(
            &mut state,
            r#"{"op":"mutate","id":0,"action":"frobnicate"}"#,
        ))
        .unwrap();
        let error = v.get("error").and_then(Json::as_str).unwrap();
        for action in MUTATIONS {
            assert!(error.contains(action), "{action} missing from {error}");
        }
    }

    #[test]
    fn platform_overrides_apply() {
        let p = platform_from_json(
            &Json::parse(r#"{"processors":64,"cache_gb":1,"alpha":0.4}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(p.processors, 64.0);
        assert_eq!(p.cache_size, 1e9);
        assert_eq!(p.alpha, 0.4);
        assert_eq!(p.latency_cache, Platform::taihulight().latency_cache);
        assert!(platform_from_json(&Json::parse(r#"{"alpha":"x"}"#).unwrap()).is_err());
    }

    #[test]
    fn set_platform_keeps_unspecified_fields_of_the_current_platform() {
        let mut state = ServeState::new();
        let _ = ok(&handle_line(
            &mut state,
            &Json::obj([
                ("op", Json::from("create")),
                (
                    "apps",
                    Json::arr(workloads::npb::npb6(&[0.05]).iter().map(app_to_json)),
                ),
                (
                    "platform",
                    Json::parse(r#"{"processors":64,"alpha":0.4}"#).unwrap(),
                ),
            ])
            .to_string(),
        ));
        // Change only the LLC size; processors and alpha must survive.
        let _ = ok(&handle_line(
            &mut state,
            r#"{"op":"set_platform","id":0,"platform":{"cache_gb":16}}"#,
        ));
        let id = coschedule::session::InstanceId::from_raw(0);
        let platform = state.session().instance(id).unwrap().platform();
        assert_eq!(platform.processors, 64.0, "override must not reset p");
        assert_eq!(platform.alpha, 0.4, "override must not reset alpha");
        assert_eq!(platform.cache_size, 16e9);
    }

    #[test]
    fn every_request_line_gets_exactly_one_response() {
        // Blank and whitespace-only lines answer with an error instead of
        // being skipped — a client pairing requests with responses must
        // never desynchronise.
        let mut state = ServeState::new();
        for line in ["", "   ", "\t"] {
            let v = Json::parse(&handle_line(&mut state, line)).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line:?}");
        }
    }

    #[test]
    fn batch_is_byte_identical_to_sequential_exchanges() {
        let script = [
            npb_create_line(),
            r#"{"op":"solve","id":0,"solver":"DominantMinRatio","seed":7}"#.to_string(),
            r#"{"op":"mutate","id":0,"action":"remove_app","index":1}"#.to_string(),
            r#"{"op":"solve","id":0,"solver":"auto","seed":7,"schedule":false}"#.to_string(),
            r#"{"op":"stats"}"#.to_string(),
            r#"{"op":"solve","id":9}"#.to_string(), // an error mid-batch
            r#"{"op":"list"}"#.to_string(),
        ];
        // Sequential reference.
        let mut sequential = ServeState::new();
        let expected: Vec<String> = script
            .iter()
            .map(|line| handle_line(&mut sequential, line))
            .collect();
        // One batch envelope over a fresh state.
        let mut batched = ServeState::new();
        let envelope = Json::obj([
            ("op", Json::from("batch")),
            (
                "requests",
                Json::Arr(script.iter().map(|l| Json::parse(l).unwrap()).collect()),
            ),
        ])
        .to_string();
        let combined = ok(&handle_line(&mut batched, &envelope));
        assert_eq!(
            combined.get("count").and_then(Json::as_u64),
            Some(script.len() as u64)
        );
        let responses = combined.get("responses").and_then(Json::as_array).unwrap();
        assert_eq!(responses.len(), expected.len());
        for (got, want) in responses.iter().zip(&expected) {
            assert_eq!(&got.to_string(), want, "batch response diverged");
        }
        // Both states saw the identical request stream.
        assert_eq!(
            batched.session().stats(),
            sequential.session().stats(),
            "batch must drive the session exactly like sequential requests"
        );
        assert_eq!(batched.requests(), sequential.requests());
    }

    #[test]
    fn batch_rejects_nesting_and_missing_requests() {
        let mut state = ServeState::new();
        let v = Json::parse(&handle_line(&mut state, r#"{"op":"batch"}"#)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("requests"));
        // A nested batch errors at its slot; its neighbours still run.
        let v = ok(&handle_line(
            &mut state,
            r#"{"op":"batch","requests":[{"op":"batch","requests":[]},{"op":"solvers"}]}"#,
        ));
        let responses = v.get("responses").and_then(Json::as_array).unwrap();
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        assert!(responses[0]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("nested batch"));
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
        // An empty batch is a valid no-op.
        let v = ok(&handle_line(&mut state, r#"{"op":"batch","requests":[]}"#));
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn shutdown_inside_a_batch_still_shuts_down() {
        let mut state = ServeState::new();
        state.allow_shutdown = true;
        let v = ok(&handle_line(
            &mut state,
            r#"{"op":"batch","requests":[{"op":"stats"},{"op":"shutdown"}]}"#,
        ));
        let responses = v.get("responses").and_then(Json::as_array).unwrap();
        assert_eq!(
            responses[1].get("shutting_down").and_then(Json::as_bool),
            Some(true)
        );
        assert!(state.shutdown_requested());
    }

    #[test]
    fn metrics_reports_tuner_counters_after_auto_solves() {
        let mut state = ServeState::new();
        let _ = ok(&handle_line(&mut state, &npb_create_line()));
        for _ in 0..2 {
            // Mutate first so no memo path could ever interfere.
            let _ = ok(&handle_line(
                &mut state,
                r#"{"op":"update_app","id":0,"index":0,"app":{"name":"CG","work":6e10,
                    "seq_fraction":0.05,"access_freq":0.535,"miss_rate_ref":6.59e-4}}"#,
            ));
            let _ = ok(&handle_line(
                &mut state,
                r#"{"op":"solve","id":0,"solver":"auto","seed":1,"schedule":false}"#,
            ));
        }
        let v = ok(&handle_line(&mut state, r#"{"op":"metrics"}"#));
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        let explored = shards[0].get("tuner_explored").and_then(Json::as_u64);
        let member_solves = shards[0].get("tuner_member_solves").and_then(Json::as_u64);
        assert_eq!(explored, Some(2), "fresh tuner explores first");
        assert_eq!(
            member_solves,
            Some(2 * coschedule::solver::all().len() as u64)
        );
        assert_eq!(
            shards[0]
                .get("tuner_challenger_wins")
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn auto_solves_never_hit_the_memo() {
        let mut state = ServeState::new();
        let _ = ok(&handle_line(&mut state, &npb_create_line()));
        let solve = r#"{"op":"solve","id":0,"solver":"auto","seed":1,"schedule":false}"#;
        let first = ok(&handle_line(&mut state, solve));
        assert_eq!(first.get("mode").and_then(Json::as_str), Some("cold"));
        // Identical (revision, solver, seed): a learning solver must still
        // execute — the tuner needs the observation.
        let second = ok(&handle_line(&mut state, solve));
        assert_ne!(second.get("mode").and_then(Json::as_str), Some("memo"));
        let stats = ok(&handle_line(&mut state, r#"{"op":"stats"}"#));
        assert_eq!(stats.get("memo_hits").and_then(Json::as_u64), Some(0));
        assert_eq!(stats.get("solves").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn app_json_round_trips_including_footprint() {
        let app = Application::new("MG", 1.23e10, 0.12, 0.540, 2.62e-2).with_footprint(100e6);
        let back = app_from_json(&app_to_json(&app)).unwrap();
        assert_eq!(back, app);
        let unbounded = Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4);
        let v = app_to_json(&unbounded);
        assert!(v.get("footprint").is_none(), "inf must be absent");
        assert_eq!(app_from_json(&v).unwrap(), unbounded);
    }

    #[test]
    fn smoke_script_runs_clean_in_process() {
        let mut state = ServeState::new();
        state.allow_shutdown = true;
        let script = super::super::smoke_script();
        for (i, line) in script.iter().enumerate() {
            let _ = ok(&handle_line(&mut state, line));
            assert_eq!(
                state.shutdown_requested(),
                i == script.len() - 1,
                "shutdown only at the end"
            );
        }
    }
}
