//! Request/response layer of the serve protocol: one JSON request line
//! in, one JSON response out, against a [`ServeState`].
//!
//! Everything here is transport-free by construction — [`handle_line`]
//! maps one request string to one response string, so the whole protocol
//! is testable without sockets. The server's shards funnel into the same
//! functions (behind the [`router`](super::router)), so a server at any
//! worker count answers every request with the same bytes a
//! [`handle_line`] replay on one fresh state produces.
//!
//! Replies are written, not built: every op writes its reply field by
//! field with [`minijson::JsonWriter`], straight into a `String` the
//! caller supplies (the server reuses one per reactor). No [`Json`] tree
//! is assembled for a reply, nor for a request. The writer's bytes are
//! `Json`'s `Display` bytes, so the wire format is the one the tree used
//! to print.
//!
//! Requests are read, not parsed into a tree: [`minijson::Reader`] walks
//! each line once into a `Request`, with each `batch` sub-request inside
//! it. A `Request` holds the op, looked up in the one op table (`OPS`:
//! wire name, op, span name), the numeric `"id"`, the first occurrence of
//! every other field an op reads (a `create`'s applications already
//! built), and the request's span on the line. The reader checks the
//! whole line as [`Json::parse`] does, so a malformed line answers the
//! same error, and a duplicate key answers by its first occurrence, as
//! [`Json::get`] does. The application and platform field rules are
//! written once, over the fields however they were read, and
//! [`app_from_json`] applies them to a tree. Routing, dispatch, spans and
//! error replies read the op and id; each op reads its other fields after
//! checking the id, so a dead id is reported before a bad field. The WAL
//! logs each routed request as its span, the bytes the reader consumed for
//! it: read alone, a span reads as the same request, so replaying it
//! through [`handle_line`] dispatches it as it was dispatched live.
//!
//! Error responses echo the request's `"id"` field whenever the request
//! parsed and carried a numeric one, so a client multiplexing several
//! instances over one connection can attribute a failure without relying
//! on response order alone.

use std::sync::Mutex;

use coschedule::model::{Application, Platform};
use coschedule::obs;
pub use coschedule::persist::app_to_json;
use coschedule::session::{Session, SessionStats};
use coschedule::solver;
use minijson::{Json, JsonWriter, ParseError, Reader, Value};

use super::metrics::{metrics_body, shard_reports, LatencyHistogram};
use super::wal::{WalStats, WalWriter};

/// A request's op: what its `"op"` field names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Op {
    Create,
    /// The `mutate` envelope, whose `"action"` names the mutation.
    Mutate,
    /// A mutation named directly, so scripts can skip the envelope.
    Mutation(Mutation),
    Solve,
    Batch,
    Stats,
    List,
    Solvers,
    Metrics,
    Trace,
    Close,
    Shutdown,
}

/// The mutations `mutate` (and its direct aliases) applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Mutation {
    AddApp,
    RemoveApp,
    UpdateApp,
    SetPlatform,
}

/// Every op with its name on the wire and the span a shard-routed
/// request with it is timed under: the one place the op vocabulary is
/// written. In the order unknown-op errors list the ops, the way
/// [`coschedule::error::CoschedError::UnknownSolver`] lists the
/// registered solvers. The server-wide ops never open their span.
#[rustfmt::skip]
const OPS: [(&str, Op, &str); 15] = [
    ("create", Op::Create, "op_create"),
    ("mutate", Op::Mutate, "op_mutate"),
    ("add_app", Op::Mutation(Mutation::AddApp), "op_add_app"),
    ("remove_app", Op::Mutation(Mutation::RemoveApp), "op_remove_app"),
    ("update_app", Op::Mutation(Mutation::UpdateApp), "op_update_app"),
    ("set_platform", Op::Mutation(Mutation::SetPlatform), "op_set_platform"),
    ("solve", Op::Solve, "op_solve"),
    ("batch", Op::Batch, "op_batch"),
    ("stats", Op::Stats, "op_stats"),
    ("list", Op::List, "op_list"),
    ("solvers", Op::Solvers, "op_solvers"),
    ("metrics", Op::Metrics, "op_metrics"),
    ("trace", Op::Trace, "op_trace"),
    ("close", Op::Close, "op_close"),
    ("shutdown", Op::Shutdown, "op_shutdown"),
];

impl Op {
    /// The op named `name` on the wire.
    fn named(name: &str) -> Option<Op> {
        OPS.iter().find(|row| row.0 == name).map(|row| row.1)
    }

    /// This op's name on the wire and the span it is timed under.
    fn names(&self) -> (&'static str, &'static str) {
        let row = OPS.iter().find(|row| row.1 == *self).expect("a row per op");
        (row.0, row.2)
    }
}

/// The wire names of the ops `keep` selects, in table order, as an error
/// lists them.
fn op_names(keep: impl Fn(Op) -> bool) -> String {
    let rows = OPS.iter().filter(|row| keep(row.1));
    rows.map(|row| row.0).collect::<Vec<_>>().join(", ")
}

/// The scalar fields a request's ops read, by index into
/// [`Request::fields`].
const REQUEST_KEYS: [&str; 8] = [
    "op", "id", "action", "index", "solver", "seed", "schedule", "shard",
];
const OP: usize = 0;
const ID: usize = 1;
const ACTION: usize = 2;
const INDEX: usize = 3;
const SOLVER: usize = 4;
const SEED: usize = 5;
const SCHEDULE: usize = 6;
const SHARD: usize = 7;

/// An application object's fields, in the order their errors are checked.
const APP_KEYS: [&str; 6] = [
    "name",
    "work",
    "seq_fraction",
    "access_freq",
    "miss_rate_ref",
    "footprint",
];

/// A platform object's fields, in the order they apply.
const PLATFORM_KEYS: [&str; 7] = [
    "processors",
    "cache_size",
    "cache_gb",
    "ref_cache_size",
    "latency_cache",
    "latency_mem",
    "alpha",
];

/// The first occurrence of each of `N` keys in one object, whatever its
/// type, as [`Json::get`] finds it: a later duplicate is read and
/// checked, then dropped. A value that is not an object has none.
struct Fields<'a, const N: usize>([Option<Value<'a>>; N]);

impl<'a, const N: usize> Fields<'a, N> {
    fn new() -> Self {
        Fields(std::array::from_fn(|_| None))
    }

    /// Reads one whole value, keeping the fields `keys` names.
    fn read(keys: &[&str; N], reader: &mut Reader<'a>) -> Result<Self, ParseError> {
        let mut fields = Fields::new();
        match reader.value()? {
            Value::Obj => reader.fields(|reader, key| fields.offer(keys, &key, reader))?,
            other => reader.skip_contents(&other)?,
        }
        Ok(fields)
    }

    /// Reads the value of field `key`: kept if `keys` names it and it is
    /// the first, otherwise checked and dropped.
    fn offer(
        &mut self,
        keys: &[&str; N],
        key: &str,
        reader: &mut Reader<'a>,
    ) -> Result<(), ParseError> {
        match keys.iter().position(|k| *k == key) {
            Some(i) if self.0[i].is_none() => {
                self.0[i] = Some(reader.scalar()?);
                Ok(())
            }
            _ => reader.skip(),
        }
    }

    /// The fields `keys` names in a parsed object.
    fn of_json(keys: &[&str; N], v: &'a Json) -> Self {
        Fields(keys.map(|key| v.get(key).map(Json::as_value)))
    }

    fn get(&self, i: usize) -> Option<&Value<'a>> {
        self.0[i].as_ref()
    }
}

/// One request, read once, straight from its line: its op and instance
/// id, the first occurrence of every other field an op reads, and its
/// bytes on the line. [`handle_line`] and the router read each line, and
/// `batch` each sub-request, exactly once; routing, dispatch, the ops and
/// the error replies all read the decoded fields.
pub(super) struct Request<'a> {
    /// The op, or the error a request without a known op answers.
    pub op: Result<Op, String>,
    /// The numeric `"id"`, when the request carries one.
    pub id: Option<u64>,
    /// The request's bytes on the line, from its first token to its last,
    /// exactly as read: the WAL record.
    span: &'a str,
    /// The scalar fields [`REQUEST_KEYS`] names.
    fields: Fields<'a, 8>,
    /// `"apps"`: its applications, or the first error reading them gave
    /// (every element is read and checked all the same).
    apps: Option<Result<Vec<Application>, String>>,
    /// `"app"`: its application, or the error reading it gave.
    app: Option<Result<Application, String>>,
    /// `"platform"`'s fields.
    platform: Option<Fields<'a, 7>>,
    /// `"requests"`: `None` when absent, `Some(None)` when not an array.
    requests: Option<Option<Vec<Request<'a>>>>,
}

impl<'a> Request<'a> {
    /// Reads one request line, checked exactly as [`Json::parse`] checks
    /// it.
    pub fn read_line(line: &'a str) -> Result<Request<'a>, ParseError> {
        let mut reader = Reader::new(line);
        let request = Request::read(&mut reader, line)?;
        reader.finish()?;
        Ok(request)
    }

    /// Reads one whole value of `line` as a request. A value that is not
    /// an object has no fields, so it answers a missing op.
    fn read(reader: &mut Reader<'a>, line: &'a str) -> Result<Request<'a>, ParseError> {
        let start = reader.offset();
        let mut fields = Fields::new();
        let mut apps = None;
        let mut app = None;
        let mut platform = None;
        let mut requests = None;
        match reader.value()? {
            Value::Obj => reader.fields(|reader, key| match &*key {
                "apps" if apps.is_none() => {
                    let read = read_array(reader, |reader| {
                        Ok(app_from_fields(&Fields::read(&APP_KEYS, reader)?))
                    })?;
                    apps = Some(read.map_or(Err(MISSING_APPS.into()), FromIterator::from_iter));
                    Ok(())
                }
                "app" if app.is_none() => {
                    app = Some(app_from_fields(&Fields::read(&APP_KEYS, reader)?));
                    Ok(())
                }
                "platform" if platform.is_none() => {
                    platform = Some(Fields::read(&PLATFORM_KEYS, reader)?);
                    Ok(())
                }
                "requests" if requests.is_none() => {
                    requests = Some(read_array(reader, |reader| Request::read(reader, line))?);
                    Ok(())
                }
                key => fields.offer(&REQUEST_KEYS, key, reader),
            })?,
            other => reader.skip_contents(&other)?,
        }
        let op = match fields.get(OP).and_then(Value::as_str) {
            None => Err("missing \"op\" field".to_string()),
            Some(name) => Op::named(name)
                .ok_or_else(|| format!("unknown op {name:?}; available: {}", op_names(|_| true))),
        };
        Ok(Request {
            op,
            id: fields.get(ID).and_then(Value::as_u64),
            span: &line[start..reader.offset()],
            fields,
            apps,
            app,
            platform,
            requests,
        })
    }

    /// The scalar field at `i` in [`REQUEST_KEYS`].
    fn field(&self, i: usize) -> Option<&Value<'a>> {
        self.fields.get(i)
    }

    /// The `"shard"` a `trace` request addresses, 0 by default.
    pub fn shard(&self) -> u64 {
        self.field(SHARD).and_then(Value::as_u64).unwrap_or(0)
    }
}

/// What a `create` without an `"apps"` array answers.
const MISSING_APPS: &str = "missing \"apps\" array";

/// Reads one whole value as an array, one `item` per element; `None`
/// when the value is not an array.
fn read_array<'a, T>(
    reader: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, ParseError>,
) -> Result<Option<Vec<T>>, ParseError> {
    let value = reader.value()?;
    if value != Value::Arr {
        reader.skip_contents(&value)?;
        return Ok(None);
    }
    let mut items = Vec::new();
    reader.elements(|reader| {
        items.push(item(reader)?);
        Ok(())
    })?;
    Ok(Some(items))
}

/// Solver a `solve` request that names none runs, unless the server is
/// configured otherwise ([`super::ServeConfig::default_solver`]).
pub const DEFAULT_SOLVER: &str = "DominantMinRatio";

/// Seed a `solve` request that carries none uses, unless the server is
/// configured otherwise ([`super::ServeConfig::default_seed`]).
pub const DEFAULT_SEED: u64 = 0xC05;

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
    /// Shard-routed requests handled (what the `metrics` op reports;
    /// server-wide ops like `stats` are not counted). Persisted in WAL
    /// snapshots and carried across `--restore`.
    requests: u64,
    /// Their dispatch-latency histogram, persisted and restored like
    /// `requests`. Plain fields: the shard's lock serializes every write,
    /// and every reader takes that lock too.
    latency: LatencyHistogram,
    /// This shard's span ring: installed on whichever reactor thread
    /// serves the shard, so the `trace` op drains this shard's timeline.
    trace_ring: obs::RingHandle,
    /// Write-ahead log, attached when the server runs with `--durability
    /// log|fsync`. `respond_routed` appends every shard-routed request to it
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

    /// Fresh state around an existing session, with [`DEFAULT_SOLVER`]
    /// and [`DEFAULT_SEED`].
    pub fn with_session(session: Session) -> Self {
        Self {
            session,
            default_solver: DEFAULT_SOLVER.to_string(),
            default_seed: DEFAULT_SEED,
            allow_shutdown: false,
            requests: 0,
            latency: LatencyHistogram::default(),
            trace_ring: obs::RingHandle::default(),
            wal: None,
            shard: 0,
            echo_trace: false,
            slow_ms: None,
        }
    }

    /// Fresh shard `shard` of `shards`: an empty session whose ids are
    /// strided per shard ([`Session::with_id_stride`], so the server's id
    /// sequence is 0, 1, 2, … at any worker count), serving with the given
    /// defaults. Every server, recovery and standby shard starts here.
    pub fn for_shard(shard: usize, shards: usize, default_solver: &str, default_seed: u64) -> Self {
        Self {
            default_solver: default_solver.to_string(),
            default_seed,
            shard,
            ..Self::with_session(Session::with_id_stride(shard as u64, shards as u64))
        }
    }

    /// Resumes from a recovered snapshot ([`super::wal::recover_shard`]):
    /// the restored session plus the request counter and latency
    /// histogram the crashed server had reached when it took the snapshot
    /// (replaying the WAL tail through `respond_routed` then advances both
    /// exactly as the original ops did).
    pub(super) fn resume(&mut self, session: Session, requests: u64, latency: LatencyHistogram) {
        self.session = session;
        self.requests = requests;
        self.latency = latency;
    }

    /// The session, mutably (a fresh shard's tuner configuration).
    pub(super) fn session_mut(&mut self) -> &mut Session {
        &mut self.session
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
                wal.rotate(&self.session, self.requests, &self.latency)
                    .expect("write-ahead log rotation failed");
            }
        }
    }

    /// This state's durability counters; `None` without an attached WAL.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(WalWriter::stats)
    }

    /// The underlying session (e.g. for post-test assertions).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Shard-routed requests handled so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The dispatch-latency histogram, `None` until a shard-routed
    /// request has been answered — the `metrics` op omits `latency_*`
    /// columns for an idle shard (a restored shard resumes from its
    /// snapshot's histogram, so it usually reports immediately).
    pub fn latency_snapshot(&self) -> Option<LatencyHistogram> {
        (self.latency.count() > 0).then_some(self.latency)
    }
}

/// The shards a server-wide op reads: a server's shard locks, or a lone
/// [`ServeState`] (shard 0 of 1).
pub(super) trait ShardSet {
    /// Calls `f` on every shard in index order, holding one shard's lock
    /// at a time; a shard whose lock a panic poisoned is passed as `None`.
    fn visit(&self, f: impl FnMut(Option<&ServeState>));
}

impl ShardSet for ServeState {
    fn visit(&self, mut f: impl FnMut(Option<&ServeState>)) {
        f(Some(self));
    }
}

impl ShardSet for [Mutex<ServeState>] {
    fn visit(&self, mut f: impl FnMut(Option<&ServeState>)) {
        for shard in self {
            f(shard.lock().ok().as_deref());
        }
    }
}

/// The writer every reply is written with: straight into the caller's
/// `String`, no [`Json`] tree in between.
pub(super) type Writer<'a> = JsonWriter<&'a mut String>;

/// What a shard-routed reply said, for the router: whether it is
/// `"ok":true`, and the id a successful `create` made. The router acts on
/// these without reading the reply text back.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Replied {
    pub ok: bool,
    pub created: Option<u64>,
}

/// Handles one request line, returning the response line (without the
/// trailing newline). Never panics on malformed input. This is the
/// byte-identity oracle: a server at any worker count answers a
/// lock-step trace with the bytes a `handle_line` replay on one fresh
/// state produces.
pub fn handle_line(state: &mut ServeState, line: &str) -> String {
    let mut out = String::new();
    let w = &mut JsonWriter::new(&mut out);
    match Request::read_line(line) {
        Ok(mut request) => respond_into(state, &mut request, w),
        Err(e) => write_error(w, &format!("malformed request: {e}"), None, None),
    }
    out
}

/// Answers one parsed request and returns the reply line: the tree is
/// printed and the line answered by [`handle_line`]. (Any tree
/// [`Json::parse`] returns prints back to a line that reads the same.)
pub fn respond(state: &mut ServeState, request: &Json) -> String {
    handle_line(state, &request.to_string())
}

/// Writes the reply to one request on a lone state: the server-wide ops
/// over the state as a set of one shard, everything else through
/// [`respond_routed`].
fn respond_into(state: &mut ServeState, request: &mut Request<'_>, w: &mut Writer<'_>) {
    // The lone state is the whole shard set. The router answers the same
    // ops with the same functions over its shard locks.
    match request.op {
        Ok(Op::Stats) => stats_reply(w, state),
        Ok(Op::List) => list_reply(w, state),
        Ok(Op::Solvers) => solvers_reply(w),
        Ok(Op::Metrics) => metrics_body(w, &shard_reports(state, |_| None)),
        Ok(Op::Shutdown) => shutdown_reply(w, request.id, state.allow_shutdown, || {}),
        Ok(Op::Batch) => batch_reply(w, request, |w, sub| respond_into(state, sub, w)),
        _ => {
            respond_routed(state, request, w);
        }
    }
}

/// Writes the reply to one shard-routed request: WAL append, `dispatch`,
/// the error envelope and the `trace_id` echo. The router calls this
/// under the owning shard's lock.
pub(super) fn respond_routed(
    state: &mut ServeState,
    request: &mut Request<'_>,
    w: &mut Writer<'_>,
) -> Replied {
    let (op, span) = request.op.as_ref().map_or(("other", "op_other"), Op::names);
    let mut request_sp = obs::span("serve", span);
    request_sp.set_args(obs::current_trace_id(), state.shard as u64);
    // Log before dispatch, the request's bytes as read: the span reads
    // as the same request, so replaying the log re-enters here and
    // reproduces the dispatch bit for bit. Failed ops are logged too:
    // they bump counters and eval stats, and recovery must reproduce
    // those. Fail-stop on I/O error (see [`ServeState::wal_commit`]).
    let wal_started = std::time::Instant::now();
    if let Some(wal) = &mut state.wal {
        let append_sp = obs::span("wal", "wal_append");
        wal.append(request.span)
            .expect("write-ahead log append failed");
        drop(append_sp);
    }
    let wal_ns = wal_started.elapsed().as_nanos() as u64;
    let started = std::time::Instant::now();
    let mark = w.mark();
    w.begin_object();
    let result = dispatch(state, request, w);
    let dispatch_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    state.requests += 1;
    state.latency.record(dispatch_ns);
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
    let trace_id = state.echo_trace.then(obs::current_trace_id);
    match result {
        Ok(created) => {
            end_reply(w, trace_id);
            Replied { ok: true, created }
        }
        Err(message) => {
            // Ops write nothing before they succeed; the rewind drops the
            // opening brace.
            w.rewind(mark);
            write_error(w, &message, request.id, trace_id);
            Replied::default()
        }
    }
}

/// Closes a shard-routed reply, echoing the request's trace id first when
/// the server runs with `--trace`.
fn end_reply(w: &mut Writer<'_>, trace_id: Option<u64>) {
    if let Some(trace_id) = trace_id {
        w.key("trace_id").int(trace_id);
    }
    w.end_object();
}

/// `{"ok":false,…}` with the offending request's instance id echoed when
/// it carried one (a multiplexing client needs it to correlate failures),
/// and the trace id when the reply is a shard-routed one under `--trace`.
pub(super) fn write_error(
    w: &mut Writer<'_>,
    message: &str,
    id: Option<u64>,
    trace_id: Option<u64>,
) {
    w.begin_object();
    w.key("ok").bool(false);
    if let Some(id) = id {
        w.key("id").int(id);
    }
    w.key("error").str(message);
    end_reply(w, trace_id);
}

/// Runs a shard-routed op, writing its fields into the reply object
/// [`respond_routed`] opened. An op writes nothing until it has
/// succeeded, so a failure leaves only the brace to rewind. Returns the
/// id a `create` made.
fn dispatch(
    state: &mut ServeState,
    request: &mut Request<'_>,
    w: &mut Writer<'_>,
) -> Result<Option<u64>, String> {
    match request.op.clone()? {
        Op::Create => op_create(state, request, w).map(Some),
        Op::Mutate => op_mutate(state, request, w).map(|()| None),
        Op::Mutation(mutation) => apply_mutation(state, request, mutation, w).map(|()| None),
        Op::Solve => op_solve(state, request, w).map(|()| None),
        Op::Trace => {
            op_trace(state, w);
            Ok(None)
        }
        Op::Close => op_close(state, request, w).map(|()| None),
        Op::Batch | Op::Stats | Op::List | Op::Solvers | Op::Metrics | Op::Shutdown => {
            unreachable!("server-wide ops are answered over the shard set")
        }
    }
}

/// The `batch` op: several requests in one line, one combined response.
/// Each element of `"requests"` was read with the line and is answered by
/// `respond` exactly as if it had arrived on its own line, in order, and
/// its response is written in place at the same index of `"responses"` —
/// byte-identical to the sequential exchanges (pinned by the loopback
/// tests). Sub-requests keep the envelope's trace id. One level only: a
/// batch inside a batch answers an error at its slot (unbounded nesting
/// would be a recursion hazard).
pub(super) fn batch_reply(
    w: &mut Writer<'_>,
    request: &mut Request<'_>,
    mut respond: impl FnMut(&mut Writer<'_>, &mut Request<'_>),
) {
    let Some(Some(subs)) = &mut request.requests else {
        return write_error(w, "missing \"requests\" array", request.id, None);
    };
    w.begin_object();
    w.key("ok").bool(true);
    w.key("count").int(subs.len() as u64);
    w.key("responses").begin_array();
    for sub in subs {
        match sub.op {
            Ok(Op::Batch) => write_error(w, "nested batch is not supported", sub.id, None),
            _ => respond(w, sub),
        }
    }
    w.end_array().end_object();
}

/// The `stats` op: live instances and the sessions' counters, summed
/// over the shards.
pub(super) fn stats_reply<S: ShardSet + ?Sized>(w: &mut Writer<'_>, shards: &S) {
    let mut live = 0;
    let mut stats = SessionStats::default();
    shards.visit(|state| {
        if let Some(state) = state {
            live += state.session.len();
            stats.merge(state.session.stats());
        }
    });
    w.begin_object();
    w.key("ok").bool(true);
    w.key("instances").int(live as u64);
    w.key("instances_created").int(stats.instances_created);
    w.key("mutations").int(stats.mutations);
    w.key("solves").int(stats.solves);
    w.key("incremental_solves").int(stats.incremental_solves);
    w.key("cold_solves").int(stats.cold_solves);
    w.key("memo_hits").int(stats.memo_hits);
    w.key("kernel_calls").int(stats.eval.kernel_calls);
    w.key("apps_evaluated").int(stats.eval.apps_evaluated);
    w.end_object();
}

/// The `list` op: every shard's instance summaries, in ascending id
/// order (ids interleave mod the shard count).
pub(super) fn list_reply<S: ShardSet + ?Sized>(w: &mut Writer<'_>, shards: &S) {
    let mut infos = Vec::new();
    shards.visit(|state| {
        if let Some(state) = state {
            infos.extend(state.session.list());
        }
    });
    infos.sort_by_key(|info| info.id.raw());
    w.begin_object();
    w.key("ok").bool(true);
    w.key("instances").begin_array();
    for info in &infos {
        w.begin_object();
        w.key("id").int(info.id.raw());
        w.key("revision").int(info.revision);
        w.key("apps").int(info.apps as u64);
        w.key("processors").num(info.processors);
        w.key("cache_size").num(info.cache_size);
        w.end_object();
    }
    w.end_array().end_object();
}

/// The `solvers` op (static: the registry contents).
pub(super) fn solvers_reply(w: &mut Writer<'_>) {
    w.begin_object();
    w.key("ok").bool(true);
    w.key("solvers").begin_array();
    for name in solver::names() {
        w.str(&name);
    }
    w.end_array().end_object();
}

/// The `shutdown` op: refused (echoing the request's `id`) unless
/// `allowed`; otherwise runs `accept` (which flags the server to stop)
/// and acknowledges.
pub(super) fn shutdown_reply(
    w: &mut Writer<'_>,
    id: Option<u64>,
    allowed: bool,
    accept: impl FnOnce(),
) {
    if !allowed {
        return write_error(w, "shutdown is not enabled on this server", id, None);
    }
    accept();
    w.begin_object();
    w.key("ok").bool(true);
    w.key("shutting_down").bool(true);
    w.end_object();
}

/// The `trace` op: drains the handling thread's span ring buffer. On the
/// server the op is routed like any other shard op (an optional
/// `"shard"` field picks the target, default 0) and the shard's own ring
/// is installed while it is served, so the drained timeline is that
/// shard's; on a lone state it is the calling thread's. Writes the
/// events plus how many were lost to ring overwrite since the previous
/// drain, and whether tracing is even on.
fn op_trace(state: &ServeState, w: &mut Writer<'_>) {
    let chunk = obs::drain_local();
    w.key("ok").bool(true);
    w.key("shard").int(state.shard as u64);
    w.key("enabled").bool(obs::enabled());
    w.key("dropped").int(chunk.dropped);
    w.key("events").begin_array();
    for ev in &chunk.events {
        w.begin_object();
        w.key("name").str(ev.name);
        w.key("cat").str(ev.cat);
        w.key("ph").str(match ev.kind {
            obs::EventKind::Span => "X",
            obs::EventKind::Instant => "i",
        });
        w.key("ts_ns").int(ev.ts_ns);
        w.key("dur_ns").int(ev.dur_ns);
        w.key("span_id").int(ev.span_id);
        w.key("parent_id").int(ev.parent_id);
        w.key("trace_id").int(ev.trace_id);
        w.key("arg0").int(ev.arg0);
        w.key("arg1").int(ev.arg1);
        w.end_object();
    }
    w.end_array();
}

fn require_id(
    state: &ServeState,
    request: &Request<'_>,
) -> Result<coschedule::session::InstanceId, String> {
    let raw = request.id.ok_or("missing or non-integer \"id\" field")?;
    let id = coschedule::session::InstanceId::from_raw(raw);
    // Resolve eagerly so every op reports a dead id the same way.
    state
        .session
        .instance(id)
        .map_err(|e| e.to_string())
        .map(|_| id)
}

/// `"ok":true,"id":…,"revision":…,"apps":…`, the fields every instance
/// op's reply opens with.
fn write_header(w: &mut Writer<'_>, state: &ServeState, id: coschedule::session::InstanceId) {
    w.key("ok").bool(true);
    w.key("id").int(id.raw());
    w.key("revision")
        .int(state.session.revision(id).expect("live id"));
    w.key("apps")
        .int(state.session.instance(id).expect("live id").len() as u64);
}

fn op_create(
    state: &mut ServeState,
    request: &mut Request<'_>,
    w: &mut Writer<'_>,
) -> Result<u64, String> {
    let apps = request.apps.take().unwrap_or(Err(MISSING_APPS.into()))?;
    let platform = match &request.platform {
        Some(spec) => platform_from_fields(Platform::taihulight(), spec)?,
        None => Platform::taihulight(),
    };
    let id = state
        .session
        .create(apps, platform)
        .map_err(|e| e.to_string())?;
    write_header(w, state, id);
    Ok(id.raw())
}

fn op_mutate(
    state: &mut ServeState,
    request: &Request<'_>,
    w: &mut Writer<'_>,
) -> Result<(), String> {
    // A dead id is reported before a missing or unknown action, as every
    // op reports it before a bad field.
    require_id(state, request)?;
    let mutations = || op_names(|op| matches!(op, Op::Mutation(_)));
    let action = request
        .field(ACTION)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing \"action\" field ({})", mutations()))?;
    match Op::named(action) {
        Some(Op::Mutation(mutation)) => apply_mutation(state, request, mutation, w),
        _ => Err(format!(
            "unknown mutation action {action:?}; available: {}",
            mutations()
        )),
    }
}

fn apply_mutation(
    state: &mut ServeState,
    request: &Request<'_>,
    mutation: Mutation,
    w: &mut Writer<'_>,
) -> Result<(), String> {
    let index = || {
        request
            .field(INDEX)
            .and_then(Value::as_usize)
            .ok_or("missing or non-integer \"index\" field")
    };
    let app = || request.app.clone().ok_or("missing \"app\" object")?;
    let id = require_id(state, request)?;
    let mut handle = state.session.handle(id).map_err(|e| e.to_string())?;
    /// The field a mutation's reply carries after the header.
    enum Extra {
        Index(usize),
        Name(&'static str, String),
    }
    let extra = match mutation {
        Mutation::AddApp => {
            let index = handle.add_app(app()?).map_err(|e| e.to_string())?;
            Some(Extra::Index(index))
        }
        Mutation::RemoveApp => {
            let removed = handle.remove_app(index()?).map_err(|e| e.to_string())?;
            Some(Extra::Name("removed", removed.name))
        }
        Mutation::UpdateApp => {
            let index = index()?;
            let old = handle
                .update_app(index, app()?)
                .map_err(|e| e.to_string())?;
            Some(Extra::Name("replaced", old.name))
        }
        Mutation::SetPlatform => {
            // Overrides apply on top of the instance's *current* platform:
            // a partial spec changes only the named fields.
            let platform = platform_from_fields(
                handle.instance().platform().clone(),
                request
                    .platform
                    .as_ref()
                    .ok_or("missing \"platform\" object")?,
            )?;
            handle.set_platform(platform).map_err(|e| e.to_string())?;
            None
        }
    };
    write_header(w, state, id);
    match extra {
        Some(Extra::Index(index)) => {
            w.key("index").int(index as u64);
        }
        Some(Extra::Name(key, name)) => {
            w.key(key).str(&name);
        }
        None => {}
    }
    Ok(())
}

fn op_solve(
    state: &mut ServeState,
    request: &Request<'_>,
    w: &mut Writer<'_>,
) -> Result<(), String> {
    let id = require_id(state, request)?;
    let solver_name = match request.field(SOLVER) {
        Some(v) => v.as_str().ok_or("\"solver\" must be a string")?,
        None => &state.default_solver,
    };
    let seed = match request.field(SEED) {
        Some(v) => v
            .as_u64()
            .ok_or("\"seed\" must be a non-negative integer")?,
        None => state.default_seed,
    };
    let include_schedule = request
        .field(SCHEDULE)
        .and_then(Value::as_bool)
        .unwrap_or(true);

    let before = state.session.stats();
    let outcome = state
        .session
        .resolve_by_name(id, solver_name, seed)
        .map_err(|e| e.to_string())?;
    let after = state.session.stats();
    let mode = if after.memo_hits > before.memo_hits {
        "memo"
    } else if after.incremental_solves > before.incremental_solves {
        "incremental"
    } else {
        "cold"
    };

    write_header(w, state, id);
    w.key("solver").str(solver_name);
    w.key("seed").int(seed);
    w.key("mode").str(mode);
    w.key("makespan").num(outcome.makespan);
    w.key("concurrent").bool(outcome.concurrent);
    w.key("optimal").bool(outcome.optimal);
    w.key("partition")
        .int_array(outcome.partition.members().iter().map(|&i| i as u64));
    w.key("eval_stats").begin_object();
    w.key("kernel_calls").int(outcome.eval_stats.kernel_calls);
    w.key("apps_evaluated")
        .int(outcome.eval_stats.apps_evaluated);
    w.end_object();
    if include_schedule {
        let instance = state.session.instance(id).expect("live id");
        w.key("assignments").begin_array();
        for (app, asg) in instance.apps().iter().zip(&outcome.schedule.assignments) {
            w.begin_object();
            w.key("name").str(&app.name);
            w.key("procs").num(asg.procs);
            w.key("cache").num(asg.cache);
            w.end_object();
        }
        w.end_array();
    }
    Ok(())
}

fn op_close(
    state: &mut ServeState,
    request: &Request<'_>,
    w: &mut Writer<'_>,
) -> Result<(), String> {
    let id = require_id(state, request)?;
    state.session.close(id).map_err(|e| e.to_string())?;
    w.key("ok").bool(true);
    w.key("id").int(id.raw());
    w.key("closed").bool(true);
    Ok(())
}

/// Parses one application object. `seq_fraction` defaults to 0 (perfectly
/// parallel) and `footprint` to unbounded, matching [`Application::new`].
pub fn app_from_json(v: &Json) -> Result<Application, String> {
    app_from_fields(&Fields::of_json(&APP_KEYS, v))
}

/// The rules of an application object, however it was read.
fn app_from_fields(fields: &Fields<'_, 6>) -> Result<Application, String> {
    let [name, work, seq_fraction, access_freq, miss_rate_ref, footprint] = &fields.0;
    let num = |v: &Option<Value<'_>>| v.as_ref().and_then(Value::as_f64);
    let required = |v: &Option<Value<'_>>, key: &str| {
        num(v).ok_or_else(|| format!("app is missing numeric field {key:?}"))
    };
    let name = name
        .as_ref()
        .and_then(Value::as_str)
        .ok_or("app is missing string field \"name\"")?;
    let mut app = Application::new(
        name,
        required(work, "work")?,
        num(seq_fraction).unwrap_or(0.0),
        required(access_freq, "access_freq")?,
        required(miss_rate_ref, "miss_rate_ref")?,
    );
    if let Some(footprint) = num(footprint) {
        app = app.with_footprint(footprint);
    }
    Ok(app)
}

/// The rules of a platform object, however it was read: each field
/// present must be a number, checked in [`PLATFORM_KEYS`] order, and
/// overrides `base` (`cache_gb` in GB, `cache_size` in bytes). A `create`
/// starts from [`Platform::taihulight`], a `set_platform` from the
/// instance's current platform, so a partial spec changes only the fields
/// it names.
fn platform_from_fields(base: Platform, fields: &Fields<'_, 7>) -> Result<Platform, String> {
    let mut numbers = [None; 7];
    for ((number, key), value) in numbers.iter_mut().zip(PLATFORM_KEYS).zip(&fields.0) {
        if let Some(value) = value {
            let n = value.as_f64();
            *number = Some(n.ok_or_else(|| format!("platform field {key:?} must be a number"))?);
        }
    }
    let [processors, cache_size, cache_gb, ref_cache_size, latency_cache, latency_mem, alpha] =
        numbers;
    let mut platform = base;
    if let Some(p) = processors {
        platform.processors = p;
    }
    if let Some(cs) = cache_size {
        platform.cache_size = cs;
    }
    if let Some(gb) = cache_gb {
        platform.cache_size = gb * 1e9;
    }
    if let Some(c0) = ref_cache_size {
        platform.ref_cache_size = c0;
    }
    if let Some(ls) = latency_cache {
        platform.latency_cache = ls;
    }
    if let Some(ll) = latency_mem {
        platform.latency_mem = ll;
    }
    if let Some(alpha) = alpha {
        platform.alpha = alpha;
    }
    Ok(platform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coschedule::solver::{Instance, SolveCtx};
    use proptest::prelude::*;

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
        for (name, ..) in OPS {
            assert!(error.contains(name), "{name} missing from {error}");
        }
        let _ = ok(&handle_line(&mut state, &npb_create_line()));
        let v = Json::parse(&handle_line(
            &mut state,
            r#"{"op":"mutate","id":0,"action":"frobnicate"}"#,
        ))
        .unwrap();
        let error = v.get("error").and_then(Json::as_str).unwrap();
        for (name, op, _) in OPS {
            let listed = error.contains(&format!(" {name}"));
            assert_eq!(listed, matches!(op, Op::Mutation(_)), "{name} in {error}");
        }
    }

    #[test]
    fn every_op_decodes_from_its_own_row() {
        for (name, op, span) in OPS {
            assert_eq!(Op::named(name), Some(op), "{name}");
            assert_eq!(op.names(), (name, span), "{name}");
        }
    }

    #[test]
    fn platform_overrides_apply() {
        let platform = |text: &str| {
            let v = Json::parse(text).unwrap();
            platform_from_fields(Platform::taihulight(), &Fields::of_json(&PLATFORM_KEYS, &v))
        };
        let p = platform(r#"{"processors":64,"cache_gb":1,"alpha":0.4}"#).unwrap();
        assert_eq!(p.processors, 64.0);
        assert_eq!(p.cache_size, 1e9);
        assert_eq!(p.alpha, 0.4);
        assert_eq!(p.latency_cache, Platform::taihulight().latency_cache);
        assert!(platform(r#"{"alpha":"x"}"#).is_err());
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
    fn batches_nested_to_the_depth_cap_answer_one_line() {
        // Each batch is two levels (its object and its array): 64 of them
        // reach the cap, 65 pass it.
        let mut state = ServeState::new();
        for (levels, ok) in [(64, true), (65, false)] {
            let line = r#"{"op":"batch","requests":["#.repeat(levels) + &"]}".repeat(levels);
            let reply = handle_line(&mut state, &line);
            assert_eq!(reply.starts_with(r#"{"ok":true"#), ok, "{levels}: {reply}");
        }
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
            let reply = ok(&handle_line(&mut state, line));
            assert_eq!(
                reply.get("shutting_down").and_then(Json::as_bool),
                (i == script.len() - 1).then_some(true),
                "shutdown only at the end"
            );
        }
    }

    /// SplitMix64: the request generator's stream, seeded per case.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize]
        }
    }

    /// Any value an op could meet in a field: every scalar type, numbers
    /// that are and are not exact integers, and small containers.
    fn any_value(mix: &mut Mix) -> Json {
        match mix.below(9) {
            0 => Json::Null,
            1 => Json::Bool(mix.below(2) == 0),
            2 => Json::from(mix.below(4)),
            3 => {
                Json::from(mix.pick(&[-1.0, 0.5, -0.0, 1e300, 2f64.powi(53), 2f64.powi(53) + 2.0]))
            }
            4 => Json::from(f64::from_bits(mix.next() >> 2)),
            5 => Json::from(mix.pick(&["", "x", "create", "solve", "auto", "remove_app", "\"é\n"])),
            6 => Json::arr([Json::from(1u64), Json::Null]),
            7 => Json::obj([("k", Json::from(1u64))]),
            _ => Json::from(1.5),
        }
    }

    /// An object with up to `keys.len() + 2` fields drawn from `keys`
    /// (so some repeat) and an unknown one, each with `value`'s draw.
    fn object(
        mix: &mut Mix,
        keys: &[&'static str],
        mut value: impl FnMut(&mut Mix, &str) -> Json,
    ) -> Json {
        let count = mix.below(keys.len() as u64 + 3);
        Json::Obj(
            (0..count)
                .map(|_| {
                    let key = if mix.below(8) == 0 {
                        "extra"
                    } else {
                        mix.pick(keys)
                    };
                    (key.to_string(), value(mix, key))
                })
                .collect(),
        )
    }

    /// An application object: mostly numbers, sometimes a wrong type, a
    /// missing field or a duplicate; sometimes not an object at all.
    fn any_app(mix: &mut Mix) -> Json {
        if mix.below(10) == 0 {
            return any_value(mix);
        }
        object(mix, &APP_KEYS, |mix, key| match (key, mix.below(5)) {
            (_, 0) => any_value(mix),
            ("name", _) => Json::from(mix.pick(&["A", "B \"2\""])),
            _ => Json::from(mix.below(1000) as f64 / 7.0),
        })
    }

    /// A request with fields from every op, `"apps"`, `"app"`,
    /// `"platform"` and (down to `depth`) `"requests"` among them.
    fn any_request(mix: &mut Mix, depth: u32) -> Json {
        let keys = [
            "op", "id", "action", "index", "solver", "seed", "schedule", "shard", "apps", "app",
            "platform", "requests",
        ];
        object(mix, &keys, |mix, key| match (key, mix.below(6)) {
            (_, 0) => any_value(mix),
            ("op" | "action", _) => {
                Json::from(mix.pick(&["create", "solve", "batch", "update_app", "mutate"]))
            }
            ("apps", _) => Json::Arr((0..mix.below(4)).map(|_| any_app(mix)).collect()),
            ("app", _) => any_app(mix),
            ("platform", _) => object(mix, &PLATFORM_KEYS, |mix, _| match mix.below(4) {
                0 => any_value(mix),
                _ => Json::from(mix.below(100) as f64),
            }),
            ("requests", _) if depth > 0 => Json::Arr(
                (0..mix.below(3))
                    .map(|_| any_request(mix, depth - 1))
                    .collect(),
            ),
            _ => any_value(mix),
        })
    }

    /// Sometimes whitespace: what [`spell`] draws between two tokens.
    fn space(mix: &mut Mix, out: &mut String) {
        if mix.below(6) == 0 {
            out.push_str(mix.pick(&[" ", "\t", "\r\n"]));
        }
    }

    /// `v` printed with whitespace drawn between its tokens.
    fn spell(v: &Json, mix: &mut Mix, out: &mut String) {
        space(mix, out);
        match v {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    spell(item, mix, out);
                }
                space(mix, out);
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    space(mix, out);
                    out.push_str(&Json::from(key.as_str()).to_string());
                    space(mix, out);
                    out.push(':');
                    spell(value, mix, out);
                }
                space(mix, out);
                out.push('}');
            }
            scalar => out.push_str(&scalar.to_string()),
        }
        space(mix, out);
    }

    /// Asserts that `request`, read from text, holds what the tree `v`
    /// of the same text gives through [`Json::get`] and the `as_*`
    /// accessors, sub-requests included. Unless `alone`, the request's
    /// span, read as a line of its own, must hold the same: what the WAL
    /// logs replays as the request it logged.
    fn assert_reads_like_the_tree(
        request: &Request<'_>,
        v: &Json,
        alone: bool,
    ) -> Result<(), TestCaseError> {
        if !alone {
            let span = Request::read_line(request.span)
                .map_err(|e| TestCaseError::Fail(format!("{:?}: {e}", request.span)))?;
            assert_reads_like_the_tree(&span, v, true)?;
        }
        let op = match v.get("op").and_then(Json::as_str) {
            None => Err("missing \"op\" field".to_string()),
            Some(name) => Op::named(name)
                .ok_or_else(|| format!("unknown op {name:?}; available: {}", op_names(|_| true))),
        };
        prop_assert_eq!(&request.op, &op);
        prop_assert_eq!(request.id, v.get("id").and_then(Json::as_u64));
        for (i, key) in REQUEST_KEYS.iter().enumerate() {
            let expected = v.get(key).map(Json::as_value);
            prop_assert_eq!(request.field(i), expected.as_ref(), "{}", key);
        }
        let apps = v.get("apps").map(|apps| match apps.as_array() {
            Some(items) => items.iter().map(app_from_json).collect(),
            None => Err(MISSING_APPS.to_string()),
        });
        prop_assert_eq!(&request.apps, &apps);
        prop_assert_eq!(&request.app, &v.get("app").map(app_from_json));
        let platform = v
            .get("platform")
            .map(|p| Fields::of_json(&PLATFORM_KEYS, p).0);
        prop_assert_eq!(request.platform.as_ref().map(|p| &p.0), platform.as_ref());
        prop_assert_eq!(&Json::parse(request.span).expect("a span is one value"), v);
        let subs = v.get("requests").map(Json::as_array);
        prop_assert_eq!(
            request
                .requests
                .as_ref()
                .map(|subs| subs.as_ref().map(Vec::len)),
            subs.map(|subs| subs.map(<[Json]>::len))
        );
        if let (Some(Some(read)), Some(Some(parsed))) = (&request.requests, subs) {
            for (sub, v) in read.iter().zip(parsed) {
                assert_reads_like_the_tree(sub, v, alone)?;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// A request read from its line holds what [`Json::parse`] and
        /// [`Json::get`] give for the same line, and a line the reader
        /// refuses is one the parser refuses, at the same byte.
        fn a_request_reads_like_its_parse(seed in 0u64..u64::MAX, mangled in 0u8..4) {
            let mix = &mut Mix(seed);
            let mut line = String::new();
            spell(&any_request(mix, 2), mix, &mut line);
            if mangled == 0 {
                let mut bytes = line.into_bytes();
                for _ in 0..1 + mix.below(3) {
                    let at = mix.below(bytes.len() as u64) as usize;
                    match mix.below(3) {
                        0 => bytes[at] ^= 1 << mix.below(8),
                        1 => bytes[at] = mix.below(256) as u8,
                        _ => bytes.truncate(at.max(1)),
                    }
                }
                line = String::from_utf8_lossy(&bytes).into_owned();
            }
            match (Request::read_line(&line), Json::parse(&line)) {
                (Ok(request), Ok(v)) => assert_reads_like_the_tree(&request, &v, false)?,
                (read, parsed) => prop_assert_eq!(read.err(), parsed.err(), "{:?}", line),
            }
        }
    }
}
