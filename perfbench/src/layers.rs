//! The traced in-process pass behind the per-layer metrics.
//!
//! It feeds the run's stream, without sockets, through the public
//! functions each layer exports, and records a span around every call:
//!
//! * `codec.parse` — `Json::parse` of the request line;
//! * `protocol.respond` — `protocol::respond` on a [`ServeState`];
//! * `codec.encode` — `Json::to_string` of the reply;
//! * `session.mutate` / `session.resolve` — the same `update_app` or
//!   `Session::resolve_by_name` on a shadow [`Session`] fed the same
//!   stream. The span's parent is `protocol.respond`, so the protocol
//!   layer's self time is `respond` minus the session work inside it;
//! * `wal.append` / `wal.commit` — on a shadow [`WalWriter`], for the
//!   logged workload only: the request's canonical serialization plus
//!   `WalWriter::append`, then `WalWriter::commit`, which is what the
//!   logged server does for every shard-routed request.
//!
//! The three calls of the request path hang off one `request` span. The
//! shadow calls run after it, on their own track: the session span's
//! parent is `protocol.respond`, the WAL spans have none. All spans of
//! one request carry its id. The spans stay in memory and are written at
//! the end of the run as Chrome trace-event JSON, which Perfetto loads,
//! next to a per-layer summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use coschedule::model::{Application, Platform};
use coschedule::session::{InstanceId, Session};
use experiments::serve::metrics::LatencyHistogram;
use experiments::serve::protocol::respond;
use experiments::serve::wal::WalWriter;
use experiments::serve::{app_from_json, handle_line, ServeState};
use minijson::Json;

use crate::stream::{Spec, Stream};
use crate::{percentile, Metric};

/// Chrome-trace thread ids: the request path, and the shadow calls.
const REQUEST_TRACK: u32 = 1;
const SHADOW_TRACK: u32 = 2;

struct Span {
    name: &'static str,
    track: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn begin(
        &mut self,
        name: &'static str,
        track: u32,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            track,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes `span` and returns its duration in nanoseconds.
    fn end(&mut self, span: usize) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[span];
        span.end_ns = now;
        now - span.start_ns
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The session call a request makes, decoded outside any span so only
/// the call itself is timed.
enum SessionCall {
    Create(Vec<Application>),
    Update(InstanceId, usize, Application),
    Resolve(InstanceId, String, u64),
}

impl SessionCall {
    fn of(request: &Json) -> Result<Self, String> {
        let id = || {
            request
                .get("id")
                .and_then(Json::as_u64)
                .map(InstanceId::from_raw)
                .ok_or("request has no id")
        };
        let index = || {
            request
                .get("index")
                .and_then(Json::as_usize)
                .ok_or("request has no index")
        };
        let app = || app_from_json(request.get("app").ok_or("request has no app")?);
        let text = |key: &str| request.get(key).and_then(Json::as_str).unwrap_or("");
        Ok(match (text("op"), text("action")) {
            ("create", _) => SessionCall::Create(
                request
                    .get("apps")
                    .and_then(Json::as_array)
                    .ok_or("create has no apps")?
                    .iter()
                    .map(app_from_json)
                    .collect::<Result<_, _>>()?,
            ),
            ("mutate", "update_app") => SessionCall::Update(id()?, index()?, app()?),
            ("solve", _) => SessionCall::Resolve(
                id()?,
                text("solver").to_string(),
                request
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("solve has no seed")?,
            ),
            (op, action) => return Err(format!("no session call for op {op:?} action {action:?}")),
        })
    }

    fn span_name(&self) -> &'static str {
        match self {
            SessionCall::Create(_) => "session.create",
            SessionCall::Update(..) => "session.mutate",
            SessionCall::Resolve(..) => "session.resolve",
        }
    }

    fn apply(self, session: &mut Session) -> Result<(), String> {
        let done = match self {
            SessionCall::Create(apps) => session.create(apps, Platform::taihulight()).map(drop),
            SessionCall::Update(id, index, app) => session
                .handle(id)
                .and_then(|mut h| h.update_app(index, app))
                .map(drop),
            SessionCall::Resolve(id, solver, seed) => {
                session.resolve_by_name(id, &solver, seed).map(drop)
            }
        };
        done.map_err(|e| e.to_string())
    }
}

/// Count, total, self time and median duration of one span name.
#[derive(Default)]
struct Layer {
    durations_ns: Vec<u64>,
    total_ns: u64,
    /// Signed: a shadow child can outlast the call it shadows by noise,
    /// and clamping each such span at zero would bias the sum upwards.
    self_ns: i64,
}

/// Runs the traced pass over the set-up and the first `steps` lock-step
/// reschedules of the run's stream, writes the trace and the summary
/// under `out`, and returns the per-layer metrics.
///
/// The layer self times must add up to the untraced `handle_line` time
/// of the same requests plus their WAL time; that sum per reschedule is
/// what the transport residual subtracts from `tcp_p50_us`, the TCP
/// reschedule median.
pub fn traced_pass(
    spec: &'static Spec,
    seed: u64,
    steps: usize,
    tcp_p50_us: f64,
    wal_dir: Option<&Path>,
    out: &Path,
) -> Result<Vec<Metric>, String> {
    let mut stream = Stream::new(spec, seed);
    // The served state, the reference twin that only `handle_line` sees,
    // and the shadows. Set-up runs through them untraced, so each holds
    // what the served instances held.
    let mut state = ServeState::new();
    let mut twin = ServeState::new();
    let mut shadow = Session::new();
    let mut wal = match wal_dir {
        Some(dir) => Some(
            WalWriter::create(
                dir,
                0,
                1,
                spec.durability,
                u64::MAX,
                0,
                &shadow,
                0,
                &LatencyHistogram::default(),
                0,
            )
            .map_err(|e| format!("shadow WAL in {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let io = |e: std::io::Error| format!("shadow WAL: {e}");
    for request in stream.setup() {
        handle_line(&mut twin, &request);
        let json = Json::parse(&request).map_err(|e| e.to_string())?;
        respond(&mut state, &json);
        SessionCall::of(&json)?.apply(&mut shadow)?;
        if let Some(wal) = &mut wal {
            wal.append(&json.to_string()).map_err(io)?;
            wal.commit().map_err(io)?;
        }
    }
    let stats_before = shadow.stats();
    let wal_before = wal.as_ref().map(WalWriter::stats).unwrap_or_default();

    // Each request goes through the twin, the traced path and the shadows
    // back to back, so all three see the same caches and the same host
    // speed.
    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut requests = 0u64;
    let mut resolves = 0u64;
    let mut bytes_out = 0u64;
    let mut handle_line_ns = 0u64;
    let mut step_ns = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut in_process_ns = 0;
        for request in stream.next_step() {
            let id = requests;
            requests += 1;
            // Which of the twin and the traced path goes first alternates,
            // so neither always runs on the other's warmed caches.
            let mut reference = || {
                let started = Instant::now();
                let response = handle_line(&mut twin, &request);
                let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                handle_line_ns += ns;
                in_process_ns += ns;
                response
            };
            let twin_first = id.is_multiple_of(2);
            let expected = twin_first.then(&mut reference);
            let root = rec.begin("request", REQUEST_TRACK, None, id);
            let span = rec.begin("codec.parse", REQUEST_TRACK, Some(root), id);
            let json = Json::parse(&request).map_err(|e| e.to_string())?;
            rec.end(span);
            let responding = rec.begin("protocol.respond", REQUEST_TRACK, Some(root), id);
            let reply = respond(&mut state, &json);
            rec.end(responding);
            let span = rec.begin("codec.encode", REQUEST_TRACK, Some(root), id);
            let text = reply.to_string();
            rec.end(span);
            rec.end(root);
            if expected.unwrap_or_else(reference) != text {
                return Err(format!(
                    "traced reply to request {id} differs from handle_line's"
                ));
            }
            bytes_out += text.len() as u64;

            let call = SessionCall::of(&json)?;
            resolves += u64::from(matches!(call, SessionCall::Resolve(..)));
            let span = rec.begin(call.span_name(), SHADOW_TRACK, Some(responding), id);
            call.apply(&mut shadow)?;
            rec.end(span);
            if let Some(wal) = &mut wal {
                let span = rec.begin("wal.append", SHADOW_TRACK, None, id);
                wal.append(&json.to_string()).map_err(io)?;
                in_process_ns += rec.end(span);
                let span = rec.begin("wal.commit", SHADOW_TRACK, None, id);
                wal.commit().map_err(io)?;
                in_process_ns += rec.end(span);
            }
        }
        step_ns.push(in_process_ns);
    }

    let layers = summarize(&rec.spans);
    let stats = shadow.stats();
    let wal_after = wal.as_ref().map(WalWriter::stats).unwrap_or_default();
    let self_us = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e3);
    let mean_us = |name: &str| {
        layers.get(name).map_or(0.0, |l| {
            l.total_ns as f64 / 1e3 / l.durations_ns.len().max(1) as f64
        })
    };
    let per_request = |x: f64| x / requests.max(1) as f64;
    let per_resolve = |x: u64| x as f64 / resolves.max(1) as f64;

    // The check that the split is whole: every layer's self time (all
    // spans but the `request` roots, whose self time is the benchmark's
    // own bookkeeping) against the untraced `handle_line` time plus the
    // WAL time those spans split.
    let layer_sum_us: f64 = layers
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, l)| l.self_ns as f64 / 1e3)
        .sum();
    let wal_us = self_us("wal.append") + self_us("wal.commit");
    let handle_line_us = handle_line_ns as f64 / 1e3;
    let reference_us = handle_line_us + wal_us;
    let split_error = (layer_sum_us - reference_us).abs() / reference_us;
    if split_error > 0.10 {
        eprintln!(
            "perfbench: layer self times sum to {layer_sum_us:.0} us, {:.1}% off the {reference_us:.0} us of handle_line + WAL",
            split_error * 100.0
        );
    }
    let in_process_p50_us = percentile(&step_ns, 0.5) as f64 / 1e3;

    let metrics = vec![
        Metric::new("codec.parse_us", per_request(self_us("codec.parse")), "us"),
        Metric::new(
            "codec.encode_us",
            per_request(self_us("codec.encode")),
            "us",
        ),
        Metric::new(
            "codec.bytes_out_per_req",
            per_request(bytes_out as f64),
            "bytes",
        ),
        Metric::new(
            "protocol.self_us",
            per_request(self_us("protocol.respond")),
            "us",
        ),
        Metric::new("session.mutate_us", mean_us("session.mutate"), "us"),
        Metric::new("session.resolve_us", mean_us("session.resolve"), "us"),
        Metric::new(
            "session.incremental_ratio",
            per_resolve(stats.incremental_solves - stats_before.incremental_solves),
            "ratio",
        ),
        Metric::new(
            "eval.kernel_calls_per_solve",
            per_resolve(stats.eval.kernel_calls - stats_before.eval.kernel_calls),
            "count",
        ),
        Metric::new(
            "eval.apps_evaluated_per_solve",
            per_resolve(stats.eval.apps_evaluated - stats_before.eval.apps_evaluated),
            "count",
        ),
        Metric::new("wal.append_us", per_request(self_us("wal.append")), "us"),
        Metric::new("wal.commit_us", per_request(self_us("wal.commit")), "us"),
        Metric::new(
            "wal.bytes_per_req",
            per_request((wal_after.bytes - wal_before.bytes) as f64),
            "bytes",
        ),
        Metric::new("inproc.reschedule_us", in_process_p50_us, "us"),
        Metric::new(
            "transport.residual_us",
            tcp_p50_us - in_process_p50_us,
            "us",
        ),
        Metric::new("trace.split_error", split_error, "ratio"),
    ];

    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let stem = format!("{}-seed{seed}", spec.name);
    let trace_path = out.join(format!("{stem}.trace.json"));
    let summary_path = out.join(format!("{stem}.layers.json"));
    std::fs::write(&trace_path, chrome_trace(&rec.spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let summary = Json::obj([
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(seed)),
        ("reschedules", Json::from(steps)),
        ("requests", Json::from(requests)),
        (
            "layers",
            Json::arr(layers.iter().map(|(name, l)| {
                Json::obj([
                    ("name", Json::from(*name)),
                    ("count", Json::from(l.durations_ns.len())),
                    ("total_us", Json::from(l.total_ns as f64 / 1e3)),
                    ("self_us", Json::from(l.self_ns as f64 / 1e3)),
                    (
                        "p50_us",
                        Json::from(percentile(&l.durations_ns, 0.5) as f64 / 1e3),
                    ),
                ])
            })),
        ),
        ("layer_self_sum_us", Json::from(layer_sum_us)),
        ("handle_line_us", Json::from(handle_line_us)),
        ("wal_us", Json::from(wal_us)),
        ("split_error", Json::from(split_error)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.to_string(), Json::from(m.value)))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&summary_path, format!("{summary}\n"))
        .map_err(|e| format!("{}: {e}", summary_path.display()))?;
    eprintln!(
        "perfbench: wrote {} spans to {} and the layer summary to {}",
        rec.spans.len(),
        trace_path.display(),
        summary_path.display()
    );
    Ok(metrics)
}

/// Per span name: count, total, self time (duration minus the durations
/// of the span's children) and durations for the median.
fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (span, children) in spans.iter().zip(children_ns) {
        let duration = span.end_ns - span.start_ns;
        let layer = layers.entry(span.name).or_default();
        layer.durations_ns.push(duration);
        layer.total_ns += duration;
        layer.self_ns += duration as i64 - children as i64;
    }
    layers
}

/// Chrome trace-event JSON: one complete (`"X"`) event per span, with
/// its id, parent and request id as arguments.
fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (id, span) in spans.iter().enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let parent = span.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{id},\"parent\":{parent},\"request\":{}}}}}",
            span.name,
            span.track,
            span.start_ns as f64 / 1e3,
            (span.end_ns - span.start_ns) as f64 / 1e3,
            span.request
        );
    }
    out.push_str("\n]}\n");
    out
}
