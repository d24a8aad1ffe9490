//! Observability integration tests: the log2-ns latency-histogram math
//! (bucket boundaries, exact cross-shard merge, cumulative conversion)
//! checked property-style against naive references, the Prometheus text
//! exposition's shape, the `trace` protocol op, the `trace_id` echo, the
//! histogram's continuity across a WAL restore, and — the golden
//! guarantee — that **enabling tracing does not perturb results**: with
//! span recording on, the smoke script still answers byte-identically
//! across worker counts.

mod common;

use common::{exchange, mask_reactor_wakeups, spawn_server_with};
use coschedule::obs;
use coschedule::session::Session;
use experiments::serve::metrics::{prometheus_body, LatencyHistogram, ShardReport};
use experiments::serve::wal::{recover_shard, WalWriter};
use experiments::serve::{handle_line, smoke_script, Durability, ServeState, Server};
use minijson::Json;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tests that flip the process-global tracing flag (and
/// drain the process-global ring registry).
static OBS_GATE: Mutex<()> = Mutex::new(());

/// `upper_bound` re-derived: the largest nanosecond reading bucket `b`
/// can hold.
fn naive_upper_bound(bucket: usize) -> u64 {
    if bucket >= 63 {
        u64::MAX
    } else {
        (1u64 << (bucket + 1)) - 1
    }
}

#[test]
fn bucket_boundaries_are_exact() {
    assert_eq!(
        LatencyHistogram::bucket_index(0),
        0,
        "zero lands in bucket 0"
    );
    assert_eq!(LatencyHistogram::bucket_index(1), 0);
    assert_eq!(LatencyHistogram::bucket_index(2), 1);
    assert_eq!(LatencyHistogram::bucket_index(3), 1);
    assert_eq!(LatencyHistogram::bucket_index(4), 2);
    assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 63);
    for exp in 1..64u32 {
        let pow = 1u64 << exp;
        assert_eq!(LatencyHistogram::bucket_index(pow), exp as usize);
        assert_eq!(LatencyHistogram::bucket_index(pow - 1), exp as usize - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every reading lands in a bucket that actually brackets it.
    #[test]
    fn bucket_index_brackets_every_reading(exp in 0u32..64, offset in 0u64..1024) {
        let n = (1u64 << exp).saturating_add(offset);
        let b = LatencyHistogram::bucket_index(n);
        prop_assert!(n <= naive_upper_bound(b), "{n} above bucket {b}'s bound");
        if b > 0 {
            prop_assert!(n >= 1u64 << b, "{n} below bucket {b}'s floor");
        }
    }

    /// Merging two shards' histograms is exact: identical to having
    /// recorded every reading into one histogram.
    #[test]
    fn merge_is_exact(
        a in prop::collection::vec(0u64..u64::MAX, 0..200),
        b in prop::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let mut ha = LatencyHistogram::default();
        let mut hb = LatencyHistogram::default();
        let mut reference = LatencyHistogram::default();
        for &x in &a {
            ha.record(x);
            reference.record(x);
        }
        for &x in &b {
            hb.record(x);
            reference.record(x);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.counts(), reference.counts());
        prop_assert_eq!(ha.count(), reference.count());
        prop_assert_eq!(ha.sum_ns(), reference.sum_ns());
    }

    /// The Prometheus cumulative-bucket conversion agrees with counting
    /// the samples directly.
    #[test]
    fn cumulative_matches_naive_reference(
        samples in prop::collection::vec(0u64..u64::MAX, 0..300),
    ) {
        let mut h = LatencyHistogram::default();
        for &s in &samples {
            h.record(s);
        }
        let cumulative = h.cumulative();
        prop_assert_eq!(cumulative.len(), 64);
        for (bucket, &(bound, cum)) in cumulative.iter().enumerate() {
            prop_assert_eq!(bound, naive_upper_bound(bucket));
            let naive = samples
                .iter()
                .filter(|&&s| LatencyHistogram::bucket_index(s) <= bucket)
                .count() as u64;
            prop_assert_eq!(cum, naive, "bucket {}", bucket);
        }
        // The +Inf bucket holds everything.
        prop_assert_eq!(cumulative[63].1, samples.len() as u64);
    }
}

/// Parses one `name{labels} value` exposition sample line.
fn sample_line(line: &str) -> Option<(&str, f64)> {
    let (metric, value) = line.rsplit_once(' ')?;
    Some((metric, value.parse().ok()?))
}

/// Asserts every exposition line is a HELP/TYPE comment or a parseable
/// sample of a valid `cosched_` metric name, and that every family has
/// exactly one HELP and one TYPE line (a histogram's `_bucket`, `_sum`
/// and `_count` samples belong to its family); returns the sample count.
fn lint_exposition(body: &str) -> usize {
    let mut helps = std::collections::BTreeSet::new();
    let mut types = std::collections::BTreeMap::new();
    let mut samples = 0usize;
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(comment) = line.strip_prefix("# ") {
            if let Some(help) = comment.strip_prefix("HELP ") {
                let family = help.split(' ').next().unwrap_or_default();
                assert!(helps.insert(family.to_string()), "second HELP: {line}");
            } else if let Some(kind) = comment.strip_prefix("TYPE ") {
                let (family, kind) = kind.split_once(' ').expect("TYPE names a kind");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "unexpected type: {line}"
                );
                let again = types.insert(family.to_string(), kind.to_string());
                assert!(again.is_none(), "second TYPE: {line}");
            } else {
                panic!("unexpected comment: {line}");
            }
            continue;
        }
        let (metric, _value) = sample_line(line).unwrap_or_else(|| panic!("bad sample: {line}"));
        let name = metric.split('{').next().unwrap_or_default();
        assert!(name.starts_with("cosched_"), "unprefixed metric: {metric}");
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "invalid metric name: {metric}"
        );
        assert_eq!(metric.contains('{'), metric.ends_with('}'), "{line}");
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|f| types.get(*f).is_some_and(|kind| kind == "histogram"))
            .unwrap_or(name);
        assert!(types.contains_key(family), "no TYPE before {line}");
        assert!(helps.contains(family), "no HELP before {line}");
        samples += 1;
    }
    assert!(
        helps.iter().eq(types.keys()),
        "HELP and TYPE lines name different families"
    );
    samples
}

#[test]
fn prometheus_body_is_well_formed() {
    let mut latency = LatencyHistogram::default();
    for ns in [100, 1_000, 1_000, 50_000, 2_000_000, 40_000_000] {
        latency.record(ns);
    }
    let shards = [
        ShardReport {
            shard: 0,
            requests: 6,
            latency: Some(latency),
            ..Default::default()
        },
        ShardReport {
            shard: 1,
            ..Default::default()
        },
    ];
    let body = prometheus_body(12.5, &shards, 3);

    // Every line is a HELP/TYPE comment or a parseable sample.
    assert!(lint_exposition(&body) > 0);

    // Shard 0's histogram: 64 nondecreasing `le` buckets ending at +Inf
    // with the total count, and a matching `_count` sample.
    let bucket_values: Vec<f64> = body
        .lines()
        .filter(|l| {
            l.starts_with("cosched_request_latency_seconds_bucket") && l.contains("shard=\"0\"")
        })
        .map(|l| sample_line(l).expect("bucket line").1)
        .collect();
    assert_eq!(bucket_values.len(), 64);
    for pair in bucket_values.windows(2) {
        assert!(pair[0] <= pair[1], "cumulative buckets must not decrease");
    }
    assert_eq!(*bucket_values.last().unwrap(), 6.0);
    let inf_line = body
        .lines()
        .find(|l| l.contains("le=\"+Inf\"") && l.contains("shard=\"0\""))
        .expect("+Inf bucket");
    assert_eq!(sample_line(inf_line).unwrap().1, 6.0);
    let count_line = body
        .lines()
        .find(|l| {
            l.starts_with("cosched_request_latency_seconds_count") && l.contains("shard=\"0\"")
        })
        .expect("_count sample");
    assert_eq!(sample_line(count_line).unwrap().1, 6.0);
    assert!(body.contains("cosched_trace_dropped_total 3"));
    assert!(body.contains("cosched_workers 2"));
}

/// The dispatch-latency histogram survives `--restore`: a recovered
/// shard's count continues from the pre-crash total (snapshot base plus
/// replayed tail) instead of restarting at zero.
#[test]
fn latency_histogram_survives_restore() {
    let dir = std::env::temp_dir().join(format!("cosched-obs-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut state = ServeState::with_session(Session::with_id_stride(0, 1));
    let writer = WalWriter::create(
        &dir,
        0,
        1,
        Durability::Log,
        2, // rotate every 2 records: the base-carry path is exercised
        0,
        state.session(),
        0,
        &LatencyHistogram::default(),
        0,
    )
    .expect("wal create");
    state.attach_wal(writer);

    let ops = [
        r#"{"op":"create","apps":[{"name":"A","work":1e10,"seq_fraction":0.1,"access_freq":0.5,"miss_rate_ref":1e-3},{"name":"B","work":2e10,"seq_fraction":0.05,"access_freq":0.6,"miss_rate_ref":2e-3}]}"#,
        r#"{"op":"solve","id":0,"seed":1}"#,
        r#"{"op":"mutate","id":0,"action":"remove_app","index":1}"#,
        r#"{"op":"solve","id":0,"seed":2}"#,
        r#"{"op":"solve","id":0,"seed":3}"#,
    ];
    for op in ops {
        let response = handle_line(&mut state, op);
        assert!(response.contains("\"ok\":true"), "{op} answered {response}");
        state.wal_commit();
        state.wal_maybe_snapshot();
    }
    let live = state.latency_snapshot().expect("live histogram");
    assert_eq!(live.count(), ops.len() as u64);
    drop(state);

    let recovered = recover_shard(&dir, 0, 1, "DominantMinRatio", 0xC05).expect("recover");
    let restored = recovered
        .state
        .latency_snapshot()
        .expect("restored histogram");
    assert_eq!(
        restored.count(),
        ops.len() as u64,
        "restored histogram must continue the pre-crash count"
    );
    assert!(restored.sum_ns() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With tracing ON the smoke script still answers byte-identically
/// between the 1-shard and the 4-shard server (all responses but
/// the per-shard `metrics` row), and run-to-run — recording spans must
/// never perturb results.
#[test]
fn tracing_enabled_preserves_response_bytes() {
    let _gate = OBS_GATE.lock().expect("obs gate");
    obs::set_enabled(true);
    let script = smoke_script();
    let run = |workers: usize| -> Vec<String> {
        let (addr, handle) = spawn_server_with(|config| config.workers = workers);
        let responses = exchange(addr, &script).expect("loopback exchange");
        handle.join().expect("server thread").expect("server run");
        responses
    };
    let single = run(1);
    let single_again = run(1);
    let sharded = run(4);
    obs::set_enabled(false);
    let _ = obs::drain();

    let masked = |lines: &[String]| -> Vec<String> {
        lines.iter().map(|l| mask_reactor_wakeups(l)).collect()
    };
    assert_eq!(
        masked(&single),
        masked(&single_again),
        "tracing on: same script, same bytes, run to run"
    );
    for (k, (a, b)) in single.iter().zip(&sharded).enumerate() {
        let is_metrics = k == 8; // per-shard rows differ by design
        if !is_metrics {
            assert_eq!(a, b, "response {k} differs between 1 and 4 workers");
        }
    }
}

/// The `trace` op: drains the addressed shard's ring buffer, returning
/// the span events recorded there — and the `--trace` echo tags every
/// shard-routed response with its connection-level request id.
#[test]
fn trace_op_drains_the_addressed_shard() {
    let _gate = OBS_GATE.lock().expect("obs gate");
    obs::set_enabled(true);
    let _ = obs::drain(); // drop spans left over from other activity

    let (addr, handle) = spawn_server_with(|config| {
        config.workers = 2;
        config.trace = true;
    });
    let script = vec![
        r#"{"op":"create","apps":[{"name":"A","work":1e10,"seq_fraction":0.1,"access_freq":0.5,"miss_rate_ref":1e-3},{"name":"B","work":2e10,"seq_fraction":0.05,"access_freq":0.6,"miss_rate_ref":2e-3}]}"#.to_string(),
        r#"{"op":"solve","id":0,"seed":7}"#.to_string(),
        r#"{"op":"trace"}"#.to_string(),
        r#"{"op":"trace","shard":1}"#.to_string(),
        r#"{"op":"shutdown"}"#.to_string(),
    ];
    let responses = exchange(addr, &script).expect("loopback exchange");
    handle.join().expect("server thread").expect("server run");
    obs::set_enabled(false);
    let _ = obs::drain();

    // The first round-robin create lands on shard 0, as does its solve.
    for (k, response) in responses[..2].iter().enumerate() {
        let v = Json::parse(response).expect("parse");
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
        assert_eq!(
            v.get("trace_id").and_then(Json::as_u64),
            Some(k as u64),
            "response {k} must echo its request id: {response}"
        );
    }

    let shard0 = Json::parse(&responses[2]).expect("trace response");
    assert_eq!(shard0.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(shard0.get("shard").and_then(Json::as_u64), Some(0));
    assert_eq!(shard0.get("enabled").and_then(Json::as_bool), Some(true));
    let events = shard0
        .get("events")
        .and_then(Json::as_array)
        .expect("events array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        names.contains(&"op_create") && names.contains(&"op_solve"),
        "shard 0's ring should hold the create and solve spans, saw {names:?}"
    );
    for event in events {
        let name = event.get("name").and_then(Json::as_str).unwrap_or("");
        if name == "op_create" {
            assert_eq!(event.get("trace_id").and_then(Json::as_u64), Some(0));
        }
        if name == "op_solve" {
            assert_eq!(event.get("trace_id").and_then(Json::as_u64), Some(1));
        }
    }

    // Shard 1 served nothing: its ring is empty (but the op still
    // answers from the right worker thread).
    let shard1 = Json::parse(&responses[3]).expect("trace response");
    assert_eq!(shard1.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(shard1.get("shard").and_then(Json::as_u64), Some(1));
    let empty = shard1
        .get("events")
        .and_then(Json::as_array)
        .expect("events array");
    assert!(
        empty.is_empty(),
        "shard 1 handled no requests, saw {} events",
        empty.len()
    );
}

/// Request ids are server-wide: two connections' `trace_id` echoes never
/// collide (each is `(connection id << 32) | sequence`), while the first
/// connection keeps the plain 0, 1, 2, … numbering.
#[test]
fn trace_ids_are_unique_across_connections() {
    let (addr, handle) = spawn_server_with(|config| {
        config.workers = 2;
        config.trace = true;
    });
    let create = r#"{"op":"create","apps":[{"name":"A","work":1e10,"seq_fraction":0.1,"access_freq":0.5,"miss_rate_ref":1e-3}]}"#;
    let script = vec![
        create.to_string(),
        r#"{"op":"solve","id":0,"seed":7}"#.to_string(),
        r#"{"op":"solve","id":0,"seed":8}"#.to_string(),
    ];
    let trace_ids = |responses: Vec<String>| -> Vec<u64> {
        responses
            .iter()
            .map(|r| {
                Json::parse(r)
                    .expect("parse")
                    .get("trace_id")
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("no trace_id echoed: {r}"))
            })
            .collect()
    };
    let first = trace_ids(exchange(addr, &script).expect("first connection"));
    let second = trace_ids(exchange(addr, &script[1..]).expect("second connection"));
    common::shutdown(addr, handle);

    assert_eq!(first, vec![0, 1, 2], "the first connection numbers from 0");
    assert_eq!(second, vec![1 << 32, (1 << 32) | 1]);
    assert!(
        second.iter().all(|id| !first.contains(id)),
        "trace ids collide across connections: {first:?} vs {second:?}"
    );
}

/// The disabled path records nothing and drops nothing — the golden
/// suites run in this state, so it must stay inert.
#[test]
fn disabled_tracing_is_inert_through_the_serve_stack() {
    let _gate = OBS_GATE.lock().expect("obs gate");
    obs::set_enabled(false);
    let _ = obs::drain();
    let mut state = ServeState::with_session(Session::new());
    let response = handle_line(
        &mut state,
        r#"{"op":"create","apps":[{"name":"A","work":1e10,"seq_fraction":0.1,"access_freq":0.5,"miss_rate_ref":1e-3},{"name":"B","work":2e10,"seq_fraction":0.05,"access_freq":0.6,"miss_rate_ref":2e-3}]}"#,
    );
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(
        !response.contains("trace_id"),
        "without --trace the wire stays untagged: {response}"
    );
    let chunk = obs::drain();
    assert!(chunk.events.is_empty(), "disabled tracing recorded spans");
    assert_eq!(chunk.dropped, 0);
}

/// The operator surfaces end to end: a 4-worker server with tracing, a
/// `trace_out` file and a Prometheus listener on `127.0.0.1:0` runs the
/// smoke script; `GET /metrics` over real HTTP must be a well-formed
/// exposition, and the Chrome trace written on shutdown must hold the
/// request spans as complete events.
#[test]
fn metrics_scrape_and_chrome_trace_file_are_well_formed() {
    use std::io::{Read as _, Write as _};
    let _gate = OBS_GATE.lock().expect("obs gate");
    obs::set_enabled(true);
    let trace_path = std::env::temp_dir().join(format!("cosched-obs-{}.json", std::process::id()));
    let mut server = Server::bind("127.0.0.1:0").expect("bind");
    let config = server.config_mut();
    config.workers = 4;
    config.allow_shutdown = true;
    config.trace = true;
    config.trace_out = Some(trace_path.clone());
    config.metrics_addr = Some("127.0.0.1:0".to_string());
    let addr = server.local_addr().expect("local addr");
    let metrics_probe = server.metrics_probe();
    let handle = std::thread::spawn(move || server.run());

    let script = smoke_script();
    let (body, shutdown) = script.split_at(script.len() - 1);
    let responses = exchange(addr, body).expect("smoke script");
    for (k, response) in responses.iter().enumerate() {
        assert!(response.starts_with(r#"{"ok":true"#), "{response}");
        // Shard-routed ops echo their request id; stats/list/metrics are
        // global and untagged.
        let echoed = Json::parse(response)
            .unwrap()
            .get("trace_id")
            .and_then(Json::as_u64);
        assert_eq!(
            echoed,
            (!(6..=8).contains(&k)).then_some(k as u64),
            "{response}"
        );
    }

    // The listener starts before the accept loop, so it is already up.
    let metrics_at = *metrics_probe.get().expect("metrics listener address");
    let mut stream = std::net::TcpStream::connect(metrics_at).expect("metrics connect");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: cosched\r\n\r\n")
        .expect("GET");
    let mut http = String::new();
    stream.read_to_string(&mut http).expect("metrics response");
    let (head, exposition) = http.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert!(lint_exposition(exposition) > 0);
    for family in [
        "cosched_uptime_seconds",
        "cosched_requests_total",
        "cosched_request_latency_seconds_bucket",
        "cosched_request_latency_seconds_count",
    ] {
        assert!(exposition.contains(family), "missing {family}");
    }

    exchange(addr, shutdown).expect("shutdown");
    handle.join().expect("server thread").expect("server run");
    obs::set_enabled(false);
    let _ = obs::drain();
    let text = std::fs::read_to_string(&trace_path).expect("trace file");
    let _ = std::fs::remove_file(&trace_path);
    let trace = Json::parse(&text).expect("trace JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    let mut complete = std::collections::BTreeSet::new();
    for event in events {
        let name = event.get("name").and_then(Json::as_str).expect("name");
        let ph = event.get("ph").and_then(Json::as_str).expect("ph");
        assert!(event.get("ts").is_some(), "{name} has no ts");
        assert!(ph == "X" || ph == "i", "{name} has ph {ph}");
        if ph == "X" {
            assert!(event.get("dur").is_some(), "{name} has no dur");
            complete.insert(name);
        }
    }
    for span in ["op_create", "op_solve", "op_mutate"] {
        assert!(complete.contains(span), "no {span} in {complete:?}");
    }
}

/// Starts a server with a Prometheus listener on `127.0.0.1:0`, applies
/// `configure`, and returns the serving address, the listener's address
/// and the server thread. The listener is up once a first exchange has
/// been answered, so this sends a `stats`.
fn spawn_with_metrics(
    configure: impl FnOnce(&mut experiments::serve::ServeConfig),
) -> (
    std::net::SocketAddr,
    std::net::SocketAddr,
    common::ServerHandle,
) {
    let mut server = Server::bind("127.0.0.1:0").expect("bind");
    let config = server.config_mut();
    config.allow_shutdown = true;
    config.metrics_addr = Some("127.0.0.1:0".to_string());
    configure(config);
    let addr = server.local_addr().expect("local addr");
    let probe = server.metrics_probe();
    let handle = std::thread::spawn(move || server.run());
    exchange(addr, &[r#"{"op":"stats"}"#.to_string()]).expect("server up");
    let metrics_at = *probe.get().expect("metrics listener address");
    (addr, metrics_at, handle)
}

/// One `GET /metrics` over HTTP; returns the whole response. Gives up
/// (with an error) after `patience`.
fn scrape(at: std::net::SocketAddr, patience: std::time::Duration) -> std::io::Result<String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(at)?;
    stream.set_read_timeout(Some(patience))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: cosched\r\n\r\n")?;
    let mut http = String::new();
    stream.read_to_string(&mut http)?;
    Ok(http)
}

/// A peer that connects to the metrics listener and sends nothing must
/// not freeze it: the listener gives up on the silent peer's request
/// head after its read timeout, and the next scrape is answered.
#[test]
fn a_silent_peer_does_not_freeze_the_metrics_listener() {
    use experiments::serve::METRICS_IO_TIMEOUT;
    let (addr, metrics_at, handle) = spawn_with_metrics(|_| {});
    let silent = std::net::TcpStream::connect(metrics_at).expect("silent connect");
    let margin = std::time::Duration::from_secs(5);
    let started = std::time::Instant::now();
    let http = scrape(metrics_at, METRICS_IO_TIMEOUT + margin)
        .expect("a scrape behind a silent peer is answered");
    let waited = started.elapsed();
    drop(silent);
    common::shutdown(addr, handle);
    assert!(http.starts_with("HTTP/1.0 200"), "{http}");
    assert!(
        waited < METRICS_IO_TIMEOUT + margin,
        "the scrape waited {waited:?}"
    );
}

/// Every per-shard column of the `metrics` op has a `{shard="k"}` sample
/// in the scrape. Global ops are not counted, so the session, WAL and
/// `requests` columns cannot move between the two reads and must agree
/// exactly; the network columns (which the exchange itself moves) need
/// only be present.
#[test]
fn the_scrape_exposes_every_metrics_column() {
    let dir = std::env::temp_dir().join(format!("cosched-obs-columns-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_dir = dir.clone();
    let (addr, metrics_at, handle) = spawn_with_metrics(move |config| {
        config.workers = 2;
        config.durability = Durability::Log;
        config.wal_dir = Some(wal_dir);
    });
    let script = smoke_script();
    let (body, shutdown) = script.split_at(script.len() - 1);
    let responses = exchange(addr, body).expect("smoke script");
    let metrics_at_line = body
        .iter()
        .position(|line| common::is_metrics(line))
        .expect("the smoke script asks for metrics");
    let metrics = Json::parse(&responses[metrics_at_line]).expect("metrics reply");
    let http = scrape(metrics_at, std::time::Duration::from_secs(30)).expect("scrape");
    exchange(addr, shutdown).expect("shutdown");
    handle.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);

    let (head, exposition) = http.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    lint_exposition(exposition);
    let sample = |metric: &str, shard: u64| -> Option<f64> {
        let prefix = format!("{metric}{{shard=\"{shard}\"}} ");
        exposition
            .lines()
            .find_map(|line| line.strip_prefix(&prefix))
            .map(|value| value.parse().expect("numeric sample"))
    };
    let rows = metrics.get("shards").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 2);
    let net_columns = [
        "open_connections",
        "reactor_wakeups",
        "bytes_in",
        "bytes_out",
    ];
    let mut checked = 0;
    for row in rows {
        let Json::Obj(columns) = row else {
            panic!("shard row is an object: {row}")
        };
        let shard = row.get("shard").and_then(Json::as_u64).unwrap();
        for (column, value) in columns {
            let json = value.as_f64().expect("numeric column");
            let scraped = match column.as_str() {
                "shard" => continue,
                "latency_count" => sample("cosched_request_latency_seconds_count", shard),
                p if p.starts_with("latency_p") => {
                    let bucket = format!(
                        "cosched_request_latency_seconds_bucket{{shard=\"{shard}\",le=\"+Inf\"}}"
                    );
                    assert!(exposition.contains(&bucket), "no buckets for {p}");
                    continue;
                }
                name => sample(&format!("cosched_{name}_total"), shard)
                    .or_else(|| sample(&format!("cosched_{name}"), shard)),
            };
            let scraped =
                scraped.unwrap_or_else(|| panic!("no sample for {column} on shard {shard}"));
            if !net_columns.contains(&column.as_str()) {
                assert_eq!(scraped, json, "{column} on shard {shard}");
            }
            checked += 1;
        }
    }
    // requests … tuner_member_solves, five wal_* and four network
    // columns per shard, plus shard 0's latency_count.
    assert_eq!(checked, 2 * 22 + 1);
}
