//! Pins the exact bytes of the `metrics` reply: column names, column
//! order, and every deterministic value. Only the wall-clock latency
//! percentiles and the reactors' `reactor_wakeups` are masked (see
//! `common::mask_reactor_wakeups`); everything else — request counts,
//! solve tiers, eval work, WAL and network columns, `latency_count` —
//! must match to the byte.

mod common;

use common::{mask_reactor_wakeups, run_script};
use coschedule::session::Session;
use experiments::serve::metrics::LatencyHistogram;
use experiments::serve::wal::WalWriter;
use experiments::serve::{handle_line, smoke_script, Durability, ServeState};

/// A lone state with a WAL attached answers `metrics` after
/// create → solve → update_app → solve with one shard row carrying the
/// `wal_*` columns and no network columns.
#[test]
fn lone_state_with_a_wal_pins_the_metrics_bytes() {
    let dir = std::env::temp_dir().join(format!("cosched-metrics-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut state = ServeState::with_session(Session::new());
    let writer = WalWriter::create(
        &dir,
        0,
        1,
        Durability::Log,
        1024,
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
        r#"{"op":"update_app","id":0,"index":1,"app":{"name":"B2","work":2.5e10,"seq_fraction":0.05,"access_freq":0.6,"miss_rate_ref":2e-3}}"#,
        r#"{"op":"solve","id":0,"seed":1}"#,
    ];
    for op in ops {
        let response = handle_line(&mut state, op);
        assert!(response.contains("\"ok\":true"), "{op} answered {response}");
        state.wal_commit();
    }
    let metrics = handle_line(&mut state, r#"{"op":"metrics"}"#);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        mask_reactor_wakeups(&metrics),
        PINNED_LONE_STATE,
        "raw reply: {metrics}"
    );
}

/// A two-worker server after the smoke script: one row per shard, each
/// with its reactor's network columns; shard 1 served nothing.
#[test]
fn two_worker_server_pins_the_metrics_bytes() {
    let script = smoke_script();
    let responses = run_script(2, &script);
    let metrics_at = script
        .iter()
        .position(|line| common::is_metrics(line))
        .expect("the smoke script asks for metrics");
    assert_eq!(
        mask_reactor_wakeups(&responses[metrics_at]),
        PINNED_TWO_WORKERS,
        "raw reply: {}",
        responses[metrics_at]
    );
}

const PINNED_LONE_STATE: &str = concat!(
    r#"{"ok":true,"workers":1,"requests":4,"shards":["#,
    r#"{"shard":0,"requests":4,"instances":1,"mutations":1,"solves":2,"memo_hits":0,"#,
    r#""incremental_solves":1,"cold_solves":1,"kernel_calls":2,"apps_evaluated":4,"#,
    r#""tuner_explored":0,"tuner_committed":0,"tuner_challenger_wins":0,"tuner_member_solves":0,"#,
    r#""wal_records":4,"wal_bytes":412,"wal_fsyncs":0,"wal_snapshot_generation":0,"wal_replayed":0,"#,
    r#""latency_count":4,"latency_p50_ns":0,"latency_p95_ns":0,"latency_p99_ns":0}],"#,
    r#""latency_count":4,"latency_p50_ns":0,"latency_p95_ns":0,"latency_p99_ns":0}"#,
);

const PINNED_TWO_WORKERS: &str = concat!(
    r#"{"ok":true,"workers":2,"requests":6,"shards":["#,
    r#"{"shard":0,"requests":6,"instances":1,"mutations":2,"solves":3,"memo_hits":0,"#,
    r#""incremental_solves":2,"cold_solves":1,"kernel_calls":2,"apps_evaluated":11,"#,
    r#""tuner_explored":0,"tuner_committed":0,"tuner_challenger_wins":0,"tuner_member_solves":0,"#,
    r#""open_connections":1,"reactor_wakeups":0,"bytes_in":1045,"bytes_out":1900,"#,
    r#""latency_count":6,"latency_p50_ns":0,"latency_p95_ns":0,"latency_p99_ns":0},"#,
    r#"{"shard":1,"requests":0,"instances":0,"mutations":0,"solves":0,"memo_hits":0,"#,
    r#""incremental_solves":0,"cold_solves":0,"kernel_calls":0,"apps_evaluated":0,"#,
    r#""tuner_explored":0,"tuner_committed":0,"tuner_challenger_wins":0,"tuner_member_solves":0,"#,
    r#""open_connections":0,"reactor_wakeups":0,"bytes_in":0,"bytes_out":0}],"#,
    r#""latency_count":6,"latency_p50_ns":0,"latency_p95_ns":0,"latency_p99_ns":0}"#,
);
