//! Per-shard observability: the counters behind the `metrics` op and the
//! Prometheus exposition, the one registry that lists them, and the two
//! renderers.
//!
//! Each shard counts its requests and times their dispatch in plain
//! [`ServeState`] fields, bumped by `protocol::respond_routed` (which every
//! shard-routed request passes through) under the shard's lock.
//! Solve-tier counters (memo / incremental / cold), the aggregated
//! [`EvalStats`](coschedule::eval::EvalStats) and the tuner counters come
//! from the session's own [`SessionStats`] snapshot; the reactors add
//! their lock-free [`NetMetrics`]. `ShardReport::of` reads one shard
//! under its lock, and [`ShardReport::columns`] lists the result once, in
//! the order of the JSON row. The `metrics` op's body and
//! [`prometheus_body`] both render that one list, so the two cannot
//! drift apart.
//!
//! Both readers reach the shards the same way, one lock at a time, so a
//! `--metrics-addr` scrape waits for each shard's in-flight request, just
//! as the `metrics` op does.
//!
//! Unlike every other op, the `metrics` response is **not** required to be
//! payload-identical across worker counts — its `shards` array has one
//! entry per worker by design.

use std::sync::atomic::{AtomicU64, Ordering};

use super::protocol::{ServeState, ShardSet, Writer};
use super::wal::WalStats;
use coschedule::session::SessionStats;

/// Lock-free network counters of one reactor (= one shard's event
/// loop). The reactor thread bumps them; the `metrics` op reads them.
/// A transport-free [`super::handle_line`] state has no reactor, so it
/// reports no [`NetReport`] — the same opt-in pattern as the `wal_*`
/// columns.
#[derive(Debug, Default)]
pub struct NetMetrics {
    open: AtomicU64,
    wakeups: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl NetMetrics {
    /// The reactor adopted one accepted connection.
    pub fn record_open(&self) {
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// The reactor closed one of its connections.
    pub fn record_close(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }

    /// One `epoll_wait` return (the loop's duty-cycle signal: wakeups
    /// per request ≈ how well readiness batching amortizes).
    pub fn record_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Payload bytes read off sockets.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Payload bytes written to sockets.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot for the `metrics` op.
    pub fn report(&self) -> NetReport {
        NetReport {
            open_connections: self.open.load(Ordering::Relaxed),
            reactor_wakeups: self.wakeups.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time values of one shard's [`NetMetrics`].
#[derive(Debug, Clone, Copy)]
pub struct NetReport {
    /// Connections currently owned by the shard's reactor (a gauge).
    pub open_connections: u64,
    /// `epoll_wait` returns since startup.
    pub reactor_wakeups: u64,
    /// Payload bytes read since startup.
    pub bytes_in: u64,
    /// Payload bytes written since startup.
    pub bytes_out: u64,
}

/// A fixed-size log2-bucket latency histogram: bucket `i` counts
/// requests whose dispatch latency `ns` satisfies `⌊log2 ns⌋ = i`
/// (bucket 0 additionally holds sub-nanosecond readings). 64 buckets
/// cover the whole `u64` nanosecond range, recording is one shift and
/// two increments, and histograms **merge exactly** — so per-shard
/// histograms sum into a cross-shard percentile without resampling.
///
/// Percentiles are nearest-rank over the buckets and report the bucket's
/// upper bound — a ≤ 2× overestimate, never an underestimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; 64],
    count: u64,
    sum_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; 64],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// The log2 bucket a reading lands in (0 also holds 0 ns readings).
    pub fn bucket_index(nanos: u64) -> usize {
        if nanos == 0 {
            0
        } else {
            63 - nanos.leading_zeros() as usize
        }
    }

    /// Records one latency reading.
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(nanos);
    }

    /// Adds another histogram's counts (the cross-shard merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Readings recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total nanoseconds across readings (saturating; feeds the
    /// Prometheus `_sum` series).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Per-bucket counts (index = log2 bucket).
    pub fn counts(&self) -> &[u64; 64] {
        &self.counts
    }

    /// Rebuilds a histogram from raw bucket counts — the `--restore`
    /// path seeding a shard's histogram base from its snapshot.
    pub fn from_parts(counts: [u64; 64], sum_ns: u64) -> Self {
        Self {
            counts,
            count: counts.iter().sum(),
            sum_ns,
        }
    }

    /// Prometheus-style cumulative buckets: for each log2 bucket, its
    /// inclusive upper bound in nanoseconds and the count of readings
    /// **at or below** it. The final entry's bound is `u64::MAX` (the
    /// `+Inf` bucket) and its count equals [`Self::count`].
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(64);
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            out.push((Self::upper_bound(bucket), seen));
        }
        out
    }

    /// Nearest-rank percentile in nanoseconds (0 when empty).
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_bound(bucket);
            }
        }
        Self::upper_bound(63)
    }

    /// The largest latency bucket `i` can hold.
    fn upper_bound(bucket: usize) -> u64 {
        if bucket >= 63 {
            u64::MAX
        } else {
            (1u64 << (bucket + 1)) - 1
        }
    }

    /// The headline numbers for the `metrics` op.
    pub fn report(&self) -> LatencyReport {
        LatencyReport {
            count: self.count,
            p50_ns: self.percentile_ns(0.50),
            p95_ns: self.percentile_ns(0.95),
            p99_ns: self.percentile_ns(0.99),
        }
    }
}

/// Headline latency numbers of one [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyReport {
    /// Requests measured.
    pub count: u64,
    /// Median dispatch latency (bucket upper bound, ns).
    pub p50_ns: u64,
    /// 95th-percentile dispatch latency (bucket upper bound, ns).
    pub p95_ns: u64,
    /// 99th-percentile dispatch latency (bucket upper bound, ns).
    pub p99_ns: u64,
}

/// Whether a column only grows (a Prometheus `counter`, exposed with a
/// `_total` suffix) or can also fall (a `gauge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone since startup (or since the restored base).
    Counter,
    /// A current level.
    Gauge,
}

/// One per-shard metric: its JSON key (also the Prometheus name, as
/// `cosched_<name>` plus `_total` for a counter), its Prometheus help
/// text, its kind, and its value.
pub type Column = (&'static str, &'static str, Kind, u64);

/// One shard's numbers — a row of the `metrics` response and the
/// shard's samples in the Prometheus exposition.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Shard index (0-based).
    pub shard: usize,
    /// The shard's lock was poisoned by a panic, so nothing could be
    /// read: the JSON row reports zeros, the exposition no samples.
    pub poisoned: bool,
    /// Requests the shard has handled ([`ServeState::requests`]).
    pub requests: u64,
    /// Live instances owned by the shard.
    pub instances: usize,
    /// The shard session's lifetime counters.
    pub stats: SessionStats,
    /// Durability counters — `None` when the server runs `--durability
    /// none`, in which case no `wal_*` columns appear.
    pub wal: Option<WalStats>,
    /// Reactor network counters — `None` for a transport-free state, in
    /// which case no network columns appear (same pattern as `wal`).
    pub net: Option<NetReport>,
    /// Dispatch-latency histogram — `None` until the shard has answered
    /// at least one routed request, in which case the JSON row has no
    /// `latency_*` columns (same opt-in pattern as `wal`/`net`; a
    /// restored shard resumes from its snapshot's histogram).
    pub latency: Option<LatencyHistogram>,
}

impl ShardReport {
    /// Shard `shard`'s report, read from its state; `None` (a poisoned
    /// shard) gives a zero row that keeps only the reactor's `net`.
    pub(super) fn of(shard: usize, state: Option<&ServeState>, net: Option<NetReport>) -> Self {
        let Some(state) = state else {
            return ShardReport {
                shard,
                poisoned: true,
                net,
                ..Default::default()
            };
        };
        ShardReport {
            shard,
            poisoned: false,
            requests: state.requests(),
            instances: state.session().len(),
            stats: state.session().stats(),
            wal: state.wal_stats(),
            net,
            latency: state.latency_snapshot(),
        }
    }

    /// The registry: every per-shard column, in the `metrics` row's
    /// order. Both renderers walk this one list, so the JSON op and the
    /// scrape cannot drift apart. The latency histogram is the one entry
    /// outside it (percentiles in JSON, buckets in Prometheus).
    #[rustfmt::skip]
    pub fn columns(&self) -> Vec<Column> {
        use Kind::{Counter, Gauge};
        let s = &self.stats;
        let mut columns = vec![
            ("requests", "Requests handled, per shard.", Counter, self.requests),
            ("instances", "Live instances.", Gauge, self.instances as u64),
            ("mutations", "Mutations applied.", Counter, s.mutations),
            ("solves", "Solves answered.", Counter, s.solves),
            ("memo_hits", "Solves answered from the memo.", Counter, s.memo_hits),
            ("incremental_solves", "Incremental re-solves.", Counter, s.incremental_solves),
            ("cold_solves", "Solves from scratch.", Counter, s.cold_solves),
            ("kernel_calls", "Eval-engine kernel calls.", Counter, s.eval.kernel_calls),
            ("apps_evaluated", "Apps evaluated.", Counter, s.eval.apps_evaluated),
            // The shard's autotuner ("auto" solves only; each shard
            // session learns its own table — see coschedule::tune).
            ("tuner_explored", "Auto solves that explored.", Counter, s.tuner.explored),
            ("tuner_committed", "Auto solves by the leader.", Counter, s.tuner.committed),
            ("tuner_challenger_wins", "Challenger wins.", Counter, s.tuner.challenger_wins),
            ("tuner_member_solves", "Tuner member solves.", Counter, s.tuner.member_solves),
        ];
        if let Some(wal) = self.wal {
            columns.extend([
                ("wal_records", "WAL records appended.", Counter, wal.records),
                ("wal_bytes", "WAL bytes appended.", Counter, wal.bytes),
                ("wal_fsyncs", "WAL fdatasync calls.", Counter, wal.fsyncs),
                ("wal_snapshot_generation", "Snapshot generation.", Gauge, wal.snapshot_generation),
                ("wal_replayed", "WAL records replayed at restart.", Gauge, wal.replayed),
            ]);
        }
        if let Some(net) = self.net {
            columns.extend([
                ("open_connections", "Open connections.", Gauge, net.open_connections),
                ("reactor_wakeups", "Reactor epoll_wait returns.", Counter, net.reactor_wakeups),
                ("bytes_in", "Payload bytes read.", Counter, net.bytes_in),
                ("bytes_out", "Payload bytes written.", Counter, net.bytes_out),
            ]);
        }
        columns
    }
}

/// Every shard's report, read through the shard visitor one lock at a
/// time; `net` gives shard `k`'s reactor counters.
pub(super) fn shard_reports<S: ShardSet + ?Sized>(
    shards: &S,
    net: impl Fn(usize) -> Option<NetReport>,
) -> Vec<ShardReport> {
    let mut reports = Vec::new();
    shards.visit(|state| {
        let shard = reports.len();
        reports.push(ShardReport::of(shard, state, net(shard)));
    });
    reports
}

/// Writes the `metrics` op response: one row per shard (`shard`, the
/// registry's columns, the latency percentiles) plus the totals. A lone
/// [`ServeState`] reports itself as one shard of one.
pub(super) fn metrics_body(w: &mut Writer<'_>, reports: &[ShardReport]) {
    let total: u64 = reports.iter().map(|r| r.requests).sum();
    // Per-shard histograms merge exactly, so the top-level percentiles
    // are computed over every recorded request, not averaged estimates.
    let mut merged = LatencyHistogram::default();
    for hist in reports.iter().filter_map(|r| r.latency.as_ref()) {
        merged.merge(hist);
    }
    w.begin_object();
    w.key("ok").bool(true);
    w.key("workers").int(reports.len() as u64);
    w.key("requests").int(total);
    w.key("shards").begin_array();
    for r in reports {
        w.begin_object();
        w.key("shard").int(r.shard as u64);
        for (name, _, _, value) in r.columns() {
            w.key(name).int(value);
        }
        if let Some(hist) = &r.latency {
            write_latency(w, hist);
        }
        w.end_object();
    }
    w.end_array();
    if merged.count() > 0 {
        write_latency(w, &merged);
    }
    w.end_object();
}

/// The `latency_count` / `latency_p{50,95,99}_ns` columns.
fn write_latency(w: &mut Writer<'_>, hist: &LatencyHistogram) {
    let lat = hist.report();
    w.key("latency_count").int(lat.count);
    w.key("latency_p50_ns").int(lat.p50_ns);
    w.key("latency_p95_ns").int(lat.p95_ns);
    w.key("latency_p99_ns").int(lat.p99_ns);
}

fn push_seconds(ns: u64, out: &mut String) {
    // Render an integer nanosecond quantity as decimal seconds without
    // float rounding: 1023 ns → "0.000001023".
    out.push_str(&format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000));
}

/// Renders the Prometheus text exposition (version 0.0.4) served by
/// `serve --metrics-addr`: uptime and worker gauges, the trace drop
/// counter, one `{shard="k"}`-labelled family per registry column (see
/// [`ShardReport::columns`]), and each shard's log2-ns dispatch-latency
/// histogram as cumulative `le`-labelled buckets in seconds. A poisoned
/// shard contributes no samples.
pub fn prometheus_body(uptime_s: f64, reports: &[ShardReport], trace_dropped: u64) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str("# HELP cosched_uptime_seconds Seconds since the server started.\n");
    out.push_str("# TYPE cosched_uptime_seconds gauge\n");
    out.push_str(&format!("cosched_uptime_seconds {uptime_s:.3}\n"));
    out.push_str("# HELP cosched_workers Worker shards serving requests.\n");
    out.push_str("# TYPE cosched_workers gauge\n");
    out.push_str(&format!("cosched_workers {}\n", reports.len()));
    out.push_str("# HELP cosched_trace_dropped_total Trace events lost to ring overwrite.\n");
    out.push_str("# TYPE cosched_trace_dropped_total counter\n");
    out.push_str(&format!("cosched_trace_dropped_total {trace_dropped}\n"));

    let live: Vec<(&ShardReport, Vec<Column>)> = reports
        .iter()
        .filter(|r| !r.poisoned)
        .map(|r| (r, r.columns()))
        .collect();
    // One HELP/TYPE per family, families in column order.
    let mut families: Vec<Column> = Vec::new();
    for column in live.iter().flat_map(|(_, columns)| columns) {
        if !families.iter().any(|f| f.0 == column.0) {
            families.push(*column);
        }
    }
    for (name, help, kind, _) in families {
        let (metric, kind) = match kind {
            Kind::Counter => (format!("cosched_{name}_total"), "counter"),
            Kind::Gauge => (format!("cosched_{name}"), "gauge"),
        };
        out.push_str(&format!("# HELP {metric} {help}\n# TYPE {metric} {kind}\n"));
        for (r, columns) in &live {
            if let Some((_, _, _, value)) = columns.iter().find(|c| c.0 == name) {
                out.push_str(&format!("{metric}{{shard=\"{}\"}} {value}\n", r.shard));
            }
        }
    }

    out.push_str("# HELP cosched_request_latency_seconds Request dispatch latency, per shard.\n");
    out.push_str("# TYPE cosched_request_latency_seconds histogram\n");
    for (r, _) in &live {
        let latency = r.latency.unwrap_or_default();
        for (upper_ns, cum) in latency.cumulative() {
            out.push_str(&format!(
                "cosched_request_latency_seconds_bucket{{shard=\"{}\",le=\"",
                r.shard
            ));
            if upper_ns == u64::MAX {
                out.push_str("+Inf");
            } else {
                push_seconds(upper_ns, &mut out);
            }
            out.push_str(&format!("\"}} {cum}\n"));
        }
        out.push_str(&format!(
            "cosched_request_latency_seconds_sum{{shard=\"{}\"}} ",
            r.shard
        ));
        push_seconds(latency.sum_ns(), &mut out);
        out.push('\n');
        out.push_str(&format!(
            "cosched_request_latency_seconds_count{{shard=\"{}\"}} {}\n",
            r.shard,
            latency.count()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::{Json, JsonWriter};

    /// The `metrics` body over `reports`, parsed back.
    fn metrics_json(reports: &[ShardReport]) -> Json {
        let mut out = String::new();
        metrics_body(&mut JsonWriter::new(&mut out), reports);
        Json::parse(&out).expect("the metrics body is JSON")
    }

    #[test]
    fn body_sums_requests_across_shards() {
        let rows = [
            ShardReport {
                shard: 0,
                requests: 3,
                instances: 2,
                ..Default::default()
            },
            ShardReport {
                shard: 1,
                requests: 4,
                instances: 1,
                ..Default::default()
            },
        ];
        let v = metrics_json(&rows);
        assert_eq!(v.get("workers").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("requests").and_then(Json::as_u64), Some(7));
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[1].get("shard").and_then(Json::as_u64), Some(1));
        assert!(shards[0].get("queue_depth").is_none());
        // No durability → no wal_* columns (payload unchanged from the
        // pre-durability protocol); no reactor → no net columns.
        assert!(shards[0].get("wal_records").is_none());
        assert!(shards[0].get("open_connections").is_none());
    }

    #[test]
    fn wal_columns_appear_when_durability_is_on() {
        let row = ShardReport {
            shard: 0,
            requests: 9,
            instances: 1,
            wal: Some(WalStats {
                records: 5,
                bytes: 99,
                fsyncs: 2,
                snapshot_generation: 3,
                replayed: 4,
            }),
            ..Default::default()
        };
        let v = metrics_json(&[row]);
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(shards[0].get("wal_records").and_then(Json::as_u64), Some(5));
        assert_eq!(shards[0].get("wal_bytes").and_then(Json::as_u64), Some(99));
        assert_eq!(shards[0].get("wal_fsyncs").and_then(Json::as_u64), Some(2));
        assert_eq!(
            shards[0]
                .get("wal_snapshot_generation")
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            shards[0].get("wal_replayed").and_then(Json::as_u64),
            Some(4)
        );
    }

    #[test]
    fn net_columns_appear_when_a_reactor_reports() {
        let net = NetMetrics::default();
        net.record_open();
        net.record_open();
        net.record_close();
        net.record_wakeup();
        net.add_bytes_in(10);
        net.add_bytes_out(25);
        let row = ShardReport {
            shard: 0,
            requests: 1,
            instances: 0,
            net: Some(net.report()),
            ..Default::default()
        };
        let v = metrics_json(&[row]);
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(
            shards[0].get("open_connections").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            shards[0].get("reactor_wakeups").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(shards[0].get("bytes_in").and_then(Json::as_u64), Some(10));
        assert_eq!(shards[0].get("bytes_out").and_then(Json::as_u64), Some(25));
    }

    #[test]
    fn histogram_buckets_by_log2_and_reports_upper_bounds() {
        let mut h = LatencyHistogram::default();
        // 0 and 1 land in bucket 0 (upper bound 1 ns).
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile_ns(0.50), 1);
        // 1000 ns lands in bucket 9 = [512, 1023]; as the top reading it
        // becomes every high percentile's (upper-bound) answer.
        h.record(1000);
        assert_eq!(h.percentile_ns(0.99), 1023);
        assert_eq!(h.percentile_ns(0.50), 1);
        let r = h.report();
        assert_eq!(r.count, 3);
        assert!(r.p50_ns <= r.p95_ns && r.p95_ns <= r.p99_ns);
        // u64::MAX saturates into the top bucket without panicking.
        h.record(u64::MAX);
        assert_eq!(h.percentile_ns(1.0), u64::MAX);
    }

    #[test]
    fn histograms_merge_exactly() {
        let readings = [3u64, 40, 40, 900, 7_000, 250_000, 8_000_000];
        let mut whole = LatencyHistogram::default();
        let mut left = LatencyHistogram::default();
        let mut right = LatencyHistogram::default();
        for (i, &ns) in readings.iter().enumerate() {
            whole.record(ns);
            if i % 2 == 0 {
                left.record(ns)
            } else {
                right.record(ns)
            }
        }
        let mut merged = LatencyHistogram::default();
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged, whole);
        assert_eq!(merged.report(), whole.report());
    }

    #[test]
    fn latency_columns_appear_per_shard_and_merged() {
        let mut slow = LatencyHistogram::default();
        slow.record(1 << 20);
        let mut fast = LatencyHistogram::default();
        fast.record(100);
        let base = ShardReport {
            shard: 0,
            requests: 1,
            instances: 0,
            latency: Some(slow),
            ..Default::default()
        };
        let rows = [
            base.clone(),
            ShardReport {
                shard: 1,
                latency: Some(fast),
                ..base
            },
        ];
        let v = metrics_json(&rows);
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(
            shards[0].get("latency_count").and_then(Json::as_u64),
            Some(1)
        );
        // The top-level percentiles come from the merged histogram: its
        // p99 is the slow shard's reading, its p50 the fast shard's.
        assert_eq!(v.get("latency_count").and_then(Json::as_u64), Some(2));
        assert_eq!(
            v.get("latency_p99_ns").and_then(Json::as_u64),
            Some((1u64 << 21) - 1)
        );
        assert_eq!(v.get("latency_p50_ns").and_then(Json::as_u64), Some(127));
        // Idle shards opt out: no latency columns anywhere.
        let idle = metrics_json(&[ShardReport {
            latency: None,
            ..rows[0].clone()
        }]);
        assert!(idle.get("latency_count").is_none());
        let shards = idle.get("shards").and_then(Json::as_array).unwrap();
        assert!(shards[0].get("latency_count").is_none());
    }
}
