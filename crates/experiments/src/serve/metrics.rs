//! Per-shard observability: the counters behind the `metrics` op and the
//! Prometheus exposition, and the renderers for both.
//!
//! Each shard counts its requests once, in [`ShardObs`] (bumped by
//! `protocol::respond`, which every shard-routed request passes
//! through). Solve-tier counters (memo / incremental / cold) and the
//! aggregated [`EvalStats`](coschedule::eval::EvalStats) come from the
//! session's own [`SessionStats`](coschedule::session::SessionStats)
//! snapshot, read under the shard's lock between requests.
//!
//! Unlike every other op, the `metrics` response is **not** required to be
//! payload-identical across worker counts — its `shards` array has one
//! entry per worker by design.

use std::sync::atomic::{AtomicU64, Ordering};

use coschedule::session::SessionStats;
use minijson::Json;

use super::wal::WalStats;

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

/// [`LatencyHistogram`] with atomic buckets: recorded from the request
/// path, readable concurrently by the Prometheus endpoint and the
/// `metrics` op without taking the shard's lock. Relaxed ordering
/// throughout — scrapes see a consistent-enough point-in-time view, and
/// recording stays two `fetch_add`s.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; 64],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Records one latency reading.
    pub fn record(&self, nanos: u64) {
        self.counts[LatencyHistogram::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Adds a restored histogram's counts as this histogram's base (the
    /// `--restore` continuity seeding; called before serving starts).
    pub fn seed(&self, base: &LatencyHistogram) {
        for (cell, &c) in self.counts.iter().zip(base.counts().iter()) {
            cell.fetch_add(c, Ordering::Relaxed);
        }
        self.count.fetch_add(base.count(), Ordering::Relaxed);
        self.sum_ns.fetch_add(base.sum_ns(), Ordering::Relaxed);
    }

    /// A point-in-time plain-value copy.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut counts = [0u64; 64];
        for (out, cell) in counts.iter_mut().zip(self.counts.iter()) {
            *out = cell.load(Ordering::Relaxed);
        }
        LatencyHistogram::from_parts(counts, self.sum_ns.load(Ordering::Relaxed))
    }
}

/// One shard's request-path counters shared with threads outside the
/// shard: the owning [`super::protocol::ServeState`] writes on every
/// handled request; the `--metrics-addr` scrape thread (and restore
/// seeding) read/seed it through a cloned [`std::sync::Arc`]. The
/// request counter and histogram base carry across `--restore`.
#[derive(Debug, Default)]
pub struct ShardObs {
    requests: AtomicU64,
    latency: AtomicHistogram,
}

impl ShardObs {
    /// Counters resuming from a restored snapshot: `requests` at the
    /// crashed server's count, the histogram seeded with its persisted
    /// bucket counts.
    pub fn with_base(requests: u64, latency: &LatencyHistogram) -> Self {
        let obs = ShardObs::default();
        obs.requests.store(requests, Ordering::Relaxed);
        obs.latency.seed(latency);
        obs
    }

    /// Counts one handled request and its dispatch latency.
    pub fn record_request(&self, latency_ns: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency_ns);
    }

    /// Requests handled (mutations + solves + shard-routed reads).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the dispatch-latency histogram.
    pub fn latency_snapshot(&self) -> LatencyHistogram {
        self.latency.snapshot()
    }
}

/// One shard's numbers for the Prometheus endpoint.
#[derive(Debug, Clone)]
pub struct PromShard {
    /// Shard index (0-based).
    pub shard: usize,
    /// Requests handled by the shard.
    pub requests: u64,
    /// The shard's dispatch-latency histogram.
    pub latency: LatencyHistogram,
}

fn push_seconds(ns: u64, out: &mut String) {
    // Render an integer nanosecond quantity as decimal seconds without
    // float rounding: 1023 ns → "0.000001023".
    out.push_str(&format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000));
}

/// Renders the Prometheus text exposition (version 0.0.4) served by
/// `serve --metrics-addr`: uptime and worker gauges, per-shard request
/// counters, the trace drop counter, and each shard's log2-ns histogram
/// converted to cumulative `le`-labelled buckets in seconds.
pub fn prometheus_body(
    uptime_s: f64,
    workers: usize,
    shards: &[PromShard],
    trace_dropped: u64,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# HELP cosched_uptime_seconds Seconds since the server started.\n");
    out.push_str("# TYPE cosched_uptime_seconds gauge\n");
    out.push_str(&format!("cosched_uptime_seconds {uptime_s:.3}\n"));
    out.push_str("# HELP cosched_workers Worker shards serving requests.\n");
    out.push_str("# TYPE cosched_workers gauge\n");
    out.push_str(&format!("cosched_workers {workers}\n"));
    out.push_str("# HELP cosched_trace_dropped_total Trace events lost to ring overwrite.\n");
    out.push_str("# TYPE cosched_trace_dropped_total counter\n");
    out.push_str(&format!("cosched_trace_dropped_total {trace_dropped}\n"));
    out.push_str("# HELP cosched_requests_total Requests handled, per shard.\n");
    out.push_str("# TYPE cosched_requests_total counter\n");
    for s in shards {
        out.push_str(&format!(
            "cosched_requests_total{{shard=\"{}\"}} {}\n",
            s.shard, s.requests
        ));
    }
    out.push_str("# HELP cosched_request_latency_seconds Request dispatch latency, per shard.\n");
    out.push_str("# TYPE cosched_request_latency_seconds histogram\n");
    for s in shards {
        for (upper_ns, cum) in s.latency.cumulative() {
            out.push_str(&format!(
                "cosched_request_latency_seconds_bucket{{shard=\"{}\",le=\"",
                s.shard
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
            s.shard
        ));
        push_seconds(s.latency.sum_ns(), &mut out);
        out.push('\n');
        out.push_str(&format!(
            "cosched_request_latency_seconds_count{{shard=\"{}\"}} {}\n",
            s.shard,
            s.latency.count()
        ));
    }
    out
}

/// One shard's row of the `metrics` response.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index (0-based).
    pub shard: usize,
    /// Requests the shard has handled ([`ShardObs::requests`]).
    pub requests: u64,
    /// Live instances owned by the shard.
    pub instances: usize,
    /// The shard session's lifetime counters.
    pub stats: SessionStats,
    /// Durability counters — `None` when the server runs `--durability
    /// none`, in which case no `wal_*` fields appear in the response (the
    /// pre-durability payload stays byte-identical).
    pub wal: Option<WalStats>,
    /// Reactor network counters — `None` for a transport-free state, in
    /// which case no net fields appear in the response (same pattern as
    /// `wal`).
    pub net: Option<NetReport>,
    /// Dispatch-latency histogram — `None` until the shard has answered
    /// at least one routed request, in which case no `latency_*` fields
    /// appear (same opt-in pattern as `wal`/`net`; the histogram lives
    /// in memory only, so a freshly restored server starts empty).
    pub latency: Option<LatencyHistogram>,
}

/// Serializes the `metrics` op response: per-shard rows plus the request
/// total. A lone [`super::ServeState`] reports itself as one shard of
/// one.
pub(super) fn metrics_body(workers: usize, reports: &[ShardReport]) -> Json {
    let total: u64 = reports.iter().map(|r| r.requests).sum();
    // Per-shard histograms merge exactly, so the top-level percentiles
    // are computed over every recorded request, not averaged estimates.
    let mut merged = LatencyHistogram::default();
    for hist in reports.iter().filter_map(|r| r.latency.as_ref()) {
        merged.merge(hist);
    }
    let mut body = Json::obj([
        ("ok", Json::from(true)),
        ("workers", Json::from(workers)),
        ("requests", Json::from(total)),
        (
            "shards",
            Json::arr(reports.iter().map(|r| {
                let mut row = Json::obj([
                    ("shard", Json::from(r.shard)),
                    ("requests", Json::from(r.requests)),
                    ("instances", Json::from(r.instances)),
                    ("mutations", Json::from(r.stats.mutations)),
                    ("solves", Json::from(r.stats.solves)),
                    ("memo_hits", Json::from(r.stats.memo_hits)),
                    ("incremental_solves", Json::from(r.stats.incremental_solves)),
                    ("cold_solves", Json::from(r.stats.cold_solves)),
                    ("kernel_calls", Json::from(r.stats.eval.kernel_calls)),
                    ("apps_evaluated", Json::from(r.stats.eval.apps_evaluated)),
                    // The shard's autotuner ("auto" solves only; see
                    // coschedule::tune — each shard session learns its own
                    // table, so these do not merge across shards).
                    ("tuner_explored", Json::from(r.stats.tuner.explored)),
                    ("tuner_committed", Json::from(r.stats.tuner.committed)),
                    (
                        "tuner_challenger_wins",
                        Json::from(r.stats.tuner.challenger_wins),
                    ),
                    (
                        "tuner_member_solves",
                        Json::from(r.stats.tuner.member_solves),
                    ),
                ]);
                if let (Json::Obj(pairs), Some(wal)) = (&mut row, r.wal) {
                    pairs.push(("wal_records".to_string(), Json::from(wal.records)));
                    pairs.push(("wal_bytes".to_string(), Json::from(wal.bytes)));
                    pairs.push(("wal_fsyncs".to_string(), Json::from(wal.fsyncs)));
                    pairs.push((
                        "wal_snapshot_generation".to_string(),
                        Json::from(wal.snapshot_generation),
                    ));
                    pairs.push(("wal_replayed".to_string(), Json::from(wal.replayed)));
                }
                if let (Json::Obj(pairs), Some(net)) = (&mut row, r.net) {
                    pairs.push((
                        "open_connections".to_string(),
                        Json::from(net.open_connections),
                    ));
                    pairs.push((
                        "reactor_wakeups".to_string(),
                        Json::from(net.reactor_wakeups),
                    ));
                    pairs.push(("bytes_in".to_string(), Json::from(net.bytes_in)));
                    pairs.push(("bytes_out".to_string(), Json::from(net.bytes_out)));
                }
                if let (Json::Obj(pairs), Some(hist)) = (&mut row, r.latency.as_ref()) {
                    let lat = hist.report();
                    pairs.push(("latency_count".to_string(), Json::from(lat.count)));
                    pairs.push(("latency_p50_ns".to_string(), Json::from(lat.p50_ns)));
                    pairs.push(("latency_p95_ns".to_string(), Json::from(lat.p95_ns)));
                    pairs.push(("latency_p99_ns".to_string(), Json::from(lat.p99_ns)));
                }
                row
            })),
        ),
    ]);
    if let Json::Obj(pairs) = &mut body {
        if merged.count() > 0 {
            let lat = merged.report();
            pairs.push(("latency_count".to_string(), Json::from(lat.count)));
            pairs.push(("latency_p50_ns".to_string(), Json::from(lat.p50_ns)));
            pairs.push(("latency_p95_ns".to_string(), Json::from(lat.p95_ns)));
            pairs.push(("latency_p99_ns".to_string(), Json::from(lat.p99_ns)));
        }
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_sums_requests_across_shards() {
        let rows = [
            ShardReport {
                shard: 0,
                requests: 3,
                instances: 2,
                stats: SessionStats::default(),
                wal: None,
                net: None,
                latency: None,
            },
            ShardReport {
                shard: 1,
                requests: 4,
                instances: 1,
                stats: SessionStats::default(),
                wal: None,
                net: None,
                latency: None,
            },
        ];
        let v = metrics_body(2, &rows);
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
            stats: SessionStats::default(),
            wal: Some(WalStats {
                records: 5,
                bytes: 99,
                fsyncs: 2,
                snapshot_generation: 3,
                replayed: 4,
            }),
            net: None,
            latency: None,
        };
        let v = metrics_body(1, &[row]);
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
            stats: SessionStats::default(),
            wal: None,
            net: Some(net.report()),
            latency: None,
        };
        let v = metrics_body(1, &[row]);
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
            stats: SessionStats::default(),
            wal: None,
            net: None,
            latency: Some(slow),
        };
        let rows = [
            base.clone(),
            ShardReport {
                shard: 1,
                latency: Some(fast),
                ..base
            },
        ];
        let v = metrics_body(2, &rows);
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
        let idle = metrics_body(
            1,
            &[ShardReport {
                latency: None,
                ..rows[0].clone()
            }],
        );
        assert!(idle.get("latency_count").is_none());
        let shards = idle.get("shards").and_then(Json::as_array).unwrap();
        assert!(shards[0].get("latency_count").is_none());
    }
}
