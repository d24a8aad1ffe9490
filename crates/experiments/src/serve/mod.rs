//! `cosched serve` — solves as a service.
//!
//! A line-delimited JSON request/response protocol over TCP, fronting
//! [`coschedule::session::Session`]s: clients create long-lived
//! instances, mutate them as applications join/leave the platform, and
//! re-solve incrementally — the online co-scheduling loop the paper
//! motivates, without paying a full rebuild per change.
//!
//! One request per line, one response per line, always an object with an
//! `"ok"` field:
//!
//! ```text
//! → {"op":"create","apps":[{"name":"CG","work":5.7e10,"seq_fraction":0.05,
//!                           "access_freq":0.535,"miss_rate_ref":6.59e-4}, …]}
//! ← {"ok":true,"id":0,"revision":0,"apps":6}
//! → {"op":"mutate","id":0,"action":"remove_app","index":1}
//! ← {"ok":true,"id":0,"revision":1,"apps":5,"removed":"BT"}
//! → {"op":"solve","id":0,"solver":"DominantMinRatio","seed":42}
//! ← {"ok":true,"id":0,"revision":1,"solver":"DominantMinRatio","seed":42,
//!    "mode":"incremental","makespan":1.2e10,"assignments":[…],…}
//! ```
//!
//! Ops: `create`, `mutate` (`action` ∈ `add_app` / `remove_app` /
//! `update_app` / `set_platform`), `solve`, `batch` (several requests in
//! one line — `{"op":"batch","requests":[…]}` — answered by one combined
//! response whose `responses` array is byte-identical to the sequential
//! exchanges), `stats`, `list`, `solvers`, `metrics`, `close`, and (when
//! enabled) `shutdown`. Failures answer `{"ok":false,…,"error":…}` —
//! echoing the request's instance id when it carried one — and keep the
//! connection open. The one exception is a line longer than
//! [`reactor::MAX_LINE_LEN`]: it is refused with one error line, and the
//! connection closes.
//!
//! # Architecture
//!
//! The module tree separates the layers:
//!
//! * [`protocol`] — request/response types and the minijson codec glue;
//!   transport-free ([`handle_line`] maps a request string to a response
//!   string against a [`ServeState`]), so the protocol is testable
//!   without sockets — and it is the byte-identity oracle the socket
//!   tests replay against;
//! * [`router`] — the shards, one single-threaded [`Session`] each behind
//!   a mutex (ids strided per shard, so the id sequence is 0, 1, 2, … at
//!   any worker count), and the deterministic `InstanceId → shard`
//!   mapping: round-robin creates, instance pinning, and one-at-a-time
//!   shard snapshots for the global ops;
//! * [`reactor`] — the front-end: one event-loop thread per shard owning
//!   all of the connections dealt to it, through the `miniepoll` shim —
//!   nonblocking readiness loop and per-connection read/write buffers.
//!   Each request runs to completion on the reactor thread that read it
//!   (lock the owning shard, respond, commit the WAL, unlock), so replies
//!   leave in request order with no thread hop;
//! * [`conn`] — the client side: [`Client`], with lock-step and
//!   pipelined exchanges;
//! * [`metrics`] — per-shard counters behind the `metrics` op: requests,
//!   solves by tier (memo / incremental / cold), aggregated eval-engine
//!   work, WAL and network columns;
//! * [`wal`] — durability: per-shard snapshots + write-ahead logs
//!   (`--durability log|fsync`), crash recovery (`--restore DIR`), and
//!   the warm standby (`cosched standby`). Recovery replays the log
//!   through [`handle_line`], so a restored server answers the remainder
//!   of a trace byte-identically to one that never crashed.
//!
//! [`Server::run`] serves every worker count the same way: instances are
//! distributed across [`ServeConfig::workers`] per-shard sessions, a
//! blocking accept loop deals connections round-robin to one reactor per
//! shard, and every connection multiplexes — `N + 1` threads for `N`
//! workers (plus the metrics listener when one is configured). The price
//! of answering on the reactor thread: a long solve stalls the other
//! connections of the reactor running it, and a reactor that needs a
//! shard another reactor is solving on waits for its lock. For a fixed
//! lock-step request trace the responses are byte-identical to a
//! [`handle_line`] replay on one fresh [`ServeState`], at any worker count
//! (`tests/serve_concurrent.rs` pins this); only the `metrics` op differs
//! by design, reporting one row per shard and the reactors' network
//! counters, and so do `"auto"` solves at two or more workers, whose tuner
//! learns per shard. Serving requires epoll, so it is Linux-only:
//! elsewhere [`Server::run`] returns an error.
//!
//! [`Session`]: coschedule::session::Session

pub mod conn;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod router;
pub mod wal;

pub use conn::{Client, ExchangeStats, DEFAULT_CLIENT_RETRIES};
pub use protocol::{
    app_from_json, app_to_json, handle_line, platform_from_json, platform_overrides_from_json,
    ServeState,
};
pub use wal::{Durability, Standby};

use coschedule::session::Session;
use minijson::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Serve-level configuration, applied when [`Server::run`] starts.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard count: N sessions, each behind its own lock, served by N
    /// reactor threads. The CLI defaults to [`available_workers`]; the
    /// library default is 1. Lock-step responses do not depend on it,
    /// except for the `metrics` op's per-shard rows and `"auto"` solves
    /// (each shard's tuner learns on its own).
    pub workers: usize,
    /// Solver used when a `solve` request names none.
    pub default_solver: String,
    /// Seed used when a `solve` request carries none.
    pub default_seed: u64,
    /// Whether the `shutdown` op is honoured (`cosched serve
    /// --allow-shutdown`, and always in loopback smoke tests).
    pub allow_shutdown: bool,
    /// Durability level (`--durability none|log|fsync`); anything but
    /// [`Durability::None`] requires [`ServeConfig::wal_dir`].
    pub durability: Durability,
    /// Directory holding the per-shard snapshots + logs and `meta.json`.
    pub wal_dir: Option<PathBuf>,
    /// Recover from [`ServeConfig::wal_dir`] at startup (`--restore DIR`).
    /// The directory's `meta.json` **overrides** [`ServeConfig::workers`]:
    /// shard files only compose at the worker count they were written
    /// with.
    pub restore: bool,
    /// WAL records per shard between snapshot rotations
    /// (`--snapshot-every N`).
    pub snapshot_every: u64,
    /// Observation window for each shard session's `"auto"` tuner
    /// (`--tuner-window N`): 0 keeps the default unbounded statistics,
    /// `N > 0` ranks leaders by exponentially-decayed observations with
    /// half-weight ≈ `N` solves (see
    /// [`coschedule::tune::TuneConfig::window`]). Restored servers keep
    /// the window their snapshots were persisted with.
    pub tuner_window: u64,
    /// `--trace`: turn on [`coschedule::obs`] span recording and echo a
    /// `"trace_id"` field on every shard-routed response. Off by default
    /// — the golden suites pin the untagged wire bytes.
    pub trace: bool,
    /// `--trace-out FILE`: after the server stops, drain every ring
    /// buffer and write the spans as Chrome trace-event JSON (loadable
    /// in Perfetto / `chrome://tracing`). Implies nothing about `trace`
    /// — combine with it to also tag responses.
    pub trace_out: Option<PathBuf>,
    /// `--metrics-addr HOST:PORT`: serve Prometheus text exposition on a
    /// dedicated listener (port 0 picks a free port; see
    /// [`Server::metrics_probe`]).
    pub metrics_addr: Option<String>,
    /// `--slow-ms N`: log any shard-routed request whose dispatch takes
    /// at least `N` ms to stderr, with its trace id and per-phase
    /// breakdown.
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            default_solver: "DominantMinRatio".to_string(),
            default_seed: 0xC05,
            allow_shutdown: false,
            durability: Durability::None,
            wal_dir: None,
            restore: false,
            snapshot_every: wal::DEFAULT_SNAPSHOT_EVERY,
            tuner_window: 0,
            trace: false,
            trace_out: None,
            metrics_addr: None,
            slow_ms: None,
        }
    }
}

/// Builds the per-shard [`ServeState`]s a server (or a test) serves with:
/// fresh strided sessions, or — with [`ServeConfig::restore`] — the
/// recovered states of a previous run, each with a [`wal::WalWriter`]
/// attached when durability is on. Mutates `config.workers` to the
/// effective shard count (a restore adopts the directory's layout).
pub fn build_states(config: &mut ServeConfig) -> Result<Vec<ServeState>, String> {
    if config.restore {
        let dir = config
            .wal_dir
            .as_ref()
            .ok_or("restore requires a durability directory")?;
        let workers = wal::read_meta(dir)?.ok_or_else(|| {
            format!(
                "{}: no meta.json — has a server ever logged to this directory?",
                dir.display()
            )
        })?;
        config.workers = workers;
    }
    let shards = config.workers.max(1);
    config.workers = shards;
    if config.durability.enabled() && config.wal_dir.is_none() {
        return Err(format!(
            "--durability {} requires --wal-dir",
            config.durability
        ));
    }
    let mut states = Vec::with_capacity(shards);
    for shard in 0..shards {
        let (mut state, replayed, generation) = if config.restore {
            let dir = config.wal_dir.as_ref().expect("checked above");
            let recovered = wal::recover_shard(
                dir,
                shard,
                shards,
                &config.default_solver,
                config.default_seed,
            )?;
            (
                recovered.state,
                recovered.replayed,
                recovered.next_generation,
            )
        } else {
            let mut session = Session::with_id_stride(shard as u64, shards as u64);
            if config.tuner_window > 0 {
                session.set_tuner_config(coschedule::tune::TuneConfig {
                    window: config.tuner_window,
                    ..Default::default()
                });
            }
            let mut state = ServeState::with_session(session);
            state.default_solver = config.default_solver.clone();
            state.default_seed = config.default_seed;
            (state, 0, 0)
        };
        state.shard = shard;
        state.echo_trace = config.trace;
        state.slow_ms = config.slow_ms;
        if config.durability.enabled() {
            let dir = config.wal_dir.as_ref().expect("checked above");
            let writer = wal::WalWriter::create(
                dir,
                shard,
                shards,
                config.durability,
                config.snapshot_every,
                generation,
                state.session(),
                state.requests(),
                &state.latency_snapshot().unwrap_or_default(),
                replayed,
            )
            .map_err(|e| {
                format!(
                    "shard {shard}: cannot set up durability in {}: {e}",
                    dir.display()
                )
            })?;
            state.attach_wal(writer);
        }
        states.push(state);
    }
    if config.durability.enabled() {
        let dir = config.wal_dir.as_ref().expect("checked above");
        wal::write_meta(dir, shards)
            .map_err(|e| format!("cannot write {}/meta.json: {e}", dir.display()))?;
    }
    Ok(states)
}

/// What `cosched serve` uses when `--workers` is not given: the machine's
/// available parallelism (1 on a single-core box).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A bound-but-not-yet-serving server (binding first lets callers learn
/// the OS-assigned port of `127.0.0.1:0` before serving starts).
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    /// Where the metrics listener publishes its bound address once it is
    /// up (set only when [`ServeConfig::metrics_addr`] is configured) —
    /// the seam that lets a test bind `127.0.0.1:0` and learn the port.
    metrics_bound: Arc<OnceLock<SocketAddr>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port 0 for an OS-assigned
    /// one) with the default configuration.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            config: ServeConfig::default(),
            metrics_bound: Arc::new(OnceLock::new()),
        })
    }

    /// The bound address (what clients should dial).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A probe for the metrics listener's bound address: empty until the
    /// server runs with [`ServeConfig::metrics_addr`] set and the
    /// listener comes up, then holds the address Prometheus should
    /// scrape. Clone it before calling [`Server::run`] (which consumes
    /// the server).
    pub fn metrics_probe(&self) -> Arc<OnceLock<SocketAddr>> {
        Arc::clone(&self.metrics_bound)
    }

    /// Mutable access to the configuration (worker count, defaults,
    /// `allow_shutdown`) before serving starts.
    pub fn config_mut(&mut self) -> &mut ServeConfig {
        &mut self.config
    }

    /// Serves until a `shutdown` request is accepted (never, unless
    /// `allow_shutdown` is set). Per-request failures answer
    /// `"ok":false` and keep serving; I/O errors drop the affected
    /// connection and keep accepting. Fails at startup where the platform
    /// has no epoll (anything but Linux).
    ///
    /// Builds its shard states per the configuration — including recovery
    /// when [`ServeConfig::restore`] is set, in which case the worker
    /// count comes from the durability directory, not the config.
    pub fn run(mut self) -> std::io::Result<()> {
        let states = build_states(&mut self.config)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        self.run_states(states)
    }

    /// Serves pre-built shard states — the promotion path of a warm
    /// [`Standby`] (whose replicas must not be rebuilt from disk: the
    /// point of the standby is that they are already hot).
    pub fn run_with_states(mut self, states: Vec<ServeState>) -> std::io::Result<()> {
        self.config.workers = states.len().max(1);
        self.run_states(states)
    }

    fn run_states(self, mut states: Vec<ServeState>) -> std::io::Result<()> {
        // The metrics listener runs on its own thread, reading each
        // shard's atomic counters through `Arc<ShardObs>` handles cloned
        // before the states move behind their shard locks.
        if let Some(addr) = self.config.metrics_addr.clone() {
            let handles: Vec<_> = states.iter().map(ServeState::obs_handle).collect();
            spawn_metrics_listener(
                &addr,
                Arc::clone(&self.metrics_bound),
                states.len().max(1),
                handles,
            )?;
        }
        if states.is_empty() {
            states.push(ServeState::default());
        }
        let trace_out = self.config.trace_out.clone();
        let result = self.serve(states);
        if let Some(path) = trace_out {
            // All reactors have joined by now, so the shard rings are
            // quiescent; drain every registered ring into one file.
            let chunk = coschedule::obs::drain();
            std::fs::write(&path, coschedule::obs::chrome_trace_json(&chunk.events))?;
            eprintln!(
                "trace: wrote {} events ({} dropped) to {}",
                chunk.events.len(),
                chunk.dropped,
                path.display()
            );
        }
        result
    }

    /// The front-end: a router over the shards, one reactor thread per
    /// shard, and this blocking accept loop, which numbers
    /// connections in accept order and deals them round-robin to the
    /// reactors — see [`reactor`].
    fn serve(self, states: Vec<ServeState>) -> std::io::Result<()> {
        let wake = wake_addr(self.listener.local_addr()?);
        let shards = states.len();
        let router = Arc::new(router::Router::new(&self.config, states));
        let mut reactors: Vec<reactor::Reactor> = Vec::with_capacity(shards);
        let mut spawn_error = None;
        for shard in 0..shards {
            match reactor::Reactor::spawn(shard, Arc::clone(&router), wake) {
                Ok(r) => reactors.push(r),
                Err(e) => {
                    spawn_error = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = spawn_error {
            // Tear down what did start (no epoll on this platform, or
            // fd exhaustion) instead of leaking idle threads.
            for r in &reactors {
                r.stop();
            }
            for r in reactors {
                r.join();
            }
            return Err(e);
        }
        router.attach_reactors(reactors.iter().map(reactor::Reactor::hook).collect());
        let mut result = Ok(());
        for (id, stream) in self.listener.incoming().enumerate() {
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) => {
                    result = Err(e);
                    // Hard stop: without a shutdown request the
                    // reactors would otherwise serve (and park) forever.
                    for r in &reactors {
                        r.stop();
                    }
                    break;
                }
            };
            if router.shutdown_requested() {
                // The reactors' wake-up connection lands here.
                break;
            }
            reactors[id % shards].add_connection(id as u64, stream);
        }
        for r in reactors {
            r.join();
        }
        result
    }
}

/// Where a reactor dials to wake the accept loop after a shutdown: the
/// bound port, but always via loopback — connecting to a wildcard bind
/// address (`0.0.0.0` / `::`) is platform-dependent.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Binds the Prometheus exposition listener and spawns its accept loop.
/// Deliberately a plain thread (not a reactor token): the scrape path
/// must stay responsive while every shard is busy solving, and one
/// thread blocked in `accept` costs nothing. The thread is never joined —
/// it lives until the process exits.
fn spawn_metrics_listener(
    addr: &str,
    bound: Arc<OnceLock<SocketAddr>>,
    workers: usize,
    handles: Vec<Arc<metrics::ShardObs>>,
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let _ = bound.set(listener.local_addr()?);
    let started = std::time::Instant::now();
    std::thread::Builder::new()
        .name("cosched-metrics".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                // Best effort per scrape: a broken pipe drops the
                // connection, not the listener.
                let _ = serve_metrics_scrape(&mut stream, started, workers, &handles);
            }
        })
        .expect("spawn metrics listener");
    Ok(())
}

/// Answers one HTTP scrape on the metrics listener: reads the request
/// head (and ignores it — every path serves the same exposition), then
/// writes an `HTTP/1.0` response with the Prometheus text body.
fn serve_metrics_scrape(
    stream: &mut TcpStream,
    started: std::time::Instant,
    workers: usize,
    handles: &[Arc<metrics::ShardObs>],
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let shards: Vec<metrics::PromShard> = handles
        .iter()
        .enumerate()
        .map(|(shard, obs)| metrics::PromShard {
            shard,
            requests: obs.requests(),
            latency: obs.latency_snapshot(),
        })
        .collect();
    let body = metrics::prometheus_body(
        started.elapsed().as_secs_f64(),
        workers,
        &shards,
        coschedule::obs::dropped_total(),
    );
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// The canned create → mutate → solve → stats → list → metrics → shutdown
/// script used by the loopback tests and the README transcript:
/// `DominantMinRatio` for the incremental solves, `Portfolio` for the
/// final one. Ends with `shutdown`, so the serving side must allow it.
pub fn smoke_script() -> Vec<String> {
    let apps = Json::arr(workloads::npb::npb6(&[0.05]).iter().map(app_to_json));
    [
        Json::obj([("op", Json::from("create")), ("apps", apps)]),
        Json::obj([
            ("op", Json::from("solve")),
            ("id", Json::from(0u64)),
            ("solver", Json::from("DominantMinRatio")),
            ("seed", Json::from(42u64)),
        ]),
        Json::obj([
            ("op", Json::from("mutate")),
            ("id", Json::from(0u64)),
            ("action", Json::from("remove_app")),
            ("index", Json::from(1u64)),
        ]),
        Json::obj([
            ("op", Json::from("solve")),
            ("id", Json::from(0u64)),
            ("solver", Json::from("DominantMinRatio")),
            ("seed", Json::from(42u64)),
        ]),
        Json::obj([
            ("op", Json::from("mutate")),
            ("id", Json::from(0u64)),
            ("action", Json::from("add_app")),
            (
                "app",
                Json::obj([
                    ("name", Json::from("HACC-io")),
                    ("work", Json::from(3.1e10)),
                    ("seq_fraction", Json::from(0.02)),
                    ("access_freq", Json::from(0.61)),
                    ("miss_rate_ref", Json::from(4.2e-3)),
                ]),
            ),
        ]),
        Json::obj([
            ("op", Json::from("solve")),
            ("id", Json::from(0u64)),
            ("solver", Json::from("Portfolio")),
            ("seed", Json::from(42u64)),
            ("schedule", Json::from(false)),
        ]),
        Json::obj([("op", Json::from("stats"))]),
        Json::obj([("op", Json::from("list"))]),
        Json::obj([("op", Json::from("metrics"))]),
        Json::obj([("op", Json::from("shutdown"))]),
    ]
    .into_iter()
    .map(|v| v.to_string())
    .collect()
}
