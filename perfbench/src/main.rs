//! `perfbench`: the end-to-end benchmark of `cosched serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload npb6_tenants --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run measures one workload (see `stream::WORKLOADS` and
//! `perfbench/README.md`). The process first pins itself to one CPU, then
//! starts an in-process [`Server`] at two workers and drives it over
//! loopback TCP with its own client, on one connection:
//!
//! 1. set-up, repeated on a fresh server [`SETUP_REPS`] times: bind,
//!    then create every tenant and cold-solve it (`setup_s`, the median);
//! 2. lock-step reschedules: an `update_app` and its `solve`, each timed
//!    whole (`reschedule_p50_us`, `reschedule_p90_us`);
//! 3. pipelined reschedules with [`WINDOW`] requests in flight
//!    (`throughput_rps`, and the process CPU per request,
//!    `cpu_us_per_req`).
//!
//! Phases 2 and 3 alternate in [`ROUNDS`] rounds on the last set-up
//! server. Their sizes are fixed per second of `--seconds`, not timed, so
//! two commits send exactly the same requests.
//!
//! Every response is then checked against a replay of the same stream
//! through the transport-free `handle_line` on a fresh `ServeState`. With
//! `--trace 1` a traced in-process pass (see [`layers`]) adds the
//! per-layer metrics. The last line of standard output is the result
//! object; the run exits non-zero when any operation failed.

mod client;
mod layers;
mod stream;
mod sys;

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use experiments::serve::{handle_line, ServeState, Server};
use minijson::Json;

use client::{Conn, Log};
use stream::{Spec, Stream};

/// Shards of every workload: the sharded reactor front-end. Set
/// explicitly, because the pinned process sees one available CPU.
const WORKERS: usize = 2;
/// Requests in flight in the pipelined phase.
const WINDOW: usize = 8;
/// Fresh servers set up per run; `setup_s` is the median.
const SETUP_REPS: usize = 25;
/// The lock-step and pipelined phases alternate in this many rounds, so
/// that both sample the whole run: the host's speed drifts over seconds.
const ROUNDS: usize = 10;
/// Lock-step reschedules the traced pass covers at most.
const TRACED_STEPS: usize = 3_000;
/// Where runs write WAL directories, traces and layer summaries,
/// relative to the checkout.
const OUT_DIR: &str = ".perfbench";

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(stream::spec(&value).ok_or_else(|| {
                    let names: Vec<_> = stream::WORKLOADS.iter().map(|s| s.name).collect();
                    format!(
                        "unknown workload {value:?}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
        std::process::exit(2);
    });
    // Before any thread exists, so that every thread inherits the mask.
    let cpu = sys::pin_to_one_cpu().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot pin to one CPU: {e}");
        std::process::exit(1);
    });
    let run_dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let result = run(&args, cpu, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What the TCP phases observed. Filled as they go, so a transport error
/// still leaves the responses received before it.
#[derive(Default)]
struct Tcp {
    setup_s: Vec<f64>,
    /// One log per set-up repetition.
    setup_logs: Vec<Log>,
    /// The last server's lock-step and pipelined responses.
    log: Log,
    /// Each lock-step reschedule, in nanoseconds, warm-up excluded.
    reschedule_ns: Vec<u64>,
    pipelined_requests: u64,
    pipelined_s: f64,
    pipelined_cpu_s: f64,
}

fn run(args: &Args, cpu: usize, run_dir: &Path) -> Result<(String, bool), String> {
    let spec = args.spec;
    let steal_before = sys::steal_jiffies(cpu).map_err(|e| e.to_string())?;
    let lockstep_round = (spec.lockstep_per_s * args.seconds) as usize / ROUNDS;
    let pipelined_round = (spec.pipelined_per_s * args.seconds) as usize / ROUNDS;
    let setup = Stream::new(spec, args.seed).setup();
    let stream_len =
        setup.len() + ROUNDS * (lockstep_round + pipelined_round) * stream::STEP_REQUESTS;
    let attempted = (SETUP_REPS - 1) * setup.len() + stream_len;

    let mut tcp = Tcp::default();
    let transport = tcp_phases(
        spec,
        args.seed,
        &setup,
        lockstep_round,
        pipelined_round,
        run_dir,
        &mut tcp,
    );
    if let Err(e) = &transport {
        eprintln!("perfbench: transport error: {e}");
    }

    let expected = replay(spec, args.seed, lockstep_round, pipelined_round);
    let mut failed = attempted;
    for log in &tcp.setup_logs {
        failed -= answered_correctly(log, &expected[..setup.len()]);
    }
    failed -= answered_correctly(&tcp.log, &expected[setup.len()..]);
    let correct = failed == 0 && transport.is_ok();
    let steal = sys::steal_jiffies(cpu).map_err(|e| e.to_string())? - steal_before;
    let reschedule_p50_us = percentile(&tcp.reschedule_ns, 0.5) as f64 / 1e3;
    eprintln!(
        "perfbench: workload={} seed={} cpu={cpu} workers={WORKERS} window={WINDOW} \
         lockstep_reschedules={} reschedule_p50_us={reschedule_p50_us} \
         pipelined_requests={} pipelined_s={:.3} steal_jiffies={steal} \
         attempted={attempted} failed={failed}",
        spec.name,
        args.seed,
        ROUNDS * lockstep_round,
        tcp.pipelined_requests,
        tcp.pipelined_s,
    );

    let metrics = if args.trace {
        let wal_dir = spec.durability.enabled().then(|| run_dir.join("shadow"));
        let mut metrics = layers::traced_pass(
            spec,
            args.seed,
            lockstep_round.min(TRACED_STEPS),
            reschedule_p50_us,
            wal_dir.as_deref(),
            Path::new(OUT_DIR),
        )?;
        metrics.push(Metric::new("host.steal_jiffies", steal as f64, "count"));
        metrics
    } else {
        let mut setup_s = tcp.setup_s.clone();
        setup_s.sort_by(f64::total_cmp);
        vec![
            Metric::new(
                "setup_s",
                setup_s.get(setup_s.len() / 2).copied().unwrap_or(0.0),
                "s",
            ),
            Metric::new("reschedule_p50_us", reschedule_p50_us, "us"),
            Metric::new(
                "reschedule_p90_us",
                percentile(&tcp.reschedule_ns, 0.9) as f64 / 1e3,
                "us",
            ),
            Metric::new(
                "throughput_rps",
                tcp.pipelined_requests as f64 / tcp.pipelined_s.max(f64::MIN_POSITIVE),
                "1/s",
            ),
            Metric::new(
                "cpu_us_per_req",
                tcp.pipelined_cpu_s * 1e6 / tcp.pipelined_requests.max(1) as f64,
                "us",
            ),
        ]
    };
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let value = Json::obj([
                            ("value", Json::from(m.value)),
                            ("unit", Json::from(m.unit)),
                        ]);
                        (m.name.to_string(), value)
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok((line.to_string(), correct))
}

/// Responses in `log` that answered `"ok":true` and equal the replay's.
fn answered_correctly(log: &Log, expected: &[u64]) -> usize {
    log.digests
        .iter()
        .zip(&log.ok)
        .zip(expected)
        .filter(|((digest, ok), want)| **ok && digest == want)
        .count()
}

/// Binds a fresh server, serves it on its own thread, and connects.
fn start_server(
    spec: &Spec,
    wal_dir: Option<PathBuf>,
) -> io::Result<(Conn, JoinHandle<io::Result<()>>)> {
    let mut server = Server::bind("127.0.0.1:0")?;
    let config = server.config_mut();
    config.workers = WORKERS;
    config.allow_shutdown = true;
    if let Some(dir) = wal_dir {
        config.durability = spec.durability;
        config.wal_dir = Some(dir);
    }
    let addr: SocketAddr = server.local_addr()?;
    let handle = std::thread::spawn(move || server.run());
    Ok((Conn::connect(addr)?, handle))
}

/// Shuts the server down over `conn` and joins its thread.
fn stop_server(mut conn: Conn, server: JoinHandle<io::Result<()>>) -> io::Result<()> {
    conn.send(r#"{"op":"shutdown"}"#)?;
    let acknowledged = conn.recv()?.starts_with(br#"{"ok":true"#);
    drop(conn);
    server
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))??;
    if acknowledged {
        Ok(())
    } else {
        Err(io::Error::other("server refused shutdown"))
    }
}

fn tcp_phases(
    spec: &'static Spec,
    seed: u64,
    setup: &[String],
    lockstep_round: usize,
    pipelined_round: usize,
    run_dir: &Path,
    out: &mut Tcp,
) -> io::Result<()> {
    let mut served = None;
    for rep in 0..SETUP_REPS {
        if let Some((conn, server)) = served.take() {
            stop_server(conn, server)?;
        }
        let wal_dir = spec
            .durability
            .enabled()
            .then(|| run_dir.join(format!("serve-{rep}")));
        let started = Instant::now();
        let (mut conn, server) = start_server(spec, wal_dir)?;
        out.setup_logs.push(Log::default());
        let log = out.setup_logs.last_mut().expect("just pushed");
        for request in setup {
            conn.send(request)?;
            log.record(conn.recv()?);
        }
        out.setup_s.push(started.elapsed().as_secs_f64());
        served = Some((conn, server));
    }
    let (mut conn, server) = served.expect("at least one set-up");
    let mut stream = Stream::new(spec, seed);
    stream.setup();
    for round in 0..ROUNDS {
        // Lock-step: one reschedule at a time, timed from its first send
        // to its last reply. The first tenth of the first round warms the
        // shards' caches.
        let warmup = if round == 0 { lockstep_round / 10 } else { 0 };
        for step in 0..lockstep_round {
            let requests = stream.next_step();
            let started = Instant::now();
            let mut elapsed = 0;
            for (i, request) in requests.iter().enumerate() {
                conn.send(request)?;
                let response = conn.recv()?;
                if i + 1 == requests.len() {
                    elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                }
                out.log.record(response);
            }
            if step >= warmup {
                out.reschedule_ns.push(elapsed);
            }
        }

        // Pipelined: a closed loop that keeps WINDOW requests in flight.
        let cpu_before = sys::process_cpu_s()?;
        let started = Instant::now();
        let mut in_flight = 0;
        for _ in 0..pipelined_round {
            for request in stream.next_step() {
                if in_flight == WINDOW {
                    out.log.record(conn.recv()?);
                    in_flight -= 1;
                }
                conn.send(&request)?;
                in_flight += 1;
                out.pipelined_requests += 1;
            }
        }
        while in_flight > 0 {
            out.log.record(conn.recv()?);
            in_flight -= 1;
        }
        out.pipelined_s += started.elapsed().as_secs_f64();
        out.pipelined_cpu_s += sys::process_cpu_s()? - cpu_before;
    }
    stop_server(conn, server)
}

/// The reference answers: the digest of every response to the whole
/// stream through `handle_line` on one fresh `ServeState`, which a
/// two-shard server must match byte for byte.
fn replay(
    spec: &'static Spec,
    seed: u64,
    lockstep_round: usize,
    pipelined_round: usize,
) -> Vec<u64> {
    let mut state = ServeState::new();
    let mut stream = Stream::new(spec, seed);
    let setup = stream.setup();
    let steps = (0..ROUNDS * (lockstep_round + pipelined_round)).flat_map(|_| stream.next_step());
    setup
        .into_iter()
        .chain(steps)
        .map(|request| client::digest(handle_line(&mut state, &request).as_bytes()))
        .collect()
}

/// Nearest-rank percentile `q` of `samples` (0 for none).
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
