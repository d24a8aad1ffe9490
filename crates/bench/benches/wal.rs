//! Write-ahead-log overhead: aggregate requests/sec of a 4-client fleet
//! against the sharded (`workers = 4`) server at each durability level —
//! `none` (the baseline), `log` (append + flush to the OS page cache per
//! group commit), and `fsync` (additionally `fdatasync` per commit).
//!
//! Every request in the trace is a mutating op (update_app / solve), so
//! each one is appended, checksummed, and committed before its reply
//! leaves the server — the worst case for logging overhead; read-mostly
//! traffic would dilute it. There is **no think time**: an interactive
//! pause would hide the logging cost this benchmark exists to measure.
//!
//! Results are recorded in `BENCH_wal.json` at the repository root. The
//! acceptance criterion is `log` overhead ≤ 15% over `none`; `fsync` is
//! reported for calibration (it buys power-loss durability at whatever
//! price the device's sync latency sets, and is expected to be far
//! slower on real disks).
//!
//! Not a criterion target: the unit of measurement is a whole
//! multi-threaded client fleet (still compiled by `cargo bench --no-run`
//! in CI).

use experiments::serve::{app_to_json, Client, Durability, Server};
use minijson::Json;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::time::Instant;

/// (update_app → solve) rounds per client.
const ROUNDS: usize = 200;
/// Concurrent clients (= worker count: every shard stays busy).
const CLIENTS: usize = 4;
/// Timed repetitions per durability level (best-of, absorbing warm-up).
const REPS: usize = 3;

fn create_request(k: usize) -> String {
    let mut apps = workloads::npb::npb6(&[0.05]);
    for app in &mut apps {
        app.work *= 1.0 + 0.01 * k as f64;
    }
    Json::obj([
        ("op", Json::from("create")),
        ("apps", Json::arr(apps.iter().map(app_to_json))),
    ])
    .to_string()
}

/// One client's lock-step mutate/solve run; every request is logged when
/// durability is on. Returns its request count.
fn run_client(addr: std::net::SocketAddr, k: usize) -> usize {
    let stream = Client::default().connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut exchange = move |line: &str| -> String {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        assert!(
            response.contains("\"ok\":true"),
            "request {line} failed: {response}"
        );
        response
    };

    let created = exchange(&create_request(k));
    let id = Json::parse(created.trim_end())
        .expect("create response")
        .get("id")
        .and_then(Json::as_u64)
        .expect("created id");
    let mut requests = 1;
    for round in 0..ROUNDS {
        exchange(&format!(
            r#"{{"op":"update_app","id":{id},"index":0,"app":{{"name":"W{k}","work":{work},"seq_fraction":0.04,"access_freq":0.61,"miss_rate_ref":4.2e-3}}}}"#,
            work = 3.1e10 * (1.0 + 0.001 * (round % 7 + 1) as f64),
        ));
        exchange(&format!(
            r#"{{"op":"solve","id":{id},"solver":"DominantMinRatio","seed":{seed},"schedule":false}}"#,
            seed = 40 + (round % 5),
        ));
        requests += 2;
    }
    requests
}

/// Runs the fleet once against a fresh server at `durability` and returns
/// requests/sec. Each run logs into (and then removes) a fresh directory.
fn run_once(durability: Durability, rep: usize) -> f64 {
    let dir: Option<PathBuf> = durability.enabled().then(|| {
        std::env::temp_dir().join(format!(
            "cosched-bench-wal-{}-{durability}-{rep}",
            std::process::id()
        ))
    });
    let mut server = Server::bind("127.0.0.1:0").expect("bind");
    server.config_mut().allow_shutdown = true;
    server.config_mut().workers = CLIENTS;
    server.config_mut().durability = durability;
    server.config_mut().wal_dir = dir.clone();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let started = Instant::now();
    let total: usize = std::thread::scope(|scope| {
        let fleet: Vec<_> = (0..CLIENTS)
            .map(|k| scope.spawn(move || run_client(addr, k)))
            .collect();
        fleet.into_iter().map(|c| c.join().expect("client")).sum()
    });
    let elapsed = started.elapsed();

    Client::default()
        .exchange(addr, &[r#"{"op":"shutdown"}"#.to_string()])
        .expect("shutdown");
    handle.join().expect("server thread");
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
    }
    total as f64 / elapsed.as_secs_f64()
}

fn main() {
    println!(
        "# wal: {CLIENTS} clients x (create + {ROUNDS} x (update_app + solve)) against \
         workers={CLIENTS}, every request logged, no think time, best of {REPS}"
    );
    // One unmeasured warm-up pass, then the reps *interleaved* across
    // levels — back-to-back same-level reps would fold scheduler and
    // page-cache warm-up into whichever level runs first.
    let levels = [Durability::None, Durability::Log, Durability::Fsync];
    run_once(Durability::None, usize::MAX);
    let mut best = [0.0f64; 3];
    for rep in 0..REPS {
        for (slot, durability) in levels.into_iter().enumerate() {
            best[slot] = best[slot].max(run_once(durability, rep));
        }
    }
    let baseline = best[0];
    for (slot, durability) in levels.into_iter().enumerate() {
        if slot == 0 {
            println!(
                "wal/durability={durability}: {:>10.0} req/s (baseline)",
                best[slot]
            );
        } else {
            let overhead = 100.0 * (1.0 - best[slot] / baseline);
            println!(
                "wal/durability={durability}: {:>10.0} req/s ({overhead:+.1}% overhead)",
                best[slot]
            );
        }
    }
}
