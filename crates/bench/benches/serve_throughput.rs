//! Serve front-end throughput: requests/sec at workers ∈ {1, 4} and
//! concurrent clients ∈ {1, 8}, plus a **connections-vs-throughput
//! curve** — clients ∈ {1, 8, 64, 256, 1000} at `workers = 4`.
//!
//! Each client models an interactive tenant of the service: it creates
//! its own NPB-6 instance, then lock-steps rounds × (update_app →
//! solve) requests with a small think time between them. The measured
//! quantity is aggregate requests/sec from first spawn to last join; the
//! per-client round count scales down as the fleet grows so every cell
//! issues a comparable total request volume.
//!
//! Every cell runs the one front-end there is: one reactor thread per
//! shard owns all of its connections via `epoll` and answers their
//! requests inline, so the server runs `workers` reactor threads plus
//! the accept loop no matter how many clients connect. `workers = 1`
//! is one shard — one session, one reactor — serving all clients
//! concurrently; `workers = 4` spreads the instances over four.
//!
//! Results are recorded in `BENCH_serve.json` at the repository root.
//! Not a criterion target: the unit of measurement is a whole
//! multi-threaded client fleet, so the harness is a plain `main` (still
//! compiled by `cargo bench --no-run` in CI).

use experiments::serve::{app_to_json, Client, Server};
use minijson::Json;
use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};

/// Maximum (update_app → solve) rounds per client (small fleets).
const ROUNDS: usize = 300;
/// Target total requests per cell; per-client rounds scale to meet it.
const TARGET_REQUESTS: usize = 6000;
/// Interactive think time between a response and the next request.
const THINK: Duration = Duration::from_micros(100);
/// Timed repetitions per configuration (the best is what counts: the
/// others absorb scheduler warm-up noise). The curve cells run two more
/// reps: they are compared point by point against the recorded history,
/// so per-cell noise matters more than in the coarse matrix.
const REPS: usize = 3;
const CURVE_REPS: usize = 5;
/// The fan-in sweep of the connections-vs-throughput curve.
const CURVE_CLIENTS: [usize; 5] = [1, 8, 64, 256, 1000];

/// Rounds per client so a cell issues ~`TARGET_REQUESTS` requests in
/// total regardless of fleet size (each round is two requests).
fn rounds_for(clients: usize) -> usize {
    (TARGET_REQUESTS / (2 * clients)).clamp(1, ROUNDS)
}

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

/// One client's run: create, then the fixed mutate/solve trace,
/// lock-step over a single connection. Returns its request count.
fn run_client(addr: std::net::SocketAddr, k: usize, rounds: usize) -> usize {
    // The listener backlog is finite; a 1000-client connect storm needs
    // the bounded-backoff retry the real clients use.
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
    // The id comes back in the create response; parse it once.
    let id = Json::parse(created.trim_end())
        .expect("create response")
        .get("id")
        .and_then(Json::as_u64)
        .expect("created id");
    let mut requests = 1;
    for round in 0..rounds {
        std::thread::sleep(THINK);
        exchange(&format!(
            r#"{{"op":"update_app","id":{id},"index":0,"app":{{"name":"W{k}","work":{work},"seq_fraction":0.04,"access_freq":0.61,"miss_rate_ref":4.2e-3}}}}"#,
            work = 3.1e10 * (1.0 + 0.001 * (round % 7 + 1) as f64),
        ));
        std::thread::sleep(THINK);
        exchange(&format!(
            r#"{{"op":"solve","id":{id},"solver":"DominantMinRatio","seed":{seed},"schedule":false}}"#,
            seed = 40 + (round % 5),
        ));
        requests += 2;
    }
    requests
}

/// Runs one (workers, clients) cell and returns the best requests/sec
/// over `reps` repetitions.
fn run_config(workers: usize, clients: usize, reps: usize) -> f64 {
    run_config_tagged(workers, clients, reps, false)
}

/// [`run_config`] with the server's `--trace` response tagging on or off
/// (span recording itself is the process-global `obs` flag the tracing
/// section flips around its cells).
fn run_config_tagged(workers: usize, clients: usize, reps: usize, trace: bool) -> f64 {
    let rounds = rounds_for(clients);
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut server = Server::bind("127.0.0.1:0").expect("bind");
        server.config_mut().allow_shutdown = true;
        server.config_mut().workers = workers;
        server.config_mut().trace = trace;
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().expect("server run"));

        let started = Instant::now();
        let total: usize = std::thread::scope(|scope| {
            let fleet: Vec<_> = (0..clients)
                .map(|k| {
                    // Soften the connect storm a little at high fan-in so
                    // the accept loop is not the thing being measured.
                    if clients > 64 && k % 64 == 63 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    scope.spawn(move || run_client(addr, k, rounds))
                })
                .collect();
            fleet.into_iter().map(|c| c.join().expect("client")).sum()
        });
        let elapsed = started.elapsed();

        // Best-effort shutdown with a retry: the ack can race the
        // server's teardown of the control connection (the request was
        // still acted on), so an EOF here only means "try again unless
        // the server already exited".
        for _ in 0..100 {
            if Client::default()
                .exchange(addr, &[r#"{"op":"shutdown"}"#.to_string()])
                .is_ok()
                || handle.is_finished()
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.join().expect("server thread");
        best = best.max(total as f64 / elapsed.as_secs_f64());
    }
    best
}

fn main() {
    println!(
        "# serve_throughput: (update_app + solve) rounds per client (scaled to \
         ~{TARGET_REQUESTS} requests/cell), NPB-6, DominantMinRatio, {THINK:?} think time, \
         best of {REPS}"
    );
    // COSCHED_BENCH_TRACING_ONLY skips the matrix and curve — the quick
    // path for re-measuring just the tracing-overhead row.
    let tracing_only = std::env::var_os("COSCHED_BENCH_TRACING_ONLY").is_some();
    if tracing_only {
        tracing_overhead();
        return;
    }
    // The workers × clients matrix.
    let mut single_worker_at_8 = 0.0;
    for workers in [1usize, 4] {
        for clients in [1usize, 8] {
            let rate = run_config(workers, clients, REPS);
            println!("serve_throughput/workers={workers}/clients={clients}: {rate:>10.0} req/s");
            if workers == 1 && clients == 8 {
                single_worker_at_8 = rate;
            }
            if workers == 4 && clients == 8 {
                println!(
                    "# speedup at 8 clients: {:.2}x over single-worker",
                    rate / single_worker_at_8
                );
            }
        }
    }

    // The connections-vs-throughput curve at workers=4 across the
    // fan-in sweep.
    println!("# connections-vs-throughput curve (workers=4):");
    for clients in CURVE_CLIENTS {
        let rate = run_config(4, clients, CURVE_REPS);
        println!("serve_curve/clients={clients}: {rate:>10.0} req/s");
    }

    tracing_overhead();
}

/// The observability acceptance row: the workers=4, clients=8 cell with
/// span recording off (the default serve state — every instrumentation
/// site costs one relaxed atomic load) and on (`--trace`: rings filled,
/// responses tagged). Both are compared against each other; the
/// disabled-path number is also directly comparable to the matrix cell
/// above.
fn tracing_overhead() {
    println!("# tracing overhead (workers=4, clients=8):");
    coschedule::obs::set_enabled(false);
    let disabled = run_config(4, 8, REPS);
    println!("serve_tracing/disabled: {disabled:>10.0} req/s");
    coschedule::obs::set_enabled(true);
    let enabled = run_config_tagged(4, 8, REPS, true);
    coschedule::obs::set_enabled(false);
    // Rings are bounded (drop-oldest), but leave the registry clean.
    let chunk = coschedule::obs::drain();
    println!(
        "serve_tracing/enabled:  {enabled:>10.0} req/s ({:+.1}% vs disabled, \
         {} spans recorded, {} dropped)",
        (enabled / disabled - 1.0) * 100.0,
        chunk.events.len(),
        chunk.dropped
    );
}
