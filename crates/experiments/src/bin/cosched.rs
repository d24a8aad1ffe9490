//! `cosched` — compute a cache-partitioned co-schedule for a set of
//! applications described in a CSV file, and print both the resource
//! assignment and the Intel-CAT (`pqos`) commands that would deploy it —
//! or run the whole thing as a service.
//!
//! ```text
//! cosched apps.csv --procs 256 --cache-gb 32 --ways 16 [--strategy NAME]
//! cosched --demo              # run on the built-in NPB Table-2 workload
//! cosched --demo --eval-stats # also print the evaluation-engine counters
//! cosched --list-strategies   # print every addressable solver name
//!
//! cosched serve --addr 127.0.0.1:7878       # line-delimited JSON over TCP
//! cosched serve --workers 4                 # shard instances over 4 sessions
//! cosched serve --smoke [--workers N] [--strategy NAME]  # loopback test
//! cosched serve --smoke-fanin [--connections N]  # 300-connection fan-in test
//! cosched serve --durability log --wal-dir DIR   # snapshot + write-ahead log
//! cosched serve --restore DIR               # recover a crashed server
//! cosched serve --smoke-recover             # kill -9 + restore self-test
//! cosched standby --dir DIR [--promote ADDR]  # warm replica tailing a primary
//! cosched standby --promote ADDR --primary ADDR --probe-fails 3  # auto-failover
//! cosched client --addr 127.0.0.1:7878 --send '{"op":"list"}'
//! cosched client --addr 127.0.0.1:7878      # requests from stdin
//! cosched client --requests trace.jsonl     # replay a file, pipelined
//! cosched client --requests trace.jsonl --batch  # …as one batch op
//! cosched client --frame binary             # length-prefixed frame codec
//! cosched client --retries N                # backoff on refused connects
//!
//! cosched tune [--solves N] [--seed S]      # replay a workload, print the
//!                                           # autotuner's learned table
//! cosched tune --smoke                      # tuner self-test, then exit
//!
//! cosched exact [--n N] [--nodes N] [--threads T]  # prove an optimum by
//!                                           # branch-and-bound
//! cosched exact --smoke                     # B&B-vs-enumerator self-test
//! ```
//!
//! `--strategy` goes through the [`coschedule::solver`] registry, so every
//! solver is addressable by its paper legend name (`DominantMinRatio`,
//! `DominantRevMaxRatio`, `RandomPart`, `Fair`, `0cache`, `AllProcCache`,
//! `DominantRefined`), by the historical aliases (`dmr`, `refined`,
//! `0cache`, `seq`), or as `Portfolio` — which runs every solver and
//! prints the per-solver breakdown alongside the winning schedule.
//!
//! `serve` fronts long-lived [`coschedule::session::Session`]s with the
//! create/mutate/solve/stats/list/metrics protocol of
//! [`experiments::serve`] — `--workers N` shards instances across N
//! per-worker sessions, each with an epoll reactor multiplexing its
//! connections (serving requires Linux); `client` is the matching
//! line-oriented driver for scripting, with `--requests FILE` replaying a
//! newline-delimited JSON trace pipelined.

use cachesim::clos::{ClosConfig, ClosTable};
use coschedule::eval::EvalStats;
use coschedule::model::Platform;
use coschedule::obs;
use coschedule::solver::{self, Instance, Portfolio, SolveCtx};
use experiments::appcsv::parse_applications;
use experiments::serve::{
    available_workers, handle_line, smoke_script, smoke_script_for, wal, Client, Durability,
    FrameMode, ServeState, Server, Standby, DEFAULT_CLIENT_RETRIES,
};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::npb::npb6;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve_main(args.split_off(1)),
        Some("standby") => return standby_main(args.split_off(1)),
        Some("client") => return client_main(args.split_off(1)),
        Some("tune") => return tune_main(args.split_off(1)),
        Some("exact") => return exact_main(args.split_off(1)),
        Some("cluster") => return cluster_main(args.split_off(1)),
        _ => {}
    }
    let mut input: Option<String> = None;
    let mut procs = 256.0;
    let mut cache_gb = 32.0;
    let mut ways = 16usize;
    let mut seed = 0xC05u64;
    let mut strategy_name = "DominantMinRatio".to_string();
    let mut demo = false;
    let mut eval_stats = false;

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--demo" => demo = true,
            "--eval-stats" => eval_stats = true,
            "--list-strategies" => {
                for name in solver::names() {
                    println!("{name:<22} {}", solver::describe(&name));
                }
                return ExitCode::SUCCESS;
            }
            "--procs" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => procs = v,
                None => return usage("--procs expects a number"),
            },
            "--cache-gb" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => cache_gb = v,
                None => return usage("--cache-gb expects a number"),
            },
            "--ways" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => ways = v,
                None => return usage("--ways expects an integer"),
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage("--seed expects an integer"),
            },
            "--strategy" => match iter.next() {
                Some(name) => strategy_name = name,
                None => return usage("--strategy expects a name"),
            },
            path if !path.starts_with('-') => input = Some(path.to_string()),
            other => return usage(&format!("unknown flag {other}")),
        }
    }

    let strategy = match solver::by_name(&strategy_name) {
        Ok(s) => s,
        // The structured error already carries the offending name and the
        // full registry — render it verbatim.
        Err(e) => return usage(&e.to_string()),
    };

    let apps = if demo {
        npb6(&[0.05])
    } else {
        let Some(path) = input else {
            return usage("provide a CSV path or --demo");
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match parse_applications(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let platform = Platform::taihulight()
        .with_processors(procs)
        .with_cache_size(cache_gb * 1e9);
    let napps = apps.len();
    let instance = match Instance::new(apps, platform) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("invalid instance: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut ctx = SolveCtx::seeded(seed);
    // Per-solver evaluation counters + wall time, collected for
    // --eval-stats.
    let mut stats_rows: Vec<(String, EvalStats, Duration)> = Vec::new();
    let solve_wall;
    let solve_started = Instant::now();
    let outcome = if strategy.name() == "Portfolio" {
        // Re-build the portfolio directly so the per-solver breakdown can
        // be printed alongside the winning schedule. Printing happens
        // after the wall-time measurement so --eval-stats reports solve
        // cost, not stdout cost.
        let portfolio = Portfolio::new(solver::all());
        let result = portfolio.solve_detailed(&instance, &ctx);
        solve_wall = solve_started.elapsed();
        match result {
            Ok(report) => {
                println!("# portfolio breakdown ({} solvers):", report.members.len());
                for m in &report.members {
                    match &m.result {
                        Ok(o) => {
                            println!("#   {:<22} makespan {:.6e}", m.name, o.makespan);
                            stats_rows.push((m.name.clone(), o.eval_stats, m.elapsed));
                        }
                        Err(e) => println!("#   {:<22} failed: {e}", m.name),
                    }
                }
                println!("# winner: {}\n", report.best_name);
                report.outcome
            }
            Err(e) => {
                eprintln!("scheduling failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let result = strategy.solve(&instance, &mut ctx);
        solve_wall = solve_started.elapsed();
        match result {
            Ok(o) => {
                stats_rows.push((strategy.name(), o.eval_stats, solve_wall));
                o
            }
            Err(e) => {
                eprintln!("scheduling failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    println!(
        "# {} on {} procs, {:.1} GB LLC — makespan {:.4e}",
        strategy.name(),
        procs,
        cache_gb,
        outcome.makespan
    );
    println!("{:<12} {:>12} {:>12}", "application", "processors", "cache");
    for (app, asg) in instance.apps().iter().zip(&outcome.schedule.assignments) {
        println!(
            "{:<12} {:>12.2} {:>11.2}%",
            app.name,
            asg.procs,
            asg.cache * 100.0
        );
    }

    if eval_stats {
        print_eval_stats(&stats_rows, solve_wall);
    }

    let fractions: Vec<f64> = outcome
        .schedule
        .assignments
        .iter()
        .map(|a| a.cache)
        .collect();
    match ClosTable::from_fractions(
        ClosConfig {
            ways,
            max_clos: napps.max(16),
            min_ways: 1,
        },
        &fractions,
    ) {
        Ok(table) => {
            println!("\n# CAT deployment ({} ways):", ways);
            for cmd in table.to_pqos_commands() {
                println!("pqos -e \"{cmd}\"");
            }
        }
        Err(e) => eprintln!("note: cannot map fractions to {ways} ways: {e}"),
    }
    ExitCode::SUCCESS
}

/// Prints the per-solver evaluation-engine breakdown: batched kernel
/// calls, total applications evaluated, and per-member wall time (the
/// Portfolio times each member's solve individually via
/// [`MemberOutcome::elapsed`](coschedule::solver::MemberOutcome), so the
/// cost column is attributable even when the portfolio fans out; the
/// header carries the whole solve's wall time).
fn print_eval_stats(rows: &[(String, EvalStats, Duration)], wall: Duration) {
    println!(
        "\n# eval stats (solve wall time {:.3} ms)",
        wall.as_secs_f64() * 1e3
    );
    println!(
        "# {:<22} {:>14} {:>16} {:>12}",
        "solver", "kernel calls", "apps evaluated", "wall ms"
    );
    let mut total = EvalStats::default();
    let mut total_wall = Duration::ZERO;
    for (name, stats, member_wall) in rows {
        println!(
            "# {:<22} {:>14} {:>16} {:>12.3}",
            name,
            stats.kernel_calls,
            stats.apps_evaluated,
            member_wall.as_secs_f64() * 1e3
        );
        total.merge(*stats);
        total_wall += *member_wall;
    }
    if rows.len() > 1 {
        println!(
            "# {:<22} {:>14} {:>16} {:>12.3}",
            "total",
            total.kernel_calls,
            total.apps_evaluated,
            total_wall.as_secs_f64() * 1e3
        );
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: cosched <apps.csv | --demo | --list-strategies> [--procs N] [--cache-gb G] \
         [--ways W] [--seed S] [--strategy NAME] [--eval-stats]\n\
         \x20      cosched serve [--addr HOST:PORT] [--workers N] [--strategy NAME] [--tuner-window N] [--allow-shutdown] \
         [--durability none|log|fsync] [--wal-dir DIR] [--restore DIR] [--snapshot-every N] \
         [--trace] [--trace-out FILE] [--metrics-addr HOST:PORT] [--slow-ms N] \
         [--smoke] [--smoke-recover] [--smoke-fanin [--connections N]] [--smoke-trace]\n\
         \x20      cosched standby --dir DIR [--interval-ms N] [--once] [--promote HOST:PORT] \
         [--primary HOST:PORT --probe-fails N] [--strategy NAME]\n\
         \x20      cosched client [--addr HOST:PORT] [--send JSON]... [--requests FILE] \
         [--batch] [--stats] [--retries N] [--frame json|binary]\n\
         \x20      cosched tune [--solves N] [--seed S] [--window N] [--smoke]\n\
         \x20      cosched exact [--n N] [--seed S] [--nodes N] [--millis MS] [--threads T] \
         [--procs P] [--cache-gb G] [--smoke]\n\
         \x20      cosched cluster [--profile constant|step|bursty] [--rate R] [--horizon H] \
         [--seed S] [--solver NAME] [--window N] [--trace] [--trace-out FILE] [--smoke]\n\
         strategies: {}",
        solver::names().join(", ")
    );
    ExitCode::FAILURE
}

/// `cosched serve`: bind, print the address, serve until shutdown. With
/// `--smoke`, bind `127.0.0.1:0`, run the canned create→mutate→solve→stats
/// script against ourselves over real TCP, print the transcript, and exit
/// non-zero if any response is not `"ok":true`.
///
/// `--workers N` shards instances across N per-worker sessions, each
/// served by its own reactor thread. Default: the machine's available
/// parallelism — except under `--smoke`, which stays single-worker unless
/// `--workers` is given, so the default smoke transcript is byte-stable.
fn serve_main(args: Vec<String>) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut allow_shutdown = false;
    let mut smoke = false;
    let mut smoke_recover = false;
    let mut smoke_fanin = false;
    let mut connections = 300usize;
    let mut workers: Option<usize> = None;
    let mut strategy: Option<String> = None;
    let mut durability: Option<Durability> = None;
    let mut wal_dir: Option<PathBuf> = None;
    let mut restore = false;
    let mut snapshot_every: Option<u64> = None;
    let mut tuner_window = 0u64;
    let mut trace = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_addr: Option<String> = None;
    let mut slow_ms: Option<u64> = None;
    let mut smoke_trace = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => match iter.next() {
                Some(a) => addr = a,
                None => return usage("--addr expects HOST:PORT"),
            },
            "--workers" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => workers = Some(n),
                _ => return usage("--workers expects an integer >= 1"),
            },
            "--strategy" => match iter.next() {
                // Validated through the registry now, so a typo fails at
                // startup instead of on every solve request.
                Some(name) => match solver::by_name(&name) {
                    Ok(s) => strategy = Some(s.name()),
                    Err(e) => return usage(&e.to_string()),
                },
                None => return usage("--strategy expects a name"),
            },
            "--allow-shutdown" => allow_shutdown = true,
            "--smoke" => smoke = true,
            "--smoke-recover" => smoke_recover = true,
            "--smoke-fanin" => smoke_fanin = true,
            "--connections" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => connections = n,
                _ => return usage("--connections expects an integer >= 1"),
            },
            "--durability" => match iter.next().map(|v| v.parse()) {
                Some(Ok(level)) => durability = Some(level),
                Some(Err(e)) => return usage(&e),
                None => return usage("--durability expects none, log, or fsync"),
            },
            "--wal-dir" => match iter.next() {
                Some(dir) => wal_dir = Some(PathBuf::from(dir)),
                None => return usage("--wal-dir expects a directory"),
            },
            "--restore" => match iter.next() {
                Some(dir) => {
                    wal_dir = Some(PathBuf::from(dir));
                    restore = true;
                }
                None => return usage("--restore expects a durability directory"),
            },
            "--snapshot-every" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => snapshot_every = Some(n),
                _ => return usage("--snapshot-every expects an integer >= 1"),
            },
            "--tuner-window" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => tuner_window = n,
                None => return usage("--tuner-window expects an integer >= 0 (0 = unbounded)"),
            },
            "--trace" => trace = true,
            "--trace-out" => match iter.next() {
                Some(path) => trace_out = Some(PathBuf::from(path)),
                None => return usage("--trace-out expects a file path"),
            },
            "--metrics-addr" => match iter.next() {
                Some(a) => metrics_addr = Some(a),
                None => return usage("--metrics-addr expects HOST:PORT"),
            },
            "--slow-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => slow_ms = Some(n),
                None => return usage("--slow-ms expects an integer (milliseconds)"),
            },
            "--smoke-trace" => smoke_trace = true,
            other => return usage(&format!("unknown serve flag {other}")),
        }
    }
    if smoke_recover {
        return serve_smoke_recover(workers.unwrap_or(4), strategy.as_deref());
    }
    if smoke_fanin {
        return serve_smoke_fanin(workers.unwrap_or(4), connections);
    }
    if smoke_trace {
        return serve_smoke_trace(workers.unwrap_or(4));
    }
    if smoke {
        addr = "127.0.0.1:0".to_string();
        allow_shutdown = true;
    }
    // A configured durability directory means "log" unless the level was
    // set explicitly; a restored server keeps logging by default.
    let durability = durability.unwrap_or(if wal_dir.is_some() {
        Durability::Log
    } else {
        Durability::None
    });
    let workers = workers.unwrap_or(if smoke { 1 } else { available_workers() });
    let mut server = match Server::bind(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    server.config_mut().allow_shutdown = allow_shutdown;
    server.config_mut().workers = workers;
    server.config_mut().durability = durability;
    server.config_mut().wal_dir = wal_dir.clone();
    server.config_mut().restore = restore;
    server.config_mut().tuner_window = tuner_window;
    // Span recording is opt-in; without either flag the only tracing
    // cost anywhere is one relaxed atomic load per span site.
    if trace || trace_out.is_some() {
        obs::set_enabled(true);
    }
    server.config_mut().trace = trace;
    server.config_mut().trace_out = trace_out.clone();
    server.config_mut().metrics_addr = metrics_addr.clone();
    server.config_mut().slow_ms = slow_ms;
    if let Some(n) = snapshot_every {
        server.config_mut().snapshot_every = n;
    }
    if let Some(name) = &strategy {
        server.config_mut().default_solver = name.clone();
    }
    let local = server.local_addr().expect("bound listener has an address");
    if !smoke {
        // On restore the effective worker count comes from the
        // directory's meta.json, not --workers.
        let workers = match (restore, &wal_dir) {
            (true, Some(dir)) => match wal::read_meta(dir) {
                Ok(Some(n)) => n,
                Ok(None) => {
                    eprintln!(
                        "cannot restore from {}: no meta.json — has a server ever \
                         logged to this directory?",
                        dir.display()
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("cannot restore from {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            },
            _ => workers,
        };
        println!(
            "# cosched serve listening on {local} (line-delimited JSON, {workers} worker{})",
            if workers == 1 { "" } else { "s" }
        );
        if durability.enabled() {
            let dir = wal_dir.as_ref().expect("durability requires a directory");
            println!(
                "# durability {durability} in {}{}",
                dir.display(),
                if restore { ", restored" } else { "" }
            );
        }
        if let Some(metrics_at) = &metrics_addr {
            println!("# metrics exposition on {metrics_at}");
        }
        return match server.run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("serve failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Loopback self-test: the server runs on a thread, the client here.
    // With --strategy, the whole script runs through that solver (CI
    // smokes the sharded server with `--strategy auto`).
    let handle = std::thread::spawn(move || server.run());
    let script = match &strategy {
        Some(name) => smoke_script_for(name, name),
        None => smoke_script(),
    };
    let responses = match Client::default().exchange(local, &script) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("smoke client failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for (request, response) in script.iter().zip(&responses) {
        println!("→ {request}");
        println!("← {response}");
        all_ok &= minijson::Json::parse(response)
            .ok()
            .and_then(|v| v.get("ok").and_then(minijson::Json::as_bool))
            .unwrap_or(false);
    }
    match handle.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("server errored: {e}");
            all_ok = false;
        }
        Err(_) => {
            eprintln!("server thread panicked");
            all_ok = false;
        }
    }
    if all_ok {
        println!("# smoke ok: {} responses", responses.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("smoke failed: a response was not ok");
        ExitCode::FAILURE
    }
}

/// The `--smoke-recover` trace, split at the crash point. Solves go
/// through `"auto"` by default so recovery must also reproduce the
/// tuner's learned state — an `"auto"` decision depends on every solve
/// before it, so a byte-identical remainder proves the histories match.
fn smoke_recover_trace(solver: &str) -> (Vec<String>, Vec<String>) {
    use minijson::Json;
    let apps = || Json::arr(npb6(&[0.05]).iter().map(experiments::serve::app_to_json));
    let solve = |id: u64, seed: u64| {
        Json::obj([
            ("op", Json::from("solve")),
            ("id", Json::from(id)),
            ("solver", Json::from(solver)),
            ("seed", Json::from(seed)),
            ("schedule", Json::from(false)),
        ])
        .to_string()
    };
    let before = vec![
        Json::obj([("op", Json::from("create")), ("apps", apps())]).to_string(),
        solve(0, 1),
        Json::obj([
            ("op", Json::from("mutate")),
            ("id", Json::from(0u64)),
            ("action", Json::from("remove_app")),
            ("index", Json::from(1u64)),
        ])
        .to_string(),
        solve(0, 2),
        Json::obj([("op", Json::from("create")), ("apps", apps())]).to_string(),
        solve(1, 3),
    ];
    let after = vec![
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
        ])
        .to_string(),
        solve(0, 4),
        solve(1, 5),
        Json::obj([
            ("op", Json::from("solve")),
            ("id", Json::from(0u64)),
            ("solver", Json::from("DominantMinRatio")),
            ("seed", Json::from(42u64)),
            ("schedule", Json::from(false)),
        ])
        .to_string(),
        Json::obj([("op", Json::from("stats"))]).to_string(),
        Json::obj([("op", Json::from("list"))]).to_string(),
    ];
    (before, after)
}

/// Spawns `cosched serve <args>` as a child process (so it can be
/// `kill -9`'d for real) and returns it with the address it printed.
fn spawn_serve_child(args: &[String]) -> Result<(std::process::Child, String), String> {
    use std::io::Read;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut child = std::process::Command::new(exe)
        .arg("serve")
        .args(args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn serve child: {e}"))?;
    let stdout = child.stdout.take().expect("piped child stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    if let Err(e) = reader.read_line(&mut line) {
        let _ = child.kill();
        return Err(format!("child printed no listening line: {e}"));
    }
    // "# cosched serve listening on ADDR (line-delimited JSON, …)"
    let Some(addr) = line.split_whitespace().nth(5).map(str::to_string) else {
        let _ = child.kill();
        return Err(format!("unparseable listening line: {line:?}"));
    };
    // Keep draining so later prints never block (or EPIPE) the child.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    Ok((child, addr))
}

/// `cosched serve --smoke-recover`: the end-to-end crash/recovery
/// self-test. Runs a real child server with `--durability log`, drives
/// half a trace lock-step (every reply ⇒ the op is committed), SIGKILLs
/// the child mid-stream, restarts it with `--restore`, and asserts the
/// remainder of the trace — `"auto"` tuner decisions included — answers
/// **byte-identically** to one uninterrupted in-process run.
fn serve_smoke_recover(workers: usize, strategy: Option<&str>) -> ExitCode {
    let solver = strategy.unwrap_or("auto");
    let (before, after) = smoke_recover_trace(solver);
    let shutdown_line = r#"{"op":"shutdown"}"#.to_string();

    // The uninterrupted reference: same worker count, no durability.
    let mut reference_server = match Server::bind("127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke-recover: cannot bind reference server: {e}");
            return ExitCode::FAILURE;
        }
    };
    reference_server.config_mut().workers = workers;
    reference_server.config_mut().allow_shutdown = true;
    let reference_addr = reference_server
        .local_addr()
        .expect("bound listener has an address");
    let reference_thread = std::thread::spawn(move || reference_server.run());
    let full: Vec<String> = before
        .iter()
        .chain(&after)
        .chain(std::iter::once(&shutdown_line))
        .cloned()
        .collect();
    let reference = match Client::default().exchange(reference_addr, &full) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("smoke-recover: reference run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = reference_thread.join();

    let dir = std::env::temp_dir().join(format!(
        "cosched-smoke-recover-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0)
    ));
    let dir_arg = dir.display().to_string();
    let result = (|| -> Result<(), String> {
        // Phase 1: a durable child, killed -9 mid-trace.
        let (mut child, addr) = spawn_serve_child(&[
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            workers.to_string(),
            "--durability".into(),
            "log".into(),
            "--wal-dir".into(),
            dir_arg.clone(),
        ])?;
        println!("# smoke-recover: primary on {addr}, {workers} workers, wal in {dir_arg}");
        let first = Client::default()
            .exchange(&*addr, &before)
            .map_err(|e| format!("pre-crash exchange failed: {e}"))?;
        for (got, want) in first.iter().zip(&reference) {
            if got != want {
                return Err(format!(
                    "pre-crash response diverged from reference:\n got {got}\nwant {want}"
                ));
            }
        }
        child.kill().map_err(|e| format!("kill -9 failed: {e}"))?;
        let _ = child.wait();
        println!(
            "# smoke-recover: killed the primary after {} committed ops",
            before.len()
        );

        // Phase 2: restore and finish the trace.
        let (mut child, addr) = spawn_serve_child(&[
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--restore".into(),
            dir_arg.clone(),
            "--allow-shutdown".into(),
        ])?;
        println!("# smoke-recover: restored server on {addr}");
        let patient = Client {
            retries: 10,
            ..Client::default()
        };
        let rest = patient
            .exchange(&*addr, &after)
            .map_err(|e| format!("post-restore exchange failed: {e}"))?;
        let mut mismatches = 0;
        for ((request, got), want) in after.iter().zip(&rest).zip(&reference[before.len()..]) {
            let marker = if got == want { "=" } else { "≠" };
            println!("{marker} {request}");
            if got != want {
                println!("  got  {got}\n  want {want}");
                mismatches += 1;
            }
        }
        let _ = Client::default().exchange(&*addr, std::slice::from_ref(&shutdown_line));
        let _ = child.wait();
        if mismatches > 0 {
            return Err(format!(
                "{mismatches} of {} post-restore responses diverged",
                after.len()
            ));
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(()) => {
            println!(
                "# smoke-recover ok: {} post-restore responses byte-identical (solver {solver})",
                after.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("smoke-recover failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `cosched serve --smoke-fanin`: the high-fan-in self-test. Binds a
/// loopback server, opens `connections` mostly-idle client connections
/// (every 16th also runs a real request/response round trip, proving the
/// server stays responsive while the fan-in grows), then asserts via
/// `metrics` that every connection is registered **concurrently** — the
/// per-shard `open_connections` gauges must account for the whole fan-in
/// plus the control connection. The reactors serve them all on `workers`
/// threads.
fn serve_smoke_fanin(workers: usize, connections: usize) -> ExitCode {
    use std::io::{BufRead as _, BufReader, Write as _};

    let mut server = match Server::bind("127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke-fanin: cannot bind 127.0.0.1:0: {e}");
            return ExitCode::FAILURE;
        }
    };
    server.config_mut().allow_shutdown = true;
    server.config_mut().workers = workers;
    let addr = server.local_addr().expect("bound listener has an address");
    let handle = std::thread::spawn(move || server.run());
    println!("# smoke-fanin: {connections} connections against {addr} ({workers} workers)");

    let result = (|| -> Result<(), String> {
        let mut idle = Vec::with_capacity(connections);
        for k in 0..connections {
            // The listener backlog is finite; retry with backoff instead
            // of assuming every connect lands on the first try.
            let stream = Client::default()
                .connect(addr)
                .map_err(|e| format!("connect #{k} failed: {e}"))?;
            if k % 16 == 0 {
                (&stream)
                    .write_all(b"{\"op\":\"list\"}\n")
                    .map_err(|e| format!("write on #{k}: {e}"))?;
                let mut line = String::new();
                BufReader::new(&stream)
                    .read_line(&mut line)
                    .map_err(|e| format!("read on #{k}: {e}"))?;
                let ok = minijson::Json::parse(&line)
                    .ok()
                    .and_then(|v| v.get("ok").and_then(minijson::Json::as_bool))
                    .unwrap_or(false);
                if !ok {
                    return Err(format!("list on #{k} answered {line:?}"));
                }
            }
            idle.push(stream);
        }

        // One extra control connection reads the gauges while every idle
        // connection is still open. Reactors adopt the sockets the accept
        // loop hands them asynchronously, so poll (for at most ~2 s) until
        // the gauges account for every idle connection plus this one.
        let control = Client::default()
            .connect(addr)
            .map_err(|e| format!("control connect failed: {e}"))?;
        let mut reader = BufReader::new(&control);
        let mut gauges: Vec<u64> = Vec::new();
        for _ in 0..100 {
            (&control)
                .write_all(b"{\"op\":\"metrics\"}\n")
                .map_err(|e| format!("metrics request failed: {e}"))?;
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("metrics response failed: {e}"))?;
            let v = minijson::Json::parse(&line)
                .map_err(|e| format!("unparseable metrics: {e} in {line}"))?;
            let shards = v
                .get("shards")
                .and_then(minijson::Json::as_array)
                .ok_or_else(|| format!("metrics without shards: {line}"))?;
            gauges = shards
                .iter()
                .filter_map(|row| row.get("open_connections").and_then(minijson::Json::as_u64))
                .collect();
            if gauges.iter().sum::<u64>() > connections as u64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let open: u64 = gauges.iter().sum();
        println!(
            "# smoke-fanin: open_connections per shard {gauges:?} (sum {open}, \
             fan-in {connections} + 1 control)"
        );
        if open <= connections as u64 {
            return Err(format!(
                "only {open} connections registered concurrently, wanted {connections} + 1 control"
            ));
        }
        Ok(())
    })();

    // Closing the idle sockets happens when `idle` drops inside the
    // closure; the server then just needs the shutdown line.
    let shutdown = Client::default()
        .exchange(addr, &[r#"{"op":"shutdown"}"#.to_string()])
        .map_err(|e| e.to_string());
    let run = handle.join();
    match (result, shutdown, run) {
        (Ok(()), Ok(_), Ok(Ok(()))) => {
            println!("# smoke-fanin ok: {connections} concurrent connections");
            ExitCode::SUCCESS
        }
        (Err(e), _, _) => {
            eprintln!("smoke-fanin failed: {e}");
            ExitCode::FAILURE
        }
        (_, Err(e), _) => {
            eprintln!("smoke-fanin: shutdown failed: {e}");
            ExitCode::FAILURE
        }
        (_, _, run) => {
            eprintln!("smoke-fanin: server exit: {run:?}");
            ExitCode::FAILURE
        }
    }
}

/// `cosched serve --smoke-trace`: the observability self-test CI runs.
/// An in-process server comes up with tracing, a trace file, and the
/// Prometheus listener; the smoke script runs against it with `trace_id`
/// echoes on; the metrics exposition is scraped over real HTTP and
/// line-linted; and after shutdown the emitted Chrome trace JSON is
/// parsed and validated (non-empty, well-formed events, the expected
/// serve spans present).
fn serve_smoke_trace(workers: usize) -> ExitCode {
    let trace_path = std::env::temp_dir().join(format!(
        "cosched-smoke-trace-{}-{workers}.json",
        std::process::id()
    ));
    let mut server = match Server::bind("127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke-trace: cannot bind 127.0.0.1:0: {e}");
            return ExitCode::FAILURE;
        }
    };
    obs::set_enabled(true);
    server.config_mut().allow_shutdown = true;
    server.config_mut().workers = workers;
    server.config_mut().trace = true;
    server.config_mut().trace_out = Some(trace_path.clone());
    server.config_mut().metrics_addr = Some("127.0.0.1:0".to_string());
    let addr = server.local_addr().expect("bound listener has an address");
    let metrics_probe = server.metrics_probe();
    let handle = std::thread::spawn(move || server.run());
    println!("# smoke-trace: serving on {addr} ({workers} workers)");

    let result = (|| -> Result<(), String> {
        // Everything but the final shutdown line, so the metrics scrape
        // below sees a server that has actually handled requests.
        let script = smoke_script();
        let (body, _) = script.split_at(script.len() - 1);
        let responses = Client::default()
            .exchange(addr, body)
            .map_err(|e| format!("smoke exchange failed: {e}"))?;
        for (k, response) in responses.iter().enumerate() {
            let v = minijson::Json::parse(response)
                .map_err(|e| format!("response {k} unparseable: {e} in {response}"))?;
            if v.get("ok").and_then(minijson::Json::as_bool) != Some(true) {
                return Err(format!("response {k} not ok: {response}"));
            }
            // Global ops (stats/list/metrics) are untagged by design.
            let op_is_global = matches!(k, 6..=8);
            let tagged = v.get("trace_id").and_then(minijson::Json::as_u64);
            if !op_is_global && tagged != Some(k as u64) {
                return Err(format!(
                    "response {k} should echo trace_id={k}, got {tagged:?}: {response}"
                ));
            }
        }
        println!(
            "# smoke-trace: {} responses, trace ids echoed",
            responses.len()
        );

        // The metrics listener publishes its bound (port-0) address once
        // up; it starts before the accept loop, so it is already there.
        let metrics_at = (0..100)
            .find_map(|_| {
                metrics_probe.get().copied().or_else(|| {
                    std::thread::sleep(Duration::from_millis(20));
                    None
                })
            })
            .ok_or("metrics listener never published its address")?;
        let exposition = http_get(metrics_at).map_err(|e| format!("metrics scrape: {e}"))?;
        let lines = lint_prometheus(&exposition)?;
        println!("# smoke-trace: metrics exposition on {metrics_at} linted ({lines} lines)");
        Ok(())
    })();

    let shutdown = Client::default()
        .exchange(addr, &[r#"{"op":"shutdown"}"#.to_string()])
        .map_err(|e| e.to_string());
    let run = handle.join();
    let trace_check = match (&result, &shutdown) {
        (Ok(()), Ok(_)) => validate_chrome_trace(&trace_path),
        _ => Err("skipped (earlier failure)".to_string()),
    };
    let _ = std::fs::remove_file(&trace_path);
    match (result, shutdown, run, trace_check) {
        (Ok(()), Ok(_), Ok(Ok(())), Ok(events)) => {
            println!("# smoke-trace ok: {events} events in a valid Chrome trace");
            ExitCode::SUCCESS
        }
        (Err(e), _, _, _) => {
            eprintln!("smoke-trace failed: {e}");
            ExitCode::FAILURE
        }
        (_, Err(e), _, _) => {
            eprintln!("smoke-trace: shutdown failed: {e}");
            ExitCode::FAILURE
        }
        (_, _, _, Err(e)) => {
            eprintln!("smoke-trace: trace file invalid: {e}");
            ExitCode::FAILURE
        }
        (_, _, run, _) => {
            eprintln!("smoke-trace: server exit: {run:?}");
            ExitCode::FAILURE
        }
    }
}

/// One `GET /metrics` over a throwaway HTTP/1.0 connection; returns the
/// response body (everything after the blank line).
fn http_get(addr: std::net::SocketAddr) -> std::io::Result<String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: cosched\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        Some((head, _)) => Err(std::io::Error::other(format!(
            "unexpected status line: {:?}",
            head.lines().next().unwrap_or("")
        ))),
        None => Err(std::io::Error::other("no header/body separator")),
    }
}

/// Line-lints a Prometheus text exposition: every line is a comment
/// (`# HELP` / `# TYPE`) or a `name{labels} value` sample whose name is
/// a valid metric identifier and whose value parses as a float. Returns
/// the number of sample lines, and requires the histogram families the
/// serve exposition promises.
fn lint_prometheus(body: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (n, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if !comment.starts_with("HELP ") && !comment.starts_with("TYPE ") {
                return Err(format!("line {}: unknown comment form: {line:?}", n + 1));
            }
            continue;
        }
        let (metric, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line:?}", n + 1))?;
        let name = metric.split('{').next().unwrap_or("");
        let valid_name = !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit());
        if !valid_name {
            return Err(format!("line {}: invalid metric name {name:?}", n + 1));
        }
        if metric.contains('{') && !metric.ends_with('}') {
            return Err(format!("line {}: unterminated label set: {line:?}", n + 1));
        }
        value
            .parse::<f64>()
            .map_err(|_| format!("line {}: unparseable value {value:?}", n + 1))?;
        samples += 1;
    }
    for family in [
        "cosched_uptime_seconds",
        "cosched_requests_total",
        "cosched_request_latency_seconds_bucket",
        "cosched_request_latency_seconds_count",
    ] {
        if !body.contains(family) {
            return Err(format!("missing metric family {family}"));
        }
    }
    Ok(samples)
}

/// Parses a `--trace-out` file and checks it is a loadable Chrome trace:
/// a `traceEvents` array of well-formed events — every complete (`"X"`)
/// event carrying `ts` and `dur` (begin/end matched by construction) —
/// with the serve request spans present. Returns the event count.
fn validate_chrome_trace(path: &std::path::Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = minijson::Json::parse(&text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(minijson::Json::as_array)
        .ok_or("no traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    let mut complete = 0usize;
    let mut names = std::collections::BTreeSet::new();
    for (k, event) in events.iter().enumerate() {
        let name = event
            .get("name")
            .and_then(minijson::Json::as_str)
            .ok_or_else(|| format!("event {k} has no name"))?;
        let ph = event
            .get("ph")
            .and_then(minijson::Json::as_str)
            .ok_or_else(|| format!("event {k} ({name}) has no ph"))?;
        if event.get("ts").is_none() {
            return Err(format!("event {k} ({name}) has no ts"));
        }
        match ph {
            "X" => {
                if event.get("dur").is_none() {
                    return Err(format!("complete event {k} ({name}) has no dur"));
                }
                complete += 1;
            }
            "i" => {}
            other => return Err(format!("event {k} ({name}) has unexpected ph {other:?}")),
        }
        names.insert(name.to_string());
    }
    if complete == 0 {
        return Err("no complete (ph=X) events".to_string());
    }
    for expected in ["op_create", "op_solve", "op_mutate"] {
        if !names.contains(expected) {
            return Err(format!(
                "expected span {expected:?} missing (saw {names:?})"
            ));
        }
    }
    Ok(events.len())
}

/// `cosched standby`: maintain a warm replica by tailing a primary's
/// durability directory (read-only — safe next to the live primary).
/// With `--promote ADDR`, a line (or EOF) on stdin triggers promotion:
/// one final catch-up, then the replicas serve on ADDR. `--once` does a
/// single catch-up pass and exits (scripting / tests).
fn standby_main(args: Vec<String>) -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    let mut interval = Duration::from_millis(200);
    let mut once = false;
    let mut promote_addr: Option<String> = None;
    let mut primary: Option<String> = None;
    let mut probe_fails: Option<u32> = None;
    let mut strategy: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--dir" => match iter.next() {
                Some(d) => dir = Some(PathBuf::from(d)),
                None => return usage("--dir expects a durability directory"),
            },
            "--interval-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(ms) => interval = Duration::from_millis(ms),
                None => return usage("--interval-ms expects an integer"),
            },
            "--once" => once = true,
            "--promote" => match iter.next() {
                Some(a) => promote_addr = Some(a),
                None => return usage("--promote expects HOST:PORT"),
            },
            "--primary" => match iter.next() {
                Some(a) => primary = Some(a),
                None => return usage("--primary expects HOST:PORT"),
            },
            "--probe-fails" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => probe_fails = Some(n),
                _ => return usage("--probe-fails expects an integer >= 1"),
            },
            "--strategy" => match iter.next() {
                Some(name) => match solver::by_name(&name) {
                    Ok(s) => strategy = Some(s.name()),
                    Err(e) => return usage(&e.to_string()),
                },
                None => return usage("--strategy expects a name"),
            },
            other => return usage(&format!("unknown standby flag {other}")),
        }
    }
    let Some(dir) = dir else {
        return usage("standby requires --dir");
    };
    if probe_fails.is_some() && primary.is_none() {
        return usage("--probe-fails requires --primary HOST:PORT to probe");
    }
    if probe_fails.is_some() && promote_addr.is_none() {
        return usage("--probe-fails requires --promote HOST:PORT to serve on");
    }
    let default_solver = strategy.as_deref().unwrap_or("DominantMinRatio");
    let mut standby = match Standby::open(&dir, default_solver, 0xC05) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open standby over {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# cosched standby tailing {} ({} shard{})",
        dir.display(),
        standby.workers(),
        if standby.workers() == 1 { "" } else { "s" }
    );

    // Promotion trigger: any stdin line, or stdin closing.
    let promote_requested = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    if promote_addr.is_some() {
        let flag = std::sync::Arc::clone(&promote_requested);
        std::thread::spawn(move || {
            let mut line = String::new();
            let _ = std::io::stdin().read_line(&mut line);
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        println!("# promotion armed: a line (or EOF) on stdin promotes to a serving primary");
    }
    if let (Some(target), Some(n)) = (&primary, probe_fails) {
        println!(
            "# health probe armed: {n} consecutive failed connects to {target} \
             (one per tick) promote"
        );
    }
    let mut consecutive_probe_failures = 0u32;

    loop {
        match standby.catch_up() {
            Ok(progress) => {
                if progress.snapshots_loaded > 0 || progress.records_applied > 0 {
                    println!(
                        "# caught up: {} snapshot(s), {} record(s); {} live instance(s)",
                        progress.snapshots_loaded,
                        progress.records_applied,
                        standby.instances()
                    );
                }
            }
            Err(e) => {
                // Transient by assumption (e.g. racing a rotation): report
                // and retry next tick — unless this is a one-shot pass.
                eprintln!("standby catch-up failed: {e}");
                if once {
                    return ExitCode::FAILURE;
                }
            }
        }
        if once {
            println!(
                "# standby pass done: {} live instance(s) across {} shard(s)",
                standby.instances(),
                standby.workers()
            );
            return ExitCode::SUCCESS;
        }
        // Health-check trigger: one TCP connect to the primary per tick;
        // N consecutive refusals mean the primary is gone. Any success
        // resets the count, so a transiently busy primary never trips it.
        if let (Some(target), Some(n)) = (&primary, probe_fails) {
            if probe_primary(target) {
                consecutive_probe_failures = 0;
            } else {
                consecutive_probe_failures += 1;
                if consecutive_probe_failures >= n {
                    println!("# primary {target} failed {n} consecutive probes — promoting");
                    promote_requested.store(true, std::sync::atomic::Ordering::SeqCst);
                }
            }
        }
        if promote_requested.load(std::sync::atomic::Ordering::SeqCst) {
            let addr = promote_addr.expect("flag only set when --promote was given");
            // One final pass picks up anything logged since the last tick.
            // Promote only once the old primary is dead: the promoted
            // server does not log (restart it with --restore to resume
            // durability).
            if let Err(e) = standby.catch_up() {
                eprintln!("final catch-up failed: {e}");
                return ExitCode::FAILURE;
            }
            let server = match Server::bind(&addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let local = server.local_addr().expect("bound listener has an address");
            let states = standby.promote();
            println!(
                "# promoted: serving on {local} ({} worker{})",
                states.len(),
                if states.len() == 1 { "" } else { "s" }
            );
            return match server.run_with_states(states) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("promoted server failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        std::thread::sleep(interval);
    }
}

/// One health probe: can we TCP-connect to the primary? Bounded by a
/// short timeout so a wedged network never stalls the standby's tail
/// loop. A successful connect is immediately closed — the primary sees a
/// zero-request connection, which every front-end tolerates.
fn probe_primary(target: &str) -> bool {
    use std::net::ToSocketAddrs;
    let Ok(addrs) = target.to_socket_addrs() else {
        return false;
    };
    for addr in addrs {
        if std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_ok() {
            return true;
        }
    }
    false
}

/// `cosched client`: send `--send` request lines (or stdin lines) to a
/// serving `cosched serve` and print one response per request. With
/// `--requests FILE`, replay the file's newline-delimited JSON requests
/// **pipelined** (all in flight on one connection, responses printed in
/// request order) — the trace driver for smoke tests and the throughput
/// bench. Adding `--batch` wraps the file's requests into a single
/// `batch` op instead (one line out, one combined line back — the
/// codec-amortised replay); the printed output is identical either way,
/// one response per request in request order.
fn client_main(args: Vec<String>) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut requests: Vec<String> = Vec::new();
    let mut batch_file: Option<String> = None;
    let mut batch_op = false;
    let mut retries = DEFAULT_CLIENT_RETRIES;
    let mut frame = FrameMode::Json;
    let mut stats = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => match iter.next() {
                Some(a) => addr = a,
                None => return usage("--addr expects HOST:PORT"),
            },
            "--retries" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => retries = n,
                None => return usage("--retries expects an integer"),
            },
            "--frame" => match iter.next().map(|v| v.parse()) {
                Some(Ok(mode)) => frame = mode,
                Some(Err(e)) => return usage(&e),
                None => return usage("--frame expects json or binary"),
            },
            "--send" => match iter.next() {
                Some(json) => requests.push(json),
                None => return usage("--send expects a JSON request line"),
            },
            "--requests" => match iter.next() {
                Some(path) => batch_file = Some(path),
                None => return usage("--requests expects a file of JSON request lines"),
            },
            "--batch" => batch_op = true,
            "--stats" => stats = true,
            other => return usage(&format!("unknown client flag {other}")),
        }
    }
    let from_file = batch_file.is_some();
    if batch_op && !from_file {
        return usage("--batch requires --requests FILE");
    }
    if stats && (!from_file || batch_op) {
        return usage("--stats requires --requests FILE without --batch");
    }
    if let Some(path) = batch_file {
        if !requests.is_empty() {
            return usage("--requests and --send are mutually exclusive");
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        requests.extend(
            text.lines()
                .filter(|l| !l.trim().is_empty())
                .map(str::to_string),
        );
    } else if requests.is_empty() {
        for line in std::io::stdin().lock().lines() {
            match line {
                Ok(l) if l.trim().is_empty() => {}
                Ok(l) => requests.push(l),
                Err(e) => {
                    eprintln!("stdin: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let client = Client { frame, retries };
    if batch_op {
        return client_batch(client, &addr, &requests);
    }
    if stats {
        return client_stats(client, &addr, &requests);
    }
    // Connects retry with bounded exponential backoff (a restoring server
    // replaying its WAL is the expected cause of a refused connect);
    // failures after the trace started are never retried — re-sending a
    // half-delivered trace would re-apply its mutations. `--frame binary`
    // negotiates the length-prefixed codec up front; the response lines
    // printed are byte-identical either way.
    let exchanged = if from_file {
        client
            .pipeline(&addr, &requests)
            .map(|stats| stats.responses)
    } else {
        client.exchange(&addr, &requests)
    };
    match exchanged {
        Ok(responses) => {
            for response in responses {
                println!("{response}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot exchange with {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `cosched tune`: replay the canned NPB-6 mutation/solve trace through
/// the `"auto"` autotuner and through the full `Portfolio`, print the
/// learned table, and report the member solves avoided at equal makespan.
/// With `--smoke`, additionally verify determinism (a second replay must
/// reproduce the first bit for bit), committed-phase quality (every
/// committed makespan equals the portfolio's), and the ≥ 2× solve
/// reduction — exiting non-zero on any violation (the CI self-test).
fn tune_main(args: Vec<String>) -> ExitCode {
    let mut spec = experiments::tune::TraceSpec::default();
    let mut smoke = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--solves" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => spec.solves = n,
                _ => return usage("--solves expects an integer >= 1"),
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(s) => spec.seed = s,
                None => return usage("--seed expects an integer"),
            },
            "--window" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(w) => spec.window = w,
                None => return usage("--window expects an integer >= 0 (0 = unbounded)"),
            },
            "--smoke" => smoke = true,
            other => return usage(&format!("unknown tune flag {other}")),
        }
    }

    let comparison = match experiments::tune::compare(&spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tune replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = comparison.auto.tuner_stats();
    println!(
        "# cosched tune — NPB-6 mutation/solve trace, {} solves, seed {}{}",
        spec.solves,
        spec.seed,
        if spec.window > 0 {
            format!(", window {}", spec.window)
        } else {
            String::new()
        }
    );
    println!(
        "# auto: {} explored + {} committed rounds, {} challenger wins",
        stats.explored, stats.committed, stats.challenger_wins
    );
    println!(
        "# member solves: auto {} vs always-Portfolio {} — {:.2}× fewer",
        comparison.auto_member_solves,
        comparison.portfolio_member_solves,
        comparison.solve_reduction()
    );
    println!(
        "# committed-phase makespans matching the full Portfolio bit-for-bit: {}/{}",
        comparison.committed_matches, comparison.committed_steps
    );
    println!("#\n# learned table:");
    print!(
        "{}",
        experiments::tune::format_table(&comparison.auto.session)
    );

    if !smoke {
        return ExitCode::SUCCESS;
    }
    let mut ok = true;
    if comparison.committed_matches != comparison.committed_steps {
        eprintln!(
            "smoke failed: {} of {} committed solves diverged from the portfolio",
            comparison.committed_steps - comparison.committed_matches,
            comparison.committed_steps
        );
        ok = false;
    }
    if comparison.solve_reduction() < 2.0 {
        eprintln!(
            "smoke failed: only {:.2}× fewer member solves (need >= 2×)",
            comparison.solve_reduction()
        );
        ok = false;
    }
    match experiments::tune::replay("auto", &spec) {
        Ok(second) => {
            let bits = |r: &experiments::tune::Replay| -> Vec<u64> {
                r.steps.iter().map(|s| s.makespan.to_bits()).collect()
            };
            if bits(&second) != bits(&comparison.auto) || second.tuner_stats() != stats {
                eprintln!("smoke failed: replay is not deterministic");
                ok = false;
            }
        }
        Err(e) => {
            eprintln!("smoke failed: second replay errored: {e}");
            ok = false;
        }
    }
    if ok {
        println!("# tune smoke ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `cosched exact`: prove an optimum by branch-and-bound. By default the
/// instance is a seeded random perfectly-parallel workload of `--n`
/// applications; `--nodes` / `--millis` bound the search and `--threads`
/// enables the work-stealing parallel variant. With `--smoke`, run the CI
/// self-test instead: on the fixed perfectly-parallel NPB-6 instance the
/// branch-and-bound answer must equal the `2^n` enumerator's bit for bit,
/// serial and 4-thread searches must agree bit for bit, the proof must
/// stay under a small node ceiling, and a zero-budget run must degrade to
/// `optimal=false` without erroring — exiting non-zero on any violation.
#[allow(deprecated)] // the enumerator is the smoke test's independent oracle
fn exact_main(args: Vec<String>) -> ExitCode {
    use coschedule::algo::{branch_and_bound, exact::exact_perfectly_parallel, BnbConfig};
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    let mut cfg = BnbConfig::default();
    let mut n = 100usize;
    let mut seed = 7u64;
    let mut cache_gb = 32.0;
    let mut procs = 256.0;
    let mut smoke = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--n" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => n = v,
                _ => return usage("--n expects an integer >= 1"),
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage("--seed expects an integer"),
            },
            "--nodes" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.max_nodes = v,
                None => return usage("--nodes expects an integer"),
            },
            "--millis" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.max_millis = Some(v),
                None => return usage("--millis expects an integer"),
            },
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => cfg.threads = v,
                _ => return usage("--threads expects an integer >= 1"),
            },
            "--cache-gb" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => cache_gb = v,
                None => return usage("--cache-gb expects a number"),
            },
            "--procs" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => procs = v,
                None => return usage("--procs expects a number"),
            },
            "--smoke" => smoke = true,
            other => return usage(&format!("unknown exact flag {other}")),
        }
    }

    if smoke {
        let apps = npb6(&[0.0]);
        let platform = Platform::taihulight();
        let reference = match exact_perfectly_parallel(&apps, &platform) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("smoke failed: enumerator errored: {e}");
                return ExitCode::FAILURE;
            }
        };
        let serial = match branch_and_bound(&apps, &platform, &BnbConfig::default()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("smoke failed: serial search errored: {e}");
                return ExitCode::FAILURE;
            }
        };
        let parallel =
            match branch_and_bound(&apps, &platform, &BnbConfig::default().with_threads(4)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("smoke failed: parallel search errored: {e}");
                    return ExitCode::FAILURE;
                }
            };
        let mut ok = true;
        if !serial.optimal || serial.makespan.to_bits() != reference.makespan.to_bits() {
            eprintln!(
                "smoke failed: serial {} (optimal={}) != enumerator {}",
                serial.makespan, serial.optimal, reference.makespan
            );
            ok = false;
        }
        if serial.partition != reference.partition || serial.cache != reference.cache {
            eprintln!("smoke failed: serial partition/fractions diverge from the enumerator");
            ok = false;
        }
        if !parallel.optimal
            || parallel.makespan.to_bits() != serial.makespan.to_bits()
            || parallel.partition != serial.partition
            || parallel.cache != serial.cache
        {
            eprintln!("smoke failed: parallel answer diverges from serial");
            ok = false;
        }
        // 2^6 = 64 subsets: the search must beat plain enumeration.
        const NODE_CEILING: u64 = 64;
        if serial.stats.nodes_expanded > NODE_CEILING {
            eprintln!(
                "smoke failed: {} nodes expanded (ceiling {NODE_CEILING})",
                serial.stats.nodes_expanded
            );
            ok = false;
        }
        match branch_and_bound(&apps, &platform, &BnbConfig::default().with_max_nodes(0)) {
            Ok(s) if !s.optimal && s.makespan.is_finite() => {}
            Ok(s) => {
                eprintln!(
                    "smoke failed: zero-budget run reported optimal={} makespan={}",
                    s.optimal, s.makespan
                );
                ok = false;
            }
            Err(e) => {
                eprintln!("smoke failed: zero-budget run errored instead of degrading: {e}");
                ok = false;
            }
        }
        println!(
            "# NPB-6 optimum {:.6e}, |IC| = {}, {} nodes ({} bound-pruned), enumerator agrees",
            serial.makespan,
            serial.partition.len(),
            serial.stats.nodes_expanded,
            serial.stats.nodes_pruned_bound,
        );
        return if ok {
            println!("# exact smoke ok");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let apps: Vec<coschedule::model::Application> = (0..n)
        .map(|i| {
            coschedule::model::Application::perfectly_parallel(
                format!("T{i}"),
                10f64.powf(rng.random_range(8.0..12.0)),
                rng.random_range(0.1..0.9),
                10f64.powf(rng.random_range(-4.0..-0.05)),
            )
        })
        .collect();
    let platform = Platform::taihulight()
        .with_processors(procs)
        .with_cache_size(cache_gb * 1e9);
    let start = Instant::now();
    let sol = match branch_and_bound(&apps, &platform, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("exact solve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = start.elapsed();
    println!(
        "# cosched exact — n = {n}, seed {seed}, {:.0} procs, {cache_gb} GB LLC, \
         budget {} nodes{}{}",
        procs,
        cfg.max_nodes,
        cfg.max_millis
            .map(|ms| format!(" / {ms} ms"))
            .unwrap_or_default(),
        if cfg.threads > 1 {
            format!(", {} threads", cfg.threads)
        } else {
            String::new()
        },
    );
    println!(
        "makespan {:.6e}  ({})",
        sol.makespan,
        if sol.optimal {
            "proven optimal"
        } else {
            "budget exhausted — best incumbent, optimal NOT proven"
        }
    );
    println!(
        "|IC| = {} of {n} applications share the cache",
        sol.partition.len()
    );
    println!(
        "{} nodes expanded, {} bound-pruned, {} dominance-pruned, {} leaves, {:.1} ms",
        sol.stats.nodes_expanded,
        sol.stats.nodes_pruned_bound,
        sol.stats.nodes_pruned_dominance,
        sol.stats.leaves_evaluated,
        wall.as_secs_f64() * 1e3
    );
    ExitCode::SUCCESS
}

/// `cosched cluster`: sample a seeded arrival stream from a rate profile,
/// replay it through the [`coschedule::cluster`] discrete-event simulator
/// (arrivals `add_app`, departures `remove_app`, a re-solve per event),
/// and print makespan / response-time percentiles / utilization. With
/// `--trace`, also print the event trace; with `--smoke`, verify
/// determinism (a rerun must reproduce trace, ops, and metrics byte for
/// byte), closed-loop sanity (every job completes, utilization ∈ (0, 1],
/// ordered percentiles), and the serve replay (the op log fed through
/// `cosched serve` at `--workers 1` and `--workers 4` must answer
/// byte-identically to a transport-free `handle_line` replay) — exiting
/// non-zero on any violation (the CI self-test).
fn cluster_main(args: Vec<String>) -> ExitCode {
    use experiments::cluster::{render_metrics, request_trace, run, ClusterSpec};
    let mut spec = ClusterSpec::default();
    let mut smoke = false;
    let mut print_trace = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--profile" => match iter.next().map(|v| v.parse()) {
                Some(Ok(kind)) => spec.profile = kind,
                Some(Err(e)) => return usage(&e),
                None => return usage("--profile expects constant, step, or bursty"),
            },
            "--rate" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(r) if r > 0.0 => spec.rate = r,
                _ => return usage("--rate expects a number > 0 (jobs per reference unit)"),
            },
            "--horizon" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(h) if h > 0.0 => spec.horizon = h,
                _ => return usage("--horizon expects a number > 0 (reference units)"),
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(s) => spec.seed = s,
                None => return usage("--seed expects an integer"),
            },
            "--solver" => match iter.next() {
                // Validated through the registry so a typo fails before
                // the simulation starts ("auto" is registered too).
                Some(name) => match solver::by_name(&name) {
                    Ok(s) => spec.solver = s.name(),
                    Err(e) => return usage(&e.to_string()),
                },
                None => return usage("--solver expects a name"),
            },
            "--window" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(w) => spec.window = w,
                None => return usage("--window expects an integer >= 0 (0 = unbounded)"),
            },
            "--trace" => print_trace = true,
            "--trace-out" => match iter.next() {
                Some(path) => trace_out = Some(PathBuf::from(path)),
                None => return usage("--trace-out expects a file path"),
            },
            "--smoke" => smoke = true,
            other => return usage(&format!("unknown cluster flag {other}")),
        }
    }
    if trace_out.is_some() {
        obs::set_enabled(true);
    }

    let first = match run(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cluster simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &trace_out {
        // The simulation runs on this thread; drain every ring (solver
        // spans may have landed on rayon-style helper threads too).
        let chunk = obs::drain();
        if let Err(e) = std::fs::write(path, obs::chrome_trace_json(&chunk.events)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "# trace: wrote {} events ({} dropped) to {}",
            chunk.events.len(),
            chunk.dropped,
            path.display()
        );
    }
    println!(
        "# cosched cluster — profile {}, rate {} jobs/unit, horizon {} units, seed {}, \
         solver {}{}",
        spec.profile.name(),
        spec.rate,
        spec.horizon,
        spec.seed,
        spec.solver,
        if spec.window > 0 {
            format!(", window {}", spec.window)
        } else {
            String::new()
        }
    );
    println!(
        "# reference unit: {:.6e} s (mean NPB-6 full-machine solo execution)",
        first.unit
    );
    if print_trace {
        for line in &first.outcome.trace {
            println!("{line}");
        }
    }
    print!("{}", render_metrics(&first));
    if !smoke {
        return ExitCode::SUCCESS;
    }

    let mut ok = true;
    let m = first.outcome.metrics;
    if m.jobs == 0 {
        eprintln!("smoke failed: the spec generated no jobs");
        ok = false;
    }
    if m.completed != m.jobs {
        eprintln!(
            "smoke failed: {} of {} jobs never completed",
            m.jobs - m.completed,
            m.jobs
        );
        ok = false;
    }
    if !(m.utilization > 0.0 && m.utilization <= 1.0 + 1e-12) {
        eprintln!("smoke failed: utilization {} outside (0, 1]", m.utilization);
        ok = false;
    }
    if !(m.p50_response <= m.p95_response && m.p95_response <= m.p99_response) {
        eprintln!("smoke failed: response percentiles are not ordered");
        ok = false;
    }
    match run(&spec) {
        Ok(second) => {
            if second.outcome.trace != first.outcome.trace
                || second.outcome.ops != first.outcome.ops
                || render_metrics(&second) != render_metrics(&first)
            {
                eprintln!("smoke failed: a rerun under the same seed diverged");
                ok = false;
            }
        }
        Err(e) => {
            eprintln!("smoke failed: rerun errored: {e}");
            ok = false;
        }
    }

    // Closed-loop serve replay: the simulator's op log, fed through the
    // real server and compared with the transport-free oracle, a
    // `handle_line` replay on one fresh state. A deterministic registry
    // solver must match it at any worker count ("auto" learns per shard
    // session, so at 4 workers only the per-response ok flags are
    // checked for it).
    let lines = request_trace(&first.outcome);
    let mut oracle_state = ServeState::new();
    let oracle: Vec<String> = lines
        .iter()
        .map(|line| handle_line(&mut oracle_state, line))
        .collect();
    match (
        cluster_serve_replay(&lines, 1),
        cluster_serve_replay(&lines, 4),
    ) {
        (Ok(solo), Ok(sharded)) => {
            let all_ok = |responses: &[String]| {
                responses.iter().all(|r| {
                    minijson::Json::parse(r)
                        .ok()
                        .and_then(|v| v.get("ok").and_then(minijson::Json::as_bool))
                        .unwrap_or(false)
                })
            };
            if !all_ok(&solo) || !all_ok(&sharded) {
                eprintln!("smoke failed: the serve replay rejected a request");
                ok = false;
            }
            if solo != oracle {
                eprintln!("smoke failed: the 1-worker serve replay diverged from handle_line");
                ok = false;
            }
            if spec.solver != "auto" && sharded != oracle {
                eprintln!("smoke failed: the 4-worker serve replay diverged from handle_line");
                ok = false;
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("smoke failed: serve replay: {e}");
            ok = false;
        }
    }
    if ok {
        println!(
            "# cluster smoke ok: {} jobs, {} re-solves, serve replay at --workers 1 and 4 \
             byte-identical to handle_line",
            m.jobs, m.resolves
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Replays `lines` through a loopback `cosched serve` at `workers` shards
/// and returns the responses (the trailing `shutdown` exchange is
/// dropped — it only stops the server).
fn cluster_serve_replay(lines: &[String], workers: usize) -> Result<Vec<String>, String> {
    let mut server = Server::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    server.config_mut().workers = workers;
    server.config_mut().allow_shutdown = true;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    let handle = std::thread::spawn(move || server.run());
    let mut script = lines.to_vec();
    script.push(r#"{"op":"shutdown"}"#.to_string());
    let mut responses = Client::default()
        .exchange(local, &script)
        .map_err(|e| e.to_string())?;
    responses.pop();
    match handle.join() {
        Ok(Ok(())) => Ok(responses),
        Ok(Err(e)) => Err(format!("server errored: {e}")),
        Err(_) => Err("server thread panicked".to_string()),
    }
}

/// Sends `requests` as one `batch` op and prints the unpacked
/// sub-responses, one per line in request order — indistinguishable from
/// the pipelined replay's output, but a single codec round-trip.
fn client_batch(client: Client, addr: &str, requests: &[String]) -> ExitCode {
    let mut subs = Vec::with_capacity(requests.len());
    for request in requests {
        match minijson::Json::parse(request) {
            Ok(v) => subs.push(v),
            Err(e) => {
                eprintln!("--batch requires parseable requests: {e} in {request}");
                return ExitCode::FAILURE;
            }
        }
    }
    let envelope = minijson::Json::obj([
        ("op", minijson::Json::from("batch")),
        ("requests", minijson::Json::Arr(subs)),
    ])
    .to_string();
    let combined = match client.exchange(addr, &[envelope]) {
        Ok(mut responses) => responses.remove(0),
        Err(e) => {
            eprintln!("cannot exchange with {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match minijson::Json::parse(&combined) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("unparseable batch response: {e}\n{combined}");
            return ExitCode::FAILURE;
        }
    };
    match parsed.get("responses").and_then(minijson::Json::as_array) {
        Some(responses) => {
            for response in responses {
                println!("{response}");
            }
            ExitCode::SUCCESS
        }
        None => {
            // The batch itself failed (e.g. old server); show the raw
            // response so the error is visible.
            println!("{combined}");
            ExitCode::FAILURE
        }
    }
}

/// `cosched client --requests FILE --stats`: the pipelined replay, plus a
/// client-observed latency/throughput report on stderr (responses still
/// print to stdout, so piping the replay is unaffected).
fn client_stats(client: Client, addr: &str, requests: &[String]) -> ExitCode {
    if requests.is_empty() {
        eprintln!("--stats: no requests to send");
        return ExitCode::FAILURE;
    }
    let stats = match client.pipeline(addr, requests) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("cannot exchange with {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for response in &stats.responses {
        println!("{response}");
    }
    let mut sorted = stats.latencies_ns.clone();
    sorted.sort_unstable();
    // Nearest-rank percentiles on the exact sample set — no
    // interpolation, so the reported figure is a latency that actually
    // happened.
    let pct = |p: f64| -> u64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    };
    let mean_ns = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
    let ms = |ns: f64| ns / 1e6;
    let wall_s = stats.wall_ns as f64 / 1e9;
    eprintln!(
        "# client stats: {} requests in {:.3} s ({:.0} req/s)",
        sorted.len(),
        wall_s,
        sorted.len() as f64 / wall_s.max(1e-9),
    );
    eprintln!(
        "# latency ms: mean {:.3} p50 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
        ms(mean_ns),
        ms(pct(50.0) as f64),
        ms(pct(95.0) as f64),
        ms(pct(99.0) as f64),
        ms(sorted[sorted.len() - 1] as f64),
    );
    ExitCode::SUCCESS
}
