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
//! cosched serve --durability log --wal-dir DIR   # snapshot + write-ahead log
//! cosched serve --restore DIR               # recover a crashed server
//! cosched standby --dir DIR [--promote ADDR]  # warm replica tailing a primary
//! cosched standby --promote ADDR --primary ADDR --probe-fails 3  # auto-failover
//! cosched client --addr 127.0.0.1:7878 --send '{"op":"list"}'
//! cosched client --addr 127.0.0.1:7878      # requests from stdin
//! cosched client --requests trace.jsonl     # replay a file, pipelined
//! cosched client --requests trace.jsonl --batch  # …as one batch op
//! cosched client --retries N                # backoff on refused connects
//!
//! cosched tune [--solves N] [--seed S]      # replay a workload, print the
//!                                           # autotuner's learned table
//! cosched exact [--n N] [--nodes N] [--threads T]  # prove an optimum by
//!                                           # branch-and-bound
//! cosched cluster [--profile bursty] [--solver auto]  # arrivals/departures
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
//!
//! This binary only parses flags and delegates; its end-to-end behaviour
//! (a real `kill -9` and `--restore`, usage errors) is pinned by
//! `crates/experiments/tests/cli.rs`.

#![forbid(unsafe_code)]

use cachesim::clos::{ClosConfig, ClosTable};
use coschedule::eval::EvalStats;
use coschedule::model::Platform;
use coschedule::obs;
use coschedule::solver::{self, Instance, Portfolio, SolveCtx};
use experiments::appcsv::parse_applications;
use experiments::serve::protocol::{DEFAULT_SEED, DEFAULT_SOLVER};
use experiments::serve::{
    available_workers, wal, Client, Durability, Server, Standby, DEFAULT_CLIENT_RETRIES,
};
use std::fmt::Display;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};
use workloads::npb::npb6;

/// What a subcommand returns: `Err` is a usage error, printed with the
/// usage text; runtime failures print their own message and return
/// `Ok(ExitCode::FAILURE)`.
type CliResult = Result<ExitCode, String>;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let subcommand: fn(Args) -> CliResult = match args.first().map(String::as_str) {
        Some("serve") => serve_main,
        Some("standby") => standby_main,
        Some("client") => client_main,
        Some("tune") => tune_main,
        Some("exact") => exact_main,
        Some("cluster") => cluster_main,
        _ => return solve_main(Args(args.into_iter())).unwrap_or_else(|msg| usage(&msg)),
    };
    subcommand(Args(args.split_off(1).into_iter())).unwrap_or_else(|msg| usage(&msg))
}

/// A subcommand's arguments, consumed left to right.
struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The next flag (or positional argument), if any.
    fn flag(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The value after `flag`, parsed as `T`; a missing or malformed value
    /// is the usage error "`flag` expects `hint`".
    fn value<T: FromStr>(&mut self, flag: &str, hint: &str) -> Result<T, String> {
        self.value_if(flag, hint, |_| true)
    }

    /// [`Args::value`], also rejecting values `valid` refuses.
    fn value_if<T: FromStr>(
        &mut self,
        flag: &str,
        hint: &str,
        valid: impl FnOnce(&T) -> bool,
    ) -> Result<T, String> {
        self.0
            .next()
            .and_then(|v| v.parse().ok())
            .filter(valid)
            .ok_or_else(|| format!("{flag} expects {hint}"))
    }

    /// A value whose own `FromStr` error is the usage message (an enum
    /// such as `--durability`); only a missing value uses `hint`.
    fn choice<T: FromStr<Err = String>>(&mut self, flag: &str, hint: &str) -> Result<T, String> {
        self.value::<String>(flag, hint)?.parse()
    }

    /// A solver name, validated through the registry so a typo fails at
    /// startup instead of on every solve.
    fn solver(&mut self, flag: &str) -> Result<String, String> {
        let name = self.value::<String>(flag, "a name")?;
        solver::by_name(&name)
            .map(|s| s.name())
            .map_err(|e| e.to_string())
    }
}

/// Prints a runtime failure and exits non-zero (no usage text).
fn fail(msg: impl Display) -> CliResult {
    eprintln!("{msg}");
    Ok(ExitCode::FAILURE)
}

/// `cosched [apps.csv | --demo]`: solve one instance and print the
/// schedule plus its CAT deployment.
fn solve_main(mut args: Args) -> CliResult {
    let mut input: Option<String> = None;
    let mut procs = 256.0;
    let mut cache_gb = 32.0;
    let mut ways = 16usize;
    let mut seed = 0xC05u64;
    let mut strategy_name = "DominantMinRatio".to_string();
    let mut demo = false;
    let mut eval_stats = false;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--demo" => demo = true,
            "--eval-stats" => eval_stats = true,
            "--list-strategies" => {
                for name in solver::names() {
                    println!("{name:<22} {}", solver::describe(&name));
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--procs" => procs = args.value(&flag, "a number")?,
            "--cache-gb" => cache_gb = args.value(&flag, "a number")?,
            "--ways" => ways = args.value(&flag, "an integer")?,
            "--seed" => seed = args.value(&flag, "an integer")?,
            "--strategy" => strategy_name = args.value(&flag, "a name")?,
            path if !path.starts_with('-') => input = Some(path.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }

    // The structured error already carries the offending name and the
    // full registry — render it verbatim.
    let strategy = solver::by_name(&strategy_name).map_err(|e| e.to_string())?;

    let apps = if demo {
        npb6(&[0.05])
    } else {
        let path = input.ok_or("provide a CSV path or --demo")?;
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return fail(format_args!("cannot read {path}: {e}")),
        };
        match parse_applications(&text) {
            Ok(a) => a,
            Err(e) => return fail(format_args!("{path}: {e}")),
        }
    };

    let platform = Platform::taihulight()
        .with_processors(procs)
        .with_cache_size(cache_gb * 1e9);
    let napps = apps.len();
    let instance = match Instance::new(apps, platform) {
        Ok(i) => i,
        Err(e) => return fail(format_args!("invalid instance: {e}")),
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
        let report = match result {
            Ok(report) => report,
            Err(e) => return fail(format_args!("scheduling failed: {e}")),
        };
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
    } else {
        let result = strategy.solve(&instance, &mut ctx);
        solve_wall = solve_started.elapsed();
        match result {
            Ok(o) => {
                stats_rows.push((strategy.name(), o.eval_stats, solve_wall));
                o
            }
            Err(e) => return fail(format_args!("scheduling failed: {e}")),
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
    Ok(ExitCode::SUCCESS)
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
         [--trace] [--trace-out FILE] [--metrics-addr HOST:PORT] [--slow-ms N]\n\
         \x20      cosched standby --dir DIR [--interval-ms N] [--once] [--promote HOST:PORT] \
         [--primary HOST:PORT --probe-fails N] [--strategy NAME]\n\
         \x20      cosched client [--addr HOST:PORT] [--send JSON]... [--requests FILE] \
         [--batch] [--stats] [--retries N]\n\
         \x20      cosched tune [--solves N] [--seed S] [--window N]\n\
         \x20      cosched exact [--n N] [--seed S] [--nodes N] [--millis MS] [--threads T] \
         [--procs P] [--cache-gb G]\n\
         \x20      cosched cluster [--profile constant|step|bursty] [--rate R] [--horizon H] \
         [--seed S] [--solver NAME] [--window N] [--trace] [--trace-out FILE]\n\
         strategies: {}",
        solver::names().join(", ")
    );
    ExitCode::FAILURE
}

/// `cosched serve`: bind, print the address, serve until shutdown.
///
/// `--workers N` shards instances across N per-worker sessions, each
/// served by its own reactor thread. Default: the machine's available
/// parallelism.
fn serve_main(mut args: Args) -> CliResult {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut allow_shutdown = false;
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
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--addr" => addr = args.value(&flag, "HOST:PORT")?,
            "--workers" => {
                workers = Some(args.value_if(&flag, "an integer >= 1", |&n| n >= 1)?);
            }
            "--strategy" => strategy = Some(args.solver(&flag)?),
            "--allow-shutdown" => allow_shutdown = true,
            "--durability" => {
                durability = Some(args.choice(&flag, "none, log, or fsync")?);
            }
            "--wal-dir" => wal_dir = Some(args.value(&flag, "a directory")?),
            "--restore" => {
                wal_dir = Some(args.value(&flag, "a durability directory")?);
                restore = true;
            }
            "--snapshot-every" => {
                snapshot_every = Some(args.value_if(&flag, "an integer >= 1", |&n| n >= 1)?);
            }
            "--tuner-window" => {
                tuner_window = args.value(&flag, "an integer >= 0 (0 = unbounded)")?;
            }
            "--trace" => trace = true,
            "--trace-out" => trace_out = Some(args.value(&flag, "a file path")?),
            "--metrics-addr" => metrics_addr = Some(args.value(&flag, "HOST:PORT")?),
            "--slow-ms" => {
                slow_ms = Some(args.value(&flag, "an integer (milliseconds)")?);
            }
            other => return Err(format!("unknown serve flag {other}")),
        }
    }
    // A configured durability directory means "log" unless the level was
    // set explicitly; a restored server keeps logging by default.
    let durability = durability.unwrap_or(if wal_dir.is_some() {
        Durability::Log
    } else {
        Durability::None
    });
    let mut server = match Server::bind(&addr) {
        Ok(s) => s,
        Err(e) => return fail(format_args!("cannot bind {addr}: {e}")),
    };
    let workers = workers.unwrap_or_else(available_workers);
    let config = server.config_mut();
    config.allow_shutdown = allow_shutdown;
    config.workers = workers;
    config.durability = durability;
    config.wal_dir = wal_dir.clone();
    config.restore = restore;
    config.tuner_window = tuner_window;
    // Span recording is opt-in; without either flag the only tracing
    // cost anywhere is one relaxed atomic load per span site.
    if trace || trace_out.is_some() {
        obs::set_enabled(true);
    }
    config.trace = trace;
    config.trace_out = trace_out;
    config.metrics_addr = metrics_addr.clone();
    config.slow_ms = slow_ms;
    if let Some(n) = snapshot_every {
        config.snapshot_every = n;
    }
    if let Some(name) = strategy {
        config.default_solver = name;
    }
    let local = server.local_addr().expect("bound listener has an address");
    // On restore the effective worker count comes from the directory's
    // meta.json, not --workers.
    let workers = match (restore, &wal_dir) {
        (true, Some(dir)) => match wal::read_meta(dir) {
            Ok(Some(n)) => n,
            Ok(None) => {
                return fail(format_args!(
                    "cannot restore from {}: no meta.json — has a server ever \
                     logged to this directory?",
                    dir.display()
                ))
            }
            Err(e) => return fail(format_args!("cannot restore from {}: {e}", dir.display())),
        },
        _ => workers,
    };
    println!(
        "# cosched serve listening on {local} (line-delimited JSON, {workers} worker{})",
        if workers == 1 { "" } else { "s" }
    );
    if let Some(dir) = wal_dir.as_ref().filter(|_| durability.enabled()) {
        println!(
            "# durability {durability} in {}{}",
            dir.display(),
            if restore { ", restored" } else { "" }
        );
    }
    if let Some(metrics_at) = &metrics_addr {
        println!("# metrics exposition on {metrics_at}");
    }
    match server.run() {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => fail(format_args!("serve failed: {e}")),
    }
}

/// `cosched standby`: maintain a warm replica by tailing a primary's
/// durability directory (read-only — safe next to the live primary).
/// With `--promote ADDR`, a line (or EOF) on stdin triggers promotion:
/// one final catch-up, then the replicas serve on ADDR. `--once` does a
/// single catch-up pass and exits (scripting / tests).
fn standby_main(mut args: Args) -> CliResult {
    let mut dir: Option<PathBuf> = None;
    let mut interval = Duration::from_millis(200);
    let mut once = false;
    let mut promote_addr: Option<String> = None;
    let mut primary: Option<String> = None;
    let mut probe_fails: Option<u32> = None;
    let mut strategy: Option<String> = None;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--dir" => dir = Some(args.value(&flag, "a durability directory")?),
            "--interval-ms" => {
                interval = Duration::from_millis(args.value(&flag, "an integer")?);
            }
            "--once" => once = true,
            "--promote" => promote_addr = Some(args.value(&flag, "HOST:PORT")?),
            "--primary" => primary = Some(args.value(&flag, "HOST:PORT")?),
            "--probe-fails" => {
                probe_fails = Some(args.value_if(&flag, "an integer >= 1", |&n| n >= 1)?);
            }
            "--strategy" => strategy = Some(args.solver(&flag)?),
            other => return Err(format!("unknown standby flag {other}")),
        }
    }
    let dir = dir.ok_or("standby requires --dir")?;
    if probe_fails.is_some() && primary.is_none() {
        return Err("--probe-fails requires --primary HOST:PORT to probe".into());
    }
    if probe_fails.is_some() && promote_addr.is_none() {
        return Err("--probe-fails requires --promote HOST:PORT to serve on".into());
    }
    let default_solver = strategy.as_deref().unwrap_or(DEFAULT_SOLVER);
    let mut standby = match Standby::open(&dir, default_solver, DEFAULT_SEED) {
        Ok(s) => s,
        Err(e) => {
            return fail(format_args!(
                "cannot open standby over {}: {e}",
                dir.display()
            ))
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
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        if once {
            println!(
                "# standby pass done: {} live instance(s) across {} shard(s)",
                standby.instances(),
                standby.workers()
            );
            return Ok(ExitCode::SUCCESS);
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
                return fail(format_args!("final catch-up failed: {e}"));
            }
            let server = match Server::bind(&addr) {
                Ok(s) => s,
                Err(e) => return fail(format_args!("cannot bind {addr}: {e}")),
            };
            let local = server.local_addr().expect("bound listener has an address");
            let states = standby.promote();
            println!(
                "# promoted: serving on {local} ({} worker{})",
                states.len(),
                if states.len() == 1 { "" } else { "s" }
            );
            return match server.run_with_states(states) {
                Ok(()) => Ok(ExitCode::SUCCESS),
                Err(e) => fail(format_args!("promoted server failed: {e}")),
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
/// request order) — the trace driver for scripts and the throughput
/// bench. Adding `--batch` wraps the file's requests into a single
/// `batch` op instead (one line out, one combined line back — the
/// codec-amortised replay); the printed output is identical either way,
/// one response per request in request order.
fn client_main(mut args: Args) -> CliResult {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut requests: Vec<String> = Vec::new();
    let mut batch_file: Option<String> = None;
    let mut batch_op = false;
    let mut retries = DEFAULT_CLIENT_RETRIES;
    let mut stats = false;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--addr" => addr = args.value(&flag, "HOST:PORT")?,
            "--retries" => retries = args.value(&flag, "an integer")?,
            "--send" => requests.push(args.value(&flag, "a JSON request line")?),
            "--requests" => {
                batch_file = Some(args.value(&flag, "a file of JSON request lines")?);
            }
            "--batch" => batch_op = true,
            "--stats" => stats = true,
            other => return Err(format!("unknown client flag {other}")),
        }
    }
    let from_file = batch_file.is_some();
    if batch_op && !from_file {
        return Err("--batch requires --requests FILE".into());
    }
    if stats && (!from_file || batch_op) {
        return Err("--stats requires --requests FILE without --batch".into());
    }
    if let Some(path) = batch_file {
        if !requests.is_empty() {
            return Err("--requests and --send are mutually exclusive".into());
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return fail(format_args!("cannot read {path}: {e}")),
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
                Err(e) => return fail(format_args!("stdin: {e}")),
            }
        }
    }
    let client = Client { retries };
    if batch_op {
        return Ok(client_batch(client, &addr, &requests));
    }
    if stats {
        return Ok(client_stats(client, &addr, &requests));
    }
    // Connects retry with bounded exponential backoff (a restoring server
    // replaying its WAL is the expected cause of a refused connect);
    // failures after the trace started are never retried — re-sending a
    // half-delivered trace would re-apply its mutations.
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
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => fail(format_args!("cannot exchange with {addr}: {e}")),
    }
}

/// `cosched tune`: replay the canned NPB-6 mutation/solve trace through
/// the `"auto"` autotuner and through the full `Portfolio`, print the
/// learned table, and report the member solves avoided at equal makespan.
fn tune_main(mut args: Args) -> CliResult {
    let mut spec = experiments::tune::TraceSpec::default();
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--solves" => spec.solves = args.value_if(&flag, "an integer >= 1", |&n| n >= 1)?,
            "--seed" => spec.seed = args.value(&flag, "an integer")?,
            "--window" => spec.window = args.value(&flag, "an integer >= 0 (0 = unbounded)")?,
            other => return Err(format!("unknown tune flag {other}")),
        }
    }

    let comparison = match experiments::tune::compare(&spec) {
        Ok(c) => c,
        Err(e) => return fail(format_args!("tune replay failed: {e}")),
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
    Ok(ExitCode::SUCCESS)
}

/// `cosched exact`: prove an optimum by branch-and-bound. The instance is
/// a seeded random perfectly-parallel workload of `--n` applications;
/// `--nodes` / `--millis` bound the search and `--threads` sets how many
/// workers share it (a completed search proves the same optimum at any
/// count).
fn exact_main(mut args: Args) -> CliResult {
    use coschedule::algo::{branch_and_bound, BnbConfig};
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    let mut cfg = BnbConfig::default();
    let mut n = 100usize;
    let mut seed = 7u64;
    let mut cache_gb = 32.0;
    let mut procs = 256.0;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--n" => n = args.value_if(&flag, "an integer >= 1", |&v| v >= 1)?,
            "--seed" => seed = args.value(&flag, "an integer")?,
            "--nodes" => cfg.max_nodes = args.value(&flag, "an integer")?,
            "--millis" => cfg.max_millis = Some(args.value(&flag, "an integer")?),
            "--threads" => cfg.threads = args.value_if(&flag, "an integer >= 1", |&v| v >= 1)?,
            "--cache-gb" => cache_gb = args.value(&flag, "a number")?,
            "--procs" => procs = args.value(&flag, "a number")?,
            other => return Err(format!("unknown exact flag {other}")),
        }
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
    let sol = match Instance::new(apps, platform).and_then(|inst| branch_and_bound(&inst, &cfg)) {
        Ok(s) => s,
        Err(e) => return fail(format_args!("exact solve failed: {e}")),
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
    Ok(ExitCode::SUCCESS)
}

/// `cosched cluster`: sample a seeded arrival stream from a rate profile,
/// replay it through the [`coschedule::cluster`] discrete-event simulator
/// (arrivals `add_app`, departures `remove_app`, a re-solve per event),
/// and print makespan / response-time percentiles / utilization. With
/// `--trace`, also print the event trace.
fn cluster_main(mut args: Args) -> CliResult {
    use experiments::cluster::{render_metrics, run, ClusterSpec};
    let mut spec = ClusterSpec::default();
    let mut print_trace = false;
    let mut trace_out: Option<PathBuf> = None;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--profile" => spec.profile = args.choice(&flag, "constant, step, or bursty")?,
            "--rate" => {
                let hint = "a number > 0 (jobs per reference unit)";
                spec.rate = args.value_if(&flag, hint, |&r| r > 0.0)?;
            }
            "--horizon" => {
                let hint = "a number > 0 (reference units)";
                spec.horizon = args.value_if(&flag, hint, |&h| h > 0.0)?;
            }
            "--seed" => spec.seed = args.value(&flag, "an integer")?,
            // "auto" is registered too.
            "--solver" => spec.solver = args.solver(&flag)?,
            "--window" => spec.window = args.value(&flag, "an integer >= 0 (0 = unbounded)")?,
            "--trace" => print_trace = true,
            "--trace-out" => trace_out = Some(args.value(&flag, "a file path")?),
            other => return Err(format!("unknown cluster flag {other}")),
        }
    }
    if trace_out.is_some() {
        obs::set_enabled(true);
    }

    let result = match run(&spec) {
        Ok(r) => r,
        Err(e) => return fail(format_args!("cluster simulation failed: {e}")),
    };
    if let Some(path) = &trace_out {
        // The simulation runs on this thread; drain every ring (solver
        // spans may have landed on rayon-style helper threads too).
        let chunk = obs::drain();
        if let Err(e) = std::fs::write(path, obs::chrome_trace_json(&chunk.events)) {
            return fail(format_args!("cannot write {}: {e}", path.display()));
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
        result.unit
    );
    if print_trace {
        for line in &result.outcome.trace {
            println!("{line}");
        }
    }
    print!("{}", render_metrics(&result));
    Ok(ExitCode::SUCCESS)
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
