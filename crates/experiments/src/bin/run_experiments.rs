//! CLI driving the figure/table regeneration.
//!
//! ```text
//! run_experiments list
//! run_experiments all [--reps N] [--out DIR]
//! run_experiments fig1 fig5 table2 [--reps N] [--out DIR]
//! ```

#![forbid(unsafe_code)]

use experiments::{registry, ExpConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: run_experiments <list|all|ID...> [--reps N] [--out DIR] [--plot]");
        return ExitCode::FAILURE;
    }

    let mut ids: Vec<String> = Vec::new();
    let mut cfg = ExpConfig::default();
    let mut out_dir = PathBuf::from("results");
    let mut plot = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--plot" => plot = true,
            "--reps" => {
                let Some(v) = iter.next().and_then(|s| s.parse::<u64>().ok()) else {
                    eprintln!("--reps expects a positive integer");
                    return ExitCode::FAILURE;
                };
                cfg = cfg.with_reps(v);
            }
            "--out" => {
                let Some(v) = iter.next() else {
                    eprintln!("--out expects a directory");
                    return ExitCode::FAILURE;
                };
                out_dir = PathBuf::from(v);
            }
            other => ids.push(other.to_string()),
        }
    }

    if ids.iter().any(|i| i == "list") {
        for e in registry() {
            println!("{:<12} {:<18} {}", e.id, e.paper_ref, e.title);
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<_> = if ids.iter().any(|i| i == "all") {
        registry()
    } else {
        let mut v = Vec::new();
        for id in &ids {
            match experiments::registry::find(id) {
                Some(e) => v.push(e),
                None => {
                    eprintln!("unknown experiment '{id}' (try 'list')");
                    return ExitCode::FAILURE;
                }
            }
        }
        v
    };

    for e in selected {
        let t0 = std::time::Instant::now();
        println!("== {} ({}) — {}", e.id, e.paper_ref, e.title);
        let fig = (e.run)(&cfg);
        match fig.write_csv(&out_dir) {
            Ok(path) => println!("   wrote {}", path.display()),
            Err(err) => {
                eprintln!("   failed to write CSV: {err}");
                return ExitCode::FAILURE;
            }
        }
        println!("{}", fig.render_table());
        if plot {
            println!("{}", fig.render_ascii_plot(72, 20));
        }
        println!("   ({:.1?})\n", t0.elapsed());
    }
    ExitCode::SUCCESS
}
