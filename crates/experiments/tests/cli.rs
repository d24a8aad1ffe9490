//! The `cosched` binary end to end, driven as a child process: a durable
//! 4-worker server is killed with SIGKILL mid-trace and restarted with
//! `serve --restore`, and the remainder of the trace — `"auto"` tuner
//! decisions included — must answer byte-identically to an uninterrupted
//! in-process run. This is the only test of a real `kill -9` and of the
//! CLI's `--restore` path, which takes its worker count from the
//! directory's `meta.json`. The library- and socket-level cut-point
//! sweeps live in the root `tests/serve_recover.rs`.

use experiments::serve::{app_to_json, Client, Server};
use minijson::Json;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};

const COSCHED: &str = env!("CARGO_BIN_EXE_cosched");

/// A serve child that is SIGKILLed when dropped, so a failed assertion
/// never leaves a server running.
struct ServeChild(Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `cosched serve <args>` (split on whitespace) and returns it
/// with the address and the worker count from its "listening on ADDR
/// (…, N workers)" line.
fn spawn_serve(args: &str) -> (ServeChild, String, String) {
    let mut child = Command::new(COSCHED)
        .arg("serve")
        .args(args.split_whitespace())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn cosched serve");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let child = ServeChild(child);
    let mut line = String::new();
    reader.read_line(&mut line).expect("listening line");
    let words: Vec<&str> = line.split_whitespace().collect();
    assert_eq!(words.get(4), Some(&"on"), "unexpected banner {line:?}");
    let (addr, workers) = (words[5].to_string(), words[words.len() - 2].to_string());
    // Keep draining so later prints never block the child.
    std::thread::spawn(move || reader.read_to_string(&mut String::new()));
    (child, addr, workers)
}

/// A mutate/solve trace split at the crash point. Solves go through
/// `"auto"`, whose every decision depends on the solves before it, so a
/// byte-identical remainder proves the restored tuner histories match.
fn trace() -> (Vec<String>, Vec<String>) {
    let apps = Json::arr(workloads::npb::npb6(&[0.05]).iter().map(app_to_json));
    let create = format!(r#"{{"op":"create","apps":{apps}}}"#);
    let solve = |id: u64, seed: u64| {
        format!(r#"{{"op":"solve","id":{id},"solver":"auto","seed":{seed},"schedule":false}}"#)
    };
    let before = vec![
        create.clone(),
        solve(0, 1),
        r#"{"op":"mutate","id":0,"action":"remove_app","index":1}"#.to_string(),
        solve(0, 2),
        create,
        solve(1, 3),
    ];
    let after = vec![
        r#"{"op":"mutate","id":0,"action":"add_app","app":{"name":"HACC-io","work":3.1e10,"seq_fraction":0.02,"access_freq":0.61,"miss_rate_ref":4.2e-3}}"#.to_string(),
        solve(0, 4),
        solve(1, 5),
        r#"{"op":"solve","id":0,"solver":"DominantMinRatio","seed":42,"schedule":false}"#
            .to_string(),
        r#"{"op":"stats"}"#.to_string(),
        r#"{"op":"list"}"#.to_string(),
    ];
    (before, after)
}

#[test]
fn killed_server_restores_and_answers_the_remainder_byte_identically() {
    let (before, after) = trace();
    let shutdown = r#"{"op":"shutdown"}"#.to_string();

    // The uninterrupted reference: in process, same worker count.
    let mut server = Server::bind("127.0.0.1:0").expect("bind");
    server.config_mut().workers = 4;
    server.config_mut().allow_shutdown = true;
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    let full: Vec<String> = before
        .iter()
        .chain(&after)
        .chain([&shutdown])
        .cloned()
        .collect();
    let reference = Client::default().exchange(addr, &full).expect("reference");
    handle.join().expect("server thread").expect("server run");
    for response in &reference {
        assert!(response.starts_with(r#"{"ok":true"#), "{response}");
    }

    let dir = std::env::temp_dir().join(format!("cosched-cli-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");

    // A durable child, killed with SIGKILL after half the trace. Every
    // lock-step reply means its op is committed.
    let (child, addr, _) = spawn_serve(&format!(
        "--addr 127.0.0.1:0 --workers 4 --durability log --wal-dir {dir_arg}"
    ));
    let first = Client::default()
        .exchange(&*addr, &before)
        .expect("pre-crash");
    assert_eq!(first[..], reference[..before.len()]);
    drop(child); // SIGKILL

    // Restored without --workers: the layout comes from meta.json.
    let (mut child, addr, workers) = spawn_serve(&format!(
        "--addr 127.0.0.1:0 --restore {dir_arg} --allow-shutdown"
    ));
    assert_eq!(workers, "4", "restore must adopt the logged worker count");
    let patient = Client { retries: 10 };
    let rest = patient.exchange(&*addr, &after).expect("post-restore");
    for ((request, got), want) in after.iter().zip(&rest).zip(&reference[before.len()..]) {
        assert_eq!(got, want, "diverged after restore on {request}");
    }
    Client::default()
        .exchange(&*addr, &[shutdown])
        .expect("shutdown");
    assert!(child.0.wait().expect("exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn demo_prints_a_cat_deployment() {
    let out = Command::new(COSCHED)
        .arg("--demo")
        .output()
        .expect("run --demo");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        stdout.lines().any(|l| l.starts_with("pqos -e \"llc:")),
        "{stdout}"
    );
}

#[test]
fn malformed_flags_are_usage_errors() {
    for (args, message) in [
        ("serve --workers 0", "--workers expects an integer >= 1"),
        (
            "serve --durability",
            "--durability expects none, log, or fsync",
        ),
        ("serve --durability x", "unknown durability \"x\""),
        ("client --batch", "--batch requires --requests FILE"),
        ("cluster --rate 0", "--rate expects a number > 0"),
        ("exact --smoke", "unknown exact flag --smoke"),
        ("--procs many", "--procs expects a number"),
    ] {
        let out = Command::new(COSCHED)
            .args(args.split_whitespace())
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args} succeeded");
        assert!(
            stderr.starts_with(&format!("error: {message}")) && stderr.contains("usage: cosched"),
            "{args}: {stderr}"
        );
    }
}
