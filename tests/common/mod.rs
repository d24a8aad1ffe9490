//! Shared support for the serve integration tests: loopback servers, the
//! transport-free `handle_line` oracle they are compared against, and
//! the perturbed-NPB trace generators used by the concurrency, loopback,
//! and recovery suites.

// Each integration test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use experiments::serve::{app_to_json, handle_line, Client, ServeConfig, ServeState, Server};
use minijson::Json;
use std::net::SocketAddr;
use std::thread::JoinHandle;

/// The server thread's handle; [`shutdown`] joins it and asserts a clean
/// exit.
pub type ServerHandle = JoinHandle<std::io::Result<()>>;

/// Binds `127.0.0.1:0` with `allow_shutdown`, applies `configure` to the
/// [`ServeConfig`] (worker count, durability, …), and serves on a thread.
pub fn spawn_server_with(configure: impl FnOnce(&mut ServeConfig)) -> (SocketAddr, ServerHandle) {
    let mut server = Server::bind("127.0.0.1:0").expect("bind 127.0.0.1:0");
    server.config_mut().allow_shutdown = true;
    configure(server.config_mut());
    let addr = server.local_addr().expect("bound listener has an address");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// [`spawn_server_with`] setting only the worker count.
pub fn spawn_server(workers: usize) -> (SocketAddr, ServerHandle) {
    spawn_server_with(|config| config.workers = workers)
}

/// Sends `shutdown` and joins the server thread, asserting it exits
/// cleanly.
pub fn shutdown(addr: SocketAddr, handle: ServerHandle) {
    exchange(addr, &[r#"{"op":"shutdown"}"#.to_string()]).expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

/// Lock-step exchange with the default [`Client`] (JSON lines).
pub fn exchange(addr: SocketAddr, requests: &[String]) -> std::io::Result<Vec<String>> {
    Client::default().exchange(addr, requests)
}

/// The byte-identity oracle: `requests` answered in order by
/// [`handle_line`] on one fresh [`ServeState`] that honours `shutdown`
/// — no sockets, no router, no shards.
pub fn handle_line_replay(requests: &[String]) -> Vec<String> {
    let mut state = ServeState::new();
    state.allow_shutdown = true;
    requests
        .iter()
        .map(|line| handle_line(&mut state, line))
        .collect()
}

/// `true` for the `metrics` op, whose per-shard rows and reactor
/// network counters differ from the oracle's by design.
pub fn is_metrics(request: &str) -> bool {
    Json::parse(request)
        .ok()
        .and_then(|v| v.get("op").and_then(Json::as_str).map(|op| op == "metrics"))
        .unwrap_or(false)
}

/// Asserts that every non-`metrics` response equals the oracle's,
/// naming the request on a mismatch.
pub fn assert_matches_oracle(requests: &[String], responses: &[String], label: &str) {
    let oracle = handle_line_replay(requests);
    assert_eq!(responses.len(), oracle.len(), "{label}: response count");
    for ((request, got), want) in requests.iter().zip(responses).zip(&oracle) {
        if !is_metrics(request) {
            assert_eq!(got, want, "{label}: diverged from handle_line on {request}");
        }
    }
}

/// Runs `script` lock-step against a fresh `workers`-shard server and
/// returns the response lines. The script must end with `shutdown` (the
/// server thread is joined).
pub fn run_script(workers: usize, script: &[String]) -> Vec<String> {
    let (addr, handle) = spawn_server(workers);
    let responses = exchange(addr, script).expect("loopback exchange");
    handle
        .join()
        .expect("server thread")
        .expect("server run result");
    responses
}

/// Canonicalizes a response line for run-to-run comparisons by zeroing
/// the timing-dependent fields of the `metrics` response:
/// `reactor_wakeups` on each shard row counts `epoll_wait` returns, and
/// readiness batching legitimately differs between two otherwise
/// identical runs; the `latency_p*_ns` percentiles (per shard and
/// merged) are wall-clock measurements. `latency_count` is *not*
/// masked — for a lock-step script it must match the deterministic
/// request count. Every other byte must still match.
pub fn mask_reactor_wakeups(response: &str) -> String {
    let Ok(mut v) = Json::parse(response) else {
        return response.to_string();
    };
    let mask_latency = |row: &mut Json| {
        for key in ["latency_p50_ns", "latency_p95_ns", "latency_p99_ns"] {
            if let Some(field) = get_mut(row, key) {
                *field = Json::from(0u64);
            }
        }
    };
    mask_latency(&mut v);
    let Some(Json::Arr(shards)) = get_mut(&mut v, "shards") else {
        return response.to_string();
    };
    for row in shards {
        if let Some(wakeups) = get_mut(row, "reactor_wakeups") {
            *wakeups = Json::from(0u64);
        }
        mask_latency(row);
    }
    v.to_string()
}

fn get_mut<'a>(v: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match v {
        Json::Obj(pairs) => pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, value)| value),
        _ => None,
    }
}

/// Client `k`'s create request: NPB-6 with the work vector perturbed per
/// client, so the instances (and their makespans) are all distinct.
pub fn create_request(k: usize) -> String {
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

/// Client `k`'s post-create subtrace against its own instance `id`:
/// update/add/remove mutations interleaved with solves (different
/// solvers and seeds per client, memo and error cases included).
pub fn subtrace(k: usize, id: u64) -> Vec<String> {
    let solvers = [
        "DominantMinRatio",
        "DominantRefined",
        "Fair",
        "RandomPart",
        "DominantRevMaxRatio",
        "AllProcCache",
    ];
    let solver = solvers[k % solvers.len()];
    let mut lines = Vec::new();
    for round in 0..3u64 {
        // A real profile change every round (never a memoizable repeat).
        lines.push(format!(
            r#"{{"op":"update_app","id":{id},"index":{index},"app":{{"name":"W{k}r{round}","work":{work},"seq_fraction":0.04,"access_freq":0.61,"miss_rate_ref":4.2e-3}}}}"#,
            index = round % 3,
            work = 3.1e10 * (1.0 + 0.003 * (k as f64 + 1.0) * (round as f64 + 1.0)),
        ));
        lines.push(format!(
            r#"{{"op":"solve","id":{id},"solver":"{solver}","seed":{seed},"schedule":{schedule}}}"#,
            seed = 40 + round,
            schedule = round % 2 == 0,
        ));
    }
    lines.push(format!(
        r#"{{"op":"mutate","id":{id},"action":"add_app","app":{{"name":"late{k}","work":2.2e10,"seq_fraction":0.03,"access_freq":0.55,"miss_rate_ref":1.3e-3}}}}"#
    ));
    // An error mid-trace: out-of-range index (the response echoes the id
    // and must replay identically).
    lines.push(format!(r#"{{"op":"remove_app","id":{id},"index":99}}"#));
    lines.push(format!(r#"{{"op":"remove_app","id":{id},"index":1}}"#));
    lines.push(format!(
        r#"{{"op":"solve","id":{id},"solver":"{solver}","seed":77}}"#
    ));
    // Same revision, solver, seed: the memo tier must answer.
    lines.push(format!(
        r#"{{"op":"solve","id":{id},"solver":"{solver}","seed":77}}"#
    ));
    lines
}
