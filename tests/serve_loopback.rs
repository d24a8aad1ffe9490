//! Serve↔client loopback smoke: a real `TcpListener` on `127.0.0.1:0`, the
//! canned create → mutate → solve → stats → list → metrics script over
//! actual sockets, and determinism checks — two fresh servers given the
//! same request lines must produce byte-identical response lines (the
//! solve responses carry round-trip-exact makespans, so this pins
//! numerical determinism end to end, through the wire format), and the
//! server at any worker count must answer every non-`metrics` request
//! with the same bytes as a transport-free `handle_line` replay.

mod common;

use common::{
    assert_matches_oracle, handle_line_replay, mask_reactor_wakeups, run_script, spawn_server,
};
use experiments::serve::reactor::MAX_LINE_LEN;
use experiments::serve::{app_to_json, smoke_script, Client, Server};
use minijson::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn loopback_round_trip_is_ok_and_deterministic() {
    let script = smoke_script();
    let responses = run_script(1, &script);
    assert_eq!(responses.len(), script.len());
    for (request, response) in script.iter().zip(&responses) {
        let v = Json::parse(response).unwrap_or_else(|e| panic!("{response}: {e}"));
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {request} answered {response}"
        );
    }

    // Fixed seed ⇒ byte-identical responses from a fresh server (modulo
    // the wall-clock latency percentiles in `metrics`; see the mask).
    let again = run_script(1, &script);
    let masked = |lines: &[String]| {
        lines
            .iter()
            .map(|r| mask_reactor_wakeups(r))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        masked(&responses),
        masked(&again),
        "same script, same seed, same bytes"
    );

    // Spot-check the solve responses carry the expected shape and modes.
    let first_solve = Json::parse(&responses[1]).unwrap();
    assert_eq!(
        first_solve.get("mode").and_then(Json::as_str),
        Some("cold"),
        "first solve of a fresh instance is cold"
    );
    assert!(first_solve.get("makespan").and_then(Json::as_f64).unwrap() > 0.0);
    let second_solve = Json::parse(&responses[3]).unwrap();
    assert_eq!(
        second_solve.get("mode").and_then(Json::as_str),
        Some("incremental"),
        "post-mutation solve reuses the patched state"
    );
    let stats = Json::parse(&responses[6]).unwrap();
    assert_eq!(stats.get("solves").and_then(Json::as_u64), Some(3));
    assert_eq!(
        stats.get("incremental_solves").and_then(Json::as_u64),
        Some(2)
    );
}

#[test]
fn sharded_smoke_matches_single_worker_byte_for_byte() {
    // The identity contract of the server: a fixed lock-step trace gets
    // the responses of one session's `handle_line` replay at any worker
    // count. Only `metrics` is exempt — it reports one row per shard and
    // the reactors' network counters by design.
    let script = smoke_script();
    let single = run_script(1, &script);
    let sharded = run_script(4, &script);
    assert_matches_oracle(&script, &single, "workers=1");
    assert_matches_oracle(&script, &sharded, "workers=4");
    // And the sharded server is deterministic across restarts too — up
    // to the one timing-dependent counter the reactor reports
    // (`reactor_wakeups`; see `mask_reactor_wakeups`).
    let masked = |responses: &[String]| -> Vec<String> {
        responses.iter().map(|r| mask_reactor_wakeups(r)).collect()
    };
    assert_eq!(
        masked(&sharded),
        masked(&run_script(4, &script)),
        "sharded restarts differ"
    );
    for (request, four) in script.iter().zip(&sharded) {
        if common::is_metrics(request) {
            let v = Json::parse(four).unwrap();
            assert_eq!(v.get("workers").and_then(Json::as_u64), Some(4), "{four}");
            assert_eq!(
                v.get("shards").and_then(Json::as_array).unwrap().len(),
                4,
                "{four}"
            );
        }
    }
}

#[test]
fn pipelined_client_gets_in_order_responses_from_the_sharded_server() {
    // The multiplexing path: every request of the script is in flight on
    // one connection at once; the server's per-connection writer must
    // still deliver responses in request order, byte-identical to the
    // lock-step oracle.
    let script = smoke_script();
    let lock_step = handle_line_replay(&script);

    let mut server = Server::bind("127.0.0.1:0").expect("bind 127.0.0.1:0");
    server.config_mut().allow_shutdown = true;
    server.config_mut().workers = 4;
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());
    let piped = Client::default()
        .pipeline(addr, &script)
        .expect("pipelined exchange")
        .responses;
    handle.join().expect("server thread").expect("server run");

    assert_eq!(piped.len(), script.len());
    // The pipelined trace is NOT lock-step, so ops with cross-instance
    // visibility (`stats`, `list`, `metrics`) may legitimately observe
    // requests that are still in flight; the per-instance ops must match
    // exactly.
    for ((request, a), b) in script.iter().zip(&lock_step).zip(&piped) {
        let op = Json::parse(request)
            .unwrap()
            .get("op")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        if matches!(op.as_str(), "stats" | "list" | "metrics") {
            assert_eq!(
                Json::parse(b).unwrap().get("ok").and_then(Json::as_bool),
                Some(true),
                "{b}"
            );
            continue;
        }
        assert_eq!(a, b, "pipelined {op} diverged from lock-step");
    }
}

#[test]
fn loopback_solve_matches_direct_solver_bit_exactly() {
    use coschedule::model::Platform;
    use coschedule::solver::{self, Instance, SolveCtx};

    let create = Json::obj([
        ("op", Json::from("create")),
        (
            "apps",
            Json::arr(
                workloads::npb::npb6(&[0.05])
                    .iter()
                    .map(experiments::serve::app_to_json),
            ),
        ),
    ])
    .to_string();
    let script = vec![
        create,
        r#"{"op":"solve","id":0,"solver":"DominantRefined","seed":42,"schedule":false}"#.into(),
        r#"{"op":"shutdown"}"#.into(),
    ];
    let responses = run_script(1, &script);
    let served = Json::parse(&responses[1]).unwrap();
    let direct = solver::by_name("DominantRefined")
        .unwrap()
        .solve(
            &Instance::new(workloads::npb::npb6(&[0.05]), Platform::taihulight()).unwrap(),
            &mut SolveCtx::seeded(42),
        )
        .unwrap();
    assert_eq!(
        served
            .get("makespan")
            .and_then(Json::as_f64)
            .unwrap()
            .to_bits(),
        direct.makespan.to_bits(),
        "makespan must cross the wire bit-exactly"
    );
    // Which, transitively, is the eval_golden.rs pinned constant.
    assert_eq!(direct.makespan.to_bits(), 0x42089ba6c3bb50ee);
    // The sharded server serves the same bits.
    assert_eq!(responses, run_script(4, &script));
}

#[test]
fn batch_op_is_byte_identical_to_sequential_exchanges_at_any_worker_count() {
    // The same requests, once as individual lines and once wrapped in a
    // single `batch` envelope: the combined response must embed exactly
    // the bytes the sequential exchange produced — through real sockets,
    // at one and four workers (the router flattens the batch by routing
    // each sub-request lock-step).
    let script: Vec<String> = smoke_script()
        .into_iter()
        .filter(|line| {
            // `metrics` is worker-count-dependent by design; `shutdown`
            // must stay a top-level line so the server exits.
            let op = Json::parse(line)
                .unwrap()
                .get("op")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            !matches!(op.as_str(), "metrics" | "shutdown")
        })
        .collect();
    let envelope = Json::obj([
        ("op", Json::from("batch")),
        (
            "requests",
            Json::Arr(script.iter().map(|l| Json::parse(l).unwrap()).collect()),
        ),
    ])
    .to_string();
    let batch_script = vec![envelope, r#"{"op":"shutdown"}"#.to_string()];

    let mut sequential_script = script.clone();
    sequential_script.push(r#"{"op":"shutdown"}"#.to_string());

    for workers in [1, 4] {
        let sequential = run_script(workers, &sequential_script);
        let batched = run_script(workers, &batch_script);
        let combined = Json::parse(&batched[0]).unwrap();
        assert_eq!(combined.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            combined.get("count").and_then(Json::as_u64),
            Some(script.len() as u64),
            "workers={workers}"
        );
        let responses = combined.get("responses").and_then(Json::as_array).unwrap();
        for (i, (embedded, direct)) in responses.iter().zip(&sequential).enumerate() {
            assert_eq!(
                &embedded.to_string(),
                direct,
                "workers={workers}: batch slot {i} diverged from the sequential exchange"
            );
        }
    }

    // And both agree with the transport-free oracle on the whole batch.
    let oracle = handle_line_replay(&batch_script);
    for workers in [1, 4] {
        assert_eq!(
            run_script(workers, &batch_script)[0],
            oracle[0],
            "workers={workers}: batch diverged from handle_line"
        );
    }
}

/// The reactor's socket read granularity (16 KiB per `read`).
const READ_CHUNK: usize = 16 * 1024;

/// JSON lines torn at arbitrary byte boundaries reassemble exactly: a
/// `create` spanning more than four socket reads, pieces of one to many
/// KiB, app names whose 2-, 3- and 4-byte UTF-8 code points the pieces
/// tear, a `\r\n` terminator split across two writes, and several lines
/// in one write all answer byte-identically to a `handle_line` replay.
#[test]
fn torn_json_lines_reassemble_byte_identically() {
    let npb = workloads::npb::npb6(&[0.05]);
    let apps = (0..800).map(|k| {
        let mut app = npb[k % npb.len()].clone();
        app.name = format!("{}-é€𝄞-{k}", app.name);
        app.work *= 1.0 + 1e-3 * k as f64;
        app_to_json(&app)
    });
    let create = Json::obj([("op", Json::from("create")), ("apps", Json::arr(apps))]).to_string();
    assert!(
        create.len() > 4 * READ_CHUNK,
        "create is {} bytes",
        create.len()
    );
    let requests: Vec<String> = vec![
        create,
        r#"{"op":"solve","id":0,"seed":3,"schedule":false}"#.into(),
        r#"{"op":"update_app","id":0,"index":5,"app":{"name":"X","work":3e10,"seq_fraction":0.04,"access_freq":0.61,"miss_rate_ref":4.2e-3}}"#.into(),
        r#"{"op":"solve","id":0,"seed":3}"#.into(),
        r#"{"op":"stats"}"#.into(),
        r#"{"op":"list"}"#.into(),
        r#"{"op":"shutdown"}"#.into(),
    ];
    let oracle = handle_line_replay(&requests);

    // Write 1..n: the create and the first solve, torn at pseudo-random
    // boundaries, ending on the solve's `\r`. Write n+1: that `\n` and
    // the next four lines whole. Then the shutdown line in two pieces.
    let head = format!("{}\n{}\r", requests[0], requests[1]);
    let middle = format!("\n{}\n", requests[2..6].join("\n"));
    let tail = format!("{}\n", requests[6]);
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % bound as u64) as usize + 1
    };
    let mut writes: Vec<&[u8]> = Vec::new();
    let mut rest = head.as_bytes();
    let mut torn_code_points = 0;
    while !rest.is_empty() {
        // Mostly sub-chunk pieces, now and then one larger than a read.
        let bound = if next(4) == 1 { 2 * READ_CHUNK } else { 4096 };
        let (piece, tail) = rest.split_at(next(bound).min(rest.len()));
        writes.push(piece);
        rest = tail;
        if !head.is_char_boundary(head.len() - rest.len()) {
            torn_code_points += 1;
        }
    }
    assert!(torn_code_points > 0, "no piece boundary tears a code point");
    writes.push(middle.as_bytes());
    let cut = next(tail.len() - 1);
    writes.push(&tail.as_bytes()[..cut]);
    writes.push(&tail.as_bytes()[cut..]);

    for workers in [1, 2] {
        let (addr, handle) = spawn_server(workers);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        for piece in &writes {
            stream.write_all(piece).expect("write piece");
            // Let each piece arrive as its own read.
            std::thread::sleep(Duration::from_micros(300));
        }
        let mut reader = BufReader::new(stream);
        let replies: Vec<String> = (0..requests.len())
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read reply");
                line.trim_end_matches('\n').to_string()
            })
            .collect();
        handle.join().expect("server thread").expect("server run");
        assert_eq!(replies, oracle, "workers={workers}");
    }
}

/// A peer that sends more than `MAX_LINE_LEN` bytes without a `\n` gets
/// one error line and then EOF: the line is refused, not buffered
/// without bound. The reactor keeps serving its other connections.
#[test]
fn an_unterminated_line_past_the_cap_is_refused_and_closed() {
    let (addr, handle) = spawn_server(1);
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A server that buffers forever never answers: fail, do not hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    stream
        .write_all(&vec![b'x'; MAX_LINE_LEN + 1])
        .expect("write the over-long line");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read the refusal");
    assert_eq!(
        line,
        "{\"ok\":false,\"error\":\"request line exceeds 16777216 bytes\"}\n"
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("read EOF"),
        0,
        "the connection must close after the refusal, got {line:?}"
    );

    let script = smoke_script();
    let responses = Client::default()
        .exchange(addr, &script)
        .expect("second connection");
    handle.join().expect("server thread").expect("server run");
    assert_matches_oracle(&script, &responses, "after a refused line");
}
