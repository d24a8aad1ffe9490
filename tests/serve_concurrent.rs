//! The server's identity contract under real concurrency: several client
//! threads issue interleaved create/mutate/solve traffic on distinct
//! instances against a `--workers 4` server, and every client's
//! per-instance response stream must be **byte-identical** to a
//! transport-free `handle_line` replay of the same per-instance subtrace
//! on one fresh session.
//!
//! Why this holds: instances pin to their owning shard, each shard is one
//! single-threaded `Session` (so per-instance request order is preserved
//! end to end), and incremental re-solves are bit-identical to cold
//! solves — so whatever the cross-client interleaving, each instance's
//! responses are a pure function of its own subtrace.

mod common;

use common::{assert_matches_oracle, create_request, exchange, shutdown, spawn_server, subtrace};
use experiments::cluster::{request_trace, run, ClusterSpec, ProfileKind};
use experiments::serve::{handle_line, Client, ServeState};
use minijson::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

#[test]
fn concurrent_clients_match_a_single_worker_replay_byte_for_byte() {
    const CLIENTS: usize = 6;
    let (addr, server) = spawn_server(4);

    // Phase 1 — live: one thread per client; each creates its instance
    // (lock-step, to learn the id), then runs its subtrace — even clients
    // pipelined (many requests in flight on one connection), odd clients
    // lock-step.
    let mut clients: Vec<(u64, Vec<String>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                scope.spawn(move || {
                    let create = create_request(k);
                    let created = exchange(addr, std::slice::from_ref(&create)).expect("create");
                    let v = Json::parse(&created[0]).expect("create response");
                    assert_eq!(
                        v.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "{created:?}"
                    );
                    let id = v.get("id").and_then(Json::as_u64).expect("created id");
                    let trace = subtrace(k, id);
                    let client = Client::default();
                    let responses = if k % 2 == 0 {
                        client
                            .pipeline(addr, &trace)
                            .expect("pipelined subtrace")
                            .responses
                    } else {
                        client.exchange(addr, &trace).expect("lock-step subtrace")
                    };
                    let mut requests = vec![create];
                    requests.extend(trace);
                    let mut all = created;
                    all.extend(responses);
                    (id, requests, all)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Distinct ids 0..CLIENTS were handed out (round-robin creates with
    // strided per-shard sessions reproduce a single session's sequence).
    let mut ids: Vec<u64> = clients.iter().map(|(id, _, _)| *id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..CLIENTS as u64).collect::<Vec<_>>());

    // The post-traffic global view, for comparison after the replay.
    let globals = vec![
        r#"{"op":"stats"}"#.to_string(),
        r#"{"op":"list"}"#.to_string(),
    ];
    let live_globals = exchange(addr, &globals).expect("stats+list");
    shutdown(addr, server);

    // Phase 2 — replay: `handle_line` on one fresh session, the same
    // per-instance subtraces, clients ordered by their live id so the
    // creates hand out the same ids. Every response line must match the
    // live run exactly.
    clients.sort_by_key(|(id, _, _)| *id);
    let mut oracle = ServeState::new();
    let mut replay = |requests: &[String]| -> Vec<String> {
        requests
            .iter()
            .map(|line| handle_line(&mut oracle, line))
            .collect()
    };
    for (id, requests, live_responses) in &clients {
        assert_eq!(
            &replay(requests),
            live_responses,
            "instance {id}: handle_line replay diverged from the sharded live run"
        );
    }
    // Totals are conserved too: the merged stats/list of the sharded
    // server equal the lone session's, byte for byte.
    assert_eq!(replay(&globals), live_globals);
}

#[test]
fn sharded_shutdown_completes_while_other_connections_sit_idle() {
    // Regression: an idle client that never sends a byte must not stall
    // the shutdown — its reactor closes the connection once it drains.
    let (addr, server) = spawn_server(2);
    let idle = TcpStream::connect(addr).expect("idle connect");
    exchange(addr, &[r#"{"op":"shutdown"}"#.to_string()]).expect("shutdown");
    server
        .join()
        .expect("server must exit despite the idle client")
        .expect("server run result");
    drop(idle);
}

#[test]
fn lock_step_trace_with_closes_is_identical_at_any_worker_count() {
    // One connection, lock-step, exercising the cross-shard directory:
    // eight instances dealt round-robin, closes, a re-create (ids are
    // never reused), global stats/list, and dead-id errors. Everything —
    // including the error payloads — must be byte-identical at one and
    // four workers, and to the transport-free oracle.
    let mut trace: Vec<String> = (0..8).map(create_request).collect();
    for id in [2u64, 5] {
        trace.push(format!(r#"{{"op":"close","id":{id}}}"#));
    }
    trace.push(create_request(8)); // must get id 8, not recycle 2
    for id in [0u64, 3, 8] {
        trace.push(format!(
            r#"{{"op":"solve","id":{id},"solver":"DominantMinRatio","seed":9}}"#
        ));
    }
    trace.push(r#"{"op":"solve","id":2,"seed":9}"#.into()); // closed: error
    trace.push(r#"{"op":"list"}"#.into());
    trace.push(r#"{"op":"stats"}"#.into());
    trace.push(r#"{"op":"solvers"}"#.into());

    let mut by_workers = Vec::new();
    for workers in [1usize, 4] {
        let (addr, server) = spawn_server(workers);
        let responses = exchange(addr, &trace).expect("trace");
        shutdown(addr, server);
        assert_matches_oracle(&trace, &responses, &format!("workers={workers}"));
        by_workers.push(responses);
    }
    let responses = &by_workers[0];
    // Sanity on the shape: the re-create got a fresh id…
    let recreated = Json::parse(&responses[10]).unwrap();
    assert_eq!(recreated.get("id").and_then(Json::as_u64), Some(8));
    // …the closed id errors with the id echoed…
    let dead = Json::parse(&responses[14]).unwrap();
    assert_eq!(dead.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(dead.get("id").and_then(Json::as_u64), Some(2));
    // …and the list holds exactly the seven live instances.
    let list = Json::parse(&responses[15]).unwrap();
    let infos = list.get("instances").and_then(Json::as_array).unwrap();
    let listed: Vec<u64> = infos
        .iter()
        .map(|i| i.get("id").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(listed, vec![0, 1, 3, 4, 6, 7, 8]);
}

#[test]
fn every_worker_count_serves_the_handle_line_bytes() {
    // The front-end pin: the same lock-step trace against one, two, and
    // four reactors must be answered with exactly the bytes a
    // `handle_line` replay on one fresh session produces.
    let mut trace: Vec<String> = (0..4).map(create_request).collect();
    for id in [0u64, 2, 3] {
        trace.push(format!(
            r#"{{"op":"solve","id":{id},"solver":"DominantRefined","seed":11}}"#
        ));
    }
    trace.push(r#"{"op":"close","id":1}"#.into());
    trace.push(r#"{"op":"list"}"#.into());
    trace.push(r#"{"op":"stats"}"#.into());
    // The cluster simulator's op log: arrivals and departures as
    // add_app/remove_app, a re-solve after each.
    let spec = ClusterSpec {
        rate: 2.0,
        horizon: 4.0,
        ..ClusterSpec::default()
    };
    let cluster_trace = request_trace(&run(&spec).expect("cluster run").outcome);
    // "auto" learns per shard session, so only one worker reproduces the
    // lone session's tuner.
    let auto = ClusterSpec {
        profile: ProfileKind::Bursty,
        solver: "auto".to_string(),
        window: 8,
        ..spec
    };
    let auto_trace = request_trace(&run(&auto).expect("cluster run").outcome);

    let all = &[1usize, 2, 4][..];
    for (trace, worker_counts) in [(&trace, all), (&cluster_trace, all), (&auto_trace, &[1])] {
        for &workers in worker_counts {
            let (addr, server) = spawn_server(workers);
            let responses = exchange(addr, trace).expect("trace");
            shutdown(addr, server);
            assert_matches_oracle(trace, &responses, &format!("workers={workers}"));
        }
    }
}

#[test]
fn hundreds_of_connections_are_served_concurrently() {
    // High fan-in: 300 mostly idle connections held open at once across
    // four reactors, every 16th doing a real round trip; the per-shard
    // `open_connections` gauges must count all of them at the same time.
    const CONNECTIONS: u64 = 300;
    let (addr, server) = spawn_server(4);
    let mut idle = Vec::new();
    for k in 0..CONNECTIONS {
        // The listener backlog is finite: `connect` retries with backoff.
        let stream = Client::default().connect(addr).expect("connect");
        if k % 16 == 0 {
            (&stream).write_all(b"{\"op\":\"list\"}\n").expect("write");
            let mut line = String::new();
            BufReader::new(&stream).read_line(&mut line).expect("read");
            assert!(line.contains("\"ok\":true"), "list on #{k}: {line}");
        }
        idle.push(stream);
    }
    // Reactors adopt accepted sockets asynchronously: poll the gauges
    // (for at most ~2 s) from one more connection.
    let control = Client::default().connect(addr).expect("control connect");
    let mut reader = BufReader::new(&control);
    let mut open = 0;
    for _ in 0..100 {
        (&control)
            .write_all(b"{\"op\":\"metrics\"}\n")
            .expect("metrics");
        let mut line = String::new();
        reader.read_line(&mut line).expect("metrics response");
        let v = Json::parse(&line).expect("metrics json");
        let shards = v.get("shards").and_then(Json::as_array).expect("shards");
        open = shards
            .iter()
            .filter_map(|row| row.get("open_connections").and_then(Json::as_u64))
            .sum();
        if open > CONNECTIONS {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(open > CONNECTIONS, "only {open} connections open at once");
    drop(reader);
    drop((idle, control));
    shutdown(addr, server);
}

#[test]
fn single_worker_answers_a_second_connection_while_the_first_is_open() {
    // One shard still multiplexes: a connection that stays open (here,
    // mid-conversation) must not keep a second one waiting.
    let (addr, server) = spawn_server(1);
    let first = TcpStream::connect(addr).expect("first connect");
    let mut first_reader = BufReader::new(first.try_clone().expect("clone"));
    (&first)
        .write_all(b"{\"op\":\"solvers\"}\n")
        .expect("first request");
    let mut line = String::new();
    first_reader.read_line(&mut line).expect("first response");
    assert!(line.contains("\"ok\":true"), "{line}");

    // The second connection is served while the first is still open.
    let second = exchange(addr, &[r#"{"op":"list"}"#.to_string()]).expect("second connection");
    assert!(second[0].contains("\"ok\":true"), "{second:?}");

    // And the first keeps working afterwards.
    (&first)
        .write_all(b"{\"op\":\"stats\"}\n")
        .expect("first again");
    line.clear();
    first_reader
        .read_line(&mut line)
        .expect("first again response");
    assert!(line.contains("\"ok\":true"), "{line}");
    drop((first, first_reader));
    shutdown(addr, server);
}
