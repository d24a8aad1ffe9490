//! Pins the absolute bytes of the serve protocol's replies.
//!
//! `fixtures/wire_transcript.jsonl` holds one exchange per line, as a
//! JSON array `[request, reply, traced_reply]` of strings, recorded once
//! from the server as it stood when the file was added. `traced_reply` is
//! the reply of a state that echoes trace ids, when line `i` runs under
//! trace id `1000 + i`. The transcript covers every op and every error
//! kind: malformed JSON, unknown op, id and solver, `schedule:true` and
//! `schedule:false` solves by every solver (`"auto"` included), a `batch`
//! with a nested batch, `close`, `stats`/`list`/`solvers`/`trace`, and app
//! names that need escaping. It ends with `shutdown`.
//!
//! The transcript is replayed three ways: through `handle_line`, through
//! `handle_line` with the trace echo on, and through servers of 1, 2 and
//! 4 workers over loopback. A 4096-app `NpbSynth` instance, generated here from a
//! fixed seed, pins the large solve reply by length and FNV-1a-64 digest.
//!
//! The other serve suites compare transports with one another; this one
//! compares each of them with fixed bytes, so a change that alters a
//! reply the same way everywhere still fails here.

mod common;

use common::spawn_server;
use experiments::serve::{app_to_json, handle_line, Client, ServeState};
use minijson::Json;
use workloads::{seeded_rng, Dataset, SeqFraction};

const TRANSCRIPT: &str = include_str!("fixtures/wire_transcript.jsonl");

/// One recorded exchange.
struct Exchange {
    request: String,
    reply: String,
    traced_reply: String,
}

fn transcript() -> Vec<Exchange> {
    TRANSCRIPT
        .lines()
        .enumerate()
        .map(|(n, line)| {
            let fields = Json::parse(line).unwrap_or_else(|e| panic!("fixture line {n}: {e}"));
            let text = |i: usize| {
                fields
                    .as_array()
                    .and_then(|f| f.get(i))
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("fixture line {n}: field {i} is not a string"))
                    .to_string()
            };
            Exchange {
                request: text(0),
                reply: text(1),
                traced_reply: text(2),
            }
        })
        .collect()
}

/// The trace id line `i` of the traced replay runs under.
fn trace_id(i: usize) -> u64 {
    1000 + i as u64
}

/// A lone state as the transcript was recorded against: defaults, with
/// `shutdown` allowed so the closing line is acknowledged.
fn fresh_state() -> ServeState {
    let mut state = ServeState::new();
    state.allow_shutdown = true;
    state
}

#[test]
fn handle_line_reproduces_the_transcript() {
    let mut state = fresh_state();
    for (i, ex) in transcript().iter().enumerate() {
        assert_eq!(
            handle_line(&mut state, &ex.request),
            ex.reply,
            "line {i}: {}",
            ex.request
        );
    }
}

#[test]
fn handle_line_with_the_trace_echo_reproduces_the_traced_transcript() {
    let mut state = fresh_state();
    state.echo_trace = true;
    for (i, ex) in transcript().iter().enumerate() {
        coschedule::obs::set_trace_id(trace_id(i));
        assert_eq!(
            handle_line(&mut state, &ex.request),
            ex.traced_reply,
            "line {i}: {}",
            ex.request
        );
    }
}

#[test]
fn a_server_reproduces_the_transcript_at_every_worker_count() {
    let exchanges = transcript();
    let requests: Vec<String> = exchanges.iter().map(|ex| ex.request.clone()).collect();
    for workers in [1, 2, 4] {
        let (addr, handle) = spawn_server(workers);
        // The transcript ends with `shutdown`, so the server exits after it.
        let replies = Client::default()
            .exchange(addr, &requests)
            .expect("loopback exchange");
        handle.join().expect("server thread").expect("server run");
        assert_eq!(replies.len(), exchanges.len(), "{workers} workers");
        for (i, (ex, reply)) in exchanges.iter().zip(&replies).enumerate() {
            assert_eq!(
                reply, &ex.reply,
                "{workers} workers, line {i}: {}",
                ex.request
            );
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 4096-app instance's `create`, a `solve` without the schedule, an
/// `update_app`, and a `solve` with it.
fn synth4096_requests() -> Vec<String> {
    let apps = Dataset::NpbSynth.generate(4096, SeqFraction::paper_default(), &mut seeded_rng(23));
    let create = Json::obj([
        ("op", Json::from("create")),
        ("apps", Json::arr(apps.iter().map(app_to_json))),
    ]);
    let update = Json::obj([
        ("op", Json::from("update_app")),
        ("id", Json::from(0u64)),
        ("index", Json::from(2049u64)),
        ("app", app_to_json(&apps[7])),
    ]);
    vec![
        create.to_string(),
        r#"{"op":"solve","id":0,"seed":1,"schedule":false}"#.to_string(),
        update.to_string(),
        r#"{"op":"solve","id":0,"seed":1}"#.to_string(),
    ]
}

/// Asserts the four replies to [`synth4096_requests`]: the small ones
/// verbatim, the solves by `(length, FNV-1a-64)`.
fn assert_synth4096_replies(replies: &[String], label: &str) {
    assert_eq!(
        replies[0], r#"{"ok":true,"id":0,"revision":0,"apps":4096}"#,
        "{label}: create"
    );
    assert_eq!(
        replies[2], r#"{"ok":true,"id":0,"revision":1,"apps":4096,"replaced":"SP-2049"}"#,
        "{label}: update_app"
    );
    for (at, pinned) in [
        (1, SOLVE_4096_WITHOUT_SCHEDULE),
        (3, SOLVE_4096_WITH_SCHEDULE),
    ] {
        let reply = &replies[at];
        assert_eq!(
            (reply.len(), fnv1a64(reply.as_bytes())),
            pinned,
            "{label}: solve reply {at} starts {}",
            &reply[..reply.len().min(300)]
        );
    }
}

const SOLVE_4096_WITHOUT_SCHEDULE: (usize, u64) = (19_595, 0x4368_1e02_a282_0309);
const SOLVE_4096_WITH_SCHEDULE: (usize, u64) = (337_487, 0x701f_934a_e78c_752d);

#[test]
fn a_4096_app_instance_pins_its_create_and_solve_replies() {
    let requests = synth4096_requests();
    let mut state = fresh_state();
    let replies: Vec<String> = requests
        .iter()
        .map(|line| handle_line(&mut state, line))
        .collect();
    assert_synth4096_replies(&replies, "handle_line");

    let (addr, handle) = spawn_server(2);
    let mut lines = requests;
    lines.push(r#"{"op":"shutdown"}"#.to_string());
    let replies = Client::default()
        .exchange(addr, &lines)
        .expect("loopback exchange");
    handle.join().expect("server thread").expect("server run");
    assert_synth4096_replies(&replies, "two-worker server");
}
