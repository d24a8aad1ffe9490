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
//! names that need escaping. Before its closing `shutdown` it pins the
//! order of the checks: a dead id together with a bad field (alone and
//! inside a batch) reports the dead id, a `mutate` with a missing or
//! unknown `action` included; a duplicate `"op"` or `"id"` key answers by
//! the first one; and keys may come in any order.
//!
//! The transcript is replayed four ways: through `handle_line`, through
//! `handle_line` with the trace echo on, through servers of 1, 2 and 4
//! workers over loopback, and through a server with a write-ahead log
//! that is stopped halfway and restarted with `--restore`. A 4096-app `NpbSynth` instance, generated here from a
//! fixed seed, pins the large solve reply by length and FNV-1a-64 digest.
//! A `COSWAL01` log framed by hand must restore like a live state, and
//! two request lines that are not UTF-8 pin their replies and their log
//! record.
//!
//! The other serve suites compare transports with one another; this one
//! compares each of them with fixed bytes, so a change that alters a
//! reply the same way everywhere still fails here.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use common::{shutdown, spawn_server, spawn_server_with};
use coschedule::session::Session;
use experiments::serve::metrics::LatencyHistogram;
use experiments::serve::protocol::{DEFAULT_SEED, DEFAULT_SOLVER};
use experiments::serve::wal::{read_wal_records, recover_shard, write_meta, WalWriter};
use experiments::serve::{
    app_to_json, build_states, handle_line, Client, Durability, ServeConfig, ServeState, Standby,
};
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

/// A logged server stopped after the first half of the transcript and
/// restarted with `restore` answers the second half with the recorded
/// bytes: recovery replays the log through the same request path.
#[test]
fn a_server_restored_mid_transcript_reproduces_the_rest() {
    let exchanges = transcript();
    let requests: Vec<String> = exchanges.iter().map(|ex| ex.request.clone()).collect();
    let split = requests.len() / 2;
    for workers in [1, 2] {
        let dir = std::env::temp_dir().join(format!(
            "cosched-wire-restore-{}-{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = |restore: bool| {
            let dir = dir.clone();
            spawn_server_with(move |config| {
                config.workers = workers;
                config.durability = Durability::Log;
                config.wal_dir = Some(dir);
                config.restore = restore;
            })
        };
        let (addr, handle) = durable(false);
        let mut replies = Client::default()
            .exchange(addr, &requests[..split])
            .expect("first half");
        shutdown(addr, handle);
        let (addr, handle) = durable(true);
        replies.extend(
            Client::default()
                .exchange(addr, &requests[split..])
                .expect("second half"),
        );
        handle.join().expect("server thread").expect("server run");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(replies.len(), exchanges.len(), "{workers} workers");
        for (i, (ex, reply)) in exchanges.iter().zip(&replies).enumerate() {
            assert_eq!(
                reply, &ex.reply,
                "{workers} workers, restored at line {split}, line {i}: {}",
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

/// The lines the durable-state tests send: a create, an `update_app`, a
/// batch of two sub-requests, a failing op, a server-wide op, a request
/// with reordered keys and an unknown field, and one with a duplicate
/// `"op"` key.
const WAL_LINES: [&str; 7] = [
    r#"{"op":"create","apps":[{"name":"A \"1\"","work":1e10,"seq_fraction":0.1,"access_freq":0.5,"miss_rate_ref":1e-3},{"name":"B","work":2.5e10,"access_freq":0.6,"miss_rate_ref":2e-3,"footprint":3e8}],"platform":{"processors":64}}"#,
    r#"{"op":"update_app","id":0,"index":1,"app":{"name":"B2","work":2.25e10,"seq_fraction":0.05,"access_freq":0.6,"miss_rate_ref":2e-3}}"#,
    r#"{"op":"batch","requests":[{"op":"solve","id":0,"seed":1,"schedule":false},{"op":"remove_app","id":0,"index":0}]}"#,
    r#"{"op":"solve","id":9,"solver":5}"#,
    r#"{"op":"stats"}"#,
    r#"{"seed":2,"id":0,"extra":[1,{"k":null}],"op":"solve","schedule":false}"#,
    r#"{"op":"solve","op":"stats","id":0,"schedule":false}"#,
];

/// Lines that are not what the writer prints: whitespace between tokens,
/// `\/`, `\u0041`, `\u000a` and upper-case `\u001F` escapes, `1.50`, `-0`,
/// `1E+2`, `0e0`, an integer past 2^53, and a `batch` whose sub-requests
/// are spelled that way too.
const SPELLED_LINES: [&str; 4] = [
    concat!(
        " {\"op\" : \"create\",\t\"apps\" : [ {\"name\":\"A\\/1\\u0041\",\"work\":1.50e10,",
        "\"seq_fraction\":-0,\"access_freq\":0.50,\"miss_rate_ref\":1E-3} ,",
        "{\"name\":\"B\",\"work\":2e10,\"access_freq\":0.6,\"miss_rate_ref\":0.002}],",
        "\"platform\":{\"processors\":1E+2}} ",
    ),
    r#"{"op":"batch","requests":[ {"op":"solve", "id":0e0, "seed":1.0, "schedule":false} , {"op":"remove_app","id":0,"index":1.00}]}"#,
    r#"{"op":"solve","id":9,"solver":"Dominant","note":"a\u000ab\u001Fc\tdé"}"#,
    r#"{"op":"solve","id":0,"schedule":false,"x":[9007199254740993,-0.0,1.5E30,0.000001]}"#,
];

/// A fresh directory under the system's temp dir, named after `tag`.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cosched-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sends `lines` to a lone durable state logging to `dir`, committing
/// after each; returns the state and the records its log holds.
fn log_lines(dir: &Path, lines: &[&str]) -> (ServeState, Vec<String>) {
    let mut config = ServeConfig {
        durability: Durability::Log,
        wal_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };
    let mut state = build_states(&mut config).expect("durable state").remove(0);
    for line in lines {
        handle_line(&mut state, line);
        state.wal_commit();
    }
    let records = read_wal_records(&dir.join("shard-0.wal.0.log")).expect("read the log");
    (state, records)
}

/// Writes a fresh snapshot and a log of `records`, appended as given, to
/// `dir`.
fn write_log(dir: &Path, records: &[&str]) {
    let mut writer = WalWriter::create(
        dir,
        0,
        1,
        Durability::Log,
        1024,
        0,
        &Session::new(),
        0,
        &LatencyHistogram::default(),
        0,
    )
    .expect("wal create");
    for record in records {
        writer.append(record).expect("wal append");
    }
    writer.commit().expect("wal commit");
}

/// What `state` answers to `list` and to a `solve` of instance 0 with
/// its schedule. The solve must succeed, so that equal answers compare a
/// restored instance.
fn answers(state: &mut ServeState) -> [String; 2] {
    let replies = [
        r#"{"op":"list"}"#,
        r#"{"op":"solve","id":0,"seed":3,"schedule":true}"#,
    ]
    .map(|line| handle_line(state, line));
    assert!(replies[1].starts_with(r#"{"ok":true"#), "{}", replies[1]);
    replies
}

/// What the state restored from `dir` answers.
fn restored_answers(dir: &Path) -> [String; 2] {
    let mut restored = recover_shard(dir, 0, 1, DEFAULT_SOLVER, DEFAULT_SEED)
        .expect("restore")
        .state;
    answers(&mut restored)
}

/// A lone durable state logs each routed request as its span, the bytes
/// read for it, failed ones included; the batch envelope and the
/// server-wide op are not logged.
#[test]
fn a_durable_state_logs_the_pinned_records() {
    let dir = temp_dir("wal");
    let (_, records) = log_lines(&dir, &WAL_LINES);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(records, WAL_SPANS);
}

/// The records a durable state logs for [`WAL_LINES`]: each routed
/// request's span, a batch's sub-requests one by one.
const WAL_SPANS: [&str; 7] = [
    WAL_LINES[0],
    WAL_LINES[1],
    r#"{"op":"solve","id":0,"seed":1,"schedule":false}"#,
    r#"{"op":"remove_app","id":0,"index":0}"#,
    WAL_LINES[3],
    WAL_LINES[5],
    WAL_LINES[6],
];

/// Lines spelled otherwise than the writer prints are logged as read,
/// from a request's first byte to its last (a line's outer whitespace
/// aside), and the state restored from that log answers as the live one.
#[test]
fn a_durable_state_logs_each_request_as_spelled_and_restores_from_it() {
    let dir = temp_dir("spelled");
    let (mut live, records) = log_lines(&dir, &SPELLED_LINES);
    let spans = [
        SPELLED_LINES[0].trim(),
        r#"{"op":"solve", "id":0e0, "seed":1.0, "schedule":false}"#,
        r#"{"op":"remove_app","id":0,"index":1.00}"#,
        SPELLED_LINES[2],
        SPELLED_LINES[3],
    ];
    assert_eq!(records, spans);
    let restored = restored_answers(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(restored, answers(&mut live));
}

/// A log written when each request was logged in canonical form (the
/// records below) still restores: to the state the log of the same lines'
/// spans restores to.
#[test]
fn a_log_of_canonical_records_restores_like_a_log_of_spans() {
    for (lines, canonical) in [
        (&WAL_LINES[..], &WAL_RECORDS[..]),
        (&SPELLED_LINES[..], &CANONICAL_RECORDS[..]),
    ] {
        let (spans, old) = (temp_dir("spans"), temp_dir("canonical"));
        log_lines(&spans, lines);
        write_log(&old, canonical);
        let (from_spans, from_old) = (restored_answers(&spans), restored_answers(&old));
        let _ = std::fs::remove_dir_all(&spans);
        let _ = std::fs::remove_dir_all(&old);
        assert_eq!(from_old, from_spans, "{}", lines[0]);
    }
}

/// The records of [`WAL_LINES`] when each request was logged as its
/// parse printed back: keys in their order on the line, numbers printed
/// round-trip.
const WAL_RECORDS: [&str; 7] = [
    concat!(
        r#"{"op":"create","apps":[{"name":"A \"1\"","work":10000000000,"seq_fraction":0.1,"#,
        r#""access_freq":0.5,"miss_rate_ref":0.001},{"name":"B","work":25000000000,"#,
        r#""access_freq":0.6,"miss_rate_ref":0.002,"footprint":300000000}],"#,
        r#""platform":{"processors":64}}"#,
    ),
    concat!(
        r#"{"op":"update_app","id":0,"index":1,"app":{"name":"B2","work":22500000000,"#,
        r#""seq_fraction":0.05,"access_freq":0.6,"miss_rate_ref":0.002}}"#,
    ),
    r#"{"op":"solve","id":0,"seed":1,"schedule":false}"#,
    r#"{"op":"remove_app","id":0,"index":0}"#,
    r#"{"op":"solve","id":9,"solver":5}"#,
    r#"{"seed":2,"id":0,"extra":[1,{"k":null}],"op":"solve","schedule":false}"#,
    r#"{"op":"solve","op":"stats","id":0,"schedule":false}"#,
];

/// The records of [`SPELLED_LINES`] when each request was logged as its
/// parse printed back.
const CANONICAL_RECORDS: [&str; 5] = [
    concat!(
        r#"{"op":"create","apps":[{"name":"A/1A","work":15000000000,"seq_fraction":-0,"#,
        r#""access_freq":0.5,"miss_rate_ref":0.001},{"name":"B","work":20000000000,"#,
        r#""access_freq":0.6,"miss_rate_ref":0.002}],"platform":{"processors":100}}"#,
    ),
    r#"{"op":"solve","id":0,"seed":1,"schedule":false}"#,
    r#"{"op":"remove_app","id":0,"index":1}"#,
    r#"{"op":"solve","id":9,"solver":"Dominant","note":"a\nb\u001fc\tdé"}"#,
    concat!(
        r#"{"op":"solve","id":0,"schedule":false,"#,
        r#""x":[9007199254740992,-0,1500000000000000000000000000000,0.000001]}"#,
    ),
];

/// FNV-1a, 32-bit: the record checksum of a `COSWAL01` log.
fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |hash, &b| {
        (hash ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

/// A `COSWAL01` log of `records`, framed by hand: the magic, then per
/// record its length and FNV-1a checksum (both `u32` LE) and its bytes.
fn coswal01_log(records: &[&str]) -> Vec<u8> {
    let mut log = b"COSWAL01".to_vec();
    for record in records {
        let bytes = record.as_bytes();
        log.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        log.extend_from_slice(&fnv1a32(bytes).to_le_bytes());
        log.extend_from_slice(bytes);
    }
    log
}

/// A `COSWAL01` log, framed here rather than by the server's writer,
/// restores through `recover_shard`, a warm standby and a server started
/// with `restore`, each answering `list` and a solve with the bytes of a
/// live state that was sent the same lines.
#[test]
fn a_coswal01_log_restores_and_tails_like_a_live_state() {
    let mut live = fresh_state();
    for line in WAL_LINES {
        handle_line(&mut live, line);
    }
    let want = answers(&mut live);

    let dir = temp_dir("coswal01");
    write_log(&dir, &[]);
    write_meta(&dir, 1).expect("write meta.json");
    std::fs::write(dir.join("shard-0.wal.0.log"), coswal01_log(&WAL_SPANS)).expect("write log");
    assert_eq!(
        read_wal_records(&dir.join("shard-0.wal.0.log")).expect("read the log"),
        WAL_SPANS
    );
    assert_eq!(restored_answers(&dir), want, "recover_shard");

    let mut standby = Standby::open(&dir, DEFAULT_SOLVER, DEFAULT_SEED).expect("standby");
    let caught_up = standby.catch_up().expect("catch up");
    assert_eq!(caught_up.records_applied, WAL_SPANS.len() as u64);
    assert_eq!(answers(&mut standby.promote().remove(0)), want, "standby");

    let restore_dir = dir.clone();
    let (addr, handle) = spawn_server_with(move |config| {
        config.durability = Durability::Log;
        config.wal_dir = Some(restore_dir);
        config.restore = true;
    });
    let replies = Client::default()
        .exchange(
            addr,
            &[
                r#"{"op":"list"}"#.to_string(),
                r#"{"op":"solve","id":0,"seed":3,"schedule":true}"#.to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
        )
        .expect("restored exchange");
    handle.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(replies[..2], want, "server restored from the log");
}

/// Request lines that are not UTF-8, as a logged server at 1 and 2
/// workers answers them: a `create` with a stray `0xFF` inside an app
/// name, and a line with `0xFF` between two tokens. Invalid bytes read
/// as U+FFFD, so the create succeeds and its record holds the
/// replacement character; the second line is malformed.
#[test]
fn a_line_of_invalid_utf8_answers_and_logs_as_its_lossy_decoding() {
    let create: &[u8] =
        b"{\"op\":\"create\",\"apps\":[{\"name\":\"A\xFFz\",\"work\":1e10,\"access_freq\":0.5,\"miss_rate_ref\":1e-3}]}";
    let stray: &[u8] = b"{\"op\":\xFF\"list\"}";
    for workers in [1, 2] {
        let dir = temp_dir(&format!("utf8-{workers}"));
        let log_dir = dir.clone();
        let (addr, handle) = spawn_server_with(move |config| {
            config.workers = workers;
            config.durability = Durability::Log;
            config.wal_dir = Some(log_dir);
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        let mut replies = Vec::new();
        for line in [create, stray, br#"{"op":"shutdown"}"#] {
            stream.write_all(line).expect("send");
            stream.write_all(b"\n").expect("send");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("receive");
            replies.push(reply);
        }
        handle.join().expect("server thread").expect("server run");
        let records = read_wal_records(&dir.join("shard-0.wal.0.log")).expect("read the log");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            replies[..2],
            [
                "{\"ok\":true,\"id\":0,\"revision\":0,\"apps\":1}\n",
                "{\"ok\":false,\"error\":\"malformed request: invalid JSON at byte 6: expected a value\"}\n",
            ],
            "{workers} workers"
        );
        assert_eq!(
            records,
            ["{\"op\":\"create\",\"apps\":[{\"name\":\"A\u{FFFD}z\",\"work\":1e10,\"access_freq\":0.5,\"miss_rate_ref\":1e-3}]}"],
            "{workers} workers"
        );
    }
}
