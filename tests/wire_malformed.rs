//! Pins the replies to malformed and mangled request lines.
//!
//! `fixtures/wire_malformed.jsonl` holds one exchange per line, as a JSON
//! array `[request, reply]` of strings, recorded once from the server as
//! it stood when the file was added. It opens with a `create` (instance
//! 0), then has one line for each reason a parse can fail:
//!
//! * trailing content, a missing value, a bad separator in an array and
//!   in an object, a non-string key, a missing `:`;
//! * a raw control character, an unterminated string and escape, an
//!   unknown escape, a truncated and a non-hex `\u` escape;
//! * lone high and low surrogates in an app name, a high surrogate
//!   followed by a non-`\u` escape and by a non-surrogate `\u` escape;
//! * a bad literal inside a `batch` sub-request;
//! * a bare `-`, `1.`, `1e+`, and `1e999` in an app's `work` and inside
//!   an unknown field;
//! * nesting one level past the depth cap inside an unknown field;
//! * an empty and a blank line.
//!
//! Then come 240 outputs of `wire_fuzz`'s `mangle`: transcript requests
//! with one to three bit flips, byte substitutions or truncations, drawn
//! with SplitMix64 from seed `0x5EED27`. Mangled lines that contain a
//! `\n`, end in `\r` (the transport would split or strip them) or name
//! `metrics` (its reply differs by worker count) were not drawn. The file
//! closes with `shutdown`.
//!
//! A 4096-app `create` whose last app has `work` `1e999` is generated
//! here and its reply pinned below, since the line is 360 KB.
//!
//! Every line is replayed through `handle_line` and through servers of
//! 1 and 2 workers. `wire_fuzz` checks that any reply is well formed;
//! this suite checks that it keeps its bytes, error offsets included.

mod common;

use common::spawn_server;
use experiments::serve::{handle_line, Client, ServeState};
use minijson::Json;

const MALFORMED: &str = include_str!("fixtures/wire_malformed.jsonl");

/// The fixture's `[request, reply]` pairs, then the generated 4096-app
/// line just before the closing `shutdown`.
fn exchanges() -> Vec<(String, String)> {
    let mut exchanges: Vec<(String, String)> = MALFORMED
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
            (text(0), text(1))
        })
        .collect();
    let at = exchanges.len() - 1;
    exchanges.insert(
        at,
        (out_of_range_create(), OUT_OF_RANGE_CREATE_REPLY.to_string()),
    );
    exchanges
}

/// A 4096-app `create` whose app 4095 has `work` `1e999`, past `f64`.
fn out_of_range_create() -> String {
    let apps: Vec<String> = (0..4096)
        .map(|i| {
            let work = if i == 4095 { "1e999" } else { "1e10" };
            format!(
                r#"{{"name":"a{i}","work":{work},"seq_fraction":0.1,"access_freq":0.5,"miss_rate_ref":0.001}}"#
            )
        })
        .collect();
    format!(r#"{{"op":"create","apps":[{}]}}"#, apps.join(","))
}

const OUT_OF_RANGE_CREATE_REPLY: &str =
    r#"{"ok":false,"error":"malformed request: invalid JSON at byte 359301: number out of range"}"#;

#[test]
fn handle_line_reproduces_the_malformed_replies() {
    let mut state = ServeState::new();
    state.allow_shutdown = true;
    for (i, (request, reply)) in exchanges().iter().enumerate() {
        assert_eq!(
            &handle_line(&mut state, request),
            reply,
            "line {i}: {request:?}"
        );
    }
}

#[test]
fn a_server_reproduces_the_malformed_replies_at_one_and_two_workers() {
    let exchanges = exchanges();
    let requests: Vec<String> = exchanges
        .iter()
        .map(|(request, _)| request.clone())
        .collect();
    for workers in [1, 2] {
        let (addr, handle) = spawn_server(workers);
        // The file ends with `shutdown`, so the server exits after it.
        let replies = Client::default()
            .exchange(addr, &requests)
            .expect("loopback exchange");
        handle.join().expect("server thread").expect("server run");
        assert_eq!(replies.len(), exchanges.len(), "{workers} workers");
        for (i, ((request, reply), got)) in exchanges.iter().zip(&replies).enumerate() {
            assert_eq!(got, reply, "{workers} workers, line {i}: {request:?}");
        }
    }
}
