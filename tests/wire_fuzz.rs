//! Fuzzes `handle_line` with hostile request lines: the wire transcript's
//! requests with bit flips, byte substitutions and truncations; numbers
//! at the edges of `f64` (`1e400`, `-0`, `2^53+1`, `1e-320`); nesting at
//! and past the parser's depth cap; and app names drawn from arbitrary
//! characters, control characters and U+FFFD included.
//!
//! The property, for every line: `handle_line` does not panic; the reply
//! is one line; it parses, and serializing the parsed value gives back
//! exactly the reply (which ties the streaming reply writer to `Json`'s
//! `Display`); and the state still answers `stats`.

use std::cell::RefCell;

use experiments::serve::{handle_line, ServeState};
use minijson::Json;
use proptest::prelude::*;

const TRANSCRIPT: &str = include_str!("fixtures/wire_transcript.jsonl");

/// The transcript's request lines, `shutdown` included.
fn requests() -> Vec<String> {
    TRANSCRIPT
        .lines()
        .map(|line| {
            let fields = Json::parse(line).expect("fixture line is JSON");
            fields.as_array().expect("fixture line is an array")[0]
                .as_str()
                .expect("request is a string")
                .to_string()
        })
        .collect()
}

thread_local! {
    /// A state that has replayed the transcript (so instance 0 is live),
    /// shared by one test's cases.
    static STATE: RefCell<ServeState> = RefCell::new({
        let mut state = ServeState::new();
        for line in requests() {
            handle_line(&mut state, &line);
        }
        state
    });
}

/// Answers `line` on the shared state and checks the property.
fn sound(line: &str) -> Result<String, TestCaseError> {
    STATE.with(|state| {
        let state = &mut state.borrow_mut();
        let reply = handle_line(state, line);
        prop_assert!(
            !reply.contains('\n'),
            "multi-line reply to {line:?}: {reply}"
        );
        let parsed = Json::parse(&reply).map_err(|e| {
            TestCaseError::Fail(format!("reply to {line:?} is not JSON: {e}: {reply}"))
        })?;
        prop_assert_eq!(parsed.to_string(), reply.clone(), "reply to {:?}", line);
        let stats = handle_line(state, r#"{"op":"stats"}"#);
        prop_assert!(
            stats.starts_with(r#"{"ok":true,"#),
            "stats after {line:?}: {stats}"
        );
        Ok(reply)
    })
}

/// Edits `line`'s bytes (0: flip a bit, 1: substitute a byte, 2:
/// truncate) and decodes the result the way the reactor does, lossily.
fn mangle(line: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for &(kind, at, value) in edits {
        if bytes.is_empty() {
            break;
        }
        let at = at % bytes.len();
        match kind {
            0 => bytes[at] ^= 1 << (value % 8),
            1 => bytes[at] = value,
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Where an edge number is dropped into a request.
const NUMBER_SLOTS: &[&str] = &[
    r#"{"op":"solve","id":N}"#,
    r#"{"op":"solve","id":0,"seed":N,"schedule":false}"#,
    r#"{"op":"remove_app","id":N,"index":N}"#,
    r#"{"op":"close","id":N}"#,
    r#"{"op":"create","apps":[{"name":"n","work":N,"seq_fraction":N,"access_freq":0.5,"miss_rate_ref":1e-3}],"platform":{"processors":N}}"#,
    r#"{"op":"batch","id":N,"requests":[{"op":"solve","id":N},{"op":"stats"}]}"#,
];

const EDGE_NUMBERS: &[&str] = &[
    "1e400",
    "-1e400",
    "-0",
    "-0.0",
    "9007199254740993",
    "9007199254740992",
    "1e-320",
    "0",
    "3",
];

/// A character drawn from the interesting ranges: control characters,
/// U+FFFD, ASCII, and any scalar value.
fn arb_char(kind: u8, raw: u32) -> char {
    match kind {
        0 => char::from_u32(raw % 0x20).expect("control character"),
        1 => '\u{FFFD}',
        2 => char::from_u32(0x20 + raw % 0x5f).expect("printable ASCII"),
        _ => char::from_u32(raw % 0x11_0000).unwrap_or('\u{FFFD}'),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn mangled_transcript_lines_answer_one_json_line(
        pick in 0usize..1000,
        edits in proptest::collection::vec((0u8..3, 0usize..1_000_000, 0u8..=255), 1..4),
    ) {
        let requests = requests();
        // `shutdown` is refused (the state does not allow it), so every
        // line may be replayed.
        let line = mangle(&requests[pick % requests.len()], &edits);
        sound(&line)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn edge_numbers_answer_one_json_line(
        slot in 0usize..NUMBER_SLOTS.len(),
        number in 0usize..EDGE_NUMBERS.len(),
    ) {
        let line = NUMBER_SLOTS[slot].replace('N', EDGE_NUMBERS[number]);
        sound(&line)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn arbitrary_app_names_round_trip_through_a_solve(
        chars in proptest::collection::vec((0u8..4, 0u32..u32::MAX), 0..24),
    ) {
        let name: String = chars.iter().map(|&(kind, raw)| arb_char(kind, raw)).collect();
        let app = Json::obj([
            ("name", Json::from(name.as_str())),
            ("work", Json::from(2e10)),
            ("seq_fraction", Json::from(0.05)),
            ("access_freq", Json::from(0.5)),
            ("miss_rate_ref", Json::from(2e-3)),
        ]);
        let create = Json::obj([
            ("op", Json::from("create")),
            ("apps", Json::arr([app.clone(), app])),
        ]);
        let created = Json::parse(&sound(&create.to_string())?).expect("checked by sound");
        let id = created.get("id").and_then(Json::as_u64).expect("create succeeds");
        let solved = sound(&format!(r#"{{"op":"solve","id":{id},"seed":1}}"#))?;
        let solved = Json::parse(&solved).expect("checked by sound");
        let assignments = solved.get("assignments").and_then(Json::as_array).expect("schedule");
        prop_assert_eq!(assignments[0].get("name").and_then(Json::as_str), Some(name.as_str()));
        sound(&format!(r#"{{"op":"close","id":{id}}}"#))?;
    }
}

#[test]
fn nesting_at_and_past_the_depth_cap_answers_one_json_line() {
    for depth in [127, 128, 129, 500] {
        let nested = "[".repeat(depth) + &"]".repeat(depth);
        for line in [
            format!(r#"{{"op":"solve","id":0,"schedule":false,"x":{nested}}}"#),
            nested.clone(),
        ] {
            if let Err(e) = sound(&line) {
                panic!("depth {depth}: {e:?}");
            }
        }
    }
    // The object is level 0, so 128 arrays inside it are the deepest
    // nesting the parser accepts.
    let at_cap = format!(
        r#"{{"op":"solve","id":0,"schedule":false,"x":{}{}}}"#,
        "[".repeat(128),
        "]".repeat(128)
    );
    assert!(sound(&at_cap).unwrap().starts_with(r#"{"ok":true,"#));
    let past_cap = format!(
        r#"{{"op":"solve","id":0,"x":{}{}}}"#,
        "[".repeat(129),
        "]".repeat(129)
    );
    assert!(sound(&past_cap)
        .unwrap()
        .contains("malformed request: invalid JSON at byte"));
}
