//! Property and integration tests for the opt-in binary frame codec:
//! round-trips of arbitrary unicode payloads (torn at random read
//! boundaries), max-length frames, negotiation fallback when the hello is
//! malformed, and byte-identity of framed responses against the JSON
//! reference protocol over a real loopback server.

mod common;

use common::{exchange, shutdown, spawn_server};
use experiments::serve::frame::{
    encode_frame, hello_line, negotiate, FrameDecoder, Negotiation, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
use experiments::serve::{smoke_script, Client, FrameMode};
use minijson::Json;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// A client that negotiates binary frames.
const BINARY: Client = Client {
    frame: FrameMode::Binary,
    retries: experiments::serve::DEFAULT_CLIENT_RETRIES,
};

/// Arbitrary unicode payload: random scalar values (surrogates are
/// filtered by `char::from_u32`), so multi-byte UTF-8 crosses every torn
/// read boundary the chunking property picks.
fn arb_payload() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x11_0000u32, 0..200)
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frames_round_trip_torn_at_random_boundaries(
        payloads in proptest::collection::vec(arb_payload(), 1..8),
        chunk_seed in 1usize..97,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            encode_frame(p, &mut wire).unwrap();
        }
        // Feed the stream in pseudo-random chunk sizes: every frame is
        // torn at data-dependent boundaries, headers included.
        let mut decoder = FrameDecoder::default();
        let mut decoded = Vec::new();
        let mut at = 0usize;
        let mut step = chunk_seed;
        while at < wire.len() {
            let take = (step % 13 + 1).min(wire.len() - at);
            decoder.push(&wire[at..at + take]);
            at += take;
            step = step.wrapping_mul(31).wrapping_add(7);
            while let Some(payload) = decoder.next_payload().unwrap() {
                decoded.push(payload);
            }
        }
        prop_assert_eq!(decoded, payloads);
        prop_assert!(decoder.is_empty(), "no bytes may linger after the last frame");
    }

    #[test]
    fn partial_frames_never_yield_until_complete(
        payload in arb_payload(),
        cut_num in 0u32..1000,
    ) {
        let mut wire = Vec::new();
        encode_frame(&payload, &mut wire).unwrap();
        // Cut the wire bytes at a proportional point strictly before the
        // end: the decoder must hold the torn frame, yielding nothing.
        let cut = (cut_num as usize * (wire.len() - 1)) / 1000;
        let mut decoder = FrameDecoder::default();
        decoder.push(&wire[..cut]);
        prop_assert_eq!(decoder.next_payload().unwrap(), None);
        // The remainder completes it.
        decoder.push(&wire[cut..]);
        prop_assert_eq!(decoder.next_payload().unwrap(), Some(payload));
        prop_assert!(decoder.is_empty());
    }
}

#[test]
fn max_length_frame_round_trips_and_oversize_is_rejected() {
    // Exactly MAX_FRAME_LEN bytes of payload round-trips…
    let payload = "x".repeat(MAX_FRAME_LEN);
    let mut wire = Vec::new();
    encode_frame(&payload, &mut wire).unwrap();
    assert_eq!(wire.len(), FRAME_HEADER_LEN + MAX_FRAME_LEN);
    let mut decoder = FrameDecoder::default();
    decoder.push(&wire);
    assert_eq!(decoder.next_payload().unwrap(), Some(payload));

    // …one byte more is refused by the encoder, and a decoder seeing such
    // a header errors instead of buffering 16 MiB of garbage.
    let oversize = "x".repeat(MAX_FRAME_LEN + 1);
    let mut out = Vec::new();
    assert!(encode_frame(&oversize, &mut out).is_err());
    let mut decoder = FrameDecoder::default();
    let bad_header = u32::try_from(MAX_FRAME_LEN + 1).unwrap().to_le_bytes();
    decoder.push(&bad_header);
    assert!(decoder.next_payload().is_err());
}

#[test]
fn malformed_hello_falls_back_to_json() {
    // A hello asking for an unknown codec gets an error line, and the
    // connection then keeps speaking plain JSON — the fallback contract.
    for workers in [1, 4] {
        let (addr, handle) = spawn_server(workers);
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);

        writer
            .write_all(b"{\"op\":\"hello\",\"frame\":\"msgpack\"}\n")
            .expect("send malformed hello");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reject");
        let reject = Json::parse(&line).expect("parseable reject");
        assert_eq!(
            reject.get("ok").and_then(Json::as_bool),
            Some(false),
            "workers={workers}: {line}"
        );

        // Still JSON, still served.
        writer
            .write_all(b"{\"op\":\"solvers\"}\n")
            .expect("send request");
        line.clear();
        reader.read_line(&mut line).expect("read response");
        let v = Json::parse(&line).expect("parseable response");
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "workers={workers}: connection poisoned after rejected hello: {line}"
        );

        drop((writer, reader));
        shutdown(addr, handle);
    }
}

#[test]
fn hello_negotiation_is_transport_level_not_an_op() {
    // The hello must not be dispatched: after a binary handshake, a lone
    // `stats` request gets exactly one response — the ack was consumed by
    // the handshake, the hello left no trace in any counter — and the
    // response is byte-identical to what a plain JSON connection answers.
    let (addr, handle) = spawn_server(1);
    let script = [r#"{"op":"stats"}"#.to_string()];
    let framed = BINARY.exchange(addr, &script).expect("framed stats");
    let json = exchange(addr, &script).expect("json stats");
    assert_eq!(framed.len(), 1, "hello must not produce an extra response");
    assert_eq!(
        framed, json,
        "a hello-prefixed connection must answer identically to a plain one"
    );
    let v = Json::parse(&framed[0]).expect("parseable stats");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        v.get("solves").and_then(Json::as_u64),
        Some(0),
        "the hello must not touch any counter: {}",
        framed[0]
    );
    shutdown(addr, handle);
}

#[test]
fn binary_frames_decode_to_the_exact_json_reference_bytes() {
    // The byte-identity oracle: the same script over the binary codec
    // must decode to exactly the payloads the JSON protocol answers —
    // at one and at four workers.
    let script = smoke_script();
    for workers in [1, 4] {
        let (addr, handle) = spawn_server(workers);
        let json = exchange(addr, &script).expect("json exchange");
        handle.join().expect("server thread").expect("server run");

        let (addr, handle) = spawn_server(workers);
        let framed = BINARY.exchange(addr, &script).expect("framed exchange");
        handle.join().expect("server thread").expect("server run");

        for ((request, j), f) in script.iter().zip(&json).zip(&framed) {
            let is_metrics = Json::parse(request)
                .unwrap()
                .get("op")
                .and_then(Json::as_str)
                == Some("metrics");
            if is_metrics {
                // The net counters legitimately differ: framing changes
                // the wire byte counts. The response must still be ok.
                assert_eq!(
                    Json::parse(f).unwrap().get("ok").and_then(Json::as_bool),
                    Some(true),
                    "workers={workers}: {f}"
                );
                continue;
            }
            assert_eq!(
                j, f,
                "workers={workers}: binary frames diverged from the JSON reference on {request}"
            );
        }
    }
}

#[test]
fn negotiate_classifies_without_consuming_requests() {
    // Unit-level pin of the classification contract the servers rely on.
    assert_eq!(
        negotiate(&hello_line(FrameMode::Binary)),
        Negotiation::Hello(FrameMode::Binary)
    );
    assert_eq!(negotiate(r#"{"op":"list"}"#), Negotiation::NotHello);
    assert_eq!(negotiate("not json"), Negotiation::NotHello);
    assert!(matches!(
        negotiate(r#"{"op":"hello","frame":"gzip"}"#),
        Negotiation::Reject(_)
    ));
}
