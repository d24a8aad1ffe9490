//! Crash/recover identity: a server killed mid-trace and restarted with
//! `--restore` must answer the remainder of the trace **byte-identically**
//! to a server that never crashed — at every cut point, through snapshot
//! rotations, at any worker count, and across a warm-standby promotion.
//!
//! The process-level version of this (a real `kill -9` of a durable
//! 4-worker `cosched serve`, restarted with `--restore`) is
//! `crates/experiments/tests/cli.rs`; these tests pin the same contract
//! at the library and socket layers, where every cut point is cheap to
//! sweep.

mod common;

use common::{create_request, exchange, shutdown, spawn_server_with, subtrace};
use experiments::serve::wal::recover_shard;
use experiments::serve::{build_states, handle_line, Durability, ServeConfig, Server, Standby};
use minijson::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cosched-recover-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A mutation-heavy trace over two instances, ending with `"auto"` solves
/// so recovery must also reproduce the tuner's learned state.
fn trace() -> Vec<String> {
    let mut lines = vec![create_request(0)];
    lines.extend(subtrace(0, 0));
    lines.push(create_request(1));
    for seed in 0..4u64 {
        lines.push(format!(
            r#"{{"op":"solve","id":{id},"solver":"auto","seed":{seed},"schedule":false}}"#,
            id = seed % 2,
        ));
    }
    lines
}

/// Runs `lines` through a single durable shard (committing after every
/// request, as the transports do), "crashing" by dropping the state after
/// `cut` requests, recovering from disk, and serving the remainder.
fn crashed_run(lines: &[String], cut: usize, dir: &Path, snapshot_every: u64) -> Vec<String> {
    let mut config = ServeConfig {
        durability: Durability::Log,
        wal_dir: Some(dir.to_path_buf()),
        snapshot_every,
        ..ServeConfig::default()
    };
    let mut state = build_states(&mut config).expect("durable state").remove(0);
    let mut responses = Vec::new();
    for line in &lines[..cut] {
        responses.push(handle_line(&mut state, line));
        state.wal_commit();
        state.wal_maybe_snapshot();
    }
    drop(state); // the crash: no rotation, no clean shutdown

    // `recover_shard` is also reachable directly (what `Standby` uses);
    // the serve defaults passed here must match the crashed server's.
    recover_shard(dir, 0, 1, "DominantMinRatio", 0xC05).expect("recover");
    let mut config = ServeConfig {
        durability: Durability::Log,
        wal_dir: Some(dir.to_path_buf()),
        restore: true,
        snapshot_every,
        ..ServeConfig::default()
    };
    let mut state = build_states(&mut config).expect("restored state").remove(0);
    for line in &lines[cut..] {
        responses.push(handle_line(&mut state, line));
        state.wal_commit();
        state.wal_maybe_snapshot();
    }
    responses
}

#[test]
fn every_cut_point_recovers_byte_identically() {
    let lines = trace();
    // The uninterrupted reference: the same requests, no durability.
    let mut reference_state = build_states(&mut ServeConfig::default()).unwrap().remove(0);
    let reference: Vec<String> = lines
        .iter()
        .map(|l| handle_line(&mut reference_state, l))
        .collect();

    for cut in 0..=lines.len() {
        let dir = scratch_dir("cut");
        let responses = crashed_run(&lines, cut, &dir, 1 << 32);
        assert_eq!(
            responses, reference,
            "crash after request {cut} changed a response"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn recovery_composes_with_snapshot_rotation() {
    // `snapshot_every = 3`: several rotations happen mid-trace, so the
    // crash lands in every rotation phase as the cut point sweeps.
    let lines = trace();
    let mut reference_state = build_states(&mut ServeConfig::default()).unwrap().remove(0);
    let reference: Vec<String> = lines
        .iter()
        .map(|l| handle_line(&mut reference_state, l))
        .collect();

    for cut in [0, 2, 3, 4, 7, 11, lines.len()] {
        let dir = scratch_dir("rot");
        let responses = crashed_run(&lines, cut, &dir, 3);
        assert_eq!(
            responses, reference,
            "crash after request {cut} with rotation changed a response"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn sharded_restore_over_sockets_is_byte_identical_and_adopts_the_layout() {
    let dir = scratch_dir("shard");
    let mut full: Vec<String> = (0..4).map(create_request).collect();
    for k in 0..4u64 {
        full.extend(subtrace(k as usize, k));
    }
    full.push(r#"{"op":"stats"}"#.into());
    full.push(r#"{"op":"list"}"#.into());
    let split = full.len() / 2;

    // Reference: one uninterrupted 4-worker server, no durability.
    let (addr, server) = spawn_server_with(|c| c.workers = 4);
    let reference = exchange(addr, &full).expect("reference run");
    shutdown(addr, server);

    // Durable run, part 1, then a restart with `--restore`. The restart
    // asks for 1 worker: the directory's meta.json must override it back
    // to 4 (shard files only compose at the layout they were written with).
    let wal_dir = dir.clone();
    let (addr, server) = spawn_server_with(move |c| {
        c.workers = 4;
        c.durability = Durability::Log;
        c.wal_dir = Some(wal_dir);
    });
    let part1 = exchange(addr, &full[..split]).expect("part 1");
    shutdown(addr, server);

    let wal_dir = dir.clone();
    let (addr, server) = spawn_server_with(move |c| {
        c.workers = 1;
        c.restore = true;
        c.durability = Durability::Log;
        c.wal_dir = Some(wal_dir);
    });
    let part2 = exchange(addr, &full[split..]).expect("part 2");
    let metrics = exchange(addr, &[r#"{"op":"metrics"}"#.to_string()]).expect("metrics");
    shutdown(addr, server);

    let mut rejoined = part1;
    rejoined.extend(part2);
    assert_eq!(rejoined, reference, "restore diverged from the reference");

    // meta.json won: the restarted server serves 4 shards, each reporting
    // its WAL generation.
    let m = Json::parse(&metrics[0]).unwrap();
    assert_eq!(m.get("workers").and_then(Json::as_u64), Some(4), "{m}");
    let shards = m.get("shards").and_then(Json::as_array).unwrap();
    assert_eq!(shards.len(), 4);
    for shard in shards {
        assert!(
            shard.get("wal_records").is_some(),
            "durability is on after restore: {shard}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn promoted_standby_serves_the_remainder_byte_identically() {
    let dir = scratch_dir("standby");
    let mut full: Vec<String> = (0..2).map(create_request).collect();
    for k in 0..2u64 {
        full.extend(subtrace(k as usize, k));
    }
    let split = full.len() / 2;

    let (addr, server) = spawn_server_with(|c| c.workers = 2);
    let reference = exchange(addr, &full).expect("reference run");
    shutdown(addr, server);

    let wal_dir = dir.clone();
    let (addr, server) = spawn_server_with(move |c| {
        c.workers = 2;
        c.durability = Durability::Log;
        c.wal_dir = Some(wal_dir);
    });
    let part1 = exchange(addr, &full[..split]).expect("part 1");
    shutdown(addr, server);

    // The warm replica tails the directory, then takes over serving.
    let mut standby = Standby::open(&dir, "DominantMinRatio", 0xC05).expect("open standby");
    standby.catch_up().expect("catch up");
    assert_eq!(standby.workers(), 2);
    assert_eq!(standby.instances(), 2);

    let mut promoted = Server::bind("127.0.0.1:0").expect("bind");
    promoted.config_mut().allow_shutdown = true;
    let addr = promoted.local_addr().unwrap();
    let states = standby.promote();
    let handle = std::thread::spawn(move || promoted.run_with_states(states));
    let part2 = exchange(addr, &full[split..]).expect("part 2 on the standby");
    exchange(addr, &[r#"{"op":"shutdown"}"#.to_string()]).expect("shutdown");
    handle.join().expect("standby thread").expect("standby run");

    let mut rejoined = part1;
    rejoined.extend(part2);
    assert_eq!(
        rejoined, reference,
        "the promoted standby diverged from the reference"
    );
    std::fs::remove_dir_all(&dir).ok();
}
