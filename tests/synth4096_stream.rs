//! Pins a 4096-application reply stream: a seeded `NpbSynth` create, then
//! reschedules as the benchmark sends them (an `update_app` on a rotating
//! index and a `DominantMinRatio` solve), all through `handle_line`.
//!
//! At n = 6 a cost kernel that rounds one application's `x^α` differently
//! shows in well under one instance in a hundred. Here every solve covers
//! 4096 fractions, and every fifth solve asks for the schedule, whose
//! per-application `procs` and `cache` print the bits of each cost. The
//! stream runs twice: on the default LLC, where every application shares
//! the cache, and on a 10 MB LLC, where the dominant partition leaves
//! most of them out.
//!
//! Each run asserts a 64-bit FNV-1a digest of every reply, and one of the
//! makespan bits of every solve, so a failure says whether the makespans
//! moved or only the schedules.

use experiments::serve::{app_to_json, handle_line, ServeState};
use minijson::Json;
use rand::RngExt as _;
use workloads::{seeded_rng, Dataset, SeqFraction, NPB_TABLE};

const APPS: usize = 4096;
const STEPS: u64 = 60;

/// FNV-1a, 64-bit, continued from `hash`.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The stream's requests: the create (on a `cache_size`-byte LLC when
/// given), then `STEPS` reschedules.
fn requests(seed: u64, cache_size: Option<f64>) -> Vec<String> {
    let mut rng = seeded_rng(seed);
    let apps = Dataset::NpbSynth.generate(APPS, SeqFraction::paper_default(), &mut rng);
    let mut create = vec![
        ("op", Json::from("create")),
        ("apps", Json::arr(apps.iter().map(app_to_json))),
    ];
    if let Some(cs) = cache_size {
        create.push(("platform", Json::obj([("cache_size", Json::from(cs))])));
    }
    let mut lines = vec![Json::obj(create).to_string()];
    for step in 0..STEPS {
        let index = (step as usize).wrapping_mul(7919) % APPS;
        let base = &NPB_TABLE[index % NPB_TABLE.len()];
        let seq = rng.random_range(0.01..=0.15);
        let work = rng.random_range(1e8..=1e12);
        let app = coschedule::model::Application::new(
            format!("{}-{index}", base.name),
            work,
            seq,
            base.access_freq,
            base.miss_rate_40mb,
        );
        lines.push(
            Json::obj([
                ("op", Json::from("mutate")),
                ("id", Json::from(0u64)),
                ("action", Json::from("update_app")),
                ("index", Json::from(index)),
                ("app", app_to_json(&app)),
            ])
            .to_string(),
        );
        lines.push(
            Json::obj([
                ("op", Json::from("solve")),
                ("id", Json::from(0u64)),
                ("solver", Json::from("DominantMinRatio")),
                ("seed", Json::from(42u64)),
                ("schedule", Json::from(step % 5 == 4)),
            ])
            .to_string(),
        );
    }
    lines
}

/// `(digest of every reply, digest of the solves' makespan bits, solves)`.
fn digests(seed: u64, cache_size: Option<f64>) -> (u64, u64, usize) {
    let mut state = ServeState::new();
    let (mut replies, mut makespans, mut solves) = (FNV_BASIS, FNV_BASIS, 0);
    for line in requests(seed, cache_size) {
        let reply = handle_line(&mut state, &line);
        assert!(
            reply.starts_with(r#"{"ok":true"#),
            "{line:.200}: {reply:.300}"
        );
        replies = fnv1a64(replies, reply.as_bytes());
        replies = fnv1a64(replies, b"\n");
        if line.contains(r#""op":"solve""#) {
            let doc = Json::parse(&reply).expect("a solve reply parses");
            let makespan = doc
                .get("makespan")
                .and_then(Json::as_f64)
                .expect("a solve reply has a makespan");
            makespans = fnv1a64(makespans, &makespan.to_bits().to_le_bytes());
            solves += 1;
        }
    }
    (replies, makespans, solves)
}

#[test]
fn a_4096_app_reschedule_stream_on_the_default_llc_is_pinned() {
    let (replies, makespans, solves) = digests(1, None);
    assert_eq!(solves, STEPS as usize);
    assert_eq!(
        (makespans, replies),
        (0xc15e_9d65_8c48_f24c, 0x1605_ab25_c13d_6080),
        "makespan digest, then reply digest"
    );
}

#[test]
fn a_4096_app_reschedule_stream_on_a_10_mb_llc_is_pinned() {
    let (replies, makespans, solves) = digests(1, Some(10e6));
    assert_eq!(solves, STEPS as usize);
    assert_eq!(
        (makespans, replies),
        (0x3069_92f7_57f7_9630, 0x3429_ff85_91b3_2cd4),
        "makespan digest, then reply digest"
    );
}
