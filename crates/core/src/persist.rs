//! Session snapshots: the durable half of the serve stack's WAL.
//!
//! A snapshot is one [`minijson`] document capturing everything a
//! [`Session`] needs to answer future requests exactly as the live session
//! would have: the instances (applications + platform) with their
//! revisions and warm flags, the per-instance solve memo, the id
//! allocator (`next_id` / `id_stride`, so per-shard snapshots compose —
//! shard `k` of `n` owns exactly the ids ≡ `k` (mod `n`)), the lifetime
//! counters, and the `"auto"` tuner's learned [`History`].
//!
//! # What is (deliberately) not stored
//!
//! - **Evaluation scratch space** — a pure cache, rebuilt lazily.
//! - **Per-member wall times** of the tuner — a reporting signal the
//!   explore-then-commit policy never consults (pinned by the tune tests:
//!   decisions are wall-clock-independent), and the one field that could
//!   never round-trip deterministically. Restored as zero.
//!
//! # Round-trip guarantees
//!
//! `restore(&snapshot(&s))` yields a session whose *observable* behaviour
//! is identical to `s`: same ids, same revisions, same memoized outcomes
//! (bit-for-bit — `minijson` prints floats in round-trip-exact shortest
//! form), same warm/cold classification of the next solve, same tuner
//! decisions. `snapshot ∘ restore ∘ snapshot` is the identity on snapshot
//! strings, which the tests pin.
//!
//! Seeds are stored as decimal **strings**: they are arbitrary `u64` bit
//! patterns and a JSON number only holds 53 bits exactly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use minijson::Json;

use crate::eval::EvalStats;
use crate::model::{Application, Platform};
use crate::session::{Entry, LastSolve, Session, SessionStats};
use crate::solver::Instance;
use crate::theory::Partition;
use crate::tune::{Auto, BucketHistory, History, MemberObs, Signature, TuneConfig, TunerStats};
use crate::{Outcome, Schedule};

/// Schema version written into every snapshot; restore rejects others.
pub const FORMAT: u64 = 1;

/// Serializes `session` into a self-contained snapshot document.
pub fn snapshot_session(session: &Session) -> Json {
    let instances = session
        .entries
        .iter()
        .map(|(&id, entry)| entry_to_json(id, entry));
    let history = session.auto.history_clone();
    Json::obj([
        ("format", Json::from(FORMAT)),
        ("next_id", Json::from(session.next_id)),
        ("id_stride", Json::from(session.id_stride)),
        ("stats", stats_to_json(&session.stats)),
        ("instances", Json::Arr(instances.collect())),
        (
            "tuner",
            history_to_json(&history, session.auto.member_names()),
        ),
    ])
}

/// Serializes `session` straight to the snapshot's wire form.
pub fn snapshot_session_string(session: &Session) -> String {
    snapshot_session(session).to_string()
}

/// Rebuilds a session from a snapshot document.
///
/// Instances go back through [`Instance::new`] — the same validation and
/// derived-state construction as a live `create` — so a restored session
/// is correct by construction, not by trusting the file. The tuner's
/// member columns must line up with the current solver registry; a
/// snapshot from a build with a different registry is rejected rather
/// than silently mis-attributing observations.
///
/// # Errors
/// A human-readable description of the first structural, domain, or
/// registry mismatch encountered.
pub fn restore_session(doc: &Json) -> Result<Session, String> {
    let format = u64_field(doc, "format")?;
    if format != FORMAT {
        return Err(format!(
            "unsupported snapshot format {format} (this build reads {FORMAT})"
        ));
    }
    let next_id = u64_field(doc, "next_id")?;
    let id_stride = u64_field(doc, "id_stride")?;
    if id_stride == 0 {
        return Err("id_stride must be at least 1".into());
    }
    let stats = stats_from_json(field(doc, "stats")?)?;

    let mut entries = BTreeMap::new();
    for (slot, item) in arr_field(doc, "instances")?.iter().enumerate() {
        let (id, entry) = entry_from_json(item).map_err(|e| format!("instances[{slot}]: {e}"))?;
        if entries.insert(id, entry).is_some() {
            return Err(format!("instances[{slot}]: duplicate id {id}"));
        }
    }
    for &id in entries.keys() {
        if id % id_stride != next_id % id_stride {
            return Err(format!(
                "instance id {id} is not on the shard's id sequence \
                 (stride {id_stride}, next {next_id})"
            ));
        }
    }

    let history = history_from_json(field(doc, "tuner")?)?;
    let auto = Arc::new(Auto::with_history(history));

    Ok(Session::from_restored(
        entries, next_id, id_stride, stats, auto,
    ))
}

/// [`restore_session`] from the wire form.
pub fn restore_session_str(text: &str) -> Result<Session, String> {
    let doc = Json::parse(text).map_err(|e| format!("snapshot is not valid JSON: {e}"))?;
    restore_session(&doc)
}

// --- per-field codecs -------------------------------------------------

fn stats_to_json(stats: &SessionStats) -> Json {
    Json::obj([
        ("instances_created", Json::from(stats.instances_created)),
        ("mutations", Json::from(stats.mutations)),
        ("solves", Json::from(stats.solves)),
        ("incremental_solves", Json::from(stats.incremental_solves)),
        ("cold_solves", Json::from(stats.cold_solves)),
        ("memo_hits", Json::from(stats.memo_hits)),
        ("kernel_calls", Json::from(stats.eval.kernel_calls)),
        ("apps_evaluated", Json::from(stats.eval.apps_evaluated)),
        ("tuner", tuner_stats_to_json(&stats.tuner)),
    ])
}

fn stats_from_json(v: &Json) -> Result<SessionStats, String> {
    Ok(SessionStats {
        instances_created: u64_field(v, "instances_created")?,
        mutations: u64_field(v, "mutations")?,
        solves: u64_field(v, "solves")?,
        incremental_solves: u64_field(v, "incremental_solves")?,
        cold_solves: u64_field(v, "cold_solves")?,
        memo_hits: u64_field(v, "memo_hits")?,
        eval: EvalStats {
            kernel_calls: u64_field(v, "kernel_calls")?,
            apps_evaluated: u64_field(v, "apps_evaluated")?,
        },
        tuner: tuner_stats_from_json(field(v, "tuner")?)?,
    })
}

fn tuner_stats_to_json(stats: &TunerStats) -> Json {
    Json::obj([
        ("explored", Json::from(stats.explored)),
        ("committed", Json::from(stats.committed)),
        ("challenger_wins", Json::from(stats.challenger_wins)),
        ("member_solves", Json::from(stats.member_solves)),
    ])
}

fn tuner_stats_from_json(v: &Json) -> Result<TunerStats, String> {
    Ok(TunerStats {
        explored: u64_field(v, "explored")?,
        committed: u64_field(v, "committed")?,
        challenger_wins: u64_field(v, "challenger_wins")?,
        member_solves: u64_field(v, "member_solves")?,
    })
}

fn entry_to_json(id: u64, entry: &Entry) -> Json {
    let mut pairs = vec![
        ("id", Json::from(id)),
        ("revision", Json::from(entry.revision)),
        ("warm", Json::from(entry.warm)),
        ("platform", platform_to_json(entry.instance.platform())),
        (
            "apps",
            Json::Arr(entry.instance.apps().iter().map(app_to_json).collect()),
        ),
    ];
    if let Some(last) = &entry.last {
        // A stale memo (taken before a later mutation bumped the revision)
        // can never hit — the memo tier checks revision equality — so it is
        // dropped rather than stored: its schedule may cover an app list
        // the instance no longer has, which restore would rightly reject.
        if last.revision == entry.revision {
            pairs.push(("last", last_to_json(last)));
        }
    }
    Json::obj(pairs)
}

fn entry_from_json(v: &Json) -> Result<(u64, Entry), String> {
    let id = u64_field(v, "id")?;
    let platform = platform_from_json(field(v, "platform")?)?;
    let apps = arr_field(v, "apps")?
        .iter()
        .enumerate()
        .map(|(i, a)| app_from_json(a).map_err(|e| format!("apps[{i}]: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let instance =
        Instance::new(apps, platform).map_err(|e| format!("instance {id} re-validation: {e}"))?;
    let last = match v.get("last") {
        Some(l) => Some(last_from_json(l, instance.len())?),
        None => None,
    };
    Ok((
        id,
        Entry {
            instance,
            revision: u64_field(v, "revision")?,
            warm: bool_field(v, "warm")?,
            last,
        },
    ))
}

fn platform_to_json(p: &Platform) -> Json {
    Json::obj([
        ("processors", Json::from(p.processors)),
        ("cache_size", Json::from(p.cache_size)),
        ("ref_cache_size", Json::from(p.ref_cache_size)),
        ("latency_cache", Json::from(p.latency_cache)),
        ("latency_mem", Json::from(p.latency_mem)),
        ("alpha", Json::from(p.alpha)),
    ])
}

fn platform_from_json(v: &Json) -> Result<Platform, String> {
    Ok(Platform {
        processors: f64_field(v, "processors")?,
        cache_size: f64_field(v, "cache_size")?,
        ref_cache_size: f64_field(v, "ref_cache_size")?,
        latency_cache: f64_field(v, "latency_cache")?,
        latency_mem: f64_field(v, "latency_mem")?,
        alpha: f64_field(v, "alpha")?,
    })
}

/// Serializes one application: `name`, `work`, `seq_fraction`,
/// `access_freq`, `miss_rate_ref`, then `footprint` only when it is finite
/// (the unbounded default travels as absence — JSON has no `inf`).
///
/// The one writer of application objects, for snapshots and for the serve
/// wire format alike; the two readers differ (the wire reader defaults
/// `seq_fraction`, the snapshot reader requires every field).
pub fn app_to_json(app: &Application) -> Json {
    let mut pairs = vec![
        ("name", Json::from(app.name.as_str())),
        ("work", Json::from(app.work)),
        ("seq_fraction", Json::from(app.seq_fraction)),
        ("access_freq", Json::from(app.access_freq)),
        ("miss_rate_ref", Json::from(app.miss_rate_ref)),
    ];
    if app.footprint.is_finite() {
        pairs.push(("footprint", Json::from(app.footprint)));
    }
    Json::obj(pairs)
}

fn app_from_json(v: &Json) -> Result<Application, String> {
    Ok(Application {
        name: str_field(v, "name")?.to_string(),
        work: f64_field(v, "work")?,
        seq_fraction: f64_field(v, "seq_fraction")?,
        access_freq: f64_field(v, "access_freq")?,
        footprint: match v.get("footprint") {
            Some(f) => f
                .as_f64()
                .ok_or_else(|| "footprint must be a number".to_string())?,
            None => f64::INFINITY,
        },
        miss_rate_ref: f64_field(v, "miss_rate_ref")?,
    })
}

fn last_to_json(last: &LastSolve) -> Json {
    let outcome = &last.outcome;
    let (procs, cache): (Vec<Json>, Vec<Json>) = outcome
        .schedule
        .assignments
        .iter()
        .map(|a| (Json::from(a.procs), Json::from(a.cache)))
        .unzip();
    Json::obj([
        ("solver", Json::from(last.solver.as_str())),
        // Decimal string: seeds are arbitrary 64-bit patterns.
        ("seed", Json::from(last.seed.to_string())),
        ("revision", Json::from(last.revision)),
        ("makespan", Json::from(outcome.makespan)),
        ("concurrent", Json::from(outcome.concurrent)),
        (
            "partition",
            Json::Arr(
                outcome
                    .partition
                    .members()
                    .iter()
                    .map(|&m| Json::from(m))
                    .collect(),
            ),
        ),
        ("procs", Json::Arr(procs)),
        ("cache", Json::Arr(cache)),
        ("kernel_calls", Json::from(outcome.eval_stats.kernel_calls)),
        (
            "apps_evaluated",
            Json::from(outcome.eval_stats.apps_evaluated),
        ),
        ("optimal", Json::from(outcome.optimal)),
    ])
}

fn last_from_json(v: &Json, n_apps: usize) -> Result<LastSolve, String> {
    let seed_text = str_field(v, "seed")?;
    let seed: u64 = seed_text
        .parse()
        .map_err(|_| format!("seed {seed_text:?} is not a u64"))?;
    let procs = f64_array(v, "procs")?;
    let cache = f64_array(v, "cache")?;
    if procs.len() != cache.len() || procs.len() != n_apps {
        return Err(format!(
            "memoized schedule covers {}/{} applications",
            procs.len().min(cache.len()),
            n_apps
        ));
    }
    let partition = arr_field(v, "partition")?
        .iter()
        .map(|m| {
            m.as_usize()
                .ok_or_else(|| "partition members must be indices".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(m) = partition.iter().find(|&&m| m >= n_apps) {
        return Err(format!(
            "memoized partition names application {m} of {n_apps}"
        ));
    }
    let makespan = f64_field(v, "makespan")?;
    Ok(LastSolve {
        solver: str_field(v, "solver")?.to_string(),
        seed,
        revision: u64_field(v, "revision")?,
        outcome: Outcome {
            makespan,
            schedule: Schedule::from_parts(&procs, &cache),
            partition: Partition::new(partition),
            concurrent: bool_field(v, "concurrent")?,
            eval_stats: EvalStats {
                kernel_calls: u64_field(v, "kernel_calls")?,
                apps_evaluated: u64_field(v, "apps_evaluated")?,
            },
            // Absent in snapshots taken before the flag existed: a
            // memoized heuristic solve carries no optimality proof.
            optimal: v.get("optimal").and_then(Json::as_bool).unwrap_or(false),
        },
    })
}

fn history_to_json(history: &History, member_names: &[String]) -> Json {
    let config = history.config();
    let buckets = history.buckets().map(|(sig, bucket)| {
        Json::obj([
            ("signature", signature_to_json(sig)),
            ("rounds", Json::from(bucket.rounds)),
            ("committed", Json::from(bucket.committed)),
            (
                "members",
                Json::Arr(bucket.members.iter().map(member_obs_to_json).collect()),
            ),
        ])
    });
    Json::obj([
        (
            "config",
            Json::obj([
                ("explore_rounds", Json::from(config.explore_rounds)),
                ("challenger_period", Json::from(config.challenger_period)),
                ("window", Json::from(config.window)),
            ]),
        ),
        ("stats", tuner_stats_to_json(&history.stats())),
        (
            "members",
            Json::arr(member_names.iter().map(|name| Json::from(name.as_str()))),
        ),
        ("buckets", Json::Arr(buckets.collect())),
    ])
}

fn history_from_json(v: &Json) -> Result<History, String> {
    // The member columns of every bucket are positional; they only mean
    // anything if this build's registry is the one that wrote them.
    let registry: Vec<String> = crate::solver::all().iter().map(|s| s.name()).collect();
    let stored: Vec<&str> = arr_field(v, "members")?
        .iter()
        .map(|m| {
            m.as_str()
                .ok_or_else(|| "tuner member names must be strings".to_string())
        })
        .collect::<Result<_, _>>()?;
    if stored != registry.iter().map(String::as_str).collect::<Vec<_>>() {
        return Err(format!(
            "tuner member registry mismatch: snapshot has {stored:?}, this build has {registry:?}"
        ));
    }

    let config_v = field(v, "config")?;
    let config = TuneConfig {
        explore_rounds: u64_field(config_v, "explore_rounds")?,
        challenger_period: u64_field(config_v, "challenger_period")?,
        // Absent in snapshots written before the window existed: those
        // histories were unbounded by construction.
        window: config_v.get("window").and_then(Json::as_u64).unwrap_or(0),
    };
    let stats = tuner_stats_from_json(field(v, "stats")?)?;

    let mut buckets = BTreeMap::new();
    for (slot, item) in arr_field(v, "buckets")?.iter().enumerate() {
        let err = |e: String| format!("tuner buckets[{slot}]: {e}");
        let signature = signature_from_json(field(item, "signature").map_err(err)?)
            .map_err(|e| format!("tuner buckets[{slot}]: {e}"))?;
        let members = arr_field(item, "members")
            .map_err(err)?
            .iter()
            .map(member_obs_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("tuner buckets[{slot}]: {e}"))?;
        if members.len() != registry.len() {
            return Err(format!(
                "tuner buckets[{slot}]: {} member columns for a {}-solver registry",
                members.len(),
                registry.len()
            ));
        }
        let bucket = BucketHistory {
            rounds: u64_field(item, "rounds").map_err(err)?,
            committed: u64_field(item, "committed").map_err(err)?,
            members,
        };
        if buckets.insert(signature, bucket).is_some() {
            return Err(format!("tuner buckets[{slot}]: duplicate signature"));
        }
    }
    Ok(History::from_parts(config, buckets, stats))
}

fn signature_to_json(sig: &Signature) -> Json {
    Json::obj([
        ("n", Json::from(sig.n)),
        ("processors", Json::from(sig.processors)),
        ("cache", Json::from(sig.cache)),
        ("alpha", Json::from(sig.alpha)),
        ("spread", Json::from(sig.spread)),
    ])
}

fn signature_from_json(v: &Json) -> Result<Signature, String> {
    Ok(Signature {
        n: i32_field(v, "n")?,
        processors: i32_field(v, "processors")?,
        cache: i32_field(v, "cache")?,
        alpha: i32_field(v, "alpha")?,
        spread: i32_field(v, "spread")?,
    })
}

fn member_obs_to_json(obs: &MemberObs) -> Json {
    Json::obj([
        ("observations", Json::from(obs.observations)),
        ("wins", Json::from(obs.wins)),
        ("ratio_sum", Json::from(obs.ratio_sum)),
        ("recent_obs", Json::from(obs.recent_obs)),
        ("recent_ratio_sum", Json::from(obs.recent_ratio_sum)),
        ("kernel_calls", Json::from(obs.eval.kernel_calls)),
        ("apps_evaluated", Json::from(obs.eval.apps_evaluated)),
        // wall time deliberately dropped — see the module docs.
    ])
}

fn member_obs_from_json(v: &Json) -> Result<MemberObs, String> {
    Ok(MemberObs {
        observations: u64_field(v, "observations")?,
        wins: u64_field(v, "wins")?,
        ratio_sum: f64_field(v, "ratio_sum")?,
        // Absent in pre-window snapshots; 0 = "nothing recent observed".
        recent_obs: v.get("recent_obs").and_then(Json::as_f64).unwrap_or(0.0),
        recent_ratio_sum: v
            .get("recent_ratio_sum")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        eval: EvalStats {
            kernel_calls: u64_field(v, "kernel_calls")?,
            apps_evaluated: u64_field(v, "apps_evaluated")?,
        },
        wall: Duration::ZERO,
    })
}

// --- field plumbing ---------------------------------------------------

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} must be a number"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} must be an unsigned integer"))
}

fn i32_field(v: &Json, key: &str) -> Result<i32, String> {
    let n = field(v, key)?
        .as_i64()
        .ok_or_else(|| format!("field {key:?} must be an integer"))?;
    i32::try_from(n).map_err(|_| format!("field {key:?} is out of i32 range"))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} must be a boolean"))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("field {key:?} must be an array"))
}

fn f64_array(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    arr_field(v, key)?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("field {key:?} must hold numbers"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Application, Platform};
    use crate::session::InstanceId;

    fn apps(k: usize) -> Vec<Application> {
        (0..3)
            .map(|i| {
                Application::new(
                    format!("A{i}"),
                    5.70e10 * (1.0 + 0.01 * (k as f64 + i as f64)),
                    0.05,
                    0.535,
                    6.59e-4,
                )
            })
            .collect()
    }

    fn loaded_session() -> Session {
        let mut s = Session::new();
        for k in 0..3 {
            s.create(apps(k), Platform::taihulight()).unwrap();
        }
        // Exercise every memo/warm path: cold solve, mutation, incremental
        // re-solve, a second solver, the autotuner, and a close.
        for seed in [7, 8] {
            s.resolve_by_name(InstanceId::from_raw(0), "DominantMinRatio", seed)
                .unwrap();
        }
        s.handle(InstanceId::from_raw(1))
            .unwrap()
            .add_app(Application::new("X", 1.0e10, 0.0, 0.4, 1e-3))
            .unwrap();
        s.resolve_by_name(InstanceId::from_raw(1), "DominantRefined", 42)
            .unwrap();
        for seed in 0..6 {
            s.resolve_by_name(InstanceId::from_raw(2), "auto", seed)
                .unwrap();
        }
        s.close(InstanceId::from_raw(0)).unwrap();
        s
    }

    #[test]
    fn empty_session_round_trips_to_identical_snapshot() {
        let s = Session::new();
        let snap = snapshot_session_string(&s);
        let restored = restore_session_str(&snap).unwrap();
        assert_eq!(snapshot_session_string(&restored), snap);
        assert_eq!(restored.len(), 0);
    }

    #[test]
    fn loaded_session_round_trips_to_identical_snapshot() {
        let s = loaded_session();
        let snap = snapshot_session_string(&s);
        let restored = restore_session_str(&snap).unwrap();
        assert_eq!(
            snapshot_session_string(&restored),
            snap,
            "snapshot ∘ restore must be the identity on snapshot strings"
        );
        assert_eq!(restored.len(), s.len());
        assert_eq!(restored.list(), s.list());
        assert_eq!(restored.stats(), s.stats());
    }

    #[test]
    fn restored_session_answers_bit_identically() {
        let mut live = loaded_session();
        let mut restored = restore_session_str(&snapshot_session_string(&live)).unwrap();

        // Memo hit: same (revision, solver, seed) as before the snapshot.
        let a = live
            .resolve_by_name(InstanceId::from_raw(1), "DominantRefined", 42)
            .unwrap();
        let b = restored
            .resolve_by_name(InstanceId::from_raw(1), "DominantRefined", 42)
            .unwrap();
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(
            live.stats().memo_hits,
            restored.stats().memo_hits,
            "the restored memo must serve the hit the live session serves"
        );

        // Fresh work after the snapshot: mutation + incremental re-solve,
        // and further auto decisions (the learned history must carry over).
        for s in [&mut live, &mut restored] {
            s.handle(InstanceId::from_raw(1))
                .unwrap()
                .update_app(0, Application::new("A0", 6.0e10, 0.05, 0.535, 6.59e-4))
                .unwrap();
        }
        let a = live
            .resolve_by_name(InstanceId::from_raw(1), "DominantMinRatio", 9)
            .unwrap();
        let b = restored
            .resolve_by_name(InstanceId::from_raw(1), "DominantMinRatio", 9)
            .unwrap();
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        for seed in 6..10 {
            let a = live
                .resolve_by_name(InstanceId::from_raw(2), "auto", seed)
                .unwrap();
            let b = restored
                .resolve_by_name(InstanceId::from_raw(2), "auto", seed)
                .unwrap();
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "seed {seed}");
        }
        assert_eq!(live.stats(), restored.stats());
    }

    #[test]
    fn stale_memos_are_dropped_not_snapshotted() {
        // A memo taken at an older revision can never hit (the memo tier
        // checks revision equality), and after an app-count-changing
        // mutation its schedule no longer matches the instance — restore
        // would reject it. The snapshot must omit it.
        let mut s = Session::new();
        s.create(apps(0), Platform::taihulight()).unwrap();
        let id = InstanceId::from_raw(0);
        s.resolve_by_name(id, "DominantMinRatio", 7).unwrap();
        s.handle(id).unwrap().remove_app(1).unwrap(); // memo now stale
        let snap = snapshot_session_string(&s);
        assert!(
            !snap.contains(r#""last""#),
            "a stale memo leaked into the snapshot: {snap}"
        );
        let restored = restore_session_str(&snap).unwrap();
        assert_eq!(snapshot_session_string(&restored), snap);
        // Both sessions cold-solve the next request the same way.
        let mut live = s;
        let a = live.resolve_by_name(id, "DominantMinRatio", 7).unwrap();
        let mut restored = restored;
        let b = restored.resolve_by_name(id, "DominantMinRatio", 7).unwrap();
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(live.stats().memo_hits, restored.stats().memo_hits);
    }

    #[test]
    fn id_stride_and_next_id_survive() {
        let mut s = Session::with_id_stride(2, 4);
        s.create(apps(0), Platform::taihulight()).unwrap();
        let restored = restore_session_str(&snapshot_session_string(&s)).unwrap();
        assert_eq!(
            snapshot_session_string(&restored),
            snapshot_session_string(&s)
        );
        let mut live = s;
        let mut back = restored;
        let a = live.create(apps(1), Platform::taihulight()).unwrap();
        let b = back.create(apps(1), Platform::taihulight()).unwrap();
        assert_eq!(a, b, "the id allocator must resume where it stopped");
        assert_eq!(a.raw(), 6, "first + stride after one create on (2, 4)");
    }

    #[test]
    fn infinite_footprint_travels_as_absence() {
        let mut s = Session::new();
        let mut a = apps(0);
        a[1] = a[1].clone().with_footprint(2.5e9);
        s.create(a, Platform::taihulight()).unwrap();
        let snap = snapshot_session_string(&s);
        assert_eq!(
            snap.matches("\"footprint\"").count(),
            1,
            "only the finite footprint may appear: {snap}"
        );
        let restored = restore_session_str(&snap).unwrap();
        let apps = restored
            .instance(InstanceId::from_raw(0))
            .unwrap()
            .apps()
            .to_vec();
        assert!(apps[0].footprint.is_infinite());
        assert_eq!(apps[1].footprint, 2.5e9);
    }

    #[test]
    fn restore_rejects_structural_damage() {
        let s = loaded_session();
        let good = snapshot_session_string(&s);

        // Wrong format version.
        let bad = good.replacen("\"format\":1", "\"format\":99", 1);
        assert!(restore_session_str(&bad).unwrap_err().contains("format"));

        // A mutilated member registry.
        let bad = good.replacen("DominantMinRatio", "NoSuchSolver", 1);
        assert!(restore_session_str(&bad)
            .unwrap_err()
            .contains("registry mismatch"));

        // Out-of-domain application parameters fail Instance validation.
        let bad = good.replacen("\"seq_fraction\":0.05", "\"seq_fraction\":1.5", 1);
        assert!(restore_session_str(&bad)
            .unwrap_err()
            .contains("re-validation"));

        // A memo whose partition names an application the instance does
        // not have.
        let bad = good.replacen("\"partition\":[", "\"partition\":[9,", 1);
        assert!(restore_session_str(&bad)
            .unwrap_err()
            .contains("partition names application 9"));

        // Not JSON at all.
        assert!(restore_session_str("{").is_err());
    }

    /// One flipped bit, one substituted byte, or a truncation of `bytes`,
    /// at `pos` modulo the length.
    fn mutate(bytes: &[u8], kind: u64, pos: u64, byte: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let at = (pos % bytes.len() as u64) as usize;
        match kind {
            0 => out[at] ^= 1 << (pos % 8),
            1 => out[at] = byte,
            _ => out.truncate(at),
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Mutants of a loaded session's snapshot never panic the restore:
        /// it fails, or it yields a session whose snapshot restores to
        /// itself and which re-solves every instance without panicking.
        #[test]
        fn mutated_snapshots_fail_or_restore_to_a_fixed_point(
            kind in 0u64..3,
            pos in 0u64..u64::MAX,
            byte in 0u64..256,
        ) {
            static GOOD: std::sync::OnceLock<String> = std::sync::OnceLock::new();
            let good = GOOD.get_or_init(|| snapshot_session_string(&loaded_session()));
            let mutant = mutate(good.as_bytes(), kind, pos, byte as u8);
            let Ok(mut session) = restore_session_str(&String::from_utf8_lossy(&mutant)) else {
                return Ok(());
            };
            let snap = snapshot_session_string(&session);
            let again = restore_session_str(&snap).expect("a restored snapshot restores");
            proptest::prop_assert_eq!(snapshot_session_string(&again), snap);
            let ids: Vec<u64> = session.entries.keys().copied().collect();
            for id in ids {
                for name in ["DominantMinRatio", "DominantRefined", "auto"] {
                    let _ = session.resolve_by_name(InstanceId::from_raw(id), name, 7);
                }
            }
        }
    }

    #[test]
    fn sharded_snapshots_compose() {
        // Shards 0 and 1 of 2: disjoint id sequences, independently
        // snapshotted and restored, keep answering like the originals.
        let mut shards: Vec<Session> = (0..2).map(|k| Session::with_id_stride(k, 2)).collect();
        for (m, shard) in [0usize, 1, 0, 1].iter().enumerate() {
            let id = shards[*shard]
                .create(apps(m), Platform::taihulight())
                .unwrap();
            assert_eq!(id.raw(), m as u64);
        }
        for (k, shard) in shards.iter_mut().enumerate() {
            let restored = restore_session_str(&snapshot_session_string(shard)).unwrap();
            assert_eq!(
                snapshot_session_string(&restored),
                snapshot_session_string(shard),
                "shard {k}"
            );
        }
    }
}
