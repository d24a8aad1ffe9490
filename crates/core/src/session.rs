//! Long-lived solving sessions: mutable revisioned instances and
//! incremental re-solve.
//!
//! The paper's setting is an *online* co-scheduling service: applications
//! arrive at and leave a shared cache-partitioned platform, and the
//! scheduler re-optimizes on every change. The one-shot
//! [`Instance`] → [`Solver`] API forces each change through full
//! re-validation, [`EvalSet`](crate::eval::EvalSet) re-derivation and a
//! cold solve; a [`Session`] instead keeps validated instances alive
//! behind [`InstanceId`]s and patches the derived state in place:
//!
//! * [`InstanceHandle::add_app`] / [`InstanceHandle::remove_app`] /
//!   [`InstanceHandle::update_app`] validate only the changed application
//!   and patch **one** [`EvalSet`](crate::eval::EvalSet) column (the other
//!   `n - 1` columns are untouched);
//! * [`InstanceHandle::set_platform`] is the cold path — every derived
//!   quantity depends on the platform, so all state is rebuilt;
//! * [`Session::resolve`] re-solves warm: the patched instance and a
//!   recycled [`EvalScratch`] (buffers sized by earlier solves) feed the
//!   solver; through [`Session::resolve_by_name`] an unchanged
//!   `(revision, name, seed)` triple additionally returns the memoized
//!   previous [`Outcome`] without solving at all.
//!
//! Patching uses exactly the expressions `Instance::new` evaluates, and the
//! solver re-runs its canonical numeric path on the patched state, so an
//! incremental re-solve is **bit-identical** to a cold solve of the mutated
//! instance — for every registered solver, randomized ones included
//! (pinned by `tests/session_golden.rs`). What the session saves is the
//! per-change rebuild: validation, `EvalSet` derivation, and every
//! allocation a cold solve pays for (see `benches/incremental.rs`).
//!
//! # Example
//!
//! ```
//! use coschedule::model::{Application, Platform};
//! use coschedule::session::Session;
//! use coschedule::solver::{self, Instance, SolveCtx};
//!
//! let mut session = Session::new();
//! let id = session
//!     .create(
//!         vec![
//!             Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4),
//!             Application::new("BT", 2.10e11, 0.05, 0.829, 7.31e-3),
//!         ],
//!         Platform::taihulight(),
//!     )
//!     .unwrap();
//!
//! // A third application joins: one eval column is patched in place.
//! let lu = Application::new("LU", 1.52e11, 0.05, 0.750, 1.51e-3);
//! session.handle(id).unwrap().add_app(lu).unwrap();
//!
//! // Incremental re-solve, bit-identical to a cold solve of the same
//! // three applications.
//! let warm = session.resolve_by_name(id, "DominantMinRatio", 42).unwrap();
//! let cold_instance = Instance::new(
//!     session.instance(id).unwrap().apps().to_vec(),
//!     Platform::taihulight(),
//! )
//! .unwrap();
//! let cold = solver::by_name("DominantMinRatio")
//!     .unwrap()
//!     .solve(&cold_instance, &mut SolveCtx::seeded(42))
//!     .unwrap();
//! assert_eq!(warm, cold);
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::algo::Outcome;
use crate::error::{CoschedError, Result};
use crate::eval::{EvalScratch, EvalStats};
use crate::model::{Application, Platform};
use crate::solver::{Instance, SolveCtx, Solver};
use crate::tune::{Auto, TunerStats};

/// Opaque handle to one live instance of a [`Session`].
///
/// Ids are unique for the lifetime of the session and never reused, so a
/// stale id held after [`Session::close`] fails loudly
/// ([`CoschedError::UnknownInstance`]) instead of addressing a newer
/// instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(u64);

impl InstanceId {
    /// The raw id (what the wire protocol of `cosched serve` transports).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from a raw id (e.g. parsed from a request).
    /// Resolution is still checked by every [`Session`] operation.
    pub fn from_raw(id: u64) -> Self {
        Self(id)
    }
}

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Aggregate counters of a [`Session`]'s lifetime, exposed by the `stats`
/// op of `cosched serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Instances ever created ([`Session::create`] calls that succeeded).
    pub instances_created: u64,
    /// Mutations applied across all instances (add/remove/update/platform).
    pub mutations: u64,
    /// Solves actually executed (memo hits excluded).
    pub solves: u64,
    /// Solves that ran against warm derived state (a previous solve of the
    /// same instance existed and no platform change intervened).
    pub incremental_solves: u64,
    /// Solves that ran cold (first solve of an instance, or first after a
    /// platform change).
    pub cold_solves: u64,
    /// [`Session::resolve_by_name`] calls answered from the memoized
    /// previous outcome (same revision, registry name, and seed).
    pub memo_hits: u64,
    /// Evaluation-engine work performed by the executed solves.
    pub eval: EvalStats,
    /// Counters of the session's autotuner (advanced only by `"auto"`
    /// resolves; see [`crate::tune`]).
    pub tuner: TunerStats,
}

impl SessionStats {
    /// Adds `other`'s counters into `self` — the cross-shard aggregation
    /// of a sharded server (every field is a sum; keep this next to the
    /// struct so a new counter cannot be added without updating it).
    pub fn merge(&mut self, other: SessionStats) {
        self.instances_created += other.instances_created;
        self.mutations += other.mutations;
        self.solves += other.solves;
        self.incremental_solves += other.incremental_solves;
        self.cold_solves += other.cold_solves;
        self.memo_hits += other.memo_hits;
        self.eval.merge(other.eval);
        self.tuner.merge(other.tuner);
    }
}

/// Public summary of one live instance (the `list` op of `cosched serve`).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceInfo {
    /// The instance's id.
    pub id: InstanceId,
    /// Current revision (0 at creation, +1 per mutation).
    pub revision: u64,
    /// Number of applications.
    pub apps: usize,
    /// Platform processor count `p`.
    pub processors: f64,
    /// Platform LLC size `Cs` in bytes.
    pub cache_size: f64,
}

/// Memoized result of the most recent solve of one instance.
///
/// `pub(crate)` (fields included) for [`crate::persist`], which must
/// serialize the memo so a restored session answers repeat solves from
/// the identical stored outcome.
#[derive(Debug, Clone)]
pub(crate) struct LastSolve {
    pub(crate) solver: String,
    pub(crate) seed: u64,
    pub(crate) revision: u64,
    pub(crate) outcome: Outcome,
}

/// One live instance with its session-level bookkeeping; `pub(crate)` for
/// [`crate::persist`].
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) instance: Instance,
    pub(crate) revision: u64,
    /// `true` once the entry's derived state has been through a solve and
    /// only app-level patches happened since; `set_platform` resets it.
    pub(crate) warm: bool,
    pub(crate) last: Option<LastSolve>,
}

impl Entry {
    fn mutated(&mut self) {
        self.revision += 1;
    }
}

/// A long-lived store of revisioned, mutable instances with incremental
/// re-solve — see the [module docs](self) for semantics and guarantees.
///
/// A session is single-threaded by design (one `&mut self` at a time); a
/// server wanting concurrency shards instances across sessions — one
/// session per shard, each built with [`Session::with_id_stride`] so the
/// shards draw from disjoint id sequences. `Session` is `Send` (asserted
/// at compile time below), so a shard can sit behind a `Mutex` that any
/// serving thread locks; it is deliberately not `Sync`-oriented — nothing
/// here locks.
///
/// [`Session::stats`] is a cheap `Copy` snapshot (a handful of counters),
/// so a metrics layer can sample it per request without touching the
/// instances.
pub struct Session {
    pub(crate) entries: BTreeMap<u64, Entry>,
    pub(crate) next_id: u64,
    pub(crate) id_stride: u64,
    scratch: EvalScratch,
    pub(crate) stats: SessionStats,
    /// The session's autotuner ([`crate::tune`]): one shared history for
    /// every `"auto"` resolve, so learning survives incremental re-solves
    /// and mutations (the signature is recomputed from the patched
    /// instance on every solve). Behind an `Arc` so a resolve can run it
    /// while `&mut self` is otherwise engaged.
    pub(crate) auto: Arc<Auto>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("entries", &self.entries)
            .field("next_id", &self.next_id)
            .field("id_stride", &self.id_stride)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::with_id_stride(0, 1)
    }
}

// Sharded servers share whole sessions across threads behind a mutex;
// keep that a compile-time guarantee rather than a per-refactor audit.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

impl Session {
    /// An empty session allocating ids 0, 1, 2, ….
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty session allocating ids `first`, `first + stride`,
    /// `first + 2·stride`, ….
    ///
    /// This is the sharding constructor: shard `k` of `n` uses
    /// `with_id_stride(k, n)`, so the shards' id sequences are disjoint
    /// and — when creates are dealt round-robin — collectively identical
    /// to the single-session sequence 0, 1, 2, … (the `m`-th successful
    /// create lands on shard `m mod n` as that shard's `⌊m/n⌋`-th create,
    /// i.e. id `m`). Failed creates consume no id, exactly like
    /// [`Session::new`].
    ///
    /// # Panics
    /// If `stride` is zero (ids would collide).
    pub fn with_id_stride(first: u64, stride: u64) -> Self {
        assert!(stride >= 1, "id stride must be at least 1");
        Self {
            entries: BTreeMap::new(),
            next_id: first,
            id_stride: stride,
            scratch: EvalScratch::default(),
            stats: SessionStats::default(),
            auto: Arc::new(Auto::new()),
        }
    }

    /// Reassembles a session from snapshot parts ([`crate::persist`]).
    ///
    /// The scratch space is rebuilt empty — it is a pure evaluation cache,
    /// sized lazily on first use, so a restored session's observable
    /// behaviour is identical to the session that was snapshotted.
    pub(crate) fn from_restored(
        entries: BTreeMap<u64, Entry>,
        next_id: u64,
        id_stride: u64,
        stats: SessionStats,
        auto: Arc<Auto>,
    ) -> Self {
        assert!(id_stride >= 1, "id stride must be at least 1");
        Self {
            entries,
            next_id,
            id_stride,
            scratch: EvalScratch::default(),
            stats,
            auto,
        }
    }

    /// Validates and stores a new instance, returning its id.
    ///
    /// # Errors
    /// Exactly the [`Instance::new`] validation errors.
    pub fn create(&mut self, apps: Vec<Application>, platform: Platform) -> Result<InstanceId> {
        let instance = Instance::new(apps, platform)?;
        let id = self.next_id;
        self.next_id += self.id_stride;
        self.entries.insert(
            id,
            Entry {
                instance,
                revision: 0,
                warm: false,
                last: None,
            },
        );
        self.stats.instances_created += 1;
        Ok(InstanceId(id))
    }

    /// Removes an instance from the session.
    ///
    /// # Errors
    /// [`CoschedError::UnknownInstance`] if the id is not live.
    pub fn close(&mut self, id: InstanceId) -> Result<()> {
        self.entries
            .remove(&id.0)
            .map(|_| ())
            .ok_or(CoschedError::UnknownInstance { id: id.0 })
    }

    /// Mutable handle to one instance, through which all mutations go.
    ///
    /// # Errors
    /// [`CoschedError::UnknownInstance`] if the id is not live.
    pub fn handle(&mut self, id: InstanceId) -> Result<InstanceHandle<'_>> {
        let entry = self
            .entries
            .get_mut(&id.0)
            .ok_or(CoschedError::UnknownInstance { id: id.0 })?;
        Ok(InstanceHandle {
            entry,
            mutations: &mut self.stats.mutations,
        })
    }

    /// Read access to a live instance.
    ///
    /// # Errors
    /// [`CoschedError::UnknownInstance`] if the id is not live.
    pub fn instance(&self, id: InstanceId) -> Result<&Instance> {
        self.entries
            .get(&id.0)
            .map(|e| &e.instance)
            .ok_or(CoschedError::UnknownInstance { id: id.0 })
    }

    /// Current revision of a live instance (0 at creation, +1 per
    /// mutation).
    ///
    /// # Errors
    /// [`CoschedError::UnknownInstance`] if the id is not live.
    pub fn revision(&self, id: InstanceId) -> Result<u64> {
        self.entries
            .get(&id.0)
            .map(|e| e.revision)
            .ok_or(CoschedError::UnknownInstance { id: id.0 })
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the session holds no instances.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summaries of every live instance, in ascending id order
    /// (deterministic — the `list` op relies on it).
    pub fn list(&self) -> Vec<InstanceInfo> {
        self.entries
            .iter()
            .map(|(&id, e)| InstanceInfo {
                id: InstanceId(id),
                revision: e.revision,
                apps: e.instance.len(),
                processors: e.instance.platform().processors,
                cache_size: e.instance.platform().cache_size,
            })
            .collect()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The session's autotuner — the solver every `"auto"` resolve runs,
    /// and the place to read the learned table from (`cosched tune`
    /// prints it). The tuner's history is shared across all of this
    /// session's instances (observations are keyed by signature bucket,
    /// not by instance id).
    pub fn tuner(&self) -> &Auto {
        &self.auto
    }

    /// Replaces the session's autotuner with a fresh one built from
    /// `config` (e.g. a bounded observation window for drifting
    /// workloads). Any history the old tuner had learned is discarded, so
    /// call this before the first `"auto"` resolve — typically right
    /// after constructing the session.
    pub fn set_tuner_config(&mut self, config: crate::tune::TuneConfig) {
        self.auto = Arc::new(Auto::with_config(config));
    }

    /// Re-solves an instance with `solver`, warm-starting from the
    /// session's cached state.
    ///
    /// Three tiers, cheapest first:
    ///
    /// 1. **memo** ([`Self::resolve_by_name`] only) — the previous resolve
    ///    of this instance used the same registry name and seed and no
    ///    mutation intervened: the stored [`Outcome`] is returned without
    ///    solving;
    /// 2. **incremental** — derived state is warm (patched, not rebuilt,
    ///    since the last solve): the solver runs on the patched instance
    ///    with the session's recycled scratch;
    /// 3. **cold** — first solve of this instance, or first after
    ///    [`InstanceHandle::set_platform`]: same code path, freshly
    ///    rebuilt state.
    ///
    /// All tiers return bit-identical outcomes to
    /// `solver.solve(&Instance::new(apps, platform)?, &mut
    /// SolveCtx::seeded(seed))` on the current applications and platform.
    ///
    /// This entry point **always executes the solver**: a `&dyn Solver`
    /// carries no identity beyond its display name, and two distinct
    /// solvers may share one (e.g. any two [`Portfolio`](crate::Portfolio)
    /// compositions both report `"Portfolio"`), so caller-supplied solvers
    /// neither consult nor populate the memo. The memo tier belongs to
    /// [`Self::resolve_by_name`], where the registry name *is* the solver's
    /// identity.
    ///
    /// # Errors
    /// [`CoschedError::UnknownInstance`] for a dead id, otherwise whatever
    /// the solver returns.
    pub fn resolve(&mut self, id: InstanceId, solver: &dyn Solver, seed: u64) -> Result<Outcome> {
        let entry = self
            .entries
            .get_mut(&id.0)
            .ok_or(CoschedError::UnknownInstance { id: id.0 })?;
        let mut sp = crate::obs::span(
            "session",
            if entry.warm {
                "resolve_incremental"
            } else {
                "resolve_cold"
            },
        );
        let mut ctx =
            SolveCtx::seeded(seed).with_recycled_scratch(std::mem::take(&mut self.scratch));
        let result = solver.solve(&entry.instance, &mut ctx);
        // Args carry the eval-kernel work this resolve performed (the
        // `EvalStats` delta): batched kernel calls, applications touched.
        sp.set_args(ctx.stats().kernel_calls, ctx.stats().apps_evaluated);
        self.stats.eval.merge(ctx.stats());
        self.scratch = ctx.take_scratch();
        let outcome = result?;
        self.stats.solves += 1;
        if entry.warm {
            self.stats.incremental_solves += 1;
        } else {
            self.stats.cold_solves += 1;
        }
        entry.warm = true;
        Ok(outcome)
    }

    /// [`Self::resolve`] with the solver looked up through the
    /// [`solver::by_name`](crate::solver::by_name) registry — plus the memo
    /// tier: an unchanged `(revision, name, seed)` triple returns the
    /// stored previous outcome without solving. Registry names uniquely
    /// identify solver behaviour (what the registry round-trip tests pin),
    /// which is what makes the name a sound memo key here.
    ///
    /// `"auto"` is special on both counts: it resolves to the **session's
    /// own** [`Auto`] tuner (one shared [`tune::History`](crate::tune::History)
    /// across every resolve, so learning survives incremental re-solves
    /// and keys off the patched instance's signature), and it bypasses the
    /// memo entirely — a learning solver may legitimately answer the same
    /// `(revision, seed)` differently as it converges, and a memo hit
    /// would silently skip a learning observation.
    ///
    /// # Errors
    /// [`CoschedError::UnknownSolver`] for an unknown name, otherwise as
    /// [`Self::resolve`].
    pub fn resolve_by_name(&mut self, id: InstanceId, solver: &str, seed: u64) -> Result<Outcome> {
        // Match `"auto"` before the registry lookup (same trim +
        // case-fold normalization `by_name` applies): `by_name("auto")`
        // would construct — and this path immediately discard — a whole
        // fresh tuner per request, on what is the serve hot path.
        if solver.trim().eq_ignore_ascii_case("auto") {
            let auto = Arc::clone(&self.auto);
            let outcome = self.resolve(id, auto.as_ref(), seed)?;
            self.stats.tuner = auto.tuner_stats();
            return Ok(outcome);
        }
        let solver = crate::solver::by_name(solver)?;
        let name = solver.name();
        let entry = self
            .entries
            .get(&id.0)
            .ok_or(CoschedError::UnknownInstance { id: id.0 })?;
        if let Some(last) = &entry.last {
            if last.revision == entry.revision && last.solver == name && last.seed == seed {
                self.stats.memo_hits += 1;
                crate::obs::instant("session", "memo_hit", id.0, entry.revision);
                return Ok(last.outcome.clone());
            }
        }
        let outcome = self.resolve(id, solver.as_ref(), seed)?;
        let entry = self.entries.get_mut(&id.0).expect("resolved entry is live");
        entry.last = Some(LastSolve {
            solver: name,
            seed,
            revision: entry.revision,
            outcome: outcome.clone(),
        });
        Ok(outcome)
    }
}

/// Mutable view of one live instance; every mutation bumps the revision
/// (invalidating the resolve memo) and patches the cached derived state.
///
/// Obtained from [`Session::handle`]; borrows the session mutably, so
/// mutations and resolves cannot interleave unsoundly.
#[derive(Debug)]
pub struct InstanceHandle<'s> {
    entry: &'s mut Entry,
    mutations: &'s mut u64,
}

impl InstanceHandle<'_> {
    /// The instance as currently patched.
    pub fn instance(&self) -> &Instance {
        &self.entry.instance
    }

    /// Current revision.
    pub fn revision(&self) -> u64 {
        self.entry.revision
    }

    /// Number of applications.
    pub fn len(&self) -> usize {
        self.entry.instance.len()
    }

    /// Always `false` (instances are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.entry.instance.is_empty()
    }

    /// An application joins: validates `app` alone and patches one
    /// model/eval column. Returns the new application's index.
    ///
    /// # Errors
    /// The application's validation error; the instance is untouched.
    pub fn add_app(&mut self, app: Application) -> Result<usize> {
        let index = self.entry.instance.push_app(app)?;
        self.entry.mutated();
        *self.mutations += 1;
        Ok(index)
    }

    /// An application leaves: drops its model/eval column (shifting the
    /// tail so instance order is preserved). Returns the removed
    /// application.
    ///
    /// # Errors
    /// [`CoschedError::IndexOutOfRange`] for a bad index;
    /// [`CoschedError::EmptyInstance`] when it would empty the instance
    /// (close the instance via [`Session::close`] instead).
    pub fn remove_app(&mut self, index: usize) -> Result<Application> {
        let app = self.entry.instance.remove_app(index)?;
        self.entry.mutated();
        *self.mutations += 1;
        Ok(app)
    }

    /// An application's profile changes: validates the replacement alone
    /// and overwrites its model/eval column in place. Returns the previous
    /// application.
    ///
    /// # Errors
    /// [`CoschedError::IndexOutOfRange`] or the replacement's validation
    /// error; the instance is untouched on failure.
    pub fn update_app(&mut self, index: usize, app: Application) -> Result<Application> {
        let old = self.entry.instance.replace_app(index, app)?;
        self.entry.mutated();
        *self.mutations += 1;
        Ok(old)
    }

    /// The platform itself changes — the documented cold path: every
    /// cached model and eval column is rebuilt, and the next
    /// [`Session::resolve`] counts as cold.
    ///
    /// # Errors
    /// The platform's validation error; the instance is untouched on
    /// failure.
    pub fn set_platform(&mut self, platform: Platform) -> Result<()> {
        self.entry.instance.swap_platform(platform)?;
        self.entry.warm = false;
        self.entry.mutated();
        *self.mutations += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver;

    fn apps() -> Vec<Application> {
        vec![
            Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4),
            Application::new("BT", 2.10e11, 0.03, 0.829, 7.31e-3),
            Application::new("LU", 1.52e11, 0.07, 0.750, 1.51e-3),
        ]
    }

    fn pf() -> Platform {
        Platform::taihulight()
    }

    fn cold(session: &Session, id: InstanceId, name: &str, seed: u64) -> Outcome {
        let inst = Instance::new(
            session.instance(id).unwrap().apps().to_vec(),
            session.instance(id).unwrap().platform().clone(),
        )
        .unwrap();
        solver::by_name(name)
            .unwrap()
            .solve(&inst, &mut SolveCtx::seeded(seed))
            .unwrap()
    }

    #[test]
    fn ids_are_unique_and_never_reused() {
        let mut s = Session::new();
        let a = s.create(apps(), pf()).unwrap();
        let b = s.create(apps(), pf()).unwrap();
        assert_ne!(a, b);
        s.close(a).unwrap();
        let c = s.create(apps(), pf()).unwrap();
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert!(matches!(
            s.resolve_by_name(a, "Fair", 0),
            Err(CoschedError::UnknownInstance { .. })
        ));
    }

    #[test]
    fn strided_sessions_tile_the_id_space() {
        // Two shards dealing creates round-robin reproduce 0, 1, 2, 3 …
        let mut shards = [Session::with_id_stride(0, 2), Session::with_id_stride(1, 2)];
        let mut got = Vec::new();
        for m in 0..6u64 {
            let id = shards[(m % 2) as usize].create(apps(), pf()).unwrap();
            got.push(id.raw());
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        // A failed create consumes no id on its shard.
        assert!(shards[0].create(vec![], pf()).is_err());
        assert_eq!(shards[0].create(apps(), pf()).unwrap().raw(), 6);
        assert_eq!(shards[1].create(apps(), pf()).unwrap().raw(), 7);
    }

    #[test]
    fn create_validates_like_instance_new() {
        let mut s = Session::new();
        assert!(matches!(
            s.create(vec![], pf()),
            Err(CoschedError::EmptyInstance)
        ));
        let mut bad = apps();
        bad[1].seq_fraction = 2.0;
        assert!(matches!(
            s.create(bad, pf()),
            Err(CoschedError::InvalidApplication { index: 1, .. })
        ));
        assert!(s.is_empty());
        assert_eq!(s.stats().instances_created, 0);
    }

    #[test]
    fn mutations_bump_revisions_and_patch_state() {
        let mut s = Session::new();
        let id = s.create(apps(), pf()).unwrap();
        assert_eq!(s.revision(id).unwrap(), 0);
        {
            let mut h = s.handle(id).unwrap();
            let sp = Application::new("SP", 1.38e11, 0.02, 0.762, 1.51e-2);
            assert_eq!(h.add_app(sp.clone()).unwrap(), 3);
            assert_eq!(h.revision(), 1);
            assert_eq!(h.update_app(0, sp).unwrap().name, "CG");
            assert_eq!(h.remove_app(1).unwrap().name, "BT");
            assert_eq!(h.revision(), 3);
            assert_eq!(h.len(), 3);
        }
        // Patched state equals a rebuild of the same application list.
        let rebuilt = Instance::new(s.instance(id).unwrap().apps().to_vec(), pf()).unwrap();
        assert_eq!(s.instance(id).unwrap(), &rebuilt);
        assert_eq!(s.stats().mutations, 3);
    }

    #[test]
    fn resolve_matches_cold_solve_after_each_mutation() {
        let mut s = Session::new();
        let id = s.create(apps(), pf()).unwrap();
        for (step, name) in [
            (0, "DominantMinRatio"),
            (1, "RandomPart"),
            (2, "DominantRefined"),
        ] {
            match step {
                1 => {
                    let sp = Application::new("SP", 1.38e11, 0.02, 0.762, 1.51e-2);
                    s.handle(id).unwrap().add_app(sp).unwrap();
                }
                2 => {
                    s.handle(id).unwrap().remove_app(0).unwrap();
                }
                _ => {}
            }
            let warm = s.resolve_by_name(id, name, 7).unwrap();
            assert_eq!(warm, cold(&s, id, name, 7), "step {step} ({name})");
        }
    }

    #[test]
    fn memo_hits_only_on_identical_revision_solver_seed() {
        let mut s = Session::new();
        let id = s.create(apps(), pf()).unwrap();
        let a = s.resolve_by_name(id, "DominantMinRatio", 1).unwrap();
        let b = s.resolve_by_name(id, "DominantMinRatio", 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.stats().memo_hits, 1);
        assert_eq!(s.stats().solves, 1);
        // Different seed: no memo (randomized solvers depend on it).
        let _ = s.resolve_by_name(id, "DominantMinRatio", 2).unwrap();
        assert_eq!(s.stats().memo_hits, 1);
        // Mutation invalidates the memo.
        s.handle(id)
            .unwrap()
            .update_app(0, apps().remove(1))
            .unwrap();
        let c = s.resolve_by_name(id, "DominantMinRatio", 1).unwrap();
        assert_ne!(a, c, "mutated instance must re-solve");
        assert_eq!(s.stats().memo_hits, 1);
        assert_eq!(s.stats().solves, 3);
    }

    #[test]
    fn incremental_and_cold_solves_are_classified() {
        let mut s = Session::new();
        let id = s.create(apps(), pf()).unwrap();
        let _ = s.resolve_by_name(id, "Fair", 0).unwrap(); // cold
        s.handle(id)
            .unwrap()
            .add_app(Application::new("SP", 1.38e11, 0.02, 0.762, 1.51e-2))
            .unwrap();
        let _ = s.resolve_by_name(id, "Fair", 0).unwrap(); // incremental
        s.handle(id)
            .unwrap()
            .set_platform(pf().with_cache_size(1e9))
            .unwrap();
        let _ = s.resolve_by_name(id, "Fair", 0).unwrap(); // cold again
        let stats = s.stats();
        assert_eq!(stats.cold_solves, 2);
        assert_eq!(stats.incremental_solves, 1);
        assert!(stats.eval.kernel_calls > 0);
    }

    #[test]
    fn set_platform_matches_cold_solve() {
        let mut s = Session::new();
        let id = s.create(apps(), pf()).unwrap();
        let _ = s.resolve_by_name(id, "DominantMinRatio", 3).unwrap();
        s.handle(id)
            .unwrap()
            .set_platform(pf().with_cache_size(1e9).with_processors(64.0))
            .unwrap();
        let warm = s.resolve_by_name(id, "DominantMinRatio", 3).unwrap();
        assert_eq!(warm, cold(&s, id, "DominantMinRatio", 3));
    }

    #[test]
    fn list_is_sorted_and_reflects_state() {
        let mut s = Session::new();
        let a = s.create(apps(), pf()).unwrap();
        let b = s
            .create(apps()[..2].to_vec(), pf().with_processors(64.0))
            .unwrap();
        s.handle(a).unwrap().remove_app(2).unwrap();
        let infos = s.list();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].id, a);
        assert_eq!(infos[0].revision, 1);
        assert_eq!(infos[0].apps, 2);
        assert_eq!(infos[1].id, b);
        assert_eq!(infos[1].processors, 64.0);
        s.close(a).unwrap();
        assert_eq!(s.list().len(), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn direct_resolve_never_consults_or_poisons_the_memo() {
        use crate::algo::Strategy;
        use crate::solver::Portfolio;

        let mut s = Session::new();
        let id = s.create(apps(), pf()).unwrap();
        // Two distinct solvers that share the display name "Portfolio".
        let full = Portfolio::new(solver::all());
        let fair_only = Portfolio::new(vec![Strategy::Fair.to_solver()]);
        let a = s.resolve(id, &full, 7).unwrap();
        let b = s.resolve(id, &fair_only, 7).unwrap();
        assert_ne!(a, b, "same-named solvers must not share results");
        assert_eq!(s.stats().memo_hits, 0);
        assert_eq!(s.stats().solves, 2);
        // And a registry resolve afterwards solves for real (the direct
        // calls left no memo entry behind to be wrongly replayed).
        let via_registry = s.resolve_by_name(id, "Portfolio", 7).unwrap();
        assert_eq!(via_registry, a);
        assert_eq!(s.stats().memo_hits, 0);
        assert_eq!(s.stats().solves, 3);
    }

    #[test]
    fn resolve_by_name_reports_unknown_solver() {
        let mut s = Session::new();
        let id = s.create(apps(), pf()).unwrap();
        match s.resolve_by_name(id, "no-such-solver", 0) {
            Err(CoschedError::UnknownSolver { name, available }) => {
                assert_eq!(name, "no-such-solver");
                assert!(available.contains(&"DominantMinRatio".to_string()));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
