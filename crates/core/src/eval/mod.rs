//! Struct-of-arrays evaluation engine for the Eq. 2 cost model.
//!
//! Every heuristic in the paper is a loop around the same evaluation:
//! per-application execution time (Amdahl flops × per-operation cost under
//! the power law of cache misses), then a max for the makespan. The scalar
//! reference implementation lives in `model::exec`; it walks one
//! [`Application`] struct at a time, which is convenient for the theory but
//! hostile to large-`n` sweeps — every evaluation gathers fields scattered
//! across heap-allocated structs (each carries a `String` name) and
//! re-derives platform constants.
//!
//! [`EvalSet`] flattens an instance once into parallel `Vec<f64>`s (work,
//! sequential fraction, access frequency, footprint cap, `d_i`, the
//! Theorem-3 weight, the Eq. 3 threshold) so the batched kernels —
//! [`EvalSet::seq_costs_into`], [`EvalSet::exec_times_into`],
//! [`EvalSet::makespan`] — are tight loops over contiguous memory that the
//! compiler can vectorize. The kernels perform **the same floating-point
//! operations in the same order** as the scalar reference, so results are
//! bit-identical; the equivalence property suite
//! (`tests/eval_equivalence.rs`) pins the two implementations together.
//!
//! [`EvalScratch`] owns the reusable output buffers plus the
//! [`EvalStats`] counters, and lives inside
//! [`SolveCtx`](crate::solver::SolveCtx) so a solver (or a whole
//! [`solve_batch`](crate::solver::solve_batch) worker) never re-allocates
//! per evaluation. The candidate-batch evaluator
//! [`EvalScratch::score_candidates`] scores many `(procs, cache)` vectors
//! in one call.

use crate::model::{Application, ExecModel, Platform};

/// Counters describing how much Eq. 2 evaluation work was performed.
///
/// Threaded through [`SolveCtx`](crate::solver::SolveCtx) into
/// [`Outcome::eval_stats`](crate::algo::Outcome::eval_stats), so the cost
/// of a solve is observable (`cosched --eval-stats`) instead of asserted.
/// Deterministic: identical solves produce identical counters, which the
/// batch determinism tests rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Number of batched kernel invocations (one per cost/time/makespan
    /// vector evaluated).
    pub kernel_calls: u64,
    /// Total applications evaluated across those calls (`Σ` kernel sizes).
    pub apps_evaluated: u64,
}

impl EvalStats {
    /// Records one kernel invocation over `apps` applications.
    pub fn record(&mut self, apps: usize) {
        self.kernel_calls += 1;
        self.apps_evaluated += apps as u64;
    }

    /// The work done since `earlier` (a snapshot of the same counter).
    #[must_use]
    pub fn since(self, earlier: EvalStats) -> EvalStats {
        EvalStats {
            kernel_calls: self.kernel_calls - earlier.kernel_calls,
            apps_evaluated: self.apps_evaluated - earlier.apps_evaluated,
        }
    }

    /// Accumulates another counter into this one.
    pub fn merge(&mut self, other: EvalStats) {
        self.kernel_calls += other.kernel_calls;
        self.apps_evaluated += other.apps_evaluated;
    }
}

/// Struct-of-arrays view of one instance: everything Eq. 2 needs, laid out
/// as parallel `Vec<f64>`s plus the platform scalars.
///
/// Derived once per [`Instance`](crate::solver::Instance) (cached alongside
/// the [`ExecModel`]s) and immutable afterwards, so it can be shared across
/// solver threads freely.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalSet {
    /// `w_i` — computing operations.
    work: Vec<f64>,
    /// `s_i` — Amdahl sequential fraction.
    seq_fraction: Vec<f64>,
    /// `f_i` — data accesses per operation.
    access_freq: Vec<f64>,
    /// `a_i / Cs` — the largest *useful* cache fraction (`+∞` when the
    /// footprint is unbounded, the paper's §4.2/§5 assumption).
    cap: Vec<f64>,
    /// `d_i` — miss rate with the whole LLC.
    d: Vec<f64>,
    /// `(w_i f_i d_i)^{1/(α+1)}` — the Theorem-3 weight.
    weight: Vec<f64>,
    /// `d_i^{1/α}` — the Eq. 3 useful-cache threshold.
    threshold: Vec<f64>,
    alpha: f64,
    latency_cache: f64,
    latency_mem: f64,
    processors: f64,
}

impl EvalSet {
    /// Flattens `apps` on `platform`, deriving the [`ExecModel`] quantities
    /// on the fly.
    pub fn of(apps: &[Application], platform: &Platform) -> Self {
        Self::from_models(apps, platform, &ExecModel::of_all(apps, platform))
    }

    /// Flattens `apps` on `platform`, reusing already-derived models (the
    /// [`Instance`](crate::solver::Instance) constructor path — no `powf`
    /// is re-evaluated).
    pub fn from_models(apps: &[Application], platform: &Platform, models: &[ExecModel]) -> Self {
        assert_eq!(apps.len(), models.len(), "apps/models length mismatch");
        Self {
            work: apps.iter().map(|a| a.work).collect(),
            seq_fraction: apps.iter().map(|a| a.seq_fraction).collect(),
            access_freq: apps.iter().map(|a| a.access_freq).collect(),
            // `x.min(∞) == x`, so an unbounded footprint needs no branch.
            cap: apps
                .iter()
                .map(|a| a.footprint / platform.cache_size)
                .collect(),
            d: models.iter().map(|m| m.d).collect(),
            weight: models.iter().map(|m| m.weight).collect(),
            threshold: models.iter().map(|m| m.threshold).collect(),
            alpha: platform.alpha,
            latency_cache: platform.latency_cache,
            latency_mem: platform.latency_mem,
            processors: platform.processors,
        }
    }

    /// Number of applications.
    pub fn len(&self) -> usize {
        self.work.len()
    }

    /// `true` iff the set covers no application.
    pub fn is_empty(&self) -> bool {
        self.work.is_empty()
    }

    /// `p` — processors of the underlying platform.
    pub fn processors(&self) -> f64 {
        self.processors
    }

    /// `α` — power-law exponent of the underlying platform.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `l_mem` — memory-access latency of the underlying platform (the
    /// coefficient of the miss rate in the per-operation cost).
    pub fn latency_mem(&self) -> f64 {
        self.latency_mem
    }

    /// `w_i`, aligned with instance order.
    pub fn work(&self) -> &[f64] {
        &self.work
    }

    /// `s_i`, aligned with instance order.
    pub fn seq_fractions(&self) -> &[f64] {
        &self.seq_fraction
    }

    /// `f_i`, aligned with instance order.
    pub fn access_freqs(&self) -> &[f64] {
        &self.access_freq
    }

    /// `d_i`, aligned with instance order.
    pub fn d(&self) -> &[f64] {
        &self.d
    }

    /// Theorem-3 weights `(w_i f_i d_i)^{1/(α+1)}`, aligned with instance
    /// order.
    pub fn weights(&self) -> &[f64] {
        &self.weight
    }

    /// Eq. 3 thresholds `d_i^{1/α}`, aligned with instance order.
    pub fn thresholds(&self) -> &[f64] {
        &self.threshold
    }

    /// Footprint caps `a_i / Cs` (`+∞` for unbounded footprints), aligned
    /// with instance order.
    pub fn caps(&self) -> &[f64] {
        &self.cap
    }

    /// Appends one application's column, computing exactly the expressions
    /// [`Self::from_models`] would — so a patched set is bit-identical to a
    /// full rebuild. Used by [`crate::session`] when an application joins a
    /// live instance.
    pub(crate) fn push_column(
        &mut self,
        app: &Application,
        platform: &Platform,
        model: &ExecModel,
    ) {
        self.work.push(app.work);
        self.seq_fraction.push(app.seq_fraction);
        self.access_freq.push(app.access_freq);
        self.cap.push(app.footprint / platform.cache_size);
        self.d.push(model.d);
        self.weight.push(model.weight);
        self.threshold.push(model.threshold);
    }

    /// Removes application `i`'s column, shifting the tail left so the
    /// remaining columns keep instance order (what a rebuild without the
    /// application would produce).
    ///
    /// # Panics
    /// Panics if `i >= self.len()` (callers bounds-check first).
    pub(crate) fn remove_column(&mut self, i: usize) {
        self.work.remove(i);
        self.seq_fraction.remove(i);
        self.access_freq.remove(i);
        self.cap.remove(i);
        self.d.remove(i);
        self.weight.remove(i);
        self.threshold.remove(i);
    }

    /// Overwrites application `i`'s column in place (the update-app path of
    /// [`crate::session`]); same expressions as [`Self::from_models`].
    ///
    /// # Panics
    /// Panics if `i >= self.len()` (callers bounds-check first).
    pub(crate) fn set_column(
        &mut self,
        i: usize,
        app: &Application,
        platform: &Platform,
        model: &ExecModel,
    ) {
        self.work[i] = app.work;
        self.seq_fraction[i] = app.seq_fraction;
        self.access_freq[i] = app.access_freq;
        self.cap[i] = app.footprint / platform.cache_size;
        self.d[i] = model.d;
        self.weight[i] = model.weight;
        self.threshold[i] = model.threshold;
    }

    /// Cost of one computing operation of application `i` holding cache
    /// fraction `x` — mirrors `model::exec::per_op_cost` operation for
    /// operation (the miss rate comes from the shared
    /// [`miss_rate`](crate::model::miss_rate) helper, so the two paths
    /// cannot diverge).
    #[inline]
    fn per_op_cost_at(&self, i: usize, x: f64) -> f64 {
        let x_eff = x.min(self.cap[i]);
        let m = crate::model::miss_rate(self.d[i], x_eff, self.alpha);
        1.0 + self.access_freq[i] * (self.latency_cache + self.latency_mem * m)
    }

    /// `Exe_i(p, x)` for application `i` — bit-identical to
    /// [`exec_time`](crate::model::exec_time) on the same inputs
    /// (`procs <= 0` yields `+∞`).
    #[inline]
    pub fn exec_time_at(&self, i: usize, procs: f64, x: f64) -> f64 {
        if procs <= 0.0 {
            return f64::INFINITY;
        }
        let flops = self.seq_fraction[i] * self.work[i]
            + (1.0 - self.seq_fraction[i]) * self.work[i] / procs;
        flops * self.per_op_cost_at(i, x)
    }

    /// `Exe_i^seq(x)` for application `i` — bit-identical to
    /// [`seq_cost`](crate::model::seq_cost). At `x = 0` this equals
    /// [`seq_cost_full_miss`](crate::model::seq_cost_full_miss) exactly
    /// (`m = 1` makes the latency term collapse to `ls + ll`).
    #[inline]
    pub fn seq_cost_at(&self, i: usize, x: f64) -> f64 {
        self.work[i] * self.per_op_cost_at(i, x)
    }

    /// Batched `Exe_i^seq(x_i)`: fills `out` with the sequential cost of
    /// every application under the cache vector.
    ///
    /// # Panics
    /// Panics if `cache.len() != self.len()`.
    pub fn seq_costs_into(&self, cache: &[f64], out: &mut Vec<f64>) {
        assert_eq!(cache.len(), self.len(), "cache vector length mismatch");
        out.clear();
        out.extend((0..self.len()).map(|i| self.seq_cost_at(i, cache[i])));
    }

    /// Batched `Exe_i(p_i, x_i)`: fills `out` with the execution time of
    /// every application under the `(procs, cache)` vectors.
    ///
    /// # Panics
    /// Panics if the vector lengths do not match `self.len()`.
    pub fn exec_times_into(&self, procs: &[f64], cache: &[f64], out: &mut Vec<f64>) {
        assert_eq!(procs.len(), self.len(), "procs vector length mismatch");
        assert_eq!(cache.len(), self.len(), "cache vector length mismatch");
        out.clear();
        out.extend((0..self.len()).map(|i| self.exec_time_at(i, procs[i], cache[i])));
    }

    /// `max_i Exe_i(p_i, x_i)` — the Definition-1 makespan, without
    /// materialising the completion times. Bit-identical to
    /// [`Schedule::makespan`](crate::model::Schedule::makespan) (same fold,
    /// same order; empty sets yield `0`).
    ///
    /// # Panics
    /// Panics if the vector lengths do not match `self.len()`.
    pub fn makespan(&self, procs: &[f64], cache: &[f64]) -> f64 {
        assert_eq!(procs.len(), self.len(), "procs vector length mismatch");
        assert_eq!(cache.len(), self.len(), "cache vector length mismatch");
        (0..self.len())
            .map(|i| self.exec_time_at(i, procs[i], cache[i]))
            .fold(0.0, f64::max)
    }

    /// Makespan of the sequential AllProcCache baseline:
    /// `Σ_i Exe_i(p, 1)` — bit-identical to
    /// [`sequential_makespan`](crate::model::sequential_makespan).
    pub fn sequential_makespan(&self) -> f64 {
        (0..self.len())
            .map(|i| self.exec_time_at(i, self.processors, 1.0))
            .sum()
    }

    /// Batched power-law miss rates `min(1, d_i / x_i^α)` at the given
    /// (already-effective) fractions — the Eq. 1 prediction used by the
    /// simulator validation. No footprint cap is applied here: callers pass
    /// fractions that are already realised shares.
    ///
    /// # Panics
    /// Panics if `fractions.len() != self.len()`.
    pub fn power_law_miss_rates_into(&self, fractions: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            fractions.len(),
            self.len(),
            "fraction vector length mismatch"
        );
        out.clear();
        out.extend(
            (0..self.len()).map(|i| crate::model::miss_rate(self.d[i], fractions[i], self.alpha)),
        );
    }
}

/// One candidate resource vector pair for
/// [`EvalScratch::score_candidates`]: `(procs, cache)` slices aligned with
/// the instance.
pub type Candidate<'a> = (&'a [f64], &'a [f64]);

/// Reusable evaluation state owned by a [`SolveCtx`](crate::solver::SolveCtx):
/// output buffers for the batched kernels plus the [`EvalStats`] counters.
///
/// The buffers are plain `pub` fields so call sites can borrow disjoint
/// buffers simultaneously (e.g. read `costs` while filling `weights`);
/// every kernel clears its output before writing, so recycled buffers can
/// never leak state between solves — which is what keeps
/// [`solve_batch`](crate::solver::solve_batch) bit-identical whether a
/// scratch is fresh or reused across instances.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Evaluation-work counters (reset by [`Self::recycle`]).
    pub stats: EvalStats,
    /// Sequential-cost buffer (the bisection input).
    pub costs: Vec<f64>,
    /// Execution-time buffer.
    pub times: Vec<f64>,
    /// Cache-fraction buffer (Theorem-3 splits during enumeration).
    pub fractions: Vec<f64>,
    /// Re-weighting buffer (refinement descent).
    pub weights: Vec<f64>,
    /// Per-candidate scores from [`Self::score_candidates`].
    scores: Vec<f64>,
}

impl EvalScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares this scratch for a new solve: clears the buffers (keeping
    /// their capacity — the point of reuse) and zeroes the stats.
    #[must_use]
    pub fn recycle(mut self) -> Self {
        self.stats = EvalStats::default();
        self.costs.clear();
        self.times.clear();
        self.fractions.clear();
        self.weights.clear();
        self.scores.clear();
        self
    }

    /// Recording wrapper over [`EvalSet::seq_costs_into`] using the
    /// [`Self::costs`] buffer.
    pub fn seq_costs(&mut self, eval: &EvalSet, cache: &[f64]) -> &[f64] {
        eval.seq_costs_into(cache, &mut self.costs);
        self.stats.record(eval.len());
        &self.costs
    }

    /// Recording wrapper over [`EvalSet::exec_times_into`] using the
    /// [`Self::times`] buffer.
    pub fn exec_times(&mut self, eval: &EvalSet, procs: &[f64], cache: &[f64]) -> &[f64] {
        eval.exec_times_into(procs, cache, &mut self.times);
        self.stats.record(eval.len());
        &self.times
    }

    /// Recording wrapper over [`EvalSet::makespan`].
    pub fn makespan(&mut self, eval: &EvalSet, procs: &[f64], cache: &[f64]) -> f64 {
        self.stats.record(eval.len());
        eval.makespan(procs, cache)
    }

    /// Candidate-batch evaluator: scores every `(procs, cache)` candidate
    /// by its makespan, reusing this scratch's buffer. Returns the scores
    /// aligned with `candidates`.
    pub fn score_candidates(&mut self, eval: &EvalSet, candidates: &[Candidate<'_>]) -> &[f64] {
        self.scores.clear();
        for &(procs, cache) in candidates {
            self.stats.record(eval.len());
            self.scores.push(eval.makespan(procs, cache));
        }
        &self.scores
    }

    /// Scores all candidates and returns `(index, makespan)` of the best
    /// one (ties go to the earliest candidate; `None` iff empty).
    pub fn best_candidate(
        &mut self,
        eval: &EvalSet,
        candidates: &[Candidate<'_>],
    ) -> Option<(usize, f64)> {
        let scores = self.score_candidates(eval, candidates);
        let mut best: Option<(usize, f64)> = None;
        for (i, &s) in scores.iter().enumerate() {
            if best.is_none_or(|(_, b)| s < b) {
                best = Some((i, s));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{exec_time, seq_cost, seq_cost_full_miss, sequential_makespan, Schedule};

    fn apps() -> Vec<Application> {
        vec![
            Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4),
            Application::new("BT", 2.10e11, 0.03, 0.829, 7.31e-3),
            Application::new("SP", 1.38e11, 0.00, 0.762, 1.51e-2),
            Application::new("MG", 1.23e10, 0.12, 0.540, 2.62e-2).with_footprint(100e6),
        ]
    }

    fn pf() -> Platform {
        Platform::taihulight()
    }

    #[test]
    fn of_and_from_models_agree() {
        let (a, p) = (apps(), pf());
        let models = ExecModel::of_all(&a, &p);
        assert_eq!(EvalSet::of(&a, &p), EvalSet::from_models(&a, &p, &models));
    }

    #[test]
    fn layout_matches_models_and_apps() {
        let (a, p) = (apps(), pf());
        let models = ExecModel::of_all(&a, &p);
        let eval = EvalSet::of(&a, &p);
        assert_eq!(eval.len(), 4);
        assert!(!eval.is_empty());
        assert_eq!(eval.processors(), p.processors);
        assert_eq!(eval.alpha(), p.alpha);
        for i in 0..a.len() {
            assert_eq!(eval.work()[i], a[i].work);
            assert_eq!(eval.seq_fractions()[i], a[i].seq_fraction);
            assert_eq!(eval.access_freqs()[i], a[i].access_freq);
            assert_eq!(eval.d()[i], models[i].d);
            assert_eq!(eval.weights()[i], models[i].weight);
            assert_eq!(eval.thresholds()[i], models[i].threshold);
        }
    }

    #[test]
    fn exec_time_at_is_bit_identical_to_scalar() {
        let (a, p) = (apps(), pf());
        let eval = EvalSet::of(&a, &p);
        for (i, app) in a.iter().enumerate() {
            for &(procs, x) in &[
                (64.0, 0.25),
                (1.0, 0.0),
                (0.0, 0.5),
                (-3.0, 0.5),
                (256.0, 1.0),
                (0.5, 1e-9),
            ] {
                let scalar = exec_time(app, &p, procs, x);
                let soa = eval.exec_time_at(i, procs, x);
                assert_eq!(scalar.to_bits(), soa.to_bits(), "app {i} p={procs} x={x}");
            }
        }
    }

    #[test]
    fn seq_cost_at_zero_cache_equals_full_miss_exactly() {
        let (a, p) = (apps(), pf());
        let eval = EvalSet::of(&a, &p);
        for (i, app) in a.iter().enumerate() {
            assert_eq!(
                eval.seq_cost_at(i, 0.0).to_bits(),
                seq_cost_full_miss(app, &p).to_bits(),
                "app {i}"
            );
            assert_eq!(
                eval.seq_cost_at(i, 0.3).to_bits(),
                seq_cost(app, &p, 0.3).to_bits(),
                "app {i}"
            );
        }
    }

    #[test]
    fn zero_d_never_misses_above_zero_cache() {
        let p = pf();
        let mut a = apps();
        a[0].miss_rate_ref = 0.0;
        let eval = EvalSet::of(&a, &p);
        assert_eq!(eval.seq_cost_at(0, 1e-12), seq_cost(&a[0], &p, 1e-12));
        // d = 0 and any positive fraction: miss rate 0, cost is pure hits.
        let expected = a[0].work * (1.0 + a[0].access_freq * p.latency_cache);
        assert_eq!(eval.seq_cost_at(0, 0.5), expected);
        // But zero cache still means every access misses.
        assert_eq!(eval.seq_cost_at(0, 0.0), seq_cost_full_miss(&a[0], &p));
    }

    #[test]
    fn batched_kernels_match_elementwise() {
        let (a, p) = (apps(), pf());
        let eval = EvalSet::of(&a, &p);
        let procs = [100.0, 60.0, 0.0, 96.0];
        let cache = [0.4, 0.3, 0.2, 0.1];
        let mut times = Vec::new();
        eval.exec_times_into(&procs, &cache, &mut times);
        let mut costs = Vec::new();
        eval.seq_costs_into(&cache, &mut costs);
        for i in 0..4 {
            assert_eq!(
                times[i].to_bits(),
                exec_time(&a[i], &p, procs[i], cache[i]).to_bits()
            );
            assert_eq!(costs[i].to_bits(), seq_cost(&a[i], &p, cache[i]).to_bits());
        }
        assert!(times[2].is_infinite());
        let schedule = Schedule::from_parts(&procs, &cache);
        assert_eq!(
            eval.makespan(&procs, &cache).to_bits(),
            schedule.makespan(&a, &p).to_bits()
        );
    }

    #[test]
    fn sequential_makespan_matches_scalar() {
        let (a, p) = (apps(), pf());
        let eval = EvalSet::of(&a, &p);
        assert_eq!(
            eval.sequential_makespan().to_bits(),
            sequential_makespan(&a, &p).to_bits()
        );
    }

    #[test]
    fn miss_rate_kernel_matches_power_law() {
        let (a, p) = (apps(), pf());
        let eval = EvalSet::of(&a, &p);
        let fractions = [0.5, 0.0, 1e-6, 0.25];
        let mut rates = Vec::new();
        eval.power_law_miss_rates_into(&fractions, &mut rates);
        for i in 0..4 {
            let d = p.full_cache_miss_rate(&a[i]);
            let expected = crate::model::miss_rate(d, fractions[i], p.alpha);
            assert_eq!(rates[i].to_bits(), expected.to_bits(), "app {i}");
        }
        assert_eq!(rates[1], 1.0);
    }

    #[test]
    fn footprint_cap_is_honoured() {
        let (a, p) = (apps(), pf());
        let eval = EvalSet::of(&a, &p);
        // MG's footprint is 100 MB on a 32 GB LLC: anything above the cap
        // behaves like the cap.
        let cap = 100e6 / p.cache_size;
        assert_eq!(eval.seq_cost_at(3, cap), eval.seq_cost_at(3, 0.9));
        assert_eq!(
            eval.seq_cost_at(3, 0.9).to_bits(),
            seq_cost(&a[3], &p, 0.9).to_bits()
        );
    }

    #[test]
    fn stats_record_since_and_merge() {
        let mut s = EvalStats::default();
        s.record(4);
        s.record(6);
        assert_eq!(s.kernel_calls, 2);
        assert_eq!(s.apps_evaluated, 10);
        let snap = s;
        s.record(5);
        let delta = s.since(snap);
        assert_eq!(delta.kernel_calls, 1);
        assert_eq!(delta.apps_evaluated, 5);
        let mut agg = EvalStats::default();
        agg.merge(s);
        agg.merge(delta);
        assert_eq!(agg.kernel_calls, 4);
        assert_eq!(agg.apps_evaluated, 20);
    }

    #[test]
    fn scratch_wrappers_record_and_reuse() {
        let (a, p) = (apps(), pf());
        let eval = EvalSet::of(&a, &p);
        let mut scratch = EvalScratch::new();
        let cache = [0.25, 0.25, 0.25, 0.25];
        let procs = [64.0; 4];
        let _ = scratch.seq_costs(&eval, &cache);
        let _ = scratch.exec_times(&eval, &procs, &cache);
        let m = scratch.makespan(&eval, &procs, &cache);
        assert!(m.is_finite());
        assert_eq!(scratch.stats.kernel_calls, 3);
        assert_eq!(scratch.stats.apps_evaluated, 12);
        let cap = scratch.costs.capacity();
        let recycled = scratch.recycle();
        assert_eq!(recycled.stats, EvalStats::default());
        assert!(recycled.costs.is_empty());
        assert!(recycled.costs.capacity() >= cap, "capacity must survive");
    }

    #[test]
    fn candidate_batch_scores_and_picks_best() {
        let (a, p) = (apps(), pf());
        let eval = EvalSet::of(&a, &p);
        let mut scratch = EvalScratch::new();
        let fair_p = vec![64.0; 4];
        let skewed_p = vec![200.0, 30.0, 16.0, 10.0];
        let cache = vec![0.25; 4];
        let candidates: Vec<Candidate<'_>> =
            vec![(&fair_p, &cache), (&skewed_p, &cache), (&fair_p, &cache)];
        let scores = scratch.score_candidates(&eval, &candidates).to_vec();
        assert_eq!(scores.len(), 3);
        assert_eq!(
            scores[0], scores[2],
            "identical candidates, identical scores"
        );
        assert_eq!(
            scores[0].to_bits(),
            eval.makespan(&fair_p, &cache).to_bits()
        );
        let (idx, best) = scratch.best_candidate(&eval, &candidates).unwrap();
        assert_eq!(best, scores.iter().copied().fold(f64::INFINITY, f64::min));
        assert!(idx == 0 || idx == 1, "ties resolve to the earliest");
        if scores[0] <= scores[1] {
            assert_eq!(idx, 0);
        }
        assert_eq!(scratch.stats.kernel_calls, 6);
        assert!(scratch.best_candidate(&eval, &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn kernels_reject_mismatched_vectors() {
        let eval = EvalSet::of(&apps(), &pf());
        let mut out = Vec::new();
        eval.seq_costs_into(&[0.5; 3], &mut out);
    }
}
