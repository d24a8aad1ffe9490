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
//! sequential fraction, access frequency, footprint cap, and the
//! [`ExecModel`] columns: `d_i`, the Theorem-3 weight, the Eq. 3 threshold,
//! the Definition-4 ratio). It is the only stored form of that derived
//! state: the theory, the heuristics and branch-and-bound all read these
//! columns, and the batched kernels —
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
//! per evaluation.

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
/// This is the only stored form of the per-application [`ExecModel`]
/// quantities: derived once per [`Instance`](crate::solver::Instance),
/// patched column by column by [`crate::session`], and read-only while a
/// solve runs, so it can be shared across solver threads freely.
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
    /// `weight_i / threshold_i` — the Definition-4 dominance ratio.
    ratio: Vec<f64>,
    alpha: f64,
    latency_cache: f64,
    latency_mem: f64,
    processors: f64,
}

impl EvalSet {
    /// Flattens `apps` on `platform`: one [`ExecModel::of`] per application
    /// fills the derived columns.
    pub fn of(apps: &[Application], platform: &Platform) -> Self {
        let mut set = Self {
            alpha: platform.alpha,
            latency_cache: platform.latency_cache,
            latency_mem: platform.latency_mem,
            processors: platform.processors,
            ..Self::default()
        };
        for app in apps {
            set.push_column(app, platform);
        }
        set
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

    /// Definition-4 dominance ratios `weight_i / threshold_i` (`+∞` when
    /// `d_i = 0`), aligned with instance order.
    pub fn ratios(&self) -> &[f64] {
        &self.ratio
    }

    /// Footprint caps `a_i / Cs` (`+∞` for unbounded footprints), aligned
    /// with instance order.
    pub fn caps(&self) -> &[f64] {
        &self.cap
    }

    /// Appends one application's column. [`Self::of`] builds every set
    /// this way, so a patched set is bit-identical to a full rebuild.
    pub(crate) fn push_column(&mut self, app: &Application, platform: &Platform) {
        let model = ExecModel::of(app, platform);
        self.work.push(app.work);
        self.seq_fraction.push(app.seq_fraction);
        self.access_freq.push(app.access_freq);
        // `x.min(∞) == x`, so an unbounded footprint needs no branch.
        self.cap.push(app.footprint / platform.cache_size);
        self.d.push(model.d);
        self.weight.push(model.weight);
        self.threshold.push(model.threshold);
        self.ratio.push(model.ratio);
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
        self.ratio.remove(i);
    }

    /// Overwrites application `i`'s column in place (the update-app path of
    /// [`crate::session`]); same expressions as [`Self::push_column`].
    ///
    /// # Panics
    /// Panics if `i >= self.len()` (callers bounds-check first).
    pub(crate) fn set_column(&mut self, i: usize, app: &Application, platform: &Platform) {
        let model = ExecModel::of(app, platform);
        self.work[i] = app.work;
        self.seq_fraction[i] = app.seq_fraction;
        self.access_freq[i] = app.access_freq;
        self.cap[i] = app.footprint / platform.cache_size;
        self.d[i] = model.d;
        self.weight[i] = model.weight;
        self.threshold[i] = model.threshold;
        self.ratio[i] = model.ratio;
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
    /// Two passes, so that the powers do not hold up the rest. The first
    /// writes only `x_eff^α` (`x_eff = min(x_i, cap_i)`), each with
    /// `powf`'s bits: at `α = ½` from `sqrt` wherever that provably equals
    /// glibc's `pow`, and from `powf` elsewhere. The second repeats
    /// [`Self::seq_cost_at`]'s other operations elementwise and in its
    /// order: `x_eff` again, `m = 1` when `x_eff ≤ 0` (the power written
    /// for it is then ignored), else `min(d_i / x_eff^α, 1)`, then
    /// `w_i·(1 + f_i·(l_c + l_m·m))`. With no call and no branch in it,
    /// that pass vectorises. Each IEEE operation is rounded elementwise
    /// however the loop is compiled, so the bits are
    /// [`Self::seq_cost_at`]'s.
    ///
    /// # Panics
    /// Panics if `cache.len() != self.len()`.
    pub fn seq_costs_into(&self, cache: &[f64], out: &mut Vec<f64>) {
        let n = self.len();
        assert_eq!(cache.len(), n, "cache vector length mismatch");
        // Equal-length slices let the compiler drop the bounds checks.
        let (cap, d) = (&self.cap[..n], &self.d[..n]);
        let (work, freq) = (&self.work[..n], &self.access_freq[..n]);
        let (lc, lm) = (self.latency_cache, self.latency_mem);
        powers_into(cache, cap, self.alpha, out);
        let out = &mut out[..n];
        for i in 0..n {
            // Divide first and select after: a branch around the division
            // keeps the loop scalar. The quotient is unused when x_eff ≤ 0.
            let m = (d[i] / out[i]).min(1.0);
            let m = if cache[i].min(cap[i]) <= 0.0 { 1.0 } else { m };
            out[i] = work[i] * (1.0 + freq[i] * (lc + lm * m));
        }
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

/// Fills `out` with `x_i^α` for `x_i = min(cache_i, cap_i)`, each with
/// the bits of `x_i.powf(α)`.
///
/// At `α = ½`, the paper's platform, most powers come from `sqrt`, which
/// costs a fraction of a libm call and vectorises; see
/// [`sqrt_where_pow_agrees`] for when it is taken and why its bits are
/// `powf`'s. The rest, and every other `α`, call `powf`. The fallback's
/// exponent goes through [`std::hint::black_box`]: inside `α == 0.5` the
/// compiler knows the exponent, and would otherwise rewrite
/// `powf(x, 0.5)` into `sqrt(x)` for exactly the inputs this path exists
/// for.
#[inline]
fn powers_into(cache: &[f64], cap: &[f64], alpha: f64, out: &mut Vec<f64>) {
    let x = |(&c, &k): (&f64, &f64)| c.min(k);
    out.clear();
    #[cfg(target_env = "gnu")]
    if alpha == 0.5 {
        out.extend(
            cache
                .iter()
                .zip(cap)
                .map(|pair| sqrt_where_pow_agrees(x(pair))),
        );
        for (power, pair) in out.iter_mut().zip(cache.iter().zip(cap)) {
            if power.is_nan() {
                *power = x(pair).powf(std::hint::black_box(alpha));
            }
        }
        return;
    }
    out.extend(cache.iter().zip(cap).map(|pair| x(pair).powf(alpha)));
}

/// `√x` correctly rounded when that is provably what glibc's `pow(x, ½)`
/// returns, else NaN (the caller then calls `powf`).
///
/// glibc's `pow` (`sysdeps/ieee754/dbl-64/e_pow.c`, since 2.28) documents
/// its worst case as 0.54 ULP: `exp`'s 0.509 ULP (0.511 without FMA)
/// plus `|y·ln x|·relerr_log·2^53`, with `relerr_log` at most
/// `1.5·2^-68`. For `y = ½` and `|ln x| ≤ 645`, which `10^-280 < x <
/// 10^280` ensures, the second term is at most `322.5·1.5·2^-15 < 0.015`
/// ULP, so the value `pow` rounds lies within 0.027 ULP of the exact
/// `√x`. Rounding it therefore gives the correctly rounded `√x`, which
/// is `x.sqrt()`, wherever the exact `√x` lies more than 0.027 ULP from
/// a rounding midpoint. (Older glibc's `pow` was correctly rounded, so
/// the argument holds there a fortiori.)
///
/// `s = x.sqrt()` is kept when all of these hold:
/// * `10^-280 < x < 10^280`, so the bound above applies and no product
///   below overflows or loses bits to underflow (NaN, `±∞`, zeros,
///   negatives and subnormals all fail it);
/// * `s` is not a power of two, where the ULP below `s` is half the one
///   above;
/// * `|x − s²| / (2s) < (½ − 1/32)·ulp(s)`: `√x − s = (x − s²)/(√x + s)`,
///   so the exact `√x` lies at least 1/32 ULP from either midpoint
///   around `s` (taking `2s` for `√x + s` is off by a relative `2^-53`,
///   far inside the gap between 1/32 and 0.027).
///
/// `x − s²` is computed exactly. A Veltkamp split `s = hi + lo` (26 bits
/// each) makes Dekker's `p + e = s²` exact without `mul_add`, which a
/// baseline x86-64 build lowers to a libm call. `x − p` is exact by
/// Sterbenz's lemma, and `x − s²` is a multiple of `ulp(s)²` below
/// `2^53·ulp(s)²` in size, so `(x − p) − e` rounds to itself. Every step
/// is branch-free, so a loop of these vectorises.
#[cfg(target_env = "gnu")]
#[inline]
fn sqrt_where_pow_agrees(x: f64) -> f64 {
    const SPLIT: f64 = 134_217_729.0; // 2^27 + 1
    const EXPONENT: u64 = 0x7ff0_0000_0000_0000;
    const MANTISSA: u64 = 0x000f_ffff_ffff_ffff;
    let s = x.sqrt();
    let c = SPLIT * s;
    let hi = c - (c - s);
    let lo = s - hi;
    let p = s * s;
    let e = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo;
    let residual = (x - p) - e;
    let ulp = f64::from_bits(s.to_bits() & EXPONENT) * f64::EPSILON;
    let kept = (residual.abs() < (1.0 - 1.0 / 16.0) * s * ulp)
        & (s.to_bits() & MANTISSA != 0)
        & (x > 1e-280)
        & (x < 1e280);
    if kept {
        s
    } else {
        f64::NAN
    }
}

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
        self
    }

    /// Recording wrapper over [`EvalSet::seq_costs_into`] using the
    /// [`Self::costs`] buffer.
    pub fn seq_costs(&mut self, eval: &EvalSet, cache: &[f64]) -> &[f64] {
        eval.seq_costs_into(cache, &mut self.costs);
        self.stats.record(eval.len());
        &self.costs
    }

    /// Recording wrapper over [`EvalSet::makespan`].
    pub fn makespan(&mut self, eval: &EvalSet, procs: &[f64], cache: &[f64]) -> f64 {
        self.stats.record(eval.len());
        eval.makespan(procs, cache)
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
    fn layout_matches_models_and_apps() {
        let (a, p) = (apps(), pf());
        let eval = EvalSet::of(&a, &p);
        assert_eq!(eval.len(), 4);
        assert!(!eval.is_empty());
        assert_eq!(eval.processors(), p.processors);
        assert_eq!(eval.alpha(), p.alpha);
        for (i, app) in a.iter().enumerate() {
            assert_eq!(eval.work()[i], app.work);
            assert_eq!(eval.seq_fractions()[i], app.seq_fraction);
            assert_eq!(eval.access_freqs()[i], app.access_freq);
            let model = ExecModel::of(app, &p);
            assert_eq!(eval.d()[i], model.d);
            assert_eq!(eval.weights()[i], model.weight);
            assert_eq!(eval.thresholds()[i], model.threshold);
            assert_eq!(eval.ratios()[i], model.ratio);
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
        let m = scratch.makespan(&eval, &procs, &cache);
        assert!(m.is_finite());
        assert_eq!(scratch.stats.kernel_calls, 2);
        assert_eq!(scratch.stats.apps_evaluated, 8);
        let cap = scratch.costs.capacity();
        let recycled = scratch.recycle();
        assert_eq!(recycled.stats, EvalStats::default());
        assert!(recycled.costs.is_empty());
        assert!(recycled.costs.capacity() >= cap, "capacity must survive");
    }

    /// `x^½` as the kernels take it, against `powf` with an exponent the
    /// compiler cannot see, bit for bit: 10^7 random values (half over
    /// every positive bit pattern, half over `[2^-60, 4)`, where cache
    /// fractions live), 10^5 values whose exact square root lies within
    /// 1/16 ULP of a rounding midpoint, and the special values (zeros,
    /// subnormals, powers of two, infinities, NaN, negatives).
    #[test]
    fn alpha_half_sweep_matches_powf() {
        use rand::rngs::StdRng;
        use rand::{RngCore as _, SeedableRng};
        use std::hint::black_box;

        let mut out = Vec::new();
        let mut check = |xs: &mut Vec<f64>| {
            // `x.min(NaN)` is `x`, so every value reaches the power as is;
            // a NaN's payload is `min`'s choice, so NaN only has to stay NaN.
            powers_into(xs, &vec![f64::NAN; xs.len()], 0.5, &mut out);
            for (x, power) in xs.iter().zip(&out) {
                let libm = x.powf(black_box(0.5));
                if libm.is_nan() {
                    assert!(power.is_nan(), "x = {x:e} ({:#x})", x.to_bits());
                } else {
                    assert_eq!(
                        power.to_bits(),
                        libm.to_bits(),
                        "x = {x:e} ({:#x})",
                        x.to_bits()
                    );
                }
            }
            xs.clear();
        };
        let mut xs = Vec::with_capacity(1 << 16);
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for k in 0..10_000_000u64 {
            let bits = rng.next_u64();
            xs.push(if k % 2 == 0 {
                f64::from_bits(bits >> 1)
            } else {
                // Exponent in [-60, 1], any mantissa.
                f64::from_bits(((1023 - 60 + (bits >> 58) % 62) << 52) | (bits & (u64::MAX >> 12)))
            });
            if xs.len() == xs.capacity() {
                check(&mut xs);
            }
        }
        check(&mut xs);

        // Near midpoints: `s` with an exponent in [-500, 500], its
        // midpoint `m = s + ulp/2`, and `RN(m²)` with its neighbours,
        // kept when `|√x − m| < ulp/16`, judged from the exact `x − s²`.
        let mut near = 0;
        while near < 100_000 {
            let bits = rng.next_u64();
            let exponent = 1023 - 500 + (bits >> 54) % 1001;
            let s = f64::from_bits((exponent << 52) | (bits & (u64::MAX >> 12)));
            let ulp = f64::from_bits(exponent << 52) * f64::EPSILON;
            let p = s * s;
            let e = s.mul_add(s, -p);
            let m2 = p + (e + s * ulp + 0.25 * ulp * ulp);
            for step in -3i64..=3 {
                let x = f64::from_bits(m2.to_bits().wrapping_add_signed(step));
                let offset = ((-s).mul_add(s, x) - s * ulp - 0.25 * ulp * ulp) / (2.0 * s);
                if offset.abs() < ulp / 16.0 {
                    xs.push(x);
                    near += 1;
                }
            }
            if xs.len() >= xs.capacity() - 8 {
                check(&mut xs);
            }
        }
        check(&mut xs);

        let mut special = vec![
            0.0,
            -0.0,
            1.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            -1.0,
            -0.25,
            -f64::from_bits(1),
            1e-280,
            1e280,
        ];
        for bound in [1e-280f64, 1e280] {
            for step in -2i64..=2 {
                special.push(f64::from_bits(bound.to_bits().wrapping_add_signed(step)));
            }
        }
        // Every power of two, subnormal ones included.
        special.extend((0..2046).map(|e| f64::from_bits((e + 1) << 52)));
        special.extend((0..52).map(|k| f64::from_bits(1 << k)));
        special.extend((1..1000).map(|k| f64::from_bits(k * 0x0000_0400_0000_0001)));
        check(&mut special);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn kernels_reject_mismatched_vectors() {
        let eval = EvalSet::of(&apps(), &pf());
        let mut out = Vec::new();
        eval.seq_costs_into(&[0.5; 3], &mut out);
    }
}
