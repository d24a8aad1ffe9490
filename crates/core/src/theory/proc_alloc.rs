//! Processor allocation (paper Lemma 2 and the §5 equal-finish-time
//! bisection for Amdahl profiles).
//!
//! The bisection itself operates on the vector of sequential costs. The
//! algorithms fill it from an instance's struct-of-arrays kernels
//! ([`equal_finish_split_eval`]); the scalar [`equal_finish_split`] and
//! [`lemma2_proc_split`] take `(apps, platform)` and stay as the references
//! tests compare against. Both feed the same core, so results are
//! bit-identical.
//!
//! The bisection visits ~40 midpoints, but evaluates the demand predicate
//! (one O(n) pass) at only two or three of them. The predicate is
//! monotone in `K` as computed, not only in exact arithmetic, so once it
//! is known true at `t` and false at `f` every midpoint outside `(t, f)`
//! is answered without touching the data. Two or three Newton steps on
//! `1/demand(K) = 1/p` bring an estimate as close to the root as the
//! sums' rounding allows, and two probes at ±1e-14 of it usually set `t`
//! and `f` before the loop starts. The loop itself, its midpoints and its
//! stopping rule are those of the plain bisection, so the returned `K`
//! has the same bits; the estimate decides only which midpoints are
//! evaluated.

use crate::error::{CoschedError, Result};
use crate::eval::{EvalScratch, EvalSet};
use crate::model::{seq_cost, Application, Platform};
use crate::REL_TOL;

/// Lemma 2 (perfectly parallel applications): given cache fractions `x`,
/// the optimal processor split is
/// `p_i = p · Exe_i^seq(x_i) / Σ_j Exe_j^seq(x_j)`,
/// which makes all applications finish simultaneously and uses all `p`
/// processors.
pub fn lemma2_proc_split(apps: &[Application], platform: &Platform, cache: &[f64]) -> Vec<f64> {
    let costs: Vec<f64> = apps
        .iter()
        .zip(cache)
        .map(|(a, &x)| seq_cost(a, platform, x))
        .collect();
    let total: f64 = costs.iter().sum();
    if total <= 0.0 {
        return vec![platform.processors / apps.len() as f64; apps.len()];
    }
    costs
        .into_iter()
        .map(|c| platform.processors * c / total)
        .collect()
}

/// Result of the equal-finish-time solve for general (Amdahl) applications.
#[derive(Debug, Clone, PartialEq)]
pub struct EqualFinish {
    /// Common completion time `K` of all applications.
    pub makespan: f64,
    /// Processor shares `p_i` realising it (`Σ p_i = p`).
    pub procs: Vec<f64>,
}

/// §5: given cache fractions (hence sequential costs `c_i`), find the
/// makespan `K` such that running every application for exactly `K` time
/// units consumes all `p` processors:
/// `Σ_i (1 - s_i) / (K/c_i - s_i) = p`, where
/// `Exe_i = (s_i + (1-s_i)/p_i)·c_i = K`.
///
/// Solved by bisection. The lower bound assigns `p` processors to every
/// application (`K_lo = max_i (s_i + (1-s_i)/p)·c_i`); the upper bound
/// assigns one processor each (`K_hi = max_i c_i`), doubled as needed when
/// `n > p` so the bracket is valid.
pub fn equal_finish_split(
    apps: &[Application],
    platform: &Platform,
    cache: &[f64],
) -> Result<EqualFinish> {
    let costs: Vec<f64> = apps
        .iter()
        .zip(cache)
        .map(|(a, &x)| seq_cost(a, platform, x))
        .collect();
    let seq: Vec<f64> = apps.iter().map(|a| a.seq_fraction).collect();
    equal_finish_from_costs(&costs, &seq, platform.processors)
}

/// [`equal_finish_split`] on a struct-of-arrays instance view: the
/// sequential costs come from one [`EvalSet::seq_costs_into`] kernel call
/// into `scratch` instead of `n` scalar `seq_cost` evaluations. The
/// bisection core is shared, so the result is bit-identical to the scalar
/// entry point.
pub fn equal_finish_split_eval(
    eval: &EvalSet,
    cache: &[f64],
    scratch: &mut EvalScratch,
) -> Result<EqualFinish> {
    let costs = scratch.seq_costs(eval, cache);
    equal_finish_from_costs(costs, eval.seq_fractions(), eval.processors())
}

/// Makespan-only variant of [`equal_finish_split_eval`] for enumeration
/// loops (e.g. [`crate::algo::exact::best_partition`]) that compare many
/// subsets and only need the processor split of the winner: skips building
/// and normalising the `procs` vector. The returned `K` is exactly the
/// [`EqualFinish::makespan`] the full solve would report.
pub fn equal_finish_makespan_eval(
    eval: &EvalSet,
    cache: &[f64],
    scratch: &mut EvalScratch,
) -> Result<f64> {
    let costs = scratch.seq_costs(eval, cache);
    Ok(bisect_makespan(costs, eval.seq_fractions(), eval.processors())?.value())
}

/// Outcome of the §5 bisection on a cost vector.
enum Bisect {
    /// The bracket was valid and the bisection converged on `K`.
    Converged(f64),
    /// `demand(lo) < p`, which rounding can cause (e.g. with a single
    /// application): callers fall back to a uniform processor split at
    /// makespan `lo`.
    Degenerate(f64),
}

impl Bisect {
    fn value(&self) -> f64 {
        match *self {
            Self::Converged(k) | Self::Degenerate(k) => k,
        }
    }
}

/// The shared §5 solver: given per-application sequential costs `c_i` and
/// Amdahl fractions `s_i`, finds the equal-finish makespan and processor
/// split on `p` processors. Both the scalar and the SoA entry points call
/// this, which is what keeps them bit-identical.
fn equal_finish_from_costs(costs: &[f64], seq: &[f64], p: f64) -> Result<EqualFinish> {
    Ok(split_at(bisect_makespan(costs, seq, p)?, costs, seq, p))
}

/// The processor split at a bisection outcome.
fn split_at(bisect: Bisect, costs: &[f64], seq: &[f64], p: f64) -> EqualFinish {
    let k = match bisect {
        Bisect::Degenerate(lo) => {
            // Rounding left demand(lo) just short of p (e.g. a single
            // application); fall back to the trivial split.
            return EqualFinish {
                makespan: lo,
                procs: vec![p / costs.len() as f64; costs.len()],
            };
        }
        Bisect::Converged(k) => k,
    };
    // Each share, and their sum in index order, a chunk at a time (see
    // `DEMAND_CHUNK`).
    let mut procs = vec![0.0; costs.len().min(seq.len())];
    let mut total = 0.0;
    for (shares, (chunk_costs, chunk_seq)) in procs
        .chunks_mut(DEMAND_CHUNK)
        .zip(costs.chunks(DEMAND_CHUNK).zip(seq.chunks(DEMAND_CHUNK)))
    {
        for ((share, &c), &s) in shares.iter_mut().zip(chunk_costs).zip(chunk_seq) {
            let denom = k / c - s;
            let quotient = (1.0 - s) / denom;
            *share = if denom <= 0.0 { p } else { quotient };
        }
        for &share in shares.iter() {
            total += share;
        }
    }
    // Normalise the residual bisection slack so Σ p_i = p exactly.
    if total > 0.0 {
        for v in &mut procs {
            *v *= p / total;
        }
    }
    EqualFinish { makespan: k, procs }
}

/// Chunk width for the demand scan and the split: small enough that the
/// in-order sum of one chunk runs while the next chunk's divisions are
/// in flight (at 512 the two wait on each other; a probe at n = 4096
/// took ~8.0 µs against ~5.9 µs at 32–64 on a 2-vCPU Xeon guest), wide
/// enough to amortise the early-exit checks.
const DEMAND_CHUNK: usize = 32;

/// Per-application processor demand at makespan `K`, written elementwise
/// into `out`: `(1 - s_i) / (K/c_i - s_i)`, or `+∞` when even a whole
/// dedicated machine cannot finish `i` by `K` (`K/c_i ≤ s_i`).
///
/// Elementwise on purpose: with no reduction in the loop the compiler can
/// vectorise the divisions (the bisection's actual bottleneck at large
/// `n`), and IEEE division/subtraction are exactly rounded elementwise, so
/// the terms are bit-identical to the scalar formulation no matter how the
/// loop is compiled.
#[inline]
fn demand_terms(k: f64, costs: &[f64], seq: &[f64], out: &mut [f64]) {
    for ((&c, &s), t) in costs.iter().zip(seq).zip(out.iter_mut()) {
        let denom = k / c - s;
        let quotient = (1.0 - s) / denom;
        *t = if denom > 0.0 { quotient } else { f64::INFINITY };
    }
}

/// `demand(K) > p` (`strict`) or `demand(K) ≥ p` (`!strict`), where
/// `demand(K) = Σ_i (1 - s_i) / (K/c_i - s_i)`.
///
/// The sum accumulates the chunk terms **in index order**, so the partial
/// sums are exactly the prefixes of the naive serial fold — the comparison
/// outcome is bit-identical to evaluating the full sum first. Because
/// every term is non-negative (and IEEE addition of a non-negative value
/// is monotone), a partial sum already above the threshold settles the
/// comparison, so the scan exits early — which is what makes the widening
/// probes (demand ≫ p) cheap. `terms` is scratch; its contents are
/// overwritten before they are read.
fn demand_compares_ge(
    costs: &[f64],
    seq: &[f64],
    p: f64,
    k: f64,
    strict: bool,
    terms: &mut [f64; DEMAND_CHUNK],
) -> bool {
    let mut total = 0.0;
    for (chunk_costs, chunk_seq) in costs.chunks(DEMAND_CHUNK).zip(seq.chunks(DEMAND_CHUNK)) {
        let terms = &mut terms[..chunk_costs.len()];
        demand_terms(k, chunk_costs, chunk_seq, terms);
        for &t in terms.iter() {
            total += t;
        }
        if total > p {
            return true;
        }
    }
    if strict {
        total > p
    } else {
        total >= p
    }
}

/// Solves `demand(K) = p` for the equal-finish makespan: the plain
/// bisection of [`replay`], its bracket seeded by [`newton_estimate`].
fn bisect_makespan(costs: &[f64], seq: &[f64], p: f64) -> Result<Bisect> {
    replay(costs, seq, p, |start| newton_estimate(costs, seq, p, start)).map(|(b, ..)| b)
}

/// The §5 bisection on `demand(K) > p`, replayed from a bracket.
///
/// The loop is the plain bisection, kept step for step: `lo` and `hi` as
/// in [`equal_finish_split`], `hi` doubled while `demand(hi) > p` (at
/// most 1024 times), the degenerate check `demand(lo) ≥ p`, then at most
/// 200 halvings until `hi − lo ≤ REL_TOL·hi`, returning `hi`. Only the
/// way each predicate is answered differs.
///
/// **The predicate is monotone as computed.** Take `c_i ≥ +0` and
/// `s_i ∈ [0, 1]` (checked in the pass that computes `lo` and `hi`).
/// Every IEEE operation of a term is then monotone in `K`: `K/c_i` is
/// non-decreasing (for `c_i = +0` it is `−∞`, NaN and `+∞` below, at and
/// above `K = 0`), subtracting `s_i` keeps the order, `(1 − s_i)/denom`
/// has a non-negative numerator so it is non-increasing on `denom > 0`,
/// and `+∞` stands in wherever `denom ≤ 0` or is NaN. The non-negative
/// terms are summed in a fixed order and rounded addition is monotone in
/// each operand, so the sum is non-increasing in `K`; the early exit
/// fires only when a prefix, never above the full sum, already exceeds
/// `p`, so it gives the full sum's answer. Hence once `demand > p` is
/// known true at `t` and false at `f`, it is true at every `K ≤ t` and
/// false at every `K ≥ f`, and the [`Bracket`] answers such points
/// without touching the data. Inputs outside those conditions leave the
/// bracket empty, and every predicate is evaluated.
///
/// **The bracket is seeded near the root.** `estimate` gets the start
/// `max(lo, Σ(1 − s_i)c_i/p)` and returns a guess `K̂` with the number of
/// O(n) passes it made; [`Bracket::seed`] probes the exact predicate on
/// both sides of `K̂`. The guess only decides which points are evaluated
/// exactly, never a predicate's answer, so a poor or NaN `K̂` costs a few
/// passes and the result is the plain loop's, bit for bit.
///
/// Returns the outcome with its O(n) passes beyond the one computing
/// `lo`: the estimate's, and the exact predicate evaluations.
fn replay(
    costs: &[f64],
    seq: &[f64],
    p: f64,
    estimate: impl FnOnce(f64) -> (f64, u32),
) -> Result<(Bisect, u32, u32)> {
    if costs.is_empty() {
        return Err(CoschedError::EmptyInstance);
    }
    let mut sp = crate::obs::span("eval", "bisection");
    let (mut lo, mut hi, work, monotone) = bracket_inputs(costs, seq, p);
    let mut bracket = Bracket::new(costs, seq, p, monotone);
    let estimate_passes = if monotone {
        let (guess, passes) = estimate(f64::max(lo, work / p));
        bracket.seed(guess);
        passes
    } else {
        0
    };
    // n > p (or degenerate profiles): widen until the bracket is valid.
    let mut guard = 0;
    while bracket.above(hi) {
        hi *= 2.0;
        guard += 1;
        if guard > 1024 {
            return Err(CoschedError::NoFeasibleMakespan(
                "upper bound does not converge".into(),
            ));
        }
    }
    if !bracket.at_least(lo) {
        return Ok((Bisect::Degenerate(lo), estimate_passes, bracket.evals));
    }

    // Bisection: demand(K) is strictly decreasing in K on (lo, hi].
    let mut iterations = 0u64;
    for _ in 0..200 {
        iterations += 1;
        let mid = 0.5 * (lo + hi);
        if bracket.above(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= REL_TOL * hi {
            break;
        }
    }
    sp.set_args(iterations, costs.len() as u64);
    Ok((Bisect::Converged(hi), estimate_passes, bracket.evals))
}

/// The pass that starts [`replay`]: `lo = max_i (s_i + (1 − s_i)/p)·c_i`
/// and `hi = max_i c_i` (each from `+0`), `work = Σ_i (1 − s_i)·c_i`, and
/// whether the inputs are `monotone` (every `c_i ≥ +0`, every
/// `s_i ∈ [0, 1]`).
///
/// Taken [`in_four_lanes`]. A maximum does not depend on the order it is
/// taken in when it is positive: `f64::max` skips NaN, and two non-NaN
/// doubles equal to the largest value have the same bits. `work` only
/// seeds [`newton_estimate`], whose guess decides which midpoints are
/// evaluated, never the result. Inputs that are not `monotone`, which
/// get no estimate, and maxima that come out zero, where `f64::max`'s
/// choice between `+0` and `−0` depends on the order, take the plain
/// sequential loop instead, so `lo` and `hi` always have its bits.
fn bracket_inputs(costs: &[f64], seq: &[f64], p: f64) -> (f64, f64, f64, bool) {
    let (mut lo, mut hi, mut work, mut monotone) = ([0.0; 4], [0.0; 4], [0.0; 4], true);
    in_four_lanes(costs, seq, |lane, c, s| {
        lo[lane] = f64::max(lo[lane], (s + (1.0 - s) / p) * c);
        hi[lane] = f64::max(hi[lane], c);
        work[lane] += (1.0 - s) * c;
        monotone &= c.is_sign_positive() & (0.0..=1.0).contains(&s);
    });
    let max4 = |v: [f64; 4]| f64::max(f64::max(v[0], v[1]), f64::max(v[2], v[3]));
    let (lo, hi) = (max4(lo), max4(hi));
    if monotone && lo != 0.0 && hi != 0.0 {
        return (lo, hi, sum4(work), true);
    }
    let (mut lo, mut hi, mut work) = (0.0, 0.0, 0.0);
    for (&c, &s) in costs.iter().zip(seq) {
        lo = f64::max(lo, (s + (1.0 - s) / p) * c);
        hi = f64::max(hi, c);
        work += (1.0 - s) * c;
    }
    (lo, hi, work, monotone)
}

/// Calls `step(i mod 4, c_i, s_i)` for every application `i`, in index
/// order: four independent accumulators, one per lane, so that no
/// maximum or sum waits on the one before it and the divisions
/// vectorise. Only for folds whose callers have shown the lane order
/// harmless.
#[inline]
fn in_four_lanes(costs: &[f64], seq: &[f64], mut step: impl FnMut(usize, f64, f64)) {
    let n = costs.len().min(seq.len());
    let (c4, s4) = (costs[..n].chunks_exact(4), seq[..n].chunks_exact(4));
    let (c_tail, s_tail) = (c4.remainder(), s4.remainder());
    for (c, s) in c4.zip(s4) {
        for lane in 0..4 {
            step(lane, c[lane], s[lane]);
        }
    }
    for (lane, (&c, &s)) in c_tail.iter().zip(s_tail).enumerate() {
        step(lane, c, s);
    }
}

/// The sum of four lane accumulators.
fn sum4(v: [f64; 4]) -> f64 {
    (v[0] + v[1]) + (v[2] + v[3])
}

/// What [`replay`] knows of the strict predicate `demand(K) > p`: true
/// at every `K ≤ t`, false at every `K ≥ f`. Each exact evaluation
/// tightens it, unless the inputs are not `monotone`.
struct Bracket<'a> {
    costs: &'a [f64],
    seq: &'a [f64],
    p: f64,
    monotone: bool,
    t: Option<f64>,
    f: Option<f64>,
    /// Exact predicate evaluations so far, each one O(n) pass.
    evals: u32,
    /// Chunk scratch for [`demand_compares_ge`], zero-filled once per
    /// solve.
    terms: [f64; DEMAND_CHUNK],
}

impl<'a> Bracket<'a> {
    fn new(costs: &'a [f64], seq: &'a [f64], p: f64, monotone: bool) -> Self {
        Self {
            costs,
            seq,
            p,
            monotone,
            t: None,
            f: None,
            evals: 0,
            terms: [0.0; DEMAND_CHUNK],
        }
    }

    /// `demand(k) > p`, from the bracket when it settles it.
    fn above(&mut self, k: f64) -> bool {
        if self.t.is_some_and(|t| k <= t) {
            return true;
        }
        if self.f.is_some_and(|f| k >= f) {
            return false;
        }
        let above = self.eval(k, true);
        if self.monotone {
            *if above { &mut self.t } else { &mut self.f } = Some(k);
        }
        above
    }

    /// `demand(k) ≥ p`. `demand > p` implies it, so `k ≤ t` settles it;
    /// anything else is evaluated.
    fn at_least(&mut self, k: f64) -> bool {
        self.t.is_some_and(|t| k <= t) || self.eval(k, false)
    }

    fn eval(&mut self, k: f64, strict: bool) -> bool {
        self.evals += 1;
        demand_compares_ge(self.costs, self.seq, self.p, k, strict, &mut self.terms)
    }

    /// Probes the exact predicate at `guess·(1 ∓ δ)`, from `δ = 1e-14`
    /// and ×64 after a miss, until both ends are known or six pairs are
    /// spent. A non-finite guess probes nothing.
    ///
    /// [`newton_estimate`] stops about as close to the root as the
    /// rounding of its O(n) sums allows: within 1e-14 on the instances
    /// `a_solve_makes_a_handful_of_passes` pins, whose first two probes
    /// both hit. The loop stops once `hi − lo ≤ REL_TOL·hi` (1e-12), so a
    /// bracket 2e-14 wide usually answers every midpoint, and the two
    /// probes are then the only exact passes. A wider first δ leaves more
    /// midpoints inside the bracket to evaluate; a narrower one lands both
    /// probes on one side of the root more often, and each miss costs a
    /// pass.
    fn seed(&mut self, guess: f64) {
        if !guess.is_finite() {
            return;
        }
        let mut delta = 1e-14;
        for _ in 0..6 {
            if self.t.is_none() {
                self.above(guess * (1.0 - delta));
            }
            if self.f.is_none() {
                self.above(guess * (1.0 + delta));
            }
            if self.t.is_some() && self.f.is_some() {
                return;
            }
            delta *= 64.0;
        }
    }
}

/// Newton's method on `1/demand(K) = 1/p` from `start`: returns the last
/// iterate and the number of O(n) passes made. `1/demand` is exactly
/// linear in `K` when every `s_i = 0`, and in general a parallel sum of
/// affine functions, hence concave: from `start`, left of the root, the
/// iterates climb towards it. Stops after 8 steps, at a relative step
/// ≤ 1e-8, or before the first non-finite iterate.
///
/// The convergence is quadratic: after a step of 1e-8 the iterate's error
/// is ~1e-16 in exact arithmetic, below the rounding of the sums. One
/// more pass would not move it by anything [`Bracket::seed`]'s ±1e-14
/// probes can see.
///
/// The iterate only seeds the bracket, so its sums are taken
/// [`in_four_lanes`].
fn newton_estimate(costs: &[f64], seq: &[f64], p: f64, start: f64) -> (f64, u32) {
    let mut k = start;
    for pass in 1..=8 {
        // With u = K − s·c, a term is (1 − s)·c/u and its share of
        // −demand'(K) is (1 − s)·c/u²: one division per application.
        let (mut demand, mut slope) = ([0.0; 4], [0.0; 4]);
        in_four_lanes(costs, seq, |lane, c, s| {
            let r = 1.0 / (k - s * c);
            let term = (1.0 - s) * c * r;
            demand[lane] += term;
            slope[lane] += term * r;
        });
        let (demand, slope) = (sum4(demand), sum4(slope));
        let next = k + demand * (demand / p - 1.0) / slope;
        if !next.is_finite() {
            return (k, pass);
        }
        let step = (next - k).abs();
        k = next;
        if step <= 1e-8 * k.abs() {
            return (k, pass);
        }
    }
    (k, 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{exec_time, Schedule};
    use crate::solver::{Instance, SolveCtx};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn pf() -> Platform {
        Platform::taihulight()
    }

    fn apps_pp() -> Vec<Application> {
        vec![
            Application::perfectly_parallel("CG", 5.70e10, 0.535, 6.59e-4),
            Application::perfectly_parallel("BT", 2.10e11, 0.829, 7.31e-3),
            Application::perfectly_parallel("SP", 1.38e11, 0.762, 1.51e-2),
        ]
    }

    fn apps_amdahl() -> Vec<Application> {
        apps_pp()
            .into_iter()
            .enumerate()
            .map(|(i, a)| a.with_seq_fraction(0.01 * (i + 1) as f64))
            .collect()
    }

    #[test]
    fn lemma2_uses_all_processors() {
        let a = apps_pp();
        let x = vec![0.3, 0.3, 0.4];
        let p = lemma2_proc_split(&a, &pf(), &x);
        assert!((p.iter().sum::<f64>() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn lemma2_equalises_finish_times() {
        let a = apps_pp();
        let x = vec![0.3, 0.3, 0.4];
        let procs = lemma2_proc_split(&a, &pf(), &x);
        let s = Schedule::from_parts(&procs, &x);
        assert!(s.is_equal_finish(&a, &pf(), 1e-12));
    }

    #[test]
    fn lemma2_makespan_matches_lemma3_formula() {
        // Completion time = (1/p) Σ_i Exe_i(1, x_i)  (Lemma 3).
        let a = apps_pp();
        let platform = pf();
        let x = vec![0.2, 0.5, 0.3];
        let procs = lemma2_proc_split(&a, &platform, &x);
        let s = Schedule::from_parts(&procs, &x);
        let expected: f64 = a
            .iter()
            .zip(&x)
            .map(|(app, &xi)| seq_cost(app, &platform, xi))
            .sum::<f64>()
            / platform.processors;
        assert!((s.makespan(&a, &platform) - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn equal_finish_uses_all_processors() {
        let a = apps_amdahl();
        let x = vec![0.3, 0.3, 0.4];
        let ef = equal_finish_split(&a, &pf(), &x).unwrap();
        assert!((ef.procs.iter().sum::<f64>() - 256.0).abs() < 1e-6);
    }

    #[test]
    fn equal_finish_times_are_equal() {
        let a = apps_amdahl();
        let platform = pf();
        let x = vec![0.3, 0.3, 0.4];
        let ef = equal_finish_split(&a, &platform, &x).unwrap();
        for (i, app) in a.iter().enumerate() {
            let t = exec_time(app, &platform, ef.procs[i], x[i]);
            assert!(
                (t - ef.makespan).abs() / ef.makespan < 1e-8,
                "app {i}: {t} vs {}",
                ef.makespan
            );
        }
    }

    #[test]
    fn equal_finish_reduces_to_lemma2_when_perfectly_parallel() {
        let a = apps_pp();
        let platform = pf();
        let x = vec![0.25, 0.5, 0.25];
        let ef = equal_finish_split(&a, &platform, &x).unwrap();
        let l2 = lemma2_proc_split(&a, &platform, &x);
        for (u, v) in ef.procs.iter().zip(&l2) {
            assert!((u - v).abs() / v < 1e-8);
        }
    }

    #[test]
    fn equal_finish_handles_more_apps_than_processors() {
        let platform = pf().with_processors(4.0);
        let a: Vec<Application> = (0..16)
            .map(|i| Application::new(format!("T{i}"), 1e9 * (i + 1) as f64, 0.05, 0.5, 1e-3))
            .collect();
        let x = vec![1.0 / 16.0; 16];
        let ef = equal_finish_split(&a, &platform, &x).unwrap();
        assert!((ef.procs.iter().sum::<f64>() - 4.0).abs() < 1e-6);
        // Everybody got strictly less than one processor on average.
        assert!(ef.procs.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn equal_finish_makespan_exceeds_sequential_floor() {
        // K must exceed max_i s_i * c_i (otherwise demand is infinite).
        let a = apps_amdahl();
        let platform = pf();
        let x = vec![0.3, 0.3, 0.4];
        let ef = equal_finish_split(&a, &platform, &x).unwrap();
        let floor = a
            .iter()
            .zip(&x)
            .map(|(app, &xi)| app.seq_fraction * seq_cost(app, &platform, xi))
            .fold(0.0, f64::max);
        assert!(ef.makespan > floor);
    }

    #[test]
    fn equal_finish_empty_instance_errors() {
        assert!(matches!(
            equal_finish_split(&[], &pf(), &[]),
            Err(CoschedError::EmptyInstance)
        ));
    }

    #[test]
    fn eval_entry_points_are_bit_identical_to_scalar() {
        let a = apps_amdahl();
        let platform = pf();
        let eval = EvalSet::of(&a, &platform);
        let mut scratch = EvalScratch::new();
        let x = vec![0.3, 0.3, 0.4];
        let scalar = equal_finish_split(&a, &platform, &x).unwrap();
        let soa = equal_finish_split_eval(&eval, &x, &mut scratch).unwrap();
        assert_eq!(scalar.makespan.to_bits(), soa.makespan.to_bits());
        for (u, v) in scalar.procs.iter().zip(&soa.procs) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        let k = equal_finish_makespan_eval(&eval, &x, &mut scratch).unwrap();
        assert_eq!(k.to_bits(), scalar.makespan.to_bits());
        // One kernel call of n apps per entry point.
        assert_eq!(scratch.stats.kernel_calls, 2);
        assert_eq!(scratch.stats.apps_evaluated, 6);
    }

    #[test]
    fn eval_entry_points_match_on_degenerate_and_oversubscribed_cases() {
        // n > p exercises the bracket widening; the scalar and SoA paths
        // must stay in lockstep there too.
        let platform = pf().with_processors(4.0);
        let a: Vec<Application> = (0..16)
            .map(|i| Application::new(format!("T{i}"), 1e9 * (i + 1) as f64, 0.05, 0.5, 1e-3))
            .collect();
        let x = vec![1.0 / 16.0; 16];
        let eval = EvalSet::of(&a, &platform);
        let mut scratch = EvalScratch::new();
        let scalar = equal_finish_split(&a, &platform, &x).unwrap();
        let soa = equal_finish_split_eval(&eval, &x, &mut scratch).unwrap();
        assert_eq!(scalar, soa);
    }

    #[test]
    fn eval_entry_point_rejects_empty_instances() {
        let eval = EvalSet::of(&[], &pf());
        let mut scratch = EvalScratch::new();
        assert!(matches!(
            equal_finish_split_eval(&eval, &[], &mut scratch),
            Err(CoschedError::EmptyInstance)
        ));
        assert!(matches!(
            equal_finish_makespan_eval(&eval, &[], &mut scratch),
            Err(CoschedError::EmptyInstance)
        ));
    }

    #[test]
    fn more_processors_shorten_makespan() {
        let a = apps_amdahl();
        let x = vec![0.3, 0.3, 0.4];
        let k64 = equal_finish_split(&a, &pf().with_processors(64.0), &x)
            .unwrap()
            .makespan;
        let k256 = equal_finish_split(&a, &pf().with_processors(256.0), &x)
            .unwrap()
            .makespan;
        assert!(k256 < k64);
    }

    #[test]
    fn demand_just_short_of_p_at_lo_gives_the_uniform_split_at_lo() {
        // One application with c = 1, s = 0.1 on p = 3: demand(lo) rounds
        // to 2.9999999999999996 < 3, so the bisection never starts.
        let lo: f64 = (0.1 + (1.0 - 0.1) / 3.0) * 1.0;
        let ef = equal_finish_from_costs(&[1.0], &[0.1], 3.0).unwrap();
        assert_eq!(ef.makespan.to_bits(), lo.to_bits());
        assert_eq!(ef.procs, vec![3.0]);
        // A zero-cost application beside it demands nothing at lo > 0, so
        // the outcome holds and the two share the uniform split.
        let ef = equal_finish_from_costs(&[0.0, 1.0], &[0.0, 0.1], 3.0).unwrap();
        assert_eq!(ef.makespan.to_bits(), lo.to_bits());
        assert_eq!(ef.procs, vec![1.5, 1.5]);
    }

    #[test]
    fn all_zero_costs_fail_to_bracket() {
        // At K = 0 every term is 0/0 → +∞, and doubling hi = 0 never moves
        // it, so the widening guard gives up.
        for seq in [[0.0; 3], [0.1, 0.5, 1.0]] {
            let r = equal_finish_from_costs(&[0.0; 3], &seq, 4.0);
            assert!(
                matches!(r, Err(CoschedError::NoFeasibleMakespan(ref m)) if m.contains("does not converge")),
                "{r:?}"
            );
        }
    }

    #[test]
    fn a_nan_cost_fails_to_bracket_instead_of_looping() {
        // K/NaN makes that term +∞ at every K, so no upper bound is ever
        // feasible: the guard stops the widening after 1024 doublings.
        let r = equal_finish_from_costs(&[1.0, f64::NAN, 2.0], &[0.1, 0.2, 0.0], 4.0);
        assert!(
            matches!(r, Err(CoschedError::NoFeasibleMakespan(ref m)) if m.contains("does not converge")),
            "{r:?}"
        );
    }

    /// The plain bisection, every predicate evaluated: the oracle `replay`
    /// must match bit for bit.
    fn reference_bisect(costs: &[f64], seq: &[f64], p: f64) -> Result<Bisect> {
        if costs.is_empty() {
            return Err(CoschedError::EmptyInstance);
        }
        let mut terms = [0.0; DEMAND_CHUNK];
        let mut lo = costs
            .iter()
            .zip(seq)
            .map(|(&c, &s)| (s + (1.0 - s) / p) * c)
            .fold(0.0, f64::max);
        let mut hi = costs.iter().copied().fold(0.0, f64::max);
        let mut guard = 0;
        while demand_compares_ge(costs, seq, p, hi, true, &mut terms) {
            hi *= 2.0;
            guard += 1;
            if guard > 1024 {
                return Err(CoschedError::NoFeasibleMakespan(
                    "upper bound does not converge".into(),
                ));
            }
        }
        if !demand_compares_ge(costs, seq, p, lo, false, &mut terms) {
            return Ok(Bisect::Degenerate(lo));
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if demand_compares_ge(costs, seq, p, mid, true, &mut terms) {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo) <= REL_TOL * hi {
                break;
            }
        }
        Ok(Bisect::Converged(hi))
    }

    /// Variant and bits of an outcome, or the error's text.
    fn bits(r: &Result<Bisect>) -> std::result::Result<(bool, u64), String> {
        match r {
            Ok(b) => Ok((matches!(b, Bisect::Converged(_)), b.value().to_bits())),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Random `(costs, seq, p)` over the solver's corners: `n` above and
    /// below `p` (and past one demand chunk), `s` near 0, near 1 or
    /// anywhere in `[0, 1]`, zero costs, costs across 1e-3…1e12, and
    /// `p ∈ [1, 4096]`.
    fn random_inputs(seed: u64) -> (Vec<f64>, Vec<f64>, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = if rng.random_range(0..8) == 0 {
            rng.random_range(500..=1100)
        } else {
            rng.random_range(1..=40)
        };
        let p = match rng.random_range(0..3) {
            0 => rng.random_range(1..=8) as f64,
            1 => rng.random_range(1.0..=4096.0),
            _ => 4096.0,
        };
        let seq_mode = rng.random_range(0..3);
        let mut costs = Vec::with_capacity(n);
        let mut seq = Vec::with_capacity(n);
        for _ in 0..n {
            costs.push(if rng.random_range(0..16) == 0 {
                0.0
            } else {
                10f64.powf(rng.random_range(-3.0..=12.0))
            });
            let tiny = 10f64.powf(rng.random_range(-16.0..=-2.0));
            seq.push(match (seq_mode, rng.random_range(0..4)) {
                (0, 0) => 0.0,
                (0, _) => tiny,
                (1, 0) => 1.0,
                (1, _) => 1.0 - tiny,
                _ => rng.random_range(0.0..=1.0),
            });
        }
        // One case in eight breaks the monotonicity conditions (c < 0,
        // c = −0, s > 1): the replay must then evaluate every predicate.
        if rng.random_range(0..8) == 0 {
            let i = rng.random_range(0..n);
            match rng.random_range(0..3) {
                0 => costs[i] = -costs[i].max(1.0),
                1 => costs[i] = -0.0,
                _ => seq[i] = rng.random_range(1.0..=2.0),
            }
        }
        (costs, seq, p)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The replay returns the plain loop's variant and `K` bits for the
        /// Newton estimate and for estimates that are NaN, 0, ±∞ or 50% off,
        /// and the same `procs` bits through the split.
        fn replay_is_bit_identical_to_the_plain_bisection(seed in 0u64..u64::MAX) {
            let (costs, seq, p) = random_inputs(seed);
            let reference = reference_bisect(&costs, &seq, p);
            let newton = |start| newton_estimate(&costs, &seq, p, start);
            prop_assert_eq!(bits(&replay(&costs, &seq, p, newton).map(|(b, ..)| b)), bits(&reference));
            let k = reference.as_ref().map_or(1.0, Bisect::value);
            for guess in [f64::NAN, 0.0, f64::INFINITY, f64::NEG_INFINITY, 0.5 * k, 1.5 * k] {
                let seeded = replay(&costs, &seq, p, |_| (guess, 0)).map(|(b, ..)| b);
                prop_assert_eq!(bits(&seeded), bits(&reference), "guess {}", guess);
            }
            if let Ok(b) = reference {
                let ef = equal_finish_from_costs(&costs, &seq, p).unwrap();
                let want = split_at(b, &costs, &seq, p);
                prop_assert_eq!(ef.makespan.to_bits(), want.makespan.to_bits());
                for (u, v) in ef.procs.iter().zip(&want.procs) {
                    prop_assert_eq!(u.to_bits(), v.to_bits());
                }
            }
            // Queried in random order within a few ulps and 1e-11 of the
            // root, the bracket answers as the evaluated predicate does.
            let monotone = costs.iter().all(|c| c.is_sign_positive())
                && seq.iter().all(|s| (0.0..=1.0).contains(s));
            if monotone && k > 0.0 {
                let mut bracket = Bracket::new(&costs, &seq, p, true);
                bracket.seed(newton_estimate(&costs, &seq, p, k).0);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut terms = [0.0; DEMAND_CHUNK];
                for _ in 0..64 {
                    let q = if rng.random_range(0..2) == 0 {
                        f64::from_bits(k.to_bits().wrapping_add_signed(rng.random_range(-40..=40)))
                    } else {
                        k * (1.0 + rng.random_range(-1e-11..=1e-11))
                    };
                    let exact = demand_compares_ge(&costs, &seq, p, q, true, &mut terms);
                    prop_assert_eq!(bracket.above(q), exact, "K = {}", q);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The four-lane scan's `lo`, `hi` and `monotone` have the
        /// sequential loop's bits, with NaN, infinite and signed-zero
        /// costs, and with every cost a zero of either sign.
        fn the_four_lane_scan_has_the_sequential_bounds(seed in 0u64..u64::MAX) {
            let (mut costs, seq, p) = random_inputs(seed);
            let mut rng = StdRng::seed_from_u64(!seed);
            let n = costs.len();
            for _ in 0..rng.random_range(0..3) {
                costs[rng.random_range(0..n)] =
                    [f64::NAN, f64::INFINITY, 0.0, -0.0][rng.random_range(0..4usize)];
            }
            if rng.random_range(0..8) == 0 {
                for c in &mut costs {
                    *c = if rng.random_range(0..2) == 0 { 0.0 } else { -0.0 };
                }
            }
            let (lo, hi, _, monotone) = bracket_inputs(&costs, &seq, p);
            let plain_lo = costs
                .iter()
                .zip(&seq)
                .fold(0.0, |lo, (&c, &s)| f64::max(lo, (s + (1.0 - s) / p) * c));
            let plain_hi = costs.iter().fold(0.0, |hi, &c| f64::max(hi, c));
            prop_assert_eq!(lo.to_bits(), plain_lo.to_bits());
            prop_assert_eq!(hi.to_bits(), plain_hi.to_bits());
            prop_assert_eq!(
                monotone,
                costs.iter().zip(&seq).all(|(c, s)| c.is_sign_positive() && (0.0..=1.0).contains(s))
            );
        }
    }

    #[test]
    fn inputs_outside_the_monotone_conditions_evaluate_every_predicate() {
        // s > 1 makes a term negative and rising in K, so the predicate is
        // not monotone there; a bracket would land on a different K.
        let (costs, seq, p) = ([1.0, 1.0, 1.0], [0.0, 0.1, 1.5], 0.05);
        let newton = |start| newton_estimate(&costs, &seq, p, start);
        let (b, estimate, _) = replay(&costs, &seq, p, newton).unwrap();
        assert_eq!(estimate, 0, "no estimate without monotonicity");
        assert_eq!(bits(&Ok(b)), bits(&reference_bisect(&costs, &seq, p)));
    }

    /// O(n) passes of one solve at DominantMinRatio's cache split:
    /// `(exact predicate evaluations, all passes)`.
    fn passes_at_the_dominant_split(apps: Vec<Application>, platform: Platform) -> (u32, u32) {
        let instance = Instance::new(apps.clone(), platform.clone()).unwrap();
        let out = crate::solver::by_name("DominantMinRatio")
            .unwrap()
            .solve(&instance, &mut SolveCtx::seeded(1))
            .unwrap();
        let costs: Vec<f64> = apps
            .iter()
            .zip(&out.schedule.assignments)
            .map(|(a, x)| seq_cost(a, &platform, x.cache))
            .collect();
        let seq: Vec<f64> = apps.iter().map(|a| a.seq_fraction).collect();
        let p = platform.processors;
        let newton = |start| newton_estimate(&costs, &seq, p, start);
        let (b, estimate, exact) = replay(&costs, &seq, p, newton).unwrap();
        assert!(matches!(b, Bisect::Converged(_)));
        assert_eq!(
            b.value().to_bits(),
            reference_bisect(&costs, &seq, p).unwrap().value().to_bits()
        );
        (exact, 1 + estimate + exact)
    }

    #[test]
    fn a_solve_makes_a_handful_of_passes() {
        // NPB-6 on TaihuLight, and a 4096-app NPB-SYNTH instance: the six
        // Table-2 profiles cycled, w ~ U[1e8, 1e12], s ~ U[0.01, 0.15].
        let rows = [
            ("CG", 5.70e10, 0.535, 6.59e-4),
            ("BT", 2.10e11, 0.829, 7.31e-3),
            ("LU", 1.52e11, 0.750, 1.51e-3),
            ("SP", 1.38e11, 0.762, 1.51e-2),
            ("MG", 1.23e10, 0.540, 2.62e-2),
            ("FT", 1.65e10, 0.582, 1.78e-2),
        ];
        let npb6 = rows
            .iter()
            .map(|&(name, w, f, m)| Application::new(name, w, 0.05, f, m))
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let synth = (0..4096)
            .map(|i| {
                let (name, _, f, m) = rows[i % 6];
                let w = rng.random_range(1e8..=1e12);
                let s = rng.random_range(0.01..=0.15);
                Application::new(format!("{name}-{i}"), w, s, f, m)
            })
            .collect();
        for (apps, name) in [(npb6, "NPB-6"), (synth, "NPB-SYNTH 4096")] {
            let (exact, total) = passes_at_the_dominant_split(apps, pf());
            assert!(exact <= 3, "{name}: {exact} exact predicate passes");
            assert!(total <= 7, "{name}: {total} passes");
        }
    }
}
