//! Branch-and-bound exact solver over cache partitions.
//!
//! The [`exact`](super::exact) enumerators scan all `2^n` subsets and top
//! out around `n ≈ 20`. This module finds the same optimum by best-first
//! branch-and-bound over include/exclude decisions on one application at a
//! time, pruning with an admissible lower bound derived from the paper's
//! Theorem 3 — which makes exact optima reachable for `n` in the hundreds.
//!
//! # Search space
//!
//! Applications are ordered by **descending dominance ratio**
//! `ratio_i = weight_i / threshold_i` (ties broken by ascending index); a
//! depth-`k` node has decided membership of the first `k` applications in
//! that order. Two mode-dependent leaf kernels reproduce the enumerators'
//! arithmetic exactly:
//!
//! * **Perfectly parallel** (`s_i = 0` for all): leaves are evaluated with
//!   [`partition_objective_eval`] and the search is restricted to
//!   **dominant** partitions — in descending-ratio order a subset is
//!   dominant iff each inclusion `j` satisfies `ratio_j > S + w_j` at the
//!   moment of inclusion, so dominance prunes whole subtrees (Theorem 2:
//!   the optimum is attained on a dominant partition). When even the next
//!   undecided application fails that test, no deeper one can pass it and
//!   the node closes into a leaf immediately.
//! * **Amdahl** (`s_i > 0` somewhere): all subsets are searched and leaves
//!   are scored with Theorem-3 fractions plus the §5 equal-finish-time
//!   bisection ([`equal_finish_makespan_eval`]), matching
//!   [`best_partition`](super::exact::best_partition).
//!
//! # The Theorem-3 lower bound
//!
//! At a node with included set `M` (strength `S = Σ_{i∈M} w_i`), excluded
//! set `E`, and undecided set `U`, every completed partition `D ⊇ M`
//! (disjoint from `E`) has final strength `S(D) ≥ S`, and `S(D) ≥ S + w_i`
//! for each undecided `i` it includes. Theorem 3's closed form
//! `x_i = w_i / S(D)` is therefore bounded above by `w_i / S` for members
//! and by `w_i / (S + w_i)` for undecided applications — and the
//! sequential cost `Exe_i^seq(x)` is non-increasing in `x`, so evaluating
//! it at those *optimistic* fractions under-estimates every completion's
//! cost (excluded applications are pinned at the full-miss cost `x = 0`;
//! in perfectly-parallel mode an undecided `i` with `ratio_i ≤ S` can
//! never join a dominant completion, so it is pinned at full miss too).
//! From those per-application cost under-estimates `c_i` two classic
//! makespan bounds follow for any feasible processor split `Σ p_i ≤ p`:
//!
//! * **area**: application `i` occupies at least `(1 - s_i)·c_i`
//!   processor-seconds, so `K ≥ Σ_i (1 - s_i)·c_i / p`;
//! * **critical path**: `p_i ≤ p` gives
//!   `K ≥ (s_i + (1 - s_i)/p)·c_i` for every `i`.
//!
//! The node bound is the max of the two; for `s ≡ 0` it reduces to the
//! Lemma-3 objective `Σ c_i / p` at the optimistic fractions.
//!
//! # The relaxed fractional-cache (Lagrangian) bound
//!
//! The per-application bound above ignores that the optimistic fractions
//! *jointly* overspend the cache (`Σ x_i ≫ 1`). In perfectly-parallel
//! mode a second bound charges for that: relax membership entirely and
//! lower-bound `min Σ_i Exe_i^seq(x_i)` subject to `Σ x_i ≤ 1` by its
//! Lagrangian dual. On the power-law branch
//! `Exe_i^seq(x) = A_i + l_mem·w_i^{α+1}·x^{-α}` (with `w_i` the
//! Theorem-3 weight), so for a multiplier `λ` the inner minimum of
//! `Exe_i^seq(x) + λx` sits at `x̂_i = τ·w_i` with the *shared*
//! `λ = α·l_mem / τ^{α+1}` — the same proportional-to-weight shape as
//! Theorem 3 itself. Fixing `τ = 1/S(warm start)` (the dual variable
//! matched to the warm partition) gives per-application inner minima
//! `m_i = min(full_miss_i, Exe_i^seq(x̂_i) + λ·x̂_i)` (`x̂_i` clamped to
//! the footprint cap; `x̂_i ≤ threshold_i` collapses to full miss), and
//! for **any** node with excluded set `E` every completion's objective is
//! at least
//!
//! ```text
//! ( Σ_i m_i − λ + Σ_{i∈E} (full_miss_i − m_i) ) / p
//! ```
//!
//! because excluded applications attain exactly `x = 0`. `Σ m_i − λ` and
//! the per-application deltas are precomputed once per search, so the
//! node bound is an O(1) add on top of the running excluded-delta — and
//! the final bound is the max of the two bounds. Both are admissible, so
//! the max is too. Bounds are shaved by `BOUND_SHAVE` before pruning so
//! floating-point noise can never prune a true optimum.
//!
//! # Determinism and parallel search
//!
//! The serial search pops nodes best-bound-first with seeded
//! ([`child_seed`]) tie-breaks, then *dives* each popped node
//! depth-first to a leaf so incumbents improve from the first pop. The work-stealing parallel search (one
//! lock-protected deque per worker, shared atomic incumbent) visits nodes
//! in a nondeterministic order — but because pruning is *strict* (only
//! bounds strictly above the incumbent are cut, after shaving), every leaf
//! tied at the optimal makespan is evaluated in **every** schedule, and
//! the incumbent is replaced under a total order (smaller makespan, then
//! lexicographically smaller member list). Both searches therefore return
//! the **bit-identical** partition, fractions, and makespan whenever they
//! run to completion. [`BnbSolution::stats`] and
//! [`BnbSolution::eval_stats`] are deterministic for `threads = 1` and
//! may vary across runs for `threads > 1` (incumbent timing changes what
//! gets pruned, never what is returned).
//!
//! # Budgets
//!
//! [`BnbConfig::max_nodes`] (and optionally [`BnbConfig::max_millis`])
//! bound the search. A budget-exhausted search is **not an error**: it
//! returns the best incumbent found — never worse than the
//! DominantMinRatio warm start — with [`BnbSolution::optimal`]` = false`,
//! so a served solve degrades gracefully instead of hanging a shard.

use crate::algo::{dominant_partition, BuildOrder, Choice, Outcome};
use crate::error::{CoschedError, Result};
use crate::eval::{EvalScratch, EvalSet, EvalStats};
use crate::model::{Application, ExecModel, Platform, Schedule};
use crate::solver::{child_seed, Instance, SolveCtx, Solver};
use crate::theory::cache_alloc::{optimal_cache_fractions, optimal_cache_fractions_into};
use crate::theory::dominance::Partition;
use crate::theory::objective::partition_objective_eval;
use crate::theory::proc_alloc::{equal_finish_makespan_eval, equal_finish_split_eval};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Multiplicative shave applied to a node's lower bound before comparing
/// against the incumbent: prune iff `bound * BOUND_SHAVE > incumbent`.
/// The bound is admissible in exact arithmetic; the `1e-9` relative margin
/// absorbs summation-reorder error (still ≪ 1e-9 at `n = 4096`) and the
/// bisection tolerance, so no optimal leaf is ever pruned.
const BOUND_SHAVE: f64 = 1.0 - 1e-9;

/// Budget and determinism knobs for [`branch_and_bound`].
#[derive(Debug, Clone, PartialEq)]
pub struct BnbConfig {
    /// Maximum nodes expanded before the search gives up and returns its
    /// incumbent with [`BnbSolution::optimal`]` = false`.
    pub max_nodes: u64,
    /// Optional wall-clock budget in milliseconds. `None` (the default)
    /// keeps the search fully deterministic; a time budget makes the
    /// *stopping point* — never a completed search's answer — depend on
    /// machine speed.
    pub max_millis: Option<u64>,
    /// Worker threads for the work-stealing search; `1` runs serially.
    pub threads: usize,
    /// Seed for the serial search's heap tie-breaks (completed searches
    /// return the same answer for every seed; see the module docs).
    pub seed: u64,
}

impl Default for BnbConfig {
    fn default() -> Self {
        Self {
            max_nodes: 2_000_000,
            max_millis: None,
            threads: 1,
            seed: 0,
        }
    }
}

impl BnbConfig {
    /// Returns a copy with the node budget replaced.
    #[must_use]
    pub fn with_max_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Returns a copy with the wall-clock budget replaced.
    #[must_use]
    pub fn with_max_millis(mut self, max_millis: Option<u64>) -> Self {
        self.max_millis = max_millis;
        self
    }

    /// Returns a copy configured for `threads` workers (min 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns a copy with the tie-break seed replaced.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Search-effort counters for one [`branch_and_bound`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BnbStats {
    /// Nodes popped and processed (leaves included).
    pub nodes_expanded: u64,
    /// Nodes cut because their lower bound (shaved) exceeded the incumbent.
    pub nodes_pruned_bound: u64,
    /// Include-children cut by the Definition-4 dominance test
    /// (perfectly-parallel mode only).
    pub nodes_pruned_dominance: u64,
    /// Leaves scored with the exact leaf kernel.
    pub leaves_evaluated: u64,
}

impl BnbStats {
    fn merge(&mut self, other: BnbStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.nodes_pruned_bound += other.nodes_pruned_bound;
        self.nodes_pruned_dominance += other.nodes_pruned_dominance;
        self.leaves_evaluated += other.leaves_evaluated;
    }
}

/// Outcome of a [`branch_and_bound`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct BnbSolution {
    /// The best cache-sharing subset found.
    pub partition: Partition,
    /// Its Theorem-3 cache fractions.
    pub cache: Vec<f64>,
    /// The resulting makespan (bit-identical to the enumerators' report
    /// for the same partition).
    pub makespan: f64,
    /// `true` iff the search ran to completion within budget, i.e. the
    /// makespan is a **proven** optimum over the search space.
    pub optimal: bool,
    /// Search-effort counters.
    pub stats: BnbStats,
    /// Eq.-2 kernel work performed (bounds + leaves + warm start).
    pub eval_stats: EvalStats,
}

/// Immutable per-search context shared by all workers.
struct Shared<'a> {
    eval: &'a EvalSet,
    /// Indices in decision order: descending `ratio`, ties by index.
    order: Vec<usize>,
    /// `pos_of[i]` = position of application `i` in [`Self::order`].
    pos_of: Vec<usize>,
    /// Dominance ratios, aligned with instance order.
    ratios: Vec<f64>,
    /// `Exe_i^seq(0)` — the full-miss sequential costs.
    full_miss: Vec<f64>,
    /// `true` iff every application is perfectly parallel.
    pp: bool,
    n: usize,
    p: f64,
    /// `Σ m_i − λ` of the relaxed fractional-cache bound (`−∞` when that
    /// bound is disabled — Amdahl mode or a degenerate warm start).
    lagr_base: f64,
    /// `full_miss_i − m_i ≥ 0`, added to a node's running excluded-delta
    /// when application `i` is decided out.
    lagr_delta: Vec<f64>,
}

impl<'a> Shared<'a> {
    fn new(models: &[ExecModel], eval: &'a EvalSet, warm_strength: f64) -> Self {
        let n = eval.len();
        let ratios: Vec<f64> = models.iter().map(|m| m.ratio).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| ratios[b].total_cmp(&ratios[a]).then(a.cmp(&b)));
        let mut pos_of = vec![0usize; n];
        for (pos, &i) in order.iter().enumerate() {
            pos_of[i] = pos;
        }
        let full_miss: Vec<f64> = (0..n).map(|i| eval.seq_cost_at(i, 0.0)).collect();
        let pp = eval.seq_fractions().iter().all(|&s| s == 0.0);
        // Precompute the relaxed fractional-cache bound's per-application
        // inner minima at `τ = 1/S(warm)` (module docs): one O(n) pass,
        // then every node bound is an O(1) add.
        let mut lagr_base = f64::NEG_INFINITY;
        let mut lagr_delta = vec![0.0; n];
        if pp && warm_strength > 0.0 && warm_strength.is_finite() {
            let alpha = eval.alpha();
            let tau = 1.0 / warm_strength;
            let lambda = alpha * eval.latency_mem() / tau.powf(alpha + 1.0);
            if lambda.is_finite() && lambda > 0.0 {
                let weights = eval.weights();
                let thresholds = eval.thresholds();
                let caps = eval.caps();
                let mut sum = 0.0;
                for i in 0..n {
                    let xhat = (tau * weights[i]).min(caps[i]);
                    let m = if xhat > thresholds[i] {
                        full_miss[i].min(eval.seq_cost_at(i, xhat) + lambda * xhat)
                    } else {
                        // `Exe^seq + λx` only grows past the threshold, and
                        // below it the cost is pinned at full miss anyway.
                        full_miss[i]
                    };
                    lagr_delta[i] = full_miss[i] - m;
                    sum += m;
                }
                if (sum - lambda).is_finite() {
                    lagr_base = sum - lambda;
                }
            }
        }
        Self {
            eval,
            order,
            pos_of,
            ratios,
            full_miss,
            pp,
            n,
            p: eval.processors(),
            lagr_base,
            lagr_delta,
        }
    }

    /// The relaxed fractional-cache bound for a node whose decided-out
    /// applications have accumulated `excluded_delta`; `−∞` (a no-op
    /// under `max`) when disabled.
    fn lagr_bound(&self, excluded_delta: f64) -> f64 {
        (self.lagr_base + excluded_delta) / self.p
    }
}

/// One open search node: membership decided for the first `depth` entries
/// of the decision order, `members` listing the included ones.
#[derive(Debug, Clone)]
struct Node {
    depth: usize,
    /// `S(M)` — sum of member weights, accumulated in decision order.
    strength: f64,
    /// Admissible lower bound on every completion of this node.
    bound: f64,
    /// Running `Σ (full_miss_i − m_i)` over decided-out applications, for
    /// the O(1) relaxed fractional-cache bound.
    excluded_delta: f64,
    members: Vec<usize>,
}

/// Reusable per-worker buffers: zero allocation per bound evaluation.
struct WorkerScratch {
    /// Membership marks, set/cleared around each bound evaluation.
    included: Vec<bool>,
    /// Theorem-3 fraction buffer for the Amdahl leaf kernel.
    fractions: Vec<f64>,
    scratch: EvalScratch,
}

impl WorkerScratch {
    fn new(n: usize) -> Self {
        Self {
            included: vec![false; n],
            fractions: Vec::new(),
            scratch: EvalScratch::new(),
        }
    }
}

fn deadline_passed(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// The admissible lower bound described in the module docs: optimistic
/// Theorem-3 fractions per application, then `max(area, critical path)`.
/// One O(n) pass; counts as one kernel call.
fn lower_bound(
    sh: &Shared<'_>,
    members: &[usize],
    depth: usize,
    strength: f64,
    ws: &mut WorkerScratch,
) -> f64 {
    for &i in members {
        ws.included[i] = true;
    }
    let weights = sh.eval.weights();
    let seq = sh.eval.seq_fractions();
    let mut area = 0.0f64;
    let mut path = 0.0f64;
    for i in 0..sh.n {
        let cost = if sh.pos_of[i] < depth {
            if ws.included[i] {
                let x = if strength > 0.0 {
                    weights[i] / strength
                } else {
                    0.0
                };
                sh.eval.seq_cost_at(i, x)
            } else {
                sh.full_miss[i]
            }
        } else if sh.pp && sh.ratios[i] <= strength + weights[i] {
            // No dominant completion can include `i`: doing so pushes the
            // final strength to at least `S + w_i`, which `ratio_i` must
            // strictly exceed and already fails against.
            sh.full_miss[i]
        } else {
            let denom = strength + weights[i];
            let x = if denom > 0.0 { weights[i] / denom } else { 0.0 };
            sh.eval.seq_cost_at(i, x)
        };
        let s = seq[i];
        area += (1.0 - s) * cost;
        path = path.max((s + (1.0 - s) / sh.p) * cost);
    }
    ws.scratch.stats.record(sh.n);
    for &i in members {
        ws.included[i] = false;
    }
    (area / sh.p).max(path)
}

/// Scores a completed partition with the mode's exact leaf kernel — the
/// same arithmetic, in the same order, as the `2^n` enumerators.
fn leaf_value(sh: &Shared<'_>, partition: &Partition, ws: &mut WorkerScratch) -> Result<f64> {
    if sh.pp {
        Ok(partition_objective_eval(
            sh.eval,
            partition,
            &mut ws.scratch,
        ))
    } else {
        optimal_cache_fractions_into(sh.eval.weights(), partition, &mut ws.fractions);
        equal_finish_makespan_eval(sh.eval, &ws.fractions, &mut ws.scratch)
    }
}

/// `true` iff a node closes into a leaf: every application is decided, or
/// (perfectly-parallel mode) the next undecided ratio already fails the
/// dominance test, which every deeper one then fails too.
fn is_leaf(sh: &Shared<'_>, node: &Node) -> bool {
    node.depth == sh.n || (sh.pp && sh.ratios[sh.order[node.depth]] <= node.strength)
}

/// Expands a non-leaf node into `(include, exclude, dominance_pruned)`
/// children with freshly computed bounds. The include child is absent iff
/// the dominance test cut it (perfectly-parallel mode only).
fn children(sh: &Shared<'_>, node: Node, ws: &mut WorkerScratch) -> (Option<Node>, Node, bool) {
    let j = sh.order[node.depth];
    let depth = node.depth + 1;
    let weights = sh.eval.weights();
    let mut include = None;
    let mut dominance_pruned = false;
    if !sh.pp || sh.ratios[j] > node.strength + weights[j] {
        let mut members = node.members.clone();
        members.push(j);
        let strength = node.strength + weights[j];
        let bound =
            lower_bound(sh, &members, depth, strength, ws).max(sh.lagr_bound(node.excluded_delta));
        include = Some(Node {
            depth,
            strength,
            bound,
            excluded_delta: node.excluded_delta,
            members,
        });
    } else {
        dominance_pruned = true;
    }
    let excluded_delta = node.excluded_delta + sh.lagr_delta[j];
    let bound =
        lower_bound(sh, &node.members, depth, node.strength, ws).max(sh.lagr_bound(excluded_delta));
    let exclude = Node {
        depth,
        strength: node.strength,
        bound,
        excluded_delta,
        members: node.members,
    };
    (include, exclude, dominance_pruned)
}

/// The incumbent under the search's total order: smaller makespan first,
/// then lexicographically smaller (sorted) member list — which is what
/// makes the final answer independent of visit order.
#[derive(Debug, Clone)]
struct Incumbent {
    makespan: f64,
    partition: Partition,
}

fn improves(makespan: f64, partition: &Partition, incumbent: &Incumbent) -> bool {
    makespan < incumbent.makespan
        || (makespan == incumbent.makespan && partition.members() < incumbent.partition.members())
}

/// Min-ordered heap entry: `(bound bits, seeded tie-break, birth order)`.
/// Bounds are non-negative, so `f64::to_bits` compares like the value.
struct HeapEntry {
    key: (u64, u64, u64),
    node: Node,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest bound.
        other.key.cmp(&self.key)
    }
}

fn push_entry(heap: &mut BinaryHeap<HeapEntry>, seed: u64, counter: &mut u64, node: Node) {
    let key = (
        node.bound.to_bits(),
        child_seed(seed, *counter, 0),
        *counter,
    );
    *counter += 1;
    heap.push(HeapEntry { key, node });
}

/// Serial best-first search with diving: the best-bound open node is
/// popped, then driven depth-first all the way to a leaf along the
/// smaller-bound child (siblings joining the heap), so good incumbents
/// appear after the very first pop and pruning bites immediately — pure
/// best-first on a shallow bound plateau would expand an exponential
/// frontier before scoring a single leaf. Returns `(incumbent,
/// completed, stats)`.
fn search_serial(
    sh: &Shared<'_>,
    cfg: &BnbConfig,
    mut best: Incumbent,
    ws: &mut WorkerScratch,
) -> Result<(Incumbent, bool, BnbStats)> {
    let deadline = cfg
        .max_millis
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut stats = BnbStats::default();
    let mut heap = BinaryHeap::new();
    let mut counter = 0u64;
    let root_bound = lower_bound(sh, &[], 0, 0.0, ws).max(sh.lagr_bound(0.0));
    push_entry(
        &mut heap,
        cfg.seed,
        &mut counter,
        Node {
            depth: 0,
            strength: 0.0,
            bound: root_bound,
            excluded_delta: 0.0,
            members: Vec::new(),
        },
    );
    let mut complete = true;
    'search: while let Some(HeapEntry { node, .. }) = heap.pop() {
        if node.bound * BOUND_SHAVE > best.makespan {
            stats.nodes_pruned_bound += 1;
            continue;
        }
        let mut node = node;
        loop {
            if stats.nodes_expanded >= cfg.max_nodes || deadline_passed(deadline) {
                complete = false;
                break 'search;
            }
            stats.nodes_expanded += 1;
            if stats.nodes_expanded % 65_536 == 0 {
                crate::obs::instant(
                    "solver",
                    "bnb_progress",
                    stats.nodes_expanded,
                    stats.nodes_pruned_bound + stats.nodes_pruned_dominance,
                );
            }
            if is_leaf(sh, &node) {
                let partition = Partition::new(node.members);
                let makespan = leaf_value(sh, &partition, ws)?;
                stats.leaves_evaluated += 1;
                if improves(makespan, &partition, &best) {
                    crate::obs::instant(
                        "solver",
                        "bnb_incumbent",
                        stats.nodes_expanded,
                        stats.leaves_evaluated,
                    );
                    best = Incumbent {
                        makespan,
                        partition,
                    };
                }
                break;
            }
            let (include, exclude, dominance_pruned) = children(sh, node, ws);
            if dominance_pruned {
                stats.nodes_pruned_dominance += 1;
            }
            // Continue the dive along the smaller-bound child (ties go to
            // include); the sibling joins the heap for best-first pops.
            let (cont, sibling) = match include {
                Some(inc) if inc.bound <= exclude.bound => (inc, Some(exclude)),
                Some(inc) => (exclude, Some(inc)),
                None => (exclude, None),
            };
            if let Some(sib) = sibling {
                if sib.bound * BOUND_SHAVE > best.makespan {
                    stats.nodes_pruned_bound += 1;
                } else {
                    push_entry(&mut heap, cfg.seed, &mut counter, sib);
                }
            }
            if cont.bound * BOUND_SHAVE > best.makespan {
                stats.nodes_pruned_bound += 1;
                break;
            }
            node = cont;
        }
    }
    Ok((best, complete, stats))
}

/// Shared coordination state of the work-stealing search.
struct Coord<'a> {
    queues: &'a [Mutex<VecDeque<Node>>],
    /// Nodes alive anywhere in the system; workers exit when it hits 0.
    pending: &'a AtomicUsize,
    best: &'a Mutex<Incumbent>,
    /// Fast-path copy of `best.makespan` (bits); stale reads only ever
    /// under-prune, never over-prune.
    best_bits: &'a AtomicU64,
    expanded: &'a AtomicU64,
    exhausted: &'a AtomicBool,
    failure: &'a Mutex<Option<CoschedError>>,
    max_nodes: u64,
    deadline: Option<Instant>,
}

fn current_best(coord: &Coord<'_>) -> f64 {
    f64::from_bits(coord.best_bits.load(Ordering::SeqCst))
}

fn offer(coord: &Coord<'_>, makespan: f64, partition: Partition) {
    let mut guard = coord.best.lock().unwrap();
    if improves(makespan, &partition, &guard) {
        *guard = Incumbent {
            makespan,
            partition,
        };
        coord.best_bits.store(makespan.to_bits(), Ordering::SeqCst);
        crate::obs::instant(
            "solver",
            "bnb_incumbent",
            coord.expanded.load(Ordering::SeqCst),
            0,
        );
    }
}

/// Pops LIFO from the worker's own deque, then steals FIFO from victims.
fn pop_node(coord: &Coord<'_>, wid: usize) -> Option<Node> {
    if let Some(node) = coord.queues[wid].lock().unwrap().pop_back() {
        return Some(node);
    }
    let k = coord.queues.len();
    for offset in 1..k {
        let victim = (wid + offset) % k;
        if let Some(node) = coord.queues[victim].lock().unwrap().pop_front() {
            return Some(node);
        }
    }
    None
}

fn worker(sh: &Shared<'_>, coord: &Coord<'_>, wid: usize) -> (BnbStats, EvalStats) {
    let mut ws = WorkerScratch::new(sh.n);
    let mut stats = BnbStats::default();
    loop {
        let Some(node) = pop_node(coord, wid) else {
            if coord.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        // Every popped node decrements `pending` exactly once, and any
        // children are registered *before* that decrement so the count
        // can never hit 0 while work exists.
        if coord.exhausted.load(Ordering::SeqCst) || coord.failure.lock().unwrap().is_some() {
            coord.pending.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        if coord.expanded.load(Ordering::SeqCst) >= coord.max_nodes
            || deadline_passed(coord.deadline)
        {
            coord.exhausted.store(true, Ordering::SeqCst);
            coord.pending.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        if node.bound * BOUND_SHAVE > current_best(coord) {
            stats.nodes_pruned_bound += 1;
            coord.pending.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        coord.expanded.fetch_add(1, Ordering::SeqCst);
        stats.nodes_expanded += 1;
        if is_leaf(sh, &node) {
            let partition = Partition::new(node.members);
            match leaf_value(sh, &partition, &mut ws) {
                Ok(makespan) => {
                    stats.leaves_evaluated += 1;
                    offer(coord, makespan, partition);
                }
                Err(e) => {
                    let mut slot = coord.failure.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                }
            }
            coord.pending.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let (mut include, exclude, dominance_pruned) = children(sh, node, &mut ws);
        if dominance_pruned {
            stats.nodes_pruned_dominance += 1;
        }
        if include
            .as_ref()
            .is_some_and(|c| c.bound * BOUND_SHAVE > current_best(coord))
        {
            stats.nodes_pruned_bound += 1;
            include = None;
        }
        let mut exclude = Some(exclude);
        if exclude
            .as_ref()
            .is_some_and(|c| c.bound * BOUND_SHAVE > current_best(coord))
        {
            stats.nodes_pruned_bound += 1;
            exclude = None;
        }
        let spawned = usize::from(include.is_some()) + usize::from(exclude.is_some());
        if spawned > 0 {
            coord.pending.fetch_add(spawned, Ordering::SeqCst);
            let mut queue = coord.queues[wid].lock().unwrap();
            // Exclude first so LIFO pops follow the include spine toward
            // the warm start's neighbourhood.
            if let Some(c) = exclude {
                queue.push_back(c);
            }
            if let Some(c) = include {
                queue.push_back(c);
            }
        }
        coord.pending.fetch_sub(1, Ordering::SeqCst);
    }
    (stats, ws.scratch.stats)
}

/// Work-stealing parallel search. Completed runs return the bit-identical
/// answer of [`search_serial`]; see the module docs for the argument.
fn search_parallel(
    sh: &Shared<'_>,
    cfg: &BnbConfig,
    warm: Incumbent,
    threads: usize,
    ws: &mut WorkerScratch,
) -> Result<(Incumbent, bool, BnbStats, EvalStats)> {
    let deadline = cfg
        .max_millis
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let root_bound = lower_bound(sh, &[], 0, 0.0, ws).max(sh.lagr_bound(0.0));
    let queues: Vec<Mutex<VecDeque<Node>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    queues[0].lock().unwrap().push_back(Node {
        depth: 0,
        strength: 0.0,
        bound: root_bound,
        excluded_delta: 0.0,
        members: Vec::new(),
    });
    let pending = AtomicUsize::new(1);
    let best_bits = AtomicU64::new(warm.makespan.to_bits());
    let best = Mutex::new(warm);
    let expanded = AtomicU64::new(0);
    let exhausted = AtomicBool::new(false);
    let failure = Mutex::new(None);
    let coord = Coord {
        queues: &queues,
        pending: &pending,
        best: &best,
        best_bits: &best_bits,
        expanded: &expanded,
        exhausted: &exhausted,
        failure: &failure,
        max_nodes: cfg.max_nodes,
        deadline,
    };
    let mut stats = BnbStats::default();
    let mut eval_stats = EvalStats::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|wid| {
                let coord = &coord;
                s.spawn(move || worker(sh, coord, wid))
            })
            .collect();
        for handle in handles {
            let (worker_stats, worker_eval) = handle.join().expect("search worker panicked");
            stats.merge(worker_stats);
            eval_stats.merge(worker_eval);
        }
    });
    if let Some(e) = failure.lock().unwrap().take() {
        return Err(e);
    }
    let complete = !exhausted.load(Ordering::SeqCst);
    let best = best.into_inner().unwrap();
    Ok((best, complete, stats, eval_stats))
}

/// Branch-and-bound on already-derived models and SoA view (the
/// [`Instance`] fast path — nothing is re-validated or re-derived).
pub(crate) fn solve_prepared(
    models: &[ExecModel],
    eval: &EvalSet,
    cfg: &BnbConfig,
) -> Result<BnbSolution> {
    if eval.is_empty() {
        return Err(CoschedError::EmptyInstance);
    }
    let mut search_sp = crate::obs::span("solver", "bnb_search");
    // Warm start: the paper's best deterministic heuristic seeds the
    // incumbent (so even a zero-budget search returns a sane answer) and
    // its strength fixes the relaxed bound's dual variable.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let warm_partition =
        dominant_partition(models, BuildOrder::Forward, Choice::MinRatio, &mut rng);
    let warm_strength: f64 = warm_partition
        .members()
        .iter()
        .map(|&i| eval.weights()[i])
        .sum();
    let sh = Shared::new(models, eval, warm_strength);
    let mut ws = WorkerScratch::new(sh.n);
    let warm_makespan = leaf_value(&sh, &warm_partition, &mut ws)?;
    let warm = Incumbent {
        makespan: warm_makespan,
        partition: warm_partition,
    };
    let threads = cfg.threads.max(1);
    let (best, complete, stats, mut eval_stats) = if threads == 1 {
        let (best, complete, stats) = search_serial(&sh, cfg, warm, &mut ws)?;
        (best, complete, stats, EvalStats::default())
    } else {
        search_parallel(&sh, cfg, warm, threads, &mut ws)?
    };
    eval_stats.merge(ws.scratch.stats);
    search_sp.set_args(
        stats.nodes_expanded,
        stats.nodes_pruned_bound + stats.nodes_pruned_dominance,
    );
    if !complete {
        crate::obs::instant("solver", "bnb_budget_exhausted", stats.nodes_expanded, 0);
    }
    let cache = optimal_cache_fractions(models, &best.partition);
    Ok(BnbSolution {
        partition: best.partition,
        cache,
        makespan: best.makespan,
        optimal: complete,
        stats,
        eval_stats,
    })
}

/// Exact optimum by branch-and-bound.
///
/// For perfectly parallel applications this is the **proven** optimum of
/// CoSchedCache (the §4 characterisation); for Amdahl profiles it is the
/// same reference value [`best_partition`](super::exact::best_partition)
/// computes, found without scanning all `2^n` subsets. See the module
/// docs for the bound, determinism, and budget semantics.
///
/// # Errors
/// Instance/platform validation errors, or a bisection failure while
/// scoring a leaf. A **budget overrun is not an error** — the best
/// incumbent comes back with [`BnbSolution::optimal`]` = false`.
pub fn branch_and_bound(
    apps: &[Application],
    platform: &Platform,
    cfg: &BnbConfig,
) -> Result<BnbSolution> {
    crate::model::validate_instance(apps)?;
    platform.validate()?;
    let models = ExecModel::of_all(apps, platform);
    let eval = EvalSet::from_models(apps, platform, &models);
    solve_prepared(&models, &eval, cfg)
}

/// The `"exact"` registry solver: branch-and-bound with a node/time
/// budget guardrail, degrading to its incumbent (with
/// [`Outcome::optimal`]` = false`) when the budget runs out.
///
/// The [`SolveCtx`] seed and thread count override the config's, like
/// every other registered solver; the budgets come from
/// [`BnbSolver::config`].
#[derive(Debug, Clone, Default)]
pub struct BnbSolver {
    /// Budgets and thread count applied to every solve.
    pub config: BnbConfig,
}

impl BnbSolver {
    /// A solver with the default budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// A solver with explicit budgets.
    pub fn with_config(config: BnbConfig) -> Self {
        Self { config }
    }
}

impl Solver for BnbSolver {
    fn name(&self) -> String {
        "exact".to_string()
    }

    fn solve(&self, instance: &Instance, ctx: &mut SolveCtx) -> Result<Outcome> {
        let cfg = self
            .config
            .clone()
            .with_seed(ctx.seed())
            .with_threads(self.config.threads.max(ctx.threads));
        let before = ctx.stats();
        let sol = solve_prepared(instance.models(), instance.eval(), &cfg)?;
        ctx.scratch().stats.merge(sol.eval_stats);
        // Materialise the equal-finish processor split for the winning
        // fractions; the reported makespan stays the search's canonical
        // value (bit-identical to the enumerators').
        let ef = equal_finish_split_eval(instance.eval(), &sol.cache, ctx.scratch())?;
        Ok(Outcome {
            makespan: sol.makespan,
            schedule: Schedule::from_parts(&ef.procs, &sol.cache),
            partition: sol.partition,
            concurrent: true,
            eval_stats: ctx.stats().since(before),
            optimal: sol.optimal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::exact::{best_partition, exact_perfectly_parallel};
    use rand::RngExt as _;

    fn pf() -> Platform {
        Platform::taihulight()
    }

    fn npb_pp() -> Vec<Application> {
        vec![
            Application::perfectly_parallel("CG", 5.70e10, 0.535, 6.59e-4),
            Application::perfectly_parallel("BT", 2.10e11, 0.829, 7.31e-3),
            Application::perfectly_parallel("LU", 1.52e11, 0.750, 1.51e-3),
            Application::perfectly_parallel("SP", 1.38e11, 0.762, 1.51e-2),
            Application::perfectly_parallel("MG", 1.23e10, 0.540, 2.62e-2),
            Application::perfectly_parallel("FT", 1.65e10, 0.582, 1.78e-2),
        ]
    }

    fn random_pp_instance(seed: u64, n: usize) -> Vec<Application> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                Application::perfectly_parallel(
                    format!("T{i}"),
                    10f64.powf(rng.random_range(8.0..12.0)),
                    rng.random_range(0.1..0.9),
                    10f64.powf(rng.random_range(-4.0..-0.05)),
                )
            })
            .collect()
    }

    #[test]
    fn matches_enumerator_on_npb() {
        let apps = npb_pp();
        let reference = exact_perfectly_parallel(&apps, &pf()).unwrap();
        let sol = branch_and_bound(&apps, &pf(), &BnbConfig::default()).unwrap();
        assert!(sol.optimal);
        assert_eq!(sol.makespan.to_bits(), reference.makespan.to_bits());
        assert_eq!(sol.partition, reference.partition);
        assert_eq!(sol.cache, reference.cache);
    }

    #[test]
    fn matches_enumerator_on_small_caches() {
        for (seed, cache) in [(1u64, 45e6), (2, 80e6), (3, 100e6), (4, 150e6)] {
            let apps = random_pp_instance(seed, 8);
            let platform = pf().with_cache_size(cache);
            let reference = exact_perfectly_parallel(&apps, &platform).unwrap();
            let sol = branch_and_bound(&apps, &platform, &BnbConfig::default()).unwrap();
            assert!(sol.optimal, "seed {seed}");
            assert_eq!(
                sol.makespan.to_bits(),
                reference.makespan.to_bits(),
                "seed {seed}: {} != {}",
                sol.makespan,
                reference.makespan
            );
        }
    }

    #[test]
    fn matches_amdahl_enumerator() {
        let mut rng = StdRng::seed_from_u64(11);
        let apps: Vec<Application> = random_pp_instance(11, 7)
            .into_iter()
            .map(|a| {
                let s = rng.random_range(0.01..0.15);
                a.with_seq_fraction(s)
            })
            .collect();
        let platform = pf().with_cache_size(120e6);
        let reference = best_partition(&apps, &platform).unwrap();
        let sol = branch_and_bound(&apps, &platform, &BnbConfig::default()).unwrap();
        assert!(sol.optimal);
        assert_eq!(sol.makespan.to_bits(), reference.makespan.to_bits());
    }

    #[test]
    fn serial_and_parallel_agree() {
        for seed in 0..4u64 {
            let apps = random_pp_instance(40 + seed, 10);
            let platform = pf().with_cache_size(100e6);
            let serial = branch_and_bound(&apps, &platform, &BnbConfig::default()).unwrap();
            let parallel =
                branch_and_bound(&apps, &platform, &BnbConfig::default().with_threads(4)).unwrap();
            assert!(serial.optimal && parallel.optimal);
            assert_eq!(serial.makespan.to_bits(), parallel.makespan.to_bits());
            assert_eq!(serial.partition, parallel.partition);
            assert_eq!(serial.cache, parallel.cache);
        }
    }

    #[test]
    fn zero_budget_degrades_to_warm_start() {
        let apps = npb_pp();
        let cfg = BnbConfig::default().with_max_nodes(0);
        let sol = branch_and_bound(&apps, &pf(), &cfg).unwrap();
        assert!(!sol.optimal);
        // The incumbent is the DominantMinRatio warm start — on NPB-6 the
        // full partition, which happens to be the optimum too.
        let full = branch_and_bound(&apps, &pf(), &BnbConfig::default()).unwrap();
        assert!(sol.makespan >= full.makespan * (1.0 - 1e-12));
    }

    #[test]
    fn bound_is_admissible_at_the_root() {
        for seed in 0..6u64 {
            let apps = random_pp_instance(70 + seed, 7);
            let platform = pf().with_cache_size(80e6);
            let models = ExecModel::of_all(&apps, &platform);
            let eval = EvalSet::from_models(&apps, &platform, &models);
            // Fix the relaxed bound's dual variable exactly as
            // `solve_prepared` does.
            let warm = dominant_partition(
                &models,
                BuildOrder::Forward,
                Choice::MinRatio,
                &mut StdRng::seed_from_u64(0),
            );
            let warm_strength: f64 = warm.members().iter().map(|&i| eval.weights()[i]).sum();
            let sh = Shared::new(&models, &eval, warm_strength);
            let mut ws = WorkerScratch::new(sh.n);
            let root = lower_bound(&sh, &[], 0, 0.0, &mut ws).max(sh.lagr_bound(0.0));
            let exact = exact_perfectly_parallel(&apps, &platform).unwrap();
            assert!(
                root * BOUND_SHAVE <= exact.makespan,
                "seed {seed}: root bound {root} above optimum {}",
                exact.makespan
            );
        }
    }

    #[test]
    fn single_application_instances_work() {
        let apps = vec![Application::perfectly_parallel("A", 1e10, 0.5, 1e-3)];
        let sol = branch_and_bound(&apps, &pf(), &BnbConfig::default()).unwrap();
        assert!(sol.optimal);
        assert_eq!(sol.partition, Partition::all(1));
    }

    #[test]
    fn solver_impl_reports_optimality_and_matches_direct_call() {
        let apps = npb_pp();
        let instance = Instance::new(apps.clone(), pf()).unwrap();
        let solver = BnbSolver::new();
        assert_eq!(solver.name(), "exact");
        assert!(!solver.is_randomized());
        let outcome = solver.solve(&instance, &mut SolveCtx::seeded(7)).unwrap();
        assert!(outcome.optimal);
        let direct = branch_and_bound(&apps, &pf(), &BnbConfig::default()).unwrap();
        assert_eq!(outcome.makespan.to_bits(), direct.makespan.to_bits());
        assert_eq!(outcome.partition, direct.partition);
        outcome
            .schedule
            .validate(&apps, &pf())
            .expect("exact schedule must be feasible");
    }

    #[test]
    fn solver_budget_exhaustion_is_not_an_error() {
        let instance = Instance::new(npb_pp(), pf()).unwrap();
        let solver = BnbSolver::with_config(BnbConfig::default().with_max_nodes(0));
        let outcome = solver.solve(&instance, &mut SolveCtx::seeded(7)).unwrap();
        assert!(!outcome.optimal);
        assert!(outcome.makespan.is_finite());
    }
}
