//! Deterministic seeded fan-out of many solvers over many instances.

use crate::algo::Outcome;
use crate::error::Result;
use crate::eval::EvalScratch;
use crate::parallel::parallel_map_with;
use crate::solver::{child_seed, Instance, SolveCtx, Solver};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Salt separating solver RNG streams from instance-generation streams, so
/// a solver can never accidentally share randomness with the generator
/// that produced its instance.
const ALGO_SALT: u64 = 0xA190;

/// Shape of one batch: how many repetitions, on how many threads, from
/// which root seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpec {
    /// Number of seeded repetitions (the paper averages 50 per point).
    pub reps: usize,
    /// Worker threads; the results are independent of this value.
    pub threads: usize,
    /// Root seed; every (repetition, solver) pair derives a child from it.
    pub seed: u64,
    /// Stream id, e.g. the index of a sweep point. Batches with different
    /// streams draw disjoint instance and solver randomness from the same
    /// root seed, so a sweep can reuse one seed across its points.
    pub stream: u64,
}

impl BatchSpec {
    /// A serial single-stream batch; adjust with the builder methods.
    pub fn new(reps: usize, seed: u64) -> Self {
        Self {
            reps,
            threads: 1,
            seed,
            stream: 0,
        }
    }

    /// Returns a copy fanning out on `threads` workers.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns a copy drawing from stream `stream`.
    #[must_use]
    pub fn with_stream(mut self, stream: u64) -> Self {
        self.stream = stream;
        self
    }
}

/// Produces the instance for one repetition from that repetition's
/// deterministic RNG.
pub type InstanceSource<'a> = &'a (dyn Fn(usize, &mut StdRng) -> Result<Instance> + Sync);

/// Runs every solver against `spec.reps` seeded instances and returns the
/// outcomes as `outcomes[rep][solver]`.
///
/// Guarantees:
///
/// * **Paired comparison** — all solvers see the *same* instance within a
///   repetition.
/// * **Determinism** — the result is a pure function of `(source, solvers,
///   spec.seed, spec.stream, spec.reps)`; `spec.threads` only changes the
///   wall-clock time. Randomized solvers draw from per-`(rep, solver)`
///   child seeds that are independent of the instance stream.
/// * **Error propagation** — a failing instance build or solve aborts the
///   batch with that error instead of panicking inside a worker thread.
pub fn solve_batch(
    source: InstanceSource<'_>,
    solvers: &[&dyn Solver],
    spec: &BatchSpec,
) -> Result<Vec<Vec<Outcome>>> {
    // One EvalScratch per worker, recycled across every (rep, solver) pair
    // that worker executes: the batched kernels then run allocation-free
    // after the first repetition. Results are unaffected — kernels clear
    // their output buffers before writing — which the determinism tests
    // (serial == parallel, fresh == reused) pin down.
    let per_rep: Vec<Result<Vec<Outcome>>> = parallel_map_with(
        spec.reps,
        spec.threads.max(1),
        EvalScratch::new,
        |scratch, rep| {
            let mut inst_rng =
                StdRng::seed_from_u64(child_seed(spec.seed, rep as u64, spec.stream));
            let instance = source(rep, &mut inst_rng)?;
            solvers
                .iter()
                .enumerate()
                .map(|(si, s)| {
                    // Two-level derivation: mixing (rep, stream) into a root
                    // first keeps (stream, solver) pairs collision-free for
                    // any solver count.
                    let root = child_seed(spec.seed ^ ALGO_SALT, rep as u64, spec.stream);
                    let mut ctx = SolveCtx::seeded(child_seed(root, si as u64, 0))
                        .with_recycled_scratch(std::mem::take(scratch));
                    let outcome = s.solve(&instance, &mut ctx);
                    *scratch = ctx.take_scratch();
                    outcome
                })
                .collect()
        },
    );
    per_rep.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{BuildOrder, Choice, Strategy};
    use crate::error::CoschedError;
    use crate::model::{Application, Platform};
    use rand::RngExt as _;

    fn source(rep: usize, rng: &mut StdRng) -> Result<Instance> {
        let n = 3 + rep % 2;
        let apps = (0..n)
            .map(|i| {
                Application::new(
                    format!("A{i}"),
                    rng.random_range(1e10..1e11),
                    0.02,
                    rng.random_range(0.3..0.9),
                    rng.random_range(1e-3..1e-2),
                )
            })
            .collect();
        Instance::new(apps, Platform::taihulight())
    }

    fn solvers() -> Vec<Strategy> {
        vec![
            Strategy::dominant(BuildOrder::Forward, Choice::MinRatio),
            Strategy::RandomPart,
            Strategy::ZeroCache,
        ]
    }

    fn refs(s: &[Strategy]) -> Vec<&dyn Solver> {
        s.iter().map(|s| s as &dyn Solver).collect()
    }

    #[test]
    fn shape_and_rerun_determinism() {
        let s = solvers();
        let spec = BatchSpec::new(4, 99).with_stream(2);
        let a = solve_batch(&source, &refs(&s), &spec).unwrap();
        let b = solve_batch(&source, &refs(&s), &spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|row| row.len() == 3));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let s = solvers();
        let serial = solve_batch(&source, &refs(&s), &BatchSpec::new(6, 42)).unwrap();
        let parallel =
            solve_batch(&source, &refs(&s), &BatchSpec::new(6, 42).with_threads(4)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn streams_are_independent() {
        let s = solvers();
        let a = solve_batch(&source, &refs(&s), &BatchSpec::new(2, 7).with_stream(0)).unwrap();
        let b = solve_batch(&source, &refs(&s), &BatchSpec::new(2, 7).with_stream(1)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn instance_errors_propagate_instead_of_panicking() {
        let bad: InstanceSource<'_> = &|rep, _rng| {
            if rep == 1 {
                Instance::new(vec![], Platform::taihulight())
            } else {
                source(rep, &mut StdRng::seed_from_u64(0))
            }
        };
        let s = solvers();
        let err = solve_batch(bad, &refs(&s), &BatchSpec::new(3, 0).with_threads(2)).unwrap_err();
        assert_eq!(err, CoschedError::EmptyInstance);
    }
}
