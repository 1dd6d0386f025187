//! Monte-Carlo trial runner: many independent simulations in parallel.
//!
//! Trial results stream into per-chunk accumulators ([`Stats`] plus a
//! time-breakdown sum) as they are produced, so memory is `O(chunks)` —
//! never an `O(trials)` buffer of [`SimResult`]s. Chunk boundaries come
//! from [`rayon::fold_chunk_len`], a pure function of the trial count, and
//! accumulators merge in chunk order; the sequential path replicates the
//! exact same grouping, which is why parallel and sequential statistics are
//! bit-identical for any thread count.

use crate::quantile::QuantileSketch;
use crate::stats::Stats;
use crate::trialplan::{simulate_planned, PlannedResult, TrialPlan};
use dagchkpt_core::{Schedule, Workflow};
use dagchkpt_failure::{ExponentialInjector, FaultInjector, FaultModel};
use rayon::prelude::*;

/// How many trials to run, how to seed them, and whether to fan them out
/// over the rayon thread pool.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpec {
    /// Number of independent trials.
    pub trials: usize,
    /// Master seed; trial `i` is seeded with a SplitMix64 scramble of
    /// `(seed, i)` so streams are decorrelated.
    pub seed: u64,
    /// Run trials on the rayon thread pool (`true`, the default) or on the
    /// calling thread (`false`). Because every trial owns a seed derived
    /// only from `(seed, i)`, and both paths fold results into per-chunk
    /// accumulators over the same item-count-derived chunk boundaries
    /// (merged in chunk order), they produce **bit-identical** statistics
    /// — the parallel path is purely a wall-clock optimization
    /// (`tests::parallel_and_sequential_paths_are_bit_identical`).
    pub parallel: bool,
}

impl TrialSpec {
    /// `trials` trials from `seed`, fanned out over the thread pool.
    pub fn new(trials: usize, seed: u64) -> Self {
        TrialSpec {
            trials,
            seed,
            parallel: true,
        }
    }

    /// `trials` trials from `seed` on the calling thread only.
    pub fn sequential(trials: usize, seed: u64) -> Self {
        TrialSpec {
            trials,
            seed,
            parallel: false,
        }
    }

    /// Seed for the `i`-th trial (SplitMix64 finalizer).
    pub fn trial_seed(&self, i: usize) -> u64 {
        splitmix(self.seed, i as u64)
    }

    /// Seed for processor `rank` of the `i`-th trial of a replicated run.
    /// Rank 0 gets [`TrialSpec::trial_seed`] verbatim, so the first
    /// (reference) processor's fault stream is exactly the homogeneous
    /// stream — the anchor of the degenerate-platform bit-identity — and
    /// higher ranks get decorrelated SplitMix64 scrambles.
    pub fn proc_seed(&self, i: usize, rank: usize) -> u64 {
        let s = self.trial_seed(i);
        if rank == 0 {
            s
        } else {
            splitmix(s, rank as u64)
        }
    }
}

/// SplitMix64 finalizer over `(seed, i)`.
fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Aggregate over trials.
#[derive(Debug, Clone)]
pub struct TrialStats {
    /// Makespan statistics.
    pub makespan: Stats,
    /// Fault-count statistics.
    pub faults: Stats,
    /// Mean time breakdown (work, rework, recovery, checkpoint, wasted,
    /// downtime), averaged over trials. All `NaN` when zero trials were
    /// run — coherent with [`Stats::mean`], which is also `NaN` when
    /// empty.
    pub mean_breakdown: [f64; 6],
    /// Makespan tail sketch (p50/p95/p99); all-`NaN` quantiles when zero
    /// trials were run, matching the `NaN` means above.
    pub tail: QuantileSketch,
}

/// Per-chunk streaming accumulator: two [`Stats`], the tail sketch, plus
/// the running breakdown sum. `O(1)` per chunk, merged in chunk order.
#[derive(Debug, Clone)]
struct TrialAccum {
    makespan: Stats,
    faults: Stats,
    breakdown: [f64; 6],
    tail: QuantileSketch,
}

impl TrialAccum {
    /// The fold identity: everything empty.
    fn identity() -> Self {
        TrialAccum {
            makespan: Stats::new(),
            faults: Stats::new(),
            breakdown: [0.0; 6],
            tail: QuantileSketch::new(),
        }
    }

    /// Builds one chunk's accumulator from its buffered samples in one
    /// batched pass per field. Field-major consumption is bit-identical to
    /// the historical per-trial interleaved pushes: each field's stream
    /// sees exactly the same values in the same order, and the fields
    /// never read each other.
    fn from_chunk(samples: &ChunkSamples) -> Self {
        let mut acc = TrialAccum::identity();
        acc.makespan.push_slice(&samples.makespans);
        acc.faults.push_slice(&samples.faults);
        acc.tail.push_slice(&samples.makespans);
        acc.breakdown = samples.breakdown;
        acc
    }

    /// Merges a later chunk's accumulator (order-sensitive in the last
    /// floating-point bits, hence always called in chunk order).
    fn merge(mut self, other: TrialAccum) -> Self {
        self.makespan = self.makespan.merge(other.makespan);
        self.faults = self.faults.merge(other.faults);
        self.tail = self.tail.merge(other.tail);
        for (a, b) in self.breakdown.iter_mut().zip(other.breakdown) {
            *a += b;
        }
        self
    }

    /// Final aggregate; the empty case yields `NaN` means throughout.
    fn into_trial_stats(self) -> TrialStats {
        let n = self.makespan.n();
        let mean_breakdown = if n == 0 {
            [f64::NAN; 6]
        } else {
            self.breakdown.map(|v| v / n as f64)
        };
        TrialStats {
            makespan: self.makespan,
            faults: self.faults,
            mean_breakdown,
            tail: self.tail,
        }
    }
}

/// Sequential twin of the executor's chunked `fold(..).reduce(..)`: the
/// same [`rayon::fold_chunk_len`] boundaries, per-chunk accumulation, and
/// in-order merge — the bit-identity anchor for
/// `TrialSpec { parallel: false }`.
pub(crate) fn fold_sequential_chunks<A>(
    n: usize,
    identity: impl Fn() -> A,
    push: impl Fn(A, usize) -> A,
    merge: impl Fn(A, A) -> A,
) -> A {
    let chunk = rayon::fold_chunk_len(n);
    let mut merged = identity();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + chunk).min(n);
        let mut acc = identity();
        for i in lo..hi {
            acc = push(acc, i);
        }
        merged = merge(merged, acc);
        lo = hi;
    }
    merged
}

/// Sequential twin of the executor's `fold_chunk_states(..).reduce(..)`:
/// the same [`rayon::fold_chunk_len`] boundaries, one `init()` state per
/// chunk, and the in-order merge — the bit-identity anchor of the scratch
/// fast path for `TrialSpec { parallel: false }`.
pub(crate) fn fold_sequential_chunk_states<St, A>(
    n: usize,
    init: impl Fn() -> St,
    step: impl Fn(&mut St, usize),
    finish: impl Fn(St) -> A,
    identity: impl Fn() -> A,
    merge: impl Fn(A, A) -> A,
) -> A {
    let chunk = rayon::fold_chunk_len(n);
    let mut merged = identity();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + chunk).min(n);
        let mut state = init();
        for i in lo..hi {
            step(&mut state, i);
        }
        merged = merge(merged, finish(state));
        lo = hi;
    }
    merged
}

/// One fold chunk's buffered trial results, stored field-major so the
/// end-of-chunk flush feeds each accumulator a contiguous slice
/// ([`Stats::push_slice`] / [`QuantileSketch::push_slice`]). Buffers are
/// sized to the fold-chunk length up front, so per-trial pushes never
/// reallocate.
pub(crate) struct ChunkSamples {
    makespans: Vec<f64>,
    faults: Vec<f64>,
    breakdown: [f64; 6],
}

impl ChunkSamples {
    fn with_capacity(cap: usize) -> Self {
        ChunkSamples {
            makespans: Vec::with_capacity(cap),
            faults: Vec::with_capacity(cap),
            breakdown: [0.0; 6],
        }
    }

    fn push(&mut self, r: PlannedResult) {
        self.makespans.push(r.makespan);
        self.faults.push(r.n_faults as f64);
        for (acc, v) in self.breakdown.iter_mut().zip([
            r.time_work,
            r.time_rework,
            r.time_recovery,
            r.time_checkpoint,
            r.time_wasted,
            r.time_downtime,
        ]) {
            *acc += v;
        }
    }
}

/// The scratch-arena aggregation spine shared by the blocking, replicated
/// and tenant-inner fast paths: `make_scratch()` builds one per-worker
/// scratch per fold chunk (the executor's chunk-scoped init), `run_one`
/// executes trial `i` through it, and results buffer into field-major
/// [`ChunkSamples`] flushed through the batched accumulators at chunk end.
/// Chunk boundaries and the chunk-ordered merge are identical to the
/// historical per-item fold, so the statistics are bit-identical to what
/// the reference path produced — for any `RAYON_NUM_THREADS` and for the
/// sequential path.
pub(crate) fn planned_result_stats<St, IF, F>(
    spec: TrialSpec,
    make_scratch: IF,
    run_one: F,
) -> TrialStats
where
    St: Send,
    IF: Fn() -> St + Sync,
    F: Fn(&mut St, usize) -> PlannedResult + Sync,
{
    let cap = rayon::fold_chunk_len(spec.trials);
    let init = || (make_scratch(), ChunkSamples::with_capacity(cap));
    let step = |state: &mut (St, ChunkSamples), i: usize| {
        let r = run_one(&mut state.0, i);
        state.1.push(r);
    };
    let finish = |state: (St, ChunkSamples)| TrialAccum::from_chunk(&state.1);
    let acc = if spec.parallel {
        (0..spec.trials)
            .into_par_iter()
            .fold_chunk_states(init, step, finish)
            .reduce(TrialAccum::identity, TrialAccum::merge)
    } else {
        fold_sequential_chunk_states(
            spec.trials,
            init,
            step,
            finish,
            TrialAccum::identity,
            TrialAccum::merge,
        )
    };
    acc.into_trial_stats()
}

/// Scratch-arena twin of [`trial_metric_tail_stats`]: one per-chunk
/// scratch, per-chunk metric buffers, batched flush. Bit-identical to the
/// per-item fold for the same metric stream.
pub(crate) fn planned_metric_tail_stats<St, IF, F>(
    spec: TrialSpec,
    make_scratch: IF,
    metric: F,
) -> (Stats, QuantileSketch)
where
    St: Send,
    IF: Fn() -> St + Sync,
    F: Fn(&mut St, usize) -> f64 + Sync,
{
    let cap = rayon::fold_chunk_len(spec.trials);
    let init = || (make_scratch(), Vec::with_capacity(cap));
    let step = |state: &mut (St, Vec<f64>), i: usize| {
        let x = metric(&mut state.0, i);
        state.1.push(x);
    };
    let finish = |state: (St, Vec<f64>)| {
        let mut stats = Stats::new();
        stats.push_slice(&state.1);
        let mut tail = QuantileSketch::new();
        tail.push_slice(&state.1);
        (stats, tail)
    };
    let identity = || (Stats::new(), QuantileSketch::new());
    let merge =
        |a: (Stats, QuantileSketch), b: (Stats, QuantileSketch)| (a.0.merge(b.0), a.1.merge(b.1));
    if spec.parallel {
        (0..spec.trials)
            .into_par_iter()
            .fold_chunk_states(init, step, finish)
            .reduce(identity, merge)
    } else {
        fold_sequential_chunk_states(spec.trials, init, step, finish, identity, merge)
    }
}

/// Runs `spec.trials` simulations under the exponential `model`
/// (`λ`, downtime `D` taken from the model), in parallel.
pub fn run_trials(
    wf: &Workflow,
    schedule: &Schedule,
    model: FaultModel,
    spec: TrialSpec,
) -> TrialStats {
    run_trials_with(wf, schedule, model.downtime(), spec, |seed| {
        ExponentialInjector::new(model.lambda(), seed)
    })
}

/// Generic trial runner: `make_injector(seed)` builds the fault source for
/// each trial (exponential, Weibull, traces, …).
///
/// Runs on the zero-allocation fast path: the [`TrialPlan`] (recovery
/// rows included) is compiled once per call and every trial executes
/// [`simulate_planned`] on it — bit-identical to the reference
/// [`crate::engine::simulate`] (see `trialplan`'s differential tests), so
/// results are unchanged from the historical per-trial path.
///
/// With `spec.trials == 0` the aggregate is coherently empty: both [`Stats`]
/// have `n() == 0` (so their means are `NaN`) and `mean_breakdown` is all
/// `NaN`.
pub fn run_trials_with<I, F>(
    wf: &Workflow,
    schedule: &Schedule,
    downtime: f64,
    spec: TrialSpec,
    make_injector: F,
) -> TrialStats
where
    I: FaultInjector,
    F: Fn(u64) -> I + Sync,
{
    let plan = TrialPlan::compile(wf, schedule);
    planned_result_stats(
        spec,
        || (),
        |_, i| {
            let mut inj = make_injector(spec.trial_seed(i));
            simulate_planned(&plan, &mut inj, downtime)
        },
    )
}

/// Folds an arbitrary per-trial metric into [`Stats`] plus the tail
/// sketch of the same metric stream, with the same deterministic chunk
/// grouping as [`run_trials_with`]: `metric(i)` runs for every
/// `i ∈ 0..spec.trials` (in parallel when `spec.parallel`), and per-chunk
/// accumulators merge in chunk order, so the result is bit-identical for
/// any thread count and for the sequential path. The sketch rides in the
/// same accumulator without touching the moment arithmetic.
pub fn trial_metric_tail_stats<F>(spec: TrialSpec, metric: F) -> (Stats, QuantileSketch)
where
    F: Fn(usize) -> f64 + Sync,
{
    let identity = || (Stats::new(), QuantileSketch::new());
    let push = |mut acc: (Stats, QuantileSketch), x: f64| {
        acc.0.push(x);
        acc.1.push(x);
        acc
    };
    let merge =
        |a: (Stats, QuantileSketch), b: (Stats, QuantileSketch)| (a.0.merge(b.0), a.1.merge(b.1));
    if spec.parallel {
        (0..spec.trials)
            .into_par_iter()
            .map(&metric)
            .fold(identity, push)
            .reduce(identity, merge)
    } else {
        fold_sequential_chunks(spec.trials, identity, |acc, i| push(acc, metric(i)), merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use dagchkpt_core::{evaluator, CostRule};
    use dagchkpt_dag::{generators, topo, FixedBitSet};
    use dagchkpt_failure::NoFaults;

    #[test]
    fn trial_seeds_are_distinct_and_deterministic() {
        let spec = TrialSpec::new(1000, 42);
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| spec.trial_seed(i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_eq!(spec.trial_seed(7), TrialSpec::new(1000, 42).trial_seed(7));
        assert_ne!(spec.trial_seed(7), TrialSpec::new(1000, 43).trial_seed(7));
    }

    /// Satellite fix: zero trials used to report a contradictory aggregate
    /// (all-zero breakdown next to a NaN makespan mean); now every mean is
    /// NaN and the counts are 0, on both paths.
    #[test]
    fn zero_trials_yield_a_coherent_empty_aggregate() {
        let wf = Workflow::uniform(generators::chain(3), 10.0, 1.0);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        for spec in [TrialSpec::new(0, 1), TrialSpec::sequential(0, 1)] {
            let stats = run_trials_with(&wf, &s, 0.0, spec, |_| NoFaults);
            assert_eq!(stats.makespan.n(), 0);
            assert_eq!(stats.faults.n(), 0);
            assert!(stats.makespan.mean().is_nan());
            assert!(stats.faults.mean().is_nan());
            assert!(
                stats.mean_breakdown.iter().all(|v| v.is_nan()),
                "breakdown must be NaN when no trials ran: {:?}",
                stats.mean_breakdown
            );
            assert_eq!(stats.tail.count(), 0);
            assert!(
                stats.tail.p50().is_nan() && stats.tail.p95().is_nan() && stats.tail.p99().is_nan(),
                "empty tail sketch must report NaN quantiles"
            );
        }
    }

    #[test]
    fn trial_metric_tail_stats_matches_run_trials_makespan() {
        let wf = Workflow::uniform(generators::fork_join(4), 10.0, 1.0);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        let model = FaultModel::new(3e-3, 1.0);
        for spec in [TrialSpec::new(512, 5), TrialSpec::sequential(512, 5)] {
            let direct = run_trials(&wf, &s, model, spec);
            let (via_metric, _) = trial_metric_tail_stats(spec, |i| {
                let mut inj = ExponentialInjector::new(model.lambda(), spec.trial_seed(i));
                simulate(
                    &wf,
                    &s,
                    &mut inj,
                    SimConfig {
                        downtime: model.downtime(),
                        record_trace: false,
                    },
                )
                .makespan
            });
            assert_eq!(
                direct.makespan.mean().to_bits(),
                via_metric.mean().to_bits()
            );
            assert_eq!(
                direct.makespan.stddev().to_bits(),
                via_metric.stddev().to_bits()
            );
            assert_eq!(direct.makespan.n(), via_metric.n());
        }
    }

    #[test]
    fn fault_free_trials_are_deterministic() {
        let wf = Workflow::uniform(generators::fork_join(4), 10.0, 1.0);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        let stats = run_trials_with(&wf, &s, 0.0, TrialSpec::new(16, 1), |_| NoFaults);
        assert_eq!(stats.makespan.n(), 16);
        assert!(stats.makespan.stddev() < 1e-12);
        assert!((stats.makespan.mean() - 66.0).abs() < 1e-9); // 6·10 + 6·1
        assert_eq!(stats.faults.mean(), 0.0);
    }

    /// The headline cross-validation: the Monte-Carlo mean converges to the
    /// Theorem-3 analytic value.
    #[test]
    fn monte_carlo_matches_analytic_evaluator() {
        let cases: Vec<(Workflow, f64)> = vec![
            (
                Workflow::with_cost_rule(
                    generators::paper_figure1(),
                    vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
                    CostRule::ProportionalToWork { ratio: 0.1 },
                ),
                2e-3,
            ),
            (Workflow::uniform(generators::chain(6), 15.0, 1.5), 4e-3),
            (Workflow::uniform(generators::grid(3, 3), 8.0, 0.8), 3e-3),
        ];
        for (idx, (wf, lambda)) in cases.into_iter().enumerate() {
            let model = FaultModel::new(lambda, 2.0);
            let n = wf.n_tasks();
            let order = topo::topological_order(wf.dag());
            let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|i| i % 2 == 0));
            let s = Schedule::new(&wf, order, ckpt).unwrap();
            let report = evaluator::evaluate(&wf, model, &s);
            let analytic = report.expected_makespan;
            let stats = run_trials(&wf, &s, model, TrialSpec::new(40_000, 7 + idx as u64));
            let diff = (stats.makespan.mean() - analytic).abs();
            // 5 standard errors: ~1-in-2M false-failure rate per case.
            assert!(
                diff <= 5.0 * stats.makespan.sem(),
                "case {idx}: MC {} ± {} vs analytic {analytic}",
                stats.makespan.mean(),
                stats.makespan.sem()
            );
            // The analytic expected fault count must match the injector's.
            let fdiff = (stats.faults.mean() - report.expected_faults).abs();
            assert!(
                fdiff <= 5.0 * stats.faults.sem(),
                "case {idx}: MC faults {} ± {} vs analytic {}",
                stats.faults.mean(),
                stats.faults.sem(),
                report.expected_faults
            );
        }
    }

    /// The acceptance property of the `parallel` knob: for a fixed seed the
    /// parallel and sequential paths produce bit-identical statistics,
    /// regardless of thread count or scheduling.
    #[test]
    fn parallel_and_sequential_paths_are_bit_identical() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let model = FaultModel::new(4e-3, 1.5);
        let order = topo::topological_order(wf.dag());
        let ckpt = FixedBitSet::from_indices(8, [0usize, 3, 5]);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let par = run_trials(&wf, &s, model, TrialSpec::new(3_000, 17));
        let seq = run_trials(&wf, &s, model, TrialSpec::sequential(3_000, 17));
        assert_eq!(par.makespan.n(), seq.makespan.n());
        assert_eq!(par.makespan.mean().to_bits(), seq.makespan.mean().to_bits());
        assert_eq!(
            par.makespan.stddev().to_bits(),
            seq.makespan.stddev().to_bits()
        );
        assert_eq!(par.makespan.min().to_bits(), seq.makespan.min().to_bits());
        assert_eq!(par.makespan.max().to_bits(), seq.makespan.max().to_bits());
        assert_eq!(par.faults.mean().to_bits(), seq.faults.mean().to_bits());
        for (a, b) in par.mean_breakdown.iter().zip(seq.mean_breakdown.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The tail sketch obeys the same contract: identical chunk
        // boundaries + chunk-ordered merge ⇒ bit-identical marker state.
        assert_eq!(par.tail, seq.tail);
        assert_eq!(par.tail.p50().to_bits(), seq.tail.p50().to_bits());
        assert_eq!(par.tail.p99().to_bits(), seq.tail.p99().to_bits());
        // And the two constructors set the knob.
        assert!(TrialSpec::new(5, 1).parallel);
        assert!(!TrialSpec::sequential(5, 1).parallel);
    }

    /// The sketch-extended thread-invariance guarantee, exercised
    /// in-process: the vendored executor reads `RAYON_NUM_THREADS` at
    /// every dispatch, so running the same seeded trials under pools of
    /// 1, 2 and 8 workers must produce bit-identical statistics *and*
    /// bit-identical tail sketches. (Concurrently running tests only see
    /// their pool size change mid-run, which the guarantee explicitly
    /// covers — results never depend on the worker count.)
    #[test]
    fn tail_sketch_is_bit_identical_across_thread_counts() {
        let wf = Workflow::uniform(generators::chain(5), 12.0, 1.2);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        let model = FaultModel::new(4e-3, 1.0);
        let saved = std::env::var("RAYON_NUM_THREADS").ok();
        let runs: Vec<TrialStats> = ["1", "2", "8"]
            .iter()
            .map(|n| {
                std::env::set_var("RAYON_NUM_THREADS", n);
                run_trials(&wf, &s, model, TrialSpec::new(2_048, 23))
            })
            .collect();
        match saved {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        for r in &runs[1..] {
            assert_eq!(
                r.makespan.mean().to_bits(),
                runs[0].makespan.mean().to_bits()
            );
            assert_eq!(r.tail, runs[0].tail, "sketch state must not move");
            assert_eq!(r.tail.p95().to_bits(), runs[0].tail.p95().to_bits());
        }
    }

    #[test]
    fn breakdown_means_sum_to_makespan_mean() {
        let wf = Workflow::uniform(generators::parallel_chains(3, 3), 12.0, 1.2);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        let model = FaultModel::new(3e-3, 1.0);
        let stats = run_trials(&wf, &s, model, TrialSpec::new(2_000, 99));
        let sum: f64 = stats.mean_breakdown.iter().sum();
        assert!(
            (sum - stats.makespan.mean()).abs() < 1e-6 * stats.makespan.mean(),
            "breakdown {sum} vs mean {}",
            stats.makespan.mean()
        );
    }
}
