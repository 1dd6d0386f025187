//! Cross-crate property tests: the fast evaluator against the paper-literal
//! Algorithm 1, the exact structural solvers against the heuristic
//! portfolio, and transitive reduction against reachability.

use dagchkpt::core::evaluator::literal::expected_makespan_literal;
use dagchkpt::core::exact::{chain, fork, join};
use dagchkpt::core::{evaluator, run_all};
use dagchkpt::dag::reduce::{same_reachability, transitive_reduction};
use dagchkpt::dag::{generators, topo};
use dagchkpt::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random workflow over a random layered DAG, with independent `w`, `c`,
/// `r` per task (heterogeneous — the hardest case for the evaluator).
fn random_workflow(rng: &mut SmallRng, n: usize) -> Workflow {
    let dag = generators::layered_random(rng, n, 4, 0.35);
    let costs: Vec<TaskCosts> = (0..n)
        .map(|_| {
            TaskCosts::new(
                rng.gen_range(1.0..30.0),
                rng.gen_range(0.1..6.0),
                rng.gen_range(0.1..6.0),
            )
        })
        .collect();
    Workflow::new(dag, costs)
}

/// A random valid schedule: RF linearization plus a random checkpoint set.
fn random_schedule(rng: &mut SmallRng, wf: &Workflow) -> Schedule {
    let order = dagchkpt::core::linearize(
        wf,
        LinearizationStrategy::RandomFirst {
            seed: rng.gen_range(0u64..1 << 48),
        },
    );
    let n = wf.n_tasks();
    let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|_| rng.gen_bool(0.4)));
    Schedule::new(wf, order, ckpt).expect("RF order is a linearization")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) The `O(n(n+|E|))` evaluator agrees with the paper-literal
    /// `O(n⁴)` Algorithm 1 on random heterogeneous schedules.
    #[test]
    fn fast_evaluator_agrees_with_literal_algorithm1(
        seed in 0u64..500, n in 1usize..16, lambda in 1e-4f64..2e-2,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let wf = random_workflow(&mut rng, n);
        let model = FaultModel::new(lambda, rng.gen_range(0.0..5.0));
        let s = random_schedule(&mut rng, &wf);
        let fast = evaluator::expected_makespan(&wf, model, &s);
        let literal = expected_makespan_literal(&wf, model, &s);
        prop_assert!(
            (fast - literal).abs() <= 1e-9 * literal.max(1.0),
            "fast {fast} vs literal {literal}"
        );
    }

    /// (c) Transitive reduction preserves reachability and never adds edges.
    #[test]
    fn transitive_reduction_preserves_reachability(
        seed in 0u64..500, n in 1usize..40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dag = generators::layered_random(&mut rng, n, 5, 0.4);
        let red = transitive_reduction(&dag);
        prop_assert!(red.n_edges() <= dag.n_edges());
        prop_assert!(same_reachability(&dag, &red));
        // Reduction is idempotent.
        let red2 = transitive_reduction(&red);
        prop_assert_eq!(red2.n_edges(), red.n_edges());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (b1) The chain DP optimum is never beaten by any of the 14
    /// heuristics on the same instance.
    #[test]
    fn chain_dp_never_beaten_by_heuristics(
        seed in 0u64..200, n in 2usize..8, lambda in 1e-3f64..1e-2,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(5.0..50.0)).collect();
        let wf = Workflow::with_cost_rule(
            generators::chain(n),
            weights,
            CostRule::ProportionalToWork { ratio: rng.gen_range(0.02..0.3) },
        );
        let model = FaultModel::new(lambda, rng.gen_range(0.0..3.0));
        let (_, opt) = chain::solve_chain(&wf, model).expect("chain shape");
        for r in run_all(&wf, model, SweepPolicy::Exhaustive, seed) {
            prop_assert!(
                opt <= r.expected_makespan + 1e-9 * r.expected_makespan,
                "{} achieved {} below the DP optimum {opt}",
                r.name, r.expected_makespan
            );
        }
    }

    /// (b2) The fork closed form (Theorem 1) is never beaten by any
    /// heuristic.
    #[test]
    fn fork_optimum_never_beaten_by_heuristics(
        seed in 0u64..200, k in 1usize..6, lambda in 1e-3f64..1e-2,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let costs: Vec<TaskCosts> = (0..=k)
            .map(|_| TaskCosts::new(
                rng.gen_range(5.0..40.0),
                rng.gen_range(0.5..4.0),
                rng.gen_range(0.5..4.0),
            ))
            .collect();
        let wf = Workflow::new(generators::fork(k), costs);
        let model = FaultModel::new(lambda, rng.gen_range(0.0..3.0));
        let (_, opt) = fork::solve_fork(&wf, model).expect("fork shape");
        for r in run_all(&wf, model, SweepPolicy::Exhaustive, seed) {
            prop_assert!(
                opt <= r.expected_makespan + 1e-9 * r.expected_makespan,
                "{} achieved {} below the fork optimum {opt}",
                r.name, r.expected_makespan
            );
        }
    }

    /// (b3) The join subset-enumeration optimum is never beaten by any
    /// heuristic.
    #[test]
    fn join_optimum_never_beaten_by_heuristics(
        seed in 0u64..200, k in 2usize..6, lambda in 1e-3f64..1e-2,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let costs: Vec<TaskCosts> = (0..=k)
            .map(|_| TaskCosts::new(
                rng.gen_range(5.0..40.0),
                rng.gen_range(0.5..4.0),
                rng.gen_range(0.5..4.0),
            ))
            .collect();
        let wf = Workflow::new(generators::join(k), costs);
        let model = FaultModel::new(lambda, rng.gen_range(0.0..3.0));
        let (_, opt) = join::solve_join_exact(&wf, model, 10).expect("join shape");
        for r in run_all(&wf, model, SweepPolicy::Exhaustive, seed) {
            prop_assert!(
                opt <= r.expected_makespan + 1e-9 * r.expected_makespan,
                "{} achieved {} below the join optimum {opt}",
                r.name, r.expected_makespan
            );
        }
    }
}

/// Satellite property: the chunked executor's `map`/`fold`/`collect`
/// pipelines and `run_trials` statistics are bit-identical across forced
/// thread counts {1, 2, 8}, over item counts covering the degenerate
/// cases (0, 1), a prime (97), and fold-chunk boundaries ±1 (63, 64, 65,
/// 128 ± 1 around `fold_chunk_len` multiples).
///
/// One `#[test]` body (not a proptest) because it mutates the
/// `RAYON_NUM_THREADS` process environment; determinism regardless of
/// thread count is exactly the property that makes this safe to run next
/// to the other tests in this binary.
#[test]
fn chunked_executor_is_invariant_under_forced_thread_counts() {
    use dagchkpt::sim::{run_trials, TrialSpec};
    use rayon::prelude::*;

    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    let counts = [0usize, 1, 2, 63, 64, 65, 97, 127, 128, 129, 1000];

    let collect_one = |n: usize| -> Vec<f64> {
        (0..n)
            .into_par_iter()
            .map(|i| (i as f64 + 0.5).sqrt())
            .collect()
    };
    let fold_one = |n: usize| -> f64 {
        (0..n)
            .into_par_iter()
            .map(|i| 1.0 / (i as f64 + 1.0))
            .fold(|| 0.0f64, |a, x| a + x)
            .reduce(|| 0.0, |a, b| a + b)
    };
    let trials_one = || {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let model = FaultModel::new(4e-3, 1.5);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::new(&wf, order, FixedBitSet::from_indices(8, [0usize, 3, 5])).unwrap();
        run_trials(&wf, &s, model, TrialSpec::new(500, 23))
    };

    // References under a forced single thread.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    assert_eq!(rayon::current_num_threads(), 1);
    let ref_collect: Vec<Vec<f64>> = counts.iter().map(|&n| collect_one(n)).collect();
    let ref_fold: Vec<f64> = counts.iter().map(|&n| fold_one(n)).collect();
    let ref_trials = trials_one();

    for threads in ["2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        assert_eq!(
            rayon::current_num_threads(),
            threads.parse::<usize>().unwrap()
        );
        for (idx, &n) in counts.iter().enumerate() {
            let got = collect_one(n);
            assert_eq!(got.len(), n, "collect len, n={n} threads={threads}");
            let same = got
                .iter()
                .zip(&ref_collect[idx])
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "collect bits differ, n={n} threads={threads}");
            assert_eq!(
                fold_one(n).to_bits(),
                ref_fold[idx].to_bits(),
                "fold bits differ, n={n} threads={threads}"
            );
        }
        let got = trials_one();
        assert_eq!(
            got.makespan.mean().to_bits(),
            ref_trials.makespan.mean().to_bits(),
            "run_trials mean differs under {threads} threads"
        );
        assert_eq!(
            got.makespan.stddev().to_bits(),
            ref_trials.makespan.stddev().to_bits()
        );
        assert_eq!(
            got.faults.mean().to_bits(),
            ref_trials.faults.mean().to_bits()
        );
        for (a, b) in got.mean_breakdown.iter().zip(ref_trials.mean_breakdown) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // Invalid values are ignored (fall back to the machine default).
    std::env::remove_var("RAYON_NUM_THREADS");
    let default = rayon::current_num_threads();
    for bad in ["0", "-2", "many"] {
        std::env::set_var("RAYON_NUM_THREADS", bad);
        assert_eq!(rayon::current_num_threads(), default, "value {bad:?}");
    }

    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}

/// Sanity anchor outside the proptest loops: the fast and literal
/// evaluators agree exactly on the paper's own Figure 1 instance.
#[test]
fn evaluators_agree_on_paper_figure1() {
    let wf = Workflow::with_cost_rule(
        generators::paper_figure1(),
        vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
        CostRule::ProportionalToWork { ratio: 0.1 },
    );
    let model = FaultModel::new(2e-3, 1.0);
    let order = topo::topological_order(wf.dag());
    let ckpt = FixedBitSet::from_indices(8, [0usize, 3, 6]);
    let s = Schedule::new(&wf, order, ckpt).unwrap();
    let fast = evaluator::expected_makespan(&wf, model, &s);
    let literal = expected_makespan_literal(&wf, model, &s);
    assert!(
        (fast - literal).abs() <= 1e-12 * literal,
        "{fast} vs {literal}"
    );
}
