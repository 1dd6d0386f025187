//! Thread-count bit-identity of the checkpoint-budget sweep.
//!
//! The sweep splits its candidates into one contiguous run per worker and
//! each run resumes an `EvalScratch` from its previous candidate, so the
//! grouping — and each scratch's history — changes with
//! `RAYON_NUM_THREADS`. The result must not: every candidate's value is
//! history-independent and the argmin is grouping-independent. This suite
//! pins `best_n`, the expected-makespan bits, `evaluated` and the winning
//! checkpoint set under 1, 2 and 4 workers, and checks the winner against
//! a sequential argmin over one-shot evaluations. The replication-aware
//! sweep, the joint descent and its storage axis resume a replicated
//! scratch per worker (and the evaluator's own across selection moves);
//! their results are pinned the same way. The vendored executor reads the
//! variable at every dispatch; a mutex serializes the env mutation.

use dagchkpt_core::evaluator::evaluate;
use dagchkpt_core::strategies::{periodic_set, ranking, set_from_ranking};
use dagchkpt_core::{
    linearize, optimize_checkpoints, optimize_checkpoints_with, optimize_joint,
    optimize_joint_with, CheckpointStrategy, CostRule, JointSchedule, LinearizationStrategy,
    OptimizedSchedule, ReplicatedEvaluator, Schedule, SelectionSpec, SweepPolicy, Workflow,
};
use dagchkpt_dag::generators;
use dagchkpt_failure::{FaultModel, HeteroPlatform, Processor, StorageHierarchy, StorageTier};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under each pool size, restoring the variable afterwards.
fn under_thread_counts<T>(f: impl Fn() -> T) -> Vec<T> {
    let _guard = ENV_LOCK.lock().unwrap();
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    let runs = ["1", "2", "4"]
        .iter()
        .map(|n| {
            std::env::set_var("RAYON_NUM_THREADS", n);
            f()
        })
        .collect();
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    runs
}

fn fingerprint(r: &OptimizedSchedule) -> (Option<usize>, u64, usize, Vec<usize>) {
    (
        r.best_n,
        r.expected_makespan.to_bits(),
        r.evaluated,
        r.schedule.checkpoints().iter().collect(),
    )
}

const STRATEGIES: [CheckpointStrategy; 7] = [
    CheckpointStrategy::Never,
    CheckpointStrategy::Always,
    CheckpointStrategy::Periodic,
    CheckpointStrategy::ByDecreasingWork,
    CheckpointStrategy::ByIncreasingCkptCost,
    CheckpointStrategy::ByDecreasingOutweight,
    CheckpointStrategy::ByDecreasingWorkOverCost,
];

fn instance(seed: u64, n: usize) -> Workflow {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dag = generators::layered_random(&mut rng, n, 5, 0.3);
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..60.0)).collect();
    Workflow::with_cost_rule(dag, weights, CostRule::ProportionalToWork { ratio: 0.1 })
}

#[test]
fn sweep_results_are_identical_for_any_thread_count() {
    for (seed, n) in [(1u64, 37usize), (2, 64), (3, 2), (4, 1)] {
        let wf = instance(seed, n);
        let order = linearize(&wf, LinearizationStrategy::RandomFirst { seed });
        for policy in [SweepPolicy::Exhaustive, SweepPolicy::Strided { stride: 5 }] {
            for lambda in [2e-3, 0.0] {
                let model = FaultModel::new(lambda, 1.0);
                let runs = under_thread_counts(|| {
                    STRATEGIES
                        .iter()
                        .map(|&s| fingerprint(&optimize_checkpoints(&wf, model, &order, s, policy)))
                        .collect::<Vec<_>>()
                });
                for r in &runs[1..] {
                    assert_eq!(r, &runs[0], "seed {seed}, {policy:?}, λ = {lambda}");
                }
            }
        }
    }
}

/// The exhaustive sweep's winner is the sequential argmin (ties toward
/// smaller budgets) of one-shot evaluations of every candidate schedule.
#[test]
fn exhaustive_winner_is_the_sequential_argmin() {
    let wf = instance(11, 45);
    let order = linearize(&wf, LinearizationStrategy::DepthFirst);
    let model = FaultModel::new(1.5e-3, 0.5);
    let base = Schedule::never(&wf, order.clone()).unwrap();
    for strategy in &STRATEGIES[2..] {
        let set_for = |k: usize| match strategy {
            CheckpointStrategy::Periodic => periodic_set(&wf, &order, k),
            s => set_from_ranking(wf.n_tasks(), &ranking(&wf, *s).unwrap(), k),
        };
        let (mut best_n, mut best_e) = (0, f64::INFINITY);
        for k in 0..=wf.n_tasks() {
            let s = base.with_checkpoints(set_for(k));
            let e = evaluate(&wf, model, &s).expected_makespan;
            if e < best_e {
                (best_n, best_e) = (k, e);
            }
        }
        let runs = under_thread_counts(|| {
            optimize_checkpoints(&wf, model, &order, *strategy, SweepPolicy::Exhaustive)
        });
        for r in runs {
            assert_eq!(r.best_n, Some(best_n), "{strategy:?}");
            assert_eq!(
                r.expected_makespan.to_bits(),
                best_e.to_bits(),
                "{strategy:?}"
            );
            assert_eq!(r.schedule.checkpoints(), &set_for(best_n), "{strategy:?}");
        }
    }
}

type JointPrint = (
    Option<usize>,
    u64,
    usize,
    usize,
    Vec<Vec<usize>>,
    Option<Vec<usize>>,
    Vec<usize>,
);

fn joint_fingerprint(j: &JointSchedule) -> JointPrint {
    (
        j.best_n,
        j.expected_makespan.to_bits(),
        j.evaluated,
        j.rounds,
        j.replica_sets.clone(),
        j.tiers.clone(),
        j.schedule.checkpoints().iter().collect(),
    )
}

#[test]
fn replicated_optimizers_are_identical_for_any_thread_count() {
    let lambda = 3e-3;
    let platform = HeteroPlatform::new(
        vec![
            Processor {
                speed: 1.5,
                ..Processor::reference(4.0 * lambda)
            },
            Processor::reference(lambda),
            Processor {
                speed: 0.6,
                ..Processor::reference(0.0)
            },
        ],
        1.0,
    )
    .unwrap();
    let hierarchy = StorageHierarchy::new(vec![
        StorageTier::unit("local"),
        StorageTier {
            name: "pfs".to_string(),
            write_bw: 0.25,
            read_bw: 4.0,
            compression: 1.0,
            contention: 0.5,
        },
    ])
    .unwrap();
    for (seed, n) in [(5u64, 33usize), (6, 2), (7, 1)] {
        let wf = instance(seed, n);
        let order = linearize(&wf, LinearizationStrategy::RandomFirst { seed });
        let degrees = vec![2; n];
        let runs = under_thread_counts(|| {
            let aware = ReplicatedEvaluator::from_degrees(&wf, &platform, &degrees);
            let sweeps: Vec<_> = STRATEGIES
                .iter()
                .map(|&s| {
                    fingerprint(&optimize_checkpoints_with(
                        &wf,
                        &aware,
                        &order,
                        s,
                        SweepPolicy::Strided { stride: 4 },
                    ))
                })
                .collect();
            let joints: Vec<_> = STRATEGIES[2..5]
                .iter()
                .flat_map(|&s| {
                    let policy = SweepPolicy::Exhaustive;
                    let joint = optimize_joint(&wf, &platform, &order, s, policy, &degrees, 3);
                    let storage = optimize_joint_with(
                        &wf,
                        &platform,
                        &order,
                        s,
                        policy,
                        &degrees,
                        3,
                        SelectionSpec::Prefixes,
                        Some((&hierarchy, &vec![1; n])),
                    )
                    .unwrap();
                    [joint_fingerprint(&joint), joint_fingerprint(&storage)]
                })
                .collect();
            (sweeps, joints)
        });
        for r in &runs[1..] {
            assert_eq!(r, &runs[0], "seed {seed}, n = {n}");
        }
    }
}
