//! Thread-count bit-identity of the checkpoint-budget sweep.
//!
//! The sweep splits its candidates into one contiguous range per worker;
//! a worker whose range runs dry steals the upper half of the largest
//! remaining range, and each worker resumes an `EvalScratch` from its
//! previous candidate (a far jump at the start of a stolen range). So the
//! grouping — and each scratch's history — changes with
//! `RAYON_NUM_THREADS` and with timing. The result must not: every
//! candidate's value is history-independent and the argmin is
//! grouping-independent. This suite pins `best_n`, the expected-makespan
//! bits, `evaluated` and the winning checkpoint set under 1, 2, 3 and 4
//! workers, and checks the winner against a sequential argmin over
//! one-shot evaluations. A forced-steal case slows the small budgets down
//! so the workers holding the large ones run dry early and steal; it
//! pins ranked, `CkptPer`, strided and quantile sweeps. The replication-aware
//! sweep, the joint descent and its storage axis resume a replicated
//! scratch per worker (and the evaluator's own across selection moves);
//! their results are pinned the same way. The vendored executor reads the
//! variable at every dispatch; a mutex serializes the env mutation.

use dagchkpt_core::evaluator::{evaluate, EvalPlan};
use dagchkpt_core::strategies::{
    optimize_checkpoints_quantile, periodic_set, ranking, set_from_ranking,
};
use dagchkpt_core::{
    linearize, optimize_checkpoints, optimize_checkpoints_with, optimize_joint,
    optimize_joint_with, CheckpointStrategy, CostRule, FlagEvaluator, JointSchedule,
    LinearizationStrategy, Objective, OptimizedSchedule, ProxyObjective, ReplicatedEvaluator,
    Schedule, SweepPolicy, Workflow,
};
use dagchkpt_dag::generators;
use dagchkpt_failure::{FaultModel, HeteroPlatform, Processor, StorageHierarchy, StorageTier};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under each pool size, restoring the variable afterwards.
fn under_thread_counts<T>(f: impl Fn() -> T) -> Vec<T> {
    let _guard = ENV_LOCK.lock().unwrap();
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    let runs = ["1", "2", "3", "4"]
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
                        &vec![vec![0, 1]; n],
                        3,
                        Some(&hierarchy),
                    );
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

/// The proxy objective, slowed down the fewer checkpoints a candidate
/// has: the workers holding the small budgets fall behind, so the others
/// run dry early and steal from them. Each worker's evaluator counts the
/// candidates whose checkpoint count is not one away from its previous
/// one's — on a nested exhaustive sweep, the starts of stolen ranges.
struct SlowSmallBudgets<'a> {
    proxy: ProxyObjective<'a>,
    n: usize,
    jumps: AtomicUsize,
}

impl Objective for SlowSmallBudgets<'_> {
    fn cost(&self, schedule: &Schedule) -> f64 {
        let missing = self.n - schedule.n_checkpoints();
        std::thread::sleep(Duration::from_micros(30 * missing as u64));
        self.proxy.cost(schedule)
    }

    fn label(&self) -> &'static str {
        "slow-small-budgets"
    }

    fn flag_evaluator<'s>(&'s self, plan: &'s EvalPlan) -> FlagEvaluator<'s> {
        let mut prev: Option<usize> = None;
        Box::new(move |flags: &[bool], _bound: f64| {
            let k = flags.iter().filter(|&&f| f).count();
            if prev.is_some_and(|p| k.abs_diff(p) != 1) {
                self.jumps.fetch_add(1, Ordering::Relaxed);
            }
            prev = Some(k);
            self.cost(&plan.schedule(flags))
        })
    }
}

#[test]
fn forced_steals_leave_every_sweep_identical() {
    let n = 40;
    let wf = instance(21, n);
    let order = linearize(&wf, LinearizationStrategy::RandomFirst { seed: 21 });
    let model = FaultModel::new(2e-3, 1.0);
    let obj = SlowSmallBudgets {
        proxy: ProxyObjective::new(&wf, model),
        n,
        jumps: AtomicUsize::new(0),
    };
    let ranked = CheckpointStrategy::ByDecreasingWork;
    let periodic = CheckpointStrategy::Periodic;
    let (exhaustive, strided) = (SweepPolicy::Exhaustive, SweepPolicy::Strided { stride: 3 });
    let runs = under_thread_counts(|| {
        obj.jumps.store(0, Ordering::Relaxed);
        let ranked_sweep = optimize_checkpoints_with(&wf, &obj, &order, ranked, exhaustive);
        let steals = obj.jumps.load(Ordering::Relaxed);
        let prints = vec![
            fingerprint(&ranked_sweep),
            fingerprint(&optimize_checkpoints_with(
                &wf, &obj, &order, periodic, exhaustive,
            )),
            fingerprint(&optimize_checkpoints_with(
                &wf, &obj, &order, ranked, strided,
            )),
            fingerprint(&optimize_checkpoints_with(
                &wf, &obj, &order, periodic, strided,
            )),
            fingerprint(&optimize_checkpoints_quantile(
                &wf, &obj, &order, ranked, exhaustive, 0.9,
            )),
            fingerprint(&optimize_checkpoints_quantile(
                &wf, &obj, &order, periodic, strided, 0.9,
            )),
        ];
        (prints, steals)
    });
    // The reference: one worker, no steal, and the proxy's own sweeps.
    assert_eq!(runs[0].1, 0, "one worker never steals");
    let plain = [
        optimize_checkpoints(&wf, model, &order, ranked, exhaustive),
        optimize_checkpoints(&wf, model, &order, periodic, exhaustive),
    ];
    for (got, want) in runs[0].0.iter().zip(&plain) {
        assert_eq!(got, &fingerprint(want));
    }
    for (workers, (prints, _)) in [2, 3, 4].iter().zip(&runs[1..]) {
        assert_eq!(prints, &runs[0].0, "{workers} workers");
    }
    let steals: usize = runs[1..].iter().map(|r| r.1).sum();
    assert!(steals > 0, "the slow small budgets must force a steal");
}
