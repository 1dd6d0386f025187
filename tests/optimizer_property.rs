//! Properties of the objective-driven optimizer core: never-worse
//! dominance of the replication-aware sweep over the proxy sweep (per
//! heuristic, per seeded platform) and the joint descent over the aware
//! sweep. Bit-identity of the resumed aware sweep against the uncached
//! reference oracle is a unit property of `dagchkpt_core::strategies`.

use dagchkpt::core::{
    optimize_joint, paper_heuristics, run_heuristic, run_heuristic_with, ReplicatedEvaluator,
    ReplicationStrategy, SweepPolicy,
};
use dagchkpt::dag::generators;
use dagchkpt::prelude::*;
use dagchkpt_failure::{HeteroPlatform, Processor};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random workflow over a random layered DAG with proportional costs.
fn random_workflow(rng: &mut SmallRng, n: usize) -> Workflow {
    let dag = generators::layered_random(rng, n, 4, 0.35);
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(5.0..40.0)).collect();
    Workflow::with_cost_rule(dag, weights, CostRule::ProportionalToWork { ratio: 0.1 })
}

/// Random heterogeneous platform from a seed: 2–4 processors whose speeds
/// and failure rates vary independently around the reference, so both
/// correlated and anti-correlated (fast-but-flaky) pools occur.
fn random_platform(rng: &mut SmallRng, base_lambda: f64) -> HeteroPlatform {
    let count = rng.gen_range(2..=4usize);
    let procs: Vec<Processor> = (0..count)
        .map(|_| Processor {
            speed: rng.gen_range(0.5..2.0),
            ..Processor::reference(base_lambda * rng.gen_range(0.25..6.0))
        })
        .collect();
    HeteroPlatform::new(procs, rng.gen_range(0.0..3.0)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every one of the 14 paper heuristics on a seeded heterogeneous
    /// platform: sweeping the checkpoint budget directly against
    /// the replication-aware evaluator (the replication-aware sweep) is
    /// never worse — under that evaluator — than sweeping under the
    /// single-machine proxy and re-scoring, because both enumerate the
    /// same candidate family and the aware sweep picks its argmin.
    #[test]
    fn aware_sweep_dominates_proxy_sweep_for_every_heuristic(seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(8..16usize);
        let wf = random_workflow(&mut rng, n);
        let lambda = rng.gen_range(1e-3..8e-3);
        let platform = random_platform(&mut rng, lambda);
        let degrees = ReplicationStrategy::Uniform {
            degree: rng.gen_range(1..=platform.n_procs().min(3)),
        }
        .degrees(&wf, platform.n_procs());
        let model = FaultModel::new(lambda, platform.downtime());
        for h in paper_heuristics(seed) {
            let proxy = run_heuristic(&wf, model, h, SweepPolicy::Exhaustive);
            let obj = ReplicatedEvaluator::from_degrees(&wf, &platform, &degrees);
            let proxy_rescored = obj.evaluate(&proxy.schedule).expected_makespan;
            let aware = run_heuristic_with(&wf, &obj, h, SweepPolicy::Exhaustive);
            prop_assert!(
                aware.expected_makespan <= proxy_rescored + 1e-9 * proxy_rescored,
                "{}: aware {} vs proxy-rescored {} (seed {seed})",
                h.name(),
                aware.expected_makespan,
                proxy_rescored
            );
        }
    }

    /// The joint coordinate descent never loses to the replication-aware
    /// sweep it starts from, and its reported value matches a fresh
    /// evaluation of its (schedule, replica sets) pair.
    #[test]
    fn joint_dominates_aware_sweep(seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E3779B9).wrapping_add(7));
        let n = rng.gen_range(6..12usize);
        let wf = random_workflow(&mut rng, n);
        let lambda = rng.gen_range(1e-3..8e-3);
        let platform = random_platform(&mut rng, lambda);
        let degrees = ReplicationStrategy::Uniform { degree: 2 }
            .degrees(&wf, platform.n_procs());
        let order = dagchkpt::core::linearize(&wf, LinearizationStrategy::DepthFirst);
        let obj = ReplicatedEvaluator::from_degrees(&wf, &platform, &degrees);
        let aware = dagchkpt::core::optimize_checkpoints_with(
            &wf,
            &obj,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
        );
        let joint = optimize_joint(
            &wf,
            &platform,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
            &degrees,
            3,
        );
        prop_assert!(
            joint.expected_makespan <= aware.expected_makespan + 1e-9 * aware.expected_makespan,
            "joint {} vs aware {} (seed {seed})",
            joint.expected_makespan,
            aware.expected_makespan
        );
        let fresh = dagchkpt::core::evaluate_replicated_sets(
            &wf,
            &platform,
            &joint.schedule,
            &joint.replica_sets,
        )
        .expected_makespan;
        prop_assert!(joint.expected_makespan.to_bits() == fresh.to_bits());
    }
}
