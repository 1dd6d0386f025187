//! Model validation: the Theorem-3 analytic evaluator against the
//! Monte-Carlo simulator, on all four Pegasus-like applications — and what
//! happens when the exponential assumption is dropped (Weibull faults).
//!
//! ```sh
//! cargo run --release --example validate_model
//! ```

use dagchkpt::failure::WeibullInjector;
use dagchkpt::prelude::*;
use dagchkpt::sim::run_trials_with;

fn main() {
    let rule = CostRule::ProportionalToWork { ratio: 0.1 };
    let trials = 15_000;

    println!("analytic (Theorem 3) vs Monte-Carlo, {trials} trials");
    println!(
        "{:<12} {:>10} {:>12} {:>14} {:>7}",
        "workflow", "E[T]", "MC mean", "MC 95% CI", "z"
    );
    for kind in PegasusKind::ALL {
        let wf = kind.generate(80, rule, 11);
        let model = FaultModel::new(kind.default_lambda(), 0.0);
        let h = Heuristic {
            lin: LinearizationStrategy::DepthFirst,
            ckpt: CheckpointStrategy::ByDecreasingWork,
        };
        let r = run_heuristic(&wf, model, h, SweepPolicy::Exhaustive);
        let stats = run_trials(&wf, &r.schedule, model, TrialSpec::new(trials, 3));
        let z = (stats.makespan.mean() - r.expected_makespan) / stats.makespan.sem();
        println!(
            "{:<12} {:>10.1} {:>12.1} {:>7.1}±{:<6.1} {:>6.2}",
            kind.name(),
            r.expected_makespan,
            stats.makespan.mean(),
            stats.makespan.mean(),
            stats.makespan.ci95(),
            z
        );
    }

    // Weibull faults: shape 1 = exponential (must agree); shape < 1 means
    // infant mortality, shape > 1 wear-out. The analytic model is only
    // exact at shape 1 — this is where its domain ends.
    println!("\nWeibull faults on CyberShake (same MTBF, DF-CkptW schedule):");
    let kind = PegasusKind::CyberShake;
    let wf = kind.generate(80, rule, 11);
    let lambda = kind.default_lambda();
    let model = FaultModel::new(lambda, 0.0);
    let h = Heuristic {
        lin: LinearizationStrategy::DepthFirst,
        ckpt: CheckpointStrategy::ByDecreasingWork,
    };
    let r = run_heuristic(&wf, model, h, SweepPolicy::Exhaustive);
    println!("exponential analytic: {:.1} s", r.expected_makespan);
    for shape in [0.5, 1.0, 2.0] {
        let scale = WeibullInjector::mtbf_scale(1.0 / lambda, shape);
        let stats = run_trials_with(&wf, &r.schedule, 0.0, TrialSpec::new(trials, 5), |seed| {
            WeibullInjector::new(scale, shape, seed)
        });
        println!(
            "  shape {shape:>3}: MC mean {:>10.1} s ({:+.1}% vs exponential analytic)",
            stats.makespan.mean(),
            (stats.makespan.mean() / r.expected_makespan - 1.0) * 100.0
        );
    }
}
