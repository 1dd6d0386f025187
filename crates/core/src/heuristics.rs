//! The paper's heuristic registry: linearization × checkpoint strategy.
//!
//! `CkptNvr` and `CkptAlws` are only paired with DF (as in the paper — "for
//! both these strategies we only consider the DF linearization"); the four
//! swept strategies are paired with DF, BF and RF, giving the paper's 14
//! heuristics.

use crate::linearize::{linearize, LinearizationStrategy};
use crate::model::Workflow;
use crate::schedule::Schedule;
use crate::strategies::{optimize_checkpoints, CheckpointStrategy, SweepPolicy};
use dagchkpt_failure::FaultModel;
use serde::{Deserialize, Serialize};

/// One heuristic = a linearization strategy plus a checkpoint strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Heuristic {
    /// How to linearize the DAG.
    pub lin: LinearizationStrategy,
    /// How to choose checkpointed tasks.
    pub ckpt: CheckpointStrategy,
}

impl Heuristic {
    /// The paper's composite name, e.g. `DF-CkptW`.
    pub fn name(&self) -> String {
        format!("{}-{}", self.lin.short_name(), self.ckpt.paper_name())
    }
}

/// The paper's 14 heuristics. `rf_seed` seeds the RF linearization.
pub fn paper_heuristics(rf_seed: u64) -> Vec<Heuristic> {
    let lins = [
        LinearizationStrategy::DepthFirst,
        LinearizationStrategy::BreadthFirst,
        LinearizationStrategy::RandomFirst { seed: rf_seed },
    ];
    let swept = [
        CheckpointStrategy::Periodic,
        CheckpointStrategy::ByDecreasingWork,
        CheckpointStrategy::ByIncreasingCkptCost,
        CheckpointStrategy::ByDecreasingOutweight,
    ];
    let mut hs = vec![
        Heuristic {
            lin: LinearizationStrategy::DepthFirst,
            ckpt: CheckpointStrategy::Never,
        },
        Heuristic {
            lin: LinearizationStrategy::DepthFirst,
            ckpt: CheckpointStrategy::Always,
        },
    ];
    for ckpt in swept {
        for lin in lins {
            hs.push(Heuristic { lin, ckpt });
        }
    }
    hs
}

/// Outcome of running one heuristic on one instance.
#[derive(Debug, Clone)]
pub struct HeuristicResult {
    /// Composite heuristic name (`DF-CkptW`, …).
    pub name: String,
    /// The schedule produced.
    pub schedule: Schedule,
    /// Expected makespan `T` from the Theorem-3 evaluator.
    pub expected_makespan: f64,
    /// `T / T_inf` where `T_inf = Σ w_i` — the paper's plotted metric.
    pub ratio: f64,
    /// Winning checkpoint budget, when the strategy sweeps one.
    pub best_n: Option<usize>,
}

/// Runs one heuristic: linearize, optimize the checkpoint set, evaluate.
pub fn run_heuristic(
    wf: &Workflow,
    model: FaultModel,
    h: Heuristic,
    policy: SweepPolicy,
) -> HeuristicResult {
    let order = linearize(wf, h.lin);
    let opt = optimize_checkpoints(wf, model, &order, h.ckpt, policy);
    finish_heuristic(wf, h, opt)
}

/// Runs one heuristic against an arbitrary [`Objective`] backend (e.g. the
/// replication-aware evaluator): linearize, sweep the checkpoint budget
/// under `obj`, report `obj`'s value.
pub fn run_heuristic_with<O: crate::objective::Objective + ?Sized>(
    wf: &Workflow,
    obj: &O,
    h: Heuristic,
    policy: SweepPolicy,
) -> HeuristicResult {
    let order = linearize(wf, h.lin);
    let opt = crate::strategies::optimize_checkpoints_with(wf, obj, &order, h.ckpt, policy);
    finish_heuristic(wf, h, opt)
}

fn finish_heuristic(
    wf: &Workflow,
    h: Heuristic,
    opt: crate::strategies::OptimizedSchedule,
) -> HeuristicResult {
    let tinf = wf.total_work();
    HeuristicResult {
        name: h.name(),
        ratio: if tinf > 0.0 {
            opt.expected_makespan / tinf
        } else {
            1.0
        },
        schedule: opt.schedule,
        expected_makespan: opt.expected_makespan,
        best_n: opt.best_n,
    }
}

/// Runs every paper heuristic; results in registry order.
pub fn run_all(
    wf: &Workflow,
    model: FaultModel,
    policy: SweepPolicy,
    rf_seed: u64,
) -> Vec<HeuristicResult> {
    paper_heuristics(rf_seed)
        .into_iter()
        .map(|h| run_heuristic(wf, model, h, policy))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostRule;
    use dagchkpt_dag::generators;

    fn wf() -> Workflow {
        Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        )
    }

    #[test]
    fn registry_has_fourteen_heuristics_with_paper_names() {
        let hs = paper_heuristics(1);
        assert_eq!(hs.len(), 14);
        let names: Vec<String> = hs.iter().map(|h| h.name()).collect();
        for expect in [
            "DF-CkptNvr",
            "DF-CkptAlws",
            "DF-CkptPer",
            "BF-CkptPer",
            "RF-CkptPer",
            "DF-CkptW",
            "BF-CkptW",
            "RF-CkptW",
            "DF-CkptC",
            "BF-CkptC",
            "RF-CkptC",
            "DF-CkptD",
            "BF-CkptD",
            "RF-CkptD",
        ] {
            assert!(names.contains(&expect.to_string()), "missing {expect}");
        }
        // All names distinct.
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 14);
    }

    #[test]
    fn run_all_produces_consistent_ratios() {
        let wf = wf();
        let m = FaultModel::new(1e-3, 0.0);
        let results = run_all(&wf, m, SweepPolicy::Exhaustive, 3);
        assert_eq!(results.len(), 14);
        let tinf = wf.total_work();
        for r in &results {
            assert!(
                r.expected_makespan >= tinf - 1e-9,
                "{}: below T_inf",
                r.name
            );
            assert!((r.ratio - r.expected_makespan / tinf).abs() < 1e-12);
            assert!(r.schedule.n_tasks() == 8);
        }
    }

    #[test]
    fn swept_heuristics_never_lose_to_df_baselines_on_their_own_linearization() {
        // DF-CkptW's sweep includes N = 0 (never) and N = n (always), so
        // on the same DF order it can't be worse than either baseline.
        let wf = wf();
        let m = FaultModel::new(5e-3, 0.0);
        let results = run_all(&wf, m, SweepPolicy::Exhaustive, 3);
        let get = |name: &str| {
            results
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let nvr = get("DF-CkptNvr").expected_makespan;
        let alws = get("DF-CkptAlws").expected_makespan;
        for s in ["DF-CkptW", "DF-CkptC", "DF-CkptD"] {
            let v = get(s).expected_makespan;
            assert!(v <= nvr + 1e-9, "{s} worse than CkptNvr");
            assert!(v <= alws + 1e-9, "{s} worse than CkptAlws");
        }
    }
}
