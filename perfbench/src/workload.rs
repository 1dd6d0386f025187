//! The benchmark's workloads: which built-in campaigns each one runs, the
//! one stage the benchmark owns, and the serve traffic's request specs.

use dagchkpt_bench::{
    builtin, Campaign, CellPlan, OutputFormat, OutputSpec, Scale, ScenarioSpec, SimulatorSpec,
    Stage, StrategySpec,
};
use dagchkpt_core::{CheckpointStrategy, LinearizationStrategy};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig3Quick,
    ReplicationQuick,
    McQuick,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig3Quick,
        Workload::ReplicationQuick,
        Workload::McQuick,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Quick => "fig3_quick",
            Workload::ReplicationQuick => "replication_quick",
            Workload::McQuick => "mc_quick",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Built-in campaigns a batch workload runs, in order.
    fn builtins(self) -> &'static [&'static str] {
        match self {
            Workload::Fig3Quick => &["fig3"],
            Workload::ReplicationQuick => {
                &["replication_aware", "hetero_replication", "storage_tiers"]
            }
            Workload::McQuick => &[
                "validate",
                "weibull",
                "nonblocking",
                "tail_latency",
                "multi_tenant",
            ],
            Workload::ServeMixed => &[],
        }
    }

    /// Every campaign of a batch workload at `--quick` scale.
    pub fn campaigns(self, seed: u64) -> Vec<Campaign> {
        let mut out: Vec<Campaign> = self
            .builtins()
            .iter()
            .map(|name| builtin(name, Scale::Quick, seed).expect("known built-in campaign"))
            .collect();
        if self == Workload::ReplicationQuick {
            out.push(replicated_nonblocking_campaign(seed));
        }
        out
    }
}

/// One scenario stage ready to run: spec, output layout, expanded cells.
pub struct StagePlan {
    pub spec: ScenarioSpec,
    pub output: OutputSpec,
    pub cells: Vec<CellPlan>,
}

/// Expands every stage of `campaigns` (the batch set-up step).
pub fn expand(campaigns: &[Campaign]) -> Result<Vec<StagePlan>, String> {
    let mut out = Vec::new();
    for c in campaigns {
        for stage in &c.stages {
            let Stage::Scenario { scenario, output } = stage else {
                return Err(format!(
                    "{}: procedural study stages are not benchmarked",
                    c.name
                ));
            };
            let cells = scenario
                .expand()
                .map_err(|e| format!("{}: {e}", scenario.name))?;
            out.push(StagePlan {
                spec: scenario.clone(),
                output: output.clone(),
                cells,
            });
        }
    }
    Ok(out)
}

/// Output file of the benchmark-owned stage.
pub const REPLICATED_NONBLOCKING_FILE: &str = "replicated_nonblocking.csv";

/// FNV-1a digest of [`REPLICATED_NONBLOCKING_FILE`] at seed 42 — the
/// stage's golden output (no built-in campaign produces it, so it has no
/// entry in `tests/golden/quick/`).
pub const REPLICATED_NONBLOCKING_DIGEST_SEED42: u64 = 0x1a6a_69ac_d31a_9de5;

/// The benchmark-owned stage: `replication_aware`'s anti-correlated
/// three-processor pool at uniform degree 2 (its proxy-optimizer stage,
/// so the engine runs on degree prefixes), DF-CkptW, simulated by the
/// replicated **non-blocking** engine at two interference levels. No
/// built-in campaign runs that engine.
pub fn replicated_nonblocking_campaign(seed: u64) -> Campaign {
    let base = builtin("replication_aware", Scale::Quick, seed).expect("built-in campaign");
    let Some(Stage::Scenario { scenario, .. }) = base.stages.into_iter().next() else {
        unreachable!("replication_aware starts with a scenario stage");
    };
    let trials = 2_000;
    let spec = ScenarioSpec {
        name: "replicated_nonblocking".to_string(),
        description: "replicated non-blocking checkpoint writes, anti-correlated pool".to_string(),
        strategies: vec![StrategySpec::Heuristic {
            lin: LinearizationStrategy::DepthFirst,
            ckpt: CheckpointStrategy::ByDecreasingWork,
        }],
        simulators: [1.0, 0.8]
            .map(|compute_rate| SimulatorSpec::NonBlocking {
                trials,
                compute_rate,
            })
            .to_vec(),
        ..scenario
    };
    Campaign {
        name: "replicated_nonblocking".to_string(),
        description: spec.description.clone(),
        stages: vec![Stage::Scenario {
            scenario: spec,
            output: OutputSpec::rows_tail(REPLICATED_NONBLOCKING_FILE),
        }],
    }
}

/// The serve working set: the three `replication_aware` quick cells (one
/// per optimizer stage), with the golden file each one's rows belong to.
pub fn working_set(seed: u64) -> Vec<(ScenarioSpec, OutputFormat, String)> {
    builtin("replication_aware", Scale::Quick, seed)
        .expect("built-in campaign")
        .stages
        .into_iter()
        .map(|stage| match stage {
            Stage::Scenario { scenario, output } => (scenario, output.format, output.file),
            Stage::Study { .. } => unreachable!("replication_aware has scenario stages only"),
        })
        .collect()
}

/// A fresh fig3-style query: CyberShake at 50 tasks, the 14 heuristics,
/// analytic only, with spec seed `spec_seed` (so every seed is a new
/// cache key).
pub fn miss_spec(spec_seed: u64) -> ScenarioSpec {
    let fig3 = builtin("fig3", Scale::Quick, spec_seed).expect("built-in campaign");
    let spec = fig3
        .stages
        .into_iter()
        .find_map(|stage| match stage {
            Stage::Scenario { scenario, .. } if scenario.name == "fig3_cybershake" => {
                Some(scenario)
            }
            _ => None,
        })
        .expect("fig3 has a CyberShake stage");
    ScenarioSpec {
        sizes: vec![50],
        ..spec
    }
}
