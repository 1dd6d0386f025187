//! The paper's Figures 2–7 as built-in campaigns.
//!
//! Each builder returns a [`Campaign`] whose stages are declarative
//! [`ScenarioSpec`]s; executed through [`crate::campaign::run_campaign`]
//! they emit byte-identical CSV to the pre-refactor one-binary-per-figure
//! harness at the same scale and seed (pinned by `tests/golden/`).

use crate::campaign::{Campaign, OutputFormat, OutputSpec, Stage};
use crate::cli::Scale;
use crate::scenario::{
    ArrivalSpec, FailureSpec, ObjectiveSpec, OptimizerSpec, ScenarioSpec, SeedPolicy,
    SimulatorSpec, StorageSpec, StrategySpec, SweepSpec, TenancySpec, WorkflowSource,
};
use dagchkpt_core::CostRule;
use dagchkpt_workflows::PegasusKind;

/// The task counts of each scale — the x-axis of every "ratio vs n" panel
/// (the paper plots 100–700; 50 is the smallest size it mentions).
pub fn scale_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![50, 100, 200],
        Scale::Full => vec![50, 100, 200, 300, 400, 500, 700],
    }
}

/// Number of λ points kept from the Figure-7 grids per scale.
pub fn fig7_lambda_keep(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 4,
        Scale::Full => 7,
    }
}

/// The paper's λ ticks for Figure 7 (Montage/Ligo/CyberShake axis).
pub const FIG7_LAMBDAS: [f64; 7] = [1e-4, 2.5e-4, 3.8e-4, 5.2e-4, 6.6e-4, 8e-4, 9.3e-4];
/// The paper's λ ticks for Figure 7d (Genome axis).
pub const FIG7_LAMBDAS_GENOME: [f64; 7] = [1e-6, 5e-5, 9e-5, 1.4e-4, 1.8e-4, 2.3e-4, 2.7e-4];

/// Figure 7's λ grid for `kind`, thinned to `keep` points (the largest tick
/// is always kept).
pub fn fig7_lambda_grid(kind: PegasusKind, keep: usize) -> Vec<f64> {
    let lambdas: &[f64] = if kind == PegasusKind::Genome {
        &FIG7_LAMBDAS_GENOME
    } else {
        &FIG7_LAMBDAS
    };
    let step = (lambdas.len() as f64 / keep as f64).ceil() as usize;
    lambdas
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| i % step == 0 || *i == 6)
        .map(|(_, l)| l)
        .collect()
}

/// One "ratio vs n" figure stage: `strategies` on `kind` at its calibrated
/// λ, analytic evaluator, legacy per-cell seeds.
fn figure_stage(
    name: String,
    kind: PegasusKind,
    rule: CostRule,
    sizes: Vec<usize>,
    strategies: Vec<StrategySpec>,
    seed: u64,
    best_file: String,
) -> Stage {
    Stage::Scenario {
        scenario: ScenarioSpec {
            description: format!("{kind}: λ={:e}, {}", kind.default_lambda(), rule.label()),
            workflows: vec![WorkflowSource::Pegasus { kind, rule }],
            sizes,
            failures: vec![FailureSpec::SourceDefault { downtime: 0.0 }],
            strategies,
            simulators: vec![SimulatorSpec::Analytic],
            seed,
            seed_policy: SeedPolicy::LegacyXorN,
            sweep: SweepSpec::Auto,
            platforms: vec![],
            replications: vec![],
            optimizer: OptimizerSpec::Proxy,
            objective: ObjectiveSpec::Mean,
            arrivals: ArrivalSpec::Off,
            tenancy: TenancySpec::default(),
            storage: StorageSpec::default(),
            name: name.clone(),
        },
        output: OutputSpec {
            file: format!("{name}.csv"),
            format: OutputFormat::Figure,
            best_file,
            json_file: String::new(),
            chart: true,
        },
    }
}

/// **Figure 2** — impact of the linearization strategy: CkptW and CkptC
/// under DF/BF/RF on CyberShake, Ligo and Genome (`c_i = r_i = 0.1 w_i`).
pub fn fig2_campaign(scale: Scale, seed: u64) -> Campaign {
    let rule = CostRule::ProportionalToWork { ratio: 0.1 };
    let stages = [
        PegasusKind::CyberShake,
        PegasusKind::Ligo,
        PegasusKind::Genome,
    ]
    .into_iter()
    .map(|kind| {
        figure_stage(
            format!("fig2_{}", kind.name().to_lowercase()),
            kind,
            rule,
            scale_sizes(scale),
            vec![StrategySpec::WorkAndCost],
            seed,
            String::new(),
        )
    })
    .collect();
    Campaign {
        name: "fig2".to_string(),
        description: "linearization impact: CkptW/CkptC × DF/BF/RF".to_string(),
        stages,
    }
}

/// Shared body of Figures 3, 5 and 6: all 14 heuristics on all four
/// applications under one cost rule, with the best-linearization companion
/// files the paper plots.
fn checkpoint_strategy_campaign(
    fig: &str,
    description: &str,
    rule: CostRule,
    scale: Scale,
    seed: u64,
) -> Campaign {
    let stages = PegasusKind::ALL
        .into_iter()
        .map(|kind| {
            let stem = format!("{fig}_{}", kind.name().to_lowercase());
            figure_stage(
                stem.clone(),
                kind,
                rule,
                scale_sizes(scale),
                vec![StrategySpec::Paper],
                seed,
                format!("{stem}_best.csv"),
            )
        })
        .collect();
    Campaign {
        name: fig.to_string(),
        description: description.to_string(),
        stages,
    }
}

/// **Figure 3** — impact of the checkpointing strategy, `c_i = 0.1 w_i`.
pub fn fig3_campaign(scale: Scale, seed: u64) -> Campaign {
    checkpoint_strategy_campaign(
        "fig3",
        "checkpoint strategies, c = 0.1 w",
        CostRule::ProportionalToWork { ratio: 0.1 },
        scale,
        seed,
    )
}

/// **Figure 4** — CyberShake with constant checkpoint costs (10 s, 5 s) and
/// the nearly-free proportional rule (`0.01 w`): CkptW vs CkptC × DF/BF/RF.
pub fn fig4_campaign(scale: Scale, seed: u64) -> Campaign {
    let rules = [
        (CostRule::Constant { value: 10.0 }, "c10s"),
        (CostRule::Constant { value: 5.0 }, "c5s"),
        (CostRule::ProportionalToWork { ratio: 0.01 }, "c001w"),
    ];
    let stages = rules
        .into_iter()
        .map(|(rule, tag)| {
            figure_stage(
                format!("fig4_cybershake_{tag}"),
                PegasusKind::CyberShake,
                rule,
                scale_sizes(scale),
                vec![StrategySpec::WorkAndCost],
                seed,
                String::new(),
            )
        })
        .collect();
    Campaign {
        name: "fig4".to_string(),
        description: "CyberShake with constant checkpoint costs".to_string(),
        stages,
    }
}

/// **Figure 5** — checkpointing strategies with `c_i = 0.01 w_i`.
pub fn fig5_campaign(scale: Scale, seed: u64) -> Campaign {
    checkpoint_strategy_campaign(
        "fig5",
        "checkpoint strategies, c = 0.01 w",
        CostRule::ProportionalToWork { ratio: 0.01 },
        scale,
        seed,
    )
}

/// **Figure 6** — checkpointing strategies with `c_i = 5 s`.
pub fn fig6_campaign(scale: Scale, seed: u64) -> Campaign {
    checkpoint_strategy_campaign(
        "fig6",
        "checkpoint strategies, c = 5 s",
        CostRule::Constant { value: 5.0 },
        scale,
        seed,
    )
}

/// **Figure 7** — λ sweep at 200 tasks (Genome on its own, lower λ axis),
/// `c_i = 0.1 w_i`, best linearization per checkpoint strategy.
pub fn fig7_campaign(scale: Scale, seed: u64) -> Campaign {
    let rule = CostRule::ProportionalToWork { ratio: 0.1 };
    let keep = fig7_lambda_keep(scale);
    let stages = PegasusKind::ALL
        .into_iter()
        .map(|kind| {
            let stem = format!("fig7_{}", kind.name().to_lowercase());
            Stage::Scenario {
                scenario: ScenarioSpec {
                    name: stem.clone(),
                    description: format!("{kind}: 200 tasks, c=0.1w, λ sweep"),
                    workflows: vec![WorkflowSource::Pegasus { kind, rule }],
                    sizes: vec![200],
                    failures: vec![FailureSpec::LambdaSweep {
                        lambdas: fig7_lambda_grid(kind, keep),
                        downtime: 0.0,
                    }],
                    strategies: vec![StrategySpec::Paper],
                    simulators: vec![SimulatorSpec::Analytic],
                    seed,
                    seed_policy: SeedPolicy::LegacyXorN,
                    sweep: SweepSpec::Auto,
                    platforms: vec![],
                    replications: vec![],
                    optimizer: OptimizerSpec::Proxy,
                    objective: ObjectiveSpec::Mean,
                    arrivals: ArrivalSpec::Off,
                    tenancy: TenancySpec::default(),
                    storage: StorageSpec::default(),
                },
                output: OutputSpec {
                    file: format!("{stem}.csv"),
                    format: OutputFormat::Figure,
                    best_file: format!("{stem}_best.csv"),
                    json_file: String::new(),
                    chart: true,
                },
            }
        })
        .collect();
    Campaign {
        name: "fig7".to_string(),
        description: "λ sweep at 200 tasks".to_string(),
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_cell_full, RunContext};

    #[test]
    fn lambda_grids_match_paper_ticks() {
        assert_eq!(FIG7_LAMBDAS.len(), 7);
        assert_eq!(FIG7_LAMBDAS[0], 1e-4);
        assert_eq!(FIG7_LAMBDAS[6], 9.3e-4);
        assert_eq!(FIG7_LAMBDAS_GENOME[0], 1e-6);
        assert_eq!(FIG7_LAMBDAS_GENOME[6], 2.7e-4);
        // Quick keeps indices 0, 2, 4, 6; full keeps everything.
        assert_eq!(
            fig7_lambda_grid(PegasusKind::Montage, 4),
            vec![1e-4, 3.8e-4, 6.6e-4, 9.3e-4]
        );
        assert_eq!(
            fig7_lambda_grid(PegasusKind::Genome, 7),
            FIG7_LAMBDAS_GENOME.to_vec()
        );
    }

    #[test]
    fn scale_data_matches_the_paper() {
        assert_eq!(scale_sizes(Scale::Quick), vec![50, 100, 200]);
        assert_eq!(scale_sizes(Scale::Full).last(), Some(&700));
        assert_eq!(fig7_lambda_keep(Scale::Quick), 4);
        assert_eq!(fig7_lambda_keep(Scale::Full), 7);
    }

    #[test]
    fn figure_campaigns_use_legacy_seeds_and_figure_output() {
        for c in [
            fig2_campaign(Scale::Quick, 42),
            fig3_campaign(Scale::Quick, 42),
            fig4_campaign(Scale::Quick, 42),
            fig5_campaign(Scale::Full, 42),
            fig6_campaign(Scale::Quick, 42),
            fig7_campaign(Scale::Quick, 42),
        ] {
            assert!(!c.stages.is_empty());
            for stage in &c.stages {
                let Stage::Scenario { scenario, output } = stage else {
                    panic!("figure campaigns are pure scenarios");
                };
                assert_eq!(scenario.seed_policy, SeedPolicy::LegacyXorN);
                assert_eq!(output.format, OutputFormat::Figure);
                assert!(output.file.ends_with(".csv"));
                scenario.validate().unwrap();
            }
        }
    }

    /// Smoke test: one Figure-2 cell runs through the engine end to end and
    /// produces the 6 linearization-study rows.
    #[test]
    fn fig2_cell_smoke() {
        let c = fig2_campaign(Scale::Quick, 1);
        let Stage::Scenario { scenario, .. } = &c.stages[0] else {
            unreachable!()
        };
        let cells = scenario.expand().unwrap();
        // Legacy seeds: master ^ n.
        assert!(cells.iter().all(|p| p.seed == 1 ^ p.n as u64));
        let rows = run_cell_full(scenario, &cells[0]).unwrap().rows;
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.workflow == "CyberShake"));
        assert!(rows.iter().all(|r| r.ratio >= 1.0 && r.ratio.is_finite()));
        // The RunContext default writes under the requested directory.
        let ctx = RunContext::new("results");
        assert!(ctx.charts && ctx.shard.is_none() && !ctx.resume);
    }
}
