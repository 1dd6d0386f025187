//! Validation and ablation studies beyond the paper's figures (DESIGN.md
//! experiments V1–V5).
//!
//! V1 (analytic vs Monte-Carlo), V5 (Weibull faults) and the non-blocking
//! comparison are declarative campaigns now ([`validate_campaign`],
//! [`weibull_campaign`], [`nonblocking_campaign`]); the engine reproduces
//! the pre-refactor binaries byte-for-byte. V2 ([`optgap`]) and V3/V4
//! ([`ablation`]) stay procedural: the optimality gap rejection-samples
//! brute-forceable instances from a single RNG stream and the evaluator
//! ablation measures wall-clock time — neither is a cross-product scenario.

use crate::campaign::{Campaign, OutputFormat, OutputSpec, Stage};
use crate::cli::{Options, Scale};
use crate::csvout::write_csv;
use crate::scenario::{
    AdmissionPolicy, ArrivalSpec, FailureSpec, ObjectiveSpec, OptimizerSpec, PlatformSpec,
    ScenarioSpec, SeedPolicy, SimulatorSpec, StorageSpec, StrategySpec, SweepSpec, TenancySpec,
    TenantSpec, WorkflowSource,
};
use dagchkpt_core::{
    exact, linearize, linearize_with_priority, optimize_checkpoints, strategies::local_search,
    CheckpointStrategy, CostRule, LinearizationStrategy, Priority, SweepPolicy, Workflow,
};
use dagchkpt_dag::generators;
use dagchkpt_failure::FaultModel;
use dagchkpt_workflows::{PegasusKind, WorkflowSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const RULE_01W: CostRule = CostRule::ProportionalToWork { ratio: 0.1 };

fn df_ckptw() -> StrategySpec {
    StrategySpec::Heuristic {
        lin: LinearizationStrategy::DepthFirst,
        ckpt: CheckpointStrategy::ByDecreasingWork,
    }
}

/// **V1** — analytic evaluator vs Monte-Carlo simulation: the four Pegasus
/// applications at 60 tasks plus three random layered DAGs, each solved
/// with DF-CkptW and simulated at its calibrated λ. A healthy run keeps
/// every |z| below ~5 (the CLI enforces that).
pub fn validate_campaign(scale: Scale, seed: u64) -> Campaign {
    let trials = match scale {
        Scale::Quick => 10_000,
        Scale::Full => 60_000,
    };
    let mut workflows: Vec<WorkflowSource> = PegasusKind::ALL
        .into_iter()
        .map(|kind| WorkflowSource::Pegasus {
            kind,
            rule: RULE_01W,
        })
        .collect();
    // Random layered DAGs — shapes the application generators do not
    // cover. Drawn from one RNG stream exactly like the pre-refactor
    // binary, then embedded inline so the spec is self-contained.
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..3 {
        let dag = generators::layered_random(&mut rng, 40, 5, 0.25);
        let weights: Vec<f64> = (0..40).map(|_| rng.gen_range(5.0..80.0)).collect();
        let wf = Workflow::with_cost_rule(dag, weights, RULE_01W);
        workflows.push(WorkflowSource::Inline {
            name: format!("random{i}"),
            workflow: WorkflowSpec::from_workflow(&wf, None),
            default_lambda: 2e-3,
        });
    }
    Campaign {
        name: "validate".to_string(),
        description: "V1: analytic (Theorem 3) vs Monte-Carlo".to_string(),
        stages: vec![Stage::Scenario {
            scenario: ScenarioSpec {
                name: "validate".to_string(),
                description: format!("analytic vs MC, {trials} trials"),
                workflows,
                sizes: vec![60],
                failures: vec![FailureSpec::SourceDefault { downtime: 0.0 }],
                strategies: vec![df_ckptw()],
                simulators: vec![SimulatorSpec::MonteCarlo { trials }],
                seed,
                seed_policy: SeedPolicy::Master,
                sweep: SweepSpec::Exhaustive,
                platforms: vec![],
                replications: vec![],
                optimizer: OptimizerSpec::Proxy,
                objective: ObjectiveSpec::Mean,
                arrivals: ArrivalSpec::Off,
                tenancy: TenancySpec::default(),
                storage: StorageSpec::default(),
            },
            output: OutputSpec {
                file: "validate.csv".to_string(),
                format: OutputFormat::Validate,
                best_file: String::new(),
                json_file: String::new(),
                chart: false,
            },
        }],
    }
}

/// **V5** — Weibull (age-dependent) faults: Monte-Carlo means across
/// shapes on a CyberShake DF-CkptW schedule optimized under the
/// rate-matched exponential proxy (shape 1 reproduces the exponential).
pub fn weibull_campaign(scale: Scale, seed: u64) -> Campaign {
    let trials = match scale {
        Scale::Quick => 8_000,
        Scale::Full => 40_000,
    };
    let lambda = 1e-3;
    Campaign {
        name: "weibull".to_string(),
        description: "V5: Weibull faults vs the exponential prediction".to_string(),
        stages: vec![Stage::Scenario {
            scenario: ScenarioSpec {
                name: "weibull".to_string(),
                description: format!("CyberShake n=60, MTBF {}", 1.0 / lambda),
                workflows: vec![WorkflowSource::Pegasus {
                    kind: PegasusKind::CyberShake,
                    rule: RULE_01W,
                }],
                sizes: vec![60],
                failures: vec![FailureSpec::WeibullShapeSweep {
                    mtbf: 1.0 / lambda,
                    shapes: vec![0.5, 0.7, 1.0, 1.5, 2.0],
                    downtime: 0.0,
                }],
                strategies: vec![df_ckptw()],
                simulators: vec![SimulatorSpec::MonteCarlo { trials }],
                seed,
                seed_policy: SeedPolicy::Master,
                sweep: SweepSpec::Exhaustive,
                platforms: vec![],
                replications: vec![],
                optimizer: OptimizerSpec::Proxy,
                objective: ObjectiveSpec::Mean,
                arrivals: ArrivalSpec::Off,
                tenancy: TenancySpec::default(),
                storage: StorageSpec::default(),
            },
            output: OutputSpec {
                file: "weibull.csv".to_string(),
                format: OutputFormat::WeibullStudy,
                best_file: String::new(),
                json_file: String::new(),
                chart: false,
            },
        }],
    }
}

/// Non-blocking checkpointing (the paper's Section-7 future work):
/// blocking Monte-Carlo vs overlapped checkpoint writes at several
/// interference levels, on DF-CkptW schedules at 80 tasks.
pub fn nonblocking_campaign(scale: Scale, seed: u64) -> Campaign {
    let trials = match scale {
        Scale::Quick => 4_000,
        Scale::Full => 20_000,
    };
    let mut simulators = vec![SimulatorSpec::MonteCarlo { trials }];
    simulators.extend(
        [1.0, 0.9, 0.8, 0.6].map(|compute_rate| SimulatorSpec::NonBlocking {
            trials,
            compute_rate,
        }),
    );
    Campaign {
        name: "nonblocking".to_string(),
        description: "blocking vs non-blocking checkpoint writes".to_string(),
        stages: vec![Stage::Scenario {
            scenario: ScenarioSpec {
                name: "nonblocking".to_string(),
                description: format!("{trials} trials, DF-CkptW schedules"),
                workflows: PegasusKind::ALL
                    .into_iter()
                    .map(|kind| WorkflowSource::Pegasus {
                        kind,
                        rule: RULE_01W,
                    })
                    .collect(),
                sizes: vec![80],
                failures: vec![FailureSpec::SourceDefault { downtime: 0.0 }],
                strategies: vec![df_ckptw()],
                simulators,
                seed,
                seed_policy: SeedPolicy::Master,
                sweep: SweepSpec::Exhaustive,
                platforms: vec![],
                replications: vec![],
                optimizer: OptimizerSpec::Proxy,
                objective: ObjectiveSpec::Mean,
                arrivals: ArrivalSpec::Off,
                tenancy: TenancySpec::default(),
                storage: StorageSpec::default(),
            },
            output: OutputSpec {
                file: "nonblocking.csv".to_string(),
                format: OutputFormat::NonBlockingPivot,
                best_file: String::new(),
                json_file: String::new(),
                chart: false,
            },
        }],
    }
}

/// The heterogeneous-platform × task-replication scenario family: the
/// paper's 14 homogeneous heuristics re-evaluated on processor pools of
/// growing size and heterogeneity spread, under replication degrees from
/// none to heaviest-only — the analytic column is the replication-aware
/// Theorem-3 evaluator, validated in-run by the blocking replicated
/// Monte-Carlo engine (the |z| gate applies to every exponential cell).
pub fn hetero_replication_campaign(scale: Scale, seed: u64) -> Campaign {
    use crate::scenario::{PlatformSpec, ReplicationSpec};
    let (trials, sizes) = match scale {
        Scale::Quick => (2_000, vec![50]),
        Scale::Full => (20_000, vec![100, 200]),
    };
    let mut platforms = vec![
        // Two identical machines: pure redundancy.
        PlatformSpec::Uniform { count: 2 },
        // Four machines, 2× speed spread, 4× failure-rate spread.
        PlatformSpec::Spread {
            count: 4,
            speed_spread: 2.0,
            rate_spread: 4.0,
        },
    ];
    let mut replications = vec![
        ReplicationSpec::None,
        ReplicationSpec::Uniform { degree: 2 },
        ReplicationSpec::Heaviest {
            degree: 2,
            count: 8,
        },
    ];
    if scale == Scale::Full {
        platforms.push(PlatformSpec::Spread {
            count: 8,
            speed_spread: 4.0,
            rate_spread: 8.0,
        });
        replications.push(ReplicationSpec::Uniform { degree: 3 });
        replications.push(ReplicationSpec::Threshold {
            degree: 2,
            work_fraction: 0.5,
        });
    }
    Campaign {
        name: "hetero_replication".to_string(),
        description: "heterogeneous processors × task replication vs the 14 heuristics".to_string(),
        stages: vec![Stage::Scenario {
            scenario: ScenarioSpec {
                name: "hetero_replication".to_string(),
                description: format!(
                    "processor-count × heterogeneity-spread × replication, {trials} trials"
                ),
                workflows: vec![WorkflowSource::Pegasus {
                    kind: PegasusKind::CyberShake,
                    rule: RULE_01W,
                }],
                sizes,
                failures: vec![FailureSpec::SourceDefault { downtime: 1.0 }],
                strategies: vec![StrategySpec::Paper],
                simulators: vec![
                    SimulatorSpec::Analytic,
                    SimulatorSpec::MonteCarlo { trials },
                ],
                seed,
                seed_policy: SeedPolicy::SpecHash,
                sweep: SweepSpec::Auto,
                platforms,
                replications,
                optimizer: OptimizerSpec::Proxy,
                objective: ObjectiveSpec::Mean,
                arrivals: ArrivalSpec::Off,
                tenancy: TenancySpec::default(),
                storage: StorageSpec::default(),
            },
            output: OutputSpec::rows("hetero_replication.csv"),
        }],
    }
}

/// The objective-driven optimizer study: the **same cells** (CyberShake ×
/// one heterogeneous platform × uniform degree-2 replication × the 14
/// paper heuristics) run three times — once per optimizer backend — into
/// three CSVs whose `expected` columns are directly comparable row by
/// row:
///
/// * `replication_aware_proxy.csv` — budgets swept under the
///   single-machine proxy, re-evaluated replicated (the pre-optimizer
///   behavior);
/// * `replication_aware_aware.csv` — budgets swept directly against the
///   replicated evaluator;
/// * `replication_aware_joint.csv` — the coordinate descent over
///   (budget × per-task replica sets).
///
/// Cell seeds use [`SeedPolicy::LegacyXorN`] (`master ^ n`), which does
/// **not** depend on the spec hash — the three stages differ only in the
/// `optimizer` field, so they generate identical workflow instances and
/// the per-row `expected` differences are pure optimality gaps:
/// `aware ≤ proxy` and `joint ≤ aware` row by row (pinned by
/// `tests/optimizer_gap.rs` against the golden corpus).
pub fn replication_aware_campaign(scale: Scale, seed: u64) -> Campaign {
    use crate::scenario::PlatformSpec;
    let sizes = match scale {
        Scale::Quick => vec![50],
        Scale::Full => vec![100, 200],
    };
    // An anti-correlated pool: the fastest processor is also the most
    // failure-prone, the slowest the most reliable. On such platforms the
    // fastest-first prefix family (static replication strategies) is
    // genuinely suboptimal, which is what separates the three optimizers:
    // the aware sweep fixes the checkpoint budget, the joint descent
    // additionally walks tasks off the flaky fast machine.
    let platform = PlatformSpec::Explicit {
        processors: vec![
            crate::scenario::ProcessorSpec {
                speed: 1.4,
                rel_rate: 8.0,
                ..crate::scenario::ProcessorSpec::reference()
            },
            crate::scenario::ProcessorSpec::reference(),
            crate::scenario::ProcessorSpec {
                speed: 0.7,
                rel_rate: 0.25,
                ..crate::scenario::ProcessorSpec::reference()
            },
        ],
    };
    let scenario = move |optimizer: OptimizerSpec| ScenarioSpec {
        name: format!("replication_aware_{}", stage_tag(optimizer)),
        description: format!("{} optimizer over the 14 heuristics", optimizer.label()),
        workflows: vec![WorkflowSource::Pegasus {
            kind: PegasusKind::CyberShake,
            rule: RULE_01W,
        }],
        sizes: sizes.clone(),
        failures: vec![FailureSpec::SourceDefault { downtime: 1.0 }],
        strategies: vec![StrategySpec::Paper],
        simulators: vec![SimulatorSpec::Analytic],
        seed,
        // LegacyXorN: seeds independent of the spec hash, so the three
        // stages (which differ in `optimizer`) see identical instances.
        seed_policy: SeedPolicy::LegacyXorN,
        sweep: SweepSpec::Auto,
        platforms: vec![platform.clone()],
        replications: vec![crate::scenario::ReplicationSpec::Uniform { degree: 2 }],
        optimizer,
        objective: ObjectiveSpec::Mean,
        arrivals: ArrivalSpec::Off,
        tenancy: TenancySpec::default(),
        storage: StorageSpec::default(),
    };
    Campaign {
        name: "replication_aware".to_string(),
        description: "proxy vs replication-aware vs joint optimizer gaps".to_string(),
        stages: [
            OptimizerSpec::Proxy,
            OptimizerSpec::ReplicationAware,
            OptimizerSpec::Joint,
        ]
        .into_iter()
        .map(|o| Stage::Scenario {
            output: OutputSpec::rows(format!("replication_aware_{}.csv", stage_tag(o))),
            scenario: scenario(o),
        })
        .collect(),
    }
}

/// The tail-latency objective study: the **same cells** (one random chain
/// × exponential faults × DF-CkptW) swept twice — once minimizing the
/// expected makespan, once minimizing its Monte-Carlo p99 — into two
/// [`OutputFormat::RowsTail`] CSVs whose rows are directly comparable:
///
/// * `tail_latency_mean.csv` — checkpoint count chosen by the analytic
///   mean (the classic sweep);
/// * `tail_latency_p99.csv` — checkpoint count chosen by the streaming
///   P² p99 estimate of the same proxy, on a salted trial stream.
///
/// Cell seeds use [`SeedPolicy::LegacyXorN`], which does **not** depend
/// on the spec hash — the two stages differ only in the `objective`
/// field, so they generate identical chain instances and identical row
/// simulators; the per-row `mc_mean`/`mc_p99` differences are pure
/// objective trade-offs. `tests/tail_divergence.rs` pins the divergence
/// both ways against the golden corpus: the mean stage wins on
/// `mc_mean`, the p99 stage wins on `mc_p99`.
pub fn tail_latency_campaign(scale: Scale, seed: u64) -> Campaign {
    let (mc_trials, obj_trials) = match scale {
        Scale::Quick => (6_000, 3_000),
        Scale::Full => (30_000, 12_000),
    };
    // A short chain under a harsh failure rate: re-execution noise is
    // heavy-tailed, so the p99-optimal checkpoint count sits above the
    // mean-optimal one and the two objectives pick different schedules.
    let scenario = move |objective: ObjectiveSpec| ScenarioSpec {
        name: format!("tail_latency_{}", objective.label()),
        description: format!(
            "checkpoint sweep minimizing the {} makespan",
            objective.label()
        ),
        workflows: vec![WorkflowSource::RandomChain {
            min_weight: 20.0,
            max_weight: 80.0,
            rule: RULE_01W,
            default_lambda: 0.0,
        }],
        sizes: vec![12, 16],
        failures: vec![FailureSpec::Exponential {
            lambda: 2e-3,
            downtime: 1.0,
        }],
        strategies: vec![df_ckptw()],
        simulators: vec![SimulatorSpec::MonteCarlo { trials: mc_trials }],
        seed,
        // LegacyXorN: seeds independent of the spec hash, so the two
        // stages (which differ in `objective`) see identical instances.
        seed_policy: SeedPolicy::LegacyXorN,
        sweep: SweepSpec::Exhaustive,
        platforms: Vec::new(),
        replications: Vec::new(),
        optimizer: OptimizerSpec::Proxy,
        objective,
        arrivals: ArrivalSpec::Off,
        tenancy: TenancySpec::default(),
        storage: StorageSpec::default(),
    };
    Campaign {
        name: "tail_latency".to_string(),
        description: "mean- vs p99-minimizing checkpoint sweeps".to_string(),
        stages: [
            ObjectiveSpec::Mean,
            ObjectiveSpec::P99 { trials: obj_trials },
        ]
        .into_iter()
        .map(|o| Stage::Scenario {
            output: OutputSpec::rows_tail(format!("tail_latency_{}.csv", o.label())),
            scenario: scenario(o),
        })
        .collect(),
    }
}

/// The multi-tenant contention study: the **same cells** (one random
/// layered DAG × expensive checkpoints × exponential faults × eight
/// heuristics on a two-processor platform) run through the online
/// contention engine under five arrival/policy regimes, into
/// [`OutputFormat::TenantRows`] CSVs:
///
/// * `multi_tenant_baseline.csv` — near-uncontended Poisson stream under
///   FCFS: every job effectively has the platform to itself;
/// * `multi_tenant_{fcfs,priority,fair_share,reject}.csv` — the same job
///   count at a heavily oversubscribed rate, one stage per admission
///   policy.
///
/// The strategy set spans the checkpointing spectrum: the six swept
/// work-and-cost heuristics (mean-optimal budgets) plus the `CkptAlws`
/// and `CkptNvr` extremes under DF. At `c = 0.3 w` the sweeps keep few
/// checkpoints, so a fault re-executes a large chunk — a fat service
/// tail — while `CkptAlws` pays ~30% overhead for a near-deterministic
/// runtime. That trade-off makes the SLO winner regime-dependent:
/// uncontended, the deadline sits in the service tail and `DF-CkptAlws`
/// wins by never blowing it; contended, queueing delay dwarfs the fault
/// tail and the lean swept schedules win by draining the convoy faster.
/// `tests/tenant_flip.rs` pins against the golden corpus that every
/// contended policy stage crowns a different winner than the baseline.
///
/// Two tenants share the platform: `gold` (weight 4, tight SLO) and
/// `bronze` (weight 1, loose SLO), with deadlines at `slo_factor × T∞`
/// so every heuristic competes against the same clock.
///
/// Cell seeds use [`SeedPolicy::LegacyXorN`], which does **not** depend
/// on the spec hash — the stages differ only in `arrivals`/`tenancy`, so
/// they generate identical DAG instances and identical per-job fault
/// streams; row differences are pure contention-policy trade-offs.
pub fn multi_tenant_campaign(scale: Scale, seed: u64) -> Campaign {
    let mc_trials = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 10_000,
    };
    // 10 jobs on 2 processors: the contended mean gap feeds work ~7× as
    // fast as the platform drains it, so late jobs queue behind the
    // convoy and the SLO clock rewards drain rate over tail safety.
    let jobs = 10;
    let uncontended_gap = 50_000.0;
    let contended_gap = 300.0;
    let scenario = move |tag: &str, mean_gap: f64, policy: AdmissionPolicy| ScenarioSpec {
        name: format!("multi_tenant_{tag}"),
        description: format!(
            "two-tenant Poisson stream (gap {mean_gap}) under {} admission",
            policy.label()
        ),
        workflows: vec![WorkflowSource::RandomLayered {
            max_width: 6,
            edge_prob: 0.3,
            min_weight: 20.0,
            max_weight: 80.0,
            // Expensive checkpoints: the swept budgets stay small, so the
            // mean-optimal schedules carry a fat fault-re-execution tail
            // that CkptAlws trades ~30% overhead to eliminate.
            rule: CostRule::ProportionalToWork { ratio: 0.3 },
            default_lambda: 0.0,
        }],
        sizes: vec![16],
        failures: vec![FailureSpec::Exponential {
            lambda: 8e-4,
            downtime: 5.0,
        }],
        strategies: vec![
            StrategySpec::WorkAndCost,
            StrategySpec::Heuristic {
                lin: LinearizationStrategy::DepthFirst,
                ckpt: CheckpointStrategy::Always,
            },
            StrategySpec::Heuristic {
                lin: LinearizationStrategy::DepthFirst,
                ckpt: CheckpointStrategy::Never,
            },
        ],
        simulators: vec![SimulatorSpec::MonteCarlo { trials: mc_trials }],
        seed,
        // LegacyXorN: seeds independent of the spec hash, so all five
        // stages (which differ in arrivals/tenancy only) see identical
        // DAG instances and identical per-job fault streams.
        seed_policy: SeedPolicy::LegacyXorN,
        sweep: SweepSpec::Exhaustive,
        platforms: vec![PlatformSpec::Uniform { count: 2 }],
        replications: Vec::new(),
        optimizer: OptimizerSpec::Proxy,
        objective: ObjectiveSpec::Mean,
        arrivals: ArrivalSpec::Poisson {
            count: jobs,
            mean_gap,
        },
        tenancy: TenancySpec {
            tenants: vec![
                TenantSpec {
                    name: "gold".to_string(),
                    weight: 4.0,
                    slo_factor: 1.7,
                },
                TenantSpec {
                    name: "bronze".to_string(),
                    weight: 1.0,
                    slo_factor: 2.7,
                },
            ],
            policy,
        },
        storage: StorageSpec::default(),
    };
    let contended = [
        ("fcfs", AdmissionPolicy::Fcfs),
        ("priority", AdmissionPolicy::Priority),
        ("fair_share", AdmissionPolicy::FairShare),
        ("reject", AdmissionPolicy::RejectOverCapacity),
    ];
    Campaign {
        name: "multi_tenant".to_string(),
        description: "admission policies under concurrent workflow arrivals".to_string(),
        stages: std::iter::once(Stage::Scenario {
            output: OutputSpec::tenant_rows("multi_tenant_baseline.csv"),
            scenario: scenario("baseline", uncontended_gap, AdmissionPolicy::Fcfs),
        })
        .chain(contended.into_iter().map(|(tag, policy)| Stage::Scenario {
            output: OutputSpec::tenant_rows(format!("multi_tenant_{tag}.csv")),
            scenario: scenario(tag, contended_gap, policy),
        }))
        .collect(),
    }
}

/// The checkpoint-storage-tier study: the **same fork-join instance**
/// (a 150-second head fanning out to twelve 4-second workers joined by a
/// 120-second sink, constant 10-second checkpoint images) solved by a
/// checkpoint-heavy and a checkpoint-lean heuristic, each free to pick
/// its storage tier from a two-tier hierarchy, into
/// [`OutputFormat::StorageRows`] CSVs:
///
/// * `storage_tiers.csv` — homogeneous platform, `best` selection: every
///   strategy is optimized once per tier on the tier-priced workflow
///   copy and the argmin tier lands in the `storage` column;
/// * `storage_tiers_joint.csv` — two-processor platform with degree-2
///   replication under the `joint` optimizer and `per-task` selection:
///   tier choice is the third coordinate-descent axis, and the `pfs`
///   tier's write contention prices the co-scheduled replica
///   checkpoint images.
///
/// The hierarchy models the classic burst-buffer trade-off: `local` is
/// write-fast but read-slow (node-local flash — a restore must fetch
/// the image from a possibly-down node), `pfs` is write-slow but
/// read-fast (the parallel file system restores at full stripe
/// bandwidth). The join is what makes the winning tier flip: a sink
/// fault re-reads **every** checkpointed predecessor image, so
/// `DF-CkptAlws` (which checkpoints all twelve workers) is
/// read-dominated and picks `pfs`, while the swept `DF-CkptW` keeps a
/// single checkpoint on the head — whose image is written once and
/// re-read only on the occasional downstream fault — making it
/// write-dominated, and it picks `local`. Both margins are properties
/// of the analytic evaluator, not Monte-Carlo noise;
/// `tests/storage_flip.rs` pins the flip against the golden corpus.
///
/// Cell seeds use [`SeedPolicy::LegacyXorN`], which does **not** depend
/// on the spec hash — the two stages differ only in platform/optimizer/
/// selection, and the instance is inline anyway.
pub fn storage_tiers_campaign(scale: Scale, seed: u64) -> Campaign {
    use dagchkpt_core::TaskCosts;
    let mc_trials = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 10_000,
    };
    let width = 12usize;
    let dag = generators::fork_join(width);
    let costs: Vec<TaskCosts> = (0..width + 2)
        .map(|i| {
            let w = if i == 0 {
                150.0
            } else if i == width + 1 {
                120.0
            } else {
                4.0
            };
            TaskCosts::new(w, 10.0, 10.0)
        })
        .collect();
    let forkjoin = Workflow::new(dag, costs);
    let tiers = vec![
        dagchkpt_failure::StorageTier {
            name: "local".to_string(),
            write_bw: 8.0,
            read_bw: 0.25,
            compression: 1.0,
            contention: 0.0,
        },
        dagchkpt_failure::StorageTier {
            name: "pfs".to_string(),
            write_bw: 0.25,
            read_bw: 8.0,
            compression: 1.0,
            contention: 0.5,
        },
    ];
    let scenario = move |tag: &str, select: crate::scenario::StorageSelect| ScenarioSpec {
        name: format!("storage_tiers_{tag}"),
        description: format!(
            "checkpoint-heavy vs checkpoint-lean heuristics picking tiers ({})",
            select.label()
        ),
        workflows: vec![WorkflowSource::Inline {
            name: "forkjoin".to_string(),
            workflow: WorkflowSpec::from_workflow(&forkjoin, None),
            default_lambda: 0.0,
        }],
        sizes: vec![width + 2],
        failures: vec![FailureSpec::Exponential {
            lambda: 6e-3,
            downtime: 5.0,
        }],
        strategies: vec![
            StrategySpec::Heuristic {
                lin: LinearizationStrategy::DepthFirst,
                ckpt: CheckpointStrategy::Always,
            },
            df_ckptw(),
        ],
        simulators: vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials: mc_trials },
        ],
        seed,
        seed_policy: SeedPolicy::LegacyXorN,
        sweep: SweepSpec::Exhaustive,
        platforms: if tag == "joint" {
            vec![PlatformSpec::Uniform { count: 2 }]
        } else {
            Vec::new()
        },
        replications: if tag == "joint" {
            vec![crate::scenario::ReplicationSpec::Uniform { degree: 2 }]
        } else {
            Vec::new()
        },
        optimizer: if tag == "joint" {
            OptimizerSpec::Joint
        } else {
            OptimizerSpec::Proxy
        },
        objective: ObjectiveSpec::Mean,
        arrivals: ArrivalSpec::Off,
        tenancy: TenancySpec::default(),
        storage: StorageSpec::Tiers {
            tiers: tiers.clone(),
            select,
        },
    };
    Campaign {
        name: "storage_tiers".to_string(),
        description: "checkpoint storage tiers: write-fast local flash vs read-fast PFS"
            .to_string(),
        stages: vec![
            Stage::Scenario {
                output: OutputSpec::storage_rows("storage_tiers.csv"),
                scenario: scenario("best", crate::scenario::StorageSelect::Best),
            },
            Stage::Scenario {
                output: OutputSpec::storage_rows("storage_tiers_joint.csv"),
                scenario: scenario("joint", crate::scenario::StorageSelect::PerTask),
            },
        ],
    }
}

/// Short per-stage tag (`proxy`, `aware`, `joint`).
fn stage_tag(o: OptimizerSpec) -> &'static str {
    match o {
        OptimizerSpec::Proxy => "proxy",
        OptimizerSpec::ReplicationAware => "aware",
        OptimizerSpec::Joint => "joint",
    }
}

/// **V2** — optimality gap of every heuristic against the brute-force
/// optimum on tiny random DAGs. Returns `(heuristic, mean gap, max gap)`.
pub fn optgap(opts: &Options) -> Vec<(String, f64, f64)> {
    let instances = match opts.scale {
        Scale::Quick => 20,
        Scale::Full => 60,
    };
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let names: Vec<String> = dagchkpt_core::paper_heuristics(opts.seed)
        .iter()
        .map(|h| h.name())
        .collect();
    let mut gaps: std::collections::BTreeMap<String, Vec<f64>> =
        names.iter().map(|n| (n.clone(), Vec::new())).collect();
    let mut done = 0;
    while done < instances {
        let n = rng.gen_range(4..8usize);
        let dag = generators::layered_random(&mut rng, n, 3, 0.35);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(5.0..60.0)).collect();
        let wf =
            Workflow::with_cost_rule(dag, weights, CostRule::ProportionalToWork { ratio: 0.1 });
        let model = FaultModel::new(rng.gen_range(2e-3..2e-2), 0.0);
        let Some(brute) =
            exact::brute::optimal_schedule(&wf, model, exact::brute::BruteLimits::default())
        else {
            continue;
        };
        done += 1;
        for r in dagchkpt_core::run_all(&wf, model, SweepPolicy::Exhaustive, opts.seed) {
            let gap = r.expected_makespan / brute.expected_makespan - 1.0;
            gaps.get_mut(&r.name).expect("registered name").push(gap);
        }
    }
    println!("V2: heuristic optimality gap over {instances} tiny DAGs (vs brute force)");
    println!("{:<12} {:>10} {:>10}", "heuristic", "mean gap", "max gap");
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for (name, gs) in gaps {
        let mean = gs.iter().sum::<f64>() / gs.len() as f64;
        let max = gs.iter().cloned().fold(0.0, f64::max);
        println!("{:<12} {:>9.2}% {:>9.2}%", name, mean * 100.0, max * 100.0);
        rows.push(vec![
            name.clone(),
            format!("{mean:.6}"),
            format!("{max:.6}"),
        ]);
        out.push((name, mean, max));
    }
    write_csv(
        opts.out_dir.join("optgap.csv"),
        &["heuristic", "mean_gap", "max_gap"],
        rows,
    )
    .expect("write optgap.csv");
    out
}

/// **V3/V4** — ablations: (a) evaluator optimized vs paper-literal wall
/// time; (b) DF priority variants. Returns the evaluator speedup at the
/// largest measured size.
pub fn ablation(opts: &Options) -> f64 {
    let rule = CostRule::ProportionalToWork { ratio: 0.1 };

    // (a) evaluator complexity ablation.
    println!("V3: evaluator — optimized O(n(n+|E|)) vs paper-literal O(n^4)");
    println!(
        "{:<6} {:>14} {:>14} {:>9}",
        "n", "optimized (ms)", "literal (ms)", "speedup"
    );
    let sizes = match opts.scale {
        Scale::Quick => vec![20usize, 40, 80, 160],
        Scale::Full => vec![20usize, 40, 80, 160, 320],
    };
    let mut rows = Vec::new();
    let mut last_speedup = 1.0;
    for n in sizes {
        let wf = PegasusKind::Montage.generate(n.max(12), rule, opts.seed);
        let model = FaultModel::new(1e-3, 0.0);
        let order = dagchkpt_core::linearize(&wf, LinearizationStrategy::DepthFirst);
        let s = dagchkpt_core::Schedule::new(
            &wf,
            order,
            dagchkpt_dag::FixedBitSet::from_indices(
                wf.n_tasks(),
                (0..wf.n_tasks()).filter(|i| i % 3 == 0),
            ),
        )
        .expect("valid schedule");
        let reps = 5;
        let t0 = std::time::Instant::now();
        let mut a = 0.0;
        for _ in 0..reps {
            a = dagchkpt_core::evaluator::expected_makespan(&wf, model, &s);
        }
        let opt_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let t1 = std::time::Instant::now();
        let mut b = 0.0;
        for _ in 0..reps {
            b = dagchkpt_core::evaluator::literal::expected_makespan_literal(&wf, model, &s);
        }
        let lit_ms = t1.elapsed().as_secs_f64() * 1e3 / reps as f64;
        assert!(
            (a - b).abs() <= 1e-9 * a,
            "implementations disagree: {a} vs {b}"
        );
        last_speedup = lit_ms / opt_ms.max(1e-9);
        println!(
            "{:<6} {:>14.3} {:>14.3} {:>8.1}x",
            wf.n_tasks(),
            opt_ms,
            lit_ms,
            last_speedup
        );
        rows.push(vec![
            wf.n_tasks().to_string(),
            format!("{opt_ms:.4}"),
            format!("{lit_ms:.4}"),
            format!("{last_speedup:.2}"),
        ]);
    }
    write_csv(
        opts.out_dir.join("ablation_evaluator.csv"),
        &["n", "optimized_ms", "literal_ms", "speedup"],
        rows,
    )
    .expect("write ablation_evaluator.csv");

    // (b) DF priority ablation.
    println!("\nV4: DF priority ablation (CkptW, ratio T/Tinf)");
    println!(
        "{:<12} {:>10} {:>14} {:>8}",
        "workflow", "outweight", "desc-weight", "none"
    );
    let mut rows = Vec::new();
    for kind in PegasusKind::ALL {
        let n = 100;
        let wf = kind.generate(n, rule, opts.seed);
        let model = FaultModel::new(kind.default_lambda(), 0.0);
        let mut ratios = Vec::new();
        for p in [
            Priority::Outweight,
            Priority::DescendantWeight,
            Priority::None,
        ] {
            let order = linearize_with_priority(&wf, LinearizationStrategy::DepthFirst, p);
            let opt = optimize_checkpoints(
                &wf,
                model,
                &order,
                CheckpointStrategy::ByDecreasingWork,
                SweepPolicy::Exhaustive,
            );
            ratios.push(opt.expected_makespan / wf.total_work());
        }
        println!(
            "{:<12} {:>10.4} {:>14.4} {:>8.4}",
            kind.name(),
            ratios[0],
            ratios[1],
            ratios[2]
        );
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.6}", ratios[0]),
            format!("{:.6}", ratios[1]),
            format!("{:.6}", ratios[2]),
        ]);
    }
    write_csv(
        opts.out_dir.join("ablation_priority.csv"),
        &["workflow", "outweight", "descendant_weight", "none"],
        rows,
    )
    .expect("write ablation_priority.csv");
    last_speedup
}

/// Extension study: the CkptH protection-per-cost strategy and
/// evaluator-driven local search against the paper's best heuristics.
///
/// `CkptH` ranks tasks by `w_i/c_i`; local search hill-climbs single
/// checkpoint flips under the exact Theorem-3 evaluator, seeded from the
/// best sweep result. Both are enabled by the paper's evaluator and are not
/// in the original paper.
pub fn extensions(opts: &Options) {
    let sizes: Vec<usize> = match opts.scale {
        Scale::Quick => vec![100],
        Scale::Full => vec![100, 200, 400],
    };
    let rules = [
        CostRule::ProportionalToWork { ratio: 0.1 },
        CostRule::Constant { value: 5.0 },
    ];
    println!(
        "{:<12} {:>4} {:<8} {:>9} {:>9} {:>9} {:>11} {:>7}",
        "workflow", "n", "rule", "CkptW", "CkptC", "CkptH", "W+localsrch", "rounds"
    );
    let mut rows = Vec::new();
    for kind in PegasusKind::ALL {
        for &n in &sizes {
            for rule in rules {
                let wf = kind.generate(n, rule, opts.seed);
                let model = FaultModel::new(kind.default_lambda(), 0.0);
                let order = linearize(&wf, LinearizationStrategy::DepthFirst);
                let policy = crate::runner::auto_policy(n);
                let tinf = wf.total_work();
                let ratio = |e: f64| e / tinf;

                let w = optimize_checkpoints(
                    &wf,
                    model,
                    &order,
                    CheckpointStrategy::ByDecreasingWork,
                    policy,
                );
                let c = optimize_checkpoints(
                    &wf,
                    model,
                    &order,
                    CheckpointStrategy::ByIncreasingCkptCost,
                    policy,
                );
                let h = optimize_checkpoints(
                    &wf,
                    model,
                    &order,
                    CheckpointStrategy::ByDecreasingWorkOverCost,
                    policy,
                );
                let ls = local_search(&wf, model, &order, w.schedule.checkpoints().clone(), 64);
                assert!(
                    ls.expected_makespan <= w.expected_makespan + 1e-9,
                    "local search must not lose to its seed"
                );
                println!(
                    "{:<12} {:>4} {:<8} {:>9.4} {:>9.4} {:>9.4} {:>11.4} {:>7}",
                    kind.name(),
                    n,
                    rule.label(),
                    ratio(w.expected_makespan),
                    ratio(c.expected_makespan),
                    ratio(h.expected_makespan),
                    ratio(ls.expected_makespan),
                    ls.evaluated / wf.n_tasks().max(1),
                );
                rows.push(vec![
                    kind.name().to_string(),
                    n.to_string(),
                    rule.label(),
                    format!("{:.6}", ratio(w.expected_makespan)),
                    format!("{:.6}", ratio(c.expected_makespan)),
                    format!("{:.6}", ratio(h.expected_makespan)),
                    format!("{:.6}", ratio(ls.expected_makespan)),
                ]);
            }
        }
    }
    write_csv(
        opts.out_dir.join("extensions.csv"),
        &[
            "workflow",
            "n",
            "rule",
            "ckptw",
            "ckptc",
            "ckpth",
            "w_localsearch",
        ],
        rows,
    )
    .expect("write extensions.csv");
    println!("wrote {}", opts.out_dir.join("extensions.csv").display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(tag: &str) -> Options {
        let o = Options {
            scale: Scale::Quick,
            out_dir: std::env::temp_dir().join(format!("dagchkpt_studies_{tag}")),
            seed: 5,
        };
        o.ensure_out_dir().unwrap();
        o
    }

    #[test]
    fn ablation_smoke_and_speedup() {
        let o = opts("ablation");
        let speedup = ablation(&o);
        // The asymptotic gap (O(n(n+|E|)) vs O(n³)-per-evaluation) shows as
        // a clear constant-factor win by n = 160; exact magnitude depends
        // on the build profile, so keep the bound loose.
        assert!(speedup > 1.5, "speedup {speedup}");
        std::fs::remove_dir_all(&o.out_dir).ok();
    }

    #[test]
    fn optgap_heuristics_never_beat_optimum() {
        let mut o = opts("optgap");
        o.seed = 11;
        let table = optgap(&o);
        assert_eq!(table.len(), 14);
        for (name, mean, max) in table {
            assert!(mean >= -1e-9, "{name} mean gap negative: {mean}");
            assert!(max >= -1e-9, "{name} max gap negative: {max}");
        }
        std::fs::remove_dir_all(&o.out_dir).ok();
    }

    #[test]
    fn study_campaigns_validate_and_use_master_seeds() {
        for c in [
            validate_campaign(Scale::Quick, 42),
            weibull_campaign(Scale::Quick, 42),
            nonblocking_campaign(Scale::Quick, 42),
        ] {
            assert_eq!(c.stages.len(), 1);
            let Stage::Scenario { scenario, output } = &c.stages[0] else {
                panic!("study campaigns are scenarios");
            };
            scenario.validate().unwrap();
            assert_eq!(scenario.seed_policy, SeedPolicy::Master);
            assert_eq!(scenario.sweep, SweepSpec::Exhaustive);
            assert!(!output.file.is_empty());
        }
    }

    #[test]
    fn validate_campaign_cases_match_the_legacy_binary() {
        let c = validate_campaign(Scale::Quick, 42);
        let Stage::Scenario { scenario, .. } = &c.stages[0] else {
            unreachable!()
        };
        // 4 Pegasus + 3 inline random cases, in presentation order.
        let names: Vec<String> = scenario
            .workflows
            .iter()
            .map(|w| w.display_name())
            .collect();
        assert_eq!(
            names,
            [
                "Montage",
                "Ligo",
                "CyberShake",
                "Genome",
                "random0",
                "random1",
                "random2"
            ]
        );
        // Inline randoms have 40 tasks and λ = 2e-3; the builder is
        // deterministic in the seed.
        let again = validate_campaign(Scale::Quick, 42);
        assert_eq!(c, again);
        let cells = scenario.expand().unwrap();
        assert_eq!(cells.len(), 7);
        assert_eq!(cells[4].n, 40);
        assert!(cells.iter().all(|p| p.seed == 42));
    }
}
