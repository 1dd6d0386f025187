//! Property tests of the declarative scenario layer:
//!
//! * **JSON round-trip** — serialize → parse yields the identical spec,
//!   the identical cell expansion, and the identical stable hash
//!   (platform/replication axes included);
//! * **cell-seed stability** — the same spec produces the same per-cell
//!   seeds regardless of shard count or the order cells are executed in
//!   (seeds are fixed at expansion time, keyed by cell index);
//! * **processor-order invariance** — an explicit platform resolves to the
//!   same canonical processor pool, and produces bit-identical rows,
//!   however its processor list is permuted;
//! * **degree-1 ≡ no replication** — on any platform, `Uniform {1}`
//!   produces exactly the rows the `None` strategy does, for every paper
//!   heuristic.

use dagchkpt_bench::{
    ArrivalSpec, FailureSpec, ObjectiveSpec, OptimizerSpec, PlatformSpec, ProcessorSpec,
    ReplicationSpec, ScenarioSpec, SeedPolicy, SimulatorSpec, StorageSpec, StrategySpec, SweepSpec,
    TenancySpec, WorkflowSource,
};
use dagchkpt_core::{CheckpointStrategy, CostRule, LinearizationStrategy};
use dagchkpt_workflows::PegasusKind;
use proptest::prelude::*;

/// Builds a randomized-but-valid spec from plain scalars (the vendored
/// proptest has no `Arbitrary` derive; composing from ranges keeps every
/// sample valid by construction).
#[allow(clippy::too_many_arguments)]
fn spec_from(
    seed: u64,
    src_kind: u8,
    fail_kind: u8,
    policy_kind: u8,
    sizes: Vec<usize>,
    lambda_exp: f64,
    downtime: f64,
    trials: usize,
) -> ScenarioSpec {
    spec_with_platform(
        seed,
        src_kind,
        fail_kind,
        policy_kind,
        sizes,
        lambda_exp,
        downtime,
        trials,
        0,
    )
}

/// [`spec_from`] plus a platform/replication flavour: 0 = no axes,
/// 1 = uniform pool, 2 = spread, 3 = explicit processors.
#[allow(clippy::too_many_arguments)]
fn spec_with_platform(
    seed: u64,
    src_kind: u8,
    fail_kind: u8,
    policy_kind: u8,
    sizes: Vec<usize>,
    lambda_exp: f64,
    downtime: f64,
    trials: usize,
    plat_kind: u8,
) -> ScenarioSpec {
    // Platforms cannot ride on fixed traces; the sampled failure kinds
    // here never produce traces, so every combination stays valid.
    let (platforms, replications) = match plat_kind % 4 {
        0 => (vec![], vec![]),
        1 => (
            vec![PlatformSpec::Uniform { count: 3 }],
            vec![
                ReplicationSpec::None,
                ReplicationSpec::Uniform { degree: 2 },
            ],
        ),
        2 => (
            vec![PlatformSpec::Spread {
                count: 4,
                speed_spread: 2.0,
                rate_spread: 3.0,
            }],
            vec![ReplicationSpec::Heaviest {
                degree: 3,
                count: 10,
            }],
        ),
        _ => (
            vec![PlatformSpec::Explicit {
                processors: vec![
                    ProcessorSpec::reference(),
                    ProcessorSpec {
                        speed: 1.5,
                        rel_rate: 2.0,
                        shape: 0.0,
                        read_bw: 2.0,
                        write_bw: 0.5,
                    },
                ],
            }],
            vec![ReplicationSpec::Threshold {
                degree: 2,
                work_fraction: 0.5,
            }],
        ),
    };
    let mut spec = spec_raw(
        seed,
        src_kind,
        fail_kind,
        policy_kind,
        sizes,
        lambda_exp,
        downtime,
        trials,
    );
    spec.platforms = platforms;
    spec.replications = replications;
    spec
}

#[allow(clippy::too_many_arguments)]
fn spec_raw(
    seed: u64,
    src_kind: u8,
    fail_kind: u8,
    policy_kind: u8,
    sizes: Vec<usize>,
    lambda_exp: f64,
    downtime: f64,
    trials: usize,
) -> ScenarioSpec {
    let lambda = 10f64.powf(-lambda_exp);
    let rule = if src_kind.is_multiple_of(2) {
        CostRule::ProportionalToWork { ratio: 0.1 }
    } else {
        CostRule::Constant { value: 2.5 }
    };
    let source = match src_kind % 3 {
        0 => WorkflowSource::Pegasus {
            kind: PegasusKind::ALL[(src_kind / 3) as usize % 4],
            rule,
        },
        1 => WorkflowSource::RandomLayered {
            max_width: 3 + (src_kind / 3) as usize % 4,
            edge_prob: 0.3,
            min_weight: 2.0,
            max_weight: 40.0,
            rule,
            default_lambda: lambda,
        },
        _ => WorkflowSource::RandomChain {
            min_weight: 1.0,
            max_weight: 25.0,
            rule,
            default_lambda: lambda,
        },
    };
    let failure = match fail_kind % 5 {
        0 => FailureSpec::Exponential { lambda, downtime },
        1 => FailureSpec::LambdaSweep {
            lambdas: vec![lambda, lambda * 2.0, lambda * 4.0],
            downtime,
        },
        2 => FailureSpec::MtbfSweep {
            mtbfs: vec![1.0 / lambda, 2.0 / lambda],
            downtime,
        },
        3 => FailureSpec::WeibullShapeSweep {
            mtbf: 1.0 / lambda,
            shapes: vec![0.7, 1.0, 1.6],
            downtime,
        },
        _ => FailureSpec::SourceDefault { downtime },
    };
    // Pegasus generators need a minimum size; keep every sampled size safe
    // for all four applications.
    let sizes: Vec<usize> = sizes.into_iter().map(|n| n.max(30)).collect();
    ScenarioSpec {
        name: "prop".to_string(),
        description: "property-test spec".to_string(),
        workflows: vec![source],
        sizes,
        failures: vec![failure],
        strategies: vec![
            StrategySpec::Heuristic {
                lin: LinearizationStrategy::DepthFirst,
                ckpt: CheckpointStrategy::ByDecreasingWork,
            },
            StrategySpec::WorkAndCost,
        ],
        simulators: vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials },
        ],
        seed,
        seed_policy: match policy_kind % 3 {
            0 => SeedPolicy::SpecHash,
            1 => SeedPolicy::LegacyXorN,
            _ => SeedPolicy::Master,
        },
        sweep: SweepSpec::Auto,
        platforms: vec![],
        replications: vec![],
        optimizer: OptimizerSpec::Proxy,
        objective: ObjectiveSpec::Mean,
        arrivals: ArrivalSpec::Off,
        tenancy: TenancySpec::default(),
        storage: StorageSpec::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_round_trip_preserves_spec_expansion_and_hash(
        seed in 0u64..1 << 48,
        src_kind in 0u8..12,
        fail_kind in 0u8..10,
        policy_kind in 0u8..6,
        sizes in collection::vec(30usize..80, 1..4),
        lambda_exp in 2.0f64..5.0,
        downtime in 0.0f64..3.0,
        trials in 1usize..5000,
        plat_kind in 0u8..8,
    ) {
        let spec = spec_with_platform(
            seed, src_kind, fail_kind, policy_kind, sizes, lambda_exp, downtime, trials,
            plat_kind,
        );
        let parsed = ScenarioSpec::from_json(&spec.to_json()).expect("round-trip parses");
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.stable_hash(), spec.stable_hash());
        prop_assert_eq!(parsed.expand().unwrap(), spec.expand().unwrap());
        // Pretty serialization parses identically too.
        let pretty = ScenarioSpec::from_json(&spec.to_json_pretty()).expect("pretty parses");
        prop_assert_eq!(&pretty, &spec);
    }

    #[test]
    fn cell_seeds_are_stable_under_sharding_and_reordering(
        seed in 0u64..1 << 48,
        src_kind in 0u8..12,
        fail_kind in 0u8..10,
        policy_kind in 0u8..6,
        sizes in collection::vec(30usize..80, 1..4),
        shards in 1usize..6,
        plat_kind in 0u8..8,
    ) {
        let spec = spec_with_platform(
            seed, src_kind, fail_kind, policy_kind, sizes, 3.0, 0.0, 100, plat_kind,
        );
        let cells = spec.expand().unwrap();
        prop_assert!(!cells.is_empty());
        // Indices are dense and seeds are a pure function of the index.
        for (i, c) in cells.iter().enumerate() {
            prop_assert_eq!(c.index, i);
        }
        // Executing in any order cannot change seeds: a fresh expansion
        // visited in reverse order still maps index → the same seed.
        let again = spec.expand().unwrap();
        for b in again.iter().rev() {
            prop_assert_eq!(cells[b.index].seed, b.seed);
            prop_assert_eq!(&cells[b.index].failure, &b.failure);
        }
        // Union over any shard decomposition reproduces exactly the
        // unsharded (index, seed) pairs.
        let mut merged: Vec<(usize, u64)> = (0..shards)
            .flat_map(|i| {
                cells
                    .iter()
                    .filter(move |c| c.index % shards == i)
                    .map(|c| (c.index, c.seed))
            })
            .collect();
        merged.sort_unstable();
        let all: Vec<(usize, u64)> = cells.iter().map(|c| (c.index, c.seed)).collect();
        prop_assert_eq!(merged, all);
    }

    #[test]
    fn spec_hash_distinguishes_semantic_edits(
        seed in 0u64..1 << 48,
        sizes in collection::vec(30usize..80, 1..4),
    ) {
        let spec = spec_from(seed, 0, 0, 0, sizes, 3.0, 0.0, 100);
        let mut edited = spec.clone();
        edited.seed = spec.seed.wrapping_add(1);
        prop_assert!(edited.stable_hash() != spec.stable_hash());
        let mut edited = spec.clone();
        edited.sizes.push(99);
        prop_assert!(edited.stable_hash() != spec.stable_hash());
    }
}

/// Shared fixture for the execution-level invariance tests: a small chain
/// scenario with seeds independent of the spec hash (the compared specs
/// differ textually, so `SpecHash` seeds would differ by construction).
fn execution_spec(strategies: Vec<StrategySpec>, trials: usize) -> ScenarioSpec {
    ScenarioSpec {
        name: "exec".to_string(),
        description: String::new(),
        workflows: vec![WorkflowSource::RandomChain {
            min_weight: 4.0,
            max_weight: 30.0,
            rule: CostRule::ProportionalToWork { ratio: 0.1 },
            default_lambda: 2e-3,
        }],
        sizes: vec![10],
        failures: vec![FailureSpec::Exponential {
            lambda: 3e-3,
            downtime: 1.0,
        }],
        strategies,
        simulators: vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials },
        ],
        seed: 77,
        seed_policy: SeedPolicy::LegacyXorN,
        sweep: SweepSpec::Exhaustive,
        platforms: vec![],
        replications: vec![],
        optimizer: OptimizerSpec::Proxy,
        objective: ObjectiveSpec::Mean,
        arrivals: ArrivalSpec::Off,
        tenancy: TenancySpec::default(),
        storage: StorageSpec::default(),
    }
}

fn row_bits(rows: &[dagchkpt_bench::CellResult]) -> Vec<(String, String, u64, u64, u64)> {
    rows.iter()
        .map(|r| {
            (
                r.strategy.clone(),
                r.simulator.clone(),
                r.expected.to_bits(),
                r.mc_mean.to_bits(),
                r.mc_sem.to_bits(),
            )
        })
        .collect()
}

/// Listing an explicit platform's processors in any order changes nothing:
/// the canonical sort makes resolution, per-rank seed assignment, and every
/// produced row identical to the bit.
#[test]
fn processor_reordering_leaves_rows_bit_identical() {
    let procs = vec![
        ProcessorSpec::reference(),
        ProcessorSpec {
            speed: 2.0,
            rel_rate: 1.5,
            shape: 0.0,
            read_bw: 0.0,
            write_bw: 0.0,
        },
        ProcessorSpec {
            speed: 0.5,
            rel_rate: 3.0,
            shape: 0.0,
            read_bw: 2.0,
            write_bw: 0.5,
        },
    ];
    let mut permuted = vec![procs.clone()];
    permuted.push(vec![procs[2], procs[0], procs[1]]);
    permuted.push(vec![procs[1], procs[2], procs[0]]);
    let mut reference_rows = None;
    for listing in permuted {
        let mut spec = execution_spec(
            vec![StrategySpec::Heuristic {
                lin: LinearizationStrategy::DepthFirst,
                ckpt: CheckpointStrategy::ByDecreasingWork,
            }],
            1_500,
        );
        spec.platforms = vec![PlatformSpec::Explicit {
            processors: listing,
        }];
        spec.replications = vec![ReplicationSpec::Uniform { degree: 2 }];
        let rows = row_bits(&dagchkpt_bench::run_scenario(&spec).unwrap());
        match &reference_rows {
            None => reference_rows = Some(rows),
            Some(want) => assert_eq!(&rows, want, "processor order leaked into results"),
        }
    }
}

/// `Uniform { degree: 1 }` is exactly the no-replication strategy: on the
/// same (non-degenerate) platform every paper heuristic produces
/// bit-identical rows under either spelling.
#[test]
fn degree_one_replication_equals_no_replication_on_every_heuristic() {
    let platform = PlatformSpec::Spread {
        count: 3,
        speed_spread: 2.0,
        rate_spread: 3.0,
    };
    let mut none = execution_spec(vec![StrategySpec::Paper], 800);
    none.platforms = vec![platform.clone()];
    none.replications = vec![ReplicationSpec::None];
    let mut r1 = execution_spec(vec![StrategySpec::Paper], 800);
    r1.platforms = vec![platform];
    r1.replications = vec![ReplicationSpec::Uniform { degree: 1 }];
    let a = dagchkpt_bench::run_scenario(&none).unwrap();
    let b = dagchkpt_bench::run_scenario(&r1).unwrap();
    // 14 heuristics × 2 simulators.
    assert_eq!(a.len(), 28);
    assert_eq!(row_bits(&a), row_bits(&b));
    // Only the labels differ.
    assert!(a.iter().all(|r| r.replication == "none"));
    assert!(b.iter().all(|r| r.replication == "r1"));
}
