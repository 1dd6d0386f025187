//! Determinism guarantees of the concurrent-workflows axis.
//!
//! The arrival stream is a pure function of `(ArrivalSpec, cell seed)`
//! and the contention engine folds trials in fixed chunk order, so the
//! per-tenant rows must be bit-identical across thread counts, shard
//! layouts and stage orderings — and a spec that merely *adds* a stream
//! must leave the classic single-workflow rows untouched (the axis is
//! purely additive).

use dagchkpt_bench::campaign::{builtin, run_campaign, RunContext, Stage};
use dagchkpt_bench::{
    run_cell_full, AdmissionPolicy, ArrivalSpec, Campaign, FailureSpec, ObjectiveSpec,
    OptimizerSpec, OutputSpec, Scale, ScenarioSpec, SeedPolicy, SimulatorSpec, StorageSelect,
    StorageSpec, StrategySpec, SweepSpec, TenancySpec, TenantRow, TenantSpec, WorkflowSource,
};
use dagchkpt_core::{CheckpointStrategy, CostRule, LinearizationStrategy};
use dagchkpt_failure::StorageTier;
use std::path::PathBuf;

/// The corpus seed (same as `golden_campaigns.rs`).
const SEED: u64 = 42;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dagchkpt_tenant_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("tmpdir");
    d
}

/// A small contended two-tenant scenario (seconds of work, not minutes).
fn small_spec(name: &str, policy: AdmissionPolicy) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        description: String::new(),
        workflows: vec![WorkflowSource::RandomChain {
            min_weight: 20.0,
            max_weight: 80.0,
            rule: CostRule::ProportionalToWork { ratio: 0.1 },
            default_lambda: 0.0,
        }],
        sizes: vec![10],
        failures: vec![FailureSpec::Exponential {
            lambda: 2e-3,
            downtime: 1.0,
        }],
        strategies: vec![StrategySpec::Heuristic {
            lin: LinearizationStrategy::DepthFirst,
            ckpt: CheckpointStrategy::ByDecreasingWork,
        }],
        simulators: vec![SimulatorSpec::MonteCarlo { trials: 400 }],
        seed: SEED,
        seed_policy: SeedPolicy::LegacyXorN,
        sweep: SweepSpec::Exhaustive,
        platforms: Vec::new(),
        replications: Vec::new(),
        optimizer: OptimizerSpec::Proxy,
        objective: ObjectiveSpec::Mean,
        arrivals: ArrivalSpec::Poisson {
            count: 6,
            mean_gap: 120.0,
        },
        tenancy: TenancySpec {
            tenants: vec![
                TenantSpec {
                    name: "gold".to_string(),
                    weight: 3.0,
                    slo_factor: 2.0,
                },
                TenantSpec {
                    name: "bronze".to_string(),
                    weight: 1.0,
                    slo_factor: 3.0,
                },
            ],
            policy,
        },
        storage: StorageSpec::default(),
    }
}

fn two_stage_campaign() -> Campaign {
    Campaign {
        name: "tenant_det".to_string(),
        description: String::new(),
        stages: vec![
            Stage::Scenario {
                scenario: small_spec("det_fcfs", AdmissionPolicy::Fcfs),
                output: OutputSpec::tenant_rows("det_fcfs.csv"),
            },
            Stage::Scenario {
                scenario: small_spec("det_priority", AdmissionPolicy::Priority),
                output: OutputSpec::tenant_rows("det_priority.csv"),
            },
        ],
    }
}

fn run_into(campaign: &Campaign, tag: &str, shard: Option<(usize, usize)>) -> PathBuf {
    let out = tmpdir(tag);
    let ctx = RunContext {
        charts: false,
        shard,
        ..RunContext::new(&out)
    };
    run_campaign(campaign, &ctx).expect("campaign runs");
    out
}

/// Arrival instants are a pure function of `(spec, seed)`: bitwise
/// reproducible, starting at t = 0, non-decreasing, seed-sensitive, and
/// traces pass through verbatim.
#[test]
fn arrival_streams_are_pure_functions_of_the_seed() {
    let p = ArrivalSpec::Poisson {
        count: 8,
        mean_gap: 120.0,
    };
    let a = p.times(7);
    let b = p.times(7);
    assert_eq!(a.len(), 8);
    assert_eq!(a[0], 0.0, "job 0 arrives at t = 0");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits(), "same seed, same stream");
    }
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
    assert_ne!(p.times(8), a, "different seeds draw different streams");
    let trace = ArrivalSpec::Trace {
        times: vec![0.0, 3.5, 9.25],
    };
    assert_eq!(trace.times(123), vec![0.0, 3.5, 9.25]);
}

/// The contention engine inherits the chunk-folded executor's guarantee:
/// the per-tenant rows are bit-identical under 1 and 4 rayon workers
/// (the vendored executor reads `RAYON_NUM_THREADS` at every dispatch,
/// so this exercises real pool-size changes in-process).
#[test]
fn tenant_rows_are_bit_identical_across_thread_counts() {
    use dagchkpt_bench::run_cell_full;
    let spec = small_spec("det_threads", AdmissionPolicy::FairShare);
    let plans = spec.expand().unwrap();
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    let runs: Vec<String> = ["1", "4"]
        .iter()
        .map(|n| {
            std::env::set_var("RAYON_NUM_THREADS", n);
            let exec = run_cell_full(&spec, &plans[0]).unwrap();
            assert!(!exec.tenants.is_empty(), "stream must produce tenant rows");
            serde_json::to_string(&exec.tenants).unwrap()
        })
        .collect();
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    assert_eq!(runs[0], runs[1], "tenant rows moved with the thread count");
}

/// Cell seeds do not depend on the shard layout or the stage order, so
/// shard outputs concatenate to exactly the unsharded tenant rows and a
/// reordered campaign reproduces every file byte-for-byte.
#[test]
fn tenant_rows_are_invariant_under_sharding_and_stage_reordering() {
    let campaign = two_stage_campaign();
    let whole = run_into(&campaign, "whole", None);

    // Concatenating the two shards' rows reproduces the unsharded file.
    let s0 = run_into(&campaign, "shard0", Some((0, 2)));
    let s1 = run_into(&campaign, "shard1", Some((1, 2)));
    for file in ["det_fcfs.csv", "det_priority.csv"] {
        let full = std::fs::read_to_string(whole.join(file)).unwrap();
        let stem = file.strip_suffix(".csv").unwrap();
        let mut merged: Vec<String> = Vec::new();
        for (dir, tag) in [(&s0, "shard0of2"), (&s1, "shard1of2")] {
            let text = std::fs::read_to_string(dir.join(format!("{stem}.{tag}.csv"))).unwrap();
            merged.extend(text.lines().skip(1).map(str::to_string));
        }
        // This scenario has one cell, so rows need no index re-sort.
        let want: Vec<String> = full.lines().skip(1).map(str::to_string).collect();
        assert_eq!(merged, want, "{file}: shards must concatenate losslessly");
    }

    // A reversed campaign writes byte-identical files.
    let mut reversed = two_stage_campaign();
    reversed.stages.reverse();
    let rev = run_into(&reversed, "reversed", None);
    for file in ["det_fcfs.csv", "det_priority.csv"] {
        assert_eq!(
            std::fs::read(whole.join(file)).unwrap(),
            std::fs::read(rev.join(file)).unwrap(),
            "{file}: stage order must not leak into the rows"
        );
    }
    for d in [whole, s0, s1, rev] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The axis is purely additive: grafting a degenerate single-tenant
/// arrival stream onto an existing Monte-Carlo campaign reproduces its
/// classic single-workflow golden rows byte-for-byte (the stream runs,
/// but the per-cell rows never see it).
#[test]
fn degenerate_stream_reproduces_single_workflow_golden_rows() {
    let mut campaign = builtin("tail_latency", Scale::Quick, SEED).expect("builtin");
    for stage in &mut campaign.stages {
        if let Stage::Scenario { scenario, .. } = stage {
            scenario.arrivals = ArrivalSpec::Poisson {
                count: 2,
                mean_gap: 1e6,
            };
            // tenancy stays default: one implicit unweighted tenant.
        }
    }
    let out = run_into(&campaign, "degenerate", None);
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick");
    for file in ["tail_latency_mean.csv", "tail_latency_p99.csv"] {
        let got = std::fs::read(out.join(file)).unwrap();
        let want = std::fs::read(golden.join(file)).unwrap();
        assert_eq!(
            got, want,
            "{file}: a degenerate arrival stream must not move the classic rows"
        );
    }
    let _ = std::fs::remove_dir_all(out);
}

/// The tenant engine prices storage tiers through the same tier-priced
/// workflow copy as the other Monte-Carlo engines. On the contended
/// `multi_tenant` cell, a unit tier (every factor 1) reproduces the
/// storage-free tenant rows byte for byte, and a slow-write tier makes
/// every `CkptAlws` job respond later.
#[test]
fn storage_tiers_price_the_tenant_engine() {
    let campaign = builtin("multi_tenant", Scale::Quick, SEED).expect("builtin");
    let Stage::Scenario { scenario, .. } = &campaign.stages[1] else {
        panic!("multi_tenant stages are scenarios");
    };
    let tenants_with = |write_bw: f64| -> Vec<TenantRow> {
        let spec = ScenarioSpec {
            storage: StorageSpec::Tiers {
                tiers: vec![StorageTier {
                    name: "t".to_string(),
                    write_bw,
                    read_bw: 1.0,
                    compression: 1.0,
                    contention: 0.0,
                }],
                select: StorageSelect::Best,
            },
            ..scenario.clone()
        };
        let plans = spec.expand().expect("storage composes with arrivals");
        run_cell_full(&spec, &plans[0]).expect("cell runs").tenants
    };
    let plain = {
        let plans = scenario.expand().unwrap();
        run_cell_full(scenario, &plans[0]).unwrap().tenants
    };
    assert!(!plain.is_empty());
    assert_eq!(
        format!("{:?}", tenants_with(1.0)),
        format!("{plain:?}"),
        "a unit tier must not move the tenant rows"
    );
    let slow = tenants_with(0.25);
    let mut checked = 0;
    for (s, p) in slow.iter().zip(&plain) {
        assert_eq!((&s.strategy, &s.tenant), (&p.strategy, &p.tenant));
        if s.strategy.ends_with("CkptAlws") {
            assert!(
                s.mean_response > p.mean_response,
                "{}: slow writes {} vs {}",
                s.tenant,
                s.mean_response,
                p.mean_response
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no CkptAlws tenant rows");
}

/// The tenant engine replays each strategy's chosen schedule, whichever
/// optimizer chose it. Without `platforms` the `replication_aware` and
/// `joint` optimizers fall back to the proxy, so the contended
/// `multi_tenant` cell reproduces the proxy tenant rows byte for byte; on
/// the builtin's `Uniform{2}` platform they run with finite metrics.
#[test]
fn non_proxy_optimizers_drive_the_tenant_engine() {
    let campaign = builtin("multi_tenant", Scale::Quick, SEED).expect("builtin");
    let Stage::Scenario { scenario, .. } = &campaign.stages[1] else {
        panic!("multi_tenant stages are scenarios");
    };
    let tenants = |spec: &ScenarioSpec| -> Vec<TenantRow> {
        let plans = spec.expand().expect("optimizers compose with arrivals");
        run_cell_full(spec, &plans[0]).expect("cell runs").tenants
    };
    let bare = |optimizer: OptimizerSpec| ScenarioSpec {
        platforms: Vec::new(),
        optimizer,
        ..scenario.clone()
    };
    let proxy = format!("{:?}", tenants(&bare(OptimizerSpec::Proxy)));
    for optimizer in [OptimizerSpec::ReplicationAware, OptimizerSpec::Joint] {
        assert_eq!(
            format!("{:?}", tenants(&bare(optimizer))),
            proxy,
            "{}",
            optimizer.label()
        );
        let rows = tenants(&ScenarioSpec {
            optimizer,
            ..scenario.clone()
        });
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.jobs > 0, "{}: {r:?}", optimizer.label());
            for v in [
                r.slo_rate,
                r.mean_response,
                r.mean_slowdown,
                r.p50_response,
                r.p95_response,
                r.p99_response,
            ] {
                assert!(v.is_finite(), "{}: {r:?}", optimizer.label());
            }
        }
    }
}
