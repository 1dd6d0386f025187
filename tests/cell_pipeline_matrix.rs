//! Pins every arm of the cell pipeline — optimizer × storage selection ×
//! platform — on one small instance, byte for byte.
//!
//! The built-in campaigns cover only a few optimizer/storage pairings;
//! this matrix runs the `storage_tiers` fork-join under every optimizer
//! (`proxy`, `replication_aware`, `joint`) × storage axis (off, fixed
//! `pfs`, best uniform tier, per-task tiers) × platform (`Uniform{1}` —
//! the degenerate single reference machine —, `Uniform{2}`, and
//! `Spread{3,2,4}`) with uniform degree-2 replication, through the
//! analytic column and both Monte-Carlo engines. Every float is rendered
//! in shortest round-trip form, so a single flipped bit in any arm shows.
//! Combinations `validate()` rejects are skipped. Without `platforms`,
//! every arm matches its `Uniform{1}` cell (the implicit reference
//! machine).
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test cell_pipeline_matrix
//! ```
//!
//! then review the diff like any other code change.

use dagchkpt::core::{CheckpointStrategy, LinearizationStrategy};
use dagchkpt_bench::campaign::Stage;
use dagchkpt_bench::studies::storage_tiers_campaign;
use dagchkpt_bench::{
    run_cell_full, OptimizerSpec, PlatformSpec, ReplicationSpec, Scale, ScenarioSpec,
    SimulatorSpec, StorageSelect, StorageSpec, StrategySpec,
};
use std::path::Path;

const SEED: u64 = 42;
const TRIALS: usize = 500;

/// The `storage_tiers` campaign's scenario (fork-join, two tiers).
fn base() -> ScenarioSpec {
    let campaign = storage_tiers_campaign(Scale::Quick, SEED);
    match &campaign.stages[0] {
        Stage::Scenario { scenario, .. } => scenario.clone(),
        other => panic!("unexpected first stage {other:?}"),
    }
}

fn heuristic(ckpt: CheckpointStrategy) -> StrategySpec {
    StrategySpec::Heuristic {
        lin: LinearizationStrategy::DepthFirst,
        ckpt,
    }
}

/// `base` with `storage` swapped for the given selection (`None` = off).
fn with_storage(base: &ScenarioSpec, select: Option<StorageSelect>) -> StorageSpec {
    let StorageSpec::Tiers { tiers, .. } = &base.storage else {
        panic!("the storage_tiers scenario carries a hierarchy");
    };
    match select {
        None => StorageSpec::Off,
        Some(select) => StorageSpec::Tiers {
            tiers: tiers.clone(),
            select,
        },
    }
}

fn sets(v: &[Vec<usize>]) -> String {
    v.iter()
        .map(|s| {
            s.iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("|")
}

fn list(v: &[usize]) -> String {
    v.iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn opt_n(n: Option<usize>) -> String {
    n.map_or_else(String::new, |n| n.to_string())
}

const OPTIMIZERS: [OptimizerSpec; 3] = [
    OptimizerSpec::Proxy,
    OptimizerSpec::ReplicationAware,
    OptimizerSpec::Joint,
];

/// The storage arms: a tag plus the selection (`None` = off).
fn storages() -> [(&'static str, Option<StorageSelect>); 4] {
    [
        ("off", None),
        (
            "fixed-pfs",
            Some(StorageSelect::Fixed {
                tier: "pfs".to_string(),
            }),
        ),
        ("best", Some(StorageSelect::Best)),
        ("per-task", Some(StorageSelect::PerTask)),
    ]
}

/// The platform arms: the degenerate single reference machine, two
/// reference processors, and a heterogeneous spread.
fn platforms() -> Vec<PlatformSpec> {
    vec![
        PlatformSpec::Uniform { count: 1 },
        PlatformSpec::Uniform { count: 2 },
        PlatformSpec::Spread {
            count: 3,
            speed_spread: 2.0,
            rate_spread: 4.0,
        },
    ]
}

/// The spec of one optimizer × storage arm on the given platforms, with
/// uniform degree-2 replication when there are platforms.
fn arm_spec(
    base: &ScenarioSpec,
    optimizer: OptimizerSpec,
    storage_tag: &str,
    select: Option<StorageSelect>,
    platforms: Vec<PlatformSpec>,
) -> ScenarioSpec {
    let mut strategies = vec![
        heuristic(CheckpointStrategy::Always),
        heuristic(CheckpointStrategy::ByDecreasingWork),
    ];
    if optimizer == OptimizerSpec::Proxy {
        strategies.push(StrategySpec::Young);
    }
    let replications = if platforms.is_empty() {
        Vec::new()
    } else {
        vec![ReplicationSpec::Uniform { degree: 2 }]
    };
    ScenarioSpec {
        name: format!("pipeline_matrix_{}_{storage_tag}", optimizer.label()),
        strategies,
        simulators: vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials: TRIALS },
            SimulatorSpec::NonBlocking {
                trials: TRIALS,
                compute_rate: 0.8,
            },
        ],
        platforms,
        replications,
        optimizer,
        storage: with_storage(base, select),
        ..base.clone()
    }
}

/// Every cell of `spec`, rendered as table lines tagged with `arm`.
fn render_spec(spec: &ScenarioSpec, arm: &str) -> String {
    let mut out = String::new();
    for plan in spec.expand().expect("validated") {
        let exec = run_cell_full(spec, &plan).expect("cell runs");
        let platform = plan
            .platform
            .as_ref()
            .map_or_else(String::new, |p| p.label());
        for r in &exec.rows {
            out.push_str(&format!(
                "row,{arm},{},{platform},{},{},{:?},{},{:?},{:?},{:?},{:?},{:?},{:?},{}\n",
                r.cell,
                r.strategy,
                r.simulator,
                r.expected,
                opt_n(r.best_n),
                r.mc_mean,
                r.mc_sem,
                r.z,
                r.mc_p50,
                r.mc_p95,
                r.mc_p99,
                r.storage,
            ));
        }
        for s in &exec.schedules {
            out.push_str(&format!(
                "schedule,{arm},{},{platform},{},{:?},{},{},{},{},{}\n",
                plan.index,
                s.strategy,
                s.expected,
                opt_n(s.best_n),
                list(&s.checkpoints),
                s.replica_sets.as_deref().map_or_else(String::new, sets),
                s.tiers.as_deref().map_or_else(String::new, list),
                s.storage.clone().unwrap_or_default(),
            ));
        }
    }
    out
}

/// Every arm of the matrix, rendered as one text table.
fn render() -> String {
    let base = base();
    let mut out = String::from(
        "# row: arm,cell,platform,strategy,simulator,expected,best_n,mc_mean,mc_sem,z,\
         mc_p50,mc_p95,mc_p99,storage\n\
         # schedule: arm,cell,platform,strategy,expected,best_n,checkpoints,replica_sets,\
         tiers,storage\n",
    );
    for optimizer in OPTIMIZERS {
        for (storage_tag, select) in storages() {
            let spec = arm_spec(&base, optimizer, storage_tag, select, platforms());
            if spec.validate().is_err() {
                continue;
            }
            let arm = format!("{}/{storage_tag}", optimizer.label());
            out.push_str(&render_spec(&spec, &arm));
        }
    }
    out
}

#[test]
fn pipeline_matrix_is_pinned() {
    let got = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pipeline_matrix.csv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} (run with UPDATE_GOLDEN=1 to create): {e}",
            path.display()
        )
    });
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "pipeline matrix differs from {} at line {} (got {} lines, want {}).\n\
             got:  {:?}\nwant: {:?}\n\
             If the change is intentional, regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test cell_pipeline_matrix` and review the diff.",
            path.display(),
            first + 1,
            got.lines().count(),
            want.lines().count(),
            got.lines().nth(first),
            want.lines().nth(first),
        );
    }
}

/// Per-task tier selection on the degenerate single reference machine
/// rebuilds that machine for the storage-aware evaluator; it must keep
/// the cell's downtime. A uniform per-task outcome then prices exactly
/// like the same fixed tier, and the Monte-Carlo engine (which always
/// paid the downtime) agrees with the analytic column.
#[test]
fn degenerate_per_task_keeps_the_cell_downtime() {
    let base = base();
    let spec_for = |select: StorageSelect| ScenarioSpec {
        name: "degenerate_per_task".to_string(),
        simulators: vec![SimulatorSpec::MonteCarlo { trials: 20_000 }],
        platforms: vec![PlatformSpec::Uniform { count: 1 }],
        storage: with_storage(&base, Some(select)),
        ..base.clone()
    };
    let run = |spec: &ScenarioSpec| {
        let plans = spec.expand().expect("valid spec");
        assert_eq!(plans.len(), 1);
        run_cell_full(spec, &plans[0]).expect("cell runs")
    };
    let per_task = run(&spec_for(StorageSelect::PerTask));
    for r in &per_task.rows {
        assert!(r.z.abs() < 4.0, "{}: z = {} ({r:?})", r.strategy, r.z);
    }
    let mut uniform = 0;
    for s in &per_task.schedules {
        let tiers = s.tiers.as_ref().expect("storage axis carries tiers");
        if tiers.iter().any(|&t| t != tiers[0]) {
            continue;
        }
        uniform += 1;
        let tier = s.storage.clone().expect("storage label");
        let fixed = run(&spec_for(StorageSelect::Fixed { tier }));
        let f = fixed
            .schedules
            .iter()
            .find(|f| f.strategy == s.strategy)
            .expect("same strategy under the fixed tier");
        let rel = (s.expected - f.expected).abs() / f.expected;
        assert!(
            rel <= 1e-12,
            "{}: per-task {} vs fixed {} (rel {rel:e})",
            s.strategy,
            s.expected,
            f.expected
        );
    }
    assert!(
        uniform > 0,
        "no strategy landed on a uniform tier assignment"
    );
}

/// A cell without `platforms` runs on the implicit reference machine: for
/// every optimizer × storage arm, a spec with neither platforms nor
/// replications renders exactly the `Uniform{1}` arm (whose degree-2
/// replication clamps to the one processor), platform label blanked.
#[test]
fn no_platform_arms_match_the_reference_machine() {
    let base = base();
    for optimizer in OPTIMIZERS {
        for (storage_tag, select) in storages() {
            let arm = format!("{}/{storage_tag}", optimizer.label());
            let bare = arm_spec(&base, optimizer, storage_tag, select.clone(), Vec::new());
            bare.validate()
                .unwrap_or_else(|e| panic!("{arm}: a spec without platforms is valid: {e}"));
            let single = vec![PlatformSpec::Uniform { count: 1 }];
            let reference = arm_spec(&base, optimizer, storage_tag, select, single);
            let want = render_spec(&reference, &arm).replace(",0,p1,", ",0,,");
            assert!(!want.is_empty());
            assert_eq!(render_spec(&bare, &arm), want, "{arm}");
        }
    }
}

/// Closed-form strategies (Young, Daly) have no budget to sweep, so the
/// `replication_aware` and `joint` optimizers leave them on the proxy
/// path, priced on the cell's platform and replica sets: on every storage
/// × platform arm they render exactly their proxy rows.
#[test]
fn closed_forms_under_every_optimizer_match_their_proxy_rows() {
    let base = base();
    for (storage_tag, select) in storages() {
        let render_under = |optimizer: OptimizerSpec| {
            let spec = ScenarioSpec {
                strategies: vec![StrategySpec::Young, StrategySpec::Daly],
                ..arm_spec(&base, optimizer, storage_tag, select.clone(), platforms())
            };
            spec.validate()
                .unwrap_or_else(|e| panic!("{}/{storage_tag}: {e}", optimizer.label()));
            render_spec(&spec, storage_tag)
        };
        let proxy = render_under(OptimizerSpec::Proxy);
        assert!(proxy.contains("Young") && proxy.contains("Daly"));
        for optimizer in [OptimizerSpec::ReplicationAware, OptimizerSpec::Joint] {
            assert_eq!(
                render_under(optimizer),
                proxy,
                "{}/{storage_tag}",
                optimizer.label()
            );
        }
    }
}
