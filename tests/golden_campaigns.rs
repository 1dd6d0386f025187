//! Golden regression corpus: every built-in campaign re-run at `--quick`
//! scale with the pinned seed must emit **byte-identical** CSV to the
//! checked-in expectations under `tests/golden/quick/` (which were
//! generated by the pre-refactor one-binary-per-figure harness — this is
//! the proof that the declarative campaign engine reproduces it exactly).
//!
//! The corpus deliberately excludes `ablation_evaluator.csv`: that file
//! records wall-clock milliseconds and is nondeterministic by nature
//! (`ablation_priority.csv`, the deterministic half of the study, is
//! pinned).
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_campaigns
//! ```
//!
//! then review the diff like any other code change.

use dagchkpt_bench::campaign::{builtin, run_campaign, RunContext, Stage, StudyKind};
use dagchkpt_bench::Scale;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The pinned seed of the corpus.
const SEED: u64 = 42;

/// Every built-in campaign with its own corpus entry (`sweep_all` is a
/// concatenation of the others and adds no new files).
const CAMPAIGNS: &[&str] = &[
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "validate",
    "optgap",
    "ablation",
    "weibull",
    "nonblocking",
    "extensions",
    "hetero_replication",
    "replication_aware",
    "tail_latency",
    "multi_tenant",
    "storage_tiers",
];

/// Files excluded from the corpus (wall-clock measurements).
const NONDETERMINISTIC: &[&str] = &["ablation_evaluator.csv"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick")
}

/// Output file names a campaign produces, straight from its stage specs
/// (no execution needed).
fn campaign_files(name: &str) -> Vec<String> {
    let c = builtin(name, Scale::Quick, SEED).expect("builtin");
    let mut files = Vec::new();
    for stage in &c.stages {
        match stage {
            Stage::Scenario { output, .. } => {
                files.push(output.file.clone());
                if !output.best_file.is_empty() {
                    files.push(output.best_file.clone());
                }
            }
            Stage::Study { which, .. } => match which {
                StudyKind::Optgap => files.push("optgap.csv".to_string()),
                StudyKind::Ablation => files.extend([
                    "ablation_evaluator.csv".to_string(),
                    "ablation_priority.csv".to_string(),
                ]),
                StudyKind::Extensions => files.push("extensions.csv".to_string()),
            },
        }
    }
    files
}

/// Runs `name` at quick scale into a temp dir and diffs (or, with
/// `UPDATE_GOLDEN=1`, refreshes) its corpus files byte-for-byte.
fn check_campaign(name: &str) {
    let out = std::env::temp_dir().join(format!("dagchkpt_golden_{name}"));
    std::fs::remove_dir_all(&out).ok();
    let campaign = builtin(name, Scale::Quick, SEED).expect("builtin");
    let ctx = RunContext {
        charts: false,
        ..RunContext::new(&out)
    };
    run_campaign(&campaign, &ctx).unwrap_or_else(|e| panic!("running {name}: {e}"));

    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let golden = golden_dir();
    for file in campaign_files(name) {
        if NONDETERMINISTIC.contains(&file.as_str()) {
            continue;
        }
        let produced = out.join(&file);
        let pinned = golden.join(&file);
        let got = std::fs::read(&produced)
            .unwrap_or_else(|e| panic!("{name} did not produce {}: {e}", produced.display()));
        if update {
            std::fs::create_dir_all(&golden).unwrap();
            std::fs::write(&pinned, &got).unwrap();
            continue;
        }
        let want = std::fs::read(&pinned).unwrap_or_else(|e| {
            panic!(
                "missing golden {} (run with UPDATE_GOLDEN=1 to create): {e}",
                pinned.display()
            )
        });
        assert!(
            got == want,
            "{name}: {} differs from the golden corpus.\n\
             If the change is intentional, regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test golden_campaigns` and review the diff.",
            file
        );
    }
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn golden_fig2() {
    check_campaign("fig2");
}

#[test]
fn golden_fig3() {
    check_campaign("fig3");
}

#[test]
fn golden_fig4() {
    check_campaign("fig4");
}

#[test]
fn golden_fig5() {
    check_campaign("fig5");
}

#[test]
fn golden_fig6() {
    check_campaign("fig6");
}

#[test]
fn golden_fig7() {
    check_campaign("fig7");
}

#[test]
fn golden_validate() {
    check_campaign("validate");
}

#[test]
fn golden_optgap() {
    check_campaign("optgap");
}

#[test]
fn golden_ablation() {
    check_campaign("ablation");
}

#[test]
fn golden_weibull() {
    check_campaign("weibull");
}

#[test]
fn golden_nonblocking() {
    check_campaign("nonblocking");
}

#[test]
fn golden_extensions() {
    check_campaign("extensions");
}

#[test]
fn golden_hetero_replication() {
    check_campaign("hetero_replication");
}

#[test]
fn golden_replication_aware() {
    check_campaign("replication_aware");
}

#[test]
fn golden_tail_latency() {
    check_campaign("tail_latency");
}

#[test]
fn golden_multi_tenant() {
    check_campaign("multi_tenant");
}

#[test]
fn golden_storage_tiers() {
    check_campaign("storage_tiers");
}

/// The acceptance anchor of the platform axis: a figure campaign forced
/// onto a degenerate single-processor platform with degree-1 replication
/// emits **byte-identical** CSV to the existing homogeneous golden corpus.
#[test]
fn degenerate_platform_reproduces_homogeneous_golden_csvs() {
    use dagchkpt_bench::{PlatformSpec, ReplicationSpec};
    let out = std::env::temp_dir().join("dagchkpt_golden_degenerate");
    std::fs::remove_dir_all(&out).ok();
    let mut campaign = builtin("fig2", Scale::Quick, SEED).expect("builtin");
    for stage in &mut campaign.stages {
        if let Stage::Scenario { scenario, .. } = stage {
            scenario.platforms = vec![PlatformSpec::Uniform { count: 1 }];
            scenario.replications = vec![ReplicationSpec::Uniform { degree: 1 }];
        }
    }
    let ctx = RunContext {
        charts: false,
        ..RunContext::new(&out)
    };
    run_campaign(&campaign, &ctx).unwrap();
    for file in campaign_files("fig2") {
        let got = std::fs::read(out.join(&file)).unwrap();
        let want = std::fs::read(golden_dir().join(&file)).unwrap();
        assert!(
            got == want,
            "{file}: degenerate platform must reproduce the homogeneous golden CSV byte-for-byte"
        );
    }
    std::fs::remove_dir_all(&out).ok();
}

/// The storage-axis twin of the degenerate-platform proof: a hierarchy
/// whose single tier is the **unit tier** (bandwidths 1, compression 1,
/// contention 0) scales every checkpoint and recovery cost by exactly
/// `1.0` — an IEEE-754 identity — so the whole pipeline (tier argmin,
/// analytic evaluator, Monte-Carlo engines, CSV formatting) must
/// reproduce the storage-free fig2 golden CSVs byte for byte.
#[test]
fn unit_tier_storage_reproduces_homogeneous_golden_csvs() {
    use dagchkpt_bench::{StorageSelect, StorageSpec};
    use dagchkpt_failure::StorageTier;
    let out = std::env::temp_dir().join("dagchkpt_golden_unit_tier");
    std::fs::remove_dir_all(&out).ok();
    let mut campaign = builtin("fig2", Scale::Quick, SEED).expect("builtin");
    for stage in &mut campaign.stages {
        if let Stage::Scenario { scenario, .. } = stage {
            scenario.storage = StorageSpec::Tiers {
                tiers: vec![StorageTier::unit("unit")],
                select: StorageSelect::Best,
            };
        }
    }
    let ctx = RunContext {
        charts: false,
        ..RunContext::new(&out)
    };
    run_campaign(&campaign, &ctx).unwrap();
    for file in campaign_files("fig2") {
        let got = std::fs::read(out.join(&file)).unwrap();
        let want = std::fs::read(golden_dir().join(&file)).unwrap();
        assert!(
            got == want,
            "{file}: a unit storage tier must reproduce the storage-free golden CSV byte-for-byte"
        );
    }
    std::fs::remove_dir_all(&out).ok();
}

/// Every file in the corpus belongs to exactly one campaign, and every
/// campaign file (minus the nondeterministic exclusions) is pinned — no
/// strays in either direction.
#[test]
fn corpus_covers_exactly_the_campaign_outputs() {
    let mut expected: BTreeSet<String> = BTreeSet::new();
    for name in CAMPAIGNS {
        for f in campaign_files(name) {
            if !NONDETERMINISTIC.contains(&f.as_str()) {
                assert!(expected.insert(f.clone()), "{f} produced by two campaigns");
            }
        }
    }
    let mut pinned: BTreeSet<String> = BTreeSet::new();
    for entry in std::fs::read_dir(golden_dir()).expect("golden corpus exists") {
        pinned.insert(entry.unwrap().file_name().to_string_lossy().to_string());
    }
    assert_eq!(expected, pinned, "corpus and campaign outputs disagree");
}
