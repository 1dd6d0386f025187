//! Serialization round trips across crates: workflow specs, schedules, and
//! the evaluator's invariance under them.

use dagchkpt::prelude::*;
use dagchkpt::workflows::WorkflowSpec;

#[test]
fn workflow_spec_preserves_evaluation_exactly() {
    for kind in PegasusKind::ALL {
        let wf = kind.generate(50, CostRule::ProportionalToWork { ratio: 0.1 }, 13);
        let model = FaultModel::new(kind.default_lambda(), 0.0);
        let h = Heuristic {
            lin: LinearizationStrategy::DepthFirst,
            ckpt: CheckpointStrategy::ByDecreasingWork,
        };
        let r = run_heuristic(&wf, model, h, SweepPolicy::Exhaustive);

        let json = WorkflowSpec::from_workflow(&wf, None).to_json();
        let wf2 = WorkflowSpec::from_json(&json).unwrap().build().unwrap();
        assert_eq!(wf2, wf, "{kind}");
        let e2 = expected_makespan(&wf2, model, &r.schedule);
        assert_eq!(e2, r.expected_makespan, "{kind}: evaluation changed");
    }
}

#[test]
fn schedule_serializes_with_serde() {
    let wf = PegasusKind::Montage.generate(50, CostRule::Constant { value: 2.0 }, 3);
    let order = dagchkpt::core::linearize(&wf, LinearizationStrategy::DepthFirst);
    let s =
        Schedule::new(&wf, order, FixedBitSet::from_indices(50, [0usize, 7, 13])).expect("valid");
    let json = serde_json::to_string(&s).unwrap();
    let back: Schedule = serde_json::from_str(&json).unwrap();
    assert_eq!(back, s);
    assert_eq!(back.n_checkpoints(), 3);
}

/// Satellite fix: an empty `Stats` has `min = +inf` / `max = −inf`, which
/// JSON cannot express — the manual serde impls write those sentinels as
/// `null` and restore them, so every accumulator state survives the text
/// round trip bit-exactly.
#[test]
fn stats_survive_json_roundtrip_including_empty_and_singleton() {
    use dagchkpt::sim::Stats;
    let mut single = Stats::new();
    single.push(-3.25);
    let mut many = Stats::new();
    for x in [2.0, 4.0, 4.0, 5.0, 9.0] {
        many.push(x);
    }
    for (name, s) in [("empty", Stats::new()), ("single", single), ("many", many)] {
        let json = serde_json::to_string(&s).unwrap();
        let back: Stats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s, "{name} failed round trip via {json}");
        assert_eq!(back.n(), s.n());
        assert_eq!(back.min().to_bits(), s.min().to_bits());
        assert_eq!(back.max().to_bits(), s.max().to_bits());
    }
    // The empty sentinels really are serialized as null, not rejected.
    assert!(serde_json::to_string(&Stats::new())
        .unwrap()
        .contains("\"min\":null"));
}

#[test]
fn dag_spec_json_is_stable_for_fixture() {
    let dag = dagchkpt::dag::generators::paper_figure1();
    let spec = dagchkpt::dag::io::DagSpec::from(&dag);
    let json = spec.to_json();
    let parsed = dagchkpt::dag::io::DagSpec::from_json(&json).unwrap();
    assert_eq!(parsed.build().unwrap(), dag);
    assert_eq!(parsed.n, 8);
    assert_eq!(parsed.edges.len(), 8);
}

/// The storage axis's tiers are `dagchkpt_failure::StorageTier` itself.
/// Its serde form must keep the canonical JSON, and so the spec hash and
/// the serve cache key, of every committed storage spec. The example's
/// stages use `LegacyXorN` seeds, so its golden outputs alone would not
/// notice a hash change.
#[test]
fn storage_tiers_example_canonical_json_and_hash_are_pinned() {
    use dagchkpt_bench::{Campaign, Stage};
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/campaigns/storage_tiers.json");
    let campaign = Campaign::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Stage::Scenario { scenario, .. } = &campaign.stages[0] else {
        panic!("the first stage is a scenario");
    };
    assert_eq!(
        scenario.to_json(),
        r#"{"name":"storage_example_best","description":"per-strategy best uniform tier over the hierarchy","workflows":[{"RandomChain":{"min_weight":20.0,"max_weight":80.0,"rule":{"ProportionalToWork":{"ratio":0.3}},"default_lambda":0.0}}],"sizes":[10],"failures":[{"Exponential":{"lambda":0.004,"downtime":5.0}}],"strategies":["WorkAndCost",{"Heuristic":{"lin":"DepthFirst","ckpt":"Always"}},{"Heuristic":{"lin":"DepthFirst","ckpt":"ByDecreasingWork"}}],"simulators":["Analytic",{"MonteCarlo":{"trials":1000}}],"seed":42,"seed_policy":"LegacyXorN","sweep":"Exhaustive","platforms":[],"replications":[],"storage":{"Tiers":{"tiers":[{"name":"local","write_bw":4.0,"read_bw":0.5,"compression":1.0,"contention":0.0},{"name":"bb","write_bw":1.5,"read_bw":1.5,"compression":0.7,"contention":0.2},{"name":"pfs","write_bw":0.5,"read_bw":4.0,"compression":1.0,"contention":0.5}],"select":"Best"}}}"#
    );
    assert_eq!(scenario.stable_hash(), 0x3439_06cc_a5a7_7086);
}

/// A tier that omits `contention` parses with no contention.
#[test]
fn storage_tier_without_contention_parses_as_zero() {
    let spec: dagchkpt_bench::StorageSpec = serde_json::from_str(
        r#"{"Tiers":{"tiers":[{"name":"pfs","write_bw":0.5,"read_bw":4.0,"compression":1.0}]}}"#,
    )
    .unwrap();
    let dagchkpt_bench::StorageSpec::Tiers { tiers, .. } = spec else {
        panic!("a tier list parses as the Tiers arm");
    };
    assert_eq!(tiers.len(), 1);
    assert_eq!(tiers[0].contention.to_bits(), 0.0f64.to_bits());
}
