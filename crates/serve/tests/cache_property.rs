//! Properties of the shared cross-request answer cache:
//!
//! * concurrent clients racing on the same cells get answers
//!   bit-identical to a cold cache;
//! * eviction under a tiny capacity bound can cost recomputation but can
//!   never change an answer;
//! * every valid cell lookup is accounted as exactly one hit or miss.

use dagchkpt_bench::{
    cell_csv_rows, run_cell_full, FailureSpec, OutputFormat, ScenarioSpec, SimulatorSpec,
    StrategySpec, SweepSpec, WorkflowSource,
};
use dagchkpt_core::{CheckpointStrategy, CostRule, LinearizationStrategy};
use dagchkpt_serve::loadgen::Client;
use dagchkpt_serve::protocol::{Request, Response};
use dagchkpt_serve::Server;
use proptest::prelude::*;

fn start_server(workers: usize, capacity: usize) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", workers, capacity).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

fn stop_server(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut c = Client::connect(addr).expect("connect");
    assert!(matches!(c.call(&Request::Shutdown), Ok(Response::Bye)));
    handle.join().expect("server thread");
}

/// A cheap analytic-only scenario expanding to `sizes.len()` cells.
fn spec_with(seed: u64, sizes: Vec<usize>) -> ScenarioSpec {
    ScenarioSpec {
        name: "cache_prop".to_string(),
        description: String::new(),
        workflows: vec![WorkflowSource::RandomChain {
            min_weight: 5.0,
            max_weight: 20.0,
            rule: CostRule::Constant { value: 1.0 },
            default_lambda: 0.0,
        }],
        sizes,
        failures: vec![FailureSpec::Exponential {
            lambda: 1e-3,
            downtime: 0.0,
        }],
        strategies: vec![StrategySpec::Heuristic {
            lin: LinearizationStrategy::DepthFirst,
            ckpt: CheckpointStrategy::ByDecreasingWork,
        }],
        simulators: vec![SimulatorSpec::Analytic],
        seed,
        seed_policy: Default::default(),
        sweep: SweepSpec::Exhaustive,
        platforms: Vec::new(),
        replications: Vec::new(),
        optimizer: Default::default(),
        objective: Default::default(),
        arrivals: Default::default(),
        tenancy: Default::default(),
        storage: Default::default(),
    }
}

/// The reference answers, computed without any daemon.
fn reference_rows(spec: &ScenarioSpec) -> Vec<Vec<Vec<String>>> {
    spec.expand()
        .unwrap()
        .iter()
        .map(|plan| cell_csv_rows(OutputFormat::Rows, &run_cell_full(spec, plan).unwrap().rows))
        .collect()
}

fn fetch_rows(client: &mut Client, spec: &ScenarioSpec, cell: usize) -> Vec<Vec<String>> {
    match client
        .call(&Request::Cell {
            spec: spec.clone(),
            cell,
            format: OutputFormat::Rows,
        })
        .unwrap()
    {
        Response::Cell { rows, .. } => rows,
        other => panic!("cell {cell}: {other:?}"),
    }
}

#[test]
fn concurrent_requests_are_bit_identical_to_a_cold_cache() {
    let spec = spec_with(5, vec![6, 8, 10, 12]);
    let expected = reference_rows(&spec);
    let (addr, handle) = start_server(4, 64);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let spec = &spec;
            let expected = &expected;
            let addr = addr.as_str();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Two passes: the first races the other clients on cold
                // keys, the second is all hits — both must match the
                // no-daemon reference bit for bit.
                for _ in 0..2 {
                    for (cell, want) in expected.iter().enumerate() {
                        assert_eq!(&fetch_rows(&mut client, spec, cell), want);
                    }
                }
            });
        }
    });
    stop_server(&addr, handle);
}

#[test]
fn hits_and_misses_account_for_every_valid_cell_request() {
    let spec = spec_with(9, vec![6, 8]);
    let (addr, handle) = start_server(1, 16);
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..3 {
        for cell in 0..2 {
            fetch_rows(&mut client, &spec, cell);
        }
    }
    // An invalid request must not perturb the cache counters.
    let resp = client
        .call(&Request::Cell {
            spec: spec.clone(),
            cell: 999,
            format: OutputFormat::Rows,
        })
        .unwrap();
    assert!(matches!(resp, Response::Error { .. }));
    match client.call(&Request::Stats).unwrap() {
        Response::Stats {
            hits,
            misses,
            entries,
            ..
        } => {
            assert_eq!(misses, 2, "one miss per distinct cell");
            assert_eq!(hits, 4, "every repeat is a hit");
            assert_eq!(entries, 2);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    stop_server(&addr, handle);
}

/// The daemon looks a cell up before it expands the scenario; each kind
/// of request still moves the counters exactly as a lookup after the
/// range check did: a hit counts one hit, a miss one miss, and an
/// out-of-range cell neither — also when the spec has cached cells.
#[test]
fn each_request_kind_moves_the_counters_as_before() {
    let spec = spec_with(13, vec![6, 8]);
    let (addr, handle) = start_server(1, 16);
    let mut client = Client::connect(&addr).expect("connect");
    let mut counts = |request: Request| -> (u64, u64) {
        client.call(&request).unwrap();
        match client.call(&Request::Stats).unwrap() {
            Response::Stats { hits, misses, .. } => (hits, misses),
            other => panic!("expected stats, got {other:?}"),
        }
    };
    let cell = |cell: usize| Request::Cell {
        spec: spec.clone(),
        cell,
        format: OutputFormat::Rows,
    };
    assert_eq!(counts(cell(5)), (0, 0), "out of range, cold cache");
    assert_eq!(counts(cell(0)), (0, 1), "miss");
    assert_eq!(counts(cell(0)), (1, 1), "in-range hit");
    assert_eq!(counts(cell(5)), (1, 1), "out of range, warm cache");
    assert_eq!(counts(cell(1)), (1, 2), "miss");
    assert_eq!(counts(cell(1)), (2, 2), "in-range hit");
    stop_server(&addr, handle);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Eviction can never change an answer: under any tiny capacity —
    /// including 0 (storage disabled) and 1 (every second request
    /// evicts) — an access pattern that thrashes the cache still returns
    /// the cold-cache bytes for every request.
    fn eviction_under_tiny_bounds_never_changes_results(
        seed in 0u64..1 << 32,
        capacity in 0usize..3,
    ) {
        let spec = spec_with(seed, vec![6, 8, 10]);
        let expected = reference_rows(&spec);
        let (addr, handle) = start_server(1, capacity);
        let mut client = Client::connect(&addr).expect("connect");
        // Cycle through the cells twice in an order that guarantees
        // evictions at capacity 1 and 2, then revisit cell 0 last.
        for &cell in &[0usize, 1, 2, 0, 1, 2, 0] {
            prop_assert_eq!(&fetch_rows(&mut client, &spec, cell), &expected[cell]);
        }
        stop_server(&addr, handle);
    }
}
