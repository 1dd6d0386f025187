//! End-to-end tests of the daemon: served answers must be byte-identical
//! to the batch engine, malformed input must come back as error frames
//! (never a dead worker), and shutdown must drain gracefully.

use dagchkpt_bench::{
    cell_csv_rows, run_campaign, run_cell_full, stage_header, tenant_csv_rows, AdmissionPolicy,
    ArrivalSpec, Campaign, FailureSpec, OutputFormat, OutputSpec, RunContext, ScenarioSpec,
    SimulatorSpec, Stage, StrategySpec, SweepSpec, TenancySpec, TenantSpec, WorkflowSource,
    TENANT_HEADER,
};
use dagchkpt_core::{CheckpointStrategy, CostRule, LinearizationStrategy};
use dagchkpt_serve::loadgen::{replay_campaign, run_malformed_corpus, Client};
use dagchkpt_serve::protocol::{Request, Response};
use dagchkpt_serve::Server;
use dagchkpt_workflows::{PegasusKind, WorkflowSpec};
use std::path::PathBuf;

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

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dagchkpt_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("tmpdir");
    d
}

/// A small three-cell scenario with both the analytic evaluator and the
/// blocking Monte-Carlo engine, so byte-identity covers seeded trials.
fn mini_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "serve_mini".to_string(),
        description: String::new(),
        workflows: vec![WorkflowSource::RandomChain {
            min_weight: 5.0,
            max_weight: 20.0,
            rule: CostRule::Constant { value: 1.0 },
            default_lambda: 0.0,
        }],
        sizes: vec![6, 8, 10],
        failures: vec![FailureSpec::Exponential {
            lambda: 1e-3,
            downtime: 1.0,
        }],
        strategies: vec![StrategySpec::Heuristic {
            lin: LinearizationStrategy::DepthFirst,
            ckpt: CheckpointStrategy::ByDecreasingWork,
        }],
        simulators: vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials: 40 },
        ],
        seed: 11,
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

#[test]
fn served_cells_are_bit_identical_to_batch_execution() {
    let spec = mini_spec();
    let plans = spec.expand().unwrap();
    let (addr, handle) = start_server(2, 16);
    let mut client = Client::connect(&addr).expect("connect");
    for (i, plan) in plans.iter().enumerate() {
        let local = run_cell_full(&spec, plan).unwrap();
        let resp = client
            .call(&Request::Cell {
                spec: spec.clone(),
                cell: i,
                format: OutputFormat::Rows,
            })
            .unwrap();
        let Response::Cell {
            header,
            rows,
            schedules,
            cached,
            tails,
            tenants,
        } = resp
        else {
            panic!("cell {i}: unexpected response");
        };
        assert!(
            tenants.is_empty(),
            "a spec without an arrival stream serves no tenant rows"
        );
        assert!(!cached, "first request for cell {i} cannot be a hit");
        assert_eq!(header, stage_header(OutputFormat::Rows, &spec.simulators));
        assert_eq!(rows, cell_csv_rows(OutputFormat::Rows, &local.rows));
        assert_eq!(schedules, local.schedules);
        // Tail summaries cover exactly the Monte-Carlo rows, bit-identical
        // to the batch engine's sketch quantiles, and never carry NaN.
        let mc_rows: Vec<usize> = local
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.mc_p50.is_finite())
            .map(|(j, _)| j)
            .collect();
        assert_eq!(tails.iter().map(|t| t.row).collect::<Vec<_>>(), mc_rows);
        for t in &tails {
            assert_eq!(t.p50.to_bits(), local.rows[t.row].mc_p50.to_bits());
            assert_eq!(t.p95.to_bits(), local.rows[t.row].mc_p95.to_bits());
            assert_eq!(t.p99.to_bits(), local.rows[t.row].mc_p99.to_bits());
            assert!(t.p50.is_finite() && t.p95.is_finite() && t.p99.is_finite());
        }
        // A repeat is served from the shared cache, bit-identical.
        let Ok(Response::Cell {
            rows: again,
            cached: true,
            ..
        }) = client.call(&Request::Cell {
            spec: spec.clone(),
            cell: i,
            format: OutputFormat::Rows,
        })
        else {
            panic!("cell {i}: repeat was not a cache hit");
        };
        assert_eq!(again, rows);
    }
    stop_server(&addr, handle);
}

#[test]
fn loadgen_replay_byte_diffs_clean_against_the_batch_csv() {
    let campaign = Campaign {
        name: "serve_mini".to_string(),
        description: String::new(),
        stages: vec![Stage::Scenario {
            scenario: mini_spec(),
            output: OutputSpec::rows("serve_mini.csv"),
        }],
    };
    let batch_dir = tmpdir("batch");
    run_campaign(
        &campaign,
        &RunContext {
            out_dir: batch_dir.clone(),
            shard: None,
            resume: false,
            charts: false,
        },
    )
    .unwrap();

    let (addr, handle) = start_server(2, 16);
    let served_dir = tmpdir("served");
    let report = replay_campaign(&addr, &campaign, &served_dir, None).unwrap();
    assert_eq!(report.requests, 3);
    assert_eq!(report.files, vec!["serve_mini.csv".to_string()]);
    let batch = std::fs::read(batch_dir.join("serve_mini.csv")).unwrap();
    let served = std::fs::read(served_dir.join("serve_mini.csv")).unwrap();
    assert_eq!(batch, served, "served CSV differs from batch CSV");
    stop_server(&addr, handle);
}

/// Storage-axis answers carry the tier decision through the wire: the
/// served `StorageRows` body is bit-identical to batch execution, the
/// `storage` column is populated, and every schedule ships its per-task
/// tier assignment.
#[test]
fn storage_tier_assignments_ride_along_in_served_answers() {
    use dagchkpt_bench::{StorageSelect, StorageSpec};
    use dagchkpt_failure::StorageTier;
    let mut spec = mini_spec();
    spec.name = "serve_storage".to_string();
    spec.sizes = vec![6];
    spec.storage = StorageSpec::Tiers {
        tiers: vec![
            StorageTier {
                name: "local".to_string(),
                write_bw: 4.0,
                read_bw: 0.5,
                compression: 1.0,
                contention: 0.0,
            },
            StorageTier {
                name: "pfs".to_string(),
                write_bw: 0.5,
                read_bw: 4.0,
                compression: 1.0,
                contention: 0.5,
            },
        ],
        select: StorageSelect::Best,
    };
    let plans = spec.expand().unwrap();
    let local = run_cell_full(&spec, &plans[0]).unwrap();

    let (addr, handle) = start_server(1, 8);
    let mut client = Client::connect(&addr).expect("connect");
    let resp = client
        .call(&Request::Cell {
            spec: spec.clone(),
            cell: 0,
            format: OutputFormat::StorageRows,
        })
        .unwrap();
    let Response::Cell {
        header,
        rows,
        schedules,
        ..
    } = resp
    else {
        panic!("unexpected response");
    };
    assert_eq!(
        header,
        stage_header(OutputFormat::StorageRows, &spec.simulators)
    );
    assert_eq!(rows, cell_csv_rows(OutputFormat::StorageRows, &local.rows));
    assert_eq!(schedules, local.schedules);
    let storage_col = header
        .iter()
        .position(|h| h == "storage")
        .expect("StorageRows has a storage column");
    assert!(
        rows.iter().all(|r| !r[storage_col].is_empty()),
        "every served row must name its winning tier"
    );
    for s in &schedules {
        let tiers = s.tiers.as_ref().expect("schedule carries tiers");
        assert_eq!(tiers.len(), 6);
        assert!(tiers.iter().all(|&t| t < 2));
        assert!(s.storage.is_some(), "schedule names its storage label");
    }
    stop_server(&addr, handle);
}

/// Satellite regression: a served request smuggling non-finite weights —
/// `1e400` (parses to `+∞`) or NaN (serialized as `null`) — must get a
/// structured error frame, and the worker must keep serving.
#[test]
fn non_finite_weights_in_a_served_request_get_an_error_frame() {
    let (addr, handle) = start_server(1, 4);
    let mut client = Client::connect(&addr).expect("connect");

    // An inline workflow whose cost was rewritten to 1e400 in the JSON.
    let wf = PegasusKind::Montage.generate(12, CostRule::Constant { value: 123.25 }, 1);
    let mut spec = mini_spec();
    spec.workflows = vec![WorkflowSource::Inline {
        name: "m10".to_string(),
        workflow: WorkflowSpec::from_workflow(&wf, None),
        default_lambda: 0.0,
    }];
    let req = serde_json::to_string(&Request::Cell {
        spec: spec.clone(),
        cell: 0,
        format: OutputFormat::Rows,
    })
    .unwrap()
    .replace("123.25", "1e400");
    client.send_frame(req.as_bytes()).unwrap();
    match client.recv().unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, "invalid_spec");
            assert!(message.contains("finite"), "{message}");
        }
        other => panic!("expected invalid_spec, got {other:?}"),
    }

    // NaN weights serialize as `null`, which the deserializer rejects.
    let mut nan_spec = spec.clone();
    if let WorkflowSource::Inline { workflow, .. } = &mut nan_spec.workflows[0] {
        workflow.costs[2].0 = f64::NAN;
    }
    let resp = client
        .call(&Request::Cell {
            spec: nan_spec,
            cell: 0,
            format: OutputFormat::Rows,
        })
        .unwrap();
    match resp {
        Response::Error { code, .. } => assert_eq!(code, "bad_request"),
        other => panic!("expected bad_request, got {other:?}"),
    }

    // The same worker still answers real queries afterwards.
    let ok = client
        .call(&Request::Cell {
            spec: mini_spec(),
            cell: 0,
            format: OutputFormat::Rows,
        })
        .unwrap();
    assert!(matches!(ok, Response::Cell { .. }));
    stop_server(&addr, handle);
}

/// Satellite regression: a poisoned cache lock (a worker panicking while
/// holding it) must not cascade panics across the pool — every path
/// recovers the lock and the daemon keeps serving hits and misses.
#[test]
fn poisoned_cache_lock_does_not_kill_the_daemon() {
    let server = Server::bind("127.0.0.1:0", 2, 16).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let cache = server.cache();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let mut client = Client::connect(&addr).expect("connect");

    let spec = mini_spec();
    let ask = |client: &mut Client, cell: usize| {
        client
            .call(&Request::Cell {
                spec: spec.clone(),
                cell,
                format: OutputFormat::Rows,
            })
            .expect("call")
    };
    let Response::Cell { rows: before, .. } = ask(&mut client, 0) else {
        panic!("prime request failed");
    };

    cache.poison_for_test();

    // A cache hit through the poisoned lock still answers, bit-identical.
    let Response::Cell {
        rows: after,
        cached,
        ..
    } = ask(&mut client, 0)
    else {
        panic!("post-poison hit failed");
    };
    assert!(cached, "entry inserted before the poison must still be hit");
    assert_eq!(before, after);
    // A miss (insert path) and the stats path also survive.
    assert!(matches!(ask(&mut client, 1), Response::Cell { .. }));
    match client.call(&Request::Stats).unwrap() {
        Response::Stats { entries, .. } => assert_eq!(entries, 2),
        other => panic!("expected stats, got {other:?}"),
    }
    stop_server(&addr, handle);
}

#[test]
fn malformed_corpus_leaves_the_daemon_alive() {
    let (addr, handle) = start_server(2, 4);
    let failures = run_malformed_corpus(&addr, None).unwrap();
    assert!(failures.is_empty(), "{failures:#?}");
    stop_server(&addr, handle);
}

#[test]
fn nonblocking_pivot_format_requires_one_strategy() {
    let (addr, handle) = start_server(1, 4);
    let mut client = Client::connect(&addr).expect("connect");
    let mut spec = mini_spec();
    spec.strategies = vec![StrategySpec::WorkAndCost]; // six strategies
    match client
        .call(&Request::Cell {
            spec,
            cell: 0,
            format: OutputFormat::NonBlockingPivot,
        })
        .unwrap()
    {
        Response::Error { code, message } => {
            assert_eq!(code, "invalid_spec");
            assert!(message.contains("exactly one strategy"), "{message}");
        }
        other => panic!("expected invalid_spec, got {other:?}"),
    }
    stop_server(&addr, handle);
}

/// Keep-alive fairness: with a single worker and several idle keep-alive
/// connections, the idle-requeue (one `--read-timeout-ms` tick) must hand
/// the worker back fast enough that every connection — idle holders and
/// newcomers alike — still gets answered promptly.
#[test]
fn idle_keep_alive_connections_do_not_starve_peers() {
    let server =
        Server::bind_with_timeout("127.0.0.1:0", 1, 4, std::time::Duration::from_millis(5))
            .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    // Three connections held open between requests, then a newcomer.
    let mut held: Vec<Client> = (0..3)
        .map(|_| Client::connect(&addr).expect("connect"))
        .collect();
    for c in &mut held {
        assert!(matches!(c.call(&Request::Ping), Ok(Response::Pong)));
    }
    let start = std::time::Instant::now();
    let mut newcomer = Client::connect(&addr).expect("connect");
    assert!(matches!(newcomer.call(&Request::Ping), Ok(Response::Pong)));
    assert!(
        start.elapsed() < std::time::Duration::from_secs(2),
        "newcomer starved behind idle keep-alive connections: {:?}",
        start.elapsed()
    );
    // The held connections are requeued, not dropped: they still answer.
    for c in &mut held {
        assert!(matches!(c.call(&Request::Ping), Ok(Response::Pong)));
    }
    stop_server(&addr, handle);
}

/// The mini scenario with a contended arrival stream and two tenant
/// classes, exercising the multi-tenant engine over the wire.
fn tenant_spec() -> ScenarioSpec {
    let mut spec = mini_spec();
    spec.name = "serve_tenant".to_string();
    spec.sizes = vec![8];
    spec.arrivals = ArrivalSpec::Poisson {
        count: 4,
        mean_gap: 30.0,
    };
    spec.tenancy = TenancySpec {
        tenants: vec![
            TenantSpec {
                name: "gold".to_string(),
                weight: 2.0,
                slo_factor: 2.0,
            },
            TenantSpec {
                name: "bronze".to_string(),
                weight: 1.0,
                slo_factor: 3.0,
            },
        ],
        policy: AdmissionPolicy::Fcfs,
    };
    spec
}

/// A spec with an arrival stream serves per-tenant summaries on every
/// format, and the `TenantRows` format serves the contention-engine rows
/// byte-identical to the batch engine.
#[test]
fn tenant_summaries_ride_along_and_tenant_rows_match_batch() {
    let spec = tenant_spec();
    let plans = spec.expand().unwrap();
    let local = run_cell_full(&spec, &plans[0]).unwrap();
    let (addr, handle) = start_server(1, 4);
    let mut client = Client::connect(&addr).expect("connect");

    // Generic format: the classic rows, with tenant summaries riding
    // along (finite ones only — same contract as the tail quantiles).
    let resp = client
        .call(&Request::Cell {
            spec: spec.clone(),
            cell: 0,
            format: OutputFormat::Rows,
        })
        .unwrap();
    let Response::Cell { rows, tenants, .. } = resp else {
        panic!("unexpected response");
    };
    assert_eq!(rows, cell_csv_rows(OutputFormat::Rows, &local.rows));
    let expected: Vec<_> = local
        .tenants
        .iter()
        .filter(|t| {
            t.jobs > 0
                && [
                    t.slo_rate,
                    t.mean_response,
                    t.mean_slowdown,
                    t.p50_response,
                    t.p95_response,
                    t.p99_response,
                ]
                .iter()
                .all(|v| v.is_finite())
        })
        .cloned()
        .collect();
    assert!(!expected.is_empty(), "the mini tenant cell completes jobs");
    assert_eq!(tenants, expected);
    for t in &tenants {
        assert!(t.tenant == "gold" || t.tenant == "bronze");
        assert!(t.slo_rate.is_finite() && t.mean_response.is_finite());
    }

    // TenantRows format: the row body is the contention engine's,
    // byte-identical to what `run_scenario_stage` writes to CSV.
    let resp = client
        .call(&Request::Cell {
            spec: spec.clone(),
            cell: 0,
            format: OutputFormat::TenantRows,
        })
        .unwrap();
    let Response::Cell { header, rows, .. } = resp else {
        panic!("unexpected response");
    };
    assert_eq!(header, TENANT_HEADER.map(String::from).to_vec());
    assert_eq!(rows, tenant_csv_rows(&local.tenants));

    // Without an arrival stream, TenantRows is a structured error.
    match client
        .call(&Request::Cell {
            spec: mini_spec(),
            cell: 0,
            format: OutputFormat::TenantRows,
        })
        .unwrap()
    {
        Response::Error { code, message } => {
            assert_eq!(code, "invalid_spec");
            assert!(message.contains("arrivals"), "{message}");
        }
        other => panic!("expected invalid_spec, got {other:?}"),
    }
    stop_server(&addr, handle);
}

#[test]
fn ping_stats_and_shutdown_roundtrip() {
    let (addr, handle) = start_server(1, 4);
    let mut client = Client::connect(&addr).expect("connect");
    assert!(matches!(client.call(&Request::Ping), Ok(Response::Pong)));
    match client.call(&Request::Stats).unwrap() {
        Response::Stats {
            served, capacity, ..
        } => {
            assert!(served >= 1);
            assert_eq!(capacity, 4);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    stop_server(&addr, handle);
}

/// The buffered serializer behind the connection workers writes the exact
/// bytes of the per-response allocating path — across responses of
/// growing and shrinking size through one reused scratch buffer, so a
/// stale byte from a longer earlier frame can never leak into a later one.
#[test]
fn buffered_response_frames_are_byte_identical() {
    use dagchkpt_serve::protocol::{write_response, write_response_into};
    let responses = vec![
        Response::Pong,
        Response::error(
            "oversized_frame",
            format!("frame of {} bytes exceeds the {} limit", usize::MAX, 1),
        ),
        Response::error("truncated_frame", "stream ended inside a frame"),
        Response::Stats {
            served: 7,
            hits: 3,
            misses: 4,
            entries: 2,
            capacity: 16,
        },
        Response::Bye,
    ];
    let mut fresh: Vec<u8> = Vec::new();
    for r in &responses {
        write_response(&mut fresh, r).expect("fresh write");
    }
    let mut buffered: Vec<u8> = Vec::new();
    let mut scratch = String::from("poisoned leftover content from a previous connection");
    for r in &responses {
        write_response_into(&mut buffered, r, &mut scratch).expect("buffered write");
    }
    assert_eq!(fresh, buffered, "wire bytes must match the allocating path");
}
