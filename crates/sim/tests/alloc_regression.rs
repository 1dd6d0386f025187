//! Allocation-count regression suite for the Monte-Carlo fast path.
//!
//! A counting `#[global_allocator]` pins the two structural guarantees of
//! the compiled-plan engines:
//!
//! 1. **zero steady-state heap allocations per trial** — once the plan is
//!    compiled and the per-worker scratch arena is warm, running more
//!    trials must never touch the allocator (blocking, non-blocking,
//!    replicated and tenant engines alike, on a chain and on a
//!    fault-heavy grid whose recoveries are multi-step; replicated on
//!    `Spread{4}` through the first-attempt table too, and blocking with
//!    a replayed fault trace);
//! 2. **exactly one plan compile per campaign** — each public runner
//!    flattens the `(workflow, schedule)` pair once and shares it across
//!    every trial of every worker.
//!
//! The counter is per thread and every measurement window runs on the
//! test's own thread, so the harness starting other tests cannot leak
//! counts into a window. Tests still serialize on one mutex because the
//! compile counter is global.

use dagchkpt_core::{Schedule, Workflow};
use dagchkpt_dag::{generators, topo, FixedBitSet};
use dagchkpt_failure::{ExponentialInjector, HeteroPlatform, Processor, TraceInjector};
use dagchkpt_sim::montecarlo::{run_trials_with, TrialSpec};
use dagchkpt_sim::nonblocking::{
    run_nonblocking_trials_with, simulate_nonblocking_planned, NonBlockingConfig,
};
use dagchkpt_sim::replicated::{
    run_replicated_trials_with, simulate_replicated_planned, FirstAttemptTable,
};
use dagchkpt_sim::tenant::{run_tenant_trials_with, TenantConfig, TenantJob, TenantPolicy};
use dagchkpt_sim::trialplan::{plan_compile_count, simulate_planned, TrialPlan, TrialScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

/// Forwards to the system allocator, counting every `alloc`/`realloc`
/// of the calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serializes the measurement windows: held for each entire test body.
static SERIAL: Mutex<()> = Mutex::new(());

fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

fn fixture(n: usize, every: usize) -> (Workflow, Schedule) {
    with_checkpoints(Workflow::uniform(generators::chain(n), 9.0, 1.1), every)
}

fn with_checkpoints(wf: Workflow, every: usize) -> (Workflow, Schedule) {
    let n = wf.n_tasks();
    let order = topo::topological_order(wf.dag());
    let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|i| i % every == 0));
    let s = Schedule::new(&wf, order, ckpt).unwrap();
    (wf, s)
}

/// The fixtures each steady-state test runs, with their fault rates: a
/// chain (recoveries never walk past one predecessor) and a 5 × 8 grid at
/// λ·W ≈ 3, where post-fault recoveries are multi-step plans and
/// non-blocking trials lose writes they need later.
fn fixtures(chain_n: usize, every: usize) -> Vec<(&'static str, Workflow, Schedule, f64)> {
    let (chain_wf, chain_s) = fixture(chain_n, every);
    let grid = Workflow::uniform(generators::grid(5, 8), 9.0, 1.1);
    let lambda = 3.0 / grid.total_work();
    let (grid_wf, grid_s) = with_checkpoints(grid, 3);
    vec![
        ("chain", chain_wf, chain_s, 6e-3),
        ("grid", grid_wf, grid_s, lambda),
    ]
}

#[test]
fn blocking_trials_make_zero_steady_state_allocations() {
    let _guard = SERIAL.lock().unwrap();
    for (name, wf, s, lambda) in fixtures(40, 3) {
        let plan = TrialPlan::compile(&wf, &s);
        let mut sink = 0.0f64;
        // Warm up across enough fault patterns to reach steady state.
        for seed in 0..64u64 {
            let mut inj = ExponentialInjector::new(lambda, seed);
            sink += simulate_planned(&plan, &mut inj, 1.5).makespan;
        }
        let before = alloc_count();
        for seed in 64..320u64 {
            let mut inj = ExponentialInjector::new(lambda, seed);
            sink += simulate_planned(&plan, &mut inj, 1.5).makespan;
        }
        let delta = alloc_count() - before;
        assert_eq!(
            delta, 0,
            "{name}: blocking fast path allocated {delta} times over 256 trials"
        );
        assert!(sink.is_finite());
    }
}

#[test]
fn nonblocking_trials_make_zero_steady_state_allocations() {
    let _guard = SERIAL.lock().unwrap();
    for (name, wf, s, lambda) in fixtures(40, 3) {
        let plan = TrialPlan::compile(&wf, &s);
        let mut scratch = TrialScratch::new(plan.n_tasks());
        let cfg = NonBlockingConfig {
            downtime: 1.5,
            compute_rate: 0.7,
            record_trace: false,
        };
        let mut sink = 0.0f64;
        for seed in 0..64u64 {
            let mut inj = ExponentialInjector::new(lambda, seed);
            sink += simulate_nonblocking_planned(&plan, &mut scratch, &mut inj, cfg).makespan;
        }
        let before = alloc_count();
        for seed in 64..320u64 {
            let mut inj = ExponentialInjector::new(lambda, seed);
            sink += simulate_nonblocking_planned(&plan, &mut scratch, &mut inj, cfg).makespan;
        }
        let delta = alloc_count() - before;
        assert_eq!(
            delta, 0,
            "{name}: non-blocking fast path allocated {delta} times over 256 trials"
        );
        assert!(sink.is_finite());
    }
}

fn hetero2(lambda: f64) -> HeteroPlatform {
    HeteroPlatform::new(
        vec![
            Processor {
                speed: 2.0,
                ..Processor::reference(lambda)
            },
            Processor::reference(lambda / 4.0),
        ],
        1.0,
    )
    .unwrap()
}

#[test]
fn replicated_trials_make_zero_steady_state_allocations() {
    let _guard = SERIAL.lock().unwrap();
    for (name, wf, s, lambda) in fixtures(24, 2) {
        let n = wf.n_tasks();
        let platform = hetero2(lambda);
        let prefix: Vec<usize> = (0..2).collect();
        let sets: Vec<&[usize]> = (0..n).map(|i| &prefix[..1 + i % 2]).collect();
        let plan = TrialPlan::compile(&wf, &s);
        let first = FirstAttemptTable::compile(&plan, &platform, &sets);
        let mut injectors: Vec<ExponentialInjector> = Vec::with_capacity(2);
        let spec = TrialSpec::new(320, 5);
        let run = |i: usize, injectors: &mut Vec<ExponentialInjector>| {
            injectors.clear();
            injectors.extend((0..2).map(|rank| {
                ExponentialInjector::new(platform.procs()[rank].lambda, spec.proc_seed(i, rank))
            }));
            simulate_replicated_planned(&plan, &first, &platform, injectors).makespan
        };
        let mut sink = 0.0f64;
        for i in 0..64 {
            sink += run(i, &mut injectors);
        }
        let before = alloc_count();
        for i in 64..320 {
            sink += run(i, &mut injectors);
        }
        let delta = alloc_count() - before;
        assert_eq!(
            delta, 0,
            "{name}: replicated fast path allocated {delta} times over 256 trials"
        );
        assert!(sink.is_finite());
    }
}

/// The `Spread{4, 2, 4}` platform of the `hetero_replication` campaign
/// at base rate `lambda`: speed `2^{−x}`, rate `λ·4^x`, `x = k/3`.
fn spread4(lambda: f64) -> HeteroPlatform {
    HeteroPlatform::new(
        (0..4)
            .map(|k| {
                let x = k as f64 / 3.0;
                Processor {
                    speed: f64::powf(2.0, -x),
                    ..Processor::reference(lambda * f64::powf(4.0, x))
                }
            })
            .collect(),
        1.0,
    )
    .unwrap()
}

/// Degree 2 on `Spread{4}` through the first-attempt table, at rates high
/// enough for group failures (so the post-fault path runs too): zero
/// allocations per trial.
#[test]
fn spread4_degree2_trials_make_zero_steady_state_allocations() {
    let _guard = SERIAL.lock().unwrap();
    for (name, wf, s, lambda) in fixtures(24, 3) {
        let platform = spread4(4.0 * lambda);
        let pair = [0usize, 1];
        let sets: Vec<&[usize]> = vec![&pair[..]; wf.n_tasks()];
        let plan = TrialPlan::compile(&wf, &s);
        let first = FirstAttemptTable::compile(&plan, &platform, &sets);
        let mut injectors: Vec<ExponentialInjector> = Vec::with_capacity(2);
        let spec = TrialSpec::new(320, 8);
        let mut group_failures = 0u64;
        let mut run = |i: usize, injectors: &mut Vec<ExponentialInjector>| {
            injectors.clear();
            injectors.extend((0..2).map(|rank| {
                ExponentialInjector::new(platform.procs()[rank].lambda, spec.proc_seed(i, rank))
            }));
            let r = simulate_replicated_planned(&plan, &first, &platform, injectors);
            group_failures += r.n_faults;
            r.makespan
        };
        let mut sink = 0.0f64;
        for i in 0..64 {
            sink += run(i, &mut injectors);
        }
        let before = alloc_count();
        for i in 64..320 {
            sink += run(i, &mut injectors);
        }
        let delta = alloc_count() - before;
        assert_eq!(
            delta, 0,
            "{name}: Spread{{4}} degree 2 allocated {delta} times over 256 trials"
        );
        assert!(group_failures > 0, "{name}: no group failure");
        assert!(sink.is_finite());
    }
}

/// A trace replayed per trial shares the cell's checked times: neither the
/// replay nor the trial allocates.
#[test]
fn trace_trials_make_zero_steady_state_allocations() {
    let _guard = SERIAL.lock().unwrap();
    for (name, wf, s, _) in fixtures(40, 3) {
        let plan = TrialPlan::compile(&wf, &s);
        let horizon = 1.5 * wf.total_work();
        let trace = TraceInjector::new(
            (1..40)
                .map(|k| k as f64 * horizon / 40.0)
                .collect::<Vec<_>>(),
        );
        let mut sink = 0.0f64;
        for _ in 0..64 {
            sink += simulate_planned(&plan, &mut trace.replay(), 1.5).makespan;
        }
        let before = alloc_count();
        for _ in 0..256 {
            sink += simulate_planned(&plan, &mut trace.replay(), 1.5).makespan;
        }
        let delta = alloc_count() - before;
        assert_eq!(
            delta, 0,
            "{name}: trace trials allocated {delta} times over 256 trials"
        );
        assert!(sink.is_finite());
    }
}

/// The tenant engine's per-trial work (one planned trial per job, the
/// stream replay, the accumulator push) allocates nothing: on the
/// sequential path a campaign's allocations are per fold chunk and per
/// merge, and the chunk count is fixed, so 4× the trials costs exactly as
/// many allocations.
#[test]
fn tenant_trials_make_zero_steady_state_allocations() {
    let _guard = SERIAL.lock().unwrap();
    for (name, wf, s, lambda) in fixtures(24, 3) {
        let jobs: Vec<TenantJob> = (0..6)
            .map(|k| TenantJob {
                arrival: 40.0 * k as f64,
                tenant: k % 3,
            })
            .collect();
        let config = TenantConfig {
            speeds: vec![1.0, 1.5],
            downtime: 1.0,
            policy: TenantPolicy::FairShare,
            weights: vec![3.0, 2.0, 1.0],
            deadlines: vec![400.0, 800.0, f64::INFINITY],
        };
        let campaign_allocs = |trials: usize| {
            let before = alloc_count();
            let stats = run_tenant_trials_with(
                &wf,
                &s,
                &jobs,
                &config,
                TrialSpec::sequential(trials, 13),
                |seed| ExponentialInjector::new(lambda, seed),
            );
            let delta = alloc_count() - before;
            assert!(stats.iter().all(|t| t.jobs > 0));
            delta
        };
        let small = campaign_allocs(64 * 8);
        let large = campaign_allocs(64 * 32);
        assert_eq!(
            small,
            large,
            "{name}: tenant trials allocated {} times per 1536 extra trials",
            large.abs_diff(small)
        );
    }
}

/// Every public campaign runner compiles its trial plan exactly once,
/// no matter how many trials, workers or jobs the campaign spans.
#[test]
fn every_runner_compiles_exactly_one_plan_per_campaign() {
    let _guard = SERIAL.lock().unwrap();
    let (wf, s) = fixture(16, 2);
    let spec = TrialSpec::new(200, 9);

    let before = plan_compile_count();
    run_trials_with(&wf, &s, 1.0, spec, |seed| {
        ExponentialInjector::new(5e-3, seed)
    });
    assert_eq!(plan_compile_count() - before, 1, "blocking runner");

    let before = plan_compile_count();
    let cfg = NonBlockingConfig {
        downtime: 1.0,
        compute_rate: 0.8,
        record_trace: false,
    };
    run_nonblocking_trials_with(&wf, &s, cfg, spec, |seed| {
        ExponentialInjector::new(5e-3, seed)
    });
    assert_eq!(plan_compile_count() - before, 1, "non-blocking runner");

    let platform = HeteroPlatform::new(
        vec![
            Processor {
                speed: 2.0,
                ..Processor::reference(4e-3)
            },
            Processor::reference(1e-3),
        ],
        1.0,
    )
    .unwrap();
    let degrees = vec![2usize; 16];
    let before = plan_compile_count();
    run_replicated_trials_with(&wf, &s, &platform, &degrees, spec, |rank, seed| {
        ExponentialInjector::new(platform.procs()[rank].lambda, seed)
    });
    assert_eq!(plan_compile_count() - before, 1, "replicated runner");

    let jobs: Vec<TenantJob> = (0..4)
        .map(|k| TenantJob {
            arrival: 30.0 * k as f64,
            tenant: k % 2,
        })
        .collect();
    let config = TenantConfig {
        speeds: vec![1.0, 1.0],
        downtime: 1.0,
        policy: TenantPolicy::Fcfs,
        weights: vec![1.0, 1.0],
        deadlines: vec![f64::INFINITY, f64::INFINITY],
    };
    let before = plan_compile_count();
    run_tenant_trials_with(&wf, &s, &jobs, &config, spec, |seed| {
        ExponentialInjector::new(5e-3, seed)
    });
    assert_eq!(plan_compile_count() - before, 1, "tenant runner");
}
