//! Allocation-count regression suite for the Monte-Carlo fast path.
//!
//! A counting `#[global_allocator]` pins the two structural guarantees of
//! the compiled-plan engines:
//!
//! 1. **zero steady-state heap allocations per trial** — once the plan is
//!    compiled and the per-worker scratch arena is warm, running more
//!    trials must never touch the allocator (blocking, non-blocking and
//!    replicated engines alike);
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
use dagchkpt_failure::{ExponentialInjector, HeteroPlatform, Processor};
use dagchkpt_sim::montecarlo::{run_trials_with, TrialSpec};
use dagchkpt_sim::nonblocking::{
    run_nonblocking_trials_with, simulate_nonblocking_planned, NonBlockingConfig,
};
use dagchkpt_sim::replicated::{run_replicated_trials_with, simulate_replicated_planned};
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
    let wf = Workflow::uniform(generators::chain(n), 9.0, 1.1);
    let order = topo::topological_order(wf.dag());
    let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|i| i % every == 0));
    let s = Schedule::new(&wf, order, ckpt).unwrap();
    (wf, s)
}

#[test]
fn blocking_trials_make_zero_steady_state_allocations() {
    let _guard = SERIAL.lock().unwrap();
    let (wf, s) = fixture(40, 3);
    let plan = TrialPlan::compile(&wf, &s);
    let mut scratch = TrialScratch::new(plan.n_tasks());
    let mut sink = 0.0f64;
    // Warm the arena across enough fault patterns to reach steady state.
    for seed in 0..64u64 {
        let mut inj = ExponentialInjector::new(6e-3, seed);
        sink += simulate_planned(&plan, &mut scratch, &mut inj, 1.5).makespan;
    }
    let before = alloc_count();
    for seed in 64..320u64 {
        let mut inj = ExponentialInjector::new(6e-3, seed);
        sink += simulate_planned(&plan, &mut scratch, &mut inj, 1.5).makespan;
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "blocking fast path allocated {delta} times over 256 trials"
    );
    assert!(sink.is_finite());
}

#[test]
fn nonblocking_trials_make_zero_steady_state_allocations() {
    let _guard = SERIAL.lock().unwrap();
    let (wf, s) = fixture(40, 3);
    let plan = TrialPlan::compile(&wf, &s);
    let mut scratch = TrialScratch::new(plan.n_tasks());
    let cfg = NonBlockingConfig {
        downtime: 1.5,
        compute_rate: 0.7,
        record_trace: false,
    };
    let mut sink = 0.0f64;
    for seed in 0..64u64 {
        let mut inj = ExponentialInjector::new(6e-3, seed);
        sink += simulate_nonblocking_planned(&plan, &mut scratch, &mut inj, cfg).makespan;
    }
    let before = alloc_count();
    for seed in 64..320u64 {
        let mut inj = ExponentialInjector::new(6e-3, seed);
        sink += simulate_nonblocking_planned(&plan, &mut scratch, &mut inj, cfg).makespan;
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "non-blocking fast path allocated {delta} times over 256 trials"
    );
    assert!(sink.is_finite());
}

#[test]
fn replicated_trials_make_zero_steady_state_allocations() {
    let _guard = SERIAL.lock().unwrap();
    let (wf, s) = fixture(24, 2);
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
    let prefix: Vec<usize> = (0..2).collect();
    let sets: Vec<&[usize]> = (0..24).map(|i| &prefix[..1 + i % 2]).collect();
    let plan = TrialPlan::compile(&wf, &s);
    let mut scratch = TrialScratch::new(plan.n_tasks());
    let mut injectors: Vec<ExponentialInjector> = Vec::with_capacity(2);
    let spec = TrialSpec::new(320, 5);
    let run = |i: usize, scratch: &mut TrialScratch, injectors: &mut Vec<ExponentialInjector>| {
        injectors.clear();
        injectors.extend((0..2).map(|rank| {
            ExponentialInjector::new(platform.procs()[rank].lambda, spec.proc_seed(i, rank))
        }));
        simulate_replicated_planned(&plan, scratch, &platform, &sets, injectors).makespan
    };
    let mut sink = 0.0f64;
    for i in 0..64 {
        sink += run(i, &mut scratch, &mut injectors);
    }
    let before = alloc_count();
    for i in 64..320 {
        sink += run(i, &mut scratch, &mut injectors);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "replicated fast path allocated {delta} times over 256 trials"
    );
    assert!(sink.is_finite());
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
