//! Allocation-count regression suite for the compiled Theorem-3 path.
//!
//! A counting `#[global_allocator]` pins the structural guarantee of
//! [`EvalScratch`]: once the scratch is built, evaluating a candidate —
//! fresh, resumed, repeated, fault-free or not — never touches the
//! allocator. A whole budget sweep therefore allocates per worker run,
//! never per candidate.
//!
//! The counter is per thread, so the test harness starting other tests
//! cannot leak counts into a measurement window; the sweep test pins one
//! worker, which runs inline on the measuring thread. Tests serialize on
//! one mutex because the sweep test mutates `RAYON_NUM_THREADS`.

use dagchkpt_core::evaluator::{EvalPlan, EvalScratch};
use dagchkpt_core::{optimize_checkpoints, CheckpointStrategy, CostRule, SweepPolicy, Workflow};
use dagchkpt_dag::{generators, topo};
use dagchkpt_failure::FaultModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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

/// Serializes the test bodies (one of them sets `RAYON_NUM_THREADS`).
static SERIAL: Mutex<()> = Mutex::new(());

fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

fn workflow(n: usize, seed: u64) -> Workflow {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dag = generators::layered_random(&mut rng, n, 5, 0.3);
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..60.0)).collect();
    Workflow::with_cost_rule(dag, weights, CostRule::ProportionalToWork { ratio: 0.1 })
}

#[test]
fn candidates_make_zero_allocations_after_the_scratch_is_built() {
    let _guard = SERIAL.lock().unwrap();
    let n = 80;
    let wf = workflow(n, 3);
    let order = topo::topological_order(wf.dag());
    let plan = EvalPlan::new(&wf, &order);
    let mut rng = SmallRng::seed_from_u64(9);
    // Candidate sequences prepared outside the window: nested budgets,
    // arbitrary flips, and a repeat.
    let mut seqs = Vec::new();
    let mut flags = vec![false; n];
    for p in (0..n).rev() {
        flags[p] = true;
        seqs.push(flags.clone());
    }
    for _ in 0..20 {
        seqs.push((0..n).map(|_| rng.gen_bool(0.3)).collect::<Vec<bool>>());
    }
    seqs.push(seqs[seqs.len() - 1].clone());
    for model in [FaultModel::new(2e-3, 1.0), FaultModel::fault_free()] {
        let mut scratch = EvalScratch::new(&plan, model);
        let mut sink = 0.0f64;
        let before = alloc_count();
        for flags in &seqs {
            sink += scratch.expected_makespan(flags);
        }
        let allocs = alloc_count() - before;
        assert!(sink.is_finite() && sink > 0.0);
        assert_eq!(
            allocs,
            0,
            "{allocs} allocations over {} candidates (λ = {})",
            seqs.len(),
            model.lambda()
        );
    }
}

#[test]
fn sweep_allocations_do_not_grow_with_the_candidate_count() {
    let _guard = SERIAL.lock().unwrap();
    // One worker: the sweep runs inline, so the count is exact.
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let model = FaultModel::new(1e-3, 0.5);
    let count = |n: usize, strategy: CheckpointStrategy| {
        let wf = workflow(n, 5);
        let order = topo::topological_order(wf.dag());
        let before = alloc_count();
        let r = optimize_checkpoints(&wf, model, &order, strategy, SweepPolicy::Exhaustive);
        let allocs = alloc_count() - before;
        assert_eq!(r.evaluated, n + 1);
        allocs
    };
    for strategy in [
        CheckpointStrategy::ByDecreasingWork,
        CheckpointStrategy::Periodic,
    ] {
        let small = count(40, strategy);
        let large = count(160, strategy);
        // 120 more candidates; the per-run setup (plan, scratch, ranking,
        // winner schedule) may grow by a few reallocations, not per
        // candidate.
        assert!(
            large <= small + 8,
            "{strategy:?}: {small} allocations at n = 40, {large} at n = 160"
        );
    }
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}
