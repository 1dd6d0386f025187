//! Allocation-count regression suite for the compiled Theorem-3 paths.
//!
//! A counting `#[global_allocator]` pins the structural guarantee of
//! [`EvalScratch`] and of the replication-aware scratch: once a scratch is
//! built, evaluating a candidate — fresh, resumed, repeated, nested,
//! multi-flip `CkptPer`, a far jump to the start of a stolen range,
//! fault-free or not — never touches the allocator, and neither does a
//! replica or tier move followed by a resumed evaluation. A whole budget
//! sweep therefore allocates per worker, never per candidate, and its
//! range table once per sweep.
//!
//! The per-thread counter keeps the test harness starting other tests out
//! of a measurement window; the one-worker sweep test runs inline on the
//! measuring thread. The multi-worker test needs the global counter (its
//! workers are other threads), so it takes the minimum over repeats,
//! which drops any harness allocation that lands in a window. Tests
//! serialize on one mutex because the sweep tests mutate
//! `RAYON_NUM_THREADS`.

use dagchkpt_core::evaluator::{EvalPlan, EvalScratch};
use dagchkpt_core::strategies::periodic_set;
use dagchkpt_core::{
    optimize_checkpoints, optimize_checkpoints_with, CheckpointStrategy, CostRule, Objective,
    ProxyObjective, ReplicatedEvaluator, SweepPolicy, Workflow,
};
use dagchkpt_dag::{generators, topo, NodeId};
use dagchkpt_failure::{FaultModel, HeteroPlatform, Processor, StorageHierarchy, StorageTier};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Forwards to the system allocator, counting every `alloc`/`realloc`
/// of the calling thread and of the whole process.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    ALLOCS.with(|c| c.set(c.get() + 1));
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Candidate sequences prepared outside any window: nested budgets, far
/// jumps between them (a stolen sweep range), `CkptPer` budgets (several
/// flags change per step) in sweep order and jumping, arbitrary flips,
/// and a repeat.
fn candidate_sequences(wf: &Workflow, order: &[NodeId], seed: u64) -> Vec<Vec<bool>> {
    let n = order.len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let nested = |budget: usize| -> Vec<bool> { (0..n).map(|p| p >= n - budget).collect() };
    let ckpt_per = |budget: usize| -> Vec<bool> {
        let set = periodic_set(wf, order, budget);
        order.iter().map(|t| set.contains(t.index())).collect()
    };
    let mut seqs: Vec<Vec<bool>> = (1..=n).map(nested).collect();
    seqs.extend([0, 3 * n / 4, 1, n, n / 2, 2].map(nested));
    seqs.extend((0..=n).map(ckpt_per));
    seqs.extend([n, 0, n / 2, 1, n].map(ckpt_per));
    for _ in 0..20 {
        seqs.push((0..n).map(|_| rng.gen_bool(0.3)).collect::<Vec<bool>>());
    }
    seqs.push(seqs[seqs.len() - 1].clone());
    seqs
}

/// A fast-but-flaky / slow-but-safe pool with a free-writing third
/// processor, and a two-tier hierarchy with replica-write contention.
fn hetero_setup(lambda: f64) -> (HeteroPlatform, StorageHierarchy) {
    let platform = HeteroPlatform::new(
        vec![
            Processor {
                speed: 1.4,
                ..Processor::reference(4.0 * lambda)
            },
            Processor::reference(lambda),
            Processor {
                speed: 0.7,
                write_bw: 2.0,
                ..Processor::reference(0.5 * lambda)
            },
        ],
        1.0,
    )
    .unwrap();
    let hierarchy = StorageHierarchy::new(vec![
        StorageTier::unit("local"),
        StorageTier {
            name: "pfs".to_string(),
            write_bw: 0.5,
            read_bw: 4.0,
            compression: 1.0,
            contention: 0.25,
        },
    ])
    .unwrap();
    (platform, hierarchy)
}

#[test]
fn candidates_make_zero_allocations_after_the_scratch_is_built() {
    let _guard = SERIAL.lock().unwrap();
    let n = 80;
    let wf = workflow(n, 3);
    let order = topo::topological_order(wf.dag());
    let plan = EvalPlan::new(&wf, &order);
    let seqs = candidate_sequences(&wf, &order, 9);
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
fn replicated_candidates_and_moves_make_zero_allocations_after_warm_up() {
    let _guard = SERIAL.lock().unwrap();
    let n = 60;
    let wf = workflow(n, 4);
    let order = topo::topological_order(wf.dag());
    let plan = EvalPlan::new(&wf, &order);
    let seqs = candidate_sequences(&wf, &order, 10);
    let (platform, hierarchy) = hetero_setup(2e-3);
    let ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &vec![2; n])
        .with_storage(&hierarchy, &vec![0; n]);

    // One sweep worker's candidates.
    let mut eval = ev.flag_evaluator(&plan);
    let mut sink = eval(&seqs[0], f64::INFINITY);
    let before = alloc_count();
    for flags in &seqs {
        sink += eval(flags, f64::INFINITY);
    }
    let allocs = alloc_count() - before;
    drop(eval);
    assert!(sink.is_finite() && sink > 0.0);
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations over {} candidates",
        seqs.len()
    );

    // Replica and tier moves, each followed by a resumed evaluation.
    let mut ev = ev;
    let schedule = plan.schedule(&seqs[n / 2]);
    let sets: [&[usize]; 4] = [&[0], &[1, 2], &[0, 1, 2], &[2]];
    let moves: Vec<(usize, usize)> = (0..3 * n).map(|m| ((m * 7) % n, m % 4)).collect();
    sink = ev.expected_makespan(&schedule);
    let before = alloc_count();
    for &(task, choice) in &moves {
        ev.set_replicas(task, sets[choice]);
        sink += ev.expected_makespan(&schedule);
        ev.set_tier(task, choice % 2);
        sink += ev.expected_makespan(&schedule);
    }
    let allocs = alloc_count() - before;
    assert!(sink.is_finite() && sink > 0.0);
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations over {} moves",
        2 * moves.len()
    );
}

#[test]
fn sweep_allocations_do_not_grow_with_the_candidate_count() {
    let _guard = SERIAL.lock().unwrap();
    // One worker: the sweep runs inline, so the count is exact.
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let model = FaultModel::new(1e-3, 0.5);
    let (platform, _) = hetero_setup(1e-3);
    let count = |n: usize, strategy: CheckpointStrategy, replicated: bool| {
        let wf = workflow(n, 5);
        let order = topo::topological_order(wf.dag());
        let ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &vec![2; n]);
        let before = alloc_count();
        let r = if replicated {
            optimize_checkpoints_with(&wf, &ev, &order, strategy, SweepPolicy::Exhaustive)
        } else {
            optimize_checkpoints(&wf, model, &order, strategy, SweepPolicy::Exhaustive)
        };
        let allocs = alloc_count() - before;
        assert_eq!(r.evaluated, n + 1);
        allocs
    };
    for strategy in [
        CheckpointStrategy::ByDecreasingWork,
        CheckpointStrategy::Periodic,
    ] {
        for replicated in [false, true] {
            let small = count(40, strategy, replicated);
            let large = count(160, strategy, replicated);
            // 120 more candidates; the per-run setup (plan, scratch,
            // ranking, winner schedule) may grow by a few reallocations,
            // not per candidate.
            assert!(
                large <= small + 8,
                "{strategy:?} (replicated: {replicated}): {small} allocations at n = 40, \
                 {large} at n = 160"
            );
        }
    }
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}

/// Under `w` workers a sweep allocates its per-sweep setup (plan,
/// ranking, range table, winner schedule) once and at most one evaluator,
/// one flag vector and one thread per worker, wherever the steals land
/// (a worker that claims nothing builds no evaluator). Together with the
/// one-worker test above: never per candidate.
#[test]
fn sweep_allocations_are_bounded_by_the_worker_count() {
    let _guard = SERIAL.lock().unwrap();
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    let model = FaultModel::new(1e-3, 0.5);
    let (platform, _) = hetero_setup(1e-3);
    // Fewest allocations over repeats: harness threads never remove any.
    let count = |n: usize, workers: usize, strategy: CheckpointStrategy, replicated: bool| {
        std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
        let wf = workflow(n, 6);
        let order = topo::topological_order(wf.dag());
        let ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &vec![2; n]);
        (0..3)
            .map(|_| {
                let before = ALL_ALLOCS.load(Ordering::Relaxed);
                let r = if replicated {
                    optimize_checkpoints_with(&wf, &ev, &order, strategy, SweepPolicy::Exhaustive)
                } else {
                    optimize_checkpoints(&wf, model, &order, strategy, SweepPolicy::Exhaustive)
                };
                let allocs = ALL_ALLOCS.load(Ordering::Relaxed) - before;
                assert_eq!(r.evaluated, n + 1);
                allocs
            })
            .min()
            .unwrap()
    };
    // What each worker may add: its evaluator, its flags, and its thread
    // with the executor's dispatch slots (one worker runs inline).
    let per_worker = |n: usize, replicated: bool| {
        let wf = workflow(n, 6);
        let order = topo::topological_order(wf.dag());
        let plan = EvalPlan::new(&wf, &order);
        let ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &vec![2; n]);
        let proxy = ProxyObjective::new(&wf, model);
        let before = alloc_count();
        let eval = if replicated {
            ev.flag_evaluator(&plan)
        } else {
            proxy.flag_evaluator(&plan)
        };
        let allocs = alloc_count() - before;
        drop(eval);
        allocs + 1 + 16
    };
    for strategy in [
        CheckpointStrategy::ByDecreasingWork,
        CheckpointStrategy::Periodic,
    ] {
        for replicated in [false, true] {
            let one = count(160, 1, strategy, replicated);
            let extra = per_worker(160, replicated);
            for workers in 2..=4 {
                let many = count(160, workers, strategy, replicated);
                let bound = one + workers as u64 * extra;
                assert!(
                    many <= bound,
                    "{strategy:?} (replicated: {replicated}): {many} allocations under \
                     {workers} workers, bound {bound} ({one} under one)"
                );
            }
        }
    }
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}
