//! Optimizer hot path: the replication-aware checkpoint-budget sweep on
//! the compiled, resumable evaluator vs the same sweep evaluating every
//! candidate from scratch, on a 200-task Pegasus workflow over a
//! 3-processor heterogeneous platform.
//!
//! Ranked budgets are nested, so consecutive candidates differ in one
//! checkpoint flag: the resumed sweep recomputes only the lost-set
//! columns, attempt statistics and assembly rows after it. The baseline
//! wraps the evaluator in an [`Objective`] with only `cost`, so each
//! candidate builds its schedule and compiles a fresh scratch — the path
//! every backend without a compiled evaluator takes. Both pick
//! **bit-identical** winners (asserted here before timing; the unit tests
//! of `dagchkpt-core` pin both paths to the uncached reference oracle).
//!
//! Two proxy-sweep rows time the homogeneous Theorem-3 sweep per
//! candidate: `CkptPer` on the same 200-task CyberShake (several flags
//! change per budget, so each candidate resumes from its first reached
//! flip), and DF-CkptW on a 700-task CyberShake (the depth-first
//! linearization with the heaviest-first ranked budgets of the paper's
//! largest figure size).
//!
//! Besides the criterion table, this bench emits `BENCH_optimizer.json`
//! (working directory) with the measured means, the speedup and the
//! proxy rows' microseconds per candidate, so CI and tooling can track
//! the hot path without parsing the table.

use criterion::{criterion_group, Criterion};
use dagchkpt_core::{
    optimize_checkpoints, optimize_checkpoints_with, CheckpointStrategy, CostRule,
    LinearizationStrategy, Objective, OptimizedSchedule, ReplicatedEvaluator, Schedule,
    SweepPolicy, Workflow,
};
use dagchkpt_dag::NodeId;
use dagchkpt_failure::{FaultModel, HeteroPlatform, Processor};
use dagchkpt_workflows::PegasusKind;
use std::time::Instant;

const N_TASKS: usize = 200;

fn setup() -> (Workflow, Vec<NodeId>, HeteroPlatform, Vec<usize>) {
    let wf =
        PegasusKind::CyberShake.generate(N_TASKS, CostRule::ProportionalToWork { ratio: 0.1 }, 9);
    let order = dagchkpt_core::linearize(&wf, LinearizationStrategy::DepthFirst);
    let lambda = PegasusKind::CyberShake.default_lambda();
    let platform = HeteroPlatform::new(
        vec![
            Processor {
                speed: 1.4,
                ..Processor::reference(4.0 * lambda)
            },
            Processor::reference(lambda),
            Processor {
                speed: 0.7,
                ..Processor::reference(0.5 * lambda)
            },
        ],
        1.0,
    )
    .expect("valid platform");
    let degrees = vec![2usize; N_TASKS];
    (wf, order, platform, degrees)
}

/// The evaluator behind an [`Objective`] with only `cost`: every
/// candidate is evaluated on a freshly compiled scratch.
struct Fresh<'a>(ReplicatedEvaluator<'a>);

impl Objective for Fresh<'_> {
    fn cost(&self, schedule: &Schedule) -> f64 {
        self.0.cost(schedule)
    }

    fn label(&self) -> &'static str {
        "fresh"
    }
}

/// The exhaustive DF-CkptW sweep, resumed or from scratch per candidate.
fn sweep(
    wf: &Workflow,
    order: &[NodeId],
    platform: &HeteroPlatform,
    degrees: &[usize],
    resume: bool,
) -> OptimizedSchedule {
    let ev = ReplicatedEvaluator::from_degrees(wf, platform, degrees);
    let (strategy, policy) = (
        CheckpointStrategy::ByDecreasingWork,
        SweepPolicy::Exhaustive,
    );
    if resume {
        optimize_checkpoints_with(wf, &ev, order, strategy, policy)
    } else {
        optimize_checkpoints_with(wf, &Fresh(ev), order, strategy, policy)
    }
}

/// Mean wall-clock nanoseconds of `f` over `reps` runs (after one warmup).
fn mean_ns<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

fn bench_sweep_replicated(c: &mut Criterion) {
    let (wf, order, platform, degrees) = setup();

    // Correctness anchor before any timing: identical winners, bit for bit.
    let a = sweep(&wf, &order, &platform, &degrees, true);
    let b = sweep(&wf, &order, &platform, &degrees, false);
    assert_eq!(a.expected_makespan.to_bits(), b.expected_makespan.to_bits());
    assert_eq!(a.best_n, b.best_n);
    assert_eq!(a.evaluated, b.evaluated);
    assert_eq!(a.schedule.checkpoints(), b.schedule.checkpoints());

    let mut g = c.benchmark_group("optimizer/sweep_replicated");
    g.sample_size(10);
    g.bench_function("resumed", |bch| {
        bch.iter(|| sweep(&wf, &order, &platform, &degrees, true))
    });
    g.bench_function("fresh_per_candidate", |bch| {
        bch.iter(|| sweep(&wf, &order, &platform, &degrees, false))
    });
    g.finish();
}

/// One proxy-sweep row: a CyberShake workflow of `n` tasks under the
/// depth-first linearization and the paper's default failure rate.
struct ProxyRow {
    name: &'static str,
    wf: Workflow,
    order: Vec<NodeId>,
    strategy: CheckpointStrategy,
}

impl ProxyRow {
    fn new(name: &'static str, n: usize, strategy: CheckpointStrategy) -> Self {
        let wf =
            PegasusKind::CyberShake.generate(n, CostRule::ProportionalToWork { ratio: 0.1 }, 9);
        let order = dagchkpt_core::linearize(&wf, LinearizationStrategy::DepthFirst);
        ProxyRow {
            name,
            wf,
            order,
            strategy,
        }
    }

    fn sweep(&self) -> OptimizedSchedule {
        let model = FaultModel::new(PegasusKind::CyberShake.default_lambda(), 0.0);
        optimize_checkpoints(
            &self.wf,
            model,
            &self.order,
            self.strategy,
            SweepPolicy::Exhaustive,
        )
    }
}

fn proxy_rows() -> [ProxyRow; 2] {
    [
        ProxyRow::new("ckpt_per_n200", N_TASKS, CheckpointStrategy::Periodic),
        ProxyRow::new("df_ckptw_n700", 700, CheckpointStrategy::ByDecreasingWork),
    ]
}

fn bench_sweep_proxy(c: &mut Criterion) {
    let mut g = c.benchmark_group("optimizer/sweep_proxy");
    g.sample_size(10);
    for row in proxy_rows() {
        g.bench_function(row.name, |bch| bch.iter(|| row.sweep()));
    }
    g.finish();
}

criterion_group!(benches, bench_sweep_replicated, bench_sweep_proxy);

fn main() {
    benches();

    // The JSON artifact: independent Instant-based means (the vendored
    // criterion does not expose its samples).
    let (wf, order, platform, degrees) = setup();
    let resumed = mean_ns(3, || sweep(&wf, &order, &platform, &degrees, true));
    let fresh = mean_ns(3, || sweep(&wf, &order, &platform, &degrees, false));
    let mut proxy = String::new();
    for row in proxy_rows() {
        let candidates = row.sweep().evaluated as f64;
        let us = mean_ns(3, || row.sweep()) / 1e3 / candidates;
        println!(
            "optimizer/sweep_proxy/{}: {us:.1} us per candidate",
            row.name
        );
        proxy.push_str(&format!("  \"{}_us_per_candidate\": {us:.2},\n", row.name));
    }
    let json = format!(
        "{{\n  \"bench\": \"optimizer/sweep_replicated\",\n  \
         \"workflow\": \"CyberShake\",\n  \"n_tasks\": {N_TASKS},\n  \
         \"n_procs\": {},\n  \"replication_degree\": 2,\n  \
         \"resumed_mean_ns\": {resumed:.0},\n  \
         \"fresh_mean_ns\": {fresh:.0},\n  \"speedup\": {:.3},\n\
         {proxy}  \"bit_identical\": true\n}}\n",
        platform.n_procs(),
        fresh / resumed
    );
    std::fs::write("BENCH_optimizer.json", &json).expect("write BENCH_optimizer.json");
    println!(
        "\nwrote BENCH_optimizer.json: speedup {:.2}x",
        fresh / resumed
    );
}
