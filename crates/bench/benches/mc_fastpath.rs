//! Monte-Carlo fast-path speedup: compiled trial plans versus the
//! per-trial reference engines.
//!
//! Every campaign runner compiles the `(workflow, schedule, costs)` cell
//! into a flat [`TrialPlan`] once, recovery rows included, so the steady
//! state does no heap allocation. The blocking and replicated engines do
//! no graph traversal either: after a fault they read the compiled row
//! of the wipe position. The non-blocking engine (with its per-worker
//! [`TrialScratch`]) reads the same rows while every checkpoint before
//! the wipe is durable, and otherwise walks the graph for the blocks
//! with an input from before the wipe. The reference engines
//! (`simulate`, `simulate_nonblocking`, `simulate_replicated_sets`) survive as
//! the differential-test oracles — and as the "before" side of this
//! bench.
//!
//! The matrix is {chain-200, cybershake-200 at λ = 1e-3, cybershake-200
//! at λ·W ≈ 4 (fault-heavy: the post-fault path)} × {blocking,
//! non-blocking, replicated}, timed trial-for-trial on one thread with
//! identical seeds, so the ratio isolates per-trial work (the statistics
//! spine is shared). Besides the criterion table, the bench emits
//! `BENCH_mc.json` (working directory) with trials/sec before/after, the
//! speedup, and the plan's compile time and row bytes per row.
//! `--quick` (the CI smoke mode) skips the criterion table and shrinks
//! the trial counts.

use criterion::{criterion_group, Criterion};
use dagchkpt_core::{CostRule, Schedule, Workflow};
use dagchkpt_dag::{generators, topo, FixedBitSet};
use dagchkpt_failure::{ExponentialInjector, HeteroPlatform, Processor};
use dagchkpt_sim::{
    simulate, simulate_nonblocking, simulate_nonblocking_planned, simulate_planned,
    simulate_replicated_planned, simulate_replicated_sets, NonBlockingConfig, SimConfig, TrialPlan,
    TrialScratch, TrialSpec,
};
use std::time::Instant;

const N_TASKS: usize = 200;
const LAMBDA: f64 = 1e-3;
/// Faults per unit of total work on the fault-heavy row (λ·W).
const HEAVY_LAMBDA_W: f64 = 4.0;
const DOWNTIME: f64 = 1.0;
const COMPUTE_RATE: f64 = 0.8;

/// `(name, workflow, schedule, λ)` per matrix row group.
fn fixtures() -> Vec<(&'static str, Workflow, Schedule, f64)> {
    let chain = Workflow::uniform(generators::chain(N_TASKS), 10.0, 1.0);
    let cyber = dagchkpt_workflows::cybershake::generate(
        N_TASKS,
        10.0,
        CostRule::ProportionalToWork { ratio: 0.1 },
        42,
    );
    let heavy = HEAVY_LAMBDA_W / cyber.total_work();
    [
        ("chain-200", chain, LAMBDA),
        ("cybershake-200", cyber.clone(), LAMBDA),
        ("cybershake-200-lw4", cyber, heavy),
    ]
    .into_iter()
    .map(|(name, wf, lambda)| {
        let order = topo::topological_order(wf.dag());
        let n = wf.n_tasks();
        let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|i| i % 4 == 0));
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        (name, wf, s, lambda)
    })
    .collect()
}

fn platform2(lambda: f64) -> HeteroPlatform {
    HeteroPlatform::new(
        vec![
            Processor {
                speed: 2.0,
                ..Processor::reference(lambda)
            },
            Processor::reference(lambda / 4.0),
        ],
        DOWNTIME,
    )
    .unwrap()
}

/// Wall-clock seconds of `f(i)` over trials `0..trials`, after a short
/// warmup slice.
fn time_trials(trials: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    let mut sink = 0.0;
    for i in 0..(trials / 10).max(1) {
        sink += f(i);
    }
    let start = Instant::now();
    for i in 0..trials {
        sink += f(i);
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(sink.is_finite());
    secs
}

struct Row {
    workflow: &'static str,
    engine: &'static str,
    trials: usize,
    before_tps: f64,
    after_tps: f64,
    compile_ms: f64,
    row_bytes: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.after_tps / self.before_tps
    }
}

/// Times one (workflow, engine) cell both ways and returns the row.
fn measure(
    name: &'static str,
    wf: &Workflow,
    s: &Schedule,
    lambda: f64,
    engine: &'static str,
    trials: usize,
) -> Row {
    let spec = TrialSpec::new(trials, 77);
    let start = Instant::now();
    let plan = TrialPlan::compile(wf, s);
    let compile_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut scratch = TrialScratch::new(plan.n_tasks());
    let cfg = SimConfig {
        downtime: DOWNTIME,
        record_trace: false,
    };
    let nb_cfg = NonBlockingConfig {
        downtime: DOWNTIME,
        compute_rate: COMPUTE_RATE,
        record_trace: false,
    };
    let platform = platform2(lambda);
    let degrees: Vec<usize> = (0..wf.n_tasks()).map(|i| 1 + i % 2).collect();
    let owned_sets: Vec<Vec<usize>> = degrees.iter().map(|&d| (0..d).collect()).collect();
    let sets: Vec<&[usize]> = owned_sets.iter().map(Vec::as_slice).collect();
    let mut injectors: Vec<ExponentialInjector> = Vec::with_capacity(2);
    let fill_injectors = |injectors: &mut Vec<ExponentialInjector>, i: usize| {
        injectors.clear();
        injectors.extend((0..2).map(|rank| {
            ExponentialInjector::new(platform.procs()[rank].lambda, spec.proc_seed(i, rank))
        }));
    };

    let (before, after) = match engine {
        "blocking" => (
            time_trials(trials, |i| {
                let mut inj = ExponentialInjector::new(lambda, spec.trial_seed(i));
                simulate(wf, s, &mut inj, cfg).makespan
            }),
            time_trials(trials, |i| {
                let mut inj = ExponentialInjector::new(lambda, spec.trial_seed(i));
                simulate_planned(&plan, &mut inj, DOWNTIME).makespan
            }),
        ),
        "nonblocking" => (
            time_trials(trials, |i| {
                let mut inj = ExponentialInjector::new(lambda, spec.trial_seed(i));
                simulate_nonblocking(wf, s, &mut inj, nb_cfg).makespan
            }),
            time_trials(trials, |i| {
                let mut inj = ExponentialInjector::new(lambda, spec.trial_seed(i));
                simulate_nonblocking_planned(&plan, &mut scratch, &mut inj, nb_cfg).makespan
            }),
        ),
        "replicated" => (
            time_trials(trials, |i| {
                fill_injectors(&mut injectors, i);
                simulate_replicated_sets(wf, s, &platform, &owned_sets, &mut injectors).makespan
            }),
            time_trials(trials, |i| {
                fill_injectors(&mut injectors, i);
                simulate_replicated_planned(&plan, &platform, &sets, &mut injectors).makespan
            }),
        ),
        other => panic!("unknown engine {other}"),
    };
    Row {
        workflow: name,
        engine,
        trials,
        before_tps: trials as f64 / before,
        after_tps: trials as f64 / after,
        compile_ms,
        row_bytes: plan.row_bytes(),
    }
}

fn run_matrix(trials: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, wf, s, lambda) in &fixtures() {
        for engine in ["blocking", "nonblocking", "replicated"] {
            rows.push(measure(name, wf, s, *lambda, engine, trials));
        }
    }
    rows
}

fn write_json(rows: &[Row], quick: bool) {
    let mut body = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        body.push_str(&format!(
            "    {{\"workflow\": \"{}\", \"engine\": \"{}\", \"trials\": {}, \
             \"before_trials_per_sec\": {:.1}, \"after_trials_per_sec\": {:.1}, \
             \"speedup\": {:.2}, \"compile_ms\": {:.3}, \"row_bytes\": {}}}",
            r.workflow,
            r.engine,
            r.trials,
            r.before_tps,
            r.after_tps,
            r.speedup(),
            r.compile_ms,
            r.row_bytes
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"mc_fastpath\",\n  \"n_tasks\": {N_TASKS},\n  \
         \"quick\": {quick},\n  \"rows\": [\n{body}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_mc.json", &json).expect("write BENCH_mc.json");
}

fn bench_fastpath(c: &mut Criterion) {
    let fixtures = fixtures();
    let (name, wf, s, _) = &fixtures[0];
    let plan = TrialPlan::compile(wf, s);
    let spec = TrialSpec::new(64, 77);
    let cfg = SimConfig {
        downtime: DOWNTIME,
        record_trace: false,
    };
    let mut g = c.benchmark_group(format!("mc_fastpath/{name}/blocking"));
    g.sample_size(10);
    g.bench_function("reference_64_trials", |b| {
        b.iter(|| {
            (0..64)
                .map(|i| {
                    let mut inj = ExponentialInjector::new(LAMBDA, spec.trial_seed(i));
                    simulate(wf, s, &mut inj, cfg).makespan
                })
                .sum::<f64>()
        })
    });
    g.bench_function("planned_64_trials", |b| {
        b.iter(|| {
            (0..64)
                .map(|i| {
                    let mut inj = ExponentialInjector::new(LAMBDA, spec.trial_seed(i));
                    simulate_planned(&plan, &mut inj, DOWNTIME).makespan
                })
                .sum::<f64>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fastpath);

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if !quick {
        benches();
    }
    let trials = if quick { 160 } else { 1_500 };
    let rows = run_matrix(trials);
    write_json(&rows, quick);
    println!("\nwrote BENCH_mc.json ({} rows):", rows.len());
    for r in &rows {
        println!(
            "  {:>18} {:>12}: {:>9.1} -> {:>9.1} trials/sec ({:.2}x; compile {:.3} ms, rows {} B)",
            r.workflow,
            r.engine,
            r.before_tps,
            r.after_tps,
            r.speedup(),
            r.compile_ms,
            r.row_bytes
        );
    }
}
