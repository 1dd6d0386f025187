//! The traced replay of a batch pass: every cell of every stage is re-run
//! layer by layer through the repository's public API, with a span around
//! each layer call, and checked bit for bit against the untraced
//! `run_cell_full` result of the same cell.
//!
//! The replay mirrors the cell pipeline's dispatch for the paths the
//! batch workloads exercise (proxy / replication-aware / joint optimizers,
//! the quantile objective, every Monte-Carlo engine, the tenant engine).
//! Storage-axis cells replay their Monte-Carlo rows only; their tier
//! optimization stays inside `exec.self_ms`. Monte-Carlo schedules are
//! rebuilt from `CellExecution::schedules`, so a simulator replay does not
//! depend on the optimizer replay.

use crate::trace::{self, span, Counted};
use crate::workload::StagePlan;
use dagchkpt_bench::csvout::CsvWriter;
use dagchkpt_bench::runner::Row;
use dagchkpt_bench::{
    cell_best_rows, cell_csv_rows, stage_header, tenant_csv_rows, AdmissionPolicy, ArrivalSpec,
    CellExecution, CellPlan, FailureCell, ObjectiveSpec, OptimizerSpec, OutputFormat, ScenarioSpec,
    ScheduleDetail, SimulatorSpec, StrategyCell,
};
use dagchkpt_core::evaluator::recovery::RecoveryMatrices;
use dagchkpt_core::{
    evaluator, expected_makespan_replicated, linearize, optimize_checkpoints_quantile,
    optimize_checkpoints_with, optimize_joint, storage_scales, Objective, ProxyObjective,
    ReplicatedEvaluator, Schedule, SweepPolicy, Workflow,
};
use dagchkpt_dag::{FixedBitSet, NodeId};
use dagchkpt_failure::{
    ExponentialInjector, FaultInjector, FaultModel, HeteroPlatform, Processor, TraceInjector,
    WeibullInjector,
};
use dagchkpt_serve::ResponseCache;
use dagchkpt_sim::{
    run_nonblocking_trials_with, run_replicated_sets_trials_with, run_replicated_trials_with,
    run_tenant_trials_with, run_trials_with, simulate_replicated_nonblocking,
    simulate_replicated_nonblocking_sets, trial_metric_tail_stats, McObjective, NonBlockingConfig,
    TenantConfig, TenantJob, TenantPolicy, TrialPlan, TrialSpec,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Joint coordinate-descent rounds the cell pipeline uses.
const JOINT_ROUNDS: usize = 4;
/// Seed salt of the cell pipeline's quantile-objective trial stream.
const TAIL_OBJECTIVE_SALT: u64 = 0x9D3C_55F2_71E4_A0B7;

/// Spans that measure something beside the pipeline's own work (evaluator
/// sampling, a standalone plan compile): excluded from the replay's wall
/// time and from the children that `exec.self_ms` subtracts.
pub const EXTRA_SPANS: [&str; 2] = ["evaluator.sample", "trialplan.compile"];

/// Outcome of one traced replay pass.
pub struct ReplayOut {
    pub mismatches: Vec<String>,
    pub cells: usize,
}

/// Replays every cell of `stages` against the untraced executions
/// `execs` (same shape: per stage, per cell), writing the formatted rows
/// under `dir`. With `spec_ops`, each stage's spec also goes through the
/// spec-layer operations a served request pays.
pub fn replay_pass(
    stages: &[StagePlan],
    execs: &[Vec<CellExecution>],
    dir: &Path,
    spec_ops: bool,
) -> ReplayOut {
    let mut out = ReplayOut {
        mismatches: Vec::new(),
        cells: 0,
    };
    for (stage, stage_execs) in stages.iter().zip(execs) {
        if spec_ops {
            scenario_ops(&stage.spec, stage.output.format);
        }
        let mut writers = match Writers::open(stage, dir) {
            Ok(w) => w,
            Err(e) => {
                out.mismatches.push(e);
                continue;
            }
        };
        for (plan, exec) in stage.cells.iter().zip(stage_execs) {
            let _cell = span("cell");
            replay_cell(&stage.spec, plan, exec, &mut out.mismatches);
            let _f = span("format");
            if let Err(e) = writers.write(stage.output.format, exec) {
                out.mismatches.push(e);
            }
        }
        if let Err(e) = writers.flush() {
            out.mismatches.push(e);
        }
        out.cells += stage.cells.len();
    }
    out
}

/// The spec-layer operations a served request pays, once per stage:
/// canonical JSON + cache key, decode, validate, expand.
fn scenario_ops(spec: &ScenarioSpec, format: OutputFormat) {
    let json = {
        let _s = span("scenario.key");
        let json = spec.to_json();
        std::hint::black_box(ResponseCache::key(&json, 0, format));
        json
    };
    {
        let _s = span("scenario.decode");
        std::hint::black_box(ScenarioSpec::from_json(&json).ok());
    }
    {
        let _s = span("scenario.validate");
        std::hint::black_box(spec.validate().ok());
    }
    let _s = span("scenario.expand");
    std::hint::black_box(spec.expand().ok());
}

struct Writers {
    csv: CsvWriter,
    best: Option<CsvWriter>,
}

impl Writers {
    fn open(stage: &StagePlan, dir: &Path) -> Result<Writers, String> {
        let out = &stage.output;
        let header = stage_header(out.format, &stage.spec.simulators);
        let header: Vec<&str> = header.iter().map(String::as_str).collect();
        let csv = CsvWriter::open(dir.join(&out.file), &header, false)
            .map_err(|e| format!("{}: {e}", out.file))?;
        let best = if out.best_file.is_empty() {
            None
        } else {
            Some(
                CsvWriter::open(dir.join(&out.best_file), &Row::CSV_HEADER, false)
                    .map_err(|e| format!("{}: {e}", out.best_file))?,
            )
        };
        Ok(Writers { csv, best })
    }

    fn write(&mut self, format: OutputFormat, exec: &CellExecution) -> Result<(), String> {
        let body = if format == OutputFormat::TenantRows {
            tenant_csv_rows(&exec.tenants)
        } else {
            cell_csv_rows(format, &exec.rows)
        };
        trace::add("format.rows", body.len() as f64);
        for line in body {
            self.csv.write_row(line).map_err(|e| e.to_string())?;
        }
        if let Some(best) = self.best.as_mut() {
            for line in cell_best_rows(&exec.rows) {
                best.write_row(line).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), String> {
        self.csv.flush().map_err(|e| e.to_string())?;
        if let Some(best) = self.best.as_mut() {
            best.flush().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Fault source for one trial, matched to the cell's failure model (the
/// cell pipeline's own mapping).
pub enum CellInjector {
    Exp(ExponentialInjector),
    Weibull(WeibullInjector),
    Trace(TraceInjector),
}

impl FaultInjector for CellInjector {
    fn next_fault_after(&mut self, t: f64) -> f64 {
        match self {
            CellInjector::Exp(i) => i.next_fault_after(t),
            CellInjector::Weibull(i) => i.next_fault_after(t),
            CellInjector::Trace(i) => i.next_fault_after(t),
        }
    }
}

fn make_injector(failure: &FailureCell, seed: u64) -> CellInjector {
    match failure {
        FailureCell::Exponential { lambda, .. } => {
            CellInjector::Exp(ExponentialInjector::new(*lambda, seed))
        }
        FailureCell::Weibull { mtbf, shape, .. } => {
            CellInjector::Weibull(WeibullInjector::with_mtbf(*mtbf, *shape, seed))
        }
        FailureCell::Trace { times, .. } => CellInjector::Trace(TraceInjector::new(times.clone())),
    }
}

fn make_proc_injector(proc: &Processor, seed: u64) -> CellInjector {
    match proc.shape {
        Some(shape) if proc.lambda > 0.0 => {
            CellInjector::Weibull(WeibullInjector::with_mtbf(1.0 / proc.lambda, shape, seed))
        }
        _ => CellInjector::Exp(ExponentialInjector::new(proc.lambda, seed)),
    }
}

/// The cell's platform and per-task degrees; `None` on the single
/// reference machine, including the degenerate collapse.
fn resolve_hetero(
    plan: &CellPlan,
    wf: &Workflow,
    model: FaultModel,
) -> Result<Option<(HeteroPlatform, Vec<usize>)>, String> {
    let Some(pspec) = &plan.platform else {
        return Ok(None);
    };
    let platform = pspec.resolve(&plan.failure).map_err(|e| e.to_string())?;
    let strategy = plan
        .replication
        .map(|r| r.strategy())
        .unwrap_or(dagchkpt_core::ReplicationStrategy::None);
    let degrees = strategy.degrees(wf, platform.n_procs());
    let degenerate = platform.is_degenerate()
        && platform.procs()[0].lambda == model.lambda()
        && degrees.iter().all(|&d| d == 1);
    Ok((!degenerate).then_some((platform, degrees)))
}

fn rebuild_schedule(wf: &Workflow, d: &ScheduleDetail) -> Result<Schedule, String> {
    let order: Vec<NodeId> = d.order.iter().map(|&i| NodeId(i as u32)).collect();
    let set = FixedBitSet::from_indices(wf.n_tasks(), d.checkpoints.iter().copied());
    Schedule::new(wf, order, set).map_err(|e| format!("{}: {e}", d.strategy))
}

fn same_schedule(s: &Schedule, d: &ScheduleDetail) -> bool {
    s.order()
        .iter()
        .map(|v| v.index())
        .eq(d.order.iter().copied())
        && s.checkpoints().iter().eq(d.checkpoints.iter().copied())
}

fn replay_cell(
    spec: &ScenarioSpec,
    plan: &CellPlan,
    exec: &CellExecution,
    mismatches: &mut Vec<String>,
) {
    let tag = format!("{} cell {}", spec.name, plan.index);
    let source = &spec.workflows[plan.source];
    let wf = {
        let _s = span("workflows.generate");
        source.generate(plan.n, plan.seed)
    };
    let wf = match wf {
        Ok(wf) => wf,
        Err(e) => return mismatches.push(format!("{tag}: {e}")),
    };
    trace::add("workflows.tasks", wf.n_tasks() as f64);
    let model = plan.failure.proxy_model();
    let policy = spec.sweep.policy(plan.n);
    let hetero = match resolve_hetero(plan, &wf, model) {
        Ok(h) => h,
        Err(e) => return mismatches.push(format!("{tag}: {e}")),
    };
    let storage = spec.storage.resolve().ok().flatten();
    let strategies = spec.strategy_cells();
    let n_sims = spec.simulators.len();
    if exec.schedules.len() != strategies.len() || exec.rows.len() != strategies.len() * n_sims {
        return mismatches.push(format!("{tag}: result shape differs from the spec"));
    }
    for (k, (strat, detail)) in strategies.iter().zip(&exec.schedules).enumerate() {
        let stag = format!("{tag} {}", detail.strategy);
        if storage.is_none() {
            if let Some(Replayed {
                schedule,
                expected,
                sets,
            }) = replay_strategy(
                &wf,
                model,
                *strat,
                policy,
                plan.optimizer,
                spec.objective,
                plan.seed,
                hetero.as_ref(),
            ) {
                if expected.to_bits() != detail.expected.to_bits() {
                    mismatches.push(format!(
                        "{stag}: expected {expected:?} replayed vs {:?}",
                        detail.expected
                    ));
                }
                if !same_schedule(&schedule, detail) || sets != detail.replica_sets {
                    mismatches.push(format!("{stag}: replayed schedule differs"));
                }
            }
        }
        let schedule = match rebuild_schedule(&wf, detail) {
            Ok(s) => s,
            Err(e) => {
                mismatches.push(format!("{tag}: {e}"));
                continue;
            }
        };
        let sim_wf = match (&storage, &detail.tiers) {
            (Some((hierarchy, _)), Some(tiers)) => {
                let n = wf.n_tasks();
                let counts: Vec<usize> = match (&hetero, &detail.replica_sets) {
                    (None, _) => vec![1; n],
                    (Some(_), Some(sets)) => sets.iter().map(|s| s.len().max(1)).collect(),
                    (Some((platform, degrees)), None) => degrees
                        .iter()
                        .map(|&d| d.clamp(1, platform.n_procs()))
                        .collect(),
                };
                let (ckpt, rec) = storage_scales(hierarchy, tiers, &counts);
                wf.with_scaled_costs(&ckpt, &rec)
            }
            _ => wf.clone(),
        };
        if !ArrivalSpec::is_off(&spec.arrivals) {
            replay_tenants(spec, plan, &wf, &schedule, exec, k, &tag, mismatches);
        }
        for (j, sim) in spec.simulators.iter().enumerate() {
            let row = &exec.rows[k * n_sims + j];
            let Some(mean) = replay_sim(*sim, &sim_wf, &schedule, plan, hetero.as_ref(), detail)
            else {
                continue;
            };
            if mean.to_bits() != row.mc_mean.to_bits() {
                mismatches.push(format!(
                    "{stag} {}: mc_mean {mean:?} replayed vs {:?}",
                    row.simulator, row.mc_mean
                ));
            }
        }
    }
}

/// Folds one counted proxy sweep (or single evaluation) into the
/// evaluator and sweep counters.
fn record_proxy(counted: &Counted<ProxyObjective>, n: usize) {
    let calls = counted.calls() as f64;
    let busy = counted.busy_ns() as f64;
    trace::add("evaluator.calls", calls);
    trace::add("evaluator.busy_ns", busy);
    if n == 200 {
        trace::add("evaluator.n200_calls", calls);
        trace::add("evaluator.n200_busy_ns", busy);
    }
    // Two (n+1)² f64 matrices per Theorem-3 evaluation (computed, not
    // measured).
    trace::add(
        "evaluator.matrix_bytes",
        calls * 2.0 * ((n + 1) * (n + 1) * 8) as f64,
    );
}

/// One sweep's counters: call, candidates, and self time (wall minus the
/// objective's busy time spread over the pool's threads).
fn record_sweep(evaluated: usize, wall_ns: u64, busy_ns: u64) {
    let threads = rayon::current_num_threads().max(1) as f64;
    trace::add("sweep.calls", 1.0);
    trace::add("sweep.candidates", evaluated as f64);
    trace::add(
        "sweep.self_ns",
        (wall_ns as f64 - busy_ns as f64 / threads).max(0.0),
    );
}

/// Times Theorem-3 recovery-matrix assembly against a whole evaluation on
/// one sampled schedule (the sweep's winner).
fn sample_recovery_share(wf: &Workflow, model: FaultModel, schedule: &Schedule) {
    let _s = span("evaluator.sample");
    const REPS: u32 = 3;
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(RecoveryMatrices::compute(wf, schedule));
    }
    let rec = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(evaluator::evaluate(wf, model, schedule));
    }
    trace::add("evaluator.sample_recovery_ns", rec);
    trace::add(
        "evaluator.sample_evaluate_ns",
        t.elapsed().as_nanos() as f64,
    );
}

/// One strategy's replayed optimization: the schedule, its expected
/// makespan, and the replica sets when the joint optimizer picked them.
struct Replayed {
    schedule: Schedule,
    expected: f64,
    sets: Option<Vec<Vec<usize>>>,
}

/// Replays one strategy's optimization; `None` for strategies the batch
/// workloads do not run (exact solvers, Young/Daly).
#[allow(clippy::too_many_arguments)]
fn replay_strategy(
    wf: &Workflow,
    model: FaultModel,
    strat: StrategyCell,
    policy: SweepPolicy,
    optimizer: OptimizerSpec,
    objective: ObjectiveSpec,
    seed: u64,
    hetero: Option<&(HeteroPlatform, Vec<usize>)>,
) -> Option<Replayed> {
    let StrategyCell::Heuristic(h) = strat else {
        trace::add("replay.skipped_strategies", 1.0);
        return None;
    };
    let n = wf.n_tasks();
    let order = {
        let _s = span("linearize");
        linearize(wf, h.lin)
    };
    let proxy = ProxyObjective::new(wf, model);
    if let Some((q, trials)) = objective.quantile_target() {
        let mc = McObjective::homogeneous(
            wf,
            model,
            TrialSpec::new(trials, seed ^ TAIL_OBJECTIVE_SALT),
        );
        let counted = Counted::new(&mc);
        let t = Instant::now();
        let r = {
            let _s = span("sweep");
            optimize_checkpoints_quantile(wf, &counted, &order, h.ckpt, policy, q)
        };
        let wall = t.elapsed().as_nanos() as u64;
        record_sweep(r.evaluated, wall, counted.busy_ns());
        trace::add(
            "mc.objective.trials",
            (counted.calls() as usize * trials) as f64,
        );
        trace::add("mc.objective.ns", wall as f64);
        let eval = Counted::new(&proxy);
        let expected = {
            let _s = span("evaluator");
            eval.cost(&r.schedule)
        };
        record_proxy(&eval, n);
        return Some(Replayed {
            schedule: r.schedule,
            expected,
            sets: None,
        });
    }
    match (optimizer, hetero) {
        (OptimizerSpec::Proxy, _) | (_, None) => {
            let counted = Counted::new(&proxy);
            let t = Instant::now();
            let opt = {
                let _s = span("sweep");
                optimize_checkpoints_with(wf, &counted, &order, h.ckpt, policy)
            };
            record_sweep(
                opt.evaluated,
                t.elapsed().as_nanos() as u64,
                counted.busy_ns(),
            );
            record_proxy(&counted, n);
            sample_recovery_share(wf, model, &opt.schedule);
            let expected = match hetero {
                None => opt.expected_makespan,
                Some((platform, degrees)) => {
                    let _s = span("replicated");
                    let t = Instant::now();
                    let e = expected_makespan_replicated(wf, platform, &opt.schedule, degrees);
                    trace::add("replicated.calls", 1.0);
                    trace::add("replicated.busy_ns", t.elapsed().as_nanos() as f64);
                    e
                }
            };
            Some(Replayed {
                schedule: opt.schedule,
                expected,
                sets: None,
            })
        }
        (OptimizerSpec::ReplicationAware, Some((platform, degrees))) => {
            let ev = ReplicatedEvaluator::from_degrees(wf, platform, degrees);
            let counted = Counted::new(&ev);
            let t = Instant::now();
            let opt = {
                let _s = span("sweep");
                optimize_checkpoints_with(wf, &counted, &order, h.ckpt, policy)
            };
            record_sweep(
                opt.evaluated,
                t.elapsed().as_nanos() as u64,
                counted.busy_ns(),
            );
            trace::add("replicated.calls", counted.calls() as f64);
            trace::add("replicated.busy_ns", counted.busy_ns() as f64);
            Some(Replayed {
                schedule: opt.schedule,
                expected: opt.expected_makespan,
                sets: None,
            })
        }
        (OptimizerSpec::Joint, Some((platform, degrees))) => {
            let j = {
                let _s = span("joint");
                optimize_joint(wf, platform, &order, h.ckpt, policy, degrees, JOINT_ROUNDS)
            };
            trace::add("joint.evaluated", j.evaluated as f64);
            Some(Replayed {
                schedule: j.schedule,
                expected: j.expected_makespan,
                sets: Some(j.replica_sets),
            })
        }
    }
}

/// Replays one simulator row; returns its Monte-Carlo mean (`None` for
/// the analytic simulator).
fn replay_sim(
    sim: SimulatorSpec,
    wf: &Workflow,
    schedule: &Schedule,
    plan: &CellPlan,
    hetero: Option<&(HeteroPlatform, Vec<usize>)>,
    detail: &ScheduleDetail,
) -> Option<f64> {
    let (trials, compute_rate) = match sim {
        SimulatorSpec::Analytic => return None,
        SimulatorSpec::MonteCarlo { trials } => (trials, None),
        SimulatorSpec::NonBlocking {
            trials,
            compute_rate,
        } => (trials, Some(compute_rate)),
    };
    let tspec = TrialSpec::new(trials, plan.seed);
    let sets = detail.replica_sets.as_ref();
    let (engine, mean) = match (compute_rate, hetero, sets) {
        (None, None, _) => {
            compile_plan(wf, schedule);
            let _s = span("mc.blocking");
            let stats = run_trials_with(wf, schedule, plan.failure.downtime(), tspec, |seed| {
                make_injector(&plan.failure, seed)
            });
            ("blocking", stats.makespan.mean())
        }
        (None, Some((platform, _)), Some(sets)) => {
            let _s = span("mc.replicated");
            let stats = run_replicated_sets_trials_with(
                wf,
                schedule,
                platform,
                sets,
                tspec,
                |rank, seed| make_proc_injector(&platform.procs()[rank], seed),
            );
            ("replicated", stats.makespan.mean())
        }
        (None, Some((platform, degrees)), None) => {
            let _s = span("mc.replicated");
            let stats =
                run_replicated_trials_with(wf, schedule, platform, degrees, tspec, |rank, seed| {
                    make_proc_injector(&platform.procs()[rank], seed)
                });
            ("replicated", stats.makespan.mean())
        }
        (Some(compute_rate), None, _) => {
            compile_plan(wf, schedule);
            let _s = span("mc.nonblocking");
            let cfg = NonBlockingConfig {
                downtime: plan.failure.downtime(),
                compute_rate,
                record_trace: false,
            };
            let (stats, _) = run_nonblocking_trials_with(wf, schedule, cfg, tspec, |seed| {
                make_injector(&plan.failure, seed)
            });
            ("nonblocking", stats.mean())
        }
        (Some(compute_rate), Some((platform, _)), Some(sets)) => {
            let _s = span("mc.replicated_nonblocking");
            let ranks = dagchkpt_core::replica_rank_count(sets);
            let (stats, _) = trial_metric_tail_stats(tspec, |i| {
                let mut injectors: Vec<CellInjector> = (0..ranks)
                    .map(|rank| {
                        make_proc_injector(&platform.procs()[rank], tspec.proc_seed(i, rank))
                    })
                    .collect();
                simulate_replicated_nonblocking_sets(
                    wf,
                    schedule,
                    platform,
                    sets,
                    &mut injectors,
                    compute_rate,
                )
                .makespan
            });
            ("replicated_nonblocking", stats.mean())
        }
        (Some(compute_rate), Some((platform, degrees)), None) => {
            let _s = span("mc.replicated_nonblocking");
            let ranks = degrees
                .iter()
                .map(|&d| d.clamp(1, platform.n_procs()))
                .max()
                .unwrap_or(1);
            let (stats, _) = trial_metric_tail_stats(tspec, |i| {
                let mut injectors: Vec<CellInjector> = (0..ranks)
                    .map(|rank| {
                        make_proc_injector(&platform.procs()[rank], tspec.proc_seed(i, rank))
                    })
                    .collect();
                simulate_replicated_nonblocking(
                    wf,
                    schedule,
                    platform,
                    degrees,
                    &mut injectors,
                    compute_rate,
                )
                .makespan
            });
            ("replicated_nonblocking", stats.mean())
        }
    };
    trace::add(trials_counter(engine), trials as f64);
    Some(mean)
}

/// Counter name of an engine's trial count.
fn trials_counter(engine: &str) -> &'static str {
    match engine {
        "blocking" => "mc.blocking.trials",
        "nonblocking" => "mc.nonblocking.trials",
        "replicated" => "mc.replicated.trials",
        "replicated_nonblocking" => "mc.replicated_nonblocking.trials",
        _ => "mc.tenant.trials",
    }
}

/// A standalone compile of the plan the next planned runner builds, timed
/// on its own (`trialplan.compile_ms` scales it by the pipeline's exact
/// compile count).
fn compile_plan(wf: &Workflow, schedule: &Schedule) {
    let _s = span("trialplan.compile");
    std::hint::black_box(TrialPlan::compile(wf, schedule));
}

/// Replays the multi-tenant contention engine for strategy `k` and checks
/// its per-tenant rows.
#[allow(clippy::too_many_arguments)]
fn replay_tenants(
    spec: &ScenarioSpec,
    plan: &CellPlan,
    wf: &Workflow,
    schedule: &Schedule,
    exec: &CellExecution,
    k: usize,
    tag: &str,
    mismatches: &mut Vec<String>,
) {
    let tenants = spec.tenancy.effective_tenants();
    let jobs: Vec<TenantJob> = spec
        .arrivals
        .times(plan.seed)
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| TenantJob {
            arrival,
            tenant: i % tenants.len(),
        })
        .collect();
    let speeds: Vec<f64> = match &plan.platform {
        None => vec![1.0],
        Some(p) => match p.resolve(&plan.failure) {
            Ok(platform) => platform.procs().iter().map(|pr| pr.speed).collect(),
            Err(e) => return mismatches.push(format!("{tag}: {e}")),
        },
    };
    let tinf = wf.total_work();
    let config = TenantConfig {
        speeds,
        downtime: plan.failure.downtime(),
        policy: match spec.tenancy.policy {
            AdmissionPolicy::Fcfs => TenantPolicy::Fcfs,
            AdmissionPolicy::Priority => TenantPolicy::Priority,
            AdmissionPolicy::FairShare => TenantPolicy::FairShare,
            AdmissionPolicy::RejectOverCapacity => TenantPolicy::RejectOverCapacity,
        },
        weights: tenants.iter().map(|t| t.weight).collect(),
        deadlines: tenants
            .iter()
            .map(|t| {
                if t.slo_factor > 0.0 {
                    t.slo_factor * tinf
                } else {
                    f64::INFINITY
                }
            })
            .collect(),
    };
    let Some(trials) = spec.simulators.iter().find_map(|s| match s {
        SimulatorSpec::MonteCarlo { trials } => Some(*trials),
        _ => None,
    }) else {
        return mismatches.push(format!("{tag}: arrivals without a montecarlo simulator"));
    };
    let stats = {
        let _s = span("mc.tenant");
        run_tenant_trials_with(
            wf,
            schedule,
            &jobs,
            &config,
            TrialSpec::new(trials, plan.seed),
            |seed| make_injector(&plan.failure, seed),
        )
    };
    trace::add("mc.tenant.trials", trials as f64);
    let rows = exec
        .tenants
        .iter()
        .skip(k * tenants.len())
        .take(tenants.len());
    for (t, row) in stats.iter().zip(rows) {
        if t.slo_rate().to_bits() != row.slo_rate.to_bits()
            || t.response.mean().to_bits() != row.mean_response.to_bits()
        {
            mismatches.push(format!(
                "{tag} tenant {}: replayed statistics differ",
                row.tenant
            ));
        }
    }
}

/// Time the replayed child layers of every cell account for (ms): what
/// `exec.self_ms` subtracts from the untraced cell time, leaving the cell
/// pipeline's own dispatch and cloning.
pub fn children_ms(spans: &[trace::Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "cell"))
        .filter(|s| !EXTRA_SPANS.contains(&s.name))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

/// Per-layer metrics of `passes` traced replays, from their spans and
/// counters (per pass unless the name says per call).
pub fn layer_metrics(
    spans: &[trace::Span],
    counters: &BTreeMap<&'static str, f64>,
    passes: f64,
) -> BTreeMap<&'static str, f64> {
    let totals = trace::totals(spans);
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let per = |v: f64| v / passes;
    let rate = |trials: f64, ms: f64| if ms > 0.0 { trials / (ms / 1e3) } else { 0.0 };
    let mut m = BTreeMap::new();
    m.insert("workflows.generate_ms", per(ms("workflows.generate")));
    m.insert("workflows.tasks", per(c("workflows.tasks")));
    m.insert("scenario.decode_us", mean_us("scenario.decode"));
    m.insert("scenario.validate_us", mean_us("scenario.validate"));
    // `expand` validates first; report its own share.
    m.insert(
        "scenario.expand_us",
        (mean_us("scenario.expand") - mean_us("scenario.validate")).max(0.0),
    );
    m.insert("scenario.key_us", mean_us("scenario.key"));
    m.insert("linearize.ms", per(ms("linearize")));
    m.insert("sweep.calls", per(c("sweep.calls")));
    m.insert("sweep.candidates", per(c("sweep.candidates")));
    m.insert("sweep.ms", per(ms("sweep")));
    m.insert("sweep.self_ms", per(c("sweep.self_ns") / 1e6));
    m.insert("evaluator.calls", per(c("evaluator.calls")));
    m.insert("evaluator.busy_ms", per(c("evaluator.busy_ns") / 1e6));
    let n200 = c("evaluator.n200_calls");
    m.insert(
        "evaluator.n200_us",
        if n200 > 0.0 {
            c("evaluator.n200_busy_ns") / 1e3 / n200
        } else {
            0.0
        },
    );
    let sampled = c("evaluator.sample_evaluate_ns");
    m.insert(
        "evaluator.recovery_share",
        if sampled > 0.0 {
            c("evaluator.sample_recovery_ns") / sampled
        } else {
            0.0
        },
    );
    m.insert(
        "evaluator.matrix_mb",
        per(c("evaluator.matrix_bytes") / (1024.0 * 1024.0)),
    );
    let rep_calls = c("replicated.calls");
    m.insert("replicated.calls", per(rep_calls));
    m.insert("replicated.busy_ms", per(c("replicated.busy_ns") / 1e6));
    m.insert(
        "replicated.us_per_call",
        if rep_calls > 0.0 {
            c("replicated.busy_ns") / 1e3 / rep_calls
        } else {
            0.0
        },
    );
    m.insert("joint.ms", per(ms("joint")));
    m.insert("joint.evaluated", per(c("joint.evaluated")));
    let engines = [
        ("blocking", "mc.blocking.trials_per_s"),
        ("nonblocking", "mc.nonblocking.trials_per_s"),
        ("replicated", "mc.replicated.trials_per_s"),
        (
            "replicated_nonblocking",
            "mc.replicated_nonblocking.trials_per_s",
        ),
        ("tenant", "mc.tenant.trials_per_s"),
    ];
    let mut mc_trials = 0.0;
    let mut mc_ms = 0.0;
    for (engine, metric) in engines {
        let trials = c(trials_counter(engine));
        let engine_ms = ms(match engine {
            "blocking" => "mc.blocking",
            "nonblocking" => "mc.nonblocking",
            "replicated" => "mc.replicated",
            "replicated_nonblocking" => "mc.replicated_nonblocking",
            _ => "mc.tenant",
        });
        mc_trials += trials;
        mc_ms += engine_ms;
        m.insert(metric, rate(trials, engine_ms));
    }
    let obj_trials = c("mc.objective.trials");
    m.insert(
        "mc.objective.trials_per_s",
        rate(obj_trials, c("mc.objective.ns") / 1e6),
    );
    m.insert("mc.trials", per(mc_trials + obj_trials));
    m.insert("mc.ms", per(mc_ms + c("mc.objective.ns") / 1e6));
    m.insert("format.rows", per(c("format.rows")));
    m.insert("format.ms", per(ms("format")));
    m
}
