//! Shared cell execution: turns one [`CellPlan`] of a [`ScenarioSpec`]
//! into result rows (and, for callers that need them, the optimized
//! schedules themselves).
//!
//! Factored out of the campaign engine so the batch CLI
//! (`dagchkpt-bench`) and the serving daemon (`dagchkpt-serve`) execute
//! requests through literally the same code path — a served answer is
//! byte-identical to the batch CSV because both are produced by
//! [`run_cell_full`] + [`cell_csv_rows`] with the same per-cell seeds.

use crate::campaign::OutputFormat;
use crate::runner::{best_per_ckpt_strategy, Row};
use crate::scenario::{
    AdmissionPolicy, ArrivalSpec, CellPlan, FailureCell, ObjectiveSpec, OptimizerSpec,
    ScenarioError, ScenarioSpec, SimulatorSpec, StorageSelect, StrategyCell,
};
use dagchkpt_core::{
    evaluator, exact, linearize, optimize_checkpoints_quantile, optimize_joint_with, run_heuristic,
    run_heuristic_with, select_storage, storage_scales, Heuristic, HeuristicResult,
    LinearizationStrategy, ReplicatedEvaluator, Schedule, SweepPolicy, Workflow,
};
use dagchkpt_failure::{
    daly, ExponentialInjector, FaultInjector, FaultModel, HeteroPlatform, StorageHierarchy,
    SurvivalHint, TraceInjector, WeibullInjector,
};
use dagchkpt_sim::{
    run_nonblocking_trials_with, run_replicated_nonblocking_trials_with,
    run_replicated_sets_trials_with, run_tenant_trials_with, run_trials_with, McObjective,
    NonBlockingConfig, TenantConfig, TenantJob, TenantPolicy, TrialSpec,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// One output row: a (cell, strategy, simulator) outcome.
#[derive(Debug, Clone, Serialize)]
pub struct CellResult {
    /// Cell index in the scenario's expansion.
    pub cell: usize,
    /// Workflow display name.
    pub workflow: String,
    /// Task count.
    pub n: usize,
    /// Proxy failure rate (the exponential λ the schedule was optimized
    /// under).
    pub lambda: f64,
    /// Failure-model label.
    pub failure: String,
    /// Weibull shape (`NaN` for other models).
    pub shape: f64,
    /// Cost-rule label.
    pub rule: String,
    /// Platform label (empty without a `platforms` axis).
    pub platform: String,
    /// Replication label (empty without a `replications` axis).
    pub replication: String,
    /// Strategy name.
    pub strategy: String,
    /// Simulator label.
    pub simulator: String,
    /// Analytic expected makespan under the proxy model.
    pub expected: f64,
    /// Failure-free, checkpoint-free time `Σ w_i`.
    pub tinf: f64,
    /// `expected / tinf`.
    pub ratio: f64,
    /// Winning checkpoint budget for swept strategies.
    pub best_n: Option<usize>,
    /// Monte-Carlo mean makespan (`NaN` for the analytic simulator).
    pub mc_mean: f64,
    /// Standard error of the Monte-Carlo mean.
    pub mc_sem: f64,
    /// `(mc_mean − expected) / mc_sem`.
    pub z: f64,
    /// Monte-Carlo median makespan estimate (`NaN` for the analytic
    /// simulator), from the trial runs' streaming tail sketch.
    pub mc_p50: f64,
    /// Monte-Carlo 95th-percentile makespan estimate (`NaN` analytic).
    pub mc_p95: f64,
    /// Monte-Carlo 99th-percentile makespan estimate (`NaN` analytic).
    pub mc_p99: f64,
    /// Storage-tier label when the spec has a `storage` axis: the winning
    /// tier's name for a uniform assignment, `per-task` for a mixed one;
    /// empty without the axis (and then absent from JSON mirrors, so
    /// pre-existing `json_file` outputs stay byte-identical).
    #[serde(skip_serializing_if = "String::is_empty")]
    pub storage: String,
}

/// A strategy's optimized schedule plus its final analytic value.
/// `replica_sets` is `Some` only when the joint optimizer re-selected
/// per-task replica sets (they then replace the cell's sets everywhere
/// downstream: the storage pricing and both Monte-Carlo engines).
struct StrategyOutcome {
    name: String,
    schedule: Schedule,
    expected: f64,
    best_n: Option<usize>,
    replica_sets: Option<Vec<Vec<usize>>>,
    /// Per-task storage tiers, `Some` only under a `storage` axis; the
    /// Monte-Carlo engines then simulate the tier-priced workflow copy
    /// and `expected` already carries the exact storage-aware value.
    tiers: Option<Vec<usize>>,
}

impl StrategyOutcome {
    fn of(name: String, schedule: Schedule, expected: f64, best_n: Option<usize>) -> Self {
        StrategyOutcome {
            name,
            schedule,
            expected,
            best_n,
            replica_sets: None,
            tiers: None,
        }
    }

    fn heuristic(r: HeuristicResult) -> Self {
        Self::of(r.name, r.schedule, r.expected_makespan, r.best_n)
    }

    fn exact(name: &str, (schedule, expected): (Schedule, f64)) -> Self {
        let best_n = Some(schedule.n_checkpoints());
        Self::of(name.to_string(), schedule, expected, best_n)
    }
}

/// Joint coordinate-descent rounds per heuristic (sweep + replica
/// selection per round; the descent stops early at a fixed point).
const JOINT_ROUNDS: usize = 4;

/// XOR salt on the cell seed for the quantile objective's own trial
/// stream, so the optimizer's Monte-Carlo draws are decorrelated from the
/// row simulators' (which use the unsalted cell seed).
const TAIL_OBJECTIVE_SALT: u64 = 0x9D3C_55F2_71E4_A0B7;

/// A cell's resolved heterogeneous execution context: the platform plus
/// one replica set per task.
type Hetero = (HeteroPlatform, Vec<Vec<usize>>);

/// Per-task replica-group sizes for storage-contention pricing: 1 for
/// every task on the homogeneous path, the replica-set sizes otherwise.
fn replica_counts(n: usize, sets: Option<&[Vec<usize>]>) -> Vec<usize> {
    sets.map_or_else(
        || vec![1; n],
        |sets| sets.iter().map(|s| s.len().max(1)).collect(),
    )
}

/// The tier-priced workflow copy every Monte-Carlo engine simulates:
/// checkpoint and recovery costs scaled by the one shared pricing
/// definition ([`storage_scales`]), so the trial engines and the
/// analytic column price storage identically.
fn storage_wf(
    wf: &Workflow,
    hierarchy: &StorageHierarchy,
    tiers: &[usize],
    counts: &[usize],
) -> Workflow {
    let (ckpt, rec) = storage_scales(hierarchy, tiers, counts);
    wf.with_scaled_costs(&ckpt, &rec)
}

/// CSV label for the storage column: the tier's name for a uniform
/// assignment, `per-task` for a mixed one, empty without the axis.
fn storage_label(
    storage: Option<&(StorageHierarchy, StorageSelect)>,
    tiers: Option<&Vec<usize>>,
) -> String {
    match (storage, tiers) {
        (Some((hierarchy, _)), Some(tiers)) => {
            let first = tiers.first().copied().unwrap_or(0);
            if tiers.iter().all(|&t| t == first) {
                hierarchy.tiers()[first].name.clone()
            } else {
                "per-task".to_string()
            }
        }
        _ => String::new(),
    }
}

/// The replication-aware evaluator over `sets`, with every checkpoint on
/// `tier` when one is given.
fn replicated_evaluator<'a>(
    wf: &'a Workflow,
    platform: &'a HeteroPlatform,
    sets: &[Vec<usize>],
    tier: Option<(&'a StorageHierarchy, usize)>,
) -> ReplicatedEvaluator<'a> {
    let ev = ReplicatedEvaluator::from_sets(wf, platform, sets);
    match tier {
        None => ev,
        Some((hierarchy, t)) => ev.with_storage(hierarchy, &vec![t; wf.n_tasks()]),
    }
}

/// The joint coordinate descent over budget × replica sets, plus the
/// per-task storage tiers when `hierarchy` is given.
fn joint(
    wf: &Workflow,
    platform: &HeteroPlatform,
    sets: &[Vec<usize>],
    h: Heuristic,
    policy: SweepPolicy,
    hierarchy: Option<&StorageHierarchy>,
) -> StrategyOutcome {
    let order = linearize(wf, h.lin);
    let j = optimize_joint_with(
        wf,
        platform,
        &order,
        h.ckpt,
        policy,
        sets,
        JOINT_ROUNDS,
        hierarchy,
    );
    StrategyOutcome {
        name: h.name(),
        expected: j.expected_makespan,
        best_n: j.best_n,
        replica_sets: Some(j.replica_sets),
        tiers: j.tiers,
        schedule: j.schedule,
    }
}

/// Young/Daly: periodic checkpoints on the DF linearization at the budget
/// implied by the period for the mean checkpoint cost.
fn periodic(
    wf: &Workflow,
    model: FaultModel,
    strat: StrategyCell,
) -> Result<StrategyOutcome, ScenarioError> {
    let n = wf.n_tasks();
    let order = linearize(wf, LinearizationStrategy::DepthFirst);
    let mean_c = if n == 0 {
        0.0
    } else {
        wf.checkpoint_costs().iter().sum::<f64>() / n as f64
    };
    let budget = if model.lambda() <= 0.0 || mean_c <= 0.0 {
        0
    } else {
        let mtbf = 1.0 / model.lambda();
        let period = match strat {
            StrategyCell::Young => daly::young_period(mean_c, mtbf),
            _ => daly::daly_period(mean_c, mtbf),
        };
        if period > 0.0 {
            (wf.total_work() / period).floor() as usize
        } else {
            n
        }
    }
    .min(n);
    let set = dagchkpt_core::strategies::periodic_set(wf, &order, budget);
    let schedule = Schedule::new(wf, order, set)
        .map_err(|e| ScenarioError::new(format!("periodic schedule: {e}")))?;
    let expected = evaluator::expected_makespan(wf, model, &schedule);
    Ok(StrategyOutcome::of(
        strat.name(),
        schedule,
        expected,
        Some(budget),
    ))
}

/// Optimizes one strategy of a cell and returns its final `expected`.
///
/// Without a storage axis the strategy runs once, on the costs as
/// declared. With one it runs once per candidate tier (uniform
/// assignments; argmin by the exact tier-priced expected makespan via
/// [`f64::total_cmp`] — the first tier wins ties and a `NaN` candidate can
/// never displace a finite one), then refines per task when the spec asks
/// for it. Under the `joint` optimizer with `per-task` selection, tier
/// choice instead becomes the third axis of the coordinate descent itself
/// ([`optimize_joint_with`]); under a fixed tier the joint descent runs on
/// a single-tier sub-hierarchy so the tier stays pinned while budget and
/// replica sets co-optimize.
///
/// The `replication_aware` and `joint` optimizers optimize against the
/// exact replicated objective on the cell's replica sets. Everything else
/// — the `proxy` optimizer, any optimizer on a cell the degenerate
/// collapse routed to the homogeneous path, and the closed-form
/// strategies — optimizes under the single-machine model (of the
/// tier-priced copy), and its `expected` is then the exact replicated
/// value of that schedule on a platform.
#[allow(clippy::too_many_arguments)]
fn run_strategy(
    wf: &Workflow,
    model: FaultModel,
    strat: StrategyCell,
    policy: SweepPolicy,
    optimizer: OptimizerSpec,
    objective: ObjectiveSpec,
    seed: u64,
    hetero: Option<&Hetero>,
    storage: Option<&(StorageHierarchy, StorageSelect)>,
) -> Result<StrategyOutcome, ScenarioError> {
    let n = wf.n_tasks();
    let cell_sets = hetero.map(|(_, sets)| sets.as_slice());
    if let (
        Some((hierarchy, StorageSelect::PerTask)),
        OptimizerSpec::Joint,
        StrategyCell::Heuristic(h),
        Some((platform, sets)),
    ) = (storage, optimizer, strat, hetero)
    {
        return Ok(joint(wf, platform, sets, h, policy, Some(hierarchy)));
    }
    // One optimization with every checkpoint on `tier` (`None`: the costs
    // as declared — no scaled copy, no storage pricing).
    let optimize = |tier: Option<(&StorageHierarchy, usize)>| {
        if let (StrategyCell::Heuristic(h), Some((platform, sets))) = (strat, hetero) {
            match optimizer {
                OptimizerSpec::Proxy => {}
                OptimizerSpec::ReplicationAware => {
                    let ev = replicated_evaluator(wf, platform, sets, tier);
                    return Ok(StrategyOutcome::heuristic(run_heuristic_with(
                        wf, &ev, h, policy,
                    )));
                }
                OptimizerSpec::Joint => {
                    // A single-tier sub-hierarchy pins the tier (the
                    // descent's tier pass is a no-op on one tier) while
                    // budget and replica sets still co-optimize —
                    // including the contention term at the actual
                    // replica-group sizes.
                    let sub = tier.map(|(hierarchy, t)| {
                        StorageHierarchy::new(vec![hierarchy.tiers()[t].clone()])
                            .expect("a validated tier forms a valid singleton hierarchy")
                    });
                    return Ok(joint(wf, platform, sets, h, policy, sub.as_ref()));
                }
            }
        }
        let priced: Cow<'_, Workflow> = match tier {
            None => Cow::Borrowed(wf),
            Some((hierarchy, t)) => Cow::Owned(storage_wf(
                wf,
                hierarchy,
                &vec![t; n],
                &replica_counts(n, cell_sets),
            )),
        };
        let pwf = priced.as_ref();
        let mut out = match strat {
            // Quantile objectives sweep each heuristic's budget against a
            // seeded Monte-Carlo quantile estimate under the cell's
            // homogeneous exponential proxy (validation pins
            // `optimizer == Proxy` for them). The `expected` column keeps
            // its meaning — the analytic mean of the chosen schedule — so
            // arms optimizing different objectives stay comparable.
            StrategyCell::Heuristic(h) => match objective.quantile_target() {
                Some((q, trials)) => {
                    let mc = McObjective::homogeneous(
                        pwf,
                        model,
                        TrialSpec::new(trials, seed ^ TAIL_OBJECTIVE_SALT),
                    );
                    let order = linearize(pwf, h.lin);
                    let r = optimize_checkpoints_quantile(pwf, &mc, &order, h.ckpt, policy, q);
                    let expected = evaluator::expected_makespan(pwf, model, &r.schedule);
                    StrategyOutcome::of(h.name(), r.schedule, expected, r.best_n)
                }
                None => StrategyOutcome::heuristic(run_heuristic(pwf, model, h, policy)),
            },
            StrategyCell::ExactChain => StrategyOutcome::exact(
                "ExactChain",
                exact::chain::solve_chain(pwf, model)
                    .ok_or_else(|| ScenarioError::new("ExactChain: workflow is not a chain"))?,
            ),
            StrategyCell::ExactFork => StrategyOutcome::exact(
                "ExactFork",
                exact::fork::solve_fork(pwf, model)
                    .ok_or_else(|| ScenarioError::new("ExactFork: workflow is not a fork"))?,
            ),
            StrategyCell::ExactJoin => StrategyOutcome::exact(
                "ExactJoin",
                exact::join::solve_join_uniform(pwf, model).ok_or_else(|| {
                    ScenarioError::new(
                        "ExactJoin: workflow is not a join with uniform checkpoint costs",
                    )
                })?,
            ),
            StrategyCell::Young | StrategyCell::Daly => periodic(pwf, model, strat)?,
        };
        if let Some((platform, sets)) = hetero {
            out.expected = replicated_evaluator(wf, platform, sets, tier)
                .evaluate(&out.schedule)
                .expected_makespan;
        }
        Ok(out)
    };
    let Some((hierarchy, select)) = storage else {
        return optimize(None);
    };
    let candidates: Vec<usize> = match select {
        StorageSelect::Fixed { tier } => vec![hierarchy
            .index_of(tier)
            .expect("validation pinned the fixed tier to the hierarchy")],
        _ => (0..hierarchy.n_tiers()).collect(),
    };
    let mut best: Option<(usize, StrategyOutcome)> = None;
    for tier in candidates {
        let out = optimize(Some((hierarchy, tier)))?;
        if best
            .as_ref()
            .is_none_or(|(_, b)| out.expected.total_cmp(&b.expected).is_lt())
        {
            best = Some((tier, out));
        }
    }
    let (tier, mut out) = best.expect("a validated hierarchy has at least one tier");
    out.tiers = Some(vec![tier; n]);
    if *select == StorageSelect::PerTask {
        // Refine per task on the fixed winning schedule: coordinate
        // descent over tiers with the storage-aware evaluator, keeping
        // order, budget, and replica sets as chosen above. A degenerate
        // platform that collapsed to the homogeneous path is rebuilt as
        // the single reference machine, on which the replicated
        // evaluator reproduces the scalar model — downtime included —
        // exactly.
        let reference;
        let (platform, sets) = match hetero {
            Some(hetero) => hetero,
            None => {
                reference = (
                    HeteroPlatform::new(
                        vec![dagchkpt_failure::Processor::reference(model.lambda())],
                        model.downtime(),
                    )
                    .expect("the reference machine is a valid platform"),
                    vec![vec![0]; n],
                );
                &reference
            }
        };
        let mut ev = replicated_evaluator(wf, platform, sets, Some((hierarchy, tier)));
        let (tiers, e, _) =
            select_storage(&mut ev, &out.schedule, hierarchy.n_tiers(), JOINT_ROUNDS);
        out.tiers = Some(tiers);
        out.expected = e;
    }
    Ok(out)
}

/// Fault source for one trial, matched to the cell's failure model.
enum CellInjector {
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

    fn fault_before(&mut self, duration: f64, hint: SurvivalHint) -> Option<f64> {
        match self {
            CellInjector::Exp(i) => i.fault_before(duration, hint),
            CellInjector::Weibull(i) => i.fault_before(duration, hint),
            CellInjector::Trace(i) => i.fault_before(duration, hint),
        }
    }
}

/// A fault process prepared once per cell (the Weibull scale costs a
/// Γ evaluation; a trace is checked and shared), building each trial's
/// [`CellInjector`] from a seed.
enum FaultSource {
    Exp { lambda: f64 },
    Weibull { scale: f64, shape: f64 },
    Trace(TraceInjector),
}

impl FaultSource {
    /// The cell's single-machine fault process.
    fn of_cell(failure: &FailureCell) -> Self {
        match failure {
            FailureCell::Exponential { lambda, .. } => FaultSource::Exp { lambda: *lambda },
            FailureCell::Weibull { mtbf, shape, .. } => FaultSource::Weibull {
                scale: WeibullInjector::mtbf_scale(*mtbf, *shape),
                shape: *shape,
            },
            FailureCell::Trace { times, .. } => {
                FaultSource::Trace(TraceInjector::new(times.as_slice()))
            }
        }
    }

    /// One processor of a resolved platform: exponential at the
    /// processor's own rate, or Weibull of the same mean when a shape is
    /// set (cell-level or per-processor override).
    fn of_proc(proc: &dagchkpt_failure::Processor) -> Self {
        match proc.shape {
            Some(shape) if proc.lambda > 0.0 => FaultSource::Weibull {
                scale: WeibullInjector::mtbf_scale(1.0 / proc.lambda, shape),
                shape,
            },
            _ => FaultSource::Exp {
                lambda: proc.lambda,
            },
        }
    }

    fn injector(&self, seed: u64) -> CellInjector {
        match self {
            FaultSource::Exp { lambda } => {
                CellInjector::Exp(ExponentialInjector::new(*lambda, seed))
            }
            FaultSource::Weibull { scale, shape } => {
                CellInjector::Weibull(WeibullInjector::new(*scale, *shape, seed))
            }
            FaultSource::Trace(trace) => CellInjector::Trace(trace.replay()),
        }
    }
}

/// A cell's resolved heterogeneous execution context: the platform plus
/// per-task replica sets — the fastest-first prefix of each task's
/// replication degree. `None` when the cell runs on the paper's single
/// reference machine — including the **degenerate collapse**: a
/// single-reference-processor platform with all degrees 1 takes the
/// homogeneous code path outright, which is what makes it reproduce the
/// homogeneous outputs byte for byte.
fn resolve_hetero(
    plan: &CellPlan,
    wf: &Workflow,
    model: FaultModel,
) -> Result<Option<Hetero>, ScenarioError> {
    let Some(pspec) = &plan.platform else {
        return Ok(None);
    };
    let platform = pspec.resolve(&plan.failure)?;
    let strategy = plan
        .replication
        .map(|r| r.strategy())
        .unwrap_or(dagchkpt_core::ReplicationStrategy::None);
    let degrees = strategy.degrees(wf, platform.n_procs());
    let degenerate = platform.is_degenerate()
        && platform.procs()[0].lambda == model.lambda()
        && degrees.iter().all(|&d| d == 1);
    Ok(if degenerate {
        None
    } else {
        let sets = degrees.iter().map(|&d| (0..d).collect()).collect();
        Some((platform, sets))
    })
}

/// The optimized schedule behind one strategy's rows — what a serving
/// client gets beyond the CSV-shaped numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleDetail {
    /// Strategy display name (`DF-CkptW`, `exact-chain`, …).
    pub strategy: String,
    /// The linearization, as task indices.
    pub order: Vec<usize>,
    /// Checkpointed task indices, ascending.
    pub checkpoints: Vec<usize>,
    /// Winning checkpoint budget, when the strategy sweeps one.
    pub best_n: Option<usize>,
    /// Expected makespan under the cell's objective.
    pub expected: f64,
    /// Per-task replica processor sets (joint optimizer only).
    pub replica_sets: Option<Vec<Vec<usize>>>,
    /// Storage-tier label (`storage` axis only): the winning tier's name
    /// for a uniform assignment, `per-task` for a mixed one. Absent —
    /// and absent from the wire format — without the axis, so served
    /// answers for pre-existing specs stay byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub storage: Option<String>,
    /// Per-task storage-tier indices into the spec's hierarchy
    /// (`storage` axis only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tiers: Option<Vec<usize>>,
}

/// One per-tenant output row of the multi-tenant contention engine: a
/// (cell, strategy, tenant) outcome under the spec's arrival stream and
/// admission policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantRow {
    /// Cell index in the scenario's expansion.
    pub cell: usize,
    /// Workflow display name.
    pub workflow: String,
    /// Task count.
    pub n: usize,
    /// Proxy failure rate.
    pub lambda: f64,
    /// Failure-model label.
    pub failure: String,
    /// Platform label (empty without a `platforms` axis).
    pub platform: String,
    /// Strategy name.
    pub strategy: String,
    /// Admission-policy label.
    pub policy: String,
    /// Arrival-stream label.
    pub arrivals: String,
    /// Tenant name.
    pub tenant: String,
    /// Jobs submitted (admitted + rejected) across all trials.
    pub jobs: u64,
    /// Jobs rejected by `reject_over_capacity`.
    pub rejected: u64,
    /// Fraction of submitted jobs meeting the tenant's SLO deadline
    /// (`NaN` when the tenant saw no jobs).
    pub slo_rate: f64,
    /// Mean response time (finish − arrival) of completed jobs.
    pub mean_response: f64,
    /// Mean slowdown (response ÷ contention-free execution time).
    pub mean_slowdown: f64,
    /// Median response time.
    pub p50_response: f64,
    /// 95th-percentile response time.
    pub p95_response: f64,
    /// 99th-percentile response time.
    pub p99_response: f64,
}

/// Everything one cell produces: CSV-shaped rows plus the schedules.
#[derive(Debug, Clone)]
pub struct CellExecution {
    /// One row per strategy × simulator, in stage order.
    pub rows: Vec<CellResult>,
    /// One entry per strategy, in stage order.
    pub schedules: Vec<ScheduleDetail>,
    /// One row per strategy × tenant when the spec has an `arrivals`
    /// stream; empty otherwise. Purely additive: the classic `rows` are
    /// computed identically whether or not a stream runs.
    pub tenants: Vec<TenantRow>,
}

/// Executes one cell — every strategy × simulator, in axis order — and
/// returns rows *and* schedules; the serving daemon answers requests
/// through it too.
///
/// Under the default `proxy` optimizer, schedules are optimized under the
/// cell's proxy [`FaultModel`] (the paper's single-machine view); on a
/// heterogeneous platform the `expected` column and the Monte-Carlo
/// engines then re-evaluate the optimized schedule under replication — so
/// the comparison isolates what the platform and replication change, not
/// the optimizer. The `replication_aware` and `joint` optimizers instead
/// optimize each heuristic against the replicated evaluator on the cell's
/// replica sets (the joint descent's per-task sets then replace the
/// cell's downstream).
pub fn run_cell_full(spec: &ScenarioSpec, plan: &CellPlan) -> Result<CellExecution, ScenarioError> {
    let source = &spec.workflows[plan.source];
    let wf = source.generate(plan.n, plan.seed)?;
    let model = plan.failure.proxy_model();
    let policy = spec.sweep.policy(plan.n);
    let tinf = wf.total_work();
    let ctx = |e: ScenarioError| {
        ScenarioError::new(format!(
            "cell {} ({}, n={}, {}): {}",
            plan.index,
            source.display_name(),
            plan.n,
            plan.failure.label(),
            e.0
        ))
    };
    let hetero = resolve_hetero(plan, &wf, model).map_err(&ctx)?;
    let stream = tenant_stream(spec, plan, tinf, hetero.as_ref()).map_err(&ctx)?;
    let storage = spec.storage.resolve().map_err(&ctx)?;
    let faults = FaultSource::of_cell(&plan.failure);
    let proc_faults: Vec<FaultSource> = hetero.as_ref().map_or_else(Vec::new, |(platform, _)| {
        platform.procs().iter().map(FaultSource::of_proc).collect()
    });
    let mut rows = Vec::new();
    let mut schedules = Vec::new();
    let mut tenants = Vec::new();
    for strat in spec.strategy_cells() {
        let out = run_strategy(
            &wf,
            model,
            strat,
            policy,
            plan.optimizer,
            spec.objective,
            plan.seed,
            hetero.as_ref(),
            storage.as_ref(),
        )
        .map_err(&ctx)?;
        let expected = out.expected;
        // The replica sets both Monte-Carlo engines run: the joint
        // optimizer's when it picked them, the cell's otherwise.
        let replicated = hetero
            .as_ref()
            .map(|(platform, sets)| (platform, out.replica_sets.as_ref().unwrap_or(sets)));
        schedules.push(ScheduleDetail {
            strategy: out.name.clone(),
            order: out.schedule.order().iter().map(|v| v.index()).collect(),
            checkpoints: out.schedule.checkpoints().iter().collect(),
            best_n: out.best_n,
            expected,
            replica_sets: out.replica_sets.clone(),
            storage: out
                .tiers
                .as_ref()
                .map(|_| storage_label(storage.as_ref(), out.tiers.as_ref())),
            tiers: out.tiers.clone(),
        });
        // Every Monte-Carlo engine, the tenant engine included, simulates
        // the tier-priced workflow copy (same `storage_scales` pricing the
        // analytic value used), the plain workflow otherwise.
        let sim_wf: Cow<'_, Workflow> = match (&storage, &out.tiers) {
            (Some((hierarchy, _)), Some(tiers)) => Cow::Owned(storage_wf(
                &wf,
                hierarchy,
                tiers,
                &replica_counts(wf.n_tasks(), replicated.map(|(_, sets)| sets.as_slice())),
            )),
            _ => Cow::Borrowed(&wf),
        };
        if let Some(stream) = &stream {
            let stats = run_tenant_trials_with(
                &sim_wf,
                &out.schedule,
                &stream.jobs,
                &stream.config,
                TrialSpec::new(stream.trials, plan.seed),
                |seed| faults.injector(seed),
            );
            for (names, t) in stream.names.iter().zip(&stats) {
                tenants.push(TenantRow {
                    cell: plan.index,
                    workflow: source.display_name(),
                    n: wf.n_tasks(),
                    lambda: model.lambda(),
                    failure: plan.failure.label(),
                    platform: plan
                        .platform
                        .as_ref()
                        .map_or_else(String::new, |p| p.label()),
                    strategy: out.name.clone(),
                    policy: spec.tenancy.policy.label().to_string(),
                    arrivals: spec.arrivals.label(),
                    tenant: names.clone(),
                    jobs: t.jobs,
                    rejected: t.rejected,
                    slo_rate: t.slo_rate(),
                    mean_response: t.response.mean(),
                    mean_slowdown: t.slowdown.mean(),
                    p50_response: t.tail.p50(),
                    p95_response: t.tail.p95(),
                    p99_response: t.tail.p99(),
                });
            }
        }
        for sim in &spec.simulators {
            let nan5 = (f64::NAN, f64::NAN, f64::NAN, f64::NAN, f64::NAN);
            let (mc_mean, mc_sem, mc_p50, mc_p95, mc_p99) = match *sim {
                SimulatorSpec::Analytic => nan5,
                SimulatorSpec::MonteCarlo { trials } => {
                    let stats = match replicated {
                        None => run_trials_with(
                            &sim_wf,
                            &out.schedule,
                            plan.failure.downtime(),
                            TrialSpec::new(trials, plan.seed),
                            |seed| faults.injector(seed),
                        ),
                        Some((platform, sets)) => run_replicated_sets_trials_with(
                            &sim_wf,
                            &out.schedule,
                            platform,
                            sets,
                            TrialSpec::new(trials, plan.seed),
                            |rank, seed| proc_faults[rank].injector(seed),
                        ),
                    };
                    (
                        stats.makespan.mean(),
                        stats.makespan.sem(),
                        stats.tail.p50(),
                        stats.tail.p95(),
                        stats.tail.p99(),
                    )
                }
                SimulatorSpec::NonBlocking {
                    trials,
                    compute_rate,
                } => {
                    let tspec = TrialSpec::new(trials, plan.seed);
                    let (stats, sketch) = match replicated {
                        None => {
                            let cfg = NonBlockingConfig {
                                downtime: plan.failure.downtime(),
                                compute_rate,
                                record_trace: false,
                            };
                            run_nonblocking_trials_with(
                                &sim_wf,
                                &out.schedule,
                                cfg,
                                tspec,
                                |seed| faults.injector(seed),
                            )
                        }
                        Some((platform, sets)) => run_replicated_nonblocking_trials_with(
                            &sim_wf,
                            &out.schedule,
                            platform,
                            sets,
                            compute_rate,
                            tspec,
                            |rank, seed| proc_faults[rank].injector(seed),
                        ),
                    };
                    (
                        stats.mean(),
                        stats.sem(),
                        sketch.p50(),
                        sketch.p95(),
                        sketch.p99(),
                    )
                }
            };
            rows.push(CellResult {
                cell: plan.index,
                workflow: source.display_name(),
                n: wf.n_tasks(),
                lambda: model.lambda(),
                failure: plan.failure.label(),
                shape: plan.failure.shape(),
                rule: source.rule_label(),
                platform: plan
                    .platform
                    .as_ref()
                    .map_or_else(String::new, |p| p.label()),
                replication: plan
                    .replication
                    .as_ref()
                    .map_or_else(String::new, |r| r.label()),
                strategy: out.name.clone(),
                simulator: sim.label(),
                expected,
                tinf,
                ratio: if tinf > 0.0 { expected / tinf } else { 1.0 },
                best_n: out.best_n,
                mc_mean,
                mc_sem,
                z: (mc_mean - expected) / mc_sem,
                mc_p50,
                mc_p95,
                mc_p99,
                storage: storage_label(storage.as_ref(), out.tiers.as_ref()),
            });
        }
    }
    Ok(CellExecution {
        rows,
        schedules,
        tenants,
    })
}

/// The resolved arrival stream of one cell, shared by every strategy.
struct TenantStream {
    jobs: Vec<TenantJob>,
    config: TenantConfig,
    names: Vec<String>,
    trials: usize,
}

/// Resolves the spec's `arrivals`/`tenancy` axes for one cell: concrete
/// arrival instants from the cell seed, round-robin tenant assignment,
/// per-tenant SLO deadlines of `slo_factor × T∞` (strategy-independent,
/// so heuristics compete against the same deadline), and the platform's
/// processor speeds (the reference machine's unit speed on the
/// homogeneous path, degenerate collapse included). The per-job fault
/// streams use the cell's reference failure model; processor speed scales
/// each job's whole execution — an approximation that is exact on uniform
/// platforms. Returns `None` when the spec has no stream.
fn tenant_stream(
    spec: &ScenarioSpec,
    plan: &CellPlan,
    tinf: f64,
    hetero: Option<&Hetero>,
) -> Result<Option<TenantStream>, ScenarioError> {
    if ArrivalSpec::is_off(&spec.arrivals) {
        return Ok(None);
    }
    let tenants = spec.tenancy.effective_tenants();
    let jobs: Vec<TenantJob> = spec
        .arrivals
        .times(plan.seed)
        .into_iter()
        .enumerate()
        .map(|(k, arrival)| TenantJob {
            arrival,
            tenant: k % tenants.len(),
        })
        .collect();
    let speeds: Vec<f64> = hetero.map_or_else(
        || vec![1.0],
        |(platform, _)| platform.procs().iter().map(|p| p.speed).collect(),
    );
    let policy = match spec.tenancy.policy {
        AdmissionPolicy::Fcfs => TenantPolicy::Fcfs,
        AdmissionPolicy::Priority => TenantPolicy::Priority,
        AdmissionPolicy::FairShare => TenantPolicy::FairShare,
        AdmissionPolicy::RejectOverCapacity => TenantPolicy::RejectOverCapacity,
    };
    let config = TenantConfig {
        speeds,
        downtime: plan.failure.downtime(),
        policy,
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
    let trials = spec
        .simulators
        .iter()
        .find_map(|s| match s {
            SimulatorSpec::MonteCarlo { trials } => Some(*trials),
            _ => None,
        })
        .ok_or_else(|| {
            ScenarioError::new("arrivals need a montecarlo simulator to draw per-job trials from")
        })?;
    Ok(Some(TenantStream {
        jobs,
        config,
        names: tenants.into_iter().map(|t| t.name).collect(),
        trials,
    }))
}

/// Executes every cell of a scenario and returns the rows — the pure,
/// no-IO entry point the differential and property tests drive.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<Vec<CellResult>, ScenarioError> {
    let mut out = Vec::new();
    for plan in spec.expand()? {
        out.extend(run_cell_full(spec, &plan)?.rows);
    }
    Ok(out)
}

/// The generic long-format CSV header.
pub const GENERIC_HEADER: [&str; 17] = [
    "cell",
    "workflow",
    "n",
    "lambda",
    "failure",
    "cost_rule",
    "platform",
    "replication",
    "strategy",
    "simulator",
    "expected",
    "tinf",
    "ratio",
    "best_n",
    "mc_mean",
    "mc_sem",
    "z",
];

/// The per-tenant CSV header (`OutputFormat::TenantRows`).
pub const TENANT_HEADER: [&str; 18] = [
    "cell",
    "workflow",
    "n",
    "lambda",
    "failure",
    "platform",
    "strategy",
    "policy",
    "arrivals",
    "tenant",
    "jobs",
    "rejected",
    "slo_rate",
    "mean_response",
    "mean_slowdown",
    "p50_response",
    "p95_response",
    "p99_response",
];

/// Formats one cell's per-tenant rows (the `TenantRows` stage body);
/// same `fnum` float encoding as the generic rows, so non-finite values
/// render as empty fields.
pub fn tenant_csv_rows(rows: &[TenantRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.cell.to_string(),
                r.workflow.clone(),
                r.n.to_string(),
                format!("{:e}", r.lambda),
                r.failure.clone(),
                r.platform.clone(),
                r.strategy.clone(),
                r.policy.clone(),
                r.arrivals.clone(),
                r.tenant.clone(),
                r.jobs.to_string(),
                r.rejected.to_string(),
                fnum(r.slo_rate, 6),
                fnum(r.mean_response, 6),
                fnum(r.mean_slowdown, 6),
                fnum(r.p50_response, 6),
                fnum(r.p95_response, 6),
                fnum(r.p99_response, 6),
            ]
        })
        .collect()
}

fn fnum(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        String::new()
    }
}

fn legacy_row(r: &CellResult) -> Row {
    Row {
        workflow: r.workflow.clone(),
        n: r.n,
        lambda: r.lambda,
        rule: r.rule.clone(),
        heuristic: r.strategy.clone(),
        expected: r.expected,
        tinf: r.tinf,
        ratio: r.ratio,
        best_n: r.best_n,
    }
}

/// The generic (`Rows`) CSV encoding of one result row.
fn generic_row(r: &CellResult) -> Vec<String> {
    vec![
        r.cell.to_string(),
        r.workflow.clone(),
        r.n.to_string(),
        format!("{:e}", r.lambda),
        r.failure.clone(),
        r.rule.clone(),
        r.platform.clone(),
        r.replication.clone(),
        r.strategy.clone(),
        r.simulator.clone(),
        fnum(r.expected, 6),
        fnum(r.tinf, 6),
        fnum(r.ratio, 6),
        r.best_n.map_or(String::new(), |n| n.to_string()),
        fnum(r.mc_mean, 6),
        fnum(r.mc_sem, 6),
        fnum(r.z, 4),
    ]
}

/// Formats one cell's results under `format`.
pub fn cell_csv_rows(format: OutputFormat, rows: &[CellResult]) -> Vec<Vec<String>> {
    match format {
        OutputFormat::Rows => rows.iter().map(generic_row).collect(),
        OutputFormat::RowsTail => rows
            .iter()
            .map(|r| {
                let mut row = generic_row(r);
                row.push(fnum(r.mc_p50, 6));
                row.push(fnum(r.mc_p95, 6));
                row.push(fnum(r.mc_p99, 6));
                row
            })
            .collect(),
        OutputFormat::Figure => rows.iter().map(|r| legacy_row(r).to_csv()).collect(),
        OutputFormat::Validate => rows
            .iter()
            .map(|r| {
                vec![
                    r.workflow.clone(),
                    r.n.to_string(),
                    format!("{:.6}", r.expected),
                    format!("{:.6}", r.mc_mean),
                    format!("{:.6}", r.mc_sem),
                    format!("{:.4}", r.z),
                ]
            })
            .collect(),
        OutputFormat::WeibullStudy => rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.shape),
                    format!("{:.6}", r.mc_mean),
                    format!("{:.6}", r.mc_sem),
                    format!("{:.6}", r.mc_mean / r.expected - 1.0),
                ]
            })
            .collect(),
        OutputFormat::NonBlockingPivot => {
            let mut row = vec![rows[0].workflow.clone()];
            row.extend(rows.iter().map(|r| format!("{:.4}", r.mc_mean)));
            vec![row]
        }
        OutputFormat::StorageRows => rows
            .iter()
            .map(|r| {
                let mut row = generic_row(r);
                row.push(r.storage.clone());
                row
            })
            .collect(),
        // Tenant rows come from `CellExecution::tenants` via
        // [`tenant_csv_rows`], not from the per-simulator results.
        OutputFormat::TenantRows => Vec::new(),
    }
}

/// The `*_best.csv` rows of one cell: best linearization per checkpoint
/// strategy, labelled by the strategy suffix (exactly the pre-refactor
/// figure binaries' transformation).
pub fn cell_best_rows(rows: &[CellResult]) -> Vec<Vec<String>> {
    let legacy: Vec<Row> = rows.iter().map(legacy_row).collect();
    best_per_ckpt_strategy(&legacy)
        .into_iter()
        .map(|mut b| {
            b.heuristic = b
                .heuristic
                .split('-')
                .nth(1)
                .unwrap_or(&b.heuristic)
                .to_string();
            b.to_csv()
        })
        .collect()
}

pub fn stage_header(format: OutputFormat, simulators: &[SimulatorSpec]) -> Vec<String> {
    match format {
        OutputFormat::Rows => GENERIC_HEADER.iter().map(|s| s.to_string()).collect(),
        OutputFormat::RowsTail => GENERIC_HEADER
            .iter()
            .chain(["mc_p50", "mc_p95", "mc_p99"].iter())
            .map(|s| s.to_string())
            .collect(),
        OutputFormat::Figure => Row::CSV_HEADER.iter().map(|s| s.to_string()).collect(),
        OutputFormat::Validate => ["case", "n", "analytic", "mc_mean", "mc_sem", "z"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        OutputFormat::WeibullStudy => ["shape", "mc_mean", "mc_sem", "rel_vs_exponential"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        OutputFormat::NonBlockingPivot => {
            let mut h = vec!["workflow".to_string()];
            h.extend(simulators.iter().map(|s| match s {
                SimulatorSpec::MonteCarlo { .. } => "blocking".to_string(),
                other => other.label(),
            }));
            h
        }
        OutputFormat::StorageRows => GENERIC_HEADER
            .iter()
            .chain(["storage"].iter())
            .map(|s| s.to_string())
            .collect(),
        OutputFormat::TenantRows => TENANT_HEADER.iter().map(|s| s.to_string()).collect(),
    }
}
