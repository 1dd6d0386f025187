//! Operational twins of the replication-aware analytic evaluator
//! (`dagchkpt_core::evaluator::replicated`): Monte-Carlo engines that run
//! each task's block redundantly on the replica set of a heterogeneous
//! platform and let the earliest surviving replica win.
//!
//! # Shared semantics
//!
//! For every block attempt, replica `p` (a member of the task's **replica
//! set** — any subset of the platform's processors, which is what the
//! joint optimizer's per-task replica selection produces) computes its
//! deterministic completion time
//! `d_p` from its speed and bandwidths and draws its first fault from its
//! own injector, **renewed at the attempt start**. The attempt succeeds at
//! `min{d_p : F_p ≥ d_p}`; when every replica faults first (a *group
//! failure*) the attempt is abandoned at `max_p F_p`, memory is wiped, the
//! platform pays the downtime, and the block restarts with a freshly
//! computed recovery plan. `n_faults` counts group failures — the event the
//! analytic evaluator's `expected_faults` counts.
//!
//! A group failure wipes memory whole, exactly like a fault in the
//! blocking engine, so [`simulate_replicated_planned`] reads each
//! attempt's (rework, recovery) amounts from the compiled recovery row of
//! the last wipe ([`crate::trialplan`]) instead of tracking memory. The
//! non-blocking group engine stays on the reference path;
//! [`run_replicated_nonblocking_trials_with`] is its trial runner.
//!
//! # First attempts
//!
//! Every replica's fault draw is renewed at every attempt, yet almost
//! every attempt survives and a survivor's fault time is never read. An
//! attempt with nothing to rework or recover — every attempt before a
//! block's first group failure, and any whose block has no plan in the
//! row of the last wipe — has per-replica durations fixed by the cell.
//! [`FirstAttemptTable`] compiles them once per cell, next to the
//! [`TrialPlan`], each with the [`SurvivalHint`] of its processor's rate,
//! and the engines ask every replica [`FaultInjector::fault_before`]:
//! `None` for a survivor, `Some(f)` for a fault at `f`. An exponential
//! injector whose rate matches the hint settles most survivors without a
//! logarithm (the proof is in `dagchkpt_failure::injector`); any other
//! injector, and every attempt without a hint, compares
//! `next_fault_after(0.0)` with the duration, as before. The draws and
//! every float are those of the reference engine
//! ([`simulate_replicated_sets`]), which the differential suite pins.
//!
//! # Blocking vs non-blocking
//!
//! [`simulate_replicated_sets`] folds the winner's checkpoint write into its
//! block (synchronous writes). [`simulate_replicated_nonblocking`] instead
//! enqueues the write on a platform-wide FIFO (the shared stable-storage
//! channel): while writes are in flight every replica computes at
//! `compute_rate`, a checkpoint becomes durable (recoverable) only when
//! its write completes, and a group failure kills the in-flight queue —
//! the Section-7 semantics of `crate::nonblocking`, lifted to replica
//! groups. One deliberate simplification: writes spawned by a block
//! (rework re-enqueues and the winner's own write) enter the queue at the
//! *end* of the successful attempt rather than mid-attempt; with no
//! checkpoints, or zero-cost writes, the engine therefore coincides with
//! the blocking one trial by trial — the regimes the differential suite
//! pins.
//!
//! # Checkpoint storage tiers
//!
//! Both engines price every checkpoint write as
//! `wf.checkpoint_cost(task) / p.write_bw` and every recovery read from
//! the plan `/ p.read_bw` — costs come exclusively from the [`Workflow`].
//! Tier-aware simulation therefore needs no engine changes: simulate the
//! cost-scaled copy `wf.with_scaled_costs(&ckpt_scale, &rec_scale)` where
//! the scales come from `dagchkpt_core::storage_scales` (checkpoints ×
//! the tier's write factor at the task's replica-group size, recoveries ×
//! the read factor of the tier the checkpoint was *written* to). This is
//! the same per-source pricing `ReplicatedEvaluator::with_storage` bakes
//! into its recovery costs, so the MC engines cross-validate the
//! storage-aware analytic evaluator unchanged; a unit tier scales by
//! exactly `1.0`, which is bitwise invisible.
//!
//! # Replica sets and degree adapters
//!
//! Per-task replica sets are the representation: the `*_sets` entry
//! points ([`simulate_replicated_sets`],
//! [`simulate_replicated_nonblocking_sets`],
//! [`run_replicated_sets_trials_with`] and
//! [`run_replicated_nonblocking_trials_with`]) run the engines. The degree
//! entry points ([`simulate_replicated_nonblocking`],
//! [`run_replicated_trials_with`])
//! are adapters kept for existing callers: degree `d` becomes the
//! fastest-first prefix set `[0, …, d−1]`, clamped to `[1, P]`, and the
//! call goes to the `*_sets` twin. A degree of 0 therefore behaves exactly
//! like a degree of 1.
//!
//! # Degenerate delegation
//!
//! On a degenerate platform (one reference processor) with every set
//! `[0]`, both engines and the trial runners delegate to their homogeneous
//! counterparts, with processor rank 0 seeded by `TrialSpec::trial_seed`
//! verbatim ([`TrialSpec::proc_seed`]) — so a degenerate platform
//! reproduces the homogeneous statistics **bit for bit**.

use crate::engine::{simulate, SimConfig, SimResult};
use crate::events::UnitKind;
use crate::memory::MemoryState;
use crate::montecarlo::{planned_metric_tail_stats, planned_result_stats, TrialSpec, TrialStats};
use crate::nonblocking::{run_nonblocking_trials_with, simulate_nonblocking, NonBlockingConfig};
use crate::plan::{plan_amounts, recovery_plan, recovery_plan_with};
use crate::quantile::QuantileSketch;
use crate::stats::Stats;
use crate::trialplan::{PlannedResult, RowCursor, TrialPlan};
use dagchkpt_core::{Schedule, Workflow};
use dagchkpt_dag::{FixedBitSet, NodeId};
use dagchkpt_failure::{FaultInjector, HeteroPlatform, Processor, SurvivalHint};
use std::collections::VecDeque;

/// Outcome of one group attempt.
enum Attempt {
    /// Winning replica's rank and its elapsed time.
    Success { rank: usize, elapsed: f64 },
    /// All replicas faulted; elapsed time until the last one died.
    GroupFailure { elapsed: f64 },
}

/// Runs one group attempt over its replica slots `(rank, duration, hint)`
/// (processor indices into `injectors`): per-replica deterministic
/// durations, per-replica fault draws renewed at the attempt start, asked
/// through [`FaultInjector::fault_before`] — which answers exactly as
/// comparing `next_fault_after(0.0)` with the duration would. For a prefix
/// set `[0, …, r−1]` this is exactly the historical degree-`r` attempt,
/// draw for draw.
fn group_attempt<I: FaultInjector>(
    injectors: &mut [I],
    slots: impl Iterator<Item = (usize, f64, SurvivalHint)>,
) -> Attempt {
    let mut best: Option<(f64, usize)> = None;
    let mut max_f = 0.0f64;
    for (rank, d, hint) in slots {
        match injectors[rank].fault_before(d, hint) {
            None => {
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, rank));
                }
            }
            Some(f) => {
                if f > max_f {
                    max_f = f;
                }
            }
        }
    }
    match best {
        Some((elapsed, rank)) => Attempt::Success { rank, elapsed },
        None => Attempt::GroupFailure { elapsed: max_f },
    }
}

/// The slots of an attempt over replica `set` whose durations come from
/// `duration_of`, with no survival hint.
fn unhinted<'a>(
    procs: &'a [Processor],
    set: &'a [usize],
    duration_of: impl Fn(&Processor) -> f64 + 'a,
) -> impl Iterator<Item = (usize, f64, SurvivalHint)> + 'a {
    set.iter()
        .map(move |&rank| (rank, duration_of(&procs[rank]), SurvivalHint::NONE))
}

fn empty_result() -> SimResult {
    SimResult {
        makespan: 0.0,
        n_faults: 0,
        time_work: 0.0,
        time_rework: 0.0,
        time_recovery: 0.0,
        time_checkpoint: 0.0,
        time_wasted: 0.0,
        time_downtime: 0.0,
        trace: None,
    }
}

/// `true` when normalized `sets` on `platform` run on the homogeneous
/// engines (see the module docs).
fn delegates(platform: &HeteroPlatform, sets: &[Vec<usize>]) -> bool {
    platform.is_degenerate() && sets.iter().all(|s| s.as_slice() == [0])
}

/// Normalizes per-task replica sets against the platform (sorted, deduped,
/// clamped — see `dagchkpt_core::normalize_replica_set`).
fn normalized_sets(platform: &HeteroPlatform, sets: &[Vec<usize>]) -> Vec<Vec<usize>> {
    sets.iter()
        .map(|s| dagchkpt_core::normalize_replica_set(s, platform.n_procs()))
        .collect()
}

/// The fastest-first prefix sets `[0, …, d−1]` of per-task replication
/// `degrees`, each clamped to `[1, P]` — what every degree adapter hands
/// its `*_sets` twin.
fn prefix_sets(platform: &HeteroPlatform, degrees: &[usize]) -> Vec<Vec<usize>> {
    degrees
        .iter()
        .map(|&d| (0..d.clamp(1, platform.n_procs())).collect())
        .collect()
}

/// Simulates `schedule` once on `platform` with explicit per-task replica
/// **sets** (processor indices into `platform.procs()`; `injectors` is
/// indexed by processor, so it must cover the largest index any set uses)
/// and synchronous checkpoint writes. Sets are normalized like the
/// analytic evaluator's.
pub fn simulate_replicated_sets<I: FaultInjector>(
    wf: &Workflow,
    schedule: &Schedule,
    platform: &HeteroPlatform,
    sets: &[Vec<usize>],
    injectors: &mut [I],
) -> SimResult {
    assert_eq!(sets.len(), wf.n_tasks(), "one replica set per task");
    let sets = normalized_sets(platform, sets);
    if delegates(platform, &sets) {
        return simulate(
            wf,
            schedule,
            &mut injectors[0],
            SimConfig {
                downtime: platform.downtime(),
                record_trace: false,
            },
        );
    }
    let refs: Vec<&[usize]> = sets.iter().map(|s| s.as_slice()).collect();
    simulate_replicated_on(wf, schedule, platform, &refs, injectors)
}

/// Shared blocking group engine over per-task replica sets.
fn simulate_replicated_on<I: FaultInjector>(
    wf: &Workflow,
    schedule: &Schedule,
    platform: &HeteroPlatform,
    sets: &[&[usize]],
    injectors: &mut [I],
) -> SimResult {
    let n = wf.n_tasks();
    assert!(
        injectors.len() >= dagchkpt_core::replica_rank_count(sets),
        "need one injector per replica rank"
    );
    let procs = platform.procs();
    let downtime = platform.downtime();
    let mut t = 0.0f64;
    let mut memory = MemoryState::new(n);
    let mut res = empty_result();

    for &task in schedule.order() {
        let set = sets[task.index()];
        let w = wf.work(task);
        let c = if schedule.is_checkpointed(task) {
            wf.checkpoint_cost(task)
        } else {
            0.0
        };
        loop {
            let plan = recovery_plan(wf, schedule, &memory, task);
            let (rework, recovery) = plan_amounts(&plan);
            let attempt = group_attempt(
                injectors,
                unhinted(procs, set, |p| {
                    (rework + w) / p.speed + recovery / p.read_bw + c / p.write_bw
                }),
            );
            match attempt {
                Attempt::Success { rank, elapsed } => {
                    t += elapsed;
                    let p = &procs[rank];
                    res.time_rework += rework / p.speed;
                    res.time_recovery += recovery / p.read_bw;
                    res.time_work += w / p.speed;
                    res.time_checkpoint += c / p.write_bw;
                    for step in &plan {
                        memory.store(step.task);
                    }
                    memory.store(task);
                    break;
                }
                Attempt::GroupFailure { elapsed } => {
                    t += elapsed + downtime;
                    res.time_wasted += elapsed;
                    res.time_downtime += downtime;
                    res.n_faults += 1;
                    memory.wipe();
                }
            }
        }
    }
    res.makespan = t;
    res
}

/// One replica slot of a block's first attempt.
#[derive(Debug, Clone, Copy)]
struct FirstSlot {
    /// The replica's processor rank.
    rank: usize,
    /// The attempt's duration with no rework and no recovery.
    duration: f64,
    /// The survival threshold for `duration` at the processor's rate.
    hint: SurvivalHint,
}

/// The compiled first attempts of a replicated cell: for every schedule
/// position and every replica of its set, the duration the blocking
/// engine computes when the attempt has nothing to rework or recover,
/// `(0 + w)/speed + 0/read_bw + c/write_bw` (the same expression, so the
/// same bits), and the [`SurvivalHint`] built from the processor's rate
/// for that duration. Compiled once per cell next to the [`TrialPlan`]
/// and shared read-only by every trial.
///
/// Every attempt before a block's first group failure is such an attempt,
/// and so is every attempt whose block has no plan in the row of the last
/// wipe, which covers almost every attempt at realistic rates. The engine
/// reads them here and lets an exponential injector settle a survivor
/// without a logarithm (`dagchkpt_failure::injector`). The draws and every
/// float are unchanged. Attempts after a wipe with a recovery plan keep
/// computing their durations and take no hint.
#[derive(Debug, Clone)]
pub struct FirstAttemptTable {
    /// Position `idx` owns `slots[offsets[idx]..offsets[idx + 1]]`.
    offsets: Vec<u32>,
    /// One slot per replica, positions in schedule order and replicas in
    /// set order.
    slots: Vec<FirstSlot>,
    /// Injectors a trial needs: one past the largest rank of any set.
    ranks: usize,
}

impl FirstAttemptTable {
    /// Compiles the table of `plan` on `platform` with per-**task** replica
    /// `sets` (normalized; indexed by task id, like the engines').
    pub fn compile(plan: &TrialPlan, platform: &HeteroPlatform, sets: &[&[usize]]) -> Self {
        assert_eq!(sets.len(), plan.n_tasks(), "one replica set per task");
        let procs = platform.procs();
        let mut offsets = Vec::with_capacity(plan.n_tasks() + 1);
        let mut slots = Vec::new();
        offsets.push(0);
        for idx in 0..plan.n_tasks() {
            let (w, c) = (plan.work[idx], plan.block_ckpt[idx]);
            for &rank in sets[plan.order[idx].index()] {
                let p = &procs[rank];
                let duration = (0.0 + w) / p.speed + 0.0 / p.read_bw + c / p.write_bw;
                slots.push(FirstSlot {
                    rank,
                    duration,
                    hint: SurvivalHint::new(p.lambda, duration),
                });
            }
            offsets.push(slots.len() as u32);
        }
        FirstAttemptTable {
            offsets,
            slots,
            ranks: dagchkpt_core::replica_rank_count(sets),
        }
    }

    /// The slots of the block at position `idx`.
    #[inline]
    fn slots(&self, idx: usize) -> &[FirstSlot] {
        &self.slots[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }
}

/// Zero-allocation twin of the blocking group engine: identical group
/// attempts, pricing and accounting — bit-identical results (pinned by
/// the differential tests) — but each attempt reads its (rework,
/// recovery) amounts from the compiled `plan`'s recovery rows instead of
/// tracking memory and building a plan, an attempt with neither reads
/// its durations and survival hints from `first` (compiled from the same
/// `plan` and `platform`), and no trace machinery exists. The trial
/// runners share one [`TrialPlan`] and one [`FirstAttemptTable`] across
/// all threads.
pub fn simulate_replicated_planned<I: FaultInjector>(
    plan: &TrialPlan,
    first: &FirstAttemptTable,
    platform: &HeteroPlatform,
    injectors: &mut [I],
) -> PlannedResult {
    assert_eq!(
        first.offsets.len(),
        plan.n_tasks() + 1,
        "the table belongs to another plan"
    );
    assert!(
        injectors.len() >= first.ranks,
        "need one injector per replica rank"
    );
    let procs = platform.procs();
    let downtime = platform.downtime();
    let mut t = 0.0f64;
    let mut res = PlannedResult::default();

    let mut row = RowCursor::default();
    for idx in 0..plan.n_tasks() {
        let slots = first.slots(idx);
        let w = plan.work[idx];
        let c = plan.block_ckpt[idx];
        loop {
            let entry = row.take(plan, idx).map(|e| plan.entry(e));
            let (rework, recovery) = entry.map_or((0.0, 0.0), |e| (e.rework, e.recovery));
            let attempt = if entry.is_none() {
                group_attempt(
                    injectors,
                    slots.iter().map(|s| (s.rank, s.duration, s.hint)),
                )
            } else {
                group_attempt(
                    injectors,
                    slots.iter().map(|s| {
                        let p = &procs[s.rank];
                        let d = (rework + w) / p.speed + recovery / p.read_bw + c / p.write_bw;
                        (s.rank, d, SurvivalHint::NONE)
                    }),
                )
            };
            match attempt {
                Attempt::Success { rank, elapsed } => {
                    t += elapsed;
                    let p = &procs[rank];
                    res.time_rework += rework / p.speed;
                    res.time_recovery += recovery / p.read_bw;
                    res.time_work += w / p.speed;
                    res.time_checkpoint += c / p.write_bw;
                    break;
                }
                Attempt::GroupFailure { elapsed } => {
                    t += elapsed + downtime;
                    res.time_wasted += elapsed;
                    res.time_downtime += downtime;
                    res.n_faults += 1;
                    // The group failure wiped memory during this block.
                    row = plan.row(idx);
                }
            }
        }
    }
    res.makespan = t;
    res
}

/// [`simulate_replicated_nonblocking_sets`] with per-task replication
/// `degrees` as fastest-first prefix sets — the degree adapter.
pub fn simulate_replicated_nonblocking<I: FaultInjector>(
    wf: &Workflow,
    schedule: &Schedule,
    platform: &HeteroPlatform,
    degrees: &[usize],
    injectors: &mut [I],
    compute_rate: f64,
) -> SimResult {
    let sets = prefix_sets(platform, degrees);
    simulate_replicated_nonblocking_sets(wf, schedule, platform, &sets, injectors, compute_rate)
}

/// Simulates `schedule` once on `platform` over explicit per-task replica
/// sets (see [`simulate_replicated_sets`] for the indexing convention)
/// with **non-blocking** checkpoint writes overlapping subsequent
/// computation at `compute_rate` (see the module docs for the exact
/// semantics).
pub fn simulate_replicated_nonblocking_sets<I: FaultInjector>(
    wf: &Workflow,
    schedule: &Schedule,
    platform: &HeteroPlatform,
    sets: &[Vec<usize>],
    injectors: &mut [I],
    compute_rate: f64,
) -> SimResult {
    assert!(
        compute_rate > 0.0 && compute_rate <= 1.0,
        "compute_rate must be in (0, 1]"
    );
    assert_eq!(sets.len(), wf.n_tasks(), "one replica set per task");
    let sets = normalized_sets(platform, sets);
    if delegates(platform, &sets) {
        return simulate_nonblocking(
            wf,
            schedule,
            &mut injectors[0],
            NonBlockingConfig {
                downtime: platform.downtime(),
                compute_rate,
                record_trace: false,
            },
        );
    }
    let refs: Vec<&[usize]> = sets.iter().map(|s| s.as_slice()).collect();
    simulate_replicated_nonblocking_on(wf, schedule, platform, &refs, injectors, compute_rate)
}

/// Shared non-blocking group engine over per-task replica sets.
fn simulate_replicated_nonblocking_on<I: FaultInjector>(
    wf: &Workflow,
    schedule: &Schedule,
    platform: &HeteroPlatform,
    sets: &[&[usize]],
    injectors: &mut [I],
    compute_rate: f64,
) -> SimResult {
    let n = wf.n_tasks();
    assert!(
        injectors.len() >= dagchkpt_core::replica_rank_count(sets),
        "need one injector per replica rank"
    );
    let procs = platform.procs();
    let downtime = platform.downtime();
    let positions = schedule.positions();
    let mut t = 0.0f64;
    let mut memory = MemoryState::new(n);
    let mut durable = FixedBitSet::new(n);
    let mut writes: VecDeque<(NodeId, f64)> = VecDeque::new();
    let mut res = empty_result();

    // Completes queued writes worth `wall` seconds of front-of-queue time.
    let drain = |writes: &mut VecDeque<(NodeId, f64)>, durable: &mut FixedBitSet, wall: f64| {
        let mut left = wall;
        while let Some(front) = writes.front_mut() {
            if front.1 > left {
                front.1 -= left;
                break;
            }
            left -= front.1;
            let (task, _) = writes.pop_front().expect("front exists");
            durable.insert(task.index());
        }
    };

    for &task in schedule.order() {
        let set = sets[task.index()];
        let w = wf.work(task);
        loop {
            let plan = recovery_plan_with(wf, &positions, &durable, &memory, task);
            let (rework, recovery) = plan_amounts(&plan);
            // Wall time at which the queue (as of the attempt start) empties.
            let queue_wall: f64 = writes.iter().map(|(_, rem)| rem).sum();
            let content = |p: &Processor| (rework + w) / p.speed + recovery / p.read_bw;
            let attempt = group_attempt(
                injectors,
                unhinted(procs, set, |p| {
                    let c = content(p);
                    // At rate `compute_rate` until the queue drains, then
                    // full speed.
                    if c <= queue_wall * compute_rate {
                        c / compute_rate
                    } else {
                        queue_wall + (c - queue_wall * compute_rate)
                    }
                }),
            );
            match attempt {
                Attempt::Success { rank, elapsed } => {
                    t += elapsed;
                    drain(&mut writes, &mut durable, elapsed);
                    let p = &procs[rank];
                    res.time_rework += rework / p.speed;
                    res.time_recovery += recovery / p.read_bw;
                    res.time_work += w / p.speed;
                    // Interference stretch goes to the checkpoint bucket,
                    // like the single-processor non-blocking engine.
                    res.time_checkpoint += elapsed - content(p);
                    for step in &plan {
                        memory.store(step.task);
                        // A re-executed task the schedule wants checkpointed
                        // lost its write to an earlier group failure:
                        // re-enqueue it on the winner's write channel.
                        if step.kind == UnitKind::Rework
                            && schedule.is_checkpointed(step.task)
                            && !durable.contains(step.task.index())
                        {
                            writes
                                .push_back((step.task, wf.checkpoint_cost(step.task) / p.write_bw));
                        }
                    }
                    memory.store(task);
                    if schedule.is_checkpointed(task) {
                        writes.push_back((task, wf.checkpoint_cost(task) / p.write_bw));
                    }
                    // Zero-cost writes are durable immediately.
                    drain(&mut writes, &mut durable, 0.0);
                    break;
                }
                Attempt::GroupFailure { elapsed } => {
                    // Writes completing before the last replica died are
                    // durable; the rest die with the fault.
                    drain(&mut writes, &mut durable, elapsed);
                    writes.clear();
                    t += elapsed + downtime;
                    res.time_wasted += elapsed;
                    res.time_downtime += downtime;
                    res.n_faults += 1;
                    memory.wipe();
                }
            }
        }
    }
    res.makespan = t;
    res
}

/// [`run_replicated_sets_trials_with`] with per-task replication
/// `degrees` as fastest-first prefix sets — the degree adapter.
pub fn run_replicated_trials_with<I, F>(
    wf: &Workflow,
    schedule: &Schedule,
    platform: &HeteroPlatform,
    degrees: &[usize],
    spec: TrialSpec,
    make_injector: F,
) -> TrialStats
where
    I: FaultInjector + Send,
    F: Fn(usize, u64) -> I + Sync,
{
    let sets = prefix_sets(platform, degrees);
    run_replicated_sets_trials_with(wf, schedule, platform, &sets, spec, make_injector)
}

/// Refills `injectors` with trial `i`'s per-rank fault sources.
fn fill_injectors<I>(
    injectors: &mut Vec<I>,
    ranks: usize,
    spec: TrialSpec,
    i: usize,
    make_injector: &impl Fn(usize, u64) -> I,
) {
    injectors.clear();
    injectors.extend((0..ranks).map(|rank| make_injector(rank, spec.proc_seed(i, rank))));
}

/// Replicated Monte-Carlo trial runner over explicit per-task replica
/// sets — the Monte-Carlo twin of `dagchkpt_core::evaluate_replicated_sets`,
/// and the engine that cross-validates the joint optimizer's winning
/// (schedule, assignment) pairs. `make_injector(rank, seed)` builds
/// processor rank `rank`'s fault source for one trial, for every rank up
/// to the largest index any set uses, seeded by [`TrialSpec::proc_seed`].
/// Statistics aggregate through the same chunked accumulators as
/// [`crate::run_trials_with`] — bit-identical for any thread count,
/// all-NaN for zero trials — and the degenerate platform delegates to the
/// homogeneous runner bit for bit. One compiled [`TrialPlan`] serves all
/// threads, and each fold chunk reuses one per-rank injector vector
/// (`clear` + `extend` per trial — no per-trial allocation).
pub fn run_replicated_sets_trials_with<I, F>(
    wf: &Workflow,
    schedule: &Schedule,
    platform: &HeteroPlatform,
    sets: &[Vec<usize>],
    spec: TrialSpec,
    make_injector: F,
) -> TrialStats
where
    I: FaultInjector + Send,
    F: Fn(usize, u64) -> I + Sync,
{
    assert_eq!(sets.len(), wf.n_tasks(), "one replica set per task");
    let sets = normalized_sets(platform, sets);
    if delegates(platform, &sets) {
        return crate::montecarlo::run_trials_with(
            wf,
            schedule,
            platform.downtime(),
            spec,
            |seed| make_injector(0, seed),
        );
    }
    let refs: Vec<&[usize]> = sets.iter().map(|s| s.as_slice()).collect();
    let plan = TrialPlan::compile(wf, schedule);
    let first = FirstAttemptTable::compile(&plan, platform, &refs);
    let ranks = first.ranks;
    planned_result_stats(
        spec,
        || Vec::with_capacity(ranks),
        |injectors: &mut Vec<I>, i| {
            fill_injectors(injectors, ranks, spec, i, &make_injector);
            simulate_replicated_planned(&plan, &first, platform, injectors)
        },
    )
}

/// Replicated **non-blocking** Monte-Carlo runner over explicit per-task
/// replica sets (a degree assignment is the prefix sets `[0, …, r−1]`,
/// which reproduce the degree engine draw for draw): makespan statistics
/// and a tail sketch, aggregated like [`crate::run_nonblocking_trials_with`]
/// — bit-identical for any thread count. Each fold chunk reuses one
/// per-rank injector vector; the trials themselves still run the
/// reference engine. The degenerate platform delegates to the homogeneous
/// non-blocking runner bit for bit.
pub fn run_replicated_nonblocking_trials_with<I, F>(
    wf: &Workflow,
    schedule: &Schedule,
    platform: &HeteroPlatform,
    sets: &[Vec<usize>],
    compute_rate: f64,
    spec: TrialSpec,
    make_injector: F,
) -> (Stats, QuantileSketch)
where
    I: FaultInjector + Send,
    F: Fn(usize, u64) -> I + Sync,
{
    assert!(
        compute_rate > 0.0 && compute_rate <= 1.0,
        "compute_rate must be in (0, 1]"
    );
    assert_eq!(sets.len(), wf.n_tasks(), "one replica set per task");
    let sets = normalized_sets(platform, sets);
    if delegates(platform, &sets) {
        let cfg = NonBlockingConfig {
            downtime: platform.downtime(),
            compute_rate,
            record_trace: false,
        };
        return run_nonblocking_trials_with(wf, schedule, cfg, spec, |seed| make_injector(0, seed));
    }
    let ranks = dagchkpt_core::replica_rank_count(&sets);
    let refs: Vec<&[usize]> = sets.iter().map(|s| s.as_slice()).collect();
    planned_metric_tail_stats(
        spec,
        || Vec::with_capacity(ranks),
        |injectors: &mut Vec<I>, i| {
            fill_injectors(injectors, ranks, spec, i, &make_injector);
            simulate_replicated_nonblocking_on(
                wf,
                schedule,
                platform,
                &refs,
                injectors,
                compute_rate,
            )
            .makespan
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::run_trials_with;
    use dagchkpt_core::{
        storage_scales, CostRule, ReplicatedEvaluator, ReplicationStrategy, TaskCosts,
    };
    use dagchkpt_dag::{generators, topo};
    use dagchkpt_failure::{ExponentialInjector, StorageHierarchy, StorageTier};

    /// Test-local injector replaying per-attempt relative fault times.
    struct SeqInjector {
        times: std::vec::IntoIter<f64>,
    }

    impl SeqInjector {
        fn new(times: Vec<f64>) -> Self {
            SeqInjector {
                times: times.into_iter(),
            }
        }
    }

    impl FaultInjector for SeqInjector {
        fn next_fault_after(&mut self, t: f64) -> f64 {
            t + self.times.next().unwrap_or(f64::INFINITY)
        }
    }

    fn hetero2(downtime: f64) -> HeteroPlatform {
        HeteroPlatform::new(
            vec![
                Processor {
                    speed: 2.0,
                    ..Processor::reference(4e-3)
                },
                Processor::reference(1e-3),
            ],
            downtime,
        )
        .unwrap()
    }

    /// Deterministic walkthrough of the blocking group engine: winner
    /// selection, group failure, recovery pricing, and the accounting
    /// identity.
    #[test]
    fn blocking_walkthrough_with_hand_faults() {
        let costs = vec![
            TaskCosts::new(10.0, 4.0, 2.0),
            TaskCosts::new(10.0, 0.0, 0.0),
        ];
        let wf = Workflow::new(generators::chain(2), costs);
        let mut ckpt = FixedBitSet::new(2);
        ckpt.insert(0);
        let s = Schedule::new(&wf, topo::topological_order(wf.dag()), ckpt).unwrap();
        let platform = hetero2(1.0);
        // Rank 0 = speed-2 processor. Block T0: d0 = 10/2 + 4 = 9,
        // d1 = 14. Rank 0 faults at 3, rank 1 survives → winner rank 1 at
        // 14. Block T1: d0 = 5, d1 = 10; both fault (1, 2) → group failure
        // at 2, downtime 1. Retry recovers T0 (r = 2): d0 = 5 + 2 = 7,
        // d1 = 12; rank 0 survives → +7. Makespan 14 + 3 + 7 = 24.
        let mut injectors = vec![
            SeqInjector::new(vec![3.0, 1.0, 100.0]),
            SeqInjector::new(vec![20.0, 2.0, 0.5]),
        ];
        let r = simulate_replicated_sets(
            &wf,
            &s,
            &platform,
            &prefix_sets(&platform, &[2, 2]),
            &mut injectors,
        );
        assert!((r.makespan - 24.0).abs() < 1e-12, "makespan {}", r.makespan);
        assert_eq!(r.n_faults, 1);
        assert!((r.time_work - 15.0).abs() < 1e-12); // 10 (rank 1) + 5 (rank 0)
        assert!((r.time_checkpoint - 4.0).abs() < 1e-12);
        assert!((r.time_recovery - 2.0).abs() < 1e-12);
        assert!((r.time_wasted - 2.0).abs() < 1e-12);
        assert!((r.time_downtime - 1.0).abs() < 1e-12);
        assert!((r.accounted_time() - r.makespan).abs() < 1e-9);
    }

    /// Degenerate platform + degree 1: the trial runner delegates and the
    /// statistics are bit-identical to the homogeneous runner.
    #[test]
    fn degenerate_trials_are_bit_identical_to_homogeneous() {
        let wf = Workflow::uniform(generators::fork_join(4), 10.0, 1.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let platform = HeteroPlatform::homogeneous(1, 3e-3, 1.0).unwrap();
        let spec = TrialSpec::new(2_000, 11);
        let degrees = vec![1; wf.n_tasks()];
        let rep = run_replicated_trials_with(&wf, &s, &platform, &degrees, spec, |_, seed| {
            ExponentialInjector::new(3e-3, seed)
        });
        let hom = run_trials_with(&wf, &s, 1.0, spec, |seed| {
            ExponentialInjector::new(3e-3, seed)
        });
        assert_eq!(rep.makespan.mean().to_bits(), hom.makespan.mean().to_bits());
        assert_eq!(
            rep.makespan.stddev().to_bits(),
            hom.makespan.stddev().to_bits()
        );
        assert_eq!(rep.faults.mean().to_bits(), hom.faults.mean().to_bits());
    }

    /// The blocking group engine converges to the replication-aware
    /// analytic evaluator (the sim-side half of the cross-validation).
    #[test]
    fn replicated_monte_carlo_matches_replicated_evaluator() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let order = topo::topological_order(wf.dag());
        let ckpt = FixedBitSet::from_indices(8, [1usize, 3, 6]);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let platform = hetero2(2.0);
        for degrees in [
            ReplicationStrategy::Uniform { degree: 2 }.degrees(&wf, 2),
            ReplicationStrategy::Heaviest {
                degree: 2,
                count: 3,
            }
            .degrees(&wf, 2),
        ] {
            let report = ReplicatedEvaluator::from_degrees(&wf, &platform, &degrees).evaluate(&s);
            let stats = run_replicated_trials_with(
                &wf,
                &s,
                &platform,
                &degrees,
                TrialSpec::new(40_000, 23),
                |rank, seed| ExponentialInjector::new(platform.procs()[rank].lambda, seed),
            );
            let z = (stats.makespan.mean() - report.expected_makespan) / stats.makespan.sem();
            assert!(
                z.abs() <= 4.0,
                "makespan z = {z:.2}: MC {} vs analytic {}",
                stats.makespan.mean(),
                report.expected_makespan
            );
            let fz = (stats.faults.mean() - report.expected_faults) / stats.faults.sem();
            assert!(
                fz.abs() <= 4.0,
                "faults z = {fz:.2}: MC {} vs analytic {}",
                stats.faults.mean(),
                report.expected_faults
            );
        }
    }

    /// With no checkpoints (nothing to write) the non-blocking engine
    /// coincides with the blocking one trial by trial.
    #[test]
    fn nonblocking_without_checkpoints_equals_blocking() {
        let wf = Workflow::uniform(generators::chain(5), 12.0, 3.0);
        let s = Schedule::never(&wf, topo::topological_order(wf.dag())).unwrap();
        let platform = hetero2(1.5);
        let spec = TrialSpec::new(300, 7);
        for i in 0..spec.trials {
            let mut a: Vec<ExponentialInjector> = (0..2)
                .map(|rank| {
                    ExponentialInjector::new(platform.procs()[rank].lambda, spec.proc_seed(i, rank))
                })
                .collect();
            let mut b: Vec<ExponentialInjector> = (0..2)
                .map(|rank| {
                    ExponentialInjector::new(platform.procs()[rank].lambda, spec.proc_seed(i, rank))
                })
                .collect();
            let blocking = simulate_replicated_sets(
                &wf,
                &s,
                &platform,
                &prefix_sets(&platform, &[2; 5]),
                &mut a,
            );
            let nb = simulate_replicated_nonblocking(&wf, &s, &platform, &[2; 5], &mut b, 0.6);
            assert_eq!(nb.makespan.to_bits(), blocking.makespan.to_bits());
            assert_eq!(nb.n_faults, blocking.n_faults);
        }
    }

    /// Zero-cost checkpoint writes are durable instantly: non-blocking and
    /// blocking coincide even fully checkpointed, and nothing spins.
    #[test]
    fn nonblocking_zero_cost_writes_equal_blocking() {
        let wf = Workflow::uniform(generators::chain(4), 10.0, 0.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let platform = hetero2(1.0);
        let spec = TrialSpec::new(200, 3);
        for i in 0..spec.trials {
            let build = || -> Vec<ExponentialInjector> {
                (0..2)
                    .map(|rank| {
                        ExponentialInjector::new(
                            platform.procs()[rank].lambda,
                            spec.proc_seed(i, rank),
                        )
                    })
                    .collect()
            };
            let blocking = simulate_replicated_sets(
                &wf,
                &s,
                &platform,
                &prefix_sets(&platform, &[2; 4]),
                &mut build(),
            );
            let nb =
                simulate_replicated_nonblocking(&wf, &s, &platform, &[2; 4], &mut build(), 0.5);
            assert_eq!(nb.makespan.to_bits(), blocking.makespan.to_bits());
            assert_eq!(nb.time_rework.to_bits(), blocking.time_rework.to_bits());
        }
    }

    /// Non-blocking overlap hides write time when faults are rare, and the
    /// accounting identity holds.
    #[test]
    fn nonblocking_hides_writes_and_accounts_time() {
        let wf = Workflow::uniform(generators::chain(6), 20.0, 5.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let platform = hetero2(0.0);
        let mut injectors = vec![SeqInjector::new(vec![]), SeqInjector::new(vec![])];
        let nb = simulate_replicated_nonblocking(&wf, &s, &platform, &[2; 6], &mut injectors, 1.0);
        let mut injectors = vec![SeqInjector::new(vec![]), SeqInjector::new(vec![])];
        let blocking = simulate_replicated_sets(
            &wf,
            &s,
            &platform,
            &prefix_sets(&platform, &[2; 6]),
            &mut injectors,
        );
        // Fault-free: rank 0 (speed 2) always wins; blocking pays 6 writes
        // of 5 s, non-blocking hides all but nothing of the compute.
        assert!((blocking.makespan - (60.0 + 30.0)).abs() < 1e-12);
        assert!((nb.makespan - 60.0).abs() < 1e-12, "nb {}", nb.makespan);
        assert!((nb.accounted_time() - nb.makespan).abs() < 1e-9);
        assert!((blocking.accounted_time() - blocking.makespan).abs() < 1e-9);
    }

    /// Zero trials yield the coherent all-NaN aggregate (the PR 2
    /// convention), replicated runner included.
    #[test]
    fn zero_trials_are_all_nan() {
        let wf = Workflow::uniform(generators::chain(3), 10.0, 1.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let platform = hetero2(0.0);
        for spec in [TrialSpec::new(0, 1), TrialSpec::sequential(0, 1)] {
            let stats =
                run_replicated_trials_with(&wf, &s, &platform, &[2; 3], spec, |rank, seed| {
                    ExponentialInjector::new(platform.procs()[rank].lambda, seed)
                });
            assert_eq!(stats.makespan.n(), 0);
            assert!(stats.makespan.mean().is_nan());
            assert!(stats.mean_breakdown.iter().all(|v| v.is_nan()));
        }
    }

    /// Parallel and sequential replicated statistics are bit-identical
    /// (chunked accumulation is shared with the homogeneous runner).
    #[test]
    fn replicated_parallel_sequential_bit_identity() {
        let wf = Workflow::uniform(generators::grid(3, 3), 8.0, 0.8);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let platform = hetero2(1.0);
        let run = |spec: TrialSpec| {
            run_replicated_trials_with(&wf, &s, &platform, &[2; 9], spec, |rank, seed| {
                ExponentialInjector::new(platform.procs()[rank].lambda, seed)
            })
        };
        let par = run(TrialSpec::new(3_000, 19));
        let seq = run(TrialSpec::sequential(3_000, 19));
        assert_eq!(par.makespan.mean().to_bits(), seq.makespan.mean().to_bits());
        assert_eq!(
            par.makespan.stddev().to_bits(),
            seq.makespan.stddev().to_bits()
        );
        for (a, b) in par.mean_breakdown.iter().zip(seq.mean_breakdown.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Prefix replica sets reproduce the degree API **bit for bit** across
    /// the non-blocking engine and the trial runner — the sim-side anchor that lets
    /// per-task replica selection generalize the engines without touching
    /// any golden value.
    #[test]
    fn prefix_sets_are_bit_identical_to_degrees() {
        let wf = Workflow::uniform(generators::grid(3, 3), 8.0, 0.8);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let platform = hetero2(1.0);
        let degrees = [2usize, 1, 2, 1, 2, 1, 2, 1, 2];
        let sets: Vec<Vec<usize>> = degrees.iter().map(|&d| (0..d).collect()).collect();
        let build = |i: usize, spec: &TrialSpec| -> Vec<ExponentialInjector> {
            (0..2)
                .map(|rank| {
                    ExponentialInjector::new(platform.procs()[rank].lambda, spec.proc_seed(i, rank))
                })
                .collect()
        };
        let spec = TrialSpec::new(200, 17);
        for i in 0..spec.trials {
            let a = simulate_replicated_nonblocking(
                &wf,
                &s,
                &platform,
                &degrees,
                &mut build(i, &spec),
                0.7,
            );
            let b = simulate_replicated_nonblocking_sets(
                &wf,
                &s,
                &platform,
                &sets,
                &mut build(i, &spec),
                0.7,
            );
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        }
        let by_deg =
            run_replicated_trials_with(&wf, &s, &platform, &degrees, spec, |rank, seed| {
                ExponentialInjector::new(platform.procs()[rank].lambda, seed)
            });
        let by_set =
            run_replicated_sets_trials_with(&wf, &s, &platform, &sets, spec, |rank, seed| {
                ExponentialInjector::new(platform.procs()[rank].lambda, seed)
            });
        assert_eq!(
            by_deg.makespan.mean().to_bits(),
            by_set.makespan.mean().to_bits()
        );
        assert_eq!(
            by_deg.makespan.stddev().to_bits(),
            by_set.makespan.stddev().to_bits()
        );
    }

    /// Non-prefix sets run end to end: a task pinned to the reliable slow
    /// processor only draws that processor's injector, and the stats agree
    /// with the exact set evaluator.
    #[test]
    fn non_prefix_sets_validate_against_set_evaluator() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let order = topo::topological_order(wf.dag());
        let ckpt = FixedBitSet::from_indices(8, [1usize, 3, 6]);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let platform = hetero2(2.0);
        let mut sets = vec![vec![0usize, 1]; 8];
        sets[3] = vec![1];
        sets[6] = vec![1];
        let report = dagchkpt_core::evaluate_replicated_sets(&wf, &platform, &s, &sets);
        let stats = run_replicated_sets_trials_with(
            &wf,
            &s,
            &platform,
            &sets,
            TrialSpec::new(40_000, 29),
            |rank, seed| ExponentialInjector::new(platform.procs()[rank].lambda, seed),
        );
        let z = (stats.makespan.mean() - report.expected_makespan) / stats.makespan.sem();
        assert!(
            z.abs() <= 4.0,
            "makespan z = {z:.2}: MC {} vs analytic {}",
            stats.makespan.mean(),
            report.expected_makespan
        );
        let fz = (stats.faults.mean() - report.expected_faults) / stats.faults.sem();
        assert!(fz.abs() <= 4.0, "faults z = {fz:.2}");
    }

    /// A unit storage hierarchy scales every cost by exactly 1.0: both
    /// engines are bit-identical trial by trial on the scaled copy — the
    /// sim-side half of the "unit tiers are invisible" guarantee.
    #[test]
    fn unit_storage_scales_are_bit_identical() {
        let wf = Workflow::uniform(generators::grid(3, 3), 8.0, 0.8);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let platform = hetero2(1.0);
        let h = StorageHierarchy::new(vec![StorageTier::unit("mem")]).unwrap();
        let (cs, rs) = storage_scales(&h, &[0; 9], &[2; 9]);
        let scaled = wf.with_scaled_costs(&cs, &rs);
        let spec = TrialSpec::new(200, 31);
        let build = |i: usize| -> Vec<ExponentialInjector> {
            (0..2)
                .map(|rank| {
                    ExponentialInjector::new(platform.procs()[rank].lambda, spec.proc_seed(i, rank))
                })
                .collect()
        };
        for i in 0..spec.trials {
            let a = simulate_replicated_sets(
                &wf,
                &s,
                &platform,
                &prefix_sets(&platform, &[2; 9]),
                &mut build(i),
            );
            let b = simulate_replicated_sets(
                &scaled,
                &s,
                &platform,
                &prefix_sets(&platform, &[2; 9]),
                &mut build(i),
            );
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            assert_eq!(a.n_faults, b.n_faults);
            let a =
                simulate_replicated_nonblocking(&wf, &s, &platform, &[2; 9], &mut build(i), 0.7);
            let b = simulate_replicated_nonblocking(
                &scaled,
                &s,
                &platform,
                &[2; 9],
                &mut build(i),
                0.7,
            );
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        }
    }

    /// The blocking engine on a tier-scaled workflow converges to the
    /// storage-aware analytic evaluator — the MC half of the tier-pricing
    /// cross-validation, with a mixed per-task assignment and write
    /// contention in play.
    #[test]
    fn scaled_workflow_matches_storage_evaluator() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let order = topo::topological_order(wf.dag());
        let ckpt = FixedBitSet::from_indices(8, [1usize, 3, 6]);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let platform = hetero2(2.0);
        let h = StorageHierarchy::new(vec![
            StorageTier {
                name: "local".to_string(),
                write_bw: 2.0,
                read_bw: 0.5,
                compression: 1.0,
                contention: 0.5,
            },
            StorageTier {
                name: "pfs".to_string(),
                write_bw: 0.5,
                read_bw: 2.0,
                compression: 0.8,
                contention: 0.0,
            },
        ])
        .unwrap();
        let tiers = [0usize, 1, 0, 1, 0, 1, 0, 1];
        let degrees = [2usize; 8];
        let analytic = {
            let sets: Vec<Vec<usize>> = degrees.iter().map(|&d| (0..d).collect()).collect();
            let ev = ReplicatedEvaluator::from_sets(&wf, &platform, &sets).with_storage(&h, &tiers);
            ev.evaluate(&s).expected_makespan
        };
        let (cs, rs) = storage_scales(&h, &tiers, &degrees);
        let scaled = wf.with_scaled_costs(&cs, &rs);
        let stats = run_replicated_trials_with(
            &scaled,
            &s,
            &platform,
            &degrees,
            TrialSpec::new(40_000, 37),
            |rank, seed| ExponentialInjector::new(platform.procs()[rank].lambda, seed),
        );
        let z = (stats.makespan.mean() - analytic) / stats.makespan.sem();
        assert!(
            z.abs() <= 4.0,
            "makespan z = {z:.2}: MC {} vs analytic {analytic}",
            stats.makespan.mean(),
        );
    }

    /// Tier write factors flow through the non-blocking write queue: a
    /// write-slow tier stretches the interference window deterministically
    /// (fault-free hand walkthrough), and the accounting identity holds.
    #[test]
    fn nonblocking_write_queue_prices_the_tier() {
        let wf = Workflow::uniform(generators::chain(2), 10.0, 5.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let platform = hetero2(0.0);
        let h = StorageHierarchy::new(vec![
            StorageTier::unit("mem"),
            StorageTier {
                name: "slow".to_string(),
                write_bw: 0.5,
                read_bw: 1.0,
                compression: 1.0,
                contention: 0.0,
            },
        ])
        .unwrap();
        let run = |tiers: &[usize; 2]| {
            let (cs, rs) = storage_scales(&h, tiers, &[2; 2]);
            let scaled = wf.with_scaled_costs(&cs, &rs);
            let mut inj = vec![SeqInjector::new(vec![]), SeqInjector::new(vec![])];
            simulate_replicated_nonblocking(&scaled, &s, &platform, &[2; 2], &mut inj, 0.5)
        };
        // Rank 0 (speed 2) wins every attempt. Unit tier: T0 at 5,
        // enqueue a 5 s write; T1 content 5 > 5·0.5 → 5 + (5 − 2.5) = 7.5.
        let unit = run(&[0, 0]);
        assert!(
            (unit.makespan - 12.5).abs() < 1e-12,
            "unit {}",
            unit.makespan
        );
        // Slow tier doubles the write to 10 s: T1 content 5 ≤ 10·0.5 →
        // 5 / 0.5 = 10.
        let slow = run(&[1, 1]);
        assert!(
            (slow.makespan - 15.0).abs() < 1e-12,
            "slow {}",
            slow.makespan
        );
        assert!((slow.accounted_time() - slow.makespan).abs() < 1e-9);
    }

    /// The fast-path group engine is bit-identical to the reference
    /// engine — every bucket, every trial, including a reused scratch.
    #[test]
    fn planned_replicated_engine_is_bit_identical_to_reference() {
        let wf = Workflow::uniform(generators::grid(3, 3), 8.0, 0.8);
        let order = topo::topological_order(wf.dag());
        let ckpt = FixedBitSet::from_indices(9, [0usize, 2, 5, 7]);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let platform = hetero2(1.0);
        let degrees = [2usize, 1, 2, 1, 2, 1, 2, 1, 2];
        let prefix: Vec<usize> = (0..2).collect();
        let sets: Vec<&[usize]> = degrees.iter().map(|&d| &prefix[..d]).collect();
        let plan = TrialPlan::compile(&wf, &s);
        let first = FirstAttemptTable::compile(&plan, &platform, &sets);
        let spec = TrialSpec::new(200, 41);
        let build = |i: usize| -> Vec<ExponentialInjector> {
            (0..2)
                .map(|rank| {
                    ExponentialInjector::new(platform.procs()[rank].lambda, spec.proc_seed(i, rank))
                })
                .collect()
        };
        for i in 0..spec.trials {
            let reference = simulate_replicated_sets(
                &wf,
                &s,
                &platform,
                &prefix_sets(&platform, &degrees),
                &mut build(i),
            );
            let fast = simulate_replicated_planned(&plan, &first, &platform, &mut build(i));
            assert_eq!(reference.makespan.to_bits(), fast.makespan.to_bits());
            assert_eq!(reference.n_faults, fast.n_faults);
            for (a, b) in [
                (reference.time_work, fast.time_work),
                (reference.time_rework, fast.time_rework),
                (reference.time_recovery, fast.time_recovery),
                (reference.time_checkpoint, fast.time_checkpoint),
                (reference.time_wasted, fast.time_wasted),
                (reference.time_downtime, fast.time_downtime),
            ] {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn proc_seed_rank_zero_is_the_trial_seed() {
        let spec = TrialSpec::new(10, 99);
        for i in 0..10 {
            assert_eq!(spec.proc_seed(i, 0), spec.trial_seed(i));
            assert_ne!(spec.proc_seed(i, 1), spec.proc_seed(i, 0));
            assert_ne!(spec.proc_seed(i, 1), spec.proc_seed(i, 2));
        }
    }
}
