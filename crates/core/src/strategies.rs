//! Checkpoint-placement strategies (Section 5 of the paper) and the sweep
//! over the number of checkpoints `N`.
//!
//! * `CkptNvr` / `CkptAlws` — baselines: checkpoint nothing / everything;
//! * `CkptW` — checkpoint the `N` heaviest tasks (decreasing `w_i`);
//! * `CkptC` — checkpoint the `N` cheapest-to-checkpoint tasks
//!   (increasing `c_i`);
//! * `CkptD` — checkpoint the `N` tasks with heaviest direct successors
//!   (decreasing `d_i` = outweight);
//! * `CkptPer` — periodic: given the linearization, checkpoint the task
//!   completing earliest after each multiple of `W/N` in a failure-free
//!   execution.
//!
//! For the ranked strategies and `CkptPer`, the paper sweeps every
//! `N = 1 … n−1` and keeps the `N` minimizing the expected makespan computed
//! by the Theorem-3 evaluator. [`optimize_checkpoints`] does exactly that
//! (including the trivial endpoints `N = 0` and `N = n`, which can only
//! improve on the paper's range), in parallel via rayon.
//!
//! # Objective-driven optimization
//!
//! The sweep is **generic over the evaluation backend**
//! ([`crate::objective::Objective`]): [`optimize_checkpoints`]
//! is the paper's proxy-model entry point, [`optimize_checkpoints_with`]
//! runs the same enumeration against any objective — notably the exact
//! replication-aware evaluator
//! ([`crate::evaluator::replicated::ReplicatedEvaluator`]), which makes
//! the sweep *replication-aware* instead of optimizing under the
//! single-machine proxy and merely re-scoring afterwards.
//!
//! On top of the budget sweep, [`select_replicas`] optimizes the second
//! decision dimension — each task's **replica set** (which processors run
//! it redundantly, a reliability-vs-speed trade, not just fastest-first
//! prefixes) — and [`select_storage`] the third, each task's checkpoint
//! **storage tier**. [`optimize_joint_with`] coordinate-descends over
//! (checkpoint budget × per-task replica sets, × per-task tiers when given
//! a hierarchy) until a joint fixed point.

use crate::evaluator::replicated::{
    normalize_replica_set, prefix_sets, ReplicatedEvaluator, MAX_REPLICATION_DEGREE,
};
use crate::evaluator::EvalPlan;
use crate::model::Workflow;
use crate::objective::{Objective, ProxyObjective};
use crate::schedule::Schedule;
use dagchkpt_dag::{FixedBitSet, NodeId};
use dagchkpt_failure::{FaultModel, HeteroPlatform, StorageHierarchy};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Which tasks to checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointStrategy {
    /// Baseline: never checkpoint.
    Never,
    /// Baseline: checkpoint every task.
    Always,
    /// `CkptW`: decreasing task weight `w_i`.
    ByDecreasingWork,
    /// `CkptC`: increasing checkpoint cost `c_i`.
    ByIncreasingCkptCost,
    /// `CkptD`: decreasing outweight `d_i` (successor weight sum).
    ByDecreasingOutweight,
    /// `CkptPer`: periodic along the linearization.
    Periodic,
    /// `CkptH` (this repository's extension): decreasing
    /// protection-per-cost ratio `w_i / c_i` — interpolates between the
    /// paper's CkptW (big tasks first) and CkptC (cheap checkpoints first),
    /// which its experiments found to win on different DAG shapes.
    ByDecreasingWorkOverCost,
}

impl CheckpointStrategy {
    /// The paper's name for the strategy (`CkptH` for the extension).
    pub fn paper_name(&self) -> &'static str {
        match self {
            CheckpointStrategy::Never => "CkptNvr",
            CheckpointStrategy::Always => "CkptAlws",
            CheckpointStrategy::ByDecreasingWork => "CkptW",
            CheckpointStrategy::ByIncreasingCkptCost => "CkptC",
            CheckpointStrategy::ByDecreasingOutweight => "CkptD",
            CheckpointStrategy::Periodic => "CkptPer",
            CheckpointStrategy::ByDecreasingWorkOverCost => "CkptH",
        }
    }

    /// `true` for the strategies that sweep a checkpoint budget `N`.
    pub fn is_swept(&self) -> bool {
        !matches!(self, CheckpointStrategy::Never | CheckpointStrategy::Always)
    }
}

/// Task-replication strategy: how many processors of a heterogeneous
/// platform redundantly execute each task's block (the block succeeds on
/// the first surviving replica's completion — see
/// `crate::evaluator::replicated` and the `dagchkpt-sim` replicated
/// engines).
///
/// Degrees are always clamped to `[1, P]` for a `P`-processor platform, so
/// a strategy asking for more replicas than exist degrades gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReplicationStrategy {
    /// No replication: every task runs on the single best processor.
    None,
    /// Every task on `degree` processors.
    Uniform {
        /// Replication degree `r ≥ 1`.
        degree: usize,
    },
    /// The `count` heaviest tasks (by weight, ties toward smaller ids) on
    /// `degree` processors; everything else unreplicated.
    Heaviest {
        /// Replication degree for the selected tasks.
        degree: usize,
        /// How many tasks to replicate.
        count: usize,
    },
    /// Tasks with `w_i ≥ work_fraction · max_j w_j` on `degree` processors.
    Threshold {
        /// Replication degree for the selected tasks.
        degree: usize,
        /// Weight threshold as a fraction of the heaviest task.
        work_fraction: f64,
    },
}

impl ReplicationStrategy {
    /// Short label for output rows (`none`, `r3`, `heavy3x8`, `thr2@0.5`).
    pub fn label(&self) -> String {
        match self {
            ReplicationStrategy::None => "none".to_string(),
            ReplicationStrategy::Uniform { degree } => format!("r{degree}"),
            ReplicationStrategy::Heaviest { degree, count } => format!("heavy{degree}x{count}"),
            ReplicationStrategy::Threshold {
                degree,
                work_fraction,
            } => format!("thr{degree}@{work_fraction}"),
        }
    }

    /// Per-task replication degrees (indexed by task id), clamped to
    /// `[1, n_procs]`.
    pub fn degrees(&self, wf: &Workflow, n_procs: usize) -> Vec<usize> {
        let n = wf.n_tasks();
        let clamp = |d: usize| d.clamp(1, n_procs.max(1));
        match self {
            ReplicationStrategy::None => vec![1; n],
            ReplicationStrategy::Uniform { degree } => vec![clamp(*degree); n],
            ReplicationStrategy::Heaviest { degree, count } => {
                let mut out = vec![1; n];
                for v in ranking(wf, CheckpointStrategy::ByDecreasingWork)
                    .expect("CkptW is a ranked strategy")
                    .into_iter()
                    .take(*count)
                {
                    out[v.index()] = clamp(*degree);
                }
                out
            }
            ReplicationStrategy::Threshold {
                degree,
                work_fraction,
            } => {
                let max_w = (0..n)
                    .map(|i| wf.work(NodeId::from(i)))
                    .fold(0.0f64, f64::max);
                let cut = work_fraction * max_w;
                (0..n)
                    .map(|i| {
                        if wf.work(NodeId::from(i)) >= cut {
                            clamp(*degree)
                        } else {
                            1
                        }
                    })
                    .collect()
            }
        }
    }
}

/// Candidate-`N` selection policy for the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepPolicy {
    /// Every `N ∈ 0..=n` — the paper's exhaustive search.
    Exhaustive,
    /// `N ∈ {0, stride, 2·stride, …, n}` plus a local refinement of ±stride
    /// around the best coarse value. Much faster for large `n`, with the
    /// same answer whenever the makespan is locally unimodal in `N`.
    Strided {
        /// Coarse step (≥ 1).
        stride: usize,
    },
}

/// Error returned by [`ranking`] for the strategies that select checkpoint
/// sets without ordering tasks (`Never`, `Always`, `Periodic`).
///
/// This used to be a library panic, reachable from spec-driven dispatch;
/// callers handing user-controlled strategies to [`ranking`] must surface
/// it as a validation error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoRankingError {
    /// The strategy that does not rank tasks.
    pub strategy: CheckpointStrategy,
}

impl std::fmt::Display for NoRankingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} has no task ranking (only CkptW, CkptC, CkptD and CkptH rank tasks)",
            self.strategy.paper_name()
        )
    }
}

impl std::error::Error for NoRankingError {}

/// Ranking of tasks for the ranked strategies: position 0 is checkpointed
/// first. Ties broken by task id for determinism.
///
/// The sorts use [`f64::total_cmp`], so even a pathological workflow whose
/// weights bypassed validation can never panic the comparator — NaN keys
/// order deterministically (above `+∞` in the total order) instead of
/// aborting the worker mid-sort.
pub fn ranking(wf: &Workflow, strategy: CheckpointStrategy) -> Result<Vec<NodeId>, NoRankingError> {
    let n = wf.n_tasks();
    let mut ids: Vec<NodeId> = (0..n).map(NodeId::from).collect();
    match strategy {
        CheckpointStrategy::ByDecreasingWork => {
            ids.sort_by(|a, b| {
                wf.work(*b)
                    .total_cmp(&wf.work(*a))
                    .then(a.index().cmp(&b.index()))
            });
        }
        CheckpointStrategy::ByIncreasingCkptCost => {
            ids.sort_by(|a, b| {
                wf.checkpoint_cost(*a)
                    .total_cmp(&wf.checkpoint_cost(*b))
                    .then(a.index().cmp(&b.index()))
            });
        }
        CheckpointStrategy::ByDecreasingOutweight => {
            let d = wf.outweights();
            ids.sort_by(|a, b| {
                d[b.index()]
                    .total_cmp(&d[a.index()])
                    .then(a.index().cmp(&b.index()))
            });
        }
        CheckpointStrategy::ByDecreasingWorkOverCost => {
            // w/c with c = 0 ranked first (free protection); ties by id.
            let score = |v: NodeId| {
                let c = wf.checkpoint_cost(v);
                if c == 0.0 {
                    f64::INFINITY
                } else {
                    wf.work(v) / c
                }
            };
            ids.sort_by(|a, b| {
                score(*b)
                    .total_cmp(&score(*a))
                    .then(a.index().cmp(&b.index()))
            });
        }
        unranked => return Err(NoRankingError { strategy: unranked }),
    }
    Ok(ids)
}

/// Evaluator-driven local search over checkpoint sets (this repository's
/// extension — enabled precisely by the paper's Theorem-3 evaluator):
/// starting from `init`, repeatedly flips the single checkpoint bit that
/// most reduces the expected makespan under the proxy model, until no flip
/// improves or `max_rounds` is exhausted. The linearization stays fixed.
///
/// Each round evaluates `n` candidate schedules in parallel; the result is
/// never worse than the start point.
pub fn local_search(
    wf: &Workflow,
    model: FaultModel,
    order: &[NodeId],
    init: FixedBitSet,
    max_rounds: usize,
) -> OptimizedSchedule {
    let obj = ProxyObjective::new(wf, model);
    let n = wf.n_tasks();
    let base = Schedule::never(wf, order.to_vec()).expect("order is valid");
    let mut current = init;
    let mut best_e = obj.cost(&base.with_checkpoints(current.clone()));
    let mut evaluated = 1usize;
    for _ in 0..max_rounds {
        // Chunk-folded argmin: candidate evaluations stream into O(chunks)
        // running minima instead of an O(n) materialized vector.
        let best = (0..n)
            .into_par_iter()
            .map(|i| {
                let mut set = current.clone();
                if !set.insert(i) {
                    set.remove(i);
                }
                let s = base.with_checkpoints(set);
                (i, obj.cost(&s))
            })
            .fold(|| None, |best, cand| better_candidate(best, Some(cand)))
            .reduce(|| None, better_candidate);
        evaluated += n;
        let Some((flip, e)) = best else {
            break;
        };
        if e >= best_e - 1e-12 * best_e.max(1.0) {
            break; // local optimum
        }
        if !current.insert(flip) {
            current.remove(flip);
        }
        best_e = e;
    }
    let schedule = base.with_checkpoints(current);
    OptimizedSchedule {
        best_n: Some(schedule.n_checkpoints()),
        schedule,
        expected_makespan: best_e,
        evaluated,
    }
}

/// Argmin combiner shared by [`sweep_with_cost`] and [`local_search`]
/// candidates `(index, expected makespan)`: lower makespan wins, ties
/// toward the smaller index (matching the pre-chunked `min_by`/sort
/// behavior), and a `NaN` cost ranks after every number. A total order,
/// so the result is the same for any grouping and any walk order, and
/// chunked fold/reduce chains are stable.
fn better_candidate(a: Option<(usize, f64)>, b: Option<(usize, f64)>) -> Option<(usize, f64)> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => {
            let b_wins = match (a.1.is_nan(), b.1.is_nan()) {
                (false, false) => b.1 < a.1 || (b.1 == a.1 && b.0 < a.0),
                (true, true) => b.0 < a.0,
                (a_nan, _) => a_nan,
            };
            Some(if b_wins { b } else { a })
        }
    }
}

/// Checkpoint set of the top `n_ckpt` tasks of `ranking`.
pub fn set_from_ranking(n: usize, ranking: &[NodeId], n_ckpt: usize) -> FixedBitSet {
    FixedBitSet::from_indices(n, ranking.iter().take(n_ckpt).map(|v| v.index()))
}

/// `CkptPer` checkpoint set for a budget of `n_ckpt` checkpoints: in a
/// failure-free execution of `order`, checkpoint the task completing
/// earliest at/after `x · W / (n_ckpt+1)` for `x = 1 … n_ckpt`.
///
/// (The paper phrases the budget as `N` tasks with thresholds `x·W/N`,
/// `x = 1 … N−1`, i.e. `N−1` checkpoints; the two parameterizations sweep
/// the same family of sets.) Thresholds that land on the same task collapse,
/// so the returned set may be smaller than `n_ckpt`. The final task is never
/// checkpointed (its checkpoint could never be consumed).
pub fn periodic_set(wf: &Workflow, order: &[NodeId], n_ckpt: usize) -> FixedBitSet {
    let mut set = FixedBitSet::new(wf.n_tasks());
    periodic_positions(
        &completion_times(wf, order),
        wf.total_work(),
        n_ckpt,
        |pos| {
            set.insert(order[pos].index());
        },
    );
    set
}

/// Failure-free completion time of each schedule position.
fn completion_times(wf: &Workflow, order: &[NodeId]) -> Vec<f64> {
    let mut t = 0.0;
    order
        .iter()
        .map(|&v| {
            t += wf.work(v);
            t
        })
        .collect()
}

/// Calls `mark` with every schedule position [`periodic_set`] checkpoints
/// for `n_ckpt`, given the positions' failure-free `completion` times and
/// the total work.
fn periodic_positions(completion: &[f64], total: f64, n_ckpt: usize, mut mark: impl FnMut(usize)) {
    let n = completion.len();
    if n == 0 || n_ckpt == 0 || total <= 0.0 {
        return;
    }
    let slots = n_ckpt + 1;
    for x in 1..slots {
        let threshold = (x as f64) * total / (slots as f64);
        // First position completing at/after the threshold.
        let pos = completion.partition_point(|&ct| ct < threshold);
        if pos < n.saturating_sub(1) {
            mark(pos);
        } else if n >= 2 {
            // Threshold fell on/after the last task: checkpointing it is
            // useless, take the penultimate position instead.
            mark(n - 2);
        }
    }
}

/// Result of a checkpoint-placement optimization.
#[derive(Debug, Clone)]
pub struct OptimizedSchedule {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its expected makespan.
    pub expected_makespan: f64,
    /// The checkpoint budget `N` that produced it (`None` for
    /// `Never`/`Always`).
    pub best_n: Option<usize>,
    /// Number of candidate budgets evaluated.
    pub evaluated: usize,
}

/// Applies `strategy` on the fixed linearization `order`, sweeping the
/// checkpoint budget under `policy` against the paper's proxy model and
/// returning the best schedule: [`optimize_checkpoints_with`] over
/// [`ProxyObjective`].
pub fn optimize_checkpoints(
    wf: &Workflow,
    model: FaultModel,
    order: &[NodeId],
    strategy: CheckpointStrategy,
    policy: SweepPolicy,
) -> OptimizedSchedule {
    optimize_checkpoints_with(wf, &ProxyObjective::new(wf, model), order, strategy, policy)
}

/// [`optimize_checkpoints`] against an arbitrary [`Objective`] backend:
/// the same candidate family and tie-breaks, evaluated by `obj` — pass a
/// [`ReplicatedEvaluator`] to make the sweep replication-aware.
///
/// One [`EvalPlan`] compiles the linearization and each worker run asks
/// `obj` for its own candidate evaluator ([`Objective::flag_evaluator`]);
/// the analytic backends resume each candidate from the previous one's
/// matrices.
pub fn optimize_checkpoints_with<O: Objective + ?Sized>(
    wf: &Workflow,
    obj: &O,
    order: &[NodeId],
    strategy: CheckpointStrategy,
    policy: SweepPolicy,
) -> OptimizedSchedule {
    let plan = EvalPlan::new(wf, order);
    optimize_with_cost(wf, &plan, strategy, policy, || obj.flag_evaluator(&plan))
}

/// [`optimize_checkpoints_with`] minimizing the `q`-quantile of `obj`'s
/// cost distribution ([`Objective::cost_quantile`]) instead of its mean:
/// the same candidate family, sweep policy, and smaller-budget tie-breaks,
/// keyed on the quantile. A `NaN` quantile (a backend whose sketch has no
/// estimate) maps to `+∞` so it can never displace a finite candidate —
/// the argmin fold compares with a raw `<` that would otherwise let a
/// first-seen `NaN` win. On analytic backends `cost_quantile` falls back
/// to the mean, so this degenerates to [`optimize_checkpoints_with`].
pub fn optimize_checkpoints_quantile<O: Objective + ?Sized>(
    wf: &Workflow,
    obj: &O,
    order: &[NodeId],
    strategy: CheckpointStrategy,
    policy: SweepPolicy,
    q: f64,
) -> OptimizedSchedule {
    let plan = EvalPlan::new(wf, order);
    optimize_with_cost(wf, &plan, strategy, policy, || {
        |flags: &[bool], _bound: f64| {
            let c = obj.cost_quantile(&plan.schedule(flags), q);
            if c.is_nan() {
                f64::INFINITY
            } else {
                c
            }
        }
    })
}

/// The strategy dispatch behind every optimizer. `evaluator` creates one
/// candidate evaluator per worker run; each evaluator maps checkpoint
/// flags (by schedule position) and a bound to the scalar the sweep
/// minimizes (mean cost, quantile cost, …), under the contract of
/// [`Objective::flag_evaluator`].
fn optimize_with_cost<F, E>(
    wf: &Workflow,
    plan: &EvalPlan,
    strategy: CheckpointStrategy,
    policy: SweepPolicy,
    evaluator: F,
) -> OptimizedSchedule
where
    F: Fn() -> E,
    E: FnMut(&[bool], f64) -> f64 + Send,
{
    let fixed = |flags: Vec<bool>| OptimizedSchedule {
        expected_makespan: evaluator()(&flags, f64::INFINITY),
        schedule: plan.schedule(&flags),
        best_n: None,
        evaluated: 1,
    };
    match strategy {
        CheckpointStrategy::Never => fixed(vec![false; plan.n()]),
        CheckpointStrategy::Always => fixed(vec![true; plan.n()]),
        CheckpointStrategy::Periodic => {
            let completion = completion_times(wf, plan.order());
            let total = wf.total_work();
            sweep_with_cost(plan, policy, &evaluator, &|n_ckpt, flags: &mut [bool]| {
                flags.fill(false);
                periodic_positions(&completion, total, n_ckpt, |pos| flags[pos] = true);
            })
        }
        ranked => {
            // Infallible here: the Never/Always/Periodic arms above are
            // exactly the strategies `ranking` rejects.
            let rank = ranking(wf, ranked).expect("every unmatched strategy is ranked");
            let rank_pos: Vec<usize> = rank.iter().map(|v| plan.position(v.index()) - 1).collect();
            sweep_with_cost(plan, policy, &evaluator, &|n_ckpt, flags: &mut [bool]| {
                flags.fill(false);
                for &pos in &rank_pos[..n_ckpt] {
                    flags[pos] = true;
                }
            })
        }
    }
}

/// Contiguous candidate ranges, one per sweep worker, that a worker whose
/// own range ran dry steals from: the upper half of the largest remaining
/// range becomes its own. One mutex, locked once per claimed candidate.
struct RangeTable {
    /// `[start, end)` of the candidate indices each worker has left.
    ranges: Mutex<Vec<(usize, usize)>>,
}

impl RangeTable {
    /// `len` candidates split into `workers` equal contiguous ranges.
    fn new(len: usize, workers: usize) -> Self {
        let ranges = (0..workers)
            .map(|w| (w * len / workers, (w + 1) * len / workers))
            .collect();
        RangeTable {
            ranges: Mutex::new(ranges),
        }
    }

    /// The next candidate index for `worker`: the front of its own range,
    /// or — once that is empty — the front of the upper half it steals
    /// from the largest remaining range. `None` once every index is
    /// handed out; each index is handed out exactly once.
    fn claim(&self, worker: usize) -> Option<usize> {
        // A worker panics only outside the lock, so a poisoned table is
        // still consistent.
        let mut ranges = self.ranges.lock().unwrap_or_else(PoisonError::into_inner);
        if ranges[worker].0 == ranges[worker].1 {
            let (victim, &(start, end)) = ranges
                .iter()
                .enumerate()
                .max_by_key(|&(w, &(start, end))| (end - start, std::cmp::Reverse(w)))?;
            if start == end {
                return None;
            }
            let mid = start + (end - start) / 2;
            ranges[victim].1 = mid;
            ranges[worker] = (mid, end);
        }
        let next = ranges[worker].0;
        ranges[worker].0 += 1;
        Some(next)
    }
}

/// Sweeps candidate budgets in parallel; ties broken toward smaller `N`.
///
/// Budgets are walked from the largest down (coarse and refine passes of
/// `Strided` alike): the argmin usually sits near the top, so a good
/// bound is found first. The candidate list is split into one contiguous
/// range per worker, and each worker consumes its range from the front; a
/// worker whose range runs dry steals the upper half of the largest
/// remaining one ([`RangeTable`]), so no core idles while candidates
/// remain. Each worker's evaluator and flag vector are built on the
/// calling thread, so their buffers come from its allocator arena, and
/// `set_for` rewrites the flags in place for each budget, so consecutive
/// candidates of a worker differ in few flags (exactly one for nested
/// ranked budgets, a jump at the start of a stolen range) — which is what
/// lets a compiled scratch resume.
///
/// The workers share the best cost found so far through one atomic and
/// pass it to every evaluation as its bound; an evaluator may stop a
/// candidate that provably costs more ([`Objective::flag_evaluator`]).
/// Such a candidate loses to the value that set the bound either way, and
/// every other value is exact and independent of the evaluator's history;
/// [`better_candidate`] is a total order. So neither the thread count,
/// the steals nor the bounds change the winner, its value or `evaluated`.
/// Only the winner is materialized as a [`Schedule`].
fn sweep_with_cost<F, E>(
    plan: &EvalPlan,
    policy: SweepPolicy,
    evaluator: &F,
    set_for: &(impl Fn(usize, &mut [bool]) + Sync),
) -> OptimizedSchedule
where
    F: Fn() -> E,
    E: FnMut(&[bool], f64) -> f64 + Send,
{
    let n = plan.n();

    // The argmin over `candidates`, whose costs can only win if they are
    // at most `bound`.
    let best_of = |candidates: &[usize], bound: f64| -> Option<(usize, f64)> {
        if candidates.is_empty() {
            return None;
        }
        let workers = rayon::current_num_threads().clamp(1, candidates.len());
        let table = RangeTable::new(candidates.len(), workers);
        let bound = AtomicU64::new(bound.to_bits());
        let states: Vec<_> = (0..workers)
            .map(|w| (w, evaluator(), vec![false; n]))
            .collect();
        let bests: Vec<_> = states
            .into_par_iter()
            .map(|(w, mut eval, mut flags)| {
                let mut best = None;
                while let Some(idx) = table.claim(w) {
                    let n_ckpt = candidates[idx];
                    set_for(n_ckpt, &mut flags);
                    let e = eval(&flags, f64::from_bits(bound.load(Ordering::Relaxed)));
                    // Lower the shared bound (a `NaN` never does).
                    let _ = bound.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                        (e < f64::from_bits(cur)).then_some(e.to_bits())
                    });
                    best = better_candidate(best, Some((n_ckpt, e)));
                }
                best
            })
            .collect();
        bests.into_iter().fold(None, better_candidate)
    };

    let candidates: Vec<usize> = match policy {
        SweepPolicy::Exhaustive => (0..=n).rev().collect(),
        SweepPolicy::Strided { stride } => {
            let stride = stride.max(1);
            let mut c: Vec<usize> = (0..=n).step_by(stride).collect();
            if c.last() != Some(&n) {
                c.push(n);
            }
            c.reverse();
            c
        }
    };

    let mut evaluated = candidates.len();
    let mut best = best_of(&candidates, f64::INFINITY).expect("at least one candidate");

    // Local refinement around the coarse winner for strided sweeps.
    if let SweepPolicy::Strided { stride } = policy {
        let stride = stride.max(1);
        if stride > 1 {
            let (best_n, best_e) = best;
            let lo = best_n.saturating_sub(stride - 1);
            let hi = (best_n + stride - 1).min(n);
            let refine: Vec<usize> = (lo..=hi).rev().filter(|&k| k != best_n).collect();
            evaluated += refine.len();
            best = better_candidate(Some(best), best_of(&refine, best_e)).expect("coarse winner");
        }
    }

    let (best_n, best_e) = best;
    let mut flags = vec![false; n];
    set_for(best_n, &mut flags);
    OptimizedSchedule {
        schedule: plan.schedule(&flags),
        expected_makespan: best_e,
        best_n: Some(best_n),
        evaluated,
    }
}

/// The candidate replica sets per-task selection searches, for a given
/// platform: every **speed prefix** (fastest `r` processors, the
/// historical family), every **reliability prefix** (the `r` processors of
/// lowest failure rate — the other end of the reliability-vs-speed trade),
/// and every **singleton**, for `r = 1 ..= min(P, max_degree)`, normalized
/// and deduplicated in that order (which fixes tie-breaking). Small by
/// construction — `O(P)` candidates — yet it contains the choices that
/// matter: run fast, run safe, mix, or run solo on any one machine.
pub fn replica_candidates(platform: &HeteroPlatform, max_degree: usize) -> Vec<Vec<usize>> {
    let procs = platform.procs();
    let p = procs.len();
    let cap = max_degree.clamp(1, p).min(MAX_REPLICATION_DEGREE);
    // Reliability order: lowest λ first, ties toward the canonical
    // (fastest-first) index so the order is deterministic.
    let mut by_reliability: Vec<usize> = (0..p).collect();
    by_reliability.sort_by(|&a, &b| procs[a].lambda.total_cmp(&procs[b].lambda).then(a.cmp(&b)));
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut push = |set: Vec<usize>| {
        let set = normalize_replica_set(&set, p);
        if !out.contains(&set) {
            out.push(set);
        }
    };
    for r in 1..=cap {
        push((0..r).collect());
    }
    for r in 1..=cap {
        push(by_reliability[..r].to_vec());
    }
    for i in 0..p {
        push(vec![i]);
    }
    out
}

/// Result of a joint (checkpoint budget × replica selection) optimization.
#[derive(Debug, Clone)]
pub struct JointSchedule {
    /// The best schedule found.
    pub schedule: Schedule,
    /// The per-task replica sets it runs on (processor indices into the
    /// platform's canonical order).
    pub replica_sets: Vec<Vec<usize>>,
    /// Its expected makespan under [`ReplicatedEvaluator`] on those sets.
    pub expected_makespan: f64,
    /// Per-task checkpoint storage tiers (indices into the hierarchy's
    /// declaration order), when the descent included the storage axis
    /// ([`optimize_joint_with`] with a hierarchy). `None` for the two-axis
    /// descent.
    pub tiers: Option<Vec<usize>>,
    /// Winning checkpoint budget of the final sweep.
    pub best_n: Option<usize>,
    /// Total candidate evaluations across all coordinate rounds.
    pub evaluated: usize,
    /// Coordinate-descent rounds executed.
    pub rounds: usize,
}

/// Per-task replica **selection**: starting from `init` (one replica set
/// per task), repeatedly re-assigns each task the candidate set (from
/// [`replica_candidates`]) minimizing the exact replicated expected
/// makespan of `schedule`, task by task in id order, until a full pass
/// improves nothing or `max_rounds` is exhausted. Returns the selected
/// sets, their expected makespan, and the number of candidate evaluations.
///
/// A move changes one task's replica set, so each candidate evaluation
/// resumes the evaluator's scratch: one stats row plus the assembly from
/// the task's position on, far less than a cold evaluation. The result is
/// never worse than `init`.
pub fn select_replicas(
    wf: &Workflow,
    platform: &HeteroPlatform,
    schedule: &Schedule,
    init: &[Vec<usize>],
    max_degree: usize,
    max_rounds: usize,
) -> (Vec<Vec<usize>>, f64, usize) {
    let candidates = replica_candidates(platform, max_degree);
    let mut ev = ReplicatedEvaluator::from_sets(wf, platform, init);
    let mut best_e = ev.expected_makespan(schedule);
    let mut evaluated = 1usize;
    for _ in 0..max_rounds {
        if !select_replicas_pass(&mut ev, schedule, &candidates, &mut best_e, &mut evaluated) {
            break;
        }
    }
    (ev.sets().to_vec(), best_e, evaluated)
}

/// One coordinate pass of per-task selection over an existing evaluator
/// (so callers iterating selection keep resuming its scratch across passes
/// and stages): for each task in id order, tries every candidate other
/// than the current one (`get` reads a task's value, `set` moves it) and
/// keeps the best, accepting a candidate only when it beats the running
/// best by a relative `1e-12`. `best_e` must hold the expected makespan
/// of `schedule` under `ev`'s current assignment; returns whether any
/// task moved.
fn coordinate_pass<C: Clone + PartialEq>(
    ev: &mut ReplicatedEvaluator,
    schedule: &Schedule,
    candidates: &[C],
    get: impl Fn(&ReplicatedEvaluator, usize) -> C,
    set: impl Fn(&mut ReplicatedEvaluator, usize, &C),
    best_e: &mut f64,
    evaluated: &mut usize,
) -> bool {
    let n = ev.sets().len();
    let mut improved = false;
    for t in 0..n {
        let current = get(ev, t);
        let mut best = current.clone();
        for cand in candidates {
            if *cand == current || *cand == best {
                continue;
            }
            set(ev, t, cand);
            let e = ev.expected_makespan(schedule);
            *evaluated += 1;
            // `best_e - tol` would be NaN when best_e is +∞ (an
            // assignment whose group-failure probability rounds to 1),
            // and a NaN comparison would reject every finite escape —
            // so infinite incumbents are beaten by any finite value.
            let improves = if best_e.is_finite() {
                e < *best_e - 1e-12 * best_e.max(1.0)
            } else {
                e < *best_e
            };
            if improves {
                *best_e = e;
                best = cand.clone();
                improved = true;
            }
        }
        set(ev, t, &best);
    }
    improved
}

/// [`coordinate_pass`] over each task's replica set.
fn select_replicas_pass(
    ev: &mut ReplicatedEvaluator,
    schedule: &Schedule,
    candidates: &[Vec<usize>],
    best_e: &mut f64,
    evaluated: &mut usize,
) -> bool {
    coordinate_pass(
        ev,
        schedule,
        candidates,
        |ev, t| ev.sets()[t].clone(),
        |ev, t, set| ev.set_replicas(t, set),
        best_e,
        evaluated,
    )
}

/// [`coordinate_pass`] over each task's checkpoint storage tier, on an
/// evaluator carrying a storage hierarchy of `n_tiers` tiers
/// ([`ReplicatedEvaluator::with_storage`]).
fn select_tiers_pass(
    ev: &mut ReplicatedEvaluator,
    schedule: &Schedule,
    n_tiers: usize,
    best_e: &mut f64,
    evaluated: &mut usize,
) -> bool {
    let candidates: Vec<usize> = (0..n_tiers).collect();
    coordinate_pass(
        ev,
        schedule,
        &candidates,
        |ev, t| ev.tiers().expect("tier selection requires storage")[t],
        |ev, t, &tier| ev.set_tier(t, tier),
        best_e,
        evaluated,
    )
}

/// Joint optimization by coordinate descent over the two decision
/// dimensions: (1) sweep the checkpoint budget of `strategy` under the
/// replication-aware objective for the current replica assignment, then
/// (2) re-select each task's replica set for the winning schedule
/// ([`select_replicas`]); repeat until neither coordinate improves or
/// `max_rounds` joint rounds pass. `init_degrees` seeds the assignment
/// with fastest-first prefixes (the static strategy family), so the result
/// is **never worse than the replication-aware sweep alone** — round 1's
/// sweep *is* that sweep, and every later move is accepted only on strict
/// improvement. A degree adapter: [`optimize_joint_with`] takes the
/// initial replica sets themselves.
pub fn optimize_joint(
    wf: &Workflow,
    platform: &HeteroPlatform,
    order: &[NodeId],
    strategy: CheckpointStrategy,
    policy: SweepPolicy,
    init_degrees: &[usize],
    max_rounds: usize,
) -> JointSchedule {
    optimize_joint_with(
        wf,
        platform,
        order,
        strategy,
        policy,
        &prefix_sets(init_degrees, platform.n_procs()),
        max_rounds,
        None,
    )
}

/// [`optimize_joint`] from explicit initial replica sets `init_sets` (one
/// per task, normalized like [`ReplicatedEvaluator::from_sets`]; the
/// selection candidates are [`replica_candidates`] capped at the largest
/// initial set size) and, with a `storage` hierarchy, the **third axis**:
/// coordinate descent over (checkpoint budget × per-task replica sets ×
/// per-task storage tiers), every task starting on tier 0. Each round
/// sweeps the budget under the current assignment, runs one
/// replica-selection pass, then — with a hierarchy — one tier-selection
/// pass; rounds are accepted only on strict improvement, so the storage
/// descent is never worse than the two-axis descent on tier 0. A
/// single-tier hierarchy pins that tier while budget and replica sets
/// co-optimize.
#[allow(clippy::too_many_arguments)]
pub fn optimize_joint_with(
    wf: &Workflow,
    platform: &HeteroPlatform,
    order: &[NodeId],
    strategy: CheckpointStrategy,
    policy: SweepPolicy,
    init_sets: &[Vec<usize>],
    max_rounds: usize,
    storage: Option<&StorageHierarchy>,
) -> JointSchedule {
    // One evaluator for the whole descent: every selection move resumes
    // its scratch, across both coordinates and across rounds.
    let mut ev = ReplicatedEvaluator::from_sets(wf, platform, init_sets);
    let max_degree = ev
        .sets()
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(1)
        .clamp(1, MAX_REPLICATION_DEGREE.min(platform.n_procs().max(1)));
    if let Some(hierarchy) = storage {
        ev = ev.with_storage(hierarchy, &vec![0; wf.n_tasks()]);
    }
    let candidates = replica_candidates(platform, max_degree);
    let mut best: Option<JointSchedule> = None;
    let mut evaluated = 0usize;
    let mut rounds = 0usize;
    for _ in 0..max_rounds.max(1) {
        rounds += 1;
        let opt = optimize_checkpoints_with(wf, &ev, order, strategy, policy);
        evaluated += opt.evaluated;
        // One selection pass per axis per joint round; the outer loop
        // provides the iteration.
        let mut e = ev.expected_makespan(&opt.schedule);
        evaluated += 1;
        select_replicas_pass(&mut ev, &opt.schedule, &candidates, &mut e, &mut evaluated);
        if let Some(hierarchy) = storage {
            let n_tiers = hierarchy.n_tiers();
            select_tiers_pass(&mut ev, &opt.schedule, n_tiers, &mut e, &mut evaluated);
        }
        let tol = 1e-12 * e.abs().max(1.0);
        let better = best.as_ref().is_none_or(|b| e < b.expected_makespan - tol);
        if !better {
            break;
        }
        best = Some(JointSchedule {
            best_n: opt.best_n,
            schedule: opt.schedule,
            replica_sets: ev.sets().to_vec(),
            expected_makespan: e,
            tiers: ev.tiers().map(|t| t.to_vec()),
            evaluated,
            rounds,
        });
    }
    let mut out = best.expect("at least one joint round ran");
    out.evaluated = evaluated;
    out.rounds = rounds;
    out
}

/// Per-task cost scale factors pricing a tier assignment into a
/// [`Workflow`] copy via [`Workflow::with_scaled_costs`]: checkpoint
/// costs scale by the write factor of the task's tier at its replica
/// group size (contention applies to concurrent replica writes),
/// recovery costs by the read factor of the tier the checkpoint was
/// *written* to. This is the one shared pricing definition for every
/// consumer that simulates or re-evaluates a storage-aware schedule —
/// the Monte-Carlo engines in `dagchkpt-sim` run the scaled copy and
/// thereby agree with [`ReplicatedEvaluator::with_storage`], which bakes
/// the same read factors into its recovery costs.
///
/// Tier indices are clamped to the hierarchy like
/// [`ReplicatedEvaluator::with_storage`]; replica counts below 1 price
/// as a single writer.
pub fn storage_scales(
    hierarchy: &StorageHierarchy,
    tiers: &[usize],
    replica_counts: &[usize],
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(
        tiers.len(),
        replica_counts.len(),
        "one replica count per task"
    );
    let cap = hierarchy.n_tiers() - 1;
    let ckpt = tiers
        .iter()
        .zip(replica_counts)
        .map(|(&t, &k)| hierarchy.tiers()[t.min(cap)].write_factor(k.max(1)))
        .collect();
    let rec = tiers
        .iter()
        .map(|&t| hierarchy.tiers()[t.min(cap)].read_factor())
        .collect();
    (ckpt, rec)
}

/// Per-task **storage-tier** selection for a fixed `schedule`, on an
/// evaluator that already carries a hierarchy of `n_tiers` tiers: start
/// from the best uniform assignment (all tasks on one tier; argmin via
/// `total_cmp`, so ties go to the earliest-declared tier and NaN can never
/// win), then coordinate-descend per task until a pass moves nothing or
/// `max_rounds` passes ran — checkpoint-heavy tasks can land on a
/// write-fast tier while recovery-critical ones land on a read-fast tier.
/// Returns the chosen tiers, their expected makespan, and the number of
/// evaluations; the evaluator is left on the chosen assignment.
pub fn select_storage(
    ev: &mut ReplicatedEvaluator,
    schedule: &Schedule,
    n_tiers: usize,
    max_rounds: usize,
) -> (Vec<usize>, f64, usize) {
    let n = ev.tiers().expect("select_storage requires storage").len();
    let set_uniform = |ev: &mut ReplicatedEvaluator, tier: usize| {
        for t in 0..n {
            ev.set_tier(t, tier);
        }
    };
    let mut evaluated = 0usize;
    let mut best: Option<(f64, usize)> = None;
    for tier in 0..n_tiers {
        set_uniform(ev, tier);
        let e = ev.expected_makespan(schedule);
        evaluated += 1;
        if best.is_none_or(|(be, _)| e.total_cmp(&be).is_lt()) {
            best = Some((e, tier));
        }
    }
    let (mut best_e, tier) = best.expect("a hierarchy has at least one tier");
    set_uniform(ev, tier);
    for _ in 0..max_rounds.max(1) {
        if !select_tiers_pass(ev, schedule, n_tiers, &mut best_e, &mut evaluated) {
            break;
        }
    }
    (
        ev.tiers().expect("storage attached").to_vec(),
        best_e,
        evaluated,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::replicated::oracle;
    use crate::model::{CostRule, TaskCosts};
    use dagchkpt_dag::{generators, topo};
    use dagchkpt_failure::{Processor, StorageTier};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn chain_wf() -> Workflow {
        Workflow::with_cost_rule(
            generators::chain(6),
            vec![50.0, 10.0, 40.0, 20.0, 60.0, 30.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        )
    }

    /// Write-fast/read-slow vs write-slow/read-fast two-tier hierarchy —
    /// the asymmetry every storage test exercises.
    fn two_tier_hierarchy() -> StorageHierarchy {
        StorageHierarchy::new(vec![
            StorageTier {
                name: "wfast".to_string(),
                write_bw: 8.0,
                read_bw: 0.125,
                compression: 1.0,
                contention: 0.0,
            },
            StorageTier {
                name: "rfast".to_string(),
                write_bw: 0.125,
                read_bw: 8.0,
                compression: 1.0,
                contention: 0.0,
            },
        ])
        .unwrap()
    }

    #[test]
    fn select_storage_best_picks_the_uniform_argmin() {
        let wf = chain_wf();
        let order = topo::topological_order(wf.dag());
        // Checkpoint everything: writes dominate, so the write-fast tier
        // wins the uniform argmin and no per-task move beats it.
        let s = Schedule::always(&wf, order).unwrap();
        let platform = HeteroPlatform::homogeneous(2, 1e-3, 1.0).unwrap();
        let h = two_tier_hierarchy();
        let uniform = |tier: usize| {
            ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 6])
                .with_storage(&h, &[tier; 6])
                .expected_makespan(&s)
        };
        // Start on the losing tier: the uniform scan must move off it.
        let mut ev =
            ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 6]).with_storage(&h, &[1; 6]);
        let (tiers, e, evaluated) = select_storage(&mut ev, &s, 2, 4);
        assert_eq!(tiers, vec![0; 6], "write-fast tier must win: {tiers:?}");
        assert_eq!(e.to_bits(), uniform(0).to_bits());
        assert!(
            uniform(1) > e,
            "read-fast on all-writes {} vs {e}",
            uniform(1)
        );
        assert!(evaluated >= 2, "every uniform tier is evaluated");
        // The evaluator is left on the chosen assignment.
        assert_eq!(ev.tiers(), Some(&tiers[..]));
        // Ties go to the earliest-declared tier.
        let twin = |name: &str| StorageTier {
            name: name.to_string(),
            ..h.tiers()[1].clone()
        };
        let twins = StorageHierarchy::new(vec![twin("a"), twin("b")]).unwrap();
        let mut ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 6])
            .with_storage(&twins, &[1; 6]);
        let (tiers, _, _) = select_storage(&mut ev, &s, 2, 4);
        assert_eq!(tiers, vec![0; 6], "tie must go to tier 0: {tiers:?}");
    }

    /// A single-tier hierarchy pins that tier: with a unit tier the
    /// storage descent is the storage-free descent, bit for bit.
    #[test]
    fn joint_descent_on_a_single_unit_tier_matches_the_storage_free_descent() {
        let wf = chain_wf();
        let lambda = 5e-3;
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.5,
                    ..Processor::reference(4.0 * lambda)
                },
                Processor::reference(lambda),
            ],
            1.0,
        )
        .unwrap();
        let order = topo::topological_order(wf.dag());
        let unit = StorageHierarchy::new(vec![StorageTier::unit("unit")]).unwrap();
        let joint = |storage| {
            optimize_joint_with(
                &wf,
                &platform,
                &order,
                CheckpointStrategy::ByDecreasingWork,
                SweepPolicy::Exhaustive,
                &vec![vec![0]; 6],
                4,
                storage,
            )
        };
        let plain = joint(None);
        let tiered = joint(Some(&unit));
        assert_eq!(plain.tiers, None);
        assert_eq!(tiered.tiers, Some(vec![0; 6]));
        assert_eq!(tiered.best_n, plain.best_n);
        assert_eq!(tiered.schedule, plain.schedule);
        assert_eq!(tiered.replica_sets, plain.replica_sets);
        assert_eq!(
            tiered.expected_makespan.to_bits(),
            plain.expected_makespan.to_bits()
        );
        assert_eq!(tiered.rounds, plain.rounds);
        // One tier leaves the tier pass nothing to evaluate.
        assert_eq!(tiered.evaluated, plain.evaluated);
    }

    /// `optimize_joint` is the degree adapter of the storage-free
    /// `optimize_joint_with`: degrees d start on the fastest-first
    /// prefixes `0..d`.
    #[test]
    fn optimize_joint_is_the_prefix_adapter_of_optimize_joint_with() {
        let wf = chain_wf();
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.5,
                    ..Processor::reference(2e-2)
                },
                Processor::reference(5e-3),
                Processor {
                    speed: 0.8,
                    ..Processor::reference(1e-3)
                },
            ],
            1.0,
        )
        .unwrap();
        let order = topo::topological_order(wf.dag());
        let degrees = [1, 2, 3, 2, 1, 2];
        let sets: Vec<Vec<usize>> = degrees.iter().map(|&d| (0..d).collect()).collect();
        let strategy = CheckpointStrategy::ByDecreasingWork;
        let policy = SweepPolicy::Exhaustive;
        let adapter = optimize_joint(&wf, &platform, &order, strategy, policy, &degrees, 3);
        let direct = optimize_joint_with(&wf, &platform, &order, strategy, policy, &sets, 3, None);
        assert_eq!(adapter.best_n, direct.best_n);
        assert_eq!(adapter.schedule, direct.schedule);
        assert_eq!(adapter.replica_sets, direct.replica_sets);
        assert_eq!(
            adapter.expected_makespan.to_bits(),
            direct.expected_makespan.to_bits()
        );
        assert_eq!(adapter.tiers, None);
        assert_eq!(
            (adapter.evaluated, adapter.rounds),
            (direct.evaluated, direct.rounds)
        );
    }

    #[test]
    fn per_task_storage_selection_mixes_tiers() {
        // Task 0 writes a huge checkpoint nobody re-reads expensively;
        // task 1 writes a tiny checkpoint whose recovery read is huge
        // (it is re-read on every fault in task 2's block). Per-task
        // selection must split them across the two tiers.
        let wf = Workflow::new(
            generators::chain(3),
            vec![
                TaskCosts::new(10.0, 50.0, 0.1),
                TaskCosts::new(10.0, 0.5, 50.0),
                TaskCosts::new(10.0, 0.0, 0.0),
            ],
        );
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        let platform = HeteroPlatform::homogeneous(2, 1e-2, 1.0).unwrap();
        let h = two_tier_hierarchy();
        let mut ev =
            ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 3]).with_storage(&h, &[0; 3]);
        let (tiers, e_mixed, _) = select_storage(&mut ev, &s, 2, 4);
        assert_eq!(tiers[0], 0, "huge write → write-fast tier: {tiers:?}");
        assert_eq!(
            tiers[1], 1,
            "huge recovery read → read-fast tier: {tiers:?}"
        );
        // The mixed assignment beats both uniform assignments.
        for uniform in 0..2usize {
            let e_u = ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 3])
                .with_storage(&h, &[uniform; 3])
                .expected_makespan(&s);
            assert!(
                e_mixed < e_u,
                "mixed {e_mixed} must beat uniform tier {uniform} ({e_u})"
            );
        }
    }

    #[test]
    fn joint_storage_descent_is_consistent_and_never_worse_than_round_one() {
        let wf = chain_wf();
        let lambda = 5e-3;
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.5,
                    ..Processor::reference(4.0 * lambda)
                },
                Processor::reference(lambda),
            ],
            1.0,
        )
        .unwrap();
        let order = topo::topological_order(wf.dag());
        let h = two_tier_hierarchy();
        let joint = optimize_joint_with(
            &wf,
            &platform,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
            &vec![vec![0, 1]; 6],
            4,
            Some(&h),
        );
        let tiers = joint.tiers.as_ref().expect("storage descent reports tiers");
        assert_eq!(tiers.len(), 6);
        assert!(joint.expected_makespan.is_finite() && joint.rounds >= 1);
        // The reported value matches a fresh storage-aware evaluation of
        // the reported schedule, sets and tiers — bit for bit.
        let fresh = ReplicatedEvaluator::from_sets(&wf, &platform, &joint.replica_sets)
            .with_storage(&h, tiers)
            .expected_makespan(&joint.schedule);
        assert_eq!(joint.expected_makespan.to_bits(), fresh.to_bits());
        // Never worse than the checkpoint sweep alone on the initial
        // (all-tier-0, prefix-degree) assignment.
        let base_ev =
            ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 6]).with_storage(&h, &[0; 6]);
        let sweep = optimize_checkpoints_with(
            &wf,
            &base_ev,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
        );
        assert!(
            joint.expected_makespan <= sweep.expected_makespan + 1e-9 * sweep.expected_makespan,
            "joint {} vs sweep {}",
            joint.expected_makespan,
            sweep.expected_makespan
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The resumed replication-aware sweep picks the sequential argmin
        /// (ties toward smaller budgets) of per-candidate evaluations by
        /// the uncached reference oracle: the same budget, value bits,
        /// candidate count and checkpoint set.
        #[test]
        fn resumed_sweep_is_bit_identical_to_the_oracle(seed in 0u64..100) {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0xC0FFEE));
            let n = rng.gen_range(8..14usize);
            let dag = generators::layered_random(&mut rng, n, 4, 0.35);
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(5.0..40.0)).collect();
            let wf =
                Workflow::with_cost_rule(dag, weights, CostRule::ProportionalToWork { ratio: 0.1 });
            let lambda = rng.gen_range(1e-3..8e-3);
            let procs: Vec<Processor> = (0..rng.gen_range(2..=4usize))
                .map(|_| Processor {
                    speed: rng.gen_range(0.5..2.0),
                    ..Processor::reference(lambda * rng.gen_range(0.25..6.0))
                })
                .collect();
            let platform = HeteroPlatform::new(procs, rng.gen_range(0.0..3.0)).unwrap();
            let degrees = ReplicationStrategy::Uniform { degree: 2 }.degrees(&wf, platform.n_procs());
            let order = crate::linearize::linearize(
                &wf,
                crate::linearize::LinearizationStrategy::DepthFirst,
            );
            let ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &degrees);
            let strategy = CheckpointStrategy::ByDecreasingWork;
            let swept = optimize_checkpoints_with(&wf, &ev, &order, strategy, SweepPolicy::Exhaustive);
            let rank = ranking(&wf, strategy).unwrap();
            let base = Schedule::never(&wf, order).unwrap();
            let mut best: Option<(usize, f64)> = None;
            for k in 0..=n {
                let s = base.with_checkpoints(set_from_ranking(n, &rank, k));
                let e = oracle::evaluate(&ev, &s).expected_makespan;
                if best.is_none_or(|(_, b)| e < b) {
                    best = Some((k, e));
                }
            }
            let (best_n, best_e) = best.unwrap();
            prop_assert!(swept.expected_makespan.to_bits() == best_e.to_bits());
            prop_assert!(swept.best_n == Some(best_n));
            prop_assert!(swept.evaluated == n + 1);
            prop_assert!(swept.schedule.checkpoints() == &set_from_ranking(n, &rank, best_n));
        }
    }

    /// Claims from random workers until every worker is refused: each
    /// candidate index is handed out exactly once, and a refusal is final.
    fn drain_range_table(rng: &mut SmallRng, len: usize, workers: usize) {
        let table = RangeTable::new(len, workers);
        let mut handed = vec![0u32; len];
        let mut done = vec![false; workers];
        while done.iter().any(|d| !d) {
            let w = rng.gen_range(0..workers);
            match table.claim(w) {
                Some(idx) => {
                    assert!(!done[w], "worker {w} claimed after a refusal");
                    handed[idx] += 1;
                }
                None => done[w] = true,
            }
        }
        assert!(
            handed.iter().all(|&h| h == 1),
            "{len} over {workers}: {handed:?}"
        );
    }

    /// A `NaN` cost ranks after every number, `+∞` included, and equal
    /// costs (two `NaN`s too) tie toward the smaller index, so the fold
    /// gives the same winner in any order.
    #[test]
    fn better_candidate_ranks_nan_last_in_any_order() {
        let cands = [
            (4, f64::NAN),
            (3, 7.0),
            (9, f64::INFINITY),
            (1, f64::NAN),
            (6, 7.0),
            (2, 8.5),
        ];
        let fold = |order: &[usize]| {
            order
                .iter()
                .fold(None, |best, &i| better_candidate(best, Some(cands[i])))
        };
        let mut order: Vec<usize> = (0..cands.len()).collect();
        let mut rng = SmallRng::seed_from_u64(0x0a0);
        for _ in 0..50 {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            assert_eq!(fold(&order), Some((3, 7.0)), "{order:?}");
        }
        let nan_first = better_candidate(Some((0, f64::NAN)), Some((5, f64::INFINITY)));
        assert_eq!(nan_first, Some((5, f64::INFINITY)));
        let nans = better_candidate(Some((4, f64::NAN)), Some((1, f64::NAN))).unwrap();
        assert!(nans.0 == 1 && nans.1.is_nan());
    }

    #[test]
    fn range_table_hands_out_every_candidate_exactly_once() {
        let mut rng = SmallRng::seed_from_u64(0x57EA1);
        for workers in 1..=5 {
            for len in [0, 1, 2, 3, 7, 64, 201] {
                for _ in 0..20 {
                    drain_range_table(&mut rng, len, workers);
                }
            }
        }
        // Real threads: the claims of all workers partition the indices.
        for workers in 1..=5 {
            let len = 997;
            let table = RangeTable::new(len, workers);
            let mut claimed: Vec<usize> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let table = &table;
                        scope.spawn(move || {
                            std::iter::from_fn(|| table.claim(w)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            claimed.sort_unstable();
            assert_eq!(claimed, (0..len).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    /// An idle worker steals the upper half of the largest range.
    #[test]
    fn range_table_steals_the_upper_half_of_the_largest_range() {
        let table = RangeTable::new(12, 3);
        // Worker 2 drains its own range [8, 12) first.
        let own: Vec<_> = (0..4).map(|_| table.claim(2).unwrap()).collect();
        assert_eq!(own, [8, 9, 10, 11]);
        // Worker 0 has consumed one of [0, 4): worker 1's [4, 8) is the
        // largest, so worker 2 takes [6, 8) and worker 1 keeps [4, 6).
        assert_eq!(table.claim(0), Some(0));
        assert_eq!(table.claim(2), Some(6));
        assert_eq!(table.claim(1), Some(4));
        assert_eq!(table.claim(1), Some(5));
        assert_eq!(table.claim(2), Some(7));
        // Now worker 0's [1, 4) is all that is left: worker 1 steals [2, 4).
        assert_eq!(table.claim(1), Some(2));
        assert_eq!(table.claim(0), Some(1));
        assert_eq!(table.claim(0), Some(3));
        assert_eq!(table.claim(1), None);
        assert_eq!(table.claim(2), None);
    }

    #[test]
    fn paper_names() {
        assert_eq!(CheckpointStrategy::Never.paper_name(), "CkptNvr");
        assert_eq!(CheckpointStrategy::Always.paper_name(), "CkptAlws");
        assert_eq!(CheckpointStrategy::ByDecreasingWork.paper_name(), "CkptW");
        assert_eq!(
            CheckpointStrategy::ByIncreasingCkptCost.paper_name(),
            "CkptC"
        );
        assert_eq!(
            CheckpointStrategy::ByDecreasingOutweight.paper_name(),
            "CkptD"
        );
        assert_eq!(CheckpointStrategy::Periodic.paper_name(), "CkptPer");
        assert!(!CheckpointStrategy::Never.is_swept());
        assert!(CheckpointStrategy::Periodic.is_swept());
    }

    #[test]
    fn ranking_by_work_desc() {
        let wf = chain_wf();
        let r = ranking(&wf, CheckpointStrategy::ByDecreasingWork).unwrap();
        let ids: Vec<u32> = r.iter().map(|v| v.0).collect();
        assert_eq!(ids, vec![4, 0, 2, 5, 3, 1]);
    }

    #[test]
    fn ranking_by_ckpt_cost_asc() {
        let wf = chain_wf(); // c = 0.1 w, so increasing c == increasing w
        let r = ranking(&wf, CheckpointStrategy::ByIncreasingCkptCost).unwrap();
        let ids: Vec<u32> = r.iter().map(|v| v.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 2, 0, 4]);
    }

    #[test]
    fn ranking_by_outweight_desc() {
        // Chain: outweight of i is w_{i+1}; last task has 0.
        let wf = chain_wf();
        let r = ranking(&wf, CheckpointStrategy::ByDecreasingOutweight).unwrap();
        let ids: Vec<u32> = r.iter().map(|v| v.0).collect();
        // outweights: [10, 40, 20, 60, 30, 0] → sorted desc: 3, 1, 4, 2, 0, 5
        assert_eq!(ids, vec![3, 1, 4, 2, 0, 5]);
    }

    #[test]
    fn ties_in_ranking_break_by_id() {
        let wf = Workflow::uniform(generators::chain(4), 10.0, 1.0);
        let r = ranking(&wf, CheckpointStrategy::ByDecreasingWork).unwrap();
        let ids: Vec<u32> = r.iter().map(|v| v.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unranked_strategies_return_error_not_panic() {
        let wf = chain_wf();
        for s in [
            CheckpointStrategy::Never,
            CheckpointStrategy::Always,
            CheckpointStrategy::Periodic,
        ] {
            let e = ranking(&wf, s).unwrap_err();
            assert_eq!(e.strategy, s);
            assert!(e.to_string().contains("no task ranking"), "{e}");
        }
    }

    #[test]
    fn set_from_ranking_takes_prefix() {
        let wf = chain_wf();
        let r = ranking(&wf, CheckpointStrategy::ByDecreasingWork).unwrap();
        let s = set_from_ranking(6, &r, 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 4]);
        assert_eq!(set_from_ranking(6, &r, 0).count(), 0);
        assert_eq!(set_from_ranking(6, &r, 6).count(), 6);
    }

    #[test]
    fn periodic_set_spreads_along_completion_times() {
        // Uniform weights (10 each), order 0..5, total 60. With 2
        // checkpoints the thresholds are 20 and 40: tasks completing at
        // those instants are positions 1 and 3.
        let wf = Workflow::uniform(generators::chain(6), 10.0, 1.0);
        let order = topo::topological_order(wf.dag());
        let s = periodic_set(&wf, &order, 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3]);
        // Zero budget → empty set.
        assert!(periodic_set(&wf, &order, 0).is_empty());
        // Huge budget: thresholds collapse; the last task is never chosen.
        let all = periodic_set(&wf, &order, 100);
        assert!(!all.contains(5));
        assert!(all.count() <= 5);
    }

    #[test]
    fn periodic_example_from_paper_figure1() {
        // The paper's CkptPer critique: with linearization T0 T3 T1 T2 …
        // a threshold can fall on T1 (a source) instead of the sensible T3.
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0; 8],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let order: Vec<NodeId> = [0u32, 3, 1, 2, 4, 5, 6, 7]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        // 3 checkpoints over 80s of work → thresholds at 20, 40, 60:
        // completions are 10,20,30,… so tasks at positions 1 (T3), 3 (T2),
        // 5 (T5).
        let s = periodic_set(&wf, &order, 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 3, 5]);
    }

    #[test]
    fn never_always_endpoints() {
        let wf = chain_wf();
        let m = FaultModel::new(1e-3, 0.0);
        let order = topo::topological_order(wf.dag());
        let never = optimize_checkpoints(
            &wf,
            m,
            &order,
            CheckpointStrategy::Never,
            SweepPolicy::Exhaustive,
        );
        assert_eq!(never.schedule.n_checkpoints(), 0);
        assert_eq!(never.best_n, None);
        let always = optimize_checkpoints(
            &wf,
            m,
            &order,
            CheckpointStrategy::Always,
            SweepPolicy::Exhaustive,
        );
        assert_eq!(always.schedule.n_checkpoints(), 6);
    }

    #[test]
    fn swept_strategy_beats_both_baselines_on_chain() {
        // λ·w large enough that checkpointing matters, c small enough that
        // checkpointing everything is wasteful… with only 6 tasks CkptAlws
        // may tie, so compare ≤ against both and require strict improvement
        // over at least one.
        let wf = chain_wf();
        let m = FaultModel::new(5e-3, 0.0);
        let order = topo::topological_order(wf.dag());
        let never = optimize_checkpoints(
            &wf,
            m,
            &order,
            CheckpointStrategy::Never,
            SweepPolicy::Exhaustive,
        );
        let always = optimize_checkpoints(
            &wf,
            m,
            &order,
            CheckpointStrategy::Always,
            SweepPolicy::Exhaustive,
        );
        let ckptw = optimize_checkpoints(
            &wf,
            m,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
        );
        assert!(ckptw.expected_makespan <= never.expected_makespan + 1e-9);
        assert!(ckptw.expected_makespan <= always.expected_makespan + 1e-9);
        assert!(
            ckptw.expected_makespan < never.expected_makespan.max(always.expected_makespan) - 1e-9,
            "sweep should strictly beat the worse baseline"
        );
        assert_eq!(ckptw.evaluated, 7); // N = 0..=6
    }

    #[test]
    fn strided_sweep_matches_exhaustive_on_smooth_instance() {
        let wf = Workflow::uniform(generators::chain(30), 20.0, 2.0);
        let m = FaultModel::new(2e-3, 0.0);
        let order = topo::topological_order(wf.dag());
        let ex = optimize_checkpoints(
            &wf,
            m,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
        );
        let st = optimize_checkpoints(
            &wf,
            m,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Strided { stride: 5 },
        );
        assert!(st.evaluated < ex.evaluated);
        assert!((st.expected_makespan - ex.expected_makespan).abs() <= 1e-9 * ex.expected_makespan);
    }

    #[test]
    fn ckpt_h_ranks_by_protection_per_cost() {
        use crate::model::TaskCosts;
        // w/c ratios: 10, 2, ∞ (free checkpoint), 5.
        let costs = vec![
            TaskCosts::new(50.0, 5.0, 5.0),
            TaskCosts::new(10.0, 5.0, 5.0),
            TaskCosts::new(3.0, 0.0, 0.0),
            TaskCosts::new(25.0, 5.0, 5.0),
        ];
        let wf = Workflow::new(generators::chain(4), costs);
        let r = ranking(&wf, CheckpointStrategy::ByDecreasingWorkOverCost).unwrap();
        let ids: Vec<u32> = r.iter().map(|v| v.0).collect();
        assert_eq!(ids, vec![2, 0, 3, 1]);
        assert_eq!(
            CheckpointStrategy::ByDecreasingWorkOverCost.paper_name(),
            "CkptH"
        );
        assert!(CheckpointStrategy::ByDecreasingWorkOverCost.is_swept());
    }

    #[test]
    fn ckpt_h_with_proportional_costs_equals_ckpt_w_ties() {
        // c = 0.1 w makes every ratio equal: CkptH degrades to id order,
        // and its swept optimum can't beat CkptW by more than tie noise.
        let wf = chain_wf();
        let m = FaultModel::new(5e-3, 0.0);
        let order = topo::topological_order(wf.dag());
        let h = optimize_checkpoints(
            &wf,
            m,
            &order,
            CheckpointStrategy::ByDecreasingWorkOverCost,
            SweepPolicy::Exhaustive,
        );
        assert!(h.expected_makespan.is_finite());
        assert!(h.expected_makespan >= wf.total_work());
    }

    #[test]
    fn local_search_never_worse_than_seed_and_finds_known_improvements() {
        let wf = chain_wf();
        let m = FaultModel::new(5e-3, 0.0);
        let order = topo::topological_order(wf.dag());
        // Seed with the empty set.
        let seed = dagchkpt_dag::FixedBitSet::new(6);
        let base = Schedule::never(&wf, order.clone()).unwrap();
        let seed_e = crate::evaluator::expected_makespan(&wf, m, &base);
        let ls = local_search(&wf, m, &order, seed, 32);
        assert!(ls.expected_makespan <= seed_e + 1e-9);
        // On a chain, local search from empty must reach at most the CkptW
        // sweep value (single-bit flips dominate prefix-of-ranking sets).
        let sweep = optimize_checkpoints(
            &wf,
            m,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
        );
        assert!(
            ls.expected_makespan <= sweep.expected_makespan + 1e-9,
            "local search {} vs sweep {}",
            ls.expected_makespan,
            sweep.expected_makespan
        );
        // And it can't beat the chain DP optimum.
        let (_, dp) = crate::exact::chain::solve_chain(&wf, m).unwrap();
        assert!(ls.expected_makespan >= dp - 1e-9 * dp);
    }

    #[test]
    fn local_search_from_optimum_stays_put() {
        let wf = chain_wf();
        let m = FaultModel::new(5e-3, 0.0);
        let (opt_schedule, opt_value) = crate::exact::chain::solve_chain(&wf, m).unwrap();
        let ls = local_search(
            &wf,
            m,
            opt_schedule.order(),
            opt_schedule.checkpoints().clone(),
            16,
        );
        assert!((ls.expected_makespan - opt_value).abs() <= 1e-9 * opt_value);
    }

    #[test]
    fn replication_degree_families_and_clamping() {
        let wf = chain_wf(); // weights 50, 10, 40, 20, 60, 30
        assert_eq!(ReplicationStrategy::None.degrees(&wf, 4), vec![1; 6]);
        assert_eq!(
            ReplicationStrategy::Uniform { degree: 3 }.degrees(&wf, 4),
            vec![3; 6]
        );
        // Clamped to the platform size and to ≥ 1.
        assert_eq!(
            ReplicationStrategy::Uniform { degree: 9 }.degrees(&wf, 4),
            vec![4; 6]
        );
        assert_eq!(
            ReplicationStrategy::Uniform { degree: 0 }.degrees(&wf, 4),
            vec![1; 6]
        );
        // Heaviest 2: tasks 4 (w=60) and 0 (w=50).
        assert_eq!(
            ReplicationStrategy::Heaviest {
                degree: 2,
                count: 2
            }
            .degrees(&wf, 4),
            vec![2, 1, 1, 1, 2, 1]
        );
        // Threshold at 0.5·60 = 30: tasks 0, 2, 4, 5.
        assert_eq!(
            ReplicationStrategy::Threshold {
                degree: 3,
                work_fraction: 0.5
            }
            .degrees(&wf, 8),
            vec![3, 1, 3, 1, 3, 3]
        );
        // Degree-1 uniform is exactly the no-replication strategy.
        assert_eq!(
            ReplicationStrategy::Uniform { degree: 1 }.degrees(&wf, 4),
            ReplicationStrategy::None.degrees(&wf, 4)
        );
        assert_eq!(ReplicationStrategy::None.label(), "none");
        assert_eq!(ReplicationStrategy::Uniform { degree: 2 }.label(), "r2");
        assert_eq!(
            ReplicationStrategy::Heaviest {
                degree: 3,
                count: 8
            }
            .label(),
            "heavy3x8"
        );
        assert_eq!(
            ReplicationStrategy::Threshold {
                degree: 2,
                work_fraction: 0.5
            }
            .label(),
            "thr2@0.5"
        );
    }

    #[test]
    fn replica_candidates_cover_speed_reliability_and_singletons() {
        // Fastest-first canonical order: 0 fast/flaky, 1 medium, 2 slow/safe.
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 2.0,
                    ..Processor::reference(8e-3)
                },
                Processor::reference(2e-3),
                Processor {
                    speed: 0.5,
                    ..Processor::reference(5e-4)
                },
            ],
            1.0,
        )
        .unwrap();
        let cands = replica_candidates(&platform, 3);
        // Speed prefixes.
        assert!(cands.contains(&vec![0]));
        assert!(cands.contains(&vec![0, 1]));
        assert!(cands.contains(&vec![0, 1, 2]));
        // Reliability prefixes (λ ascending: 2, 1, 0).
        assert!(cands.contains(&vec![2]));
        assert!(cands.contains(&vec![1, 2]));
        // Singletons.
        assert!(cands.contains(&vec![1]));
        // Deduplicated and degree-capped.
        let unique: std::collections::BTreeSet<_> = cands.iter().cloned().collect();
        assert_eq!(unique.len(), cands.len());
        for c in &replica_candidates(&platform, 2) {
            assert!(c.len() <= 2);
        }
    }

    #[test]
    fn select_replicas_prefers_reliable_solo_over_flaky_prefix() {
        // Rank 0 is barely faster but fails 500× as often: running the
        // reliable rank 1 alone beats both the fastest-first prefix and
        // the pair (a failed group attempt lasts until the *last* death).
        let wf = Workflow::uniform(generators::chain(4), 50.0, 1.0);
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.1,
                    ..Processor::reference(5e-2)
                },
                Processor::reference(1e-4),
            ],
            5.0,
        )
        .unwrap();
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        let init: Vec<Vec<usize>> = vec![vec![0]; 4];
        let before =
            crate::evaluator::replicated::evaluate_replicated_sets(&wf, &platform, &s, &init)
                .expected_makespan;
        let (sets, e, evaluated) = select_replicas(&wf, &platform, &s, &init, 2, 8);
        assert!(e <= before + 1e-9 * before, "selection made things worse");
        assert!(e < before, "selection should strictly improve here");
        assert!(evaluated > 1);
        // Every task ends on the reliable machine (solo or paired).
        for set in &sets {
            assert!(set.contains(&1), "sets {sets:?}");
        }
        // And the reported value matches a fresh evaluation bitwise.
        let fresh =
            crate::evaluator::replicated::evaluate_replicated_sets(&wf, &platform, &s, &sets)
                .expected_makespan;
        assert_eq!(e.to_bits(), fresh.to_bits());
    }

    #[test]
    fn select_replicas_escapes_infinite_makespan_assignments() {
        // One 2000-unit block on a machine with λ = 5e-2: λ·d ≈ 91, the
        // per-attempt failure probability rounds to exactly 1.0 in f64 and
        // the expected makespan is +∞. Selection must still escape to the
        // reliable machine (a NaN-propagating improvement test would not).
        let wf = Workflow::uniform(generators::chain(1), 2000.0, 0.0);
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.1,
                    ..Processor::reference(5e-2)
                },
                Processor::reference(1e-4),
            ],
            1.0,
        )
        .unwrap();
        let order = topo::topological_order(wf.dag());
        let s = Schedule::never(&wf, order.clone()).unwrap();
        let init = vec![vec![0usize]];
        let stuck =
            crate::evaluator::replicated::evaluate_replicated_sets(&wf, &platform, &s, &init)
                .expected_makespan;
        assert!(stuck.is_infinite(), "premise: init must be infinite");
        let (sets, e, _) = select_replicas(&wf, &platform, &s, &init, 2, 4);
        assert!(e.is_finite(), "selection failed to escape +∞: {sets:?}");
        assert!(sets[0].contains(&1), "sets {sets:?}");
        // And the joint optimizer built on it escapes too.
        let joint = optimize_joint(
            &wf,
            &platform,
            &order,
            CheckpointStrategy::Never,
            SweepPolicy::Exhaustive,
            &[1],
            3,
        );
        assert!(joint.expected_makespan.is_finite());
    }

    #[test]
    fn aware_sweep_and_joint_dominate_the_proxy_chain() {
        let wf = chain_wf();
        let lambda = 5e-3;
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.5,
                    ..Processor::reference(4.0 * lambda)
                },
                Processor::reference(lambda),
            ],
            1.0,
        )
        .unwrap();
        let order = topo::topological_order(wf.dag());
        let degrees = vec![2usize; 6];
        // Proxy: optimize under the single-machine model, re-score
        // replicated (what the engine did before this refactor).
        let proxy = optimize_checkpoints(
            &wf,
            FaultModel::new(lambda, 1.0),
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
        );
        let proxy_e = crate::evaluator::replicated::expected_makespan_replicated(
            &wf,
            &platform,
            &proxy.schedule,
            &degrees,
        );
        // Aware: the same sweep against the replicated objective.
        let obj = ReplicatedEvaluator::from_degrees(&wf, &platform, &degrees);
        let aware = optimize_checkpoints_with(
            &wf,
            &obj,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
        );
        // Same candidate family, aware picks its argmin: never worse.
        assert!(
            aware.expected_makespan <= proxy_e + 1e-9 * proxy_e,
            "aware {} vs proxy {}",
            aware.expected_makespan,
            proxy_e
        );
        // Joint adds replica selection on top: never worse than aware.
        let joint = optimize_joint(
            &wf,
            &platform,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
            &degrees,
            4,
        );
        assert!(
            joint.expected_makespan <= aware.expected_makespan + 1e-9 * aware.expected_makespan,
            "joint {} vs aware {}",
            joint.expected_makespan,
            aware.expected_makespan
        );
        assert_eq!(joint.replica_sets.len(), 6);
        assert!(joint.rounds >= 1);
        // The joint value matches a fresh set evaluation of its schedule.
        let fresh = crate::evaluator::replicated::evaluate_replicated_sets(
            &wf,
            &platform,
            &joint.schedule,
            &joint.replica_sets,
        )
        .expected_makespan;
        assert_eq!(joint.expected_makespan.to_bits(), fresh.to_bits());
    }

    #[test]
    fn generic_sweep_with_proxy_objective_is_bit_identical() {
        let wf = chain_wf();
        let m = FaultModel::new(5e-3, 0.5);
        let order = topo::topological_order(wf.dag());
        for strat in [
            CheckpointStrategy::Never,
            CheckpointStrategy::Always,
            CheckpointStrategy::Periodic,
            CheckpointStrategy::ByDecreasingWork,
        ] {
            let a = optimize_checkpoints(&wf, m, &order, strat, SweepPolicy::Exhaustive);
            let b = optimize_checkpoints_with(
                &wf,
                &crate::objective::ProxyObjective::new(&wf, m),
                &order,
                strat,
                SweepPolicy::Exhaustive,
            );
            assert_eq!(a.expected_makespan.to_bits(), b.expected_makespan.to_bits());
            assert_eq!(a.best_n, b.best_n);
            assert_eq!(a.evaluated, b.evaluated);
        }
    }

    #[test]
    fn sweep_on_empty_and_singleton_workflows() {
        let wf0 = Workflow::uniform(generators::chain(0), 1.0, 0.1);
        let m = FaultModel::new(1e-3, 0.0);
        let r = optimize_checkpoints(
            &wf0,
            m,
            &[],
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
        );
        assert_eq!(r.expected_makespan, 0.0);
        let wf1 = Workflow::uniform(generators::chain(1), 5.0, 0.5);
        let order = topo::topological_order(wf1.dag());
        let r = optimize_checkpoints(
            &wf1,
            m,
            &order,
            CheckpointStrategy::Periodic,
            SweepPolicy::Exhaustive,
        );
        assert!(r.expected_makespan > 0.0);
    }

    /// Quantile-targeted sweeps on an analytic backend degenerate to the
    /// mean sweep bitwise (`cost_quantile` defaults to `cost`).
    #[test]
    fn quantile_sweep_on_analytic_backend_degenerates_to_mean() {
        let wf = chain_wf();
        let m = FaultModel::new(5e-3, 0.5);
        let order = topo::topological_order(wf.dag());
        let obj = crate::objective::ProxyObjective::new(&wf, m);
        for strat in [
            CheckpointStrategy::Never,
            CheckpointStrategy::Periodic,
            CheckpointStrategy::ByDecreasingWork,
        ] {
            let mean = optimize_checkpoints_with(&wf, &obj, &order, strat, SweepPolicy::Exhaustive);
            let q99 = optimize_checkpoints_quantile(
                &wf,
                &obj,
                &order,
                strat,
                SweepPolicy::Exhaustive,
                0.99,
            );
            assert_eq!(
                mean.expected_makespan.to_bits(),
                q99.expected_makespan.to_bits()
            );
            assert_eq!(mean.best_n, q99.best_n);
            assert_eq!(mean.evaluated, q99.evaluated);
        }
    }

    /// A NaN quantile key maps to +∞ inside the sweep, so an objective
    /// with no estimate for some candidate can never displace a finite
    /// one (the argmin fold compares with a raw `<`).
    #[test]
    fn quantile_sweep_maps_nan_keys_to_infinity() {
        struct NanAtZero<'a>(ProxyObjective<'a>);
        impl Objective for NanAtZero<'_> {
            fn cost(&self, s: &Schedule) -> f64 {
                self.0.cost(s)
            }
            fn label(&self) -> &'static str {
                "nan-at-zero"
            }
            fn cost_quantile(&self, s: &Schedule, _q: f64) -> f64 {
                // No estimate for the checkpoint-free candidate.
                if s.checkpoints().count() == 0 {
                    f64::NAN
                } else {
                    self.0.cost(s)
                }
            }
        }
        let wf = chain_wf();
        let m = FaultModel::new(5e-3, 0.5);
        let order = topo::topological_order(wf.dag());
        let obj = NanAtZero(ProxyObjective::new(&wf, m));
        let r = optimize_checkpoints_quantile(
            &wf,
            &obj,
            &order,
            CheckpointStrategy::ByDecreasingWork,
            SweepPolicy::Exhaustive,
            0.5,
        );
        // The winner carries a finite key and at least one checkpoint.
        assert!(r.expected_makespan.is_finite());
        assert!(r.schedule.checkpoints().count() > 0);
    }
}
