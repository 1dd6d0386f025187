//! Compiled trial plans and per-worker scratch arenas: the zero-allocation
//! Monte-Carlo fast path.
//!
//! [`TrialPlan::compile`] flattens one (workflow × schedule) cell into
//! contiguous arrays indexed by schedule position — the task order, the
//! checkpoint set, an ascending CSR predecessor table, work / checkpoint /
//! recovery costs, and the cell's **recovery rows** (below) — compiled
//! **once per cell** and shared read-only by every worker thread.
//!
//! # Recovery rows
//!
//! In the blocking engines memory is only ever wiped whole (at a fault)
//! and otherwise only grows: each block adds its own output and whatever
//! its recovery plan restored. So the memory a block at position `j` sees
//! is a pure function of `(k, j)`, where `k` is the position of the block
//! the last wipe struck, and so is its recovery plan. Before the first
//! fault every input is resident and every plan is empty, which is the
//! same as a wipe at position 0.
//!
//! The compile step therefore stores one *row* per wipe position `k`,
//! holding only the non-empty plans `j ≥ k` of that row in block order:
//! the steps as positions (the kind follows from the checkpoint bit) and
//! the (rework, recovery) sums added in step order exactly as the
//! replicated engine adds them. A trial keeps a cursor into the row of the
//! last wipe, so the blocking engines run with no residency bitset and no
//! graph walk at all. Rows are built by [`TrialPlan::fill_recovery`]
//! itself — there is one DFS — on the memory `{positions ≥ k} ∪ restored`,
//! which agrees with the row's true memory on every task a DFS from a
//! block `j ≥ k` can reach (those sit at positions `< j`).
//!
//! The layout is sparse, and so is the work. A block with a missing input
//! `p < k` must be the first successor of `p` at or after `k` (an earlier
//! one would have restored `p`), so only those *candidate* blocks are
//! planned, and every input they are candidates for ends up restored in
//! the row: per row, candidates never outnumber stored steps. Candidates
//! come from a bitset updated by one insert per block (at its activation
//! row) and one removal per row, so compiling costs the stored plans plus
//! an `n / 64`-word scan per row, not `n²` plan lookups.
//!
//! The non-blocking engine recovers only *durable* checkpoints, so its
//! plans also depend on which writes completed. It reuses the blocking
//! row when every checkpointed task before the wipe position is durable
//! at the wipe (an `O(1)` count comparison: only tasks before `k` can be
//! durable then). Its DFS would then see the blocking engine's recoverable
//! set on every task it can reach — tasks at positions `< k`; durability
//! only changes later for tasks at positions `≥ k`, which are resident —
//! and, since no reached checkpointed task is lost, it would re-enqueue
//! no write: the row is exact. Otherwise it keeps the DFS (still skipped
//! for a block whose earliest predecessor sits at or after the wipe).
//!
//! [`TrialScratch`] holds the non-blocking engine's mutable state
//! (residency bitset, epoch-marked DFS buffers, the recovery-step buffer
//! that replaces [`crate::plan::recovery_plan`]'s fresh `Vec` per fault,
//! and the write queue), so a steady-state trial performs **zero heap
//! allocations**: the executor creates one scratch per fold chunk
//! (`O(chunks)` allocations per run, never `O(trials)`).
//!
//! [`simulate_planned`] is the fast twin of [`crate::engine::simulate`]:
//! same arithmetic in the same order, so its results are **bit-identical**
//! to the reference engine (pinned by the differential tests below and in
//! `differential_tests`); the reference stays in `engine.rs` both as
//! executable documentation and as the "before" baseline of
//! `benches/mc_fastpath.rs`.

use dagchkpt_core::{Schedule, Workflow};
use dagchkpt_dag::{FixedBitSet, NodeId};
use dagchkpt_failure::FaultInjector;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global count of [`TrialPlan::compile`] calls — the allocation-regression
/// suite pins this at one per cell, proving plans are shared, not rebuilt.
static COMPILES: AtomicU64 = AtomicU64::new(0);

/// Number of trial plans compiled so far in this process (test hook).
#[doc(hidden)]
pub fn plan_compile_count() -> u64 {
    COMPILES.load(Ordering::Relaxed)
}

/// One (workflow × schedule × costs) cell, flattened into contiguous
/// arrays at setup time and shared read-only by all trial workers. Every
/// per-task array is indexed by schedule **position**, so the engines and
/// the recovery DFS never translate between task ids and positions.
///
/// Storage-tier pricing needs no special handling: callers compile the
/// plan from the already-scaled workflow copy, so the cost arrays carry
/// the tier prices.
#[derive(Debug, Clone)]
pub struct TrialPlan {
    /// Task count.
    pub(crate) n: usize,
    /// Task id at each position (the schedule order, a linearization).
    pub(crate) order: Vec<NodeId>,
    /// `w` per position.
    pub(crate) work: Vec<f64>,
    /// `c` per position (whether checkpointed or not).
    pub(crate) ckpt_cost: Vec<f64>,
    /// `r` per position.
    rec_cost: Vec<f64>,
    /// `c` when the task is checkpointed, else `0.0` — exactly the
    /// engine's per-block checkpoint branch, precomputed.
    pub(crate) block_ckpt: Vec<f64>,
    /// What restoring the task costs in a blocking plan: `r` when it is
    /// checkpointed (recovered), else `w` (re-executed).
    pub(crate) restore_cost: Vec<f64>,
    /// The schedule's checkpoint set, by position.
    pub(crate) checkpointed: FixedBitSet,
    /// Checkpointed tasks among positions `< k`, for `k ∈ 0..=n`.
    pub(crate) ckpt_before: Vec<u32>,
    /// CSR offsets into `preds`; `n + 1` entries.
    pred_offsets: Vec<u32>,
    /// Predecessor positions of each position, ascending.
    preds: Vec<u32>,
    /// Row `k` is `rows[row_offsets[k]..row_offsets[k + 1]]`; `n + 1`
    /// entries.
    row_offsets: Vec<u32>,
    /// The non-empty recovery plans of every row, rows in wipe order and
    /// entries in block order.
    rows: Vec<RowEntry>,
    /// Concatenated plan steps (positions) of all entries, each plan in
    /// schedule order; an entry's steps end where the next entry's start.
    row_steps: Vec<u32>,
}

/// One stored recovery plan: the non-empty plan of one block in the row of
/// one wipe position.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowEntry {
    /// Position of the block that runs this plan.
    block: u32,
    /// The plan's first step in `row_steps`.
    start: u32,
    /// Re-executed work, summed in step order.
    pub(crate) rework: f64,
    /// Recovery cost, summed in step order.
    pub(crate) recovery: f64,
}

/// A trial's read position in the row of its last wipe: the row's entries
/// not yet consumed by a block. The default cursor is the row before the
/// first fault, which is empty: every input is still resident.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RowCursor {
    next: usize,
    end: usize,
}

impl RowCursor {
    /// The index of the stored plan of the block at `position`, if it has
    /// one, advancing past it. Blocks run in position order and a failed
    /// attempt resets the cursor to a fresh row, so entries are consumed
    /// in order.
    #[inline]
    pub(crate) fn take(&mut self, plan: &TrialPlan, position: usize) -> Option<usize> {
        if self.next < self.end && plan.rows[self.next].block as usize == position {
            self.next += 1;
            Some(self.next - 1)
        } else {
            None
        }
    }
}

/// One step of a recovery plan in position space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Step {
    /// Position of the task to restore.
    pub(crate) pos: u32,
    /// Recovered from a durable checkpoint (`r`), else re-executed (`w`).
    pub(crate) recover: bool,
}

impl TrialPlan {
    /// Flattens `(wf, schedule)` into the position-indexed arrays above and
    /// compiles its recovery rows.
    pub fn compile(wf: &Workflow, schedule: &Schedule) -> TrialPlan {
        COMPILES.fetch_add(1, Ordering::Relaxed);
        let n = wf.n_tasks();
        let order = schedule.order().to_vec();
        let mut positions = vec![0u32; n];
        for (i, v) in order.iter().enumerate() {
            positions[v.index()] = i as u32;
        }
        let at = |costs: &[f64]| -> Vec<f64> { order.iter().map(|v| costs[v.index()]).collect() };
        let work = at(wf.works());
        let ckpt_cost = at(wf.checkpoint_costs());
        let rec_cost = at(wf.recovery_costs());
        let checkpointed =
            FixedBitSet::from_indices(n, (0..n).filter(|&i| schedule.is_checkpointed(order[i])));
        let pick = |if_ckpt: &[f64], otherwise: &[f64]| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    if checkpointed.contains(i) {
                        if_ckpt[i]
                    } else {
                        otherwise[i]
                    }
                })
                .collect()
        };
        let block_ckpt = pick(&ckpt_cost, &vec![0.0; n]);
        let restore_cost = pick(&rec_cost, &work);
        let mut ckpt_before = Vec::with_capacity(n + 1);
        ckpt_before.push(0u32);
        for i in 0..n {
            ckpt_before.push(ckpt_before[i] + u32::from(checkpointed.contains(i)));
        }
        let dag = wf.dag();
        let mut pred_offsets = Vec::with_capacity(n + 1);
        let mut preds = Vec::with_capacity(dag.n_edges());
        pred_offsets.push(0u32);
        for &v in &order {
            let lo = preds.len();
            preds.extend(dag.preds(v).iter().map(|p| positions[p.index()]));
            preds[lo..].sort_unstable();
            pred_offsets.push(preds.len() as u32);
        }
        let mut plan = TrialPlan {
            n,
            order,
            work,
            ckpt_cost,
            rec_cost,
            block_ckpt,
            restore_cost,
            checkpointed,
            ckpt_before,
            pred_offsets,
            preds,
            row_offsets: Vec::with_capacity(n + 1),
            // Room for the row sizes of typical workflow shapes, so the
            // build rarely regrows (copies); trimmed once it is done.
            rows: Vec::with_capacity(8 * n),
            row_steps: Vec::with_capacity(32 * n),
        };
        plan.compile_rows();
        plan
    }

    /// Builds every row (see the module docs). Row `k` starts from the
    /// memory `{positions ≥ k}`. A block `j ≥ k` can need a restore only
    /// if it is the first successor at or after `k` of one of its
    /// predecessors `p < k`, i.e. `k ∈ (max(p, s), j]` with `s` the
    /// successor of `p` preceding `j` (or `p` itself). Those intervals all
    /// end at `j`, so block `j` is a *candidate* from its activation row
    /// `min over p of max(p, s) + 1` through row `j`, and only candidates
    /// are planned.
    fn compile_rows(&mut self) {
        let n = self.n;
        // Activation row of each block (`n` when it has no predecessor),
        // then the blocks bucketed by activation row (CSR).
        let mut activation = vec![n as u32; n];
        let mut last_succ: Vec<u32> = (0..n as u32).collect();
        for (j, act) in activation.iter_mut().enumerate() {
            for &p in self.preds(j) {
                let p = p as usize;
                *act = (*act).min(last_succ[p] + 1);
                last_succ[p] = j as u32;
            }
        }
        let mut arrive_offsets = vec![0u32; n + 2];
        for &a in &activation {
            arrive_offsets[a as usize + 1] += 1;
        }
        for k in 0..=n {
            arrive_offsets[k + 1] += arrive_offsets[k];
        }
        let mut arrivals = vec![0u32; n];
        let mut fill = arrive_offsets.clone();
        for (j, &a) in activation.iter().enumerate() {
            arrivals[fill[a as usize] as usize] = j as u32;
            fill[a as usize] += 1;
        }

        let mut rec = RecoveryScratch::new(n);
        // `restored[p] == k + 1`: row `k` restored position `p`.
        let mut restored = vec![0u32; n];
        let mut candidates = FixedBitSet::new(n);
        self.row_offsets.push(0);
        for k in 0..n {
            if k > 0 {
                candidates.remove(k - 1);
            }
            for &j in &arrivals[arrive_offsets[k] as usize..arrive_offsets[k + 1] as usize] {
                candidates.insert(j as usize);
            }
            let stamp = k as u32 + 1;
            for j in candidates.iter() {
                self.fill_recovery(&mut rec, &self.checkpointed, k, |p| restored[p] == stamp, j);
                if rec.steps.is_empty() {
                    continue;
                }
                let mut entry = RowEntry {
                    block: j as u32,
                    start: self.row_steps.len() as u32,
                    rework: 0.0,
                    recovery: 0.0,
                };
                // Summed in step order, like `plan::plan_amounts`.
                for &step in &rec.steps {
                    if step.recover {
                        entry.recovery += self.step_cost(step);
                    } else {
                        entry.rework += self.step_cost(step);
                    }
                    self.row_steps.push(step.pos);
                    restored[step.pos as usize] = stamp;
                }
                self.rows.push(entry);
            }
            self.row_offsets.push(self.rows.len() as u32);
        }
        self.rows.shrink_to_fit();
        self.row_steps.shrink_to_fit();
    }

    /// Task count.
    pub fn n_tasks(&self) -> usize {
        self.n
    }

    /// Heap bytes of the compiled recovery rows (offsets, entries, steps).
    pub fn row_bytes(&self) -> usize {
        self.row_offsets.len() * std::mem::size_of::<u32>()
            + self.rows.len() * std::mem::size_of::<RowEntry>()
            + self.row_steps.len() * std::mem::size_of::<u32>()
    }

    /// A cursor at the start of the row of a wipe at position `k < n`.
    #[inline]
    pub(crate) fn row(&self, k: usize) -> RowCursor {
        RowCursor {
            next: self.row_offsets[k] as usize,
            end: self.row_offsets[k + 1] as usize,
        }
    }

    /// The stored plan at index `e` (from [`RowCursor::take`]).
    #[inline]
    pub(crate) fn entry(&self, e: usize) -> &RowEntry {
        &self.rows[e]
    }

    /// The steps (positions) of the stored plan at index `e`, in schedule
    /// order.
    #[inline]
    pub(crate) fn entry_steps(&self, e: usize) -> &[u32] {
        let end = self
            .rows
            .get(e + 1)
            .map_or(self.row_steps.len(), |next| next.start as usize);
        &self.row_steps[self.rows[e].start as usize..end]
    }

    /// Predecessor positions of position `j`, ascending.
    #[inline]
    fn preds(&self, j: usize) -> &[u32] {
        &self.preds[self.pred_offsets[j] as usize..self.pred_offsets[j + 1] as usize]
    }

    /// Whether the block at position `j` reads an input from before
    /// position `wipe` (only then can its recovery plan be non-empty after
    /// a wipe at `wipe`).
    #[inline]
    pub(crate) fn reads_before(&self, j: usize, wipe: usize) -> bool {
        self.preds(j).first().is_some_and(|&p| (p as usize) < wipe)
    }

    /// Nominal duration of a recovery step: `r` when recovered, else `w`.
    #[inline]
    pub(crate) fn step_cost(&self, step: Step) -> f64 {
        if step.recover {
            self.rec_cost[step.pos as usize]
        } else {
            self.work[step.pos as usize]
        }
    }

    /// Fills `rec.steps` with the recovery plan for the block at position
    /// `target` given the memory — every position `≥ bound` plus the
    /// positions below it that are `resident` — and the
    /// durably-`recoverable` set (by position): the plan
    /// [`crate::plan::recovery_plan_with`] builds, in position space and
    /// without its four per-call allocations. The DFS `seen` marks are
    /// epoch-stamped (`O(1)` reset), predecessor scans stop at `bound`
    /// (lists are ascending), and positions are distinct, so an unstable
    /// sort gives schedule order.
    pub(crate) fn fill_recovery(
        &self,
        rec: &mut RecoveryScratch,
        recoverable: &FixedBitSet,
        bound: usize,
        resident: impl Fn(usize) -> bool,
        target: usize,
    ) {
        rec.epoch += 1;
        let epoch = rec.epoch;
        rec.needed.clear();
        rec.stack.clear();
        rec.stack.push(target as u32);
        while let Some(t) = rec.stack.pop() {
            for &p in self.preds(t as usize) {
                let pi = p as usize;
                if pi >= bound {
                    break;
                }
                if resident(pi) || rec.seen[pi] == epoch {
                    continue;
                }
                rec.seen[pi] = epoch;
                rec.needed.push(p);
                if !recoverable.contains(pi) {
                    // Re-executing p needs p's own inputs restored too.
                    rec.stack.push(p);
                }
            }
        }
        rec.needed.sort_unstable();
        rec.steps.clear();
        rec.steps.extend(rec.needed.iter().map(|&pos| Step {
            pos,
            recover: recoverable.contains(pos as usize),
        }));
    }
}

/// Reusable buffers for one recovery-plan computation: the epoch-marked
/// DFS state plus the step buffer that replaces the fresh `Vec<PlanStep>`
/// per fault. Every buffer is sized so steady-state fills never
/// reallocate (each task enters `stack`/`needed`/`steps` at most once).
#[derive(Debug, Clone)]
pub struct RecoveryScratch {
    /// `seen[p] == epoch` marks position p as visited in the current fill.
    seen: Vec<u64>,
    /// Current fill's epoch stamp.
    epoch: u64,
    /// DFS work stack.
    stack: Vec<u32>,
    /// Positions to restore, pre-sort.
    needed: Vec<u32>,
    /// The computed plan, in schedule order.
    pub(crate) steps: Vec<Step>,
}

impl RecoveryScratch {
    fn new(n: usize) -> Self {
        RecoveryScratch {
            seen: vec![0; n],
            epoch: 0,
            stack: Vec::with_capacity(n + 1),
            needed: Vec::with_capacity(n),
            steps: Vec::with_capacity(n),
        }
    }
}

/// The non-blocking engine's per-worker scratch arena: every mutable
/// buffer its trials need, created once per fold chunk by the executor's
/// chunk-scoped init and reused for all of the chunk's trials. (The
/// blocking engines read the compiled rows and need no scratch.)
#[derive(Debug, Clone)]
pub struct TrialScratch {
    /// Residency bitset (volatile memory), by position.
    pub(crate) memory: FixedBitSet,
    /// Recovery-plan buffers.
    pub(crate) recovery: RecoveryScratch,
    /// Checkpoints durably on stable storage, by position.
    pub(crate) durable: FixedBitSet,
    /// In-flight checkpoint writes (position, remaining).
    pub(crate) writes: VecDeque<(u32, f64)>,
}

impl TrialScratch {
    /// Scratch for an `n`-task plan.
    pub fn new(n: usize) -> Self {
        TrialScratch {
            memory: FixedBitSet::new(n),
            recovery: RecoveryScratch::new(n),
            durable: FixedBitSet::new(n),
            writes: VecDeque::with_capacity(n),
        }
    }
}

/// Aggregate of one planned trial: [`crate::SimResult`] minus the trace
/// machinery, `Copy` so chunk buffers hold it inline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannedResult {
    /// Total wall-clock time.
    pub makespan: f64,
    /// Number of faults that struck.
    pub n_faults: u64,
    /// Work units run to completion.
    pub time_work: f64,
    /// Re-executed non-checkpointed ancestors.
    pub time_rework: f64,
    /// Recovered checkpointed outputs.
    pub time_recovery: f64,
    /// Successful checkpoint writes.
    pub time_checkpoint: f64,
    /// Partial unit time lost to faults.
    pub time_wasted: f64,
    /// Total downtime.
    pub time_downtime: f64,
}

impl PlannedResult {
    /// The accounting identity: all buckets sum to the makespan.
    pub fn accounted_time(&self) -> f64 {
        self.time_work
            + self.time_rework
            + self.time_recovery
            + self.time_checkpoint
            + self.time_wasted
            + self.time_downtime
    }
}

/// The zero-allocation twin of [`crate::engine::simulate`]: same blocking
/// execution model, same floating-point operations in the same order —
/// bit-identical results — but reading the compiled `plan`'s recovery
/// rows instead of tracking memory and traversing the graph, and carrying
/// no trace machinery at all.
pub fn simulate_planned(
    plan: &TrialPlan,
    injector: &mut dyn FaultInjector,
    downtime: f64,
) -> PlannedResult {
    let mut t = 0.0f64;
    let mut next_fault = injector.next_fault_after(0.0);
    let mut res = PlannedResult::default();

    // Executes one unit; returns false when a fault struck (downtime paid,
    // next fault rescheduled).
    let mut run_unit =
        |t: &mut f64, next_fault: &mut f64, res: &mut PlannedResult, duration: f64| -> bool {
            if *next_fault >= *t + duration {
                *t += duration;
                true
            } else {
                res.time_wasted += *next_fault - *t;
                *t = *next_fault;
                res.n_faults += 1;
                *t += downtime;
                res.time_downtime += downtime;
                *next_fault = injector.next_fault_after(*t);
                false
            }
        };

    let mut row = RowCursor::default();
    for idx in 0..plan.n {
        let w = plan.work[idx];
        let c = plan.block_ckpt[idx];
        // The X_i block: retry until the plan, the work, and the optional
        // checkpoint all complete without a fault interrupting.
        loop {
            let completed = 'attempt: {
                if let Some(e) = row.take(plan, idx) {
                    for &p in plan.entry_steps(e) {
                        let d = plan.restore_cost[p as usize];
                        if !run_unit(&mut t, &mut next_fault, &mut res, d) {
                            break 'attempt false;
                        }
                        if plan.checkpointed.contains(p as usize) {
                            res.time_recovery += d;
                        } else {
                            res.time_rework += d;
                        }
                    }
                }
                if !run_unit(&mut t, &mut next_fault, &mut res, w) {
                    break 'attempt false;
                }
                res.time_work += w;
                if c > 0.0 {
                    if !run_unit(&mut t, &mut next_fault, &mut res, c) {
                        break 'attempt false;
                    }
                    res.time_checkpoint += c;
                }
                true
            };
            if completed {
                break;
            }
            // The fault wiped memory during this block.
            row = plan.row(idx);
        }
    }

    res.makespan = t;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use crate::events::UnitKind;
    use crate::memory::MemoryState;
    use crate::nonblocking::{simulate_nonblocking_planned, NonBlockingConfig};
    use crate::plan::{plan_amounts, recovery_plan, PlanStep};
    use dagchkpt_core::CostRule;
    use dagchkpt_dag::{generators, topo};
    use dagchkpt_failure::{ExponentialInjector, NoFaults, TraceInjector};

    /// Differential harness: the planned engine is bit-identical to the
    /// reference engine for every fixture under seeded exponential faults.
    #[test]
    fn planned_engine_is_bit_identical_to_reference() {
        for (wf, s) in fixture_cases() {
            let plan = TrialPlan::compile(&wf, &s);
            for seed in 0..64u64 {
                let mut inj_ref = ExponentialInjector::new(8e-3, seed);
                let reference = simulate(
                    &wf,
                    &s,
                    &mut inj_ref,
                    SimConfig {
                        downtime: 1.5,
                        record_trace: false,
                    },
                );
                let mut inj_fast = ExponentialInjector::new(8e-3, seed);
                let fast = simulate_planned(&plan, &mut inj_fast, 1.5);
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
    }

    fn fixture_cases() -> Vec<(Workflow, Schedule)> {
        let mut out = Vec::new();
        for (dag, every) in [
            (generators::paper_figure1(), 2usize),
            (generators::chain(17), 3),
            (generators::grid(4, 5), 1),
            (generators::fork_join(6), 4),
        ] {
            let n = dag.n_nodes();
            let works: Vec<f64> = (0..n).map(|i| 5.0 + (i as f64 * 1.7) % 11.0).collect();
            let wf =
                Workflow::with_cost_rule(dag, works, CostRule::ProportionalToWork { ratio: 0.1 });
            let order = topo::topological_order(wf.dag());
            let ckpt =
                dagchkpt_dag::FixedBitSet::from_indices(n, (0..n).filter(|i| i % every == 0));
            let s = Schedule::new(&wf, order, ckpt).unwrap();
            out.push((wf, s));
        }
        out
    }

    /// The paper's Figure-1 walkthrough (fault at t = 55 during T5) lands
    /// on the same makespan 107 as the reference engine's pinned test.
    #[test]
    fn paper_figure1_walkthrough_on_the_fast_path() {
        let costs: Vec<dagchkpt_core::TaskCosts> = (0..8)
            .map(|i| {
                if i == 3 || i == 4 {
                    dagchkpt_core::TaskCosts::new(10.0, 1.0, 1.0)
                } else {
                    dagchkpt_core::TaskCosts::new(10.0, 0.0, 0.0)
                }
            })
            .collect();
        let wf = Workflow::new(generators::paper_figure1(), costs);
        let order: Vec<NodeId> = [0u32, 3, 1, 2, 4, 5, 6, 7]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        let mut ckpt = FixedBitSet::new(8);
        ckpt.insert(3);
        ckpt.insert(4);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let plan = TrialPlan::compile(&wf, &s);
        let mut inj = TraceInjector::new(vec![55.0]);
        let r = simulate_planned(&plan, &mut inj, 0.0);
        assert!(
            (r.makespan - 107.0).abs() < 1e-12,
            "makespan {}",
            r.makespan
        );
        assert_eq!(r.n_faults, 1);
        assert!((r.time_recovery - 2.0).abs() < 1e-12);
        assert!((r.time_rework - 20.0).abs() < 1e-12);
        assert!((r.accounted_time() - r.makespan).abs() < 1e-9);
    }

    /// `fill_recovery` reproduces `recovery_plan` exactly — steps, kinds,
    /// durations, order — for every (memory, target) combination of the
    /// fixtures, and a scratch reused across fills stays exact.
    #[test]
    fn fill_recovery_matches_recovery_plan() {
        for (wf, s) in fixture_cases() {
            let plan = TrialPlan::compile(&wf, &s);
            let n = plan.n_tasks();
            let positions = s.positions();
            let mut scratch = TrialScratch::new(n);
            for target in 0..n {
                for mem_pattern in 0..4u64 {
                    let mut mem = MemoryState::new(n);
                    let mut mem_bits = FixedBitSet::new(n);
                    for (v, &pos) in positions.iter().enumerate() {
                        if v != target && (v as u64 + mem_pattern).is_multiple_of(3) {
                            mem.store(NodeId(v as u32));
                            mem_bits.insert(pos);
                        }
                    }
                    let reference = recovery_plan(&wf, &s, &mem, NodeId(target as u32));
                    plan.fill_recovery(
                        &mut scratch.recovery,
                        &plan.checkpointed,
                        n,
                        |p| mem_bits.contains(p),
                        positions[target],
                    );
                    assert_eq!(
                        reference,
                        plan_steps(&plan, &scratch.recovery.steps),
                        "target {target}"
                    );
                }
            }
        }
    }

    /// `steps` as the reference engine's task-space plan.
    fn plan_steps(plan: &TrialPlan, steps: &[Step]) -> Vec<PlanStep> {
        steps
            .iter()
            .map(|&step| PlanStep {
                task: plan.order[step.pos as usize],
                kind: if step.recover {
                    UnitKind::Recovery
                } else {
                    UnitKind::Rework
                },
                duration: plan.step_cost(step),
            })
            .collect()
    }

    /// Neither the shared plan nor a reused scratch leaks state between
    /// trials: interleaving blocking and non-blocking trials through one
    /// scratch matches fresh-scratch runs bit for bit.
    #[test]
    fn scratch_reuse_across_trials_is_stateless() {
        let (wf, s) = fixture_cases().remove(2);
        let plan = TrialPlan::compile(&wf, &s);
        let mut shared = TrialScratch::new(plan.n_tasks());
        let cfg = NonBlockingConfig {
            downtime: 2.0,
            compute_rate: 0.6,
            record_trace: false,
        };
        for seed in [3u64, 99, 4096] {
            let mut inj = ExponentialInjector::new(2e-2, seed);
            let first = simulate_planned(&plan, &mut inj, 2.0);
            let mut inj = ExponentialInjector::new(2e-2, seed);
            let reused = simulate_nonblocking_planned(&plan, &mut shared, &mut inj, cfg);
            let mut fresh_scratch = TrialScratch::new(plan.n_tasks());
            let mut inj = ExponentialInjector::new(2e-2, seed);
            let fresh = simulate_nonblocking_planned(&plan, &mut fresh_scratch, &mut inj, cfg);
            assert_eq!(reused.makespan.to_bits(), fresh.makespan.to_bits());
            assert_eq!(reused.n_faults, fresh.n_faults);
            let mut inj = ExponentialInjector::new(2e-2, seed);
            let again = simulate_planned(&plan, &mut inj, 2.0);
            assert_eq!(first.makespan.to_bits(), again.makespan.to_bits());
        }
    }

    /// Fault-free run: pure work plus checkpoints, no recovery machinery.
    #[test]
    fn fault_free_planned_run_matches_totals() {
        let wf = Workflow::uniform(generators::fork_join(4), 10.0, 1.0);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        let plan = TrialPlan::compile(&wf, &s);
        let mut inj = NoFaults;
        let r = simulate_planned(&plan, &mut inj, 0.0);
        assert!((r.makespan - 66.0).abs() < 1e-9); // 6·10 + 6·1
        assert_eq!(r.n_faults, 0);
        assert_eq!(r.time_rework, 0.0);
        assert_eq!(r.time_recovery, 0.0);
    }

    /// Every stored row entry is exactly `fill_recovery` on the memory its
    /// row implies — a literal wipe at `k`, then blocks `k..n`, each adding
    /// its plan's tasks and its own output — with the sums `plan_amounts`
    /// gives, and a block whose plan is empty has no entry.
    #[test]
    fn rows_equal_fill_recovery_on_the_memory_they_imply() {
        let mut cases = fixture_cases();
        cases.extend((0..32).map(crate::differential_tests::random_case));
        for (ci, (wf, s)) in cases.into_iter().enumerate() {
            let plan = TrialPlan::compile(&wf, &s);
            let n = plan.n_tasks();
            let mut rec = RecoveryScratch::new(n);
            let mut stored = 0;
            for k in 0..n {
                let mut memory = FixedBitSet::new(n);
                let mut mem_state = MemoryState::new(n);
                let mut row = plan.row(k);
                for j in k..n {
                    let task = plan.order[j];
                    plan.fill_recovery(&mut rec, &plan.checkpointed, n, |p| memory.contains(p), j);
                    let reference = recovery_plan(&wf, &s, &mem_state, task);
                    assert_eq!(reference, plan_steps(&plan, &rec.steps));
                    match row.take(&plan, j) {
                        Some(e) => {
                            let positions: Vec<u32> = rec.steps.iter().map(|st| st.pos).collect();
                            assert_eq!(
                                plan.entry_steps(e),
                                positions,
                                "case {ci}, row {k}, block {j}"
                            );
                            let (rework, recovery) = plan_amounts(&reference);
                            assert_eq!(plan.entry(e).rework.to_bits(), rework.to_bits());
                            assert_eq!(plan.entry(e).recovery.to_bits(), recovery.to_bits());
                            for step in &rec.steps {
                                let p = step.pos as usize;
                                assert_eq!(step.recover, plan.checkpointed.contains(p));
                                assert_eq!(
                                    plan.step_cost(*step).to_bits(),
                                    plan.restore_cost[p].to_bits()
                                );
                            }
                            stored += 1;
                        }
                        None => assert!(
                            rec.steps.is_empty(),
                            "case {ci}, row {k}, block {j}: plan not stored"
                        ),
                    }
                    for step in &reference {
                        mem_state.store(step.task);
                    }
                    mem_state.store(task);
                    for step in &rec.steps {
                        memory.insert(step.pos as usize);
                    }
                    memory.insert(j);
                }
                assert_eq!(row.next, row.end, "case {ci}, row {k}: entries left over");
            }
            assert_eq!(stored, plan.rows.len(), "case {ci}");
        }
    }

    /// The compile counter moves exactly once per `compile` call.
    #[test]
    fn compile_counter_counts_compiles() {
        let (wf, s) = fixture_cases().remove(0);
        let before = plan_compile_count();
        let _p1 = TrialPlan::compile(&wf, &s);
        let _p2 = TrialPlan::compile(&wf, &s);
        assert_eq!(plan_compile_count() - before, 2);
    }
}
