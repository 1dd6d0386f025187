//! Non-blocking checkpointing — the paper's Section-7 "future direction",
//! implemented operationally in the simulator.
//!
//! # Model
//!
//! When a checkpointed task finishes its work, the write of its checkpoint
//! (duration `c_i` of wall-clock time) proceeds **concurrently** with
//! subsequent computation; while at least one write is in flight,
//! computation progresses at rate `compute_rate` `∈ (0, 1]` (the
//! interference factor). Writes serialize in FIFO order. A checkpoint
//! becomes *durable* — usable for recovery — only when its write
//! completes:
//!
//! * a fault wipes memory **and** kills every in-flight/queued write
//!   (already-durable checkpoints survive);
//! * recovery plans may only recover durable checkpoints; a task whose
//!   write was lost is re-executed like a non-checkpointed one, and its
//!   write is re-enqueued after the re-execution;
//! * the makespan is the completion of the last task's work; writes still
//!   pending then are discarded (they can no longer help anyone).
//!
//! Accounting keeps the blocking engine's identity
//! `makespan = work + rework + recovery + checkpoint + wasted + downtime`
//! by attributing the *interference stretch* of overlapped computation
//! (wall time beyond the unit's nominal duration) to the `checkpoint`
//! bucket; the hidden portion of write time costs nothing.
//!
//! With `compute_rate = 1` and rare faults this strictly hides checkpoint
//! costs; the `nonblocking` experiment binary quantifies the trade-off
//! space against the blocking engine (interference vs. the delayed
//! durability window that faults can exploit).

use crate::engine::SimResult;
use crate::events::{Event, UnitKind};
use crate::memory::MemoryState;
use crate::montecarlo::{planned_metric_tail_stats, TrialSpec};
use crate::plan::recovery_plan_with;
use crate::quantile::QuantileSketch;
use crate::stats::Stats;
use crate::trialplan::{PlannedResult, RowCursor, TrialPlan, TrialScratch};
use dagchkpt_core::{Schedule, Workflow};
use dagchkpt_dag::{FixedBitSet, NodeId};
use dagchkpt_failure::FaultInjector;
use std::collections::VecDeque;

/// Configuration of the non-blocking engine.
#[derive(Debug, Clone, Copy)]
pub struct NonBlockingConfig {
    /// Downtime `D` after each fault.
    pub downtime: f64,
    /// Computation speed while a write is in flight (`0 < rate ≤ 1`;
    /// `1` = interference-free overlap).
    pub compute_rate: f64,
    /// Record the event trace.
    pub record_trace: bool,
}

impl Default for NonBlockingConfig {
    fn default() -> Self {
        NonBlockingConfig {
            downtime: 0.0,
            compute_rate: 1.0,
            record_trace: false,
        }
    }
}

struct State<'a> {
    t: f64,
    next_fault: f64,
    memory: MemoryState,
    durable: FixedBitSet,
    writes: VecDeque<(NodeId, f64)>,
    res: SimResult,
    injector: &'a mut dyn FaultInjector,
    cfg: NonBlockingConfig,
}

impl State<'_> {
    /// Handles a fault at `self.next_fault`: wastes the partial wall time
    /// since `start`, wipes memory and in-flight writes, pays downtime.
    fn fault(&mut self, start: f64) {
        self.res.time_wasted += self.next_fault - start;
        self.t = self.next_fault;
        self.res.n_faults += 1;
        self.memory.wipe();
        self.writes.clear();
        if let Some(tr) = self.res.trace.as_mut() {
            tr.push(Event::Fault {
                at: self.t,
                downtime: self.cfg.downtime,
            });
        }
        self.t += self.cfg.downtime;
        self.res.time_downtime += self.cfg.downtime;
        self.next_fault = self.injector.next_fault_after(self.t);
    }

    /// Runs `d` seconds of computation, draining writes concurrently.
    /// Returns `false` on fault. On success, nominal duration `d` is
    /// charged to `kind`'s bucket and the stretch to the checkpoint bucket.
    fn run_compute(&mut self, d: f64, kind: UnitKind) -> bool {
        let start = self.t;
        let mut left = d;
        while left > 0.0 {
            let rate = if self.writes.is_empty() {
                1.0
            } else {
                self.cfg.compute_rate
            };
            // Wall time until the compute unit finishes at this rate, or
            // the front write completes, whichever first.
            let to_unit = left / rate;
            let step = match self.writes.front() {
                Some(&(_, w_rem)) if w_rem < to_unit => w_rem,
                _ => to_unit,
            };
            if self.next_fault < self.t + step {
                self.fault(start);
                return false;
            }
            self.t += step;
            left -= step * rate;
            self.drain_writes(step);
        }
        let wall = self.t - start;
        self.charge(kind, d);
        self.res.time_checkpoint += wall - d; // interference stretch
        true
    }

    /// Advances every front-of-queue write by elapsed wall time `step`,
    /// marking completions durable. (Writes serialize: only the front
    /// write progresses.) Writes with no remaining duration complete even
    /// when `step == 0` — otherwise a zero-cost checkpoint would yield a
    /// zero-length compute step that never drains it (an infinite loop the
    /// scenario differential tests caught).
    fn drain_writes(&mut self, step: f64) {
        let mut left = step;
        while let Some(front) = self.writes.front_mut() {
            if front.1 > left {
                front.1 -= left;
                break;
            }
            left -= front.1;
            let (task, _) = self.writes.pop_front().expect("front exists");
            self.durable.insert(task.index());
            if let Some(tr) = self.res.trace.as_mut() {
                tr.push(Event::UnitCompleted {
                    task,
                    kind: UnitKind::Checkpoint,
                    at: self.t - left,
                });
            }
        }
    }

    fn charge(&mut self, kind: UnitKind, d: f64) {
        match kind {
            UnitKind::Work => self.res.time_work += d,
            UnitKind::Rework => self.res.time_rework += d,
            UnitKind::Recovery => self.res.time_recovery += d,
            UnitKind::Checkpoint => self.res.time_checkpoint += d,
        }
    }
}

/// Simulates `schedule` once with non-blocking checkpoint writes.
pub fn simulate_nonblocking(
    wf: &Workflow,
    schedule: &Schedule,
    injector: &mut dyn FaultInjector,
    cfg: NonBlockingConfig,
) -> SimResult {
    assert!(
        cfg.compute_rate > 0.0 && cfg.compute_rate <= 1.0,
        "compute_rate must be in (0, 1]"
    );
    let n = wf.n_tasks();
    let positions = schedule.positions();
    let next_fault = injector.next_fault_after(0.0);
    let mut st = State {
        t: 0.0,
        next_fault,
        memory: MemoryState::new(n),
        durable: FixedBitSet::new(n),
        writes: VecDeque::new(),
        res: SimResult {
            makespan: 0.0,
            n_faults: 0,
            time_work: 0.0,
            time_rework: 0.0,
            time_recovery: 0.0,
            time_checkpoint: 0.0,
            time_wasted: 0.0,
            time_downtime: 0.0,
            trace: cfg.record_trace.then(Vec::new),
        },
        injector,
        cfg,
    };

    for &task in schedule.order() {
        let w = wf.work(task);
        'block: loop {
            let plan = recovery_plan_with(wf, &positions, &st.durable, &st.memory, task);
            for step in &plan {
                if !st.run_compute(step.duration, step.kind) {
                    continue 'block;
                }
                st.memory.store(step.task);
                if let Some(tr) = st.res.trace.as_mut() {
                    tr.push(Event::UnitCompleted {
                        task: step.task,
                        kind: step.kind,
                        at: st.t,
                    });
                }
                // A re-executed task that the schedule wants checkpointed
                // lost its write in some earlier fault: re-enqueue it.
                if step.kind == UnitKind::Rework
                    && schedule.is_checkpointed(step.task)
                    && !st.durable.contains(step.task.index())
                {
                    st.writes
                        .push_back((step.task, wf.checkpoint_cost(step.task)));
                }
            }
            if !st.run_compute(w, UnitKind::Work) {
                continue 'block;
            }
            st.memory.store(task);
            if let Some(tr) = st.res.trace.as_mut() {
                tr.push(Event::UnitCompleted {
                    task,
                    kind: UnitKind::Work,
                    at: st.t,
                });
                tr.push(Event::TaskDone { task, at: st.t });
            }
            if schedule.is_checkpointed(task) {
                st.writes.push_back((task, wf.checkpoint_cost(task)));
            }
            break 'block;
        }
    }

    // Pending writes are discarded: the application is complete.
    st.res.makespan = st.t;
    st.res
}

/// Allocation-free twin of [`State`]: the bit sets, write queue and result
/// live in a caller-owned [`TrialScratch`], borrowed for one trial.
struct PlannedNbState<'a> {
    t: f64,
    next_fault: f64,
    memory: &'a mut FixedBitSet,
    durable: &'a mut FixedBitSet,
    /// `durable.count()`, kept up to date.
    n_durable: u32,
    writes: &'a mut VecDeque<(u32, f64)>,
    res: PlannedResult,
    injector: &'a mut dyn FaultInjector,
    downtime: f64,
    compute_rate: f64,
}

impl PlannedNbState<'_> {
    fn fault(&mut self, start: f64) {
        self.res.time_wasted += self.next_fault - start;
        self.t = self.next_fault;
        self.res.n_faults += 1;
        self.memory.clear();
        self.writes.clear();
        self.t += self.downtime;
        self.res.time_downtime += self.downtime;
        self.next_fault = self.injector.next_fault_after(self.t);
    }

    fn run_compute(&mut self, d: f64, kind: UnitKind) -> bool {
        let start = self.t;
        let mut left = d;
        while left > 0.0 {
            let rate = if self.writes.is_empty() {
                1.0
            } else {
                self.compute_rate
            };
            let to_unit = left / rate;
            let step = match self.writes.front() {
                Some(&(_, w_rem)) if w_rem < to_unit => w_rem,
                _ => to_unit,
            };
            if self.next_fault < self.t + step {
                self.fault(start);
                return false;
            }
            self.t += step;
            left -= step * rate;
            self.drain_writes(step);
        }
        let wall = self.t - start;
        self.charge(kind, d);
        self.res.time_checkpoint += wall - d; // interference stretch
        true
    }

    fn drain_writes(&mut self, step: f64) {
        let mut left = step;
        while let Some(front) = self.writes.front_mut() {
            if front.1 > left {
                front.1 -= left;
                break;
            }
            left -= front.1;
            let (pos, _) = self.writes.pop_front().expect("front exists");
            if self.durable.insert(pos as usize) {
                self.n_durable += 1;
            }
        }
    }

    fn charge(&mut self, kind: UnitKind, d: f64) {
        match kind {
            UnitKind::Work => self.res.time_work += d,
            UnitKind::Rework => self.res.time_rework += d,
            UnitKind::Recovery => self.res.time_recovery += d,
            UnitKind::Checkpoint => self.res.time_checkpoint += d,
        }
    }
}

/// Simulates one non-blocking trial on a compiled [`TrialPlan`], reusing
/// `scratch` so the steady state performs no heap allocations. Bit-identical
/// to [`simulate_nonblocking`] without a trace (pinned by a differential
/// test below).
///
/// After a wipe at which every checkpointed task before the wipe position
/// is durable, the blocking engine's compiled recovery row is exact and
/// the engine reads it (see [`crate::trialplan`]); after any other wipe it
/// tracks memory and runs the DFS for each block with an input from
/// before the wipe.
pub fn simulate_nonblocking_planned(
    plan: &TrialPlan,
    scratch: &mut TrialScratch,
    injector: &mut dyn FaultInjector,
    cfg: NonBlockingConfig,
) -> PlannedResult {
    assert!(
        cfg.compute_rate > 0.0 && cfg.compute_rate <= 1.0,
        "compute_rate must be in (0, 1]"
    );
    let TrialScratch {
        memory,
        recovery,
        durable,
        writes,
    } = scratch;
    memory.clear();
    durable.clear();
    writes.clear();
    let next_fault = injector.next_fault_after(0.0);
    let mut st = PlannedNbState {
        t: 0.0,
        next_fault,
        memory,
        durable,
        n_durable: 0,
        writes,
        res: PlannedResult::default(),
        injector,
        downtime: cfg.downtime,
        compute_rate: cfg.compute_rate,
    };

    // Position of the block the last wipe struck (0 before the first
    // fault: every input is resident), whether its blocking row is exact,
    // and the cursor into that row. Restored tasks enter memory only while
    // the row is not exact (the row accounts for them otherwise); every
    // wipe clears memory, and only a wipe switches modes.
    let mut wipe = 0usize;
    let mut row_exact = true;
    let mut row = RowCursor::default();
    for idx in 0..plan.n_tasks() {
        let w = plan.work[idx];
        loop {
            let completed = 'attempt: {
                if row_exact {
                    if let Some(e) = row.take(plan, idx) {
                        for &p in plan.entry_steps(e) {
                            let kind = if plan.checkpointed.contains(p as usize) {
                                UnitKind::Recovery
                            } else {
                                UnitKind::Rework
                            };
                            if !st.run_compute(plan.restore_cost[p as usize], kind) {
                                break 'attempt false;
                            }
                        }
                    }
                } else if plan.reads_before(idx, wipe) {
                    // Memory holds every position from the wipe on.
                    plan.fill_recovery(recovery, st.durable, wipe, |p| st.memory.contains(p), idx);
                    for si in 0..recovery.steps.len() {
                        let step = recovery.steps[si];
                        let kind = if step.recover {
                            UnitKind::Recovery
                        } else {
                            UnitKind::Rework
                        };
                        if !st.run_compute(plan.step_cost(step), kind) {
                            break 'attempt false;
                        }
                        let p = step.pos as usize;
                        st.memory.insert(p);
                        // A re-executed task that the schedule wants
                        // checkpointed lost its write in some earlier
                        // fault: re-enqueue it.
                        if !step.recover && plan.checkpointed.contains(p) && !st.durable.contains(p)
                        {
                            st.writes.push_back((step.pos, plan.ckpt_cost[p]));
                        }
                    }
                }
                if !st.run_compute(w, UnitKind::Work) {
                    break 'attempt false;
                }
                st.memory.insert(idx);
                if plan.checkpointed.contains(idx) {
                    st.writes.push_back((idx as u32, plan.ckpt_cost[idx]));
                }
                true
            };
            if completed {
                break;
            }
            wipe = idx;
            row_exact = st.n_durable == plan.ckpt_before[idx];
            row = plan.row(idx);
        }
    }

    st.res.makespan = st.t;
    st.res
}

/// Monte-Carlo campaign over the non-blocking engine on the zero-allocation
/// fast path: one compiled plan shared by every worker, one scratch arena
/// per fold chunk. Returns makespan statistics and a tail sketch, bit-for-bit
/// what the reference engine produces under any `RAYON_NUM_THREADS`.
pub fn run_nonblocking_trials_with<I, F>(
    wf: &Workflow,
    schedule: &Schedule,
    cfg: NonBlockingConfig,
    spec: TrialSpec,
    make_injector: F,
) -> (Stats, QuantileSketch)
where
    I: FaultInjector,
    F: Fn(u64) -> I + Sync,
{
    let plan = TrialPlan::compile(wf, schedule);
    planned_metric_tail_stats(
        spec,
        || TrialScratch::new(plan.n_tasks()),
        |scratch, i| {
            let mut inj = make_injector(spec.trial_seed(i));
            simulate_nonblocking_planned(&plan, scratch, &mut inj, cfg).makespan
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use dagchkpt_core::TaskCosts;
    use dagchkpt_dag::{generators, topo};
    use dagchkpt_failure::{ExponentialInjector, NoFaults, TraceInjector};

    fn two_chain(c0: f64) -> (Workflow, Schedule) {
        let costs = vec![
            TaskCosts::new(10.0, c0, 2.0),
            TaskCosts::new(10.0, 0.0, 0.0),
        ];
        let wf = Workflow::new(generators::chain(2), costs);
        let mut ckpt = FixedBitSet::new(2);
        ckpt.insert(0);
        let s = Schedule::new(&wf, topo::topological_order(wf.dag()), ckpt).unwrap();
        (wf, s)
    }

    #[test]
    fn fault_free_full_overlap_hides_checkpoints() {
        let (wf, s) = two_chain(4.0);
        let mut inj = NoFaults;
        let r = simulate_nonblocking(&wf, &s, &mut inj, NonBlockingConfig::default());
        assert_eq!(r.makespan, 20.0); // c fully hidden
        assert_eq!(r.time_checkpoint, 0.0); // no interference at rate 1
        let mut inj = NoFaults;
        let blocking = simulate(&wf, &s, &mut inj, SimConfig::default());
        assert_eq!(blocking.makespan, 24.0);
    }

    #[test]
    fn interference_stretches_overlapped_compute() {
        // T1 runs at rate 0.5 while T0's 4-second write drains: 4 s wall
        // yield 2 s of work, then 8 s at full speed: 10 + 4 + 8 = 22.
        let (wf, s) = two_chain(4.0);
        let mut inj = NoFaults;
        let cfg = NonBlockingConfig {
            compute_rate: 0.5,
            ..Default::default()
        };
        let r = simulate_nonblocking(&wf, &s, &mut inj, cfg);
        assert!((r.makespan - 22.0).abs() < 1e-12, "makespan {}", r.makespan);
        // Nominal buckets: 20 work + 2 interference.
        assert!((r.time_work - 20.0).abs() < 1e-12);
        assert!((r.time_checkpoint - 2.0).abs() < 1e-12);
        assert!((r.accounted_time() - r.makespan).abs() < 1e-9);
    }

    #[test]
    fn fault_kills_inflight_write_and_reenqueues_after_rework() {
        // Write of T0 (5 s) starts at t = 10; fault at t = 12 while T1 runs.
        // T0 is NOT durable ⇒ re-execute T0 (10 s), re-enqueue its write,
        // then T1 (10 s) overlapping the write at rate 1: done at 32.
        let costs = vec![
            TaskCosts::new(10.0, 5.0, 2.0),
            TaskCosts::new(10.0, 0.0, 0.0),
        ];
        let wf = Workflow::new(generators::chain(2), costs);
        let mut ckpt = FixedBitSet::new(2);
        ckpt.insert(0);
        let s = Schedule::new(&wf, topo::topological_order(wf.dag()), ckpt).unwrap();
        let mut inj = TraceInjector::new(vec![12.0]);
        let r = simulate_nonblocking(&wf, &s, &mut inj, NonBlockingConfig::default());
        assert!((r.makespan - 32.0).abs() < 1e-12, "makespan {}", r.makespan);
        assert!((r.time_rework - 10.0).abs() < 1e-12);
        assert_eq!(r.time_recovery, 0.0);
        assert!((r.time_wasted - 2.0).abs() < 1e-12);
        assert!((r.accounted_time() - r.makespan).abs() < 1e-9);
    }

    #[test]
    fn durable_checkpoint_is_recovered_not_reexecuted() {
        // Same chain, write done by t = 15; fault at t = 16 during T1:
        // recover T0 (2 s) + T1 (10 s) ⇒ 16 + 12 = 28.
        let costs = vec![
            TaskCosts::new(10.0, 5.0, 2.0),
            TaskCosts::new(10.0, 0.0, 0.0),
        ];
        let wf = Workflow::new(generators::chain(2), costs);
        let mut ckpt = FixedBitSet::new(2);
        ckpt.insert(0);
        let s = Schedule::new(&wf, topo::topological_order(wf.dag()), ckpt).unwrap();
        let mut inj = TraceInjector::new(vec![16.0]);
        let r = simulate_nonblocking(&wf, &s, &mut inj, NonBlockingConfig::default());
        assert!((r.makespan - 28.0).abs() < 1e-12, "makespan {}", r.makespan);
        assert!((r.time_recovery - 2.0).abs() < 1e-12);
        assert_eq!(r.time_rework, 0.0);
    }

    #[test]
    fn trailing_writes_do_not_gate_completion() {
        // Single checkpointed task: the write never finishes before the
        // makespan is declared.
        let costs = vec![TaskCosts::new(10.0, 100.0, 1.0)];
        let wf = Workflow::new(generators::chain(1), costs);
        let s = Schedule::always(&wf, vec![NodeId(0)]).unwrap();
        let mut inj = NoFaults;
        let r = simulate_nonblocking(&wf, &s, &mut inj, NonBlockingConfig::default());
        assert_eq!(r.makespan, 10.0);
    }

    #[test]
    fn rate_one_rare_faults_beats_blocking_on_average() {
        // Heavily checkpointed workflow, gentle fault rate: hiding c off
        // the critical path must win on average.
        let wf = Workflow::uniform(generators::chain(12), 30.0, 6.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let lambda = 1e-3;
        let trials = 4000;
        let (mut nb_sum, mut b_sum) = (0.0, 0.0);
        for i in 0..trials {
            let mut inj = ExponentialInjector::new(lambda, 1000 + i);
            nb_sum +=
                simulate_nonblocking(&wf, &s, &mut inj, NonBlockingConfig::default()).makespan;
            let mut inj = ExponentialInjector::new(lambda, 1000 + i);
            b_sum += simulate(&wf, &s, &mut inj, SimConfig::default()).makespan;
        }
        let (nb, bl) = (nb_sum / trials as f64, b_sum / trials as f64);
        assert!(nb < bl, "non-blocking {nb} should beat blocking {bl}");
    }

    /// Regression: a zero-cost checkpoint write used to spin forever (the
    /// zero-length compute step never drained it). It must complete
    /// instantly and behave exactly like the blocking engine.
    #[test]
    fn zero_cost_writes_terminate_and_match_blocking() {
        let wf = Workflow::uniform(generators::chain(4), 10.0, 0.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        for faults in [vec![], vec![15.0], vec![15.0, 26.0]] {
            let mut inj = TraceInjector::new(faults.clone());
            let cfg = NonBlockingConfig {
                compute_rate: 0.5,
                downtime: 1.0,
                ..Default::default()
            };
            let nb = simulate_nonblocking(&wf, &s, &mut inj, cfg);
            let mut inj = TraceInjector::new(faults);
            let bl = simulate(
                &wf,
                &s,
                &mut inj,
                SimConfig {
                    downtime: 1.0,
                    record_trace: false,
                },
            );
            assert_eq!(nb.makespan, bl.makespan);
            assert_eq!(nb.n_faults, bl.n_faults);
            // Instantly durable: faults recover (r = 0) instead of
            // re-executing.
            assert_eq!(nb.time_rework, bl.time_rework);
        }
    }

    /// The zero-allocation fast path is bit-identical to the reference
    /// engine: every bucket of every trial, across fixtures, fault rates,
    /// interference factors, and a scratch arena reused between trials.
    #[test]
    fn planned_nonblocking_engine_is_bit_identical_to_reference() {
        let fixtures: Vec<(Workflow, usize)> = vec![
            (Workflow::uniform(generators::chain(17), 9.0, 1.3), 3),
            (Workflow::uniform(generators::grid(4, 5), 7.0, 0.9), 2),
            (Workflow::uniform(generators::fork_join(6), 11.0, 2.1), 1),
        ];
        for (wf, every) in fixtures {
            let n = wf.n_tasks();
            let order = topo::topological_order(wf.dag());
            let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|i| i % every == 0));
            let s = Schedule::new(&wf, order, ckpt).unwrap();
            let plan = TrialPlan::compile(&wf, &s);
            let mut scratch = TrialScratch::new(plan.n_tasks());
            for seed in 0..48u64 {
                let cfg = NonBlockingConfig {
                    downtime: 1.5,
                    compute_rate: if seed % 2 == 0 { 1.0 } else { 0.6 },
                    record_trace: false,
                };
                let mut inj = ExponentialInjector::new(8e-3, seed);
                let reference = simulate_nonblocking(&wf, &s, &mut inj, cfg);
                let mut inj = ExponentialInjector::new(8e-3, seed);
                let fast = simulate_nonblocking_planned(&plan, &mut scratch, &mut inj, cfg);
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

    /// The fast-path campaign runner reproduces the generic metric runner
    /// bit-for-bit (same seeds, same chunking, same sketch).
    #[test]
    fn run_nonblocking_trials_matches_generic_metric_runner_bitwise() {
        let wf = Workflow::uniform(generators::chain(9), 10.0, 1.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let cfg = NonBlockingConfig {
            downtime: 2.0,
            compute_rate: 0.7,
            record_trace: false,
        };
        let spec = TrialSpec::new(500, 7);
        let (fast_stats, fast_tail) = run_nonblocking_trials_with(&wf, &s, cfg, spec, |seed| {
            ExponentialInjector::new(4e-3, seed)
        });
        let (ref_stats, ref_tail) = crate::montecarlo::trial_metric_tail_stats(spec, |i| {
            let mut inj = ExponentialInjector::new(4e-3, spec.trial_seed(i));
            simulate_nonblocking(&wf, &s, &mut inj, cfg).makespan
        });
        assert_eq!(fast_stats.mean().to_bits(), ref_stats.mean().to_bits());
        assert_eq!(
            fast_stats.variance().to_bits(),
            ref_stats.variance().to_bits()
        );
        assert_eq!(fast_stats.n(), ref_stats.n());
        assert_eq!(fast_stats.min().to_bits(), ref_stats.min().to_bits());
        assert_eq!(fast_stats.max().to_bits(), ref_stats.max().to_bits());
        assert_eq!(fast_tail, ref_tail);
    }

    #[test]
    #[should_panic(expected = "compute_rate")]
    fn zero_rate_rejected() {
        let (wf, s) = two_chain(1.0);
        let mut inj = NoFaults;
        simulate_nonblocking(
            &wf,
            &s,
            &mut inj,
            NonBlockingConfig {
                compute_rate: 0.0,
                ..Default::default()
            },
        );
    }
}
