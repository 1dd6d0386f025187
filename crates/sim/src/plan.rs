//! Recovery plans: what must run before a task when some of its inputs are
//! no longer in memory.

use crate::events::UnitKind;
use crate::memory::MemoryState;
use dagchkpt_core::{Schedule, Workflow};
use dagchkpt_dag::NodeId;

/// One step of a recovery plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStep {
    /// The ancestor being brought back.
    pub task: NodeId,
    /// `Recovery` for checkpointed ancestors, `Rework` otherwise.
    pub kind: UnitKind,
    /// Time the step takes (`r_j` or `w_j`).
    pub duration: f64,
}

/// Computes the ordered recovery plan for `target` given the current
/// `memory`: the transitive closure of missing inputs through
/// non-checkpointed ancestors — checkpointed frontier recovered, interior
/// re-executed — sorted in schedule order (which is topological), so every
/// re-executed task sees its own inputs restored first.
///
/// This is the operational twin of the evaluator's `T↓k_i` lost sets.
pub fn recovery_plan(
    wf: &Workflow,
    schedule: &Schedule,
    memory: &MemoryState,
    target: NodeId,
) -> Vec<PlanStep> {
    let pos = schedule.positions();
    recovery_plan_with(wf, &pos, schedule.checkpoints(), memory, target)
}

/// [`recovery_plan`] with an explicit *recoverable* set — the tasks whose
/// checkpoint is durably on stable storage **right now**. The blocking
/// engine passes the schedule's checkpoint set (writes are synchronous, so
/// selected = durable); the non-blocking engine passes only the writes that
/// have actually completed.
pub fn recovery_plan_with(
    wf: &Workflow,
    positions: &[usize],
    recoverable: &dagchkpt_dag::FixedBitSet,
    memory: &MemoryState,
    target: NodeId,
) -> Vec<PlanStep> {
    let dag = wf.dag();
    let n = wf.n_tasks();
    let mut needed: Vec<NodeId> = Vec::new();
    let mut seen = vec![false; n];
    let mut stack = vec![target];
    while let Some(t) = stack.pop() {
        for &p in dag.preds(t) {
            if seen[p.index()] || memory.has(p) {
                continue;
            }
            seen[p.index()] = true;
            needed.push(p);
            if !recoverable.contains(p.index()) {
                // Re-executing p needs p's own inputs restored too.
                stack.push(p);
            }
        }
    }
    // Schedule order is a linearization, hence a valid execution order.
    needed.sort_by_key(|v| positions[v.index()]);
    needed
        .into_iter()
        .map(|v| {
            if recoverable.contains(v.index()) {
                PlanStep {
                    task: v,
                    kind: UnitKind::Recovery,
                    duration: wf.recovery_cost(v),
                }
            } else {
                PlanStep {
                    task: v,
                    kind: UnitKind::Rework,
                    duration: wf.work(v),
                }
            }
        })
        .collect()
}

/// Sums a recovery plan into its (rework, recovery) nominal amounts, in
/// step order (the compiled recovery rows sum their plans the same way,
/// so both produce the same bits).
pub(crate) fn plan_amounts(plan: &[PlanStep]) -> (f64, f64) {
    let mut rework = 0.0;
    let mut recovery = 0.0;
    for step in plan {
        match step.kind {
            UnitKind::Rework => rework += step.duration,
            UnitKind::Recovery => recovery += step.duration,
            _ => unreachable!("plans only recover or re-execute"),
        }
    }
    (rework, recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagchkpt_core::CostRule;
    use dagchkpt_dag::{generators, FixedBitSet};

    /// Figure-1 fixture: order T0 T3 T1 T2 T4 T5 T6 T7, ckpt {T3, T4}.
    fn fig1() -> (Workflow, Schedule) {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![1.0; 8],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let order: Vec<NodeId> = [0u32, 3, 1, 2, 4, 5, 6, 7]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        let mut ckpt = FixedBitSet::new(8);
        ckpt.insert(3);
        ckpt.insert(4);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        (wf, s)
    }

    #[test]
    fn empty_plan_when_inputs_resident() {
        let (wf, s) = fig1();
        let mut mem = MemoryState::new(8);
        for v in [0u32, 3] {
            mem.store(NodeId(v));
        }
        assert!(recovery_plan(&wf, &s, &mem, NodeId(4)).is_empty());
    }

    #[test]
    fn entry_task_needs_no_plan() {
        let (wf, s) = fig1();
        let mem = MemoryState::new(8);
        assert!(recovery_plan(&wf, &s, &mem, NodeId(0)).is_empty());
        assert!(recovery_plan(&wf, &s, &mem, NodeId(1)).is_empty());
    }

    #[test]
    fn paper_walkthrough_after_fault_during_t5() {
        // Fault during T5's execution: memory empty. The paper: "To
        // re-execute T5, one needs to recover the checkpointed output of
        // T3."
        let (wf, s) = fig1();
        let mem = MemoryState::new(8);
        let plan = recovery_plan(&wf, &s, &mem, NodeId(5));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].task, NodeId(3));
        assert_eq!(plan[0].kind, UnitKind::Recovery);
        assert!((plan[0].duration - 0.1).abs() < 1e-12);
    }

    #[test]
    fn paper_walkthrough_t6_then_t7() {
        // After T5 re-executed (in memory): "To execute T6, one then needs
        // to recover the checkpointed output of T4 and use the output of T5
        // that is now available in memory."
        let (wf, s) = fig1();
        let mut mem = MemoryState::new(8);
        mem.store(NodeId(3)); // recovered for T5
        mem.store(NodeId(5)); // re-executed
        let plan = recovery_plan(&wf, &s, &mem, NodeId(6));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].task, NodeId(4));
        assert_eq!(plan[0].kind, UnitKind::Recovery);
        // Then T7: "the output of T2 was lost … no task is checkpointed on
        // the reverse path from T7 to T1. One must therefore re-execute T1,
        // T2, and then finally T7."
        mem.store(NodeId(4));
        mem.store(NodeId(6));
        let plan = recovery_plan(&wf, &s, &mem, NodeId(7));
        let steps: Vec<(u32, UnitKind)> = plan.iter().map(|p| (p.task.0, p.kind)).collect();
        assert_eq!(steps, vec![(1, UnitKind::Rework), (2, UnitKind::Rework)]);
    }

    #[test]
    fn plan_is_in_executable_order() {
        // Chain of 4, nothing checkpointed, empty memory: re-execute
        // ancestors in chain order.
        let wf = Workflow::uniform(generators::chain(4), 2.0, 0.0);
        let order = dagchkpt_dag::topo::topological_order(wf.dag());
        let s = Schedule::never(&wf, order).unwrap();
        let mem = MemoryState::new(4);
        let plan = recovery_plan(&wf, &s, &mem, NodeId(3));
        let ids: Vec<u32> = plan.iter().map(|p| p.task.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(plan.iter().all(|p| p.kind == UnitKind::Rework));
    }

    #[test]
    fn diamond_ancestor_counted_once() {
        let mut b = dagchkpt_dag::DagBuilder::new(4);
        b.add_edge(0usize, 1usize);
        b.add_edge(0usize, 2usize);
        b.add_edge(1usize, 3usize);
        b.add_edge(2usize, 3usize);
        let wf = Workflow::uniform(b.build().unwrap(), 5.0, 0.0);
        let order = dagchkpt_dag::topo::topological_order(wf.dag());
        let s = Schedule::never(&wf, order).unwrap();
        let plan = recovery_plan(&wf, &s, &MemoryState::new(4), NodeId(3));
        let ids: Vec<u32> = plan.iter().map(|p| p.task.0).collect();
        assert_eq!(ids, vec![0, 1, 2]); // 0 appears once
    }
}
