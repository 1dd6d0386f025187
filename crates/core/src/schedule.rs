//! Schedules: a linearization of the DAG plus the set of checkpointed tasks.

use crate::model::Workflow;
use dagchkpt_dag::{topo, DagError, FixedBitSet, NodeId};
use serde::{Deserialize, Serialize};

/// A complete answer to DAG-ChkptSched's two questions: in which order the
/// tasks execute, and which tasks checkpoint their output on completion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    order: Vec<NodeId>,
    ckpt: FixedBitSet,
}

impl Schedule {
    /// Creates a schedule after validating that `order` is a linearization
    /// of the workflow's DAG and that `ckpt` has matching capacity.
    pub fn new(wf: &Workflow, order: Vec<NodeId>, ckpt: FixedBitSet) -> Result<Self, DagError> {
        topo::validate_order(wf.dag(), &order)?;
        assert_eq!(
            ckpt.len(),
            wf.n_tasks(),
            "checkpoint set capacity must equal the task count"
        );
        Ok(Schedule { order, ckpt })
    }

    /// A schedule with the given order and **no** checkpoints (`CkptNvr`).
    pub fn never(wf: &Workflow, order: Vec<NodeId>) -> Result<Self, DagError> {
        let n = wf.n_tasks();
        Self::new(wf, order, FixedBitSet::new(n))
    }

    /// A schedule with the given order and **every** task checkpointed
    /// (`CkptAlws`).
    pub fn always(wf: &Workflow, order: Vec<NodeId>) -> Result<Self, DagError> {
        let n = wf.n_tasks();
        Self::new(wf, order, FixedBitSet::full(n))
    }

    /// The linearization (task at each position).
    #[inline]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The checkpoint set, indexed by task id.
    #[inline]
    pub fn checkpoints(&self) -> &FixedBitSet {
        &self.ckpt
    }

    /// `true` when task `v` is checkpointed.
    #[inline]
    pub fn is_checkpointed(&self, v: NodeId) -> bool {
        self.ckpt.contains(v.index())
    }

    /// Number of checkpointed tasks.
    pub fn n_checkpoints(&self) -> usize {
        self.ckpt.count()
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.order.len()
    }

    /// Returns a copy with a different checkpoint set (same order).
    pub fn with_checkpoints(&self, ckpt: FixedBitSet) -> Self {
        assert_eq!(ckpt.len(), self.order.len());
        Schedule {
            order: self.order.clone(),
            ckpt,
        }
    }

    /// `position[v] = i` such that `order[i] = v`.
    pub fn positions(&self) -> Vec<usize> {
        let mut pos = vec![usize::MAX; self.order.len()];
        for (i, v) in self.order.iter().enumerate() {
            pos[v.index()] = i;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostRule;
    use dagchkpt_dag::generators;

    fn wf() -> Workflow {
        Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![1.0; 8],
            CostRule::Constant { value: 0.1 },
        )
    }

    #[test]
    fn valid_schedule_builds() {
        let wf = wf();
        let order: Vec<NodeId> = [0u32, 3, 1, 2, 4, 5, 6, 7]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        let mut ckpt = FixedBitSet::new(8);
        ckpt.insert(3);
        ckpt.insert(4);
        let s = Schedule::new(&wf, order.clone(), ckpt).unwrap();
        assert_eq!(s.order(), &order[..]);
        assert!(s.is_checkpointed(NodeId(3)));
        assert!(!s.is_checkpointed(NodeId(0)));
        assert_eq!(s.n_checkpoints(), 2);
        assert_eq!(s.n_tasks(), 8);
    }

    #[test]
    fn invalid_order_rejected() {
        let wf = wf();
        let order: Vec<NodeId> = (0..8).rev().map(|i| NodeId(i as u32)).collect();
        assert!(Schedule::never(&wf, order).is_err());
    }

    #[test]
    fn never_and_always() {
        let wf = wf();
        let order = topo::topological_order(wf.dag());
        let s0 = Schedule::never(&wf, order.clone()).unwrap();
        assert_eq!(s0.n_checkpoints(), 0);
        let s1 = Schedule::always(&wf, order).unwrap();
        assert_eq!(s1.n_checkpoints(), 8);
    }

    #[test]
    fn positions_invert_order() {
        let wf = wf();
        let order: Vec<NodeId> = [0u32, 3, 1, 2, 4, 5, 6, 7]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        let s = Schedule::never(&wf, order.clone()).unwrap();
        let pos = s.positions();
        for (i, v) in order.iter().enumerate() {
            assert_eq!(pos[v.index()], i);
        }
    }

    #[test]
    fn with_checkpoints_keeps_order() {
        let wf = wf();
        let order = topo::topological_order(wf.dag());
        let s = Schedule::never(&wf, order).unwrap();
        let s2 = s.with_checkpoints(FixedBitSet::full(8));
        assert_eq!(s.order(), s2.order());
        assert_eq!(s2.n_checkpoints(), 8);
    }

    #[test]
    fn schedule_roundtrips_through_serde() {
        use serde::{Deserialize, Serialize};
        let wf = wf();
        let order: Vec<NodeId> = [0u32, 3, 1, 2, 4, 5, 6, 7]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        let s = Schedule::new(&wf, order, FixedBitSet::from_indices(8, [3usize, 6])).unwrap();
        let back = Schedule::from_value(&s.to_value()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.checkpoints().iter().collect::<Vec<_>>(), vec![3, 6]);
    }

    #[test]
    fn orders_that_are_not_permutations_are_rejected() {
        let wf = wf();
        let mut order = topo::topological_order(wf.dag());
        order[7] = order[6];
        assert_eq!(
            Schedule::never(&wf, order.clone()).unwrap_err(),
            DagError::NotAPermutation
        );
        order.pop();
        assert_eq!(
            Schedule::always(&wf, order).unwrap_err(),
            DagError::NotAPermutation
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn wrong_capacity_rejected() {
        let wf = wf();
        let order = topo::topological_order(wf.dag());
        let _ = Schedule::new(&wf, order, FixedBitSet::new(4));
    }
}
