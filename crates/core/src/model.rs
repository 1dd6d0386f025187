//! The workflow model: a DAG plus per-task costs `(w_i, c_i, r_i)`.

use dagchkpt_dag::{Dag, NodeId};
use serde::{Deserialize, Serialize};

/// A rejected workflow or cost triple: a non-finite or negative component,
/// or a cost list that does not match the DAG.
///
/// The panicking constructors ([`TaskCosts::new`], [`Workflow::new`])
/// enforce the same invariants for programmatic callers; the `try_`
/// variants exist so spec-driven inputs (JSON requests, scenario files)
/// surface a typed error instead of killing the process — one NaN weight
/// in a served request must never panic a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError(pub String);

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ModelError {}

/// Costs of one task: failure-free execution time `w`, checkpoint time `c`,
/// recovery time `r` (all in seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskCosts {
    /// Computational weight `w_i`.
    pub work: f64,
    /// Time `c_i` to checkpoint the task's output.
    pub checkpoint: f64,
    /// Time `r_i` to recover the task's output from its checkpoint.
    pub recovery: f64,
}

impl TaskCosts {
    /// Creates a cost triple; all components must be finite and ≥ 0.
    ///
    /// # Panics
    ///
    /// On a non-finite or negative component; use [`TaskCosts::try_new`]
    /// for untrusted inputs.
    pub fn new(work: f64, checkpoint: f64, recovery: f64) -> Self {
        Self::try_new(work, checkpoint, recovery).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`TaskCosts::new`]: rejects non-finite (NaN/±∞) or
    /// negative components with a [`ModelError`].
    pub fn try_new(work: f64, checkpoint: f64, recovery: f64) -> Result<Self, ModelError> {
        for (name, v) in [
            ("work", work),
            ("checkpoint", checkpoint),
            ("recovery", recovery),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ModelError(format!(
                    "{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        Ok(TaskCosts {
            work,
            checkpoint,
            recovery,
        })
    }
}

/// How checkpoint/recovery costs are derived from task weights.
///
/// The paper's experiments use `c_i = r_i` throughout, with either a
/// proportional rule (`c_i = 0.1 w_i`, `0.01 w_i`) or a constant
/// (`c_i = 5 s`, `10 s`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CostRule {
    /// `c_i = r_i = ratio · w_i`.
    ProportionalToWork {
        /// Multiplier applied to the weight.
        ratio: f64,
    },
    /// `c_i = r_i = value` for every task.
    Constant {
        /// The constant checkpoint/recovery cost.
        value: f64,
    },
}

impl CostRule {
    /// Checkpoint (= recovery) cost of a task of weight `w`.
    pub fn cost_for(&self, w: f64) -> f64 {
        match *self {
            CostRule::ProportionalToWork { ratio } => ratio * w,
            CostRule::Constant { value } => value,
        }
    }

    /// Short human-readable label used by the experiment harness
    /// (e.g. `c=0.1w` or `c=5s`).
    pub fn label(&self) -> String {
        match *self {
            CostRule::ProportionalToWork { ratio } => format!("c={ratio}w"),
            CostRule::Constant { value } => format!("c={value}s"),
        }
    }
}

/// A computational workflow: an immutable DAG with one [`TaskCosts`] triple
/// per task. This is the object every algorithm in the workspace consumes.
///
/// Costs are stored struct-of-arrays because the evaluator's hot loops scan
/// one component at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    dag: Dag,
    work: Vec<f64>,
    checkpoint: Vec<f64>,
    recovery: Vec<f64>,
}

impl Workflow {
    /// Builds a workflow from a DAG and one cost triple per task.
    ///
    /// # Panics
    ///
    /// If `costs.len() != dag.n_nodes()` or any component is negative/NaN;
    /// use [`Workflow::try_new`] for untrusted inputs.
    pub fn new(dag: Dag, costs: Vec<TaskCosts>) -> Self {
        Self::try_new(dag, costs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Workflow::new`]: rejects a cost list of the wrong length
    /// or any non-finite/negative component with a [`ModelError`]. The
    /// components are re-validated here because [`TaskCosts`] has public
    /// fields, so a NaN can be smuggled past [`TaskCosts::try_new`] by
    /// literal construction.
    pub fn try_new(dag: Dag, costs: Vec<TaskCosts>) -> Result<Self, ModelError> {
        if costs.len() != dag.n_nodes() {
            return Err(ModelError(format!(
                "one cost triple per task required: {} costs for {} tasks",
                costs.len(),
                dag.n_nodes()
            )));
        }
        for (i, c) in costs.iter().enumerate() {
            for (name, v) in [
                ("work", c.work),
                ("checkpoint", c.checkpoint),
                ("recovery", c.recovery),
            ] {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(ModelError(format!(
                        "task {i}: {name} must be finite and non-negative, got {v}"
                    )));
                }
            }
        }
        Ok(Workflow {
            work: costs.iter().map(|c| c.work).collect(),
            checkpoint: costs.iter().map(|c| c.checkpoint).collect(),
            recovery: costs.iter().map(|c| c.recovery).collect(),
            dag,
        })
    }

    /// Builds a workflow from weights and a [`CostRule`] (`c_i = r_i`, the
    /// paper's convention).
    pub fn with_cost_rule(dag: Dag, weights: Vec<f64>, rule: CostRule) -> Self {
        assert_eq!(weights.len(), dag.n_nodes());
        let costs = weights
            .iter()
            .map(|&w| {
                let c = rule.cost_for(w);
                TaskCosts::new(w, c, c)
            })
            .collect();
        Self::new(dag, costs)
    }

    /// Builds a workflow where every task has the same weight `w` and
    /// `c_i = r_i = c` (convenient in tests and examples).
    pub fn uniform(dag: Dag, w: f64, c: f64) -> Self {
        let n = dag.n_nodes();
        Self::new(dag, vec![TaskCosts::new(w, c, c); n])
    }

    /// A copy with each task's checkpoint cost multiplied by
    /// `ckpt_scale[i]` and recovery cost by `rec_scale[i]` (work is never
    /// scaled). This is the storage-tier pricing hook: the Monte-Carlo
    /// engines read costs exclusively from the workflow, so simulating a
    /// scaled copy makes every engine tier-aware without touching engine
    /// internals. Scaling by exactly `1.0` is bit-identical to `self`.
    ///
    /// # Panics
    ///
    /// If a scale list has the wrong length or a scaled cost comes out
    /// non-finite or negative (validated like [`Workflow::try_new`]).
    pub fn with_scaled_costs(&self, ckpt_scale: &[f64], rec_scale: &[f64]) -> Workflow {
        let n = self.n_tasks();
        assert_eq!(ckpt_scale.len(), n, "one checkpoint scale per task");
        assert_eq!(rec_scale.len(), n, "one recovery scale per task");
        let scale = |costs: &[f64], scales: &[f64], what: &str| -> Vec<f64> {
            costs
                .iter()
                .zip(scales)
                .enumerate()
                .map(|(i, (&c, &s))| {
                    let v = c * s;
                    assert!(
                        v.is_finite() && v >= 0.0,
                        "task {i}: scaled {what} cost {v} must be finite and non-negative"
                    );
                    v
                })
                .collect()
        };
        Workflow {
            dag: self.dag.clone(),
            work: self.work.clone(),
            checkpoint: scale(&self.checkpoint, ckpt_scale, "checkpoint"),
            recovery: scale(&self.recovery, rec_scale, "recovery"),
        }
    }

    /// Overwrites one task's recovery cost in place — the incremental
    /// counterpart of [`Workflow::with_scaled_costs`] used by the
    /// storage-aware evaluator's tier mutations.
    pub(crate) fn set_recovery_cost(&mut self, v: NodeId, cost: f64) {
        debug_assert!(cost.is_finite() && cost >= 0.0);
        self.recovery[v.index()] = cost;
    }

    /// The underlying DAG.
    #[inline]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Number of tasks.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.dag.n_nodes()
    }

    /// Weight `w_i` of a task.
    #[inline]
    pub fn work(&self, v: NodeId) -> f64 {
        self.work[v.index()]
    }

    /// Checkpoint cost `c_i` of a task.
    #[inline]
    pub fn checkpoint_cost(&self, v: NodeId) -> f64 {
        self.checkpoint[v.index()]
    }

    /// Recovery cost `r_i` of a task.
    #[inline]
    pub fn recovery_cost(&self, v: NodeId) -> f64 {
        self.recovery[v.index()]
    }

    /// All weights, indexed by task id.
    #[inline]
    pub fn works(&self) -> &[f64] {
        &self.work
    }

    /// All checkpoint costs, indexed by task id.
    #[inline]
    pub fn checkpoint_costs(&self) -> &[f64] {
        &self.checkpoint
    }

    /// All recovery costs, indexed by task id.
    #[inline]
    pub fn recovery_costs(&self) -> &[f64] {
        &self.recovery
    }

    /// Total failure-free work `Σ w_i` — the paper's `T_inf` normalizer
    /// (failure-free, checkpoint-free makespan of the linearized DAG).
    pub fn total_work(&self) -> f64 {
        self.work.iter().sum()
    }

    /// The paper's task priority `d_i`: sum of the weights of the direct
    /// successors (used by DF/BF ordering and by the `CkptD` strategy).
    pub fn outweight(&self, v: NodeId) -> f64 {
        dagchkpt_dag::traverse::outweight(&self.dag, &self.work, v)
    }

    /// Outweight of every task.
    pub fn outweights(&self) -> Vec<f64> {
        dagchkpt_dag::traverse::outweights(&self.dag, &self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagchkpt_dag::generators;

    #[test]
    fn task_costs_validation() {
        let c = TaskCosts::new(1.0, 0.1, 0.2);
        assert_eq!(c.work, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_rejected() {
        TaskCosts::new(1.0, -0.1, 0.0);
    }

    #[test]
    fn try_new_rejects_non_finite_components_with_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let e = TaskCosts::try_new(bad, 0.1, 0.1).unwrap_err();
            assert!(e.0.contains("work"), "{e}");
            let e = TaskCosts::try_new(1.0, bad, 0.1).unwrap_err();
            assert!(e.0.contains("checkpoint"), "{e}");
            let e = TaskCosts::try_new(1.0, 0.1, bad).unwrap_err();
            assert!(e.0.contains("recovery"), "{e}");
        }
        assert!(TaskCosts::try_new(1.0, 0.0, 0.0).is_ok());
    }

    #[test]
    fn workflow_try_new_rejects_smuggled_nan() {
        // TaskCosts fields are public, so a literal can carry NaN past
        // try_new; the workflow constructor must still catch it.
        let bad = TaskCosts {
            work: f64::NAN,
            checkpoint: 0.0,
            recovery: 0.0,
        };
        let ok = TaskCosts::new(1.0, 0.0, 0.0);
        let e = Workflow::try_new(generators::chain(2), vec![ok, bad]).unwrap_err();
        assert!(e.0.contains("task 1"), "{e}");
        assert!(e.0.contains("work"), "{e}");
        let e = Workflow::try_new(generators::chain(3), vec![ok]).unwrap_err();
        assert!(e.0.contains("one cost triple per task"), "{e}");
    }

    #[test]
    fn cost_rules() {
        assert_eq!(
            CostRule::ProportionalToWork { ratio: 0.1 }.cost_for(50.0),
            5.0
        );
        assert_eq!(CostRule::Constant { value: 5.0 }.cost_for(50.0), 5.0);
        assert_eq!(
            CostRule::ProportionalToWork { ratio: 0.1 }.label(),
            "c=0.1w"
        );
        assert_eq!(CostRule::Constant { value: 5.0 }.label(), "c=5s");
    }

    #[test]
    fn workflow_accessors() {
        let dag = generators::chain(3);
        let wf = Workflow::with_cost_rule(
            dag,
            vec![10.0, 20.0, 30.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        assert_eq!(wf.n_tasks(), 3);
        assert_eq!(wf.work(NodeId(1)), 20.0);
        assert_eq!(wf.checkpoint_cost(NodeId(1)), 2.0);
        assert_eq!(wf.recovery_cost(NodeId(1)), 2.0);
        assert_eq!(wf.total_work(), 60.0);
        assert_eq!(wf.works(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn outweight_matches_direct_successors() {
        let dag = generators::fork(3); // 0 -> {1,2,3}
        let wf = Workflow::with_cost_rule(
            dag,
            vec![1.0, 2.0, 3.0, 4.0],
            CostRule::Constant { value: 0.0 },
        );
        assert_eq!(wf.outweight(NodeId(0)), 9.0);
        assert_eq!(wf.outweight(NodeId(2)), 0.0);
        assert_eq!(wf.outweights(), vec![9.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn scaled_costs_leave_work_alone_and_unit_scales_are_bitwise() {
        let wf = Workflow::with_cost_rule(
            generators::chain(3),
            vec![10.0, 0.3, 7.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        assert_eq!(wf.with_scaled_costs(&[1.0; 3], &[1.0; 3]), wf);
        let scaled = wf.with_scaled_costs(&[2.0, 0.0, 1.0], &[0.5, 1.0, 3.0]);
        let (c, r) = (wf.checkpoint_costs(), wf.recovery_costs());
        assert_eq!(scaled.works(), wf.works());
        assert_eq!(scaled.dag(), wf.dag());
        assert_eq!(scaled.checkpoint_costs(), &[2.0 * c[0], 0.0, c[2]][..]);
        assert_eq!(scaled.recovery_costs(), &[0.5 * r[0], r[1], 3.0 * r[2]][..]);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn negative_cost_scale_panics() {
        let wf = Workflow::uniform(generators::chain(2), 1.0, 1.0);
        let _ = wf.with_scaled_costs(&[1.0, -1.0], &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "one cost triple per task")]
    fn cost_len_mismatch_rejected() {
        Workflow::new(generators::chain(3), vec![TaskCosts::new(1.0, 0.0, 0.0)]);
    }

    #[test]
    fn uniform_constructor() {
        let wf = Workflow::uniform(generators::chain(4), 5.0, 1.0);
        assert_eq!(wf.total_work(), 20.0);
        assert_eq!(wf.checkpoint_cost(NodeId(3)), 1.0);
    }
}
