//! Serializable exchange format for workflow *instances* (topology + costs),
//! so experiments are exactly reproducible from their JSON artifacts.

use dagchkpt_core::{ModelError, TaskCosts, Workflow};
use dagchkpt_dag::io::DagSpec;
use dagchkpt_dag::NodeId;
use serde::{Deserialize, Serialize};

/// Why a [`WorkflowSpec`] could not be rebuilt into a [`Workflow`]: the
/// topology is malformed, or a cost entry is non-finite/negative (a JSON
/// `1e400` parses to `+∞`, and spec-driven pipelines must reject it with
/// an error, not a panic).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The DAG could not be built.
    Dag(dagchkpt_dag::DagError),
    /// A cost triple was rejected, or the cost list length is wrong.
    Cost(ModelError),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Dag(e) => write!(f, "{e}"),
            SpecError::Cost(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<dagchkpt_dag::DagError> for SpecError {
    fn from(e: dagchkpt_dag::DagError) -> Self {
        SpecError::Dag(e)
    }
}

impl From<ModelError> for SpecError {
    fn from(e: ModelError) -> Self {
        SpecError::Cost(e)
    }
}

/// A self-contained workflow description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSpec {
    /// Topology.
    pub dag: DagSpec,
    /// `(w, c, r)` per task, indexed by id.
    pub costs: Vec<(f64, f64, f64)>,
    /// Optional per-task type labels (generator provenance).
    #[serde(default)]
    pub labels: Vec<String>,
}

impl WorkflowSpec {
    /// Captures a workflow (labels optional).
    pub fn from_workflow(wf: &Workflow, labels: Option<&[&str]>) -> Self {
        let n = wf.n_tasks();
        WorkflowSpec {
            dag: DagSpec::from(wf.dag()),
            costs: (0..n)
                .map(|i| {
                    let v = NodeId::from(i);
                    (wf.work(v), wf.checkpoint_cost(v), wf.recovery_cost(v))
                })
                .collect(),
            labels: labels
                .map(|ls| ls.iter().map(|s| s.to_string()).collect())
                .unwrap_or_default(),
        }
    }

    /// Rebuilds the workflow, validating every cost triple: NaN, infinite
    /// or negative components are a typed [`SpecError`], never a panic.
    pub fn build(&self) -> Result<Workflow, SpecError> {
        let dag = self.dag.build()?;
        let mut costs: Vec<TaskCosts> = Vec::with_capacity(self.costs.len());
        for (i, &(w, c, r)) in self.costs.iter().enumerate() {
            costs.push(
                TaskCosts::try_new(w, c, r).map_err(|e| ModelError(format!("task {i}: {e}")))?,
            );
        }
        Ok(Workflow::try_new(dag, costs)?)
    }

    /// JSON round-trip helpers.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Parses a spec back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PegasusKind;
    use dagchkpt_core::CostRule;

    #[test]
    fn roundtrip_every_kind() {
        for kind in PegasusKind::ALL {
            let (wf, labels) = kind.generate_labeled(60, CostRule::Constant { value: 5.0 }, 3);
            let spec = WorkflowSpec::from_workflow(&wf, Some(&labels));
            let json = spec.to_json();
            let parsed = WorkflowSpec::from_json(&json).unwrap();
            let back = parsed.build().unwrap();
            assert_eq!(back, wf, "{kind}");
            assert_eq!(parsed.labels.len(), 60);
        }
    }

    #[test]
    fn non_finite_costs_are_a_typed_error_not_a_panic() {
        let wf = PegasusKind::Montage.generate(12, CostRule::Constant { value: 1.0 }, 1);
        let mut spec = WorkflowSpec::from_workflow(&wf, None);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            spec.costs[3].0 = bad;
            let e = spec.build().unwrap_err();
            assert!(matches!(e, SpecError::Cost(_)), "{e:?}");
            assert!(e.to_string().contains("task 3"), "{e}");
        }
        // JSON has no NaN/∞ literals, but `1e400` overflows to +∞ when
        // parsed — the ingress path a served request would take.
        spec.costs[3].0 = 1.0;
        let json = spec.to_json().replace("1.0", "1e400");
        let parsed = WorkflowSpec::from_json(&json).unwrap();
        let e = parsed.build().unwrap_err();
        assert!(e.to_string().contains("finite"), "{e}");
    }

    #[test]
    fn a_cyclic_topology_is_a_dag_error() {
        let wf = PegasusKind::Ligo.generate(40, CostRule::Constant { value: 1.0 }, 2);
        let mut spec = WorkflowSpec::from_workflow(&wf, None);
        let (u, v) = spec.dag.edges[0];
        spec.dag.edges.push((v, u));
        let e = spec.build().unwrap_err();
        assert!(
            matches!(e, SpecError::Dag(dagchkpt_dag::DagError::Cycle(_))),
            "{e:?}"
        );
        assert!(e.to_string().contains("cycle"), "{e}");
    }

    #[test]
    fn labels_are_optional() {
        let wf = PegasusKind::Montage.generate(50, CostRule::Constant { value: 1.0 }, 1);
        let spec = WorkflowSpec::from_workflow(&wf, None);
        assert!(spec.labels.is_empty());
        assert_eq!(spec.build().unwrap(), wf);
    }
}
