//! Serde-friendly exchange format for DAG topologies.

use crate::error::DagError;
use crate::graph::{Dag, DagBuilder};
use serde::{Deserialize, Serialize};

/// A plain, serializable description of a DAG: node count plus edge list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagSpec {
    /// Number of nodes (`0..n`).
    pub n: usize,
    /// Directed edges `(pred, succ)`.
    pub edges: Vec<(u32, u32)>,
}

impl From<&Dag> for DagSpec {
    fn from(dag: &Dag) -> Self {
        DagSpec {
            n: dag.n_nodes(),
            edges: dag.edges().map(|(u, v)| (u.0, v.0)).collect(),
        }
    }
}

impl DagSpec {
    /// Validates the spec and builds the immutable DAG.
    pub fn build(&self) -> Result<Dag, DagError> {
        let mut b = DagBuilder::new(self.n);
        for &(u, v) in &self.edges {
            b.add_edge(u as usize, v as usize);
        }
        b.build()
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("DagSpec serializes")
    }

    /// Parses from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_figure1() {
        let d = generators::paper_figure1();
        let spec = DagSpec::from(&d);
        let back = spec.build().unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn json_roundtrip() {
        let d = generators::fork_join(3);
        let spec = DagSpec::from(&d);
        let json = spec.to_json();
        let parsed = DagSpec::from_json(&json).unwrap();
        assert_eq!(spec, parsed);
        assert_eq!(parsed.build().unwrap(), d);
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let spec = DagSpec {
            n: 2,
            edges: vec![(0, 1), (1, 0)],
        };
        assert!(matches!(spec.build(), Err(DagError::Cycle(_))));
    }

    #[test]
    fn builder_errors_surface_through_the_spec() {
        let out_of_range = DagSpec {
            n: 2,
            edges: vec![(0, 2)],
        };
        assert_eq!(
            out_of_range.build().unwrap_err(),
            DagError::NodeOutOfRange {
                node: crate::graph::NodeId(2),
                n: 2
            }
        );
        let self_loop = DagSpec {
            n: 3,
            edges: vec![(1, 1)],
        };
        assert!(matches!(self_loop.build(), Err(DagError::SelfLoop(_))));
        let duplicate = DagSpec {
            n: 3,
            edges: vec![(0, 1), (0, 1)],
        };
        assert!(matches!(
            duplicate.build(),
            Err(DagError::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        assert!(DagSpec::from_json("not json").is_err());
        assert!(DagSpec::from_json("{\"n\": 2}").is_err());
        assert!(DagSpec::from_json("{\"n\": 2, \"edges\": [[0]]}").is_err());
    }

    #[test]
    fn empty_spec_builds_the_empty_dag() {
        let spec = DagSpec {
            n: 0,
            edges: Vec::new(),
        };
        let d = spec.build().unwrap();
        assert_eq!(d.n_nodes(), 0);
        assert_eq!(d.n_edges(), 0);
        assert_eq!(DagSpec::from(&d), spec);
    }

    proptest! {
        #[test]
        fn roundtrip_random(seed in 0u64..200, n in 0usize..50) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = generators::layered_random(&mut rng, n, 4, 0.25);
            let spec = DagSpec::from(&d);
            prop_assert_eq!(spec.build().unwrap(), d);
        }
    }
}
