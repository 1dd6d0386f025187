//! Transitive reduction: dropping edges implied by longer paths.
//!
//! Useful for *precedence* analysis (depth metrics, visualization,
//! linear-extension counting) and for importing workflow descriptions whose
//! edges denote pure control ordering.
//!
//! **Not semantics-preserving for checkpoint scheduling.** In the paper's
//! model an edge is a *data* dependency: `T_v` reads `T_u`'s output.
//! Removing a redundant edge `(u, v)` changes which outputs `T_v` must have
//! recovered — e.g. if the intermediate path `u → m → v` has `m`
//! checkpointed, the direct edge forces `u`'s output (lost, perhaps
//! expensive to rebuild) back into `T_v`'s recovery set, while the reduced
//! graph recovers only `m`. The cross-crate test
//! `reduction_can_change_expected_makespan` in `tests/` pins this down. Use
//! the reduction on schedules only when redundant edges are known to carry
//! no data.

use crate::bitset::FixedBitSet;
use crate::graph::{Dag, DagBuilder};
use crate::traverse::all_ancestors;

/// Returns the transitive reduction of `dag`: the unique minimal sub-DAG
/// with the same reachability relation (unique because `dag` is acyclic).
///
/// An edge `(u, v)` is redundant iff some other predecessor of `v` is a
/// descendant of `u`. Cost `O(|E| · n/64)` with bitset ancestor sets.
pub fn transitive_reduction(dag: &Dag) -> Dag {
    let anc = all_ancestors(dag);
    let mut b = DagBuilder::new(dag.n_nodes());
    for (u, v) in dag.edges() {
        // `(u, v)` is implied iff u is a strict ancestor of another
        // predecessor w of v.
        let implied = dag
            .preds(v)
            .iter()
            .any(|&w| w != u && anc[w.index()].contains(u.index()));
        if !implied {
            b.add_edge(u, v);
        }
    }
    b.build().expect("sub-DAG of a DAG is acyclic")
}

/// Number of redundant edges `|E| − |E_reduced|`.
pub fn redundant_edge_count(dag: &Dag) -> usize {
    dag.n_edges() - transitive_reduction(dag).n_edges()
}

/// Checks that two DAGs over the same nodes have identical reachability
/// (used by tests; exposed because it is handy for validating imported
/// workflow descriptions against their reductions).
pub fn same_reachability(a: &Dag, b: &Dag) -> bool {
    if a.n_nodes() != b.n_nodes() {
        return false;
    }
    let (ra, rb) = (all_ancestors(a), all_ancestors(b));
    ra == rb
}

/// Ancestor closure as a set-per-node, exposed for callers that already
/// paid for the reduction (avoids recomputation).
pub fn ancestor_sets(dag: &Dag) -> Vec<FixedBitSet> {
    all_ancestors(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::NodeId;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn same_reachability_detects_a_dropped_edge_and_a_size_mismatch() {
        let d = generators::chain(4);
        assert!(same_reachability(&d, &d));
        // Dropping the middle edge of the chain splits reachability.
        let mut b = DagBuilder::new(4);
        b.add_edge(0usize, 1usize);
        b.add_edge(2usize, 3usize);
        let split = b.build().unwrap();
        assert!(!same_reachability(&d, &split));
        assert!(!same_reachability(&d, &generators::chain(5)));
        assert_eq!(ancestor_sets(&d), all_ancestors(&d));
    }

    #[test]
    fn removes_shortcut_edge() {
        // 0 -> 1 -> 2 plus the redundant shortcut 0 -> 2.
        let mut b = DagBuilder::new(3);
        b.add_edge(0usize, 1usize);
        b.add_edge(1usize, 2usize);
        b.add_edge(0usize, 2usize);
        let dag = b.build().unwrap();
        let red = transitive_reduction(&dag);
        assert_eq!(red.n_edges(), 2);
        assert!(!red.has_edge(NodeId(0), NodeId(2)));
        assert!(same_reachability(&dag, &red));
        assert_eq!(redundant_edge_count(&dag), 1);
    }

    #[test]
    fn keeps_diamond_intact() {
        let mut b = DagBuilder::new(4);
        b.add_edge(0usize, 1usize);
        b.add_edge(0usize, 2usize);
        b.add_edge(1usize, 3usize);
        b.add_edge(2usize, 3usize);
        let dag = b.build().unwrap();
        let red = transitive_reduction(&dag);
        assert_eq!(red, dag, "no edge of a diamond is redundant");
    }

    #[test]
    fn chain_and_fork_are_already_reduced() {
        for dag in [
            generators::chain(8),
            generators::fork(5),
            generators::grid(3, 3),
        ] {
            assert_eq!(transitive_reduction(&dag), dag);
        }
    }

    #[test]
    fn long_shortcuts_are_removed() {
        // chain 0..4 plus shortcuts 0->4, 1->3.
        let mut b = DagBuilder::new(5);
        for i in 1..5 {
            b.add_edge(i - 1, i);
        }
        b.add_edge(0usize, 4usize);
        b.add_edge(1usize, 3usize);
        let dag = b.build().unwrap();
        let red = transitive_reduction(&dag);
        assert_eq!(red, generators::chain(5));
    }

    proptest! {
        #[test]
        fn reduction_preserves_reachability_and_is_minimal(
            seed in 0u64..400, n in 1usize..40,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let dag = generators::layered_random(&mut rng, n, 4, 0.4);
            let red = transitive_reduction(&dag);
            prop_assert!(red.n_edges() <= dag.n_edges());
            prop_assert!(same_reachability(&dag, &red));
            // Minimality: removing ANY edge of the reduction changes
            // reachability.
            for (u, v) in red.edges() {
                let mut b = DagBuilder::new(n);
                for (a, c) in red.edges() {
                    if (a, c) != (u, v) {
                        b.add_edge(a, c);
                    }
                }
                let smaller = b.build().unwrap();
                prop_assert!(
                    !same_reachability(&red, &smaller),
                    "edge ({u}, {v}) was still redundant"
                );
            }
            // Idempotence.
            prop_assert_eq!(transitive_reduction(&red), red);
        }
    }
}
