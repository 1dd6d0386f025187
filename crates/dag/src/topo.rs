//! Topological orders: Kahn's algorithm, order validation, and exhaustive
//! enumeration of linear extensions (for brute-force optimal scheduling on
//! tiny DAGs).

use crate::error::DagError;
use crate::graph::{Dag, NodeId};

/// Returns a topological order of `dag` (smallest-id-first among ready
/// nodes, so the result is deterministic).
pub fn topological_order(dag: &Dag) -> Vec<NodeId> {
    let n = dag.n_nodes();
    let mut indeg: Vec<usize> = (0..n).map(|v| dag.in_degree(NodeId::from(v))).collect();
    // A binary heap of Reverse(id) would work; with dense ids a sorted Vec
    // used as a min-stack is simpler and fast enough.
    let mut ready: Vec<NodeId> = dag.sources();
    ready.sort_unstable_by(|a, b| b.cmp(a)); // max-at-front so pop() yields min
    let mut order = Vec::with_capacity(n);
    while let Some(v) = ready.pop() {
        order.push(v);
        for &w in dag.succs(v) {
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                let pos = ready.binary_search_by(|x| w.cmp(x)).unwrap_or_else(|p| p);
                ready.insert(pos, w);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "Dag invariant guarantees acyclicity");
    order
}

/// Checks that `order` is a permutation of the node ids that respects every
/// precedence constraint of `dag`.
pub fn validate_order(dag: &Dag, order: &[NodeId]) -> Result<(), DagError> {
    let n = dag.n_nodes();
    if order.len() != n {
        return Err(DagError::NotAPermutation);
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        if v.index() >= n || pos[v.index()] != usize::MAX {
            return Err(DagError::NotAPermutation);
        }
        pos[v.index()] = i;
    }
    for (u, v) in dag.edges() {
        if pos[u.index()] > pos[v.index()] {
            return Err(DagError::PrecedenceViolated(u, v));
        }
    }
    Ok(())
}

/// `true` when `order` is a valid linearization of `dag`.
pub fn is_topological_order(dag: &Dag, order: &[NodeId]) -> bool {
    validate_order(dag, order).is_ok()
}

/// Calls `f` on every linear extension (topological order) of `dag`.
///
/// The number of linear extensions grows factorially; callers must keep `n`
/// small (the brute-force optimum uses `n ≤ 9`). Returns the number of
/// orders visited. If `f` returns `false`, enumeration stops early.
pub fn for_each_linear_extension(dag: &Dag, mut f: impl FnMut(&[NodeId]) -> bool) -> u64 {
    let n = dag.n_nodes();
    let mut indeg: Vec<usize> = (0..n).map(|v| dag.in_degree(NodeId::from(v))).collect();
    let mut prefix: Vec<NodeId> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut count = 0u64;
    let mut stop = false;

    fn recurse(
        dag: &Dag,
        indeg: &mut [usize],
        used: &mut [bool],
        prefix: &mut Vec<NodeId>,
        count: &mut u64,
        stop: &mut bool,
        f: &mut impl FnMut(&[NodeId]) -> bool,
    ) {
        if *stop {
            return;
        }
        let n = dag.n_nodes();
        if prefix.len() == n {
            *count += 1;
            if !f(prefix) {
                *stop = true;
            }
            return;
        }
        for v in 0..n {
            if used[v] || indeg[v] != 0 {
                continue;
            }
            let v = NodeId::from(v);
            used[v.index()] = true;
            prefix.push(v);
            for &w in dag.succs(v) {
                indeg[w.index()] -= 1;
            }
            recurse(dag, indeg, used, prefix, count, stop, f);
            for &w in dag.succs(v) {
                indeg[w.index()] += 1;
            }
            prefix.pop();
            used[v.index()] = false;
            if *stop {
                return;
            }
        }
    }

    recurse(
        dag,
        &mut indeg,
        &mut used,
        &mut prefix,
        &mut count,
        &mut stop,
        &mut f,
    );
    count
}

/// Counts the linear extensions of `dag` (factorial blow-up; tiny DAGs only).
pub fn count_linear_extensions(dag: &Dag) -> u64 {
    for_each_linear_extension(dag, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::DagBuilder;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn diamond() -> Dag {
        let mut b = DagBuilder::new(4);
        b.add_edge(0usize, 1usize);
        b.add_edge(0usize, 2usize);
        b.add_edge(1usize, 3usize);
        b.add_edge(2usize, 3usize);
        b.build().unwrap()
    }

    #[test]
    fn topo_order_of_diamond() {
        let d = diamond();
        let o = topological_order(&d);
        assert!(is_topological_order(&d, &o));
        assert_eq!(o[0], NodeId(0));
        assert_eq!(o[3], NodeId(3));
    }

    #[test]
    fn validate_rejects_bad_orders() {
        let d = diamond();
        let bad = vec![NodeId(1), NodeId(0), NodeId(2), NodeId(3)];
        assert_eq!(
            validate_order(&d, &bad).unwrap_err(),
            DagError::PrecedenceViolated(NodeId(0), NodeId(1))
        );
        let short = vec![NodeId(0)];
        assert_eq!(
            validate_order(&d, &short).unwrap_err(),
            DagError::NotAPermutation
        );
        let dup = vec![NodeId(0), NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(
            validate_order(&d, &dup).unwrap_err(),
            DagError::NotAPermutation
        );
    }

    #[test]
    fn diamond_has_two_linear_extensions() {
        assert_eq!(count_linear_extensions(&diamond()), 2);
    }

    #[test]
    fn chain_has_one_extension_antichain_has_factorial() {
        let chain = generators::chain(5);
        assert_eq!(count_linear_extensions(&chain), 1);
        let anti = DagBuilder::new(4).build().unwrap();
        assert_eq!(count_linear_extensions(&anti), 24);
    }

    #[test]
    fn enumeration_visits_only_valid_orders_and_stops_early() {
        let d = diamond();
        let mut seen = 0;
        let visited = for_each_linear_extension(&d, |o| {
            assert!(is_topological_order(&d, o));
            seen += 1;
            seen < 1 // stop after the first
        });
        assert_eq!(visited, 1);
    }

    #[test]
    fn fork_and_join_have_factorial_extensions() {
        // The k leaves of a fork (sources of a join) are free to permute.
        for (k, fact) in [(1, 1u64), (3, 6), (5, 120)] {
            assert_eq!(count_linear_extensions(&generators::fork(k)), fact);
            assert_eq!(count_linear_extensions(&generators::join(k)), fact);
        }
    }

    proptest! {
        #[test]
        fn kahn_output_is_always_valid(seed in 0u64..500, n in 1usize..40) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = generators::layered_random(&mut rng, n, 4, 0.3);
            let o = topological_order(&d);
            prop_assert!(is_topological_order(&d, &o));
        }

        #[test]
        fn reversed_order_is_a_linearization_of_the_reversed_dag(
            seed in 0u64..200,
            n in 1usize..40,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = generators::layered_random(&mut rng, n, 4, 0.3);
            let mut o = topological_order(&d);
            o.reverse();
            prop_assert!(is_topological_order(&d.reversed(), &o));
        }

        #[test]
        fn extension_count_matches_manual_small(seed in 0u64..50) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = generators::layered_random(&mut rng, 6, 3, 0.4);
            let mut orders = std::collections::HashSet::new();
            for_each_linear_extension(&d, |o| {
                orders.insert(o.to_vec());
                true
            });
            prop_assert_eq!(orders.len() as u64, count_linear_extensions(&d));
        }
    }
}
