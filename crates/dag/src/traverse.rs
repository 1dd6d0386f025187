//! Reachability closures, level decomposition, critical paths, and the
//! weight aggregates used as scheduling priorities.

use crate::bitset::FixedBitSet;
use crate::graph::{Dag, NodeId};

/// Set of strict ancestors of `v` (nodes with a directed path to `v`).
pub fn ancestors(dag: &Dag, v: NodeId) -> FixedBitSet {
    let mut set = FixedBitSet::new(dag.n_nodes());
    let mut stack: Vec<NodeId> = dag.preds(v).to_vec();
    while let Some(u) = stack.pop() {
        if set.insert(u.index()) {
            stack.extend_from_slice(dag.preds(u));
        }
    }
    set
}

/// Set of strict descendants of `v` (nodes reachable from `v`).
pub fn descendants(dag: &Dag, v: NodeId) -> FixedBitSet {
    let mut set = FixedBitSet::new(dag.n_nodes());
    let mut stack: Vec<NodeId> = dag.succs(v).to_vec();
    while let Some(u) = stack.pop() {
        if set.insert(u.index()) {
            stack.extend_from_slice(dag.succs(u));
        }
    }
    set
}

/// Ancestor closure for every node, computed in one topological sweep.
///
/// `result[v]` contains exactly the strict ancestors of `v`. Cost is
/// `O(n²/64 · |E|)` in the worst case but cheap in practice for the sparse
/// workflow graphs this workspace deals with.
pub fn all_ancestors(dag: &Dag) -> Vec<FixedBitSet> {
    let n = dag.n_nodes();
    let order = crate::topo::topological_order(dag);
    let mut closure: Vec<FixedBitSet> = (0..n).map(|_| FixedBitSet::new(n)).collect();
    for &v in &order {
        // Clone-free double indexing: split via std::mem::take.
        for &p in dag.preds(v) {
            let pset = std::mem::take(&mut closure[p.index()]);
            closure[v.index()].union_with(&pset);
            closure[v.index()].insert(p.index());
            closure[p.index()] = pset;
        }
    }
    closure
}

/// Longest-path depth of every node: sources have level 0, and
/// `level[v] = 1 + max(level of predecessors)` otherwise.
pub fn levels(dag: &Dag) -> Vec<usize> {
    let order = crate::topo::topological_order(dag);
    let mut level = vec![0usize; dag.n_nodes()];
    for &v in &order {
        for &p in dag.preds(v) {
            level[v.index()] = level[v.index()].max(level[p.index()] + 1);
        }
    }
    level
}

/// Length (sum of node weights) and node sequence of a critical path —
/// a heaviest source-to-sink path.
pub fn critical_path(dag: &Dag, weight: &[f64]) -> (f64, Vec<NodeId>) {
    assert_eq!(weight.len(), dag.n_nodes(), "one weight per node required");
    let order = crate::topo::topological_order(dag);
    let n = dag.n_nodes();
    if n == 0 {
        return (0.0, Vec::new());
    }
    let mut best = vec![f64::NEG_INFINITY; n];
    let mut from: Vec<Option<NodeId>> = vec![None; n];
    for &v in &order {
        let mut incoming = 0.0f64;
        let mut best_pred: Option<NodeId> = None;
        for &p in dag.preds(v) {
            if best_pred.is_none() || best[p.index()] > incoming {
                incoming = best[p.index()];
                best_pred = Some(p);
            }
        }
        from[v.index()] = best_pred;
        best[v.index()] = incoming + weight[v.index()];
    }
    let end = (0..n)
        .max_by(|&a, &b| best[a].partial_cmp(&best[b]).expect("weights are finite"))
        .expect("n > 0");
    let mut path = vec![NodeId::from(end)];
    while let Some(p) = from[path.last().unwrap().index()] {
        path.push(p);
    }
    path.reverse();
    (best[end], path)
}

/// The paper's task priority: sum of the weights of the **direct**
/// successors of `v` ("outweight").
pub fn outweight(dag: &Dag, weight: &[f64], v: NodeId) -> f64 {
    dag.succs(v).iter().map(|&s| weight[s.index()]).sum()
}

/// Outweight of every node.
pub fn outweights(dag: &Dag, weight: &[f64]) -> Vec<f64> {
    dag.nodes().map(|v| outweight(dag, weight, v)).collect()
}

/// Total weight of all strict descendants of every node (an alternative,
/// deeper-looking priority used in the ablation study).
pub fn descendant_weights(dag: &Dag, weight: &[f64]) -> Vec<f64> {
    // dw[v] = Σ_{u ∈ desc(v)} w_u; a set-based closure is required to avoid
    // double-counting diamond descendants.
    let desc_sets: Vec<FixedBitSet> = all_ancestors(&dag.reversed());
    desc_sets
        .iter()
        .map(|s| s.iter().map(|u| weight[u]).sum())
        .collect()
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
    fn ancestors_of_diamond_sink() {
        let d = diamond();
        let a = ancestors(&d, NodeId(3));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(ancestors(&d, NodeId(0)).is_empty());
    }

    #[test]
    fn descendants_of_diamond_source() {
        let d = diamond();
        let s = descendants(&d, NodeId(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(descendants(&d, NodeId(3)).is_empty());
    }

    #[test]
    fn all_ancestors_matches_single_queries() {
        let mut rng = SmallRng::seed_from_u64(7);
        let d = generators::layered_random(&mut rng, 30, 5, 0.3);
        let all = all_ancestors(&d);
        for v in d.nodes() {
            assert_eq!(all[v.index()], ancestors(&d, v), "node {v}");
        }
    }

    #[test]
    fn levels_of_chain_and_diamond() {
        let c = generators::chain(4);
        assert_eq!(levels(&c), vec![0, 1, 2, 3]);
        assert_eq!(levels(&diamond()), vec![0, 1, 1, 2]);
    }

    #[test]
    fn critical_path_picks_heavier_branch() {
        let d = diamond();
        let (len, path) = critical_path(&d, &[1.0, 10.0, 2.0, 1.0]);
        assert_eq!(len, 12.0);
        assert_eq!(path, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn critical_path_of_chain_is_total_weight() {
        let c = generators::chain(5);
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        let (len, path) = critical_path(&c, &w);
        assert_eq!(len, 15.0);
        assert_eq!(path.len(), 5);
    }

    #[test]
    fn critical_path_empty_graph() {
        let d = DagBuilder::new(0).build().unwrap();
        let (len, path) = critical_path(&d, &[]);
        assert_eq!(len, 0.0);
        assert!(path.is_empty());
    }

    #[test]
    fn outweight_sums_direct_successors_only() {
        let d = diamond();
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(outweight(&d, &w, NodeId(0)), 5.0); // w1 + w2
        assert_eq!(outweight(&d, &w, NodeId(3)), 0.0);
        assert_eq!(outweights(&d, &w), vec![5.0, 4.0, 4.0, 0.0]);
    }

    #[test]
    fn descendant_weight_counts_diamond_once() {
        let d = diamond();
        let w = [1.0, 2.0, 3.0, 4.0];
        // descendants(0) = {1,2,3} => 9, not 13 (no double-count of 3).
        assert_eq!(descendant_weights(&d, &w), vec![9.0, 4.0, 4.0, 0.0]);
    }

    proptest! {
        #[test]
        fn ancestor_descendant_duality(seed in 0u64..200, n in 2usize..30) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = generators::layered_random(&mut rng, n, 4, 0.35);
            for v in d.nodes() {
                let anc = ancestors(&d, v);
                for u in anc.iter() {
                    prop_assert!(descendants(&d, NodeId::from(u)).contains(v.index()));
                }
            }
        }

        #[test]
        fn critical_path_is_a_heaviest_source_to_sink_path(
            seed in 0u64..200,
            n in 1usize..30,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = generators::layered_random(&mut rng, n, 4, 0.35);
            let w: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 + 0.5).collect();
            let (len, path) = critical_path(&d, &w);
            prop_assert!(d.in_degree(path[0]) == 0);
            prop_assert!(d.out_degree(*path.last().unwrap()) == 0);
            for pair in path.windows(2) {
                prop_assert!(d.has_edge(pair[0], pair[1]));
            }
            let along: f64 = path.iter().map(|v| w[v.index()]).sum();
            prop_assert!((along - len).abs() < 1e-9);
            // Independent check: the heaviest path ending at each node.
            let mut best = vec![0.0f64; n];
            for &v in &crate::topo::topological_order(&d) {
                let from = d
                    .preds(v)
                    .iter()
                    .map(|p| best[p.index()])
                    .fold(0.0, f64::max);
                best[v.index()] = from + w[v.index()];
            }
            let heaviest = best.iter().copied().fold(0.0, f64::max);
            prop_assert!((heaviest - len).abs() < 1e-9);
        }

        #[test]
        fn descendant_weights_sum_each_descendant_once(
            seed in 0u64..200,
            n in 1usize..30,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = generators::layered_random(&mut rng, n, 4, 0.35);
            let w: Vec<f64> = (0..n).map(|i| (i % 5) as f64 + 1.0).collect();
            let dw = descendant_weights(&d, &w);
            for v in d.nodes() {
                let direct: f64 = descendants(&d, v).iter().map(|u| w[u]).sum();
                prop_assert_eq!(dw[v.index()], direct);
            }
        }

        #[test]
        fn levels_respect_edges(seed in 0u64..200, n in 2usize..40) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = generators::layered_random(&mut rng, n, 5, 0.3);
            let lv = levels(&d);
            for (u, v) in d.edges() {
                prop_assert!(lv[u.index()] < lv[v.index()]);
            }
        }
    }
}
