//! The immutable [`Dag`] type and its [`DagBuilder`].

use crate::error::DagError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense node identifier (`0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize`, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node id overflows u32"))
    }
}

/// An immutable directed acyclic graph over nodes `0..n`.
///
/// Construction goes through [`DagBuilder`], which validates endpoints,
/// rejects self-loops and duplicate edges, and proves acyclicity. Adjacency
/// lists are stored sorted, so iteration order is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
    n_edges: usize,
}

impl Dag {
    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.preds.len()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Direct predecessors of `v`, sorted by id.
    #[inline]
    pub fn preds(&self, v: NodeId) -> &[NodeId] {
        &self.preds[v.index()]
    }

    /// Direct successors of `v`, sorted by id.
    #[inline]
    pub fn succs(&self, v: NodeId) -> &[NodeId] {
        &self.succs[v.index()]
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.preds[v.index()].len()
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.succs[v.index()].len()
    }

    /// `true` when the edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.succs[u.index()].binary_search(&v).is_ok()
    }

    /// Iterates over all node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n_nodes()).map(NodeId::from)
    }

    /// Iterates over all edges `(pred, succ)` in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.succs(u).iter().map(move |&v| (u, v)))
    }

    /// Entry tasks: nodes without predecessors.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.in_degree(v) == 0).collect()
    }

    /// Exit tasks: nodes without successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.out_degree(v) == 0).collect()
    }

    /// Returns the reversed DAG (every edge flipped).
    pub fn reversed(&self) -> Dag {
        Dag {
            preds: self.succs.clone(),
            succs: self.preds.clone(),
            n_edges: self.n_edges,
        }
    }
}

/// Incremental builder for [`Dag`].
#[derive(Debug, Clone, Default)]
pub struct DagBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// Starts a builder with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        DagBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes currently declared.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Appends a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from(self.n);
        self.n += 1;
        id
    }

    /// Appends `k` fresh nodes and returns their ids.
    pub fn add_nodes(&mut self, k: usize) -> Vec<NodeId> {
        (0..k).map(|_| self.add_node()).collect()
    }

    /// Records the dependency edge `u -> v` (output of `u` feeds `v`).
    ///
    /// Endpoint validation is deferred to [`DagBuilder::build`], so edges may
    /// be added before all nodes exist only if ids were obtained elsewhere.
    pub fn add_edge(&mut self, u: impl Into<NodeId>, v: impl Into<NodeId>) -> &mut Self {
        self.edges.push((u.into(), v.into()));
        self
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    ///
    /// [`DagError::NodeOutOfRange`], [`DagError::SelfLoop`],
    /// [`DagError::DuplicateEdge`], or [`DagError::Cycle`].
    pub fn build(self) -> Result<Dag, DagError> {
        let n = self.n;
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(u, v) in &self.edges {
            for w in [u, v] {
                if w.index() >= n {
                    return Err(DagError::NodeOutOfRange { node: w, n });
                }
            }
            if u == v {
                return Err(DagError::SelfLoop(u));
            }
            succs[u.index()].push(v);
            preds[v.index()].push(u);
        }
        for list in preds.iter_mut().chain(succs.iter_mut()) {
            list.sort_unstable();
        }
        for (u, list) in succs.iter().enumerate() {
            if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
                return Err(DagError::DuplicateEdge(NodeId::from(u), w[0]));
            }
        }
        let dag = Dag {
            preds,
            succs,
            n_edges: self.edges.len(),
        };
        if let Some(cycle) = find_cycle(&dag) {
            return Err(DagError::Cycle(cycle));
        }
        Ok(dag)
    }
}

/// Returns one cycle if the graph (viewed as directed) contains any.
fn find_cycle(dag: &Dag) -> Option<Vec<NodeId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let n = dag.n_nodes();
    let mut mark = vec![Mark::White; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    for start in 0..n {
        if mark[start] != Mark::White {
            continue;
        }
        // Iterative DFS with an explicit stack of (node, next-succ-index).
        let mut stack: Vec<(NodeId, usize)> = vec![(NodeId::from(start), 0)];
        mark[start] = Mark::Grey;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < dag.out_degree(v) {
                let w = dag.succs(v)[*next];
                *next += 1;
                match mark[w.index()] {
                    Mark::White => {
                        mark[w.index()] = Mark::Grey;
                        parent[w.index()] = Some(v);
                        stack.push((w, 0));
                    }
                    Mark::Grey => {
                        // Found a back edge v -> w: reconstruct the cycle.
                        let mut cycle = vec![v];
                        let mut cur = v;
                        while cur != w {
                            cur = parent[cur.index()].expect("grey node has a parent");
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Mark::Black => {}
                }
            } else {
                mark[v.index()] = Mark::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example DAG of the paper's Figure 1: 8 tasks, edges
    /// T0->{T1,T2,T3}, T1->T7? — the figure shows T0 at the top feeding
    /// T1, T2 and T3; T3->T4? Reconstructed conservatively as used throughout
    /// the workspace tests: see `fixtures::paper_figure1`.
    pub fn diamond() -> Dag {
        let mut b = DagBuilder::new(4);
        b.add_edge(0usize, 1usize);
        b.add_edge(0usize, 2usize);
        b.add_edge(1usize, 3usize);
        b.add_edge(2usize, 3usize);
        b.build().unwrap()
    }

    #[test]
    fn builds_diamond() {
        let d = diamond();
        assert_eq!(d.n_nodes(), 4);
        assert_eq!(d.n_edges(), 4);
        assert_eq!(d.preds(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(d.succs(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(d.sources(), vec![NodeId(0)]);
        assert_eq!(d.sinks(), vec![NodeId(3)]);
        assert!(d.has_edge(NodeId(0), NodeId(1)));
        assert!(!d.has_edge(NodeId(1), NodeId(0)));
    }

    #[test]
    fn edges_iterates_lexicographically() {
        let d = diamond();
        let e: Vec<_> = d.edges().map(|(u, v)| (u.0, v.0)).collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn reversed_swaps_adjacency() {
        let d = diamond().reversed();
        assert_eq!(d.sources(), vec![NodeId(3)]);
        assert_eq!(d.sinks(), vec![NodeId(0)]);
        assert!(d.has_edge(NodeId(3), NodeId(1)));
    }

    #[test]
    fn reversing_twice_restores_the_graph() {
        let d = crate::generators::paper_figure1();
        let r = d.reversed();
        assert_eq!(r.n_edges(), d.n_edges());
        assert_eq!(r.sources(), d.sinks());
        assert_eq!(r.sinks(), d.sources());
        for v in d.nodes() {
            assert_eq!(r.in_degree(v), d.out_degree(v));
            assert_eq!(r.out_degree(v), d.in_degree(v));
        }
        assert_eq!(r.reversed(), d);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = DagBuilder::new(2);
        b.add_edge(0usize, 5usize);
        assert_eq!(
            b.build().unwrap_err(),
            DagError::NodeOutOfRange {
                node: NodeId(5),
                n: 2
            }
        );
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = DagBuilder::new(2);
        b.add_edge(1usize, 1usize);
        assert_eq!(b.build().unwrap_err(), DagError::SelfLoop(NodeId(1)));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = DagBuilder::new(2);
        b.add_edge(0usize, 1usize);
        b.add_edge(0usize, 1usize);
        assert_eq!(
            b.build().unwrap_err(),
            DagError::DuplicateEdge(NodeId(0), NodeId(1))
        );
    }

    #[test]
    fn rejects_two_cycle() {
        let mut b = DagBuilder::new(2);
        b.add_edge(0usize, 1usize);
        b.add_edge(1usize, 0usize);
        match b.build().unwrap_err() {
            DagError::Cycle(c) => assert_eq!(c.len(), 2),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn rejects_long_cycle_and_reports_witness() {
        let mut b = DagBuilder::new(5);
        b.add_edge(0usize, 1usize);
        b.add_edge(1usize, 2usize);
        b.add_edge(2usize, 3usize);
        b.add_edge(3usize, 1usize); // 1 -> 2 -> 3 -> 1
        b.add_edge(3usize, 4usize);
        match b.build().unwrap_err() {
            DagError::Cycle(c) => {
                assert_eq!(c.len(), 3);
                // Witness must actually be a cycle.
                let ids: Vec<u32> = c.iter().map(|v| v.0).collect();
                assert!(ids.contains(&1) && ids.contains(&2) && ids.contains(&3));
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let d = DagBuilder::new(0).build().unwrap();
        assert_eq!(d.n_nodes(), 0);
        assert_eq!(d.sources(), Vec::<NodeId>::new());
    }

    #[test]
    fn isolated_nodes_are_sources_and_sinks() {
        let d = DagBuilder::new(3).build().unwrap();
        assert_eq!(d.sources().len(), 3);
        assert_eq!(d.sinks().len(), 3);
    }

    #[test]
    fn add_nodes_returns_sequential_ids() {
        let mut b = DagBuilder::new(0);
        let ids = b.add_nodes(3);
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(b.add_node(), NodeId(3));
    }

    #[test]
    fn node_id_display_and_index() {
        let v = NodeId(42);
        assert_eq!(v.to_string(), "42");
        assert_eq!(v.index(), 42);
        assert_eq!(NodeId::from(7usize), NodeId(7));
    }
}
