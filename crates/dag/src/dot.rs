//! Graphviz DOT export.

use crate::bitset::FixedBitSet;
use crate::graph::{Dag, NodeId};
use std::fmt::Write as _;

/// Options controlling [`to_dot`] output.
#[derive(Debug, Clone, Default)]
pub struct DotOptions {
    /// Graph name (`digraph <name> { … }`); defaults to `workflow`.
    pub name: Option<String>,
    /// Nodes to draw shaded (the paper shades checkpointed tasks).
    pub shaded: Option<FixedBitSet>,
    /// Rank direction, e.g. `TB` (default) or `LR`.
    pub rankdir: Option<String>,
}

/// Renders `dag` as a Graphviz digraph. `label` maps each node to its label
/// (e.g. `|v| format!("T{v} (w={})", w[v.index()])`).
pub fn to_dot(dag: &Dag, label: impl Fn(NodeId) -> String, opts: &DotOptions) -> String {
    let mut out = String::new();
    let name = opts.name.as_deref().unwrap_or("workflow");
    writeln!(out, "digraph {name} {{").unwrap();
    if let Some(rd) = &opts.rankdir {
        writeln!(out, "  rankdir={rd};").unwrap();
    }
    writeln!(out, "  node [shape=circle];").unwrap();
    for v in dag.nodes() {
        let shaded = opts.shaded.as_ref().is_some_and(|s| s.contains(v.index()));
        let style = if shaded {
            ", style=filled, fillcolor=gray80"
        } else {
            ""
        };
        writeln!(out, "  n{} [label=\"{}\"{style}];", v.0, escape(&label(v))).unwrap();
    }
    for (u, v) in dag.edges() {
        writeln!(out, "  n{} -> n{};", u.0, v.0).unwrap();
    }
    writeln!(out, "}}").unwrap();
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let d = generators::paper_figure1();
        let mut opts = DotOptions::default();
        let mut shaded = FixedBitSet::new(8);
        shaded.insert(3);
        shaded.insert(4);
        opts.shaded = Some(shaded);
        let dot = to_dot(&d, |v| format!("T{v}"), &opts);
        assert!(dot.starts_with("digraph workflow {"));
        for v in 0..8 {
            assert!(dot.contains(&format!("n{v} [label=\"T{v}\"")), "{dot}");
        }
        assert!(dot.contains("n0 -> n3;"));
        assert!(dot.contains("n6 -> n7;"));
        // checkpointed tasks are shaded
        assert!(dot.contains("n3 [label=\"T3\", style=filled, fillcolor=gray80];"));
        assert!(!dot.contains("n0 [label=\"T0\", style=filled"));
    }

    #[test]
    fn default_options_draw_one_line_per_node_and_edge() {
        let d = generators::fork_join(3);
        let dot = to_dot(&d, |v| v.to_string(), &DotOptions::default());
        assert!(dot.starts_with("digraph workflow {\n"), "{dot}");
        assert!(dot.ends_with("}\n"), "{dot}");
        assert!(!dot.contains("rankdir"), "{dot}");
        assert!(!dot.contains("style=filled"), "{dot}");
        assert_eq!(dot.matches(" [label=").count(), d.n_nodes());
        assert_eq!(dot.matches(" -> ").count(), d.n_edges());
    }

    #[test]
    fn dot_escapes_quotes_and_sets_rankdir() {
        let d = generators::chain(2);
        let opts = DotOptions {
            name: Some("g".into()),
            shaded: None,
            rankdir: Some("LR".into()),
        };
        let dot = to_dot(&d, |_| "a\"b\\c".into(), &opts);
        assert!(dot.contains("digraph g {"));
        assert!(dot.contains("rankdir=LR;"));
        assert!(dot.contains("a\\\"b\\\\c"));
    }
}
