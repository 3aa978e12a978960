//! Figure 3: connected components and spanning trees on the 15-node,
//! 17-edge, 14-robot worked example.
//!
//! Fig. 3(a) shows the placement, 3(b) the two components (green CG¹ and
//! red CG², computed identically by every member robot), 3(c) the two
//! spanning trees rooted at the smallest-ID multiplicity nodes.

use dispersion_bench::{banner, Table};
use dispersion_core::worked_example;

fn main() {
    banner(
        "F3",
        "Figure 3 (Section V worked example)",
        "14 robots on a 15-node, 17-edge G_r form components CG¹, CG² with\n\
         spanning trees rooted at their smallest-ID multiplicity nodes",
    );

    let ex = worked_example::build();
    println!(
        "G_r: {} nodes, {} edges; {} robots on {} occupied nodes\n",
        ex.graph.node_count(),
        ex.graph.edge_count(),
        ex.config.robot_count(),
        ex.config.occupied_count()
    );

    let comps = ex.components();
    assert_eq!(comps.len(), 2, "the figure shows exactly two components");

    let mut t = Table::new([
        "component",
        "nodes",
        "robots",
        "multiplicity node",
        "tree root",
    ]);
    for (label, comp) in [("CG¹ (green)", ex.green()), ("CG² (red)", ex.red())] {
        let tree = ex.tree_of(&comp);
        let robots: Vec<String> = comp
            .iter()
            .flat_map(|n| n.robots.iter().map(|r| r.get().to_string()))
            .collect();
        t.row([
            label.to_string(),
            comp.len().to_string(),
            robots.join(","),
            comp.root().expect("has multiplicity").to_string(),
            tree.root().to_string(),
        ]);
    }
    println!("{t}");
    println!();

    println!("spanning trees (parent ← child edges, DFS order):");
    for (label, comp) in [("ST¹", ex.green()), ("ST²", ex.red())] {
        let tree = ex.tree_of(&comp);
        let edges: Vec<String> = tree
            .preorder()
            .iter()
            .filter_map(|&id| tree.parent(id).map(|p| format!("{p}→{id}")))
            .collect();
        println!("  {label} (root {}): {}", tree.root(), edges.join("  "));
        tree.check_invariants(&comp);
    }
    println!();
    println!(
        "result: both components are reconstructed identically by every\n\
         member robot (Lemma 1), carry unique node IDs (Obs. 1), stay ≥ 2\n\
         hops apart (Obs. 2), and their trees span all component nodes\n\
         rooted at the smallest-ID multiplicity node (Obs. 3) — the\n\
         Fig. 3 pipeline. (The paper's exact figure adjacency is only\n\
         published as an image; this fixture reproduces its parameters and\n\
         every structural property the text asserts.)"
    );
}
