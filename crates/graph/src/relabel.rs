//! Port relabeling.
//!
//! The model places no correlation between the ports of an edge and none
//! across rounds: when the adversary rebuilds the topology it may also pick
//! fresh port labels. These helpers permute the labels of an existing graph
//! while preserving its topology — the Theorem 1 trap adversary relies on
//! this to defeat deterministic local rules.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{NodeId, Port, PortLabeledGraph};

/// Applies per-node port permutations: `perms[v]` maps old zero-based port
/// index to new zero-based port index. Nodes absent from `perms` (or with an
/// identity entry) keep their labels.
///
/// # Panics
///
/// Panics if a supplied permutation has the wrong length or is not a
/// permutation of `0..δ(v)`.
pub fn apply_port_permutations(
    g: &PortLabeledGraph,
    perms: &[(NodeId, Vec<usize>)],
) -> PortLabeledGraph {
    let n = g.node_count();
    // new_index[v][old] = new
    let mut new_index: Vec<Vec<usize>> = g.nodes().map(|v| (0..g.degree(v)).collect()).collect();
    for (v, perm) in perms {
        let deg = g.degree(*v);
        assert_eq!(perm.len(), deg, "permutation length must equal degree");
        let mut seen = vec![false; deg];
        for &t in perm {
            assert!(t < deg && !seen[t], "not a permutation of 0..degree");
            seen[t] = true;
        }
        new_index[v.index()] = perm.clone();
    }
    let mut adj: Vec<Vec<(NodeId, Port)>> = (0..n)
        .map(|vi| vec![(NodeId::new(0), Port::new(1)); g.degree(NodeId::new(vi as u32))])
        .collect();
    for v in g.nodes() {
        for (p, w, q) in g.neighbors(v) {
            let np = new_index[v.index()][p.index()];
            let nq = new_index[w.index()][q.index()];
            adj[v.index()][np] = (w, Port::from_index(nq));
        }
    }
    PortLabeledGraph::from_adjacency(adj).expect("permutation preserves validity")
}

/// Uniformly random relabeling of every node's ports.
pub fn random_relabel(g: &PortLabeledGraph, seed: u64) -> PortLabeledGraph {
    let mut scratch = RelabelScratch::default();
    let mut out = g.clone();
    random_relabel_into(g, seed, &mut scratch, &mut out);
    out
}

/// Reusable buffers for [`random_relabel_into`]: one flat permutation
/// array aligned with the source graph's half-edge rows.
#[derive(Clone, Debug, Default)]
pub struct RelabelScratch {
    /// `new_index[offsets[v] + old] = new` port index within `v`'s row.
    new_index: Vec<u32>,
}

/// [`random_relabel`] into an existing graph, overwriting its storage in
/// place; warm calls perform no allocation. Draws the identical RNG
/// sequence as `random_relabel` (one per-row shuffle per node, in node
/// order), so the two produce byte-identical graphs for the same seed.
///
/// `out` must be a different object than `g`; its prior contents are
/// irrelevant.
pub fn random_relabel_into(
    g: &PortLabeledGraph,
    seed: u64,
    scratch: &mut RelabelScratch,
    out: &mut PortLabeledGraph,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (src_offsets, src_adj) = g.csr_parts();
    let n = g.node_count();
    // Per-node uniformly random permutations, row-aligned with the CSR.
    let perm = &mut scratch.new_index;
    perm.clear();
    perm.resize(src_adj.len(), 0);
    for vi in 0..n {
        let row = &mut perm[src_offsets[vi] as usize..src_offsets[vi + 1] as usize];
        for (i, slot) in row.iter_mut().enumerate() {
            *slot = i as u32;
        }
        row.shuffle(&mut rng);
    }
    // Apply: half-edge (v, p) -> (w, q) lands at v's new slot perm[p],
    // carrying w's new label for q.
    let (offsets, adj, m) = out.csr_parts_mut();
    offsets.clear();
    offsets.extend_from_slice(src_offsets);
    adj.clear();
    adj.resize(src_adj.len(), (NodeId::new(0), Port::new(1)));
    for vi in 0..n {
        let base = src_offsets[vi] as usize;
        let end = src_offsets[vi + 1] as usize;
        for (pi, &(w, q)) in src_adj[base..end].iter().enumerate() {
            let np = perm[base + pi] as usize;
            let nq = perm[src_offsets[w.index()] as usize + q.index()];
            adj[base + np] = (w, Port::from_index(nq as usize));
        }
    }
    *m = g.edge_count();
}

/// Swaps two port labels at one node.
///
/// # Panics
///
/// Panics if either port exceeds the node's degree.
pub fn swap_ports(g: &PortLabeledGraph, v: NodeId, a: Port, b: Port) -> PortLabeledGraph {
    let deg = g.degree(v);
    assert!(a.index() < deg && b.index() < deg, "port out of range");
    let mut perm: Vec<usize> = (0..deg).collect();
    perm.swap(a.index(), b.index());
    apply_port_permutations(g, &[(v, perm)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn same_topology(a: &PortLabeledGraph, b: &PortLabeledGraph) -> bool {
        a.node_count() == b.node_count()
            && a.edge_count() == b.edge_count()
            && a.edges().all(|e| b.has_edge(e.u, e.v))
    }

    #[test]
    fn random_relabel_into_matches_allocating_form() {
        let g = generators::random_connected(20, 0.15, 9).unwrap();
        let mut scratch = RelabelScratch::default();
        let mut out = g.clone();
        for seed in 0..6 {
            random_relabel_into(&g, seed, &mut scratch, &mut out);
            assert_eq!(out, random_relabel(&g, seed), "seed {seed}");
            out.validate().unwrap();
        }
    }

    #[test]
    fn random_relabel_preserves_topology() {
        let g = generators::random_connected(15, 0.2, 1).unwrap();
        for seed in 0..5 {
            let h = random_relabel(&g, seed);
            h.validate().unwrap();
            assert!(same_topology(&g, &h));
        }
    }

    #[test]
    fn swap_ports_swaps() {
        let g = generators::star(4).unwrap();
        let before_1 = g.neighbor_via(NodeId::new(0), Port::new(1)).unwrap().0;
        let before_3 = g.neighbor_via(NodeId::new(0), Port::new(3)).unwrap().0;
        let h = swap_ports(&g, NodeId::new(0), Port::new(1), Port::new(3));
        assert_eq!(
            h.neighbor_via(NodeId::new(0), Port::new(1)).unwrap().0,
            before_3
        );
        assert_eq!(
            h.neighbor_via(NodeId::new(0), Port::new(3)).unwrap().0,
            before_1
        );
        h.validate().unwrap();
    }

    #[test]
    fn identity_permutation_is_noop() {
        let g = generators::cycle(5).unwrap();
        let h = apply_port_permutations(&g, &[]);
        assert_eq!(g, h);
    }

    #[test]
    #[should_panic(expected = "permutation length")]
    fn wrong_length_rejected() {
        let g = generators::path(3).unwrap();
        let _ = apply_port_permutations(&g, &[(NodeId::new(1), vec![0])]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn non_permutation_rejected() {
        let g = generators::path(3).unwrap();
        let _ = apply_port_permutations(&g, &[(NodeId::new(1), vec![0, 0])]);
    }
}
