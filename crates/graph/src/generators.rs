//! Shape constructors for port-labeled graphs.
//!
//! All generators return connected graphs with canonical port labelings
//! (ports assigned in edge-insertion order). Adversaries may permute labels
//! afterwards via [`crate::relabel`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{GraphBuilder, GraphError, NodeId, PortLabeledGraph};

/// A path `0 − 1 − … − (n−1)`.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for `n = 0`.
pub fn path(n: usize) -> Result<PortLabeledGraph, GraphError> {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId::new(i as u32 - 1), NodeId::new(i as u32))?;
    }
    b.build()
}

/// A cycle over `n ≥ 3` nodes.
///
/// # Errors
///
/// Returns an error for `n < 3` (a 2-cycle would be a parallel edge).
pub fn cycle(n: usize) -> Result<PortLabeledGraph, GraphError> {
    if n < 3 {
        return Err(GraphError::DuplicateEdge {
            u: NodeId::new(0),
            v: NodeId::new((n.max(1) - 1) as u32),
        });
    }
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId::new(i as u32 - 1), NodeId::new(i as u32))?;
    }
    b.add_edge(NodeId::new(n as u32 - 1), NodeId::new(0))?;
    b.build()
}

/// A star with `center` 0 and leaves `1..n`.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for `n = 0`.
pub fn star(n: usize) -> Result<PortLabeledGraph, GraphError> {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId::new(0), NodeId::new(i as u32))?;
    }
    b.build()
}

/// The complete graph `K_n`.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for `n = 0`.
pub fn complete(n: usize) -> Result<PortLabeledGraph, GraphError> {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(NodeId::new(i as u32), NodeId::new(j as u32))?;
        }
    }
    b.build()
}

/// The complete bipartite graph `K_{a,b}` (left part `0..a`, right part
/// `a..a+b`).
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if either side is empty.
pub fn complete_bipartite(a: usize, b: usize) -> Result<PortLabeledGraph, GraphError> {
    if a == 0 || b == 0 {
        return Err(GraphError::Empty);
    }
    let mut builder = GraphBuilder::new(a + b);
    for i in 0..a {
        for j in 0..b {
            builder.add_edge(NodeId::new(i as u32), NodeId::new((a + j) as u32))?;
        }
    }
    builder.build()
}

/// A `rows × cols` grid; node `(r, c)` is index `r * cols + c`.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Result<PortLabeledGraph, GraphError> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::Empty);
    }
    let idx = |r: usize, c: usize| NodeId::new((r * cols + c) as u32);
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1))?;
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c))?;
            }
        }
    }
    b.build()
}

/// A wheel: cycle over `1..n` plus hub 0 connected to every rim node.
/// Requires `n ≥ 4`.
///
/// # Errors
///
/// Returns an error for `n < 4`.
pub fn wheel(n: usize) -> Result<PortLabeledGraph, GraphError> {
    if n < 4 {
        return Err(GraphError::Empty);
    }
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId::new(0), NodeId::new(i as u32))?;
    }
    for i in 1..n {
        let next = if i + 1 < n { i + 1 } else { 1 };
        b.add_edge(NodeId::new(i as u32), NodeId::new(next as u32))?;
    }
    b.build()
}

/// A lollipop: clique over `0..clique` with a path of `tail` extra nodes
/// hanging off node `clique − 1`.
///
/// # Errors
///
/// Returns an error if `clique == 0`.
pub fn lollipop(clique: usize, tail: usize) -> Result<PortLabeledGraph, GraphError> {
    if clique == 0 {
        return Err(GraphError::Empty);
    }
    let n = clique + tail;
    let mut b = GraphBuilder::new(n);
    for i in 0..clique {
        for j in (i + 1)..clique {
            b.add_edge(NodeId::new(i as u32), NodeId::new(j as u32))?;
        }
    }
    for t in 0..tail {
        b.add_edge(
            NodeId::new((clique - 1 + t) as u32),
            NodeId::new((clique + t) as u32),
        )?;
    }
    b.build()
}

/// A uniformly random labeled tree over `n` nodes (random Prüfer sequence).
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for `n = 0`.
pub fn random_tree(n: usize, seed: u64) -> Result<PortLabeledGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if n <= 2 {
        return path(n);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &x in &prufer {
        degree[x] += 1;
    }
    let mut b = GraphBuilder::new(n);
    let mut leaf_heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    let mut deg = degree;
    for &x in &prufer {
        let std::cmp::Reverse(leaf) = leaf_heap.pop().expect("tree invariant");
        b.add_edge(NodeId::new(leaf as u32), NodeId::new(x as u32))?;
        deg[leaf] -= 1;
        deg[x] -= 1;
        if deg[x] == 1 {
            leaf_heap.push(std::cmp::Reverse(x));
        }
    }
    let std::cmp::Reverse(u) = leaf_heap.pop().expect("two leaves remain");
    let std::cmp::Reverse(v) = leaf_heap.pop().expect("two leaves remain");
    b.add_edge(NodeId::new(u as u32), NodeId::new(v as u32))?;
    b.build()
}

/// A random connected graph: a random spanning tree plus each remaining
/// pair independently with probability `extra_edge_prob`.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for `n = 0`.
///
/// # Panics
///
/// Panics if `extra_edge_prob` is not within `[0, 1]`.
pub fn random_connected(
    n: usize,
    extra_edge_prob: f64,
    seed: u64,
) -> Result<PortLabeledGraph, GraphError> {
    let mut scratch = RandomGraphScratch::default();
    let mut out = crate::PortLabeledGraph::from_adjacency(vec![Vec::new()])
        .expect("single isolated node is valid");
    random_connected_into(n, extra_edge_prob, seed, &mut scratch, &mut out)?;
    Ok(out)
}

/// Reusable buffers for [`random_connected_into`]: the edge-insertion
/// builder, the spanning-tree permutation and the pair-membership bitset.
#[derive(Clone, Debug)]
pub struct RandomGraphScratch {
    order: Vec<usize>,
    builder: GraphBuilder,
    /// `n × n` bits, bit `u · n + v` set for each spanning-tree edge
    /// `u < v`, so the pair loop tests membership in O(1) instead of
    /// scanning a builder row.
    adjacent: Vec<u64>,
}

impl Default for RandomGraphScratch {
    fn default() -> Self {
        RandomGraphScratch {
            order: Vec::new(),
            builder: GraphBuilder::new(0),
            adjacent: Vec::new(),
        }
    }
}

/// Bit `u · n + v` of an `n × n` bitset.
fn bit(n: usize, u: usize, v: usize) -> (usize, u64) {
    let i = u * n + v;
    (i / 64, 1 << (i % 64))
}

/// [`random_connected`] into an existing graph, overwriting its storage
/// in place; warm calls with a stable `n` perform no allocation beyond
/// what the edge set's variance forces on the buffers. Draws the
/// identical RNG sequence as `random_connected`, so the two produce
/// byte-identical graphs for the same seed.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for `n = 0`. On error the destination's
/// contents are unspecified.
///
/// # Panics
///
/// Panics if `extra_edge_prob` is not within `[0, 1]`.
pub fn random_connected_into(
    n: usize,
    extra_edge_prob: f64,
    seed: u64,
    scratch: &mut RandomGraphScratch,
    out: &mut PortLabeledGraph,
) -> Result<(), GraphError> {
    assert!(
        (0.0..=1.0).contains(&extra_edge_prob),
        "probability must be in [0, 1]"
    );
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Random spanning tree: random permutation, attach each node to a random
    // earlier node.
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..n);
    order.shuffle(&mut rng);
    let b = &mut scratch.builder;
    b.reset(n);
    let extra = extra_edge_prob > 0.0;
    let adjacent = &mut scratch.adjacent;
    if extra {
        adjacent.clear();
        adjacent.resize((n * n).div_ceil(64), 0);
    }
    for i in 1..n {
        let j = rng.random_range(0..i);
        let (u, v) = (order[i], order[j]);
        // `order[i]` is not attached yet, so the edge is new.
        b.push_auto_edge(NodeId::new(u as u32), NodeId::new(v as u32));
        if extra {
            let (word, mask) = bit(n, u.min(v), u.max(v));
            adjacent[word] |= mask;
        }
    }
    if extra {
        // Each pair is visited once, so only the tree edges can already
        // be present.
        for u in 0..n {
            for v in (u + 1)..n {
                let (word, mask) = bit(n, u, v);
                if adjacent[word] & mask == 0 && rng.random_bool(extra_edge_prob) {
                    b.push_auto_edge(NodeId::new(u as u32), NodeId::new(v as u32));
                }
            }
        }
    }
    b.build_into(out)
}

/// A caterpillar: a spine path of `spine` nodes, each spine node carrying
/// `legs` pendant leaves.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Result<PortLabeledGraph, GraphError> {
    if spine == 0 {
        return Err(GraphError::Empty);
    }
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n);
    for i in 1..spine {
        b.add_edge(NodeId::new(i as u32 - 1), NodeId::new(i as u32))?;
    }
    for s in 0..spine {
        for l in 0..legs {
            b.add_edge(
                NodeId::new(s as u32),
                NodeId::new((spine + s * legs + l) as u32),
            )?;
        }
    }
    b.build()
}

/// The `d`-dimensional hypercube (`n = 2^d` nodes; nodes adjacent iff
/// their indices differ in exactly one bit). `d = 0` is the single-node
/// cube `Q_0`.
///
/// # Errors
///
/// Construction cannot fail for `d ≤ 20`; the `Result` mirrors the other
/// generators.
///
/// # Panics
///
/// Panics if `d > 20` (a million-node cube is a configuration mistake).
pub fn hypercube(d: u32) -> Result<PortLabeledGraph, GraphError> {
    assert!(d <= 20, "hypercube dimension too large");
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let w = v ^ (1 << bit);
            if v < w {
                b.add_edge(NodeId::new(v as u32), NodeId::new(w as u32))?;
            }
        }
    }
    b.build()
}

/// A complete binary tree with `n` nodes (heap indexing: node `i` has
/// children `2i+1`, `2i+2`).
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for `n = 0`.
pub fn binary_tree(n: usize) -> Result<PortLabeledGraph, GraphError> {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId::new(((i - 1) / 2) as u32), NodeId::new(i as u32))?;
    }
    b.build()
}

/// A `rows × cols` torus (grid with wraparound). Requires both dimensions
/// ≥ 3 so no parallel edges arise.
///
/// # Errors
///
/// Returns an error if either dimension is below 3.
pub fn torus(rows: usize, cols: usize) -> Result<PortLabeledGraph, GraphError> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::Empty);
    }
    let idx = |r: usize, c: usize| NodeId::new((r * cols + c) as u32);
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(idx(r, c), idx(r, (c + 1) % cols))?;
        }
    }
    for c in 0..cols {
        for r in 0..rows {
            b.add_edge(idx(r, c), idx((r + 1) % rows, c))?;
        }
    }
    b.build()
}

/// A barbell: two `clique`-cliques joined by a path of `bridge` nodes.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if `clique == 0`.
pub fn barbell(clique: usize, bridge: usize) -> Result<PortLabeledGraph, GraphError> {
    if clique == 0 {
        return Err(GraphError::Empty);
    }
    let n = 2 * clique + bridge;
    let mut b = GraphBuilder::new(n);
    for base in [0, clique + bridge] {
        for i in 0..clique {
            for j in (i + 1)..clique {
                b.add_edge(
                    NodeId::new((base + i) as u32),
                    NodeId::new((base + j) as u32),
                )?;
            }
        }
    }
    // Chain: last node of left clique — bridge nodes — first node of
    // right clique.
    let mut chain = vec![clique - 1];
    chain.extend(clique..clique + bridge);
    chain.push(clique + bridge);
    if n > 1 {
        for w in chain.windows(2) {
            if w[0] != w[1] {
                b.add_edge(NodeId::new(w[0] as u32), NodeId::new(w[1] as u32))?;
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;
    use crate::metrics;

    #[test]
    fn path_shape() {
        let g = path(6).unwrap();
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.max_degree(), 2);
        assert!(is_connected(&g));
        assert_eq!(metrics::diameter(&g), Some(5));
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert_eq!(metrics::diameter(&g), Some(3));
        assert!(cycle(2).is_err());
    }

    #[test]
    fn star_shape() {
        let g = star(7).unwrap();
        assert_eq!(g.degree(NodeId::new(0)), 6);
        assert!(g.nodes().skip(1).all(|v| g.degree(v) == 1));
        assert_eq!(metrics::diameter(&g), Some(2));
    }

    #[test]
    fn complete_shape() {
        let g = complete(5).unwrap();
        assert_eq!(g.edge_count(), 10);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(metrics::diameter(&g), Some(1));
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(2, 3).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(NodeId::new(0)), 3);
        assert_eq!(g.degree(NodeId::new(4)), 2);
        assert!(complete_bipartite(0, 3).is_err());
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert_eq!(metrics::diameter(&g), Some(5));
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(6).unwrap();
        assert_eq!(g.degree(NodeId::new(0)), 5);
        assert!(g.nodes().skip(1).all(|v| g.degree(v) == 3));
        assert!(wheel(3).is_err());
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 3).unwrap();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6 + 3);
        assert!(is_connected(&g));
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(3, 2).unwrap();
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.edge_count(), 8);
        assert!(is_connected(&g));
    }

    #[test]
    fn random_tree_is_tree() {
        for seed in 0..10 {
            let g = random_tree(17, seed).unwrap();
            assert_eq!(g.edge_count(), 16);
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn random_tree_small_sizes() {
        assert_eq!(random_tree(1, 0).unwrap().node_count(), 1);
        assert_eq!(random_tree(2, 0).unwrap().edge_count(), 1);
        assert_eq!(random_tree(3, 0).unwrap().edge_count(), 2);
    }

    #[test]
    fn random_tree_deterministic_per_seed() {
        let a = random_tree(20, 42).unwrap();
        let b = random_tree(20, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn random_connected_is_connected_and_seeded() {
        for seed in 0..10 {
            let g = random_connected(25, 0.1, seed).unwrap();
            assert!(is_connected(&g));
            assert!(g.edge_count() >= 24);
            g.validate().unwrap();
        }
        let a = random_connected(25, 0.1, 7).unwrap();
        let b = random_connected(25, 0.1, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn random_connected_into_matches_allocating_form() {
        let mut scratch = RandomGraphScratch::default();
        let mut out = path(1).unwrap();
        for seed in 0..6 {
            random_connected_into(25, 0.1, seed, &mut scratch, &mut out).unwrap();
            assert_eq!(out, random_connected(25, 0.1, seed).unwrap(), "seed {seed}");
            out.validate().unwrap();
        }
        // Reuse across differing n keeps working.
        random_connected_into(8, 0.3, 1, &mut scratch, &mut out).unwrap();
        assert_eq!(out, random_connected(8, 0.3, 1).unwrap());
    }

    #[test]
    fn random_connected_zero_prob_is_tree() {
        let g = random_connected(30, 0.0, 3).unwrap();
        assert_eq!(g.edge_count(), 29);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn random_connected_rejects_bad_prob() {
        let _ = random_connected(5, 1.5, 0);
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(3).unwrap();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 12);
        assert!(g.nodes().all(|v| g.degree(v) == 3));
        assert_eq!(metrics::diameter(&g), Some(3));
        assert_eq!(hypercube(0).unwrap().node_count(), 1);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert!(is_connected(&g));
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.degree(NodeId::new(6)), 1);
        assert_eq!(metrics::diameter(&g), Some(4));
    }

    #[test]
    fn torus_shape() {
        let g = torus(3, 4).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 24);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(torus(2, 4).is_err());
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 2).unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 6 + 6 + 3);
        assert!(is_connected(&g));
        // Bridgeless barbell: two cliques sharing one edge path of len 1.
        let g2 = barbell(3, 0).unwrap();
        assert!(is_connected(&g2));
        assert_eq!(g2.node_count(), 6);
    }
}
