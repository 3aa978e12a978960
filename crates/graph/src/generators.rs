//! Shape constructors for port-labeled graphs.
//!
//! All generators return connected graphs with canonical port labelings
//! (ports assigned in edge-insertion order), except
//! [`random_connected_relabeled`], which draws uniformly random labels as
//! it writes the graph. Adversaries may permute labels afterwards via
//! [`crate::relabel`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use crate::{GraphBuilder, GraphError, NodeId, Port, PortLabeledGraph};

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
    // The CSR is written directly, with the labels `GraphBuilder` gives
    // edges inserted as (0, 1), (1, 2), …, (n−1, 0): every node reaches
    // its predecessor through port 1 and its successor through port 2,
    // except node 0, whose port 1 leads to node 1 and port 2 to n − 1.
    let mut out = PortLabeledGraph::placeholder();
    let (offsets, adj, m) = out.csr_parts_mut();
    offsets.clear();
    offsets.extend((0..=n as u32).map(|v| 2 * v));
    adj.clear();
    adj.reserve_exact(2 * n);
    let node = |v: usize| NodeId::new(v as u32);
    // The port at `u` leading to its neighbor `v`.
    let port_at = |u: usize, v: usize| {
        let first = if u == 0 { 1 } else { u - 1 };
        Port::new(if v == first { 1 } else { 2 })
    };
    for v in 0..n {
        let (p1, p2) = if v == 0 {
            (1, n - 1)
        } else {
            (v - 1, (v + 1) % n)
        };
        adj.push((node(p1), port_at(p1, v)));
        adj.push((node(p2), port_at(p2, v)));
    }
    *m = n;
    Ok(out)
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
    let mut out = PortLabeledGraph::placeholder();
    random_connected_into(
        n,
        extra_edge_prob,
        seed,
        &mut RandomGraphScratch::default(),
        &mut out,
    )?;
    Ok(out)
}

/// [`random_connected`] under uniformly random port labels: the graph
/// `relabel::random_relabel(&random_connected(n, p, seed)?, relabel_seed)`,
/// drawn without building the canonically labeled graph first.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for `n = 0`.
///
/// # Panics
///
/// Panics if `extra_edge_prob` is not within `[0, 1]`.
pub fn random_connected_relabeled(
    n: usize,
    extra_edge_prob: f64,
    seed: u64,
    relabel_seed: u64,
) -> Result<PortLabeledGraph, GraphError> {
    let mut out = PortLabeledGraph::placeholder();
    random_connected_relabeled_into(
        n,
        extra_edge_prob,
        seed,
        relabel_seed,
        &mut RandomGraphScratch::default(),
        &mut out,
    )?;
    Ok(out)
}

/// Reusable buffers of the random-connected-graph kernel behind
/// [`random_connected_into`] and [`random_connected_relabeled_into`].
///
/// The kernel draws an edge list `(u, v, port at u, port at v)` and then
/// writes the CSR directly, with no builder rows and no intermediate
/// graph.
#[derive(Clone, Debug, Default)]
pub struct RandomGraphScratch {
    /// Spanning-tree insertion order: a seeded shuffle of `0..n`.
    order: Vec<u32>,
    /// `n` rows of `⌈n / 64⌉` words: bit `v` of row `u` is set for each
    /// spanning-tree edge `u < v`.
    tree: Vec<u64>,
    /// The tree columns of the row being drawn, ascending.
    tree_cols: Vec<u32>,
    /// The row's extra-edge hits, as indices among its non-tree columns.
    hits: Vec<u32>,
    /// Running degree of every node: the next free zero-based port.
    degree: Vec<u32>,
    /// Every edge in insertion order: the tree's, then the extra edges
    /// row by row.
    edges: Vec<DrawnEdge>,
    /// Per-row port permutations of the relabeled emitter, aligned with
    /// the CSR rows: `perm[offsets[v] + old] = new`.
    perm: Vec<u32>,
}

/// One drawn edge with the zero-based port each endpoint gave it.
#[derive(Clone, Copy, Debug)]
struct DrawnEdge {
    u: u32,
    v: u32,
    port_u: u32,
    port_v: u32,
}

/// The integer form of [`rand::Rng::random_bool`]: a draw `x` succeeds
/// with probability `p` iff `(x >> 11) < bool_threshold(p)`.
///
/// `random_bool` tests `((x >> 11) as f64 / 2⁵³) < p`. Both sides are
/// exact in `f64` (`x >> 11 < 2⁵³`, and scaling by a power of two is
/// exact), so the test equals `(x >> 11) < p · 2⁵³` over the reals, and
/// for an integer left side that is `(x >> 11) < ⌈p · 2⁵³⌉`.
fn bool_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Appends edge `(u, v)` with the next free port at each endpoint: the
/// ports `GraphBuilder::add_edge` would assign in the same order.
fn push_edge(degree: &mut [u32], edges: &mut Vec<DrawnEdge>, u: u32, v: u32) {
    let port_u = degree[u as usize];
    let port_v = degree[v as usize];
    degree[u as usize] += 1;
    degree[v as usize] += 1;
    edges.push(DrawnEdge {
        u,
        v,
        port_u,
        port_v,
    });
}

/// The kernel's draw: fills `s.edges` and `s.degree` with the graph
/// [`random_connected`] defines, consuming the same RNG draws in the
/// same order — the shuffle and the tree's `random_range` draws, then
/// one draw per non-tree pair `u < v` in row-major order.
fn draw_edges(
    n: usize,
    extra_edge_prob: f64,
    seed: u64,
    s: &mut RandomGraphScratch,
) -> Result<(), GraphError> {
    assert!(
        (0.0..=1.0).contains(&extra_edge_prob),
        "probability must be in [0, 1]"
    );
    if n == 0 {
        return Err(GraphError::Empty);
    }
    assert!(n <= u32::MAX as usize, "node indices fit in u32");
    let mut rng = StdRng::seed_from_u64(seed);
    // Random spanning tree: random permutation, attach each node to a
    // random earlier node.
    s.order.clear();
    s.order.extend(0..n as u32);
    s.order.shuffle(&mut rng);
    s.degree.clear();
    s.degree.resize(n, 0);
    s.edges.clear();
    let extra = extra_edge_prob > 0.0;
    let stride = n.div_ceil(64);
    if extra {
        s.tree.clear();
        s.tree.resize(n * stride, 0);
    }
    for i in 1..n {
        let j = rng.random_range(0..i);
        let (u, v) = (s.order[i], s.order[j]);
        push_edge(&mut s.degree, &mut s.edges, u, v);
        if extra {
            let (lo, hi) = (u.min(v) as usize, u.max(v) as usize);
            s.tree[lo * stride + hi / 64] |= 1 << (hi % 64);
        }
    }
    if !extra {
        return Ok(());
    }
    let threshold = bool_threshold(extra_edge_prob);
    s.hits.clear();
    s.hits.resize(n, 0);
    // A row holds fewer than `n` tree columns; reserving them up front
    // keeps a warm call allocation-free whatever the tree's degrees.
    s.tree_cols.clear();
    s.tree_cols.reserve(n);
    for u in 0..n {
        s.tree_cols.clear();
        for (w, &word) in s.tree[u * stride..(u + 1) * stride].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                s.tree_cols.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        // One draw per non-tree column above the diagonal, in column
        // order; hits are compacted without a branch.
        let draws = n - 1 - u - s.tree_cols.len();
        let hits = &mut s.hits[..draws];
        let mut count = 0;
        for j in 0..draws {
            hits[count] = j as u32;
            count += usize::from((rng.next_u64() >> 11) < threshold);
        }
        // Hit `h` is the `h`-th non-tree column: skip the tree columns
        // at or below it.
        let mut skipped = 0;
        for &h in &hits[..count] {
            let mut col = u + 1 + h as usize + skipped;
            while s.tree_cols.get(skipped).is_some_and(|&t| t as usize <= col) {
                skipped += 1;
                col += 1;
            }
            push_edge(&mut s.degree, &mut s.edges, u as u32, col as u32);
        }
    }
    Ok(())
}

/// Writes the CSR offsets of the drawn degrees into `offsets` and sizes
/// `adj` to the half-edge count.
fn size_csr(degree: &[u32], offsets: &mut Vec<u32>, adj: &mut Vec<(NodeId, Port)>) {
    offsets.clear();
    offsets.push(0);
    let mut total = 0u32;
    for &d in degree {
        total += d;
        offsets.push(total);
    }
    adj.clear();
    adj.resize(total as usize, (NodeId::new(0), Port::new(1)));
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
    draw_edges(n, extra_edge_prob, seed, scratch)?;
    let (offsets, adj, m) = out.csr_parts_mut();
    size_csr(&scratch.degree, offsets, adj);
    for e in &scratch.edges {
        let (bu, bv) = (offsets[e.u as usize], offsets[e.v as usize]);
        adj[(bu + e.port_u) as usize] = (NodeId::new(e.v), Port::from_index(e.port_v as usize));
        adj[(bv + e.port_v) as usize] = (NodeId::new(e.u), Port::from_index(e.port_u as usize));
    }
    *m = scratch.edges.len();
    Ok(())
}

/// [`random_connected_relabeled`] into an existing graph, overwriting its
/// storage in place with the same allocation behaviour as
/// [`random_connected_into`].
///
/// After the draw, each node's port permutation is drawn in node order
/// from `relabel_seed`, exactly as [`crate::relabel::random_relabel_into`]
/// draws them over the canonically labeled graph, and both half-edges of
/// every edge are written straight to their relabeled slots.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for `n = 0`. On error the destination's
/// contents are unspecified.
///
/// # Panics
///
/// Panics if `extra_edge_prob` is not within `[0, 1]`.
pub fn random_connected_relabeled_into(
    n: usize,
    extra_edge_prob: f64,
    seed: u64,
    relabel_seed: u64,
    scratch: &mut RandomGraphScratch,
    out: &mut PortLabeledGraph,
) -> Result<(), GraphError> {
    draw_edges(n, extra_edge_prob, seed, scratch)?;
    let (offsets, adj, m) = out.csr_parts_mut();
    size_csr(&scratch.degree, offsets, adj);
    let mut rng = StdRng::seed_from_u64(relabel_seed);
    let perm = &mut scratch.perm;
    perm.clear();
    perm.resize(adj.len(), 0);
    for row in offsets.windows(2) {
        let row = &mut perm[row[0] as usize..row[1] as usize];
        for (i, slot) in row.iter_mut().enumerate() {
            *slot = i as u32;
        }
        row.shuffle(&mut rng);
    }
    for e in &scratch.edges {
        let (bu, bv) = (offsets[e.u as usize], offsets[e.v as usize]);
        let port_u = perm[(bu + e.port_u) as usize];
        let port_v = perm[(bv + e.port_v) as usize];
        adj[(bu + port_u) as usize] = (NodeId::new(e.v), Port::from_index(port_v as usize));
        adj[(bv + port_v) as usize] = (NodeId::new(e.u), Port::from_index(port_u as usize));
    }
    *m = scratch.edges.len();
    Ok(())
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
    fn cycle_matches_its_edge_insertion_labels() {
        for n in 3..40 {
            let mut b = GraphBuilder::new(n);
            for i in 1..n {
                b.add_edge(NodeId::new(i as u32 - 1), NodeId::new(i as u32))
                    .unwrap();
            }
            b.add_edge(NodeId::new(n as u32 - 1), NodeId::new(0))
                .unwrap();
            let g = cycle(n).unwrap();
            g.validate().unwrap();
            assert_eq!(g, b.build().unwrap(), "n = {n}");
        }
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

    /// The generator as it was before the fused kernel: `add_edge` rows in
    /// the kernel's draw order, a `random_bool` per non-tree pair, then
    /// `GraphBuilder::build`. The differential reference for both
    /// emitters.
    fn reference_connected(n: usize, p: f64, seed: u64) -> PortLabeledGraph {
        let node = |i: usize| NodeId::new(i as u32);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut b = GraphBuilder::new(n);
        let mut tree = vec![false; n * n];
        for i in 1..n {
            let j = rng.random_range(0..i);
            let (u, v) = (order[i], order[j]);
            b.add_edge(node(u), node(v)).unwrap();
            tree[u.min(v) * n + u.max(v)] = true;
        }
        if p > 0.0 {
            for u in 0..n {
                for v in (u + 1)..n {
                    if !tree[u * n + v] && rng.random_bool(p) {
                        b.add_edge(node(u), node(v)).unwrap();
                    }
                }
            }
        }
        b.build().unwrap()
    }

    /// Probabilities at and next to both ends, and in between.
    const KERNEL_PROBS: [f64; 7] = [0.0, 1e-9, 0.05, 0.1, 0.5, 1.0 - 1e-12, 1.0];

    #[test]
    fn kernel_emitters_match_builder_and_relabel_reference() {
        // Sizes on both sides of the 64-bit word boundaries of the tree
        // bitset's rows; one scratch and one output graph throughout, so
        // every call also overwrites a differently sized predecessor.
        let mut scratch = RandomGraphScratch::default();
        let mut out = path(1).unwrap();
        let mut cases = Vec::new();
        for n in [1usize, 2, 3, 63, 64, 65, 129, 144, 300] {
            for p in KERNEL_PROBS {
                for seed in [0u64, 1, 0xdead_beef] {
                    cases.push((n, p, seed));
                }
            }
        }
        // Seed 3469 gives node 9 of a 300-node tree 16 tree columns above
        // the diagonal, spread over all five words of its row.
        cases.extend([(300, 0.05, 3469), (300, 0.5, 3469)]);
        let tree_cols = |g: &PortLabeledGraph, v: u32| {
            g.neighbors(NodeId::new(v))
                .filter(|&(_, w, _)| w.index() > v as usize)
                .count()
        };
        assert_eq!(tree_cols(&reference_connected(300, 0.0, 3469), 9), 16);
        for (n, p, seed) in cases {
            let expected = reference_connected(n, p, seed);
            random_connected_into(n, p, seed, &mut scratch, &mut out).unwrap();
            assert_eq!(out, expected, "plain n={n} p={p} seed={seed}");
            assert_eq!(out.edge_count(), expected.edge_count());
            out.validate().unwrap();
            let relabel_seed = seed ^ 0x00ff_00ff;
            let expected = crate::relabel::random_relabel(&expected, relabel_seed);
            random_connected_relabeled_into(n, p, seed, relabel_seed, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, expected, "relabeled n={n} p={p} seed={seed}");
            assert_eq!(out.edge_count(), expected.edge_count());
            out.validate().unwrap();
        }
        assert_eq!(
            random_connected_relabeled(65, 0.1, 5, 6).unwrap(),
            crate::relabel::random_relabel(&random_connected(65, 0.1, 5).unwrap(), 6)
        );
        assert_eq!(
            random_connected_relabeled_into(0, 0.1, 5, 6, &mut scratch, &mut out),
            Err(GraphError::Empty)
        );
    }

    /// An RNG that returns one fixed word, to probe `random_bool` at
    /// chosen draws.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn bool_threshold_agrees_with_random_bool() {
        let mut rng = StdRng::seed_from_u64(17);
        for p in KERNEL_PROBS {
            let t = bool_threshold(p);
            assert!(t <= 1 << 53, "p={p}");
            // The draws at and next to the threshold, the extremes, and a
            // spread of random ones; the 11 low bits must not matter.
            let mut units = vec![0u64, 1, (1 << 53) - 1];
            units.extend(
                [t.saturating_sub(1), t, t + 1]
                    .into_iter()
                    .filter(|&k| k < 1 << 53),
            );
            units.extend((0..2000).map(|_| rng.next_u64() >> 11));
            for k in units {
                for low in [0u64, 0x7ff] {
                    let x = k << 11 | low;
                    assert_eq!(Fixed(x).random_bool(p), (x >> 11) < t, "p={p} x={x:#x}");
                }
            }
        }
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
