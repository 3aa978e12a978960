//! Byte-identity of the graph generators and the builder.
//!
//! Every seeded graph in the workspace — adversary candidates, churn
//! rounds, golden-trace inputs — comes out of `GraphBuilder`,
//! `random_connected` and `random_relabel`. The fingerprints below were
//! recorded before the builder's rows carried back ports and before
//! `random_connected_into` tested pair membership in a bitset; any change
//! to a port assignment, an RNG draw or the CSR layout shows up here.

use dispersion_graph::{generators, relabel, GraphBuilder, NodeId, Port, PortLabeledGraph};

/// FNV-1a over the node count and, per node in index order, its degree
/// and every `(port, neighbor, back port)` half-edge in port order.
fn fingerprint(g: &PortLabeledGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(g.node_count() as u64);
    for v in g.nodes() {
        eat(g.degree(v) as u64);
        for (p, w, q) in g.neighbors(v) {
            eat(u64::from(p.get()));
            eat(w.index() as u64);
            eat(u64::from(q.get()));
        }
    }
    h
}

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Explicit ports inserted out of order, then automatic ports filling the
/// gaps they leave: exercises both `next_free_port` paths.
fn mixed_ports() -> PortLabeledGraph {
    let mut b = GraphBuilder::new(6);
    b.add_edge_with_ports(v(0), v(1), Port::new(3), Port::new(1))
        .unwrap();
    b.add_edge_with_ports(v(0), v(2), Port::new(1), Port::new(2))
        .unwrap();
    b.add_edge(v(0), v(3)).unwrap();
    b.add_edge(v(2), v(4)).unwrap();
    b.add_edge(v(4), v(5)).unwrap();
    b.add_edge_with_ports(v(5), v(1), Port::new(2), Port::new(2))
        .unwrap();
    b.add_edge(v(3), v(5)).unwrap();
    b.build().unwrap()
}

/// A builder refilled in place after a larger graph: `build_into` must
/// not leak rows or ports from the previous fill.
fn rebuilt_in_place() -> PortLabeledGraph {
    let mut b = GraphBuilder::new(0);
    let mut out = generators::complete(7).unwrap();
    b.reset(9);
    for i in 1..9 {
        b.add_edge(v(0), v(i)).unwrap();
    }
    b.build_into(&mut out).unwrap();
    b.reset(5);
    for i in 1..5 {
        b.add_edge(v(i - 1), v(i)).unwrap();
    }
    b.add_edge(v(4), v(0)).unwrap();
    b.build_into(&mut out).unwrap();
    out
}

fn cases() -> Vec<(String, PortLabeledGraph)> {
    let mut out = Vec::new();
    for &(n, p, seed) in &[
        (1usize, 0.3, 1u64),
        (2, 0.5, 2),
        (12, 0.2, 9),
        (30, 0.5, 11),
        (48, 0.2, 3),
        (60, 1.0, 4),
        (144, 0.0, 5),
        (144, 0.1, 7),
    ] {
        let g = generators::random_connected(n, p, seed).unwrap();
        let h = relabel::random_relabel(&g, seed ^ 0x00ff_00ff);
        out.push((format!("random_connected({n}, {p}, {seed})"), g));
        out.push((format!("random_relabel({n}, {p}, {seed})"), h));
    }
    out.push(("complete(9)".into(), generators::complete(9).unwrap()));
    out.push(("grid(5, 7)".into(), generators::grid(5, 7).unwrap()));
    out.push(("wheel(11)".into(), generators::wheel(11).unwrap()));
    out.push((
        "random_tree(40, 3)".into(),
        generators::random_tree(40, 3).unwrap(),
    ));
    out.push(("hypercube(4)".into(), generators::hypercube(4).unwrap()));
    out.push(("torus(4, 5)".into(), generators::torus(4, 5).unwrap()));
    out.push(("barbell(5, 3)".into(), generators::barbell(5, 3).unwrap()));
    out.push(("mixed_ports".into(), mixed_ports()));
    out.push(("rebuilt_in_place".into(), rebuilt_in_place()));
    out
}

/// Recorded before the builder and generator rewrite.
const EXPECTED: &[(&str, u64)] = &[
    ("random_connected(1, 0.3, 1)", 0x392209f14dea4c24),
    ("random_relabel(1, 0.3, 1)", 0x392209f14dea4c24),
    ("random_connected(2, 0.5, 2)", 0x68e12ff2b8b03086),
    ("random_relabel(2, 0.5, 2)", 0x68e12ff2b8b03086),
    ("random_connected(12, 0.2, 9)", 0x2482f7ece7396d0a),
    ("random_relabel(12, 0.2, 9)", 0x8eca92003f32730a),
    ("random_connected(30, 0.5, 11)", 0x1de16ec2dd5a248f),
    ("random_relabel(30, 0.5, 11)", 0xdcf588408b38008f),
    ("random_connected(48, 0.2, 3)", 0x27d087407e2c27f0),
    ("random_relabel(48, 0.2, 3)", 0x42451445aef2edd0),
    ("random_connected(60, 1, 4)", 0x020162492c7642b9),
    ("random_relabel(60, 1, 4)", 0x632278a51797b459),
    ("random_connected(144, 0, 5)", 0x07ff24065874d9d9),
    ("random_relabel(144, 0, 5)", 0x2bfdfbf7293514d9),
    ("random_connected(144, 0.1, 7)", 0xe093ec973202569c),
    ("random_relabel(144, 0.1, 7)", 0x2d6ca20924dac17c),
    ("complete(9)", 0xc7df3879470a5b24),
    ("grid(5, 7)", 0xd2fb1ef15ddac4c0),
    ("wheel(11)", 0xa60413dd4184922f),
    ("random_tree(40, 3)", 0x37fee38a5fa2eced),
    ("hypercube(4)", 0x8e9836341e3a6fd5),
    ("torus(4, 5)", 0xaa6e48bb086a6d11),
    ("barbell(5, 3)", 0x38950b0742c1cbc6),
    ("mixed_ports", 0x3ec180f5f01e53c6),
    ("rebuilt_in_place", 0xfe051cc929347202),
];

#[test]
fn generator_and_builder_outputs_are_byte_identical() {
    let actual: Vec<(String, u64)> = cases()
        .into_iter()
        .map(|(name, g)| {
            g.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, fingerprint(&g))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, fp)| format!("    (\"{name}\", {fp:#018x}),\n"))
        .collect();
    assert_eq!(actual.len(), EXPECTED.len(), "case table changed:\n{table}");
    for ((name, fp), &(want_name, want)) in actual.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "case table changed:\n{table}");
        assert_eq!(*fp, want, "{name} changed:\n{table}");
    }
}
