//! Golden digests of every builder family's CSR arrays.
//!
//! A rotor-router trajectory depends on the exact port order of every node,
//! so a builder may be made faster only if it returns the same `offsets`,
//! `adj` and `back` arrays. Each entry below pins an FNV-1a digest of the
//! three arrays (read back through the public accessors) for one built
//! graph, including ten `random_regular` seeds whose acceptance depends on
//! how the builder consumes its RNG stream.

use rotor_graph::{builders, NodeId, PortGraph};

/// FNV-1a over the little-endian bytes of `offsets`, then `adj`, then
/// `back`.
fn csr_digest(g: &PortGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in g.nodes() {
        eat(g.arc_offset(v) as u32);
    }
    eat(g.arc_count() as u32);
    for v in g.nodes() {
        for &u in g.neighbor_slice(v) {
            eat(u);
        }
    }
    for v in g.nodes() {
        for p in 0..g.degree(v) {
            eat(g.entry_port(v, p) as u32);
        }
    }
    h
}

fn cases() -> Vec<(String, PortGraph)> {
    let mut out: Vec<(String, PortGraph)> = vec![
        ("ring(2)".into(), builders::ring(2)),
        ("ring(1024)".into(), builders::ring(1024)),
        ("path(2)".into(), builders::path(2)),
        ("path(1024)".into(), builders::path(1024)),
        ("grid(1,2)".into(), builders::grid(1, 2)),
        ("grid(5,7)".into(), builders::grid(5, 7)),
        ("torus(4,5)".into(), builders::torus(4, 5)),
        ("torus(64,64)".into(), builders::torus(64, 64)),
        ("complete(2)".into(), builders::complete(2)),
        ("complete(33)".into(), builders::complete(33)),
        ("star(2)".into(), builders::star(2)),
        ("star(4096)".into(), builders::star(4096)),
        ("hypercube(1)".into(), builders::hypercube(1)),
        ("hypercube(12)".into(), builders::hypercube(12)),
        ("binary_tree(2)".into(), builders::binary_tree(2)),
        ("binary_tree(4096)".into(), builders::binary_tree(4096)),
        ("lollipop(5,3)".into(), builders::lollipop(5, 3)),
        ("lollipop(20,30)".into(), builders::lollipop(20, 30)),
        (
            "random_connected(60,0.05,3)".into(),
            builders::random_connected(60, 0.05, 3),
        ),
        (
            "shuffle_ports(torus(8,8),5)".into(),
            builders::shuffle_ports(&builders::torus(8, 8), 5),
        ),
    ];
    for i in 0..10u64 {
        out.push((
            format!("random_regular(1024,4,#{i})"),
            builders::random_regular(1024, 4, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ));
    }
    for (n, d, seed) in [(64usize, 3usize, 1u64), (30, 2, 2), (200, 4, 3)] {
        out.push((
            format!("random_regular({n},{d},{seed})"),
            builders::random_regular(n, d, seed),
        ));
    }
    out
}

/// Digests computed with the original quadratic-duplicate-check builders.
const GOLDEN: &[(&str, u64)] = &[
    ("ring(2)", 0x0489a5a2dfeaa157),
    ("ring(1024)", 0xb47d80a218c3b8c5),
    ("path(2)", 0x0489a5a2dfeaa157),
    ("path(1024)", 0x571175059a9305a2),
    ("grid(1,2)", 0x0489a5a2dfeaa157),
    ("grid(5,7)", 0xcfaa28ec40bc7281),
    ("torus(4,5)", 0xafc5031fc7322c65),
    ("torus(64,64)", 0x98e526f56dd85655),
    ("complete(2)", 0x0489a5a2dfeaa157),
    ("complete(33)", 0x3584c0272f6d1a25),
    ("star(2)", 0x0489a5a2dfeaa157),
    ("star(4096)", 0x0fdcb63ea002c6cf),
    ("hypercube(1)", 0x0489a5a2dfeaa157),
    ("hypercube(12)", 0xe24c70b699120bd5),
    ("binary_tree(2)", 0x0489a5a2dfeaa157),
    ("binary_tree(4096)", 0x6638276ae20bce46),
    ("lollipop(5,3)", 0x5b2da1351e3662e7),
    ("lollipop(20,30)", 0x82f9a1e04eee484a),
    ("random_connected(60,0.05,3)", 0x520b78098caa4601),
    ("shuffle_ports(torus(8,8),5)", 0x20eba20e25a0fbda),
    ("random_regular(1024,4,#0)", 0x4399d77dcf10c6b9),
    ("random_regular(1024,4,#1)", 0x2d0ea18ed4fd3589),
    ("random_regular(1024,4,#2)", 0xaf9cfa8e8027cddd),
    ("random_regular(1024,4,#3)", 0x71125d0f1dee3d2d),
    ("random_regular(1024,4,#4)", 0x215e615a78d6b495),
    ("random_regular(1024,4,#5)", 0x1ba9f87f55d0e1ad),
    ("random_regular(1024,4,#6)", 0xc03690fa2e2d22e5),
    ("random_regular(1024,4,#7)", 0x273903946b6799b5),
    ("random_regular(1024,4,#8)", 0x20bf7920280a5539),
    ("random_regular(1024,4,#9)", 0x3b369792aeddb6cd),
    ("random_regular(64,3,1)", 0x1f5b5677a28b5835),
    ("random_regular(30,2,2)", 0xbeaf355769b1537b),
    ("random_regular(200,4,3)", 0x3afc333f229c9974),
];

#[test]
fn builder_csr_arrays_match_golden_digests() {
    let got: Vec<(String, u64)> = cases()
        .iter()
        .map(|(name, g)| (name.clone(), csr_digest(g)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for ((name, d), (gname, gd)) in got.iter().zip(GOLDEN) {
        assert_eq!((name.as_str(), *d), (*gname, *gd), "golden table:\n{table}");
    }
}

#[test]
fn digest_sees_port_order() {
    // Swapping two ports of one node changes `adj` and `back`.
    let g = builders::star(5);
    let adj: Vec<Vec<u32>> = g
        .nodes()
        .map(|v| {
            let mut l = g.neighbor_slice(v).to_vec();
            if v == NodeId::new(0) {
                l.swap(0, 1);
            }
            l
        })
        .collect();
    let h = PortGraph::from_adjacency(adj).unwrap();
    assert_ne!(csr_digest(&g), csr_digest(&h));
}
