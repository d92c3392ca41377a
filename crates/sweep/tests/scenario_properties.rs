//! Property tests for the scenario layer: every [`GraphFamily`] builder
//! must yield a well-formed port graph, and scenario enumeration must be
//! deterministic and collision-free across a mixed-family lattice.

use rotor_graph::{algo, NodeId, PortGraph};
use rotor_sweep::{GraphFamily, InitSpec, PlacementSpec, ScenarioGrid};

/// Every (family, n) instance the property sweep checks: a spread of
/// sizes per family, including each family's minimum.
fn instances() -> Vec<(GraphFamily, usize)> {
    let mut out = Vec::new();
    for n in [3usize, 4, 9, 32, 63] {
        out.push((GraphFamily::Ring, n));
        out.push((GraphFamily::Path, n));
        out.push((GraphFamily::Complete, n));
        out.push((GraphFamily::Star, n));
        out.push((GraphFamily::BinaryTree, n));
    }
    for (rows, cols) in [(3, 3), (3, 5), (8, 8)] {
        out.push((GraphFamily::Torus { rows, cols }, rows * cols));
    }
    for dim in [1usize, 3, 6] {
        out.push((GraphFamily::Hypercube { dim }, 1 << dim));
    }
    for (clique, tail) in [(3, 1), (8, 8), (12, 20)] {
        out.push((GraphFamily::Lollipop { clique, tail }, clique + tail));
    }
    for (n, degree) in [(8, 3), (24, 4), (30, 5)] {
        out.push((GraphFamily::RandomRegular { degree }, n));
    }
    out
}

/// The well-formedness contract of a port graph: reverse-port involution
/// (`port_back(port_fwd(v, p)) == (v, p)`), degree bounds, no self-loops
/// or duplicate neighbours, and connectivity.
fn assert_well_formed(g: &PortGraph, label: &str) {
    let n = g.node_count();
    assert!(n >= 2, "{label}: at least 2 nodes");
    assert!(algo::is_connected(g), "{label}: connected");
    let mut arc_total = 0usize;
    for v in g.nodes() {
        let deg = g.degree(v);
        assert!(deg >= 1, "{label}: no isolated nodes");
        assert!(deg < n, "{label}: degree bounded by n-1 (simple graph)");
        let mut seen = std::collections::BTreeSet::new();
        for p in 0..deg {
            let u = g.neighbor(v, p);
            assert_ne!(u, v, "{label}: self-loop at {v:?}");
            assert!(u.index() < n, "{label}: neighbour in range");
            assert!(seen.insert(u), "{label}: duplicate neighbour at {v:?}");
            // reverse-port involution: following the arc and its recorded
            // entry port leads straight back through the same port
            let q = g.entry_port(v, p);
            assert!(q < g.degree(u), "{label}: entry port in range");
            assert_eq!(g.neighbor(u, q), v, "{label}: back arc returns");
            assert_eq!(
                g.entry_port(u, q),
                p,
                "{label}: port_back(port_fwd({v:?}, {p})) == ({v:?}, {p})"
            );
        }
        arc_total += deg;
    }
    assert_eq!(arc_total, g.arc_count(), "{label}: degree sum = 2|E|");
}

#[test]
fn every_family_builder_yields_a_well_formed_port_graph() {
    for (family, n) in instances() {
        family
            .validate(n)
            .unwrap_or_else(|e| panic!("{}: {e}", family.label()));
        for seed in [0u64, 0xDEAD_BEEF] {
            let g = family.build(n, seed);
            assert_eq!(
                g.node_count(),
                n,
                "{} builds the requested node count",
                family.label()
            );
            assert_well_formed(&g, &family.label());
        }
    }
}

#[test]
fn family_degree_shapes() {
    // Spot-check the structural signatures the families are chosen for.
    let torus = GraphFamily::Torus { rows: 5, cols: 5 }.build(25, 0);
    assert!(torus.is_regular());
    assert_eq!(torus.degree(NodeId::new(0)), 4);

    let cube = GraphFamily::Hypercube { dim: 4 }.build(16, 0);
    assert!(cube.is_regular());
    assert_eq!(cube.degree(NodeId::new(0)), 4);
    assert_eq!(algo::diameter(&cube), 4, "hypercube: log-diameter");

    let lolli = GraphFamily::Lollipop {
        clique: 10,
        tail: 10,
    }
    .build(20, 0);
    assert_eq!(lolli.degree(NodeId::new(0)), 10, "clique node 0 + tail");
    assert_eq!(lolli.degree(NodeId::new(19)), 1, "tail end");
    assert!(algo::diameter(&lolli) >= 10, "long tail dominates diameter");

    let rr = GraphFamily::RandomRegular { degree: 4 }.build(24, 7);
    assert!(rr.is_regular());
    assert_eq!(rr.degree(NodeId::new(11)), 4);
}

#[test]
fn mixed_family_scenario_enumeration_is_deterministic() {
    // The multi-family analogue of cell_seeds_are_distinct_and_reproducible.
    let grid = ScenarioGrid {
        families: vec![
            GraphFamily::Ring,
            GraphFamily::Hypercube { dim: 5 },
            GraphFamily::RandomRegular { degree: 4 },
        ],
        ns: vec![32],
        ks: vec![1, 2, 4],
        seed_count: 3,
        base_seed: 0x5EED,
        placement: PlacementSpec::Random,
        init: InitSpec::Random,
    };
    let a = grid.scenarios();
    let b = grid.scenarios();
    assert_eq!(a.len(), 3 * 3 * 3);
    let mut seeds = Vec::new();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.positions(), y.positions(), "placement is seed-determined");
        seeds.push(x.seed);
    }
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), a.len(), "no seed collisions across families");
}
