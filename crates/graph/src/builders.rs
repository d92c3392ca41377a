//! Generators for the graph families used by the paper and its experiments.
//!
//! The primary object of study is the ring (§3–§4); paths appear inside the
//! proofs (Theorem 1 reduces the ring to a path via symmetry); grids, tori,
//! hypercubes, cliques, stars, random regular and Erdős–Rényi graphs appear
//! in the related-work comparisons (Yanovski et al.'s near-linear speed-up
//! experiments, Alon et al.'s speed-up ranges) and are used by this
//! repository's extension experiment E12.
//!
//! Port conventions are documented per generator; tests pin them down, since
//! rotor-router trajectories depend on the port order.

use crate::{NodeId, PortGraph, PortGraphBuilder};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The `n`-node ring (cycle) `C_n`.
///
/// Ports: at every node `v`, port 0 leads *clockwise* (to `(v+1) mod n`) and
/// port 1 leads *anticlockwise* (to `(v−1) mod n`). For `n = 2` the "ring"
/// degenerates to a single edge (ports 0 only), since the model uses simple
/// graphs.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn ring(n: usize) -> PortGraph {
    assert!(n >= 2, "ring needs at least 2 nodes");
    if n == 2 {
        let mut b = PortGraphBuilder::new(2);
        b.add_edge(0, 1);
        return b.build().expect("edge graph is valid");
    }
    let n32 = n as u32;
    let adj: Vec<Vec<u32>> = (0..n32)
        .map(|v| vec![(v + 1) % n32, (v + n32 - 1) % n32])
        .collect();
    PortGraph::from_adjacency(adj).expect("ring adjacency is always valid")
}

/// The `n`-node path `P_n` with nodes `0 — 1 — … — n−1`.
///
/// Ports (edges are inserted left-to-right): node 0 has port 0 → 1; an
/// interior node `v` has port 0 → `v−1` (left) and port 1 → `v+1` (right);
/// node `n−1` has port 0 → `n−2`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn path(n: usize) -> PortGraph {
    assert!(n >= 2, "path needs at least 2 nodes");
    let mut b = PortGraphBuilder::new(n);
    for v in 0..(n - 1) as u32 {
        b.add_edge(v, v + 1);
    }
    b.build().expect("path construction is always valid")
}

/// The `rows × cols` 2-D grid (mesh) with 4-neighbourhoods and no wraparound.
///
/// Node `(r, c)` has index `r * cols + c`.
///
/// # Panics
///
/// Panics if `rows * cols < 2` or either dimension is 0.
pub fn grid(rows: usize, cols: usize) -> PortGraph {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2, "grid too small");
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut b = PortGraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    b.build().expect("grid construction is always valid")
}

/// The `rows × cols` 2-D torus (grid with wraparound).
///
/// Requires `rows ≥ 3` and `cols ≥ 3` so that no duplicate edges arise.
///
/// # Panics
///
/// Panics if `rows < 3` or `cols < 3`.
pub fn torus(rows: usize, cols: usize) -> PortGraph {
    assert!(rows >= 3 && cols >= 3, "torus needs both dimensions >= 3");
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut b = PortGraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(idx(r, c), idx(r, (c + 1) % cols));
            b.add_edge(idx(r, c), idx((r + 1) % rows, c));
        }
    }
    b.build().expect("torus construction is always valid")
}

/// The complete graph `K_n`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete(n: usize) -> PortGraph {
    assert!(n >= 2, "complete graph needs at least 2 nodes");
    let mut b = PortGraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.add_edge(u, v);
        }
    }
    b.build().expect("complete construction is always valid")
}

/// The star `S_{n−1}`: node 0 is the centre, nodes `1..n` are leaves.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> PortGraph {
    assert!(n >= 2, "star needs at least 2 nodes");
    let mut b = PortGraphBuilder::new(n);
    for v in 1..n as u32 {
        b.add_edge(0, v);
    }
    b.build().expect("star construction is always valid")
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes; nodes adjacent iff
/// their indices differ in exactly one bit. Port `i` at every node flips
/// bit… no: ports follow edge-insertion order, which is by increasing
/// dimension of the lower endpoint, so at node `v` the ports are ordered by
/// the bit flipped, with bits where `v` has a 1 appearing before (see tests).
///
/// # Panics
///
/// Panics if `d == 0` or `d > 20`.
pub fn hypercube(d: usize) -> PortGraph {
    assert!(
        (1..=20).contains(&d),
        "hypercube dimension must be in 1..=20"
    );
    let n = 1usize << d;
    let mut b = PortGraphBuilder::new(n);
    for v in 0..n as u32 {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(v, u);
            }
        }
    }
    b.build().expect("hypercube construction is always valid")
}

/// A complete binary tree with `n` nodes, heap-indexed: node `v` has
/// children `2v+1` and `2v+2`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn binary_tree(n: usize) -> PortGraph {
    assert!(n >= 2, "binary tree needs at least 2 nodes");
    let mut b = PortGraphBuilder::new(n);
    for v in 1..n as u32 {
        b.add_edge((v - 1) / 2, v);
    }
    b.build().expect("binary tree construction is always valid")
}

/// The lollipop graph: a clique on `clique` nodes with a path of `tail`
/// extra nodes attached to clique node 0.
///
/// A classical worst case for random-walk cover time; used in ablation
/// experiments contrasting rotor-router and random-walk behaviour beyond the
/// ring.
///
/// # Panics
///
/// Panics if `clique < 3` or `tail < 1`.
pub fn lollipop(clique: usize, tail: usize) -> PortGraph {
    assert!(clique >= 3, "lollipop clique needs at least 3 nodes");
    assert!(tail >= 1, "lollipop tail needs at least 1 node");
    let n = clique + tail;
    let mut b = PortGraphBuilder::new(n);
    for u in 0..clique as u32 {
        for v in (u + 1)..clique as u32 {
            b.add_edge(u, v);
        }
    }
    let mut prev = 0u32;
    for t in 0..tail as u32 {
        let v = clique as u32 + t;
        b.add_edge(prev, v);
        prev = v;
    }
    b.build().expect("lollipop construction is always valid")
}

/// A random `d`-regular simple graph on `n` nodes via the configuration
/// model with restarts (pairing half-edges, rejecting self-loops, duplicate
/// edges and disconnected outcomes).
///
/// Each attempt shuffles the sorted half-edge list once and checks the
/// pairing against a flat `n·d` neighbour table; only a simple pairing is
/// handed to a [`PortGraphBuilder`], in pairing order, which fixes the
/// ports.
///
/// Deterministic for a fixed `seed`.
///
/// # Panics
///
/// Panics if `n * d` is odd, `d >= n`, or `d < 2` (connectivity would be
/// hopeless), or if 1000 restarts all fail (practically unreachable for
/// `d ≥ 3` and moderate `n`).
pub fn random_regular(n: usize, d: usize, seed: u64) -> PortGraph {
    assert!(d >= 2, "random regular graph needs degree >= 2");
    assert!(d < n, "degree must be < n");
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    // lint: allow(named-rng-streams) -- seed is derived by callers via STREAM_GRAPH (rotor-sweep scenario dispatch)
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    // The pairing's neighbours of `v` so far: `nbrs[v·d .. v·d + filled[v]]`.
    let mut nbrs = vec![0u32; n * d];
    let mut filled = vec![0usize; n];
    'attempt: for _ in 0..1000 {
        stubs.clear();
        stubs.extend((0..n as u32).flat_map(|v| std::iter::repeat_n(v, d)));
        stubs.shuffle(&mut rng);
        filled.fill(0);
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0] as usize, pair[1] as usize);
            if u == v || nbrs[u * d..u * d + filled[u]].contains(&pair[1]) {
                continue 'attempt;
            }
            nbrs[u * d + filled[u]] = pair[1];
            nbrs[v * d + filled[v]] = pair[0];
            filled[u] += 1;
            filled[v] += 1;
        }
        let mut b = PortGraphBuilder::new(n);
        for pair in stubs.chunks_exact(2) {
            b.add_edge(pair[0], pair[1]);
        }
        if let Ok(g) = b.build() {
            return g;
        }
    }
    panic!("random_regular: failed to generate after 1000 attempts");
}

/// A connected Erdős–Rényi-style random graph: a uniform random spanning
/// tree (to guarantee connectivity) plus each remaining pair independently
/// with probability `p`.
///
/// Deterministic for a fixed `seed`.
///
/// # Panics
///
/// Panics if `n < 2` or `p` is not in `[0, 1]`.
pub fn random_connected(n: usize, p: f64, seed: u64) -> PortGraph {
    assert!(n >= 2, "random graph needs at least 2 nodes");
    assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
    // lint: allow(named-rng-streams) -- seed is derived by callers via STREAM_GRAPH (rotor-sweep scenario dispatch)
    let mut rng = SmallRng::seed_from_u64(seed);
    // Random spanning tree: random permutation, attach each node to a random
    // earlier node (a random recursive tree on a random labelling).
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut rng);
    let mut tree = std::collections::BTreeSet::new();
    for i in 1..n {
        let j = rng.gen_range(0..i);
        let (u, v) = (order[i], order[j]);
        tree.insert((u.min(v), u.max(v)));
    }
    let mut b = PortGraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if tree.contains(&(u, v)) || rng.gen_bool(p) && !tree.contains(&(u, v)) {
                b.add_edge(u, v);
            }
        }
    }
    b.build().expect("spanning tree guarantees connectivity")
}

/// Relabels the ports of every node by a seeded random cyclic-order shuffle,
/// preserving the underlying undirected graph.
///
/// The rotor-router's behaviour depends on port orders; this helper lets
/// experiments quantify that dependence ("the initialization of ports …
/// is performed by an adversary", §1.3).
pub fn shuffle_ports(g: &PortGraph, seed: u64) -> PortGraph {
    // lint: allow(named-rng-streams) -- seed is derived by callers via STREAM_GRAPH (rotor-sweep scenario dispatch)
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = g.node_count();
    let mut adj: Vec<Vec<u32>> = Vec::with_capacity(n);
    for v in 0..n {
        let node = NodeId::new(v as u32);
        let mut order: Vec<usize> = (0..g.degree(node)).collect();
        order.shuffle(&mut rng);
        adj.push(
            order
                .iter()
                .map(|&old_port| g.neighbor(node, old_port).value())
                .collect(),
        );
    }
    PortGraph::from_adjacency(adj).expect("shuffled adjacency is valid")
}

impl PortGraph {
    /// Builds a port graph directly from an adjacency table: `adj[v]` lists
    /// the neighbours of `v` in port order.
    ///
    /// # Errors
    ///
    /// Returns an error string if the table is not symmetric (each edge must
    /// appear exactly once from each side), contains self-loops or
    /// duplicates, or describes a disconnected graph.
    pub fn from_adjacency(adj: Vec<Vec<u32>>) -> Result<PortGraph, String> {
        let n = adj.len();
        if n == 0 {
            return Err("empty adjacency table".to_string());
        }
        let mut back: Vec<Vec<u32>> = adj.iter().map(|l| vec![u32::MAX; l.len()]).collect();
        let mut edge_count = 0usize;
        for v in 0..n {
            let mut seen = std::collections::BTreeSet::new();
            for (p, &u) in adj[v].iter().enumerate() {
                if u as usize >= n {
                    return Err(format!("neighbour {u} out of range"));
                }
                if u as usize == v {
                    return Err(format!("self-loop at {v}"));
                }
                if !seen.insert(u) {
                    return Err(format!("duplicate neighbour {u} at node {v}"));
                }
                let q = adj[u as usize]
                    .iter()
                    .position(|&w| w as usize == v)
                    .ok_or_else(|| format!("edge {v}-{u} not symmetric"))?;
                back[v][p] = q as u32;
                if (v as u32) < u {
                    edge_count += 1;
                }
            }
        }
        let g = PortGraph::from_parts(adj, back, edge_count);
        if !crate::algo::is_connected(&g) {
            return Err("graph is not connected".to_string());
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn ring_ports_are_directional() {
        let g = ring(6);
        for v in 0..6u32 {
            let node = NodeId::new(v);
            assert_eq!(g.neighbor(node, 0), NodeId::new((v + 1) % 6));
            assert_eq!(g.neighbor(node, 1), NodeId::new((v + 5) % 6));
        }
    }

    #[test]
    fn ring_of_two_is_single_edge() {
        let g = ring(2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn ring_too_small_panics() {
        ring(1);
    }

    #[test]
    fn path_port_convention() {
        let g = path(5);
        assert_eq!(g.neighbor(NodeId::new(0), 0), NodeId::new(1));
        for v in 1..4u32 {
            assert_eq!(g.neighbor(NodeId::new(v), 0), NodeId::new(v - 1));
            assert_eq!(g.neighbor(NodeId::new(v), 1), NodeId::new(v + 1));
        }
        assert_eq!(g.neighbor(NodeId::new(4), 0), NodeId::new(3));
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        // edges: 3*3 horizontal + 2*4 vertical = 9 + 8 = 17
        assert_eq!(g.edge_count(), 17);
        assert_eq!(g.degree(NodeId::new(0)), 2); // corner
        assert_eq!(g.degree(NodeId::new(5)), 4); // interior (1,1)
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 40);
        assert!(g.is_regular());
        assert_eq!(g.degree(NodeId::new(7)), 4);
    }

    #[test]
    #[should_panic(expected = ">= 3")]
    fn torus_too_small_panics() {
        torus(2, 5);
    }

    #[test]
    fn complete_structure() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert!(g.is_regular());
        assert_eq!(g.degree(NodeId::new(3)), 5);
    }

    #[test]
    fn star_structure() {
        let g = star(7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(NodeId::new(0)), 6);
        for v in 1..7u32 {
            assert_eq!(g.degree(NodeId::new(v)), 1);
        }
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert!(g.is_regular());
        // neighbours differ in exactly one bit
        for v in g.nodes() {
            for u in g.neighbors(v) {
                let x = v.value() ^ u.value();
                assert_eq!(x.count_ones(), 1);
            }
        }
    }

    #[test]
    fn binary_tree_structure() {
        let g = binary_tree(7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.degree(NodeId::new(1)), 3);
        assert_eq!(g.degree(NodeId::new(6)), 1);
        assert_eq!(algo::diameter(&g), 4);
    }

    #[test]
    fn lollipop_structure() {
        let g = lollipop(5, 3);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 10 + 3);
        assert_eq!(g.degree(NodeId::new(0)), 5); // clique + tail attachment
        assert_eq!(g.degree(NodeId::new(7)), 1); // tail end
    }

    #[test]
    fn random_regular_is_regular_connected() {
        for seed in 0..5 {
            let g = random_regular(24, 3, seed);
            assert_eq!(g.node_count(), 24);
            assert!(g.is_regular());
            assert_eq!(g.degree(NodeId::new(0)), 3);
            assert!(algo::is_connected(&g));
        }
    }

    #[test]
    fn random_regular_deterministic_per_seed() {
        let a = random_regular(16, 4, 7);
        let b = random_regular(16, 4, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..5 {
            let g = random_connected(30, 0.05, seed);
            assert!(algo::is_connected(&g));
            assert!(g.edge_count() >= 29); // at least the spanning tree
        }
    }

    #[test]
    fn random_connected_p0_is_tree() {
        let g = random_connected(20, 0.0, 3);
        assert_eq!(g.edge_count(), 19);
    }

    #[test]
    fn random_connected_p1_is_complete() {
        let g = random_connected(8, 1.0, 3);
        assert_eq!(g.edge_count(), 28);
    }

    #[test]
    fn shuffle_ports_preserves_graph() {
        let g = torus(3, 4);
        let h = shuffle_ports(&g, 99);
        assert_eq!(g.node_count(), h.node_count());
        assert_eq!(g.edge_count(), h.edge_count());
        for v in g.nodes() {
            let mut a: Vec<u32> = g.neighbors(v).map(NodeId::value).collect();
            let mut b: Vec<u32> = h.neighbors(v).map(NodeId::value).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "neighbour sets must match at {v:?}");
        }
    }

    #[test]
    fn shuffle_ports_back_ports_consistent() {
        let g = hypercube(3);
        let h = shuffle_ports(&g, 5);
        for v in h.nodes() {
            for p in 0..h.degree(v) {
                let u = h.neighbor(v, p);
                assert_eq!(h.neighbor(u, h.entry_port(v, p)), v);
            }
        }
    }

    #[test]
    fn from_adjacency_rejects_asymmetric() {
        let adj = vec![vec![1], vec![]];
        assert!(PortGraph::from_adjacency(adj).is_err());
    }

    #[test]
    fn from_adjacency_rejects_self_loop() {
        let adj = vec![vec![0, 1], vec![0]];
        assert!(PortGraph::from_adjacency(adj).is_err());
    }

    #[test]
    fn from_adjacency_accepts_ring() {
        let adj = vec![vec![1, 2], vec![2, 0], vec![0, 1]];
        let g = PortGraph::from_adjacency(adj).unwrap();
        assert_eq!(g.edge_count(), 3);
    }
}
