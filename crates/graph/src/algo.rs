//! Basic graph algorithms: BFS distances, eccentricities, diameter,
//! connectivity.
//!
//! The worst-case bounds for the single-agent rotor-router are phrased in
//! terms of the diameter `D` and the edge count `|E|` (cover and lock-in in
//! `Θ(D·|E|)` steps, Yanovski et al. / Bampas et al., §1.2 of the paper), so
//! experiment harnesses need cheap access to `D`.

use crate::{NodeId, PortGraph};
use std::collections::VecDeque;

/// Distance value reported by [`bfs_distances`] for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Breadth-first distances from `source` to every node.
///
/// Unreachable nodes get [`UNREACHABLE`].
///
/// ```
/// use rotor_graph::{algo, builders, NodeId};
/// let g = builders::path(5);
/// let d = algo::bfs_distances(&g, NodeId::new(0));
/// assert_eq!(d, vec![0, 1, 2, 3, 4]);
/// ```
pub fn bfs_distances(g: &PortGraph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for u in g.neighbors(v) {
            if dist[u.index()] == UNREACHABLE {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Whether the graph is connected.
pub fn is_connected(g: &PortGraph) -> bool {
    if g.node_count() == 0 {
        return false;
    }
    bfs_distances(g, NodeId::new(0))
        .iter()
        .all(|&d| d != UNREACHABLE)
}

/// Eccentricity of `v`: the maximum BFS distance from `v`.
///
/// # Panics
///
/// Panics if the graph is disconnected (eccentricity is undefined then).
pub fn eccentricity(g: &PortGraph, v: NodeId) -> u32 {
    let d = bfs_distances(g, v);
    let m = *d.iter().max().expect("non-empty graph");
    assert_ne!(m, UNREACHABLE, "eccentricity undefined: graph disconnected");
    m
}

/// Per-node state of the 64-source breadth-first search in [`diameter`].
#[derive(Clone, Copy, Default)]
struct SourceBits {
    /// Bit `i`: source `base + i` has reached the node.
    seen: u64,
    /// `stamp == epoch` iff the node already has an entry in the frontier
    /// being built, at index `slot`.
    stamp: u32,
    slot: u32,
}

/// Exact diameter `D = max_v ecc(v)`, by breadth-first search from every
/// node, 64 sources at a time (multi-source BFS, Then et al., PVLDB 2014).
///
/// A level expands the frontier of `(node, new source bits)` pairs: an arc
/// `v → u` hands `u` the bits `f & !seen[u]`, which enter `seen[u]` at once,
/// so each source reaches each node exactly once. A node reached from
/// several frontier nodes of one level is merged into its single entry of
/// the next frontier through an epoch stamp and a slot index. The number of
/// levels a batch runs is the largest eccentricity of its 64 sources.
///
/// `O(⌈n/64⌉·(n + m))` word operations when the sources' searches overlap
/// (tori, hypercubes, trees, expanders), and no worse than `n`
/// single-source searches when they do not (rings, paths).
///
/// # Panics
///
/// Panics if the graph is disconnected.
pub fn diameter(g: &PortGraph) -> u32 {
    assert!(is_connected(g), "diameter undefined: graph disconnected");
    let n = g.node_count();
    let mut node = vec![SourceBits::default(); n];
    let mut epoch = 0u32;
    let mut frontier: Vec<(u32, u64)> = Vec::new();
    let mut next: Vec<(u32, u64)> = Vec::new();
    let mut diameter = 0;
    for base in (0..n).step_by(64) {
        for s in &mut node {
            s.seen = 0;
        }
        frontier.clear();
        for i in 0..(n - base).min(64) {
            node[base + i].seen = 1 << i;
            frontier.push(((base + i) as u32, 1 << i));
        }
        let mut levels = 0;
        loop {
            if epoch == u32::MAX {
                node.iter_mut().for_each(|s| s.stamp = 0);
                epoch = 0;
            }
            epoch += 1;
            next.clear();
            for &(v, f) in &frontier {
                for &u in g.neighbor_slice(NodeId::new(v)) {
                    let s = &mut node[u as usize];
                    let add = f & !s.seen;
                    if add == 0 {
                        continue;
                    }
                    s.seen |= add;
                    if s.stamp == epoch {
                        next[s.slot as usize].1 |= add;
                    } else {
                        s.stamp = epoch;
                        s.slot = next.len() as u32;
                        next.push((u, add));
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            levels += 1;
            std::mem::swap(&mut frontier, &mut next);
        }
        diameter = diameter.max(levels);
    }
    diameter
}

/// Distance between two nodes.
///
/// Returns `None` if `b` is unreachable from `a`.
pub fn distance(g: &PortGraph, a: NodeId, b: NodeId) -> Option<u32> {
    let d = bfs_distances(g, a)[b.index()];
    (d != UNREACHABLE).then_some(d)
}

/// For every node, the distance to the nearest node of `targets`
/// (multi-source BFS).
///
/// Used to set up the "negative" pointer initialisation of the paper, where
/// every pointer initially points *toward* the nearest agent (equivalently,
/// agents are "blocked": their first visit to a new node reflects them back).
///
/// Returns [`UNREACHABLE`] for nodes not reachable from any target, and an
/// all-[`UNREACHABLE`] vector when `targets` is empty.
pub fn multi_source_distances(g: &PortGraph, targets: &[NodeId]) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    for &t in targets {
        if dist[t.index()] == UNREACHABLE {
            dist[t.index()] = 0;
            queue.push_back(t);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for u in g.neighbors(v) {
            if dist[u.index()] == UNREACHABLE {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// A BFS parent tree from `source`: `parent[v]` is the predecessor of `v` on
/// a shortest path from `source`, and `parent[source] == source`.
///
/// Unreachable nodes keep `parent[v] == v` as well, so callers should check
/// reachability separately when the graph may be disconnected.
pub fn bfs_parents(g: &PortGraph, source: NodeId) -> Vec<NodeId> {
    let mut parent: Vec<NodeId> = g.nodes().collect();
    let mut seen = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    seen[source.index()] = true;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for u in g.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                parent[u.index()] = v;
                queue.push_back(u);
            }
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::PortGraphBuilder;

    #[test]
    fn path_distances() {
        let g = builders::path(6);
        let d = bfs_distances(&g, NodeId::new(2));
        assert_eq!(d, vec![2, 1, 0, 1, 2, 3]);
    }

    #[test]
    fn ring_distances_wrap() {
        let g = builders::ring(8);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4, 3, 2, 1]);
    }

    #[test]
    fn diameter_of_families() {
        assert_eq!(diameter(&builders::ring(8)), 4);
        assert_eq!(diameter(&builders::ring(9)), 4);
        assert_eq!(diameter(&builders::path(7)), 6);
        assert_eq!(diameter(&builders::complete(5)), 1);
        assert_eq!(diameter(&builders::star(6)), 2);
        assert_eq!(diameter(&builders::hypercube(3)), 3);
    }

    /// The all-pairs reference: one single-source BFS per node.
    fn diameter_oracle(g: &PortGraph) -> u32 {
        g.nodes().map(|v| eccentricity(g, v)).max().unwrap_or(0)
    }

    #[test]
    fn diameter_matches_all_pairs_on_every_family() {
        let single = PortGraphBuilder::new(1).build().unwrap();
        let graphs = [
            single,
            builders::ring(2),
            builders::ring(3),
            builders::ring(63),
            builders::ring(64),
            builders::ring(65),
            builders::ring(1024),
            builders::path(2),
            builders::path(100),
            builders::path(129),
            builders::grid(1, 2),
            builders::grid(7, 13),
            builders::torus(3, 3),
            builders::torus(16, 9),
            builders::complete(2),
            builders::complete(70),
            builders::star(2),
            builders::star(200),
            builders::hypercube(1),
            builders::hypercube(9),
            builders::binary_tree(2),
            builders::binary_tree(63),
            builders::binary_tree(300),
            builders::lollipop(3, 1),
            builders::lollipop(12, 90),
            builders::shuffle_ports(&builders::torus(9, 11), 4),
        ];
        for g in &graphs {
            assert_eq!(diameter(g), diameter_oracle(g), "{g:?}");
        }
    }

    #[test]
    fn diameter_matches_all_pairs_on_random_graphs() {
        for seed in 0..30u64 {
            let n = 20 + (seed as usize * 37) % 180;
            let g = builders::random_regular(n, 3 + (n % 2), seed);
            assert_eq!(
                diameter(&g),
                diameter_oracle(&g),
                "random_regular seed {seed}"
            );
            let g = builders::random_connected(n, 0.02, seed);
            assert_eq!(
                diameter(&g),
                diameter_oracle(&g),
                "random_connected seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn diameter_of_disconnected_graph_panics() {
        let mut b = PortGraphBuilder::new(70);
        for v in 0..68 {
            b.add_edge(v, v + 1);
        }
        diameter(&b.build_unchecked_connectivity().unwrap());
    }

    #[test]
    fn eccentricity_path_endpoint_vs_middle() {
        let g = builders::path(9);
        assert_eq!(eccentricity(&g, NodeId::new(0)), 8);
        assert_eq!(eccentricity(&g, NodeId::new(4)), 4);
    }

    #[test]
    fn distance_pairs() {
        let g = builders::ring(10);
        assert_eq!(distance(&g, NodeId::new(1), NodeId::new(6)), Some(5));
        assert_eq!(distance(&g, NodeId::new(1), NodeId::new(9)), Some(2));
    }

    #[test]
    fn disconnected_detection() {
        let mut b = PortGraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build_unchecked_connectivity().unwrap();
        assert!(!is_connected(&g));
        assert_eq!(distance(&g, NodeId::new(0), NodeId::new(2)), None);
    }

    #[test]
    fn multi_source_nearest_agent() {
        let g = builders::ring(10);
        let d = multi_source_distances(&g, &[NodeId::new(0), NodeId::new(5)]);
        assert_eq!(d, vec![0, 1, 2, 2, 1, 0, 1, 2, 2, 1]);
    }

    #[test]
    fn multi_source_empty_targets() {
        let g = builders::ring(4);
        let d = multi_source_distances(&g, &[]);
        assert!(d.iter().all(|&x| x == UNREACHABLE));
    }

    #[test]
    fn multi_source_duplicate_targets() {
        let g = builders::ring(6);
        let a = multi_source_distances(&g, &[NodeId::new(2), NodeId::new(2)]);
        let b = multi_source_distances(&g, &[NodeId::new(2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn parents_form_shortest_path_tree() {
        let g = builders::torus(4, 4);
        let src = NodeId::new(0);
        let parent = bfs_parents(&g, src);
        let dist = bfs_distances(&g, src);
        for v in g.nodes() {
            if v != src {
                let p = parent[v.index()];
                assert!(g.has_edge(v, p));
                assert_eq!(dist[p.index()] + 1, dist[v.index()]);
            }
        }
    }

    #[test]
    fn parents_source_is_own_parent() {
        let g = builders::ring(5);
        let parent = bfs_parents(&g, NodeId::new(3));
        assert_eq!(parent[3], NodeId::new(3));
    }
}
