//! Pointer initialisations.
//!
//! The paper assumes "the initialization of ports and pointers in the system
//! is performed by an adversary" (§1.3). The theorems use two named
//! strategies:
//!
//! * **Negative** initialisation ([`PointerInit::TowardNearestAgent`]):
//!   every pointer at an unvisited node points back along a shortest path
//!   toward the nearest agent, so "during the first visit to any vertex …
//!   this agent is directed back to its previous location" (§2.2). Theorem 1
//!   uses the special case of all pointers "initialized along the shortest
//!   path to `v`" when all agents start at `v`, and Theorem 4 builds its
//!   `Ω((n/k)²)` lower bound from negative pointers around remote vertices.
//! * **Positive** initialisation ([`PointerInit::AwayFromNearestAgent`]):
//!   the opposite — first visits propagate outward, the most favourable
//!   arrangement.
//!
//! On the ring, a pointer is simply a direction: `0` = clockwise (toward
//! `v+1 mod n`), `1` = anticlockwise, matching the port convention of
//! [`rotor_graph::builders::ring`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rotor_graph::{algo, NodeId, PortGraph};

/// Clockwise direction bit on the ring (toward `v + 1 mod n`).
pub const CW: u8 = 0;
/// Anticlockwise direction bit on the ring (toward `v − 1 mod n`).
pub const ACW: u8 = 1;

/// A strategy assigning the initial port pointer `π_v` to every node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PointerInit {
    /// All pointers at port `p mod deg(v)`; on the ring `Uniform(0)` points
    /// every node clockwise.
    Uniform(usize),
    /// Negative initialisation: pointers point toward the nearest agent
    /// (equidistant ties broken deterministically; by smallest port on
    /// general graphs). Nodes holding agents point at port 0 / clockwise.
    TowardNearestAgent,
    /// Positive initialisation: pointers point away from the nearest agent
    /// (exact complement of [`PointerInit::TowardNearestAgent`]).
    AwayFromNearestAgent,
    /// Pointers along the BFS shortest-path tree toward the given node
    /// (Theorem 1's "pointers initialized along the shortest path to `v`").
    /// On the ring with agents all at that node this coincides with
    /// [`PointerInit::TowardNearestAgent`].
    TowardNode(u32),
    /// Independent uniformly random ports, seeded (reproducible).
    Random(u64),
    /// Explicit pointer per node (adversarial constructions, tests).
    Custom(Vec<usize>),
}

impl PointerInit {
    /// Initial pointers (port indices) for a general port graph with agents
    /// at `agents`.
    ///
    /// # Panics
    ///
    /// Panics if a `Custom` vector has the wrong length or an out-of-range
    /// port, or if `TowardNearestAgent`/`AwayFromNearestAgent` is used with
    /// an empty `agents` slice, or `TowardNode` names an out-of-range node.
    pub fn pointers(&self, g: &PortGraph, agents: &[NodeId]) -> Vec<u32> {
        let n = g.node_count();
        match self {
            PointerInit::Uniform(p) => g.nodes().map(|v| (*p % g.degree(v)) as u32).collect(),
            PointerInit::TowardNearestAgent => {
                assert!(!agents.is_empty(), "negative init needs >= 1 agent");
                let dist = algo::multi_source_distances(g, agents);
                g.nodes()
                    .map(|v| {
                        let dv = dist[v.index()];
                        if dv == 0 {
                            return 0;
                        }
                        (0..g.degree(v))
                            .find(|&p| dist[g.neighbor(v, p).index()] < dv)
                            .expect("connected graph has a descending neighbour")
                            as u32
                    })
                    .collect()
            }
            PointerInit::AwayFromNearestAgent => {
                assert!(!agents.is_empty(), "positive init needs >= 1 agent");
                let dist = algo::multi_source_distances(g, agents);
                g.nodes()
                    .map(|v| {
                        let dv = dist[v.index()];
                        // Prefer a strictly ascending neighbour; fall back to
                        // any non-descending one, then port 0.
                        (0..g.degree(v))
                            .find(|&p| dist[g.neighbor(v, p).index()] > dv)
                            .or_else(|| {
                                (0..g.degree(v)).find(|&p| dist[g.neighbor(v, p).index()] >= dv)
                            })
                            .unwrap_or(0) as u32
                    })
                    .collect()
            }
            PointerInit::TowardNode(target) => {
                assert!((*target as usize) < n, "target node out of range");
                let target = NodeId::new(*target);
                let parent = algo::bfs_parents(g, target);
                g.nodes()
                    .map(|v| {
                        if v == target {
                            0
                        } else {
                            g.port_to(v, parent[v.index()])
                                .expect("BFS parent is a neighbour")
                                as u32
                        }
                    })
                    .collect()
            }
            PointerInit::Random(seed) => {
                #[expect(clippy::disallowed_methods, reason = "a STREAM_POINTER_INIT seed")]
                let mut rng = SmallRng::seed_from_u64(*seed);
                g.nodes()
                    .map(|v| rng.gen_range(0..g.degree(v)) as u32)
                    .collect()
            }
            PointerInit::Custom(ptrs) => {
                assert_eq!(ptrs.len(), n, "custom pointer vector length mismatch");
                g.nodes()
                    .map(|v| {
                        let p = ptrs[v.index()];
                        assert!(p < g.degree(v), "custom pointer out of range at {v:?}");
                        p as u32
                    })
                    .collect()
            }
        }
    }

    /// Initial direction bits for the `n`-node ring with agents at `agents`
    /// (node indices).
    ///
    /// Direction `0` is clockwise. Equivalent to
    /// [`pointers`](Self::pointers) on [`rotor_graph::builders::ring`] but
    /// without building the graph; the equivalence is pinned by tests.
    ///
    /// # Panics
    ///
    /// Same conditions as [`pointers`](Self::pointers); additionally
    /// requires `n ≥ 3` (the degenerate 2-ring has degree-1 nodes).
    pub fn ring_directions(&self, n: usize, agents: &[u32]) -> Vec<u8> {
        assert!(n >= 3, "ring direction init needs n >= 3");
        match self {
            PointerInit::Uniform(p) => vec![(*p % 2) as u8; n],
            PointerInit::TowardNearestAgent => {
                assert!(!agents.is_empty(), "negative init needs >= 1 agent");
                ring_nearest_agent_dirs(n, agents, false)
            }
            PointerInit::AwayFromNearestAgent => {
                assert!(!agents.is_empty(), "positive init needs >= 1 agent");
                ring_nearest_agent_dirs(n, agents, true)
            }
            PointerInit::TowardNode(target) => {
                assert!((*target as usize) < n, "target node out of range");
                ring_nearest_agent_dirs(n, &[*target], false)
            }
            PointerInit::Random(seed) => {
                #[expect(clippy::disallowed_methods, reason = "a STREAM_POINTER_INIT seed")]
                let mut rng = SmallRng::seed_from_u64(*seed);
                (0..n).map(|_| rng.gen_range(0..2u8)).collect()
            }
            PointerInit::Custom(ptrs) => {
                assert_eq!(ptrs.len(), n, "custom pointer vector length mismatch");
                ptrs.iter()
                    .map(|&p| {
                        assert!(p < 2, "ring pointer must be 0 or 1");
                        p as u8
                    })
                    .collect()
            }
        }
    }
}

/// Directions toward (or away from, if `invert`) the nearest node of
/// `agents` on the ring; cyclic distance ties broken deterministically by
/// BFS processing order.
fn ring_nearest_agent_dirs(n: usize, agents: &[u32], invert: bool) -> Vec<u8> {
    // Multi-source BFS on the ring, tracking the first direction that
    // reaches each node. dist[v], dir[v] = direction from v toward source.
    let mut dist = vec![u32::MAX; n];
    let mut dir = vec![CW; n];
    let mut frontier: Vec<u32> = Vec::new();
    for &a in agents {
        assert!((a as usize) < n, "agent position out of range");
        if dist[a as usize] != 0 {
            dist[a as usize] = 0;
            frontier.push(a);
        }
    }
    let n32 = n as u32;
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            // Node u = v - 1 reaches an agent by walking clockwise (toward
            // v); node u = v + 1 reaches it anticlockwise.
            let cw_u = (v + n32 - 1) % n32;
            if dist[cw_u as usize] == u32::MAX {
                dist[cw_u as usize] = d;
                dir[cw_u as usize] = CW;
                next.push(cw_u);
            }
            let acw_u = (v + 1) % n32;
            if dist[acw_u as usize] == u32::MAX {
                dist[acw_u as usize] = d;
                dir[acw_u as usize] = ACW;
                next.push(acw_u);
            }
        }
        frontier = next;
    }
    if invert {
        dir.iter().map(|&b| b ^ 1).collect()
    } else {
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotor_graph::builders;

    #[test]
    fn uniform_ring_dirs() {
        assert_eq!(PointerInit::Uniform(0).ring_directions(5, &[]), vec![CW; 5]);
        assert_eq!(
            PointerInit::Uniform(1).ring_directions(5, &[]),
            vec![ACW; 5]
        );
        assert_eq!(
            PointerInit::Uniform(3).ring_directions(4, &[]),
            vec![ACW; 4]
        );
    }

    #[test]
    fn toward_single_agent_on_ring() {
        // agent at 0 on a 6-ring: nodes 1..3 point anticlockwise (toward 0),
        // nodes 4,5 clockwise; node 3 is tied (dist 3 both ways) and the
        // clockwise-preferring tie-break means it points... let's pin it:
        let d = PointerInit::TowardNearestAgent.ring_directions(6, &[0]);
        assert_eq!(d[0], CW); // holds the agent, arbitrary = CW
        assert_eq!(d[1], ACW);
        assert_eq!(d[2], ACW);
        assert_eq!(d[4], CW);
        assert_eq!(d[5], CW);
        // tie node: reached first from the clockwise side in our BFS order
        assert!(d[3] == CW || d[3] == ACW);
    }

    #[test]
    fn away_is_complement_of_toward() {
        let t = PointerInit::TowardNearestAgent.ring_directions(9, &[2, 7]);
        let a = PointerInit::AwayFromNearestAgent.ring_directions(9, &[2, 7]);
        for v in 0..9 {
            assert_eq!(t[v] ^ 1, a[v]);
        }
    }

    #[test]
    fn toward_node_matches_toward_single_agent() {
        let a = PointerInit::TowardNode(4).ring_directions(11, &[]);
        let b = PointerInit::TowardNearestAgent.ring_directions(11, &[4]);
        assert_eq!(a, b);
    }

    #[test]
    fn random_is_reproducible() {
        let a = PointerInit::Random(7).ring_directions(16, &[]);
        let b = PointerInit::Random(7).ring_directions(16, &[]);
        let c = PointerInit::Random(8).ring_directions(16, &[]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn custom_passthrough() {
        let d = PointerInit::Custom(vec![0, 1, 1, 0]).ring_directions(4, &[]);
        assert_eq!(d, vec![0, 1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn custom_wrong_length_panics() {
        PointerInit::Custom(vec![0, 1]).ring_directions(4, &[]);
    }

    #[test]
    #[should_panic(expected = "0 or 1")]
    fn custom_bad_direction_panics() {
        PointerInit::Custom(vec![0, 1, 2, 0]).ring_directions(4, &[]);
    }

    #[test]
    fn general_graph_negative_init_descends() {
        let g = builders::torus(4, 4);
        let agents = [NodeId::new(5)];
        let ptrs = PointerInit::TowardNearestAgent.pointers(&g, &agents);
        let dist = algo::multi_source_distances(&g, &agents);
        for v in g.nodes() {
            if dist[v.index()] > 0 {
                let u = g.neighbor(v, ptrs[v.index()] as usize);
                assert_eq!(dist[u.index()] + 1, dist[v.index()]);
            }
        }
    }

    #[test]
    fn general_graph_positive_init_never_descends_unless_forced() {
        let g = builders::star(6);
        // agent at a leaf; the centre's only non-descending options pass
        // through other leaves
        let agents = [NodeId::new(3)];
        let ptrs = PointerInit::AwayFromNearestAgent.pointers(&g, &agents);
        let dist = algo::multi_source_distances(&g, &agents);
        for v in g.nodes() {
            let u = g.neighbor(v, ptrs[v.index()] as usize);
            // positive init must not point down toward the agent when an
            // alternative exists
            if (0..g.degree(v)).any(|p| dist[g.neighbor(v, p).index()] >= dist[v.index()]) {
                assert!(dist[u.index()] >= dist[v.index()]);
            }
        }
    }

    #[test]
    fn ring_dirs_match_general_pointers_on_ring_graph() {
        let n = 13;
        let g = builders::ring(n);
        let agents_u: Vec<u32> = vec![1, 6, 6, 9];
        let agents: Vec<NodeId> = agents_u.iter().map(|&a| NodeId::new(a)).collect();
        for init in [
            PointerInit::Uniform(0),
            PointerInit::Uniform(1),
            PointerInit::TowardNode(6),
        ] {
            let ptrs = init.pointers(&g, &agents);
            let dirs = init.ring_directions(n, &agents_u);
            for v in 0..n {
                // port 0 = clockwise on builders::ring, so the port index
                // equals the direction bit
                assert_eq!(ptrs[v] as u8, dirs[v], "init {init:?} node {v}");
            }
        }
    }

    #[test]
    fn negative_init_distances_agree_with_port_graph() {
        // TowardNearestAgent may differ in tie-breaking between the two
        // implementations, but the *distance decrease* property must hold
        // for both.
        let n = 12;
        let g = builders::ring(n);
        let agents_u: Vec<u32> = vec![0, 7];
        let agents: Vec<NodeId> = agents_u.iter().map(|&a| NodeId::new(a)).collect();
        let dist = algo::multi_source_distances(&g, &agents);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &agents_u);
        for v in 0..n {
            if dist[v] > 0 {
                let next = if dirs[v] == CW {
                    (v + 1) % n
                } else {
                    (v + n - 1) % n
                };
                assert_eq!(dist[next] + 1, dist[v], "node {v} must descend");
            }
        }
    }
}
