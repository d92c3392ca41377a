//! The reference multi-agent rotor-router engine on arbitrary port graphs.
//!
//! Implements the model of §1.3 verbatim: in each round, every (non-delayed)
//! agent at node `v` leaves along the arc indicated by the port pointer
//! `π_v`, which is then advanced; `c` agents leaving `v` in one round use
//! ports `π_v, π_v+1, …, π_v+c−1` (mod `deg v`) and leave the pointer at
//! `π_v + c`. Because agents are indistinguishable, the engine processes
//! per-node agent *counts* rather than individual agents — exactly the
//! observation the paper makes ("the order in which agents are released
//! within the same round is irrelevant").
//!
//! Per round the engine writes only the pointers, the agent counts, the
//! occupied list and the visit record ([`VisitSet`]). The quantities
//! the paper's lemmas are stated in — visits `n_v(t)`, exits `e_v(t)` and
//! the per-arc round-robin identity
//! `traversals(v →_p u) = ⌈(e_v − label_v(p)) / deg(v)⌉` of §1.3 — are
//! proof devices no experiment reads. They are counted and checked on the
//! per-agent reference of the equivalence tests, which this engine matches
//! state for state at every round.

use crate::bitset::VisitSet;
use crate::init::PointerInit;
use rotor_graph::{NodeId, PortGraph};

/// Snapshot of the mutable part of a rotor-router configuration: pointers
/// and agent counts. Port orders are fixed in the graph and agents are
/// indistinguishable, so two equal `EngineState`s imply identical futures.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct EngineState {
    /// Current port pointer per node.
    pub pointers: Vec<u32>,
    /// Number of agents per node.
    pub agents: Vec<u32>,
}

/// The multi-agent rotor-router on a general [`PortGraph`].
///
/// ```
/// use rotor_core::{init::PointerInit, CoverProcess, Engine};
/// use rotor_graph::{builders, NodeId};
///
/// let g = builders::grid(4, 4);
/// let agents = vec![NodeId::new(0), NodeId::new(0)];
/// let mut e = Engine::new(&g, &agents, &PointerInit::Uniform(0));
/// let cover = e.run_until_covered(100_000).expect("covers the grid");
/// assert!(cover <= 2 * 6 * 24); // within the 2·D·|E| lock-in bound
/// ```
#[derive(Debug)]
pub struct Engine<'g> {
    g: &'g PortGraph,
    pointers: Vec<u32>,
    agents: Vec<u32>,
    /// Nodes with `agents[v] > 0`, kept sorted and deduplicated.
    occupied: Vec<u32>,
    round: u64,
    k: u32,
    visits: VisitSet,
    /// Scratch buffer of `(dest, count)` arrivals, kept between rounds to
    /// avoid reallocation.
    arrivals: Vec<(u32, u32)>,
    /// Scratch buffer for the next occupied-node list.
    next_occupied: Vec<u32>,
}

/// A copy starts with empty scratch, and `clone_from` reuses the buffers of
/// the engine it overwrites, so the §4 probes' checkpoints allocate
/// nothing once warm.
impl Clone for Engine<'_> {
    fn clone(&self) -> Self {
        Engine {
            pointers: self.pointers.clone(),
            agents: self.agents.clone(),
            occupied: self.occupied.clone(),
            visits: self.visits.clone(),
            arrivals: Vec::new(),
            next_occupied: Vec::new(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.pointers.clone_from(&source.pointers);
        self.agents.clone_from(&source.agents);
        self.occupied.clone_from(&source.occupied);
        self.visits.clone_from(&source.visits);
        (self.g, self.round, self.k) = (source.g, source.round, source.k);
    }
}

impl<'g> Engine<'g> {
    /// Creates an engine with agents at `agents` (a multiset of nodes) and
    /// pointers from `init`.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty, a position is out of range, or `init`
    /// is invalid for this graph (see [`PointerInit::pointers`]).
    pub fn new(g: &'g PortGraph, agents: &[NodeId], init: &PointerInit) -> Self {
        let pointers = init.pointers(g, agents);
        Self::with_pointers(g, agents, pointers)
    }

    /// Creates an engine with an explicit pointer vector (port index per
    /// node).
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty or any position/pointer is out of range.
    pub fn with_pointers(g: &'g PortGraph, agents: &[NodeId], pointers: Vec<u32>) -> Self {
        assert!(!agents.is_empty(), "need at least one agent");
        assert_eq!(pointers.len(), g.node_count(), "pointer vector length");
        for v in g.nodes() {
            assert!(
                (pointers[v.index()] as usize) < g.degree(v),
                "pointer out of range at {v:?}"
            );
        }
        let n = g.node_count();
        let mut count = vec![0u32; n];
        let mut visits = VisitSet::new(n);
        for &a in agents {
            assert!(a.index() < n, "agent position out of range");
            count[a.index()] += 1;
            visits.arrive(a.index(), 0);
        }
        let occupied: Vec<u32> = {
            let mut occ: Vec<u32> = agents.iter().map(|a| a.value()).collect();
            occ.sort_unstable();
            occ.dedup();
            occ
        };
        Engine {
            g,
            pointers,
            agents: count,
            occupied,
            round: 0,
            k: agents.len() as u32,
            visits,
            arrivals: Vec::new(),
            next_occupied: Vec::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g PortGraph {
        self.g
    }

    /// Number of agents `k`.
    pub fn agent_count(&self) -> u32 {
        self.k
    }

    /// Current port pointer `π_v`.
    pub fn pointer(&self, v: NodeId) -> u32 {
        self.pointers[v.index()]
    }

    /// Agents currently at `v`.
    pub fn agents_at(&self, v: NodeId) -> u32 {
        self.agents[v.index()]
    }

    /// Sorted list of nodes currently holding at least one agent.
    pub fn occupied(&self) -> &[u32] {
        &self.occupied
    }

    /// Snapshot of pointers and agent counts.
    pub fn state(&self) -> EngineState {
        EngineState {
            pointers: self.pointers.clone(),
            agents: self.agents.clone(),
        }
    }

    /// Advances one round of a *delayed deployment* (§2.1): `delay(v, c)`
    /// is `D(v, t)` — how many of the `c` agents currently at node `v` are
    /// held this round (clamped to `c`). Held agents neither move nor
    /// advance the pointer.
    pub fn step_delayed(&mut self, mut delay: impl FnMut(u32, u32) -> u32) {
        self.round += 1;
        let mut arrivals = std::mem::take(&mut self.arrivals);
        let mut next_occ = std::mem::take(&mut self.next_occupied);
        arrivals.clear();
        next_occ.clear();
        // Departures: `c` agents leaving a node of degree `d` take `c/d`
        // full round-robin cycles plus one extra exit through each of the
        // `c mod d` ports starting at the pointer — O(min(c, d)) arithmetic
        // per node, never per agent. agents[v] keeps only held agents.
        for i in 0..self.occupied.len() {
            let v = self.occupied[i];
            let c = self.agents[v as usize];
            debug_assert!(c > 0);
            let held = delay(v, c).min(c);
            let moving = c - held;
            self.agents[v as usize] = held;
            if held > 0 {
                next_occ.push(v);
            }
            if moving == 0 {
                continue;
            }
            let node = NodeId::new(v);
            let deg = self.g.degree(node) as u32;
            let ptr = self.pointers[v as usize];
            let full = moving / deg;
            let rem = moving % deg;
            let nbrs = self.g.neighbor_slice(node);
            if full == 0 {
                // fewer movers than ports: only ports ptr..ptr+rem−1 fire
                for offset in 0..rem {
                    let p = ptr + offset;
                    let p = if p >= deg { p - deg } else { p } as usize;
                    arrivals.push((nbrs[p], 1));
                }
            } else {
                for (p, &dest) in nbrs.iter().enumerate() {
                    // ports ptr, ptr+1, …, ptr+rem−1 get one extra traversal
                    let offset = (p as u32 + deg - ptr) % deg;
                    arrivals.push((dest, full + u32::from(offset < rem)));
                }
            }
            self.pointers[v as usize] = (ptr + moving) % deg;
        }
        // Arrivals: accumulate straight into the agent counts — no sorting
        // of the arrival stream. Each node enters `next_occ` at most once
        // (held nodes during departures; arrival targets only on their
        // 0 → positive transition), so a sort of the small occupied list is
        // all that remains.
        for &(dest, cnt) in &arrivals {
            let d = dest as usize;
            if self.agents[d] == 0 {
                next_occ.push(dest);
            }
            self.agents[d] += cnt;
            self.visits.arrive(d, self.round);
        }
        next_occ.sort_unstable();
        std::mem::swap(&mut self.occupied, &mut next_occ);
        self.arrivals = arrivals;
        self.next_occupied = next_occ;
        debug_assert_eq!(
            self.occupied
                .iter()
                .map(|&v| u64::from(self.agents[v as usize]))
                .sum::<u64>(),
            u64::from(self.k),
            "agents conserved"
        );
    }
}

/// Agents first: a mismatch in who sits where settles most comparisons
/// before the pointer vector is read.
impl crate::limit::ConfigSnapshot for Engine<'_> {
    type Config = EngineState;

    fn config_into(&self, out: &mut EngineState) {
        out.pointers.clone_from(&self.pointers);
        out.agents.clone_from(&self.agents);
    }

    fn config_eq(&self, c: &EngineState) -> bool {
        c.agents == self.agents && c.pointers == self.pointers
    }

    fn same_config(&self, other: &Self) -> bool {
        self.agents == other.agents && self.pointers == other.pointers
    }
}

impl crate::CoverProcess for Engine<'_> {
    fn kind_name(&self) -> &'static str {
        "rotor_general"
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn step(&mut self) {
        self.step_delayed(|_, _| 0);
    }

    fn visits(&self) -> &VisitSet {
        &self.visits
    }
}

impl crate::faults::Perturb for Engine<'_> {
    /// Each draw picks a node and a fresh in-range pointer from the
    /// chained `seed` stream; draws may repeat a node.
    fn corrupt_pointers(&mut self, seed: u64, count: u32) -> u32 {
        let n = self.g.node_count() as u64;
        let mut s = seed;
        let mut changed = 0;
        for _ in 0..count {
            s = crate::rng::splitmix64(s);
            let v = (s % n) as usize;
            let deg = self.g.degree(NodeId::new(v as u32)) as u64;
            let new_ptr = ((s >> 32) % deg) as u32;
            changed += u32::from(self.pointers[v] != new_ptr);
            self.pointers[v] = new_ptr;
        }
        changed
    }

    /// Each draw removes one agent from a seed-chosen occupied node.
    fn remove_agents(&mut self, seed: u64, count: u32) -> u32 {
        let mut s = seed;
        let mut removed = 0;
        for _ in 0..count {
            if self.k <= 1 {
                break;
            }
            s = crate::rng::splitmix64(s);
            let i = (s % self.occupied.len() as u64) as usize;
            let v = self.occupied[i] as usize;
            self.agents[v] -= 1;
            if self.agents[v] == 0 {
                self.occupied.remove(i);
            }
            self.k -= 1;
            removed += 1;
        }
        removed
    }

    fn reset_cover_epoch(&mut self) {
        let occupied = self.occupied.iter().map(|&v| v as usize);
        self.visits.reset(occupied, self.round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoverProcess;
    use rotor_graph::builders;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().map(|&x| NodeId::new(x)).collect()
    }

    #[test]
    fn single_agent_on_ring_moves_as_expected() {
        let g = builders::ring(5);
        // pointers all clockwise; the agent's first lap is clockwise
        let mut e = Engine::new(&g, &ids(&[0]), &PointerInit::Uniform(0));
        for t in 1..=5u64 {
            e.step();
            let pos = (t % 5) as u32;
            assert_eq!(e.agents_at(NodeId::new(pos)), 1, "round {t}");
            assert_eq!(e.occupied(), &[pos]);
        }
        // back at node 0 whose pointer now points anticlockwise: reflect
        e.step();
        assert_eq!(e.occupied(), &[4]);
    }

    #[test]
    fn rotor_reflects_on_revisit() {
        // One agent, 3-ring, all pointers clockwise.
        // t1: leaves 0 cw -> at 1, ptr(0)=acw
        // t2: leaves 1 cw -> at 2, ptr(1)=acw
        // t3: leaves 2 cw -> at 0, ptr(2)=acw
        // t4: at 0 pointer is acw -> moves to 2, ptr(0)=cw
        let g = builders::ring(3);
        let mut e = Engine::new(&g, &ids(&[0]), &PointerInit::Uniform(0));
        e.run(3);
        assert_eq!(e.agents_at(NodeId::new(0)), 1);
        e.step();
        assert_eq!(e.agents_at(NodeId::new(2)), 1, "revisit must reflect");
    }

    #[test]
    fn two_agents_same_node_split() {
        let g = builders::ring(6);
        let mut e = Engine::new(&g, &ids(&[0, 0]), &PointerInit::Uniform(0));
        e.step();
        // first agent cw to 1, second acw to 5; pointer back at cw
        assert_eq!(e.agents_at(NodeId::new(1)), 1);
        assert_eq!(e.agents_at(NodeId::new(5)), 1);
        assert_eq!(e.pointer(NodeId::new(0)), 0);
    }

    #[test]
    fn many_agents_round_robin_all_ports() {
        let g = builders::star(5); // centre 0 with 4 leaves
        let centre = NodeId::new(0);
        let mut e = Engine::new(&g, &ids(&[0, 0, 0, 0, 0]), &PointerInit::Uniform(2));
        e.step();
        // 5 agents over 4 ports starting at port 2: ports 2,3,0,1,2
        for (p, expected) in [(2, 2), (3, 1), (0, 1), (1, 1)] {
            assert_eq!(e.agents_at(g.neighbor(centre, p)), expected, "port {p}");
        }
        assert_eq!(e.agents_at(centre), 0);
        assert_eq!(e.pointer(centre), (2 + 5) % 4);
    }

    #[test]
    fn visits_count_initial_placement() {
        let g = builders::ring(4);
        let e = Engine::new(&g, &ids(&[2, 2, 3]), &PointerInit::Uniform(0));
        assert_eq!(e.agents_at(NodeId::new(2)), 2);
        assert_eq!(e.agents_at(NodeId::new(3)), 1);
        assert_eq!(e.agents_at(NodeId::new(0)), 0);
        assert_eq!(e.occupied(), &[2, 3]);
        assert!(e.visits().contains(2) && !e.visits().contains(0));
        assert_eq!(e.visits().count(), 2);
    }

    #[test]
    fn cover_round_initial_full_cover() {
        let g = builders::ring(3);
        let e = Engine::new(&g, &ids(&[0, 1, 2]), &PointerInit::Uniform(0));
        assert_eq!(e.cover_round(), Some(0));
    }

    #[test]
    fn single_agent_covers_ring_in_quadratic_time() {
        let n = 32;
        let g = builders::ring(n);
        // worst case: pointers toward the agent (negative init)
        let agents = ids(&[0]);
        let mut e = Engine::new(&g, &agents, &PointerInit::TowardNearestAgent);
        let c = e.run_until_covered(10 * (n * n) as u64).unwrap();
        // paper: single-agent ring cover time Θ(n²); sanity-band check
        assert!(c >= (n * n / 8) as u64, "cover {c} too fast");
        assert!(c <= (4 * n * n) as u64, "cover {c} too slow");
    }

    #[test]
    fn agents_conserved_across_rounds() {
        let g = builders::torus(4, 4);
        let mut e = Engine::new(&g, &ids(&[0, 5, 5, 9]), &PointerInit::Random(3));
        for _ in 0..200 {
            e.step();
            let total: u32 = e
                .occupied()
                .iter()
                .map(|&v| e.agents_at(NodeId::new(v)))
                .sum();
            assert_eq!(total, 4);
        }
    }

    #[test]
    fn delayed_agents_stay_put() {
        let g = builders::ring(8);
        let mut e = Engine::new(&g, &ids(&[3, 3]), &PointerInit::Uniform(0));
        // hold everything at node 3
        e.step_delayed(|_, c| c);
        assert_eq!(e.agents_at(NodeId::new(3)), 2);
        assert_eq!(
            e.pointer(NodeId::new(3)),
            0,
            "held agents don't advance pointer"
        );
        // hold one of two
        e.step_delayed(|_, _| 1);
        assert_eq!(e.agents_at(NodeId::new(3)), 1);
        assert_eq!(e.agents_at(NodeId::new(4)), 1);
        assert_eq!(e.pointer(NodeId::new(3)), 1, "one exit advances it once");
    }

    #[test]
    fn delay_clamped_to_present_agents() {
        let g = builders::ring(5);
        let mut e = Engine::new(&g, &ids(&[1]), &PointerInit::Uniform(0));
        e.step_delayed(|_, _| 99);
        assert_eq!(
            e.agents_at(NodeId::new(1)),
            1,
            "clamped delay holds the agent"
        );
    }

    #[test]
    fn state_snapshot_equality() {
        let g = builders::ring(6);
        let e1 = Engine::new(&g, &ids(&[0, 3]), &PointerInit::Uniform(0));
        let e2 = Engine::new(&g, &ids(&[3, 0]), &PointerInit::Uniform(0));
        assert_eq!(e1.state(), e2.state(), "multiset placement, order-free");
        let mut e3 = e1.clone();
        e3.step();
        assert_ne!(e1.state(), e3.state());
    }

    #[test]
    fn run_until_covered_times_out() {
        let g = builders::ring(64);
        let mut e = Engine::new(&g, &ids(&[0]), &PointerInit::TowardNearestAgent);
        assert_eq!(e.run_until_covered(3), None);
    }
}
