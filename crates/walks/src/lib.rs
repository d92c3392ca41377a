//! # rotor-walks
//!
//! Parallel random-walk baselines for comparison against the rotor-router.
//!
//! The paper positions the multi-agent rotor-router as "a deterministic
//! alternative to parallel random walks"; quantitative comparisons (cover
//! time distributions, speed-up curves à la Alon et al.) need a `k`
//! independent-walkers baseline on the same [`rotor_graph::PortGraph`]s.
//! [`ParallelWalk`] implements [`rotor_core::CoverProcess`], so the sharded
//! sweep driver in `rotor-sweep` runs rotor-router and random-walk cells
//! through identical machinery and the two cover-time curves come out of
//! one grid.
//!
//! ```
//! use rotor_core::CoverProcess;
//! use rotor_graph::{builders, NodeId};
//! use rotor_walks::ParallelWalk;
//!
//! // Two seeded walkers on a 32-node ring: deterministic per seed, so a
//! // sweep cell reproduces exactly on any thread count.
//! let g = builders::ring(32);
//! let starts = [NodeId::new(0), NodeId::new(16)];
//! let mut w = ParallelWalk::new(&g, &starts, 7);
//! let cover = w.run_until_covered(1_000_000).expect("walkers cover the ring");
//! assert!(cover > 0 && w.visited_count() == 32);
//! assert_eq!(w.kind_name(), "walk");
//! ```

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rotor_core::bitset::VisitSet;
use rotor_core::CoverProcess;
use rotor_graph::{NodeId, PortGraph};

/// `k` independent simple random walkers advancing synchronously on a
/// borrowed graph, with visited-node tracking shared with the rotor
/// engines ([`VisitSet`]).
///
/// ```
/// use rotor_graph::{builders, NodeId};
/// use rotor_walks::ParallelWalk;
///
/// let g = builders::ring(16);
/// let mut w = ParallelWalk::new(&g, &[NodeId::new(0)], 3);
/// assert!(w.cover_time(1_000_000).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct ParallelWalk<'g> {
    g: &'g PortGraph,
    positions: Vec<NodeId>,
    rng: SmallRng,
    round: u64,
    visited: VisitSet,
    unvisited: usize,
    cover_round: Option<u64>,
}

impl<'g> ParallelWalk<'g> {
    /// Creates walkers at `starts` on `g`, with a seeded (reproducible)
    /// RNG. Starting nodes count as visited (round 0), mirroring the
    /// rotor engines.
    ///
    /// # Panics
    ///
    /// Panics if `starts` is empty or a start is out of range.
    pub fn new(g: &'g PortGraph, starts: &[NodeId], seed: u64) -> Self {
        assert!(!starts.is_empty(), "need at least one walker");
        let n = g.node_count();
        let mut visited = VisitSet::new(n);
        let mut unvisited = n;
        for &p in starts {
            assert!(p.index() < n, "walker position out of range");
            if visited.insert(p.index()) {
                unvisited -= 1;
            }
        }
        ParallelWalk {
            g,
            positions: starts.to_vec(),
            // lint: allow(named-rng-streams) -- callers hand in a seed derived via STREAM_WALK (rotor-sweep runners)
            rng: SmallRng::seed_from_u64(seed),
            round: 0,
            visited,
            unvisited,
            cover_round: (unvisited == 0).then_some(0),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g PortGraph {
        self.g
    }

    /// Current walker positions (multiset).
    pub fn positions(&self) -> &[NodeId] {
        &self.positions
    }

    /// Completed rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether `v` has ever been visited (or initially held a walker).
    pub fn is_visited(&self, v: NodeId) -> bool {
        self.visited.contains(v.index())
    }

    /// Number of never-visited nodes.
    pub fn unvisited_count(&self) -> usize {
        self.unvisited
    }

    /// The round at which the last node was first visited, if any
    /// (`Some(0)` if the starting positions already cover).
    pub fn cover_round(&self) -> Option<u64> {
        self.cover_round
    }

    /// Advances one synchronous round: every walker moves to a uniformly
    /// random neighbour.
    pub fn step(&mut self) {
        self.round += 1;
        for p in &mut self.positions {
            let d = self.g.degree(*p);
            *p = self.g.neighbor(*p, self.rng.gen_range(0..d));
            if self.visited.insert(p.index()) {
                self.unvisited -= 1;
                if self.unvisited == 0 && self.cover_round.is_none() {
                    self.cover_round = Some(self.round);
                }
            }
        }
    }

    /// Rounds until every node has been visited, or `None` after
    /// `max_rounds` total rounds.
    pub fn cover_time(&mut self, max_rounds: u64) -> Option<u64> {
        CoverProcess::run_until_covered(self, max_rounds)
    }
}

impl rotor_core::faults::Perturb for ParallelWalk<'_> {
    /// A random walk has no rotor state to corrupt — a documented no-op
    /// (returns 0), kept so crash-fault recovery experiments can run the
    /// walk as a comparison column through the same [`Perturb`] driver.
    ///
    /// [`Perturb`]: rotor_core::faults::Perturb
    fn corrupt_pointers(&mut self, _seed: u64, _count: u32) -> u32 {
        0
    }

    fn remove_agents(&mut self, seed: u64, count: u32) -> u32 {
        let mut s = seed;
        let mut removed = 0;
        for _ in 0..count {
            if self.positions.len() <= 1 {
                break;
            }
            s = rotor_core::rng::splitmix64(s);
            let i = (s % self.positions.len() as u64) as usize;
            self.positions.swap_remove(i);
            removed += 1;
        }
        removed
    }

    fn reset_cover_epoch(&mut self) {
        let n = self.g.node_count();
        let mut visited = VisitSet::new(n);
        for p in &self.positions {
            visited.insert(p.index());
        }
        let occupied = visited.count_ones();
        self.visited = visited;
        self.unvisited = n - occupied;
        self.cover_round = (self.unvisited == 0).then_some(self.round);
    }
}

impl CoverProcess for ParallelWalk<'_> {
    fn kind_name(&self) -> &'static str {
        "walk"
    }

    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    fn round(&self) -> u64 {
        ParallelWalk::round(self)
    }

    fn step(&mut self) {
        ParallelWalk::step(self);
    }

    fn cover_round(&self) -> Option<u64> {
        ParallelWalk::cover_round(self)
    }

    fn visited_count(&self) -> usize {
        self.g.node_count() - self.unvisited
    }

    fn is_node_visited(&self, node: usize) -> bool {
        self.visited.contains(node)
    }

    /// The word-wise pass over the visited set,
    /// [`VisitSet::domain_stats`].
    fn domain_stats(&self) -> rotor_core::domains::DomainStats {
        self.visited.domain_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotor_graph::builders;

    #[test]
    fn walkers_stay_on_graph_and_reproduce() {
        let g = builders::ring(12);
        let starts = vec![NodeId::new(0), NodeId::new(6)];
        let mut a = ParallelWalk::new(&g, &starts, 7);
        let mut b = ParallelWalk::new(&g, &starts, 7);
        for _ in 0..100 {
            a.step();
            b.step();
            assert_eq!(a.positions(), b.positions());
            for p in a.positions() {
                assert!(p.index() < 12);
            }
        }
    }

    #[test]
    fn covers_small_ring() {
        let g = builders::ring(16);
        let mut w = ParallelWalk::new(&g, &[NodeId::new(0)], 3);
        let c = w.cover_time(1_000_000).expect("random walk covers");
        assert!(c >= 15, "cannot cover 16 nodes in fewer than 15 steps");
        assert_eq!(w.cover_round(), Some(c), "cover round is sticky");
        assert_eq!(w.unvisited_count(), 0);
    }

    #[test]
    fn cover_time_counts_initial_positions() {
        let g = builders::ring(3);
        let starts = vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let mut w = ParallelWalk::new(&g, &starts, 1);
        assert_eq!(w.cover_time(10), Some(0));
    }

    #[test]
    fn cover_time_times_out_and_resumes() {
        let g = builders::ring(64);
        let mut w = ParallelWalk::new(&g, &[NodeId::new(0)], 11);
        assert_eq!(w.cover_time(2), None, "2 rounds cannot cover 64 nodes");
        assert_eq!(w.round(), 2);
        // resuming with a larger budget continues the same trajectory
        assert!(w.cover_time(10_000_000).is_some());
    }

    #[test]
    fn visited_tracking_is_incremental() {
        let g = builders::grid(4, 4);
        let mut w = ParallelWalk::new(&g, &[NodeId::new(5)], 2);
        assert!(w.is_visited(NodeId::new(5)));
        assert_eq!(w.unvisited_count(), 15);
        let mut seen = 1;
        for _ in 0..500 {
            w.step();
            let now = 16 - w.unvisited_count();
            assert!(now >= seen, "visited count never decreases");
            seen = now;
        }
        assert_eq!(
            seen,
            (0..16).filter(|&v| w.is_visited(NodeId::new(v))).count(),
            "counter agrees with per-node queries"
        );
    }

    #[test]
    fn crash_and_epoch_reset_on_walkers() {
        use rotor_core::faults::Perturb;
        let g = builders::ring(24);
        let starts = [NodeId::new(0), NodeId::new(8), NodeId::new(16)];
        let mut w = ParallelWalk::new(&g, &starts, 5);
        w.cover_time(1_000_000).expect("covers");
        assert_eq!(w.corrupt_pointers(1, 10), 0, "no rotor state to corrupt");
        assert_eq!(w.remove_agents(2, 10), 2, "last walker survives");
        assert_eq!(w.positions().len(), 1);
        w.reset_cover_epoch();
        assert_eq!(w.cover_round(), None, "24 nodes, 1 occupied: not covered");
        assert!(CoverProcess::run_until_covered(&mut w, 10_000_000).is_some());
    }

    #[test]
    fn domain_stats_match_scan_every_round() {
        use rotor_core::domains::scan_domain_stats;
        let graphs = [
            builders::torus(9, 14),
            builders::hypercube(7),
            builders::binary_tree(200),
            builders::star(150),
            builders::random_regular(130, 3, 5),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            let n = g.node_count() as u32;
            for k in [1u32, 4, 16] {
                let starts: Vec<NodeId> = (0..k).map(|i| NodeId::new(i * 37 % n)).collect();
                let mut w = ParallelWalk::new(g, &starts, u64::from(k) + gi as u64);
                loop {
                    assert_eq!(
                        w.domain_stats(),
                        scan_domain_stats(&w),
                        "graph {gi} k={k} round {}",
                        w.round()
                    );
                    if w.cover_round().is_some() || w.round() >= 100_000 {
                        break;
                    }
                    w.step();
                }
            }
        }
    }

    #[test]
    fn trait_and_inherent_agree() {
        let g = builders::ring(24);
        let starts = [NodeId::new(0), NodeId::new(12)];
        let mut a = ParallelWalk::new(&g, &starts, 9);
        let mut b = ParallelWalk::new(&g, &starts, 9);
        let ca = a.cover_time(1_000_000);
        let cb = CoverProcess::run_until_covered(&mut b, 1_000_000);
        assert_eq!(ca, cb);
        assert_eq!(CoverProcess::visited_count(&b), 24);
    }
}
