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
//! assert!(cover > 0 && w.visits().count() == 32);
//! assert_eq!(w.kind_name(), "walk");
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rotor_core::bitset::VisitSet;
use rotor_core::CoverProcess;
use rotor_graph::{NodeId, PortGraph};

/// `k` independent simple random walkers advancing synchronously on a
/// borrowed graph, with the visit record of the rotor engines
/// ([`VisitSet`]).
///
/// ```
/// use rotor_core::CoverProcess;
/// use rotor_graph::{builders, NodeId};
/// use rotor_walks::ParallelWalk;
///
/// let g = builders::ring(16);
/// let mut w = ParallelWalk::new(&g, &[NodeId::new(0)], 3);
/// assert!(w.run_until_covered(1_000_000).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct ParallelWalk<'g> {
    g: &'g PortGraph,
    positions: Vec<NodeId>,
    rng: SmallRng,
    round: u64,
    visits: VisitSet,
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
        let mut visits = VisitSet::new(n);
        for &p in starts {
            assert!(p.index() < n, "walker position out of range");
            visits.arrive(p.index(), 0);
        }
        ParallelWalk {
            g,
            positions: starts.to_vec(),
            #[expect(clippy::disallowed_methods, reason = "callers pass a STREAM_WALK seed")]
            rng: SmallRng::seed_from_u64(seed),
            round: 0,
            visits,
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
}

impl CoverProcess for ParallelWalk<'_> {
    fn kind_name(&self) -> &'static str {
        "walk"
    }

    fn round(&self) -> u64 {
        self.round
    }

    /// Every walker moves to a uniformly random neighbour.
    fn step(&mut self) {
        self.round += 1;
        for p in &mut self.positions {
            let d = self.g.degree(*p);
            *p = self.g.neighbor(*p, self.rng.gen_range(0..d));
            self.visits.arrive(p.index(), self.round);
        }
    }

    fn visits(&self) -> &VisitSet {
        &self.visits
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
        let fresh = ParallelWalk::new(&g, &[NodeId::new(0)], 3);
        let mut w = fresh.clone();
        let c = w.run_until_covered(1_000_000).expect("random walk covers");
        assert!(c >= 15, "cannot cover 16 nodes in fewer than 15 steps");
        assert_eq!(w.cover_round(), Some(c), "cover round is sticky");
        assert_eq!(w.visits().count(), 16);
        // Every provided drive loop replays the same seeded trajectory.
        let mut observed = fresh.clone();
        let mut seen = 0;
        let observed_cover = observed.run_observed(1_000_000, &mut |_: &ParallelWalk| seen += 1);
        assert_eq!((observed_cover, seen), (Some(c), c + 1));
        let mut stepped = fresh;
        stepped.run(c + 5);
        assert_eq!(stepped.round(), c + 5, "run goes on past cover");
        assert_eq!(stepped.cover_round(), Some(c));
        w.run(5);
        assert_eq!(stepped.positions(), w.positions());
    }

    #[test]
    fn cover_time_counts_initial_positions() {
        let g = builders::ring(3);
        let starts = vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let mut w = ParallelWalk::new(&g, &starts, 1);
        assert_eq!(w.run_until_covered(10), Some(0));
    }

    #[test]
    fn cover_time_times_out_and_resumes() {
        let g = builders::ring(64);
        let mut w = ParallelWalk::new(&g, &[NodeId::new(0)], 11);
        assert_eq!(
            w.run_until_covered(2),
            None,
            "2 rounds cannot cover 64 nodes"
        );
        assert_eq!(w.round(), 2);
        // resuming with a larger budget continues the same trajectory
        assert!(w.run_until_covered(10_000_000).is_some());
    }

    #[test]
    fn visited_tracking_is_incremental() {
        let g = builders::grid(4, 4);
        let mut w = ParallelWalk::new(&g, &[NodeId::new(5)], 2);
        assert!(w.visits().contains(5));
        assert_eq!(w.visits().count(), 1);
        let mut seen = 1;
        for _ in 0..500 {
            w.step();
            let now = w.visits().count();
            assert!(now >= seen, "visited count never decreases");
            seen = now;
        }
        assert_eq!(
            seen,
            (0..16).filter(|&v| w.visits().contains(v)).count(),
            "counter agrees with per-node queries"
        );
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
                        w.visits().domain_stats(),
                        scan_domain_stats(w.visits()),
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
}
