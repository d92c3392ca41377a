//! The [`CoverProcess`] abstraction over synchronous exploration processes.
//!
//! The paper's headline comparison — the multi-agent rotor-router as "a
//! deterministic alternative to parallel random walks" — only becomes
//! measurable when both processes run through the *same* sweep machinery.
//! Everything a cover-time sweep needs from a process is the same four
//! questions: advance one synchronous round, how many rounds have elapsed,
//! has every node been visited (and when did that first happen), and how
//! many nodes have been visited so far. `CoverProcess` captures exactly
//! that surface, so the sharded sweep driver in `rotor-sweep` can fan
//! (n, k, seed) cells across threads without caring whether a cell is
//! backed by the general-graph [`Engine`](crate::Engine), the
//! ring-specialised [`RingRouter`](crate::RingRouter), or the `k`
//! independent random walkers of `rotor-walks`.

/// A per-round probe attached to a [`CoverProcess`] drive loop.
///
/// [`CoverProcess::run_observed`] calls [`observe`](Observer::observe) once
/// on the initial configuration (round 0) and once after every completed
/// round, handing the observer a shared reference to the process — so the
/// §2.2 domain/border samplers ([`crate::domains::DomainSampler`]), return-
/// time probes and future instrumentation attach to *any* backend without
/// forking the drive loop.
///
/// Any `FnMut(&P)` closure is an observer:
///
/// ```
/// use rotor_core::{init::PointerInit, placement::Placement, CoverProcess, RingRouter};
///
/// let starts = Placement::AllOnOne(0).positions(32, 2);
/// let dirs = PointerInit::TowardNearestAgent.ring_directions(32, &starts);
/// let mut r = RingRouter::new(32, &starts, &dirs);
/// let mut trace = Vec::new();
/// r.run_observed(1_000_000, &mut |p: &RingRouter| {
///     trace.push(CoverProcess::visited_count(p))
/// });
/// assert_eq!(*trace.last().unwrap(), 32, "last sample sees full cover");
/// assert!(trace.windows(2).all(|w| w[0] <= w[1]), "cover only grows");
/// ```
pub trait Observer<P: CoverProcess + ?Sized> {
    /// Called on the initial configuration and after every round.
    fn observe(&mut self, process: &P);
}

impl<P: CoverProcess + ?Sized, F: FnMut(&P)> Observer<P> for F {
    fn observe(&mut self, process: &P) {
        self(process);
    }
}

/// An [`Observer`] that knows when it is done — the contract of
/// [`CoverProcess::run_probed`], which (unlike
/// [`run_observed`](CoverProcess::run_observed)) does **not** stop at the
/// cover round: §4's limit-cycle structure only emerges well after
/// covering, so cycle probes like [`CycleProbe`](crate::limit::CycleProbe)
/// drive the loop by their own completion instead.
pub trait Probe<P: CoverProcess + ?Sized>: Observer<P> {
    /// Whether the probe has everything it came for.
    fn finished(&self) -> bool;
}

/// A synchronous process on a finite node set that eventually visits every
/// node.
///
/// Implementors: [`Engine`](crate::Engine), [`RingRouter`](crate::RingRouter)
/// (both deterministic rotor-routers) and `rotor_walks::ParallelWalk`
/// (`k` independent seeded random walkers).
///
/// ```
/// use rotor_core::{init::PointerInit, placement::Placement, CoverProcess, RingRouter};
///
/// fn cover<P: CoverProcess>(p: &mut P) -> Option<u64> {
///     p.run_until_covered(1_000_000)
/// }
///
/// let starts = Placement::AllOnOne(0).positions(64, 4);
/// let dirs = PointerInit::TowardNearestAgent.ring_directions(64, &starts);
/// let mut r = RingRouter::new(64, &starts, &dirs);
/// assert!(cover(&mut r).is_some());
/// ```
pub trait CoverProcess {
    /// A short stable label naming this process implementation — the
    /// backend column of report curves (`"rotor_ring"`, `"rotor_general"`,
    /// `"walk"`). Sweeps that dispatch over `(family, kind)` record it per
    /// sample, so a report always says which engine actually ran a cell
    /// (the `Rotor` auto kind resolves differently per family).
    fn kind_name(&self) -> &'static str;

    /// Number of nodes in the underlying graph.
    fn node_count(&self) -> usize;

    /// Completed synchronous rounds.
    fn round(&self) -> u64;

    /// Advances one synchronous round: every agent/walker moves.
    fn step(&mut self);

    /// The round at which the last node was first visited, if covering has
    /// happened (`Some(0)` if the initial placement already covers).
    fn cover_round(&self) -> Option<u64>;

    /// Number of nodes visited at least once (initial placements count).
    fn visited_count(&self) -> usize;

    /// Whether node `node` (an index in `0..node_count()`) has ever been
    /// visited, initial placements included.
    fn is_node_visited(&self, node: usize) -> bool;

    /// The §2.2 domain/border structure of the current configuration, in
    /// the cyclic index space `0..node_count()`.
    ///
    /// The default implementation is one `O(n)` scan
    /// ([`scan_domain_stats`](crate::domains::scan_domain_stats)). The
    /// [`RingRouter`](crate::RingRouter) overrides it with incrementally
    /// maintained counters (`O(1)` per call); the
    /// [`Engine`](crate::Engine) and the random walks with one word-wise
    /// pass over their visited set
    /// ([`VisitSet::domain_stats`](crate::bitset::VisitSet::domain_stats),
    /// 64 nodes per step). An override must equal the scan on every
    /// configuration.
    fn domain_stats(&self) -> crate::domains::DomainStats {
        crate::domains::scan_domain_stats(self)
    }

    /// Runs until every node has been visited, or gives up after
    /// `max_rounds` total rounds. Returns the cover round, or `None` on
    /// timeout.
    fn run_until_covered(&mut self, max_rounds: u64) -> Option<u64> {
        while self.cover_round().is_none() && self.round() < max_rounds {
            self.step();
        }
        self.cover_round()
    }

    /// [`run_until_covered`](Self::run_until_covered) with a per-round
    /// [`Observer`]: `observer` sees the initial configuration and every
    /// round's result, including the covering round's.
    fn run_observed(&mut self, max_rounds: u64, observer: &mut impl Observer<Self>) -> Option<u64>
    where
        Self: Sized,
    {
        observer.observe(self);
        while self.cover_round().is_none() && self.round() < max_rounds {
            self.step();
            observer.observe(self);
        }
        self.cover_round()
    }

    /// Runs until `probe` reports [`finished`](Probe::finished) or
    /// `max_rounds` total rounds have elapsed, whichever comes first,
    /// showing the probe the initial configuration and every round's
    /// result. Returns whether the probe finished.
    ///
    /// Unlike [`run_observed`](Self::run_observed) this does **not** stop
    /// at the cover round — the §4 return-time probes need the rounds far
    /// beyond covering where the limit cycle lives.
    fn run_probed(&mut self, max_rounds: u64, probe: &mut impl Probe<Self>) -> bool
    where
        Self: Sized,
    {
        probe.observe(self);
        while !probe.finished() && self.round() < max_rounds {
            self.step();
            probe.observe(self);
        }
        probe.finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::PointerInit;
    use crate::placement::Placement;
    use crate::{Engine, RingRouter};
    use rotor_graph::builders;

    /// Generic sweep body: the exact shape the sweep driver uses.
    fn cover_generic<P: CoverProcess + ?Sized>(p: &mut P, max: u64) -> (Option<u64>, usize) {
        let c = p.run_until_covered(max);
        (c, p.visited_count())
    }

    #[test]
    fn ring_router_through_trait_object() {
        let n = 64;
        let starts = Placement::AllOnOne(0).positions(n, 4);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let mut r = RingRouter::new(n, &starts, &dirs);
        let direct = r.clone().run_until_covered(u64::MAX).unwrap();
        let boxed: &mut dyn CoverProcess = &mut r;
        let (c, visited) = cover_generic(boxed, u64::MAX);
        assert_eq!(c, Some(direct), "trait dispatch matches inherent method");
        assert_eq!(visited, n);
        assert_eq!(boxed.node_count(), n);
    }

    #[test]
    fn engine_through_trait_matches_ring_router() {
        use rotor_graph::NodeId;
        let n = 32;
        let g = builders::ring(n);
        let starts = Placement::EquallySpaced { offset: 0 }.positions(n, 4);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let ids: Vec<NodeId> = starts.iter().map(|&s| NodeId::new(s)).collect();
        let ptrs: Vec<u32> = dirs.iter().map(|&d| u32::from(d)).collect();
        let mut e = Engine::with_pointers(&g, &ids, ptrs);
        let mut r = RingRouter::new(n, &starts, &dirs);
        let ce = cover_generic(&mut e, u64::MAX);
        let cr = cover_generic(&mut r, u64::MAX);
        assert_eq!(ce, cr, "both engines agree through the trait");
    }

    #[test]
    fn run_observed_sees_every_round_and_matches_unobserved() {
        let n = 48;
        let starts = Placement::AllOnOne(0).positions(n, 2);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let mut observed = RingRouter::new(n, &starts, &dirs);
        let mut plain = observed.clone();
        let mut rounds_seen = Vec::new();
        let cover = observed.run_observed(1_000_000, &mut |p: &RingRouter| {
            rounds_seen.push(CoverProcess::round(p));
        });
        assert_eq!(cover, plain.run_until_covered(1_000_000));
        let c = cover.unwrap();
        // one initial observation plus one per round, in order
        assert_eq!(rounds_seen.len() as u64, c + 1);
        assert_eq!(rounds_seen.first(), Some(&0));
        assert_eq!(rounds_seen.last(), Some(&c));
    }

    #[test]
    fn is_node_visited_matches_visited_count() {
        let n = 32;
        let g = builders::ring(n);
        use rotor_graph::NodeId;
        let mut e = Engine::new(&g, &[NodeId::new(0)], &crate::init::PointerInit::Uniform(0));
        let _ = e.run_until_covered(50);
        let p: &dyn CoverProcess = &e;
        let scanned = (0..n).filter(|&v| p.is_node_visited(v)).count();
        assert_eq!(scanned, p.visited_count());
        assert!(p.is_node_visited(0));
    }

    #[test]
    fn run_until_covered_honours_timeout() {
        let n = 128;
        let starts = [0u32];
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let mut r = RingRouter::new(n, &starts, &dirs);
        let p: &mut dyn CoverProcess = &mut r;
        assert_eq!(p.run_until_covered(5), None);
        assert_eq!(p.round(), 5, "stops exactly at the budget");
        assert!(p.visited_count() < n);
    }
}
