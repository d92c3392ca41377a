//! The [`CoverProcess`] abstraction over synchronous exploration processes.
//!
//! The paper's headline comparison — the multi-agent rotor-router as "a
//! deterministic alternative to parallel random walks" — only becomes
//! measurable when both processes run through the *same* sweep machinery.
//! Everything a cover-time sweep needs from a process is two things:
//! advance one synchronous round, and its visit record
//! ([`VisitSet`]: which nodes have been visited, how many, the round the
//! last one fell and the §2.2 domain structure). `CoverProcess` captures
//! exactly that surface, plus [`advance`](CoverProcess::advance) to a
//! named round for backends that can get there faster than round by
//! round, so the sharded sweep driver in `rotor-sweep` can
//! fan (n, k, seed) cells across threads without caring whether a cell is
//! backed by the general-graph [`Engine`](crate::Engine), the
//! ring-specialised [`RingRouter`](crate::RingRouter), or the `k`
//! independent random walkers of `rotor-walks`.

use crate::bitset::VisitSet;

/// A probe attached to a [`CoverProcess`] drive loop.
///
/// [`CoverProcess::run_observed`] calls [`observe`](Observer::observe) on
/// the initial configuration (round 0), at every round the observer names
/// with [`next_round`](Observer::next_round), and at the cover round,
/// handing the observer a shared reference to the process — so the §2.2
/// domain/border samplers ([`crate::domains::DomainSampler`]), return-time
/// probes and future instrumentation attach to *any* backend without
/// forking the drive loop. Between two calls the process
/// [`advance`](CoverProcess::advance)s as it likes, which on the ring
/// means straight-run skipping.
///
/// Any `FnMut(&P)` closure is an observer, and sees every round:
///
/// ```
/// use rotor_core::{init::PointerInit, placement::Placement, CoverProcess, RingRouter};
///
/// let starts = Placement::AllOnOne(0).positions(32, 2);
/// let dirs = PointerInit::TowardNearestAgent.ring_directions(32, &starts);
/// let mut r = RingRouter::new(32, &starts, &dirs);
/// let mut trace = Vec::new();
/// r.run_observed(1_000_000, &mut |p: &RingRouter| {
///     trace.push(p.visits().count())
/// });
/// assert_eq!(*trace.last().unwrap(), 32, "last sample sees full cover");
/// assert!(trace.windows(2).all(|w| w[0] <= w[1]), "cover only grows");
/// ```
pub trait Observer<P: CoverProcess + ?Sized> {
    /// Called on the initial configuration and after every round the
    /// observer asked for.
    fn observe(&mut self, process: &P);

    /// The next round this observer needs to see, given that it has just
    /// seen round `now`. The default, `now + 1`, is every round; an answer
    /// of `now` or less counts as `now + 1`.
    fn next_round(&self, now: u64) -> u64 {
        now.saturating_add(1)
    }
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

    /// Completed synchronous rounds.
    fn round(&self) -> u64;

    /// Advances one synchronous round: every agent/walker moves.
    fn step(&mut self);

    /// Runs to round `until`, or to the cover round if it falls first, and
    /// returns the round reached (at once if the process has covered or is
    /// at `until` already). The default steps round by round;
    /// [`RingRouter`](crate::RingRouter) skips straight runs.
    fn advance(&mut self, until: u64) -> u64 {
        while self.cover_round().is_none() && self.round() < until {
            self.step();
        }
        self.round()
    }

    /// The visit record of the current cover epoch: the nodes of the
    /// underlying graph (indices `0..visits().len()`) visited so far,
    /// initial placements included, with the cover round and the §2.2
    /// [`domain_stats`](VisitSet::domain_stats).
    fn visits(&self) -> &VisitSet;

    /// The round at which the last node was first visited, if covering has
    /// happened (`Some(0)` if the initial placement already covers).
    fn cover_round(&self) -> Option<u64> {
        self.visits().cover_round()
    }

    /// Runs exactly `rounds` more rounds, whether or not the process has
    /// covered.
    fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Runs until every node has been visited, or gives up after
    /// `max_rounds` total rounds. Returns the cover round, or `None` on
    /// timeout.
    fn run_until_covered(&mut self, max_rounds: u64) -> Option<u64> {
        self.advance(max_rounds);
        self.cover_round()
    }

    /// [`run_until_covered`](Self::run_until_covered) with an
    /// [`Observer`]: `observer` sees the initial configuration, every
    /// round it names with [`next_round`](Observer::next_round), the
    /// covering round and, on a timeout, round `max_rounds`. The process
    /// [`advance`](Self::advance)s from one of those rounds to the next.
    fn run_observed(&mut self, max_rounds: u64, observer: &mut impl Observer<Self>) -> Option<u64>
    where
        Self: Sized,
    {
        observer.observe(self);
        while self.cover_round().is_none() && self.round() < max_rounds {
            let now = self.round();
            self.advance(observer.next_round(now).clamp(now + 1, max_rounds));
            observer.observe(self);
        }
        self.cover_round()
    }

    /// Runs until `probe` reports [`finished`](Probe::finished) or
    /// `max_rounds` total rounds have elapsed, whichever comes first,
    /// stepping round by round and showing the probe the initial
    /// configuration and every round's result. Returns whether the probe
    /// finished.
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
        (c, p.visits().count())
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
        assert_eq!(c, Some(direct), "dynamic dispatch matches static dispatch");
        assert_eq!(visited, n);
        assert_eq!(boxed.visits().len(), n);
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
    fn run_observed_calls_an_observer_only_at_the_rounds_it_names() {
        use crate::domains::DomainSampler;

        /// Counts the calls it forwards to a sampler, horizon included.
        struct Counting(DomainSampler, u64);
        impl<P: CoverProcess> Observer<P> for Counting {
            fn observe(&mut self, p: &P) {
                self.1 += 1;
                self.0.observe(p);
            }
            fn next_round(&self, now: u64) -> u64 {
                Observer::<P>::next_round(&self.0, now)
            }
        }

        let n = 256;
        let starts = Placement::Random(3).positions(n, 4);
        let dirs = PointerInit::Random(5).ring_directions(n, &starts);
        let fresh = RingRouter::new(n, &starts, &dirs);
        let mut counted = Counting(DomainSampler::every(64), 0);
        let cover = fresh.clone().run_observed(1 << 24, &mut counted);
        let mut per_round = DomainSampler::every(64);
        let stepped = fresh.clone().run_observed(1 << 24, &mut |p: &RingRouter| {
            per_round.observe(p);
        });
        assert_eq!(cover, stepped);
        let c = cover.expect("covers");
        assert_eq!(counted.0.samples, per_round.samples);
        assert_eq!(counted.1, counted.0.samples.len() as u64);
        assert_eq!(
            counted.1,
            c / 64 + 1 + u64::from(!c.is_multiple_of(64)),
            "stride + cover"
        );
    }

    #[test]
    fn visits_contains_matches_count() {
        let n = 32;
        let g = builders::ring(n);
        use rotor_graph::NodeId;
        let mut e = Engine::new(&g, &[NodeId::new(0)], &crate::init::PointerInit::Uniform(0));
        let _ = e.run_until_covered(50);
        let p: &dyn CoverProcess = &e;
        let scanned = (0..n).filter(|&v| p.visits().contains(v)).count();
        assert_eq!(scanned, p.visits().count());
        assert!(p.visits().contains(0));
    }

    #[test]
    fn rotor_engines_drive_and_disturb_only_through_the_traits() {
        use crate::faults::Perturb;
        use crate::limit::ConfigSnapshot;
        use rotor_graph::NodeId;

        /// Cover round, pointers flipped, agents removed and re-cover
        /// round of one process, every step taken through the traits.
        fn drive<P: Perturb + ConfigSnapshot + Clone>(fresh: &P) -> (u64, u32, u32, Option<u64>) {
            let budget = 1 << 20;
            let cover = fresh.clone().run_until_covered(budget).expect("covers");
            let mut observed = fresh.clone();
            let mut seen = 0;
            let observed_cover = observed.run_observed(budget, &mut |_: &P| seen += 1);
            assert_eq!(observed_cover, Some(cover), "run_observed agrees");
            assert_eq!(seen, cover + 1, "round 0 plus one observation per round");
            let mut p = fresh.clone();
            p.run(cover);
            assert!(p.same_config(&observed), "run(cover) stops where they do");
            assert_eq!((p.round(), p.cover_round()), (cover, Some(cover)));
            p.run(5);
            assert_eq!(p.round(), cover + 5, "run goes on past cover");
            assert_eq!(p.cover_round(), Some(cover), "the cover round stays");
            let flipped = p.corrupt_pointers(0xFA17, 8);
            let removed = p.remove_agents(0xC4A5, 5);
            p.reset_cover_epoch();
            assert_eq!(p.cover_round(), None, "one agent does not cover 24 nodes");
            let recover = p.run_until_covered(p.round() + budget);
            (cover, flipped, removed, recover)
        }

        let n = 24;
        let starts = Placement::AllOnOne(0).positions(n, 3);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let g = builders::ring(n);
        let ids: Vec<NodeId> = starts.iter().map(|&s| NodeId::new(s)).collect();
        let ptrs = dirs.iter().map(|&d| u32::from(d)).collect();
        let ring = drive(&RingRouter::new(n, &starts, &dirs));
        let general = drive(&Engine::with_pointers(&g, &ids, ptrs));
        assert_eq!(ring, general, "the same strikes and recovery on the ring");
        assert!(ring.1 > 0 && ring.1 <= 8, "some draws flip a pointer");
        assert_eq!(ring.2, 2, "the last agent survives");
        assert!(ring.3.is_some(), "re-covers");
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
        assert!(p.visits().count() < n);
    }
}
