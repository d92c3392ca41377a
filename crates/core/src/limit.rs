//! Brent cycle detection on the configuration sequence and return times
//! (§4, Theorem 6).
//!
//! A rotor-router system is deterministic with a finite configuration
//! space, so the sequence of configurations `x₀, x₁, …` is eventually
//! periodic: after a transient *tail* of `μ` rounds it enters a *limit
//! cycle* of period `λ` (for a single agent, the limit cycle is the
//! Eulerian traversal of `G⃗`, so `λ` divides a multiple of `2|E|`; see
//! [`crate::lockin`]). The paper's §4 studies the *return time* — how long
//! the limit behaviour takes to revisit a configuration — and Theorem 6
//! bounds it on the ring.
//!
//! Brent's algorithm finds `(μ, λ)` with `O(μ + λ)` steps and `O(1)`
//! stored snapshots, which matters here because configurations are
//! `Θ(n)`-sized. The observer probes go further and allocate nothing per
//! round: [`ConfigSnapshot`] compares the *live* process state to the one
//! stored tortoise snapshot ([`config_eq`](ConfigSnapshot::config_eq)) or
//! to a second live process ([`same_config`](ConfigSnapshot::same_config))
//! in place, checking occupancy before pointers (on the ring an `O(k)`
//! occupied list; [`Engine`](crate::Engine) keeps `Θ(n)` per-node agent
//! counts), and a teleporting tortoise overwrites its snapshot's buffers
//! ([`config_into`](ConfigSnapshot::config_into)).
//!
//! Two formulations live here:
//!
//! * [`brent`] — the classical restartable form over an explicit
//!   `new`/`step`/`snap` machine, kept as the reference implementation;
//! * [`CycleProbe`] / [`TailProbe`] — the same algorithm as snapshot-taking
//!   [`Observer`]s driven through [`CoverProcess::run_probed`], so §4
//!   return-time probing attaches to *any* deterministic backend the
//!   scenario layer can build (torus, hypercube, lollipop, …) without a
//!   private drive loop. [`probe_cycle`] composes the two passes over a
//!   constructor closure (property-tested equal to [`brent`]).
//!
//! The *return time* of §4 is the period of the cycle [`probe_cycle`]
//! certifies:
//!
//! ```
//! use rotor_core::{init::PointerInit, limit, Engine};
//! use rotor_graph::{builders, NodeId};
//!
//! let g = builders::ring(5);
//! let agents = [NodeId::new(0)];
//! let make = || Engine::new(&g, &agents, &PointerInit::Uniform(0));
//! let info = limit::probe_cycle(make, 10_000).expect("small system cycles quickly");
//! // single agent: the limit cycle is the Eulerian traversal of 2|E| arcs
//! assert_eq!(info.period, 10);
//! ```

use crate::process::{CoverProcess, Observer, Probe};

/// The eventually-periodic structure of a deterministic sequence: a tail of
/// `tail` steps followed by a cycle of period `period`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CycleInfo {
    /// `μ`: index of the first configuration on the limit cycle.
    pub tail: u64,
    /// `λ`: length of the limit cycle — the *return time* of the limit
    /// behaviour.
    pub period: u64,
}

/// Brent cycle detection over the sequence `snap(m₀), snap(m₁), …` where
/// `m₀ = new()` and `m_{i+1}` is `m_i` advanced by `step`.
///
/// Returns `None` if no repetition is certified within `max_steps` steps of
/// the hare (i.e. when `μ + λ` may exceed `max_steps`).
///
/// `new` must produce machines that generate the identical sequence each
/// time (the rotor-router is deterministic, so any engine constructor
/// qualifies).
pub fn brent<M, S, New, Step, Snap>(
    new: New,
    mut step: Step,
    mut snap: Snap,
    max_steps: u64,
) -> Option<CycleInfo>
where
    New: Fn() -> M,
    Step: FnMut(&mut M),
    Snap: FnMut(&M) -> S,
    S: PartialEq,
{
    // Phase 1: find the period λ. The tortoise waits at x_{2^i − 1} while
    // the hare walks; when the hare has walked a full power-of-two block
    // without matching, the tortoise teleports to it.
    let mut machine = new();
    let mut tortoise = snap(&machine);
    step(&mut machine);
    let mut steps: u64 = 1;
    let mut hare = snap(&machine);
    let mut power: u64 = 1;
    let mut lambda: u64 = 1;
    while tortoise != hare {
        if power == lambda {
            tortoise = hare;
            power = power.checked_mul(2).expect("power-of-two overflow");
            lambda = 0;
        }
        if steps >= max_steps {
            return None;
        }
        step(&mut machine);
        steps += 1;
        hare = snap(&machine);
        lambda += 1;
    }

    // Phase 2: find the tail μ with two machines λ apart walking in step.
    let mut front = new();
    for _ in 0..lambda {
        step(&mut front);
    }
    let mut back = new();
    let mut tail: u64 = 0;
    while snap(&back) != snap(&front) {
        step(&mut back);
        step(&mut front);
        tail += 1;
        if tail > max_steps {
            return None;
        }
    }
    Some(CycleInfo {
        tail,
        period: lambda,
    })
}

/// A [`CoverProcess`] whose full mutable configuration can be snapshotted
/// for equality testing — the surface the cycle probes need. Equal
/// configurations must imply identical futures (the rotor-router is
/// deterministic, so every rotor backend qualifies; the random-walk
/// baseline does not and deliberately has no impl).
///
/// A snapshot is taken by filling a `Default` one with
/// [`config_into`](Self::config_into); write `snap(p)` for that. The
/// methods have no defaults, so every backend states its own comparison.
/// Each must agree with the snapshot's `PartialEq` on *every* pair —
/// different `k` (after a crash) included:
///
/// * `p.config_eq(&c) == (snap(p) == c)`;
/// * `p.same_config(&q) == (snap(p) == snap(q))`;
/// * after `p.config_into(&mut c)`, `c == snap(p)` whatever `c` held.
pub trait ConfigSnapshot: CoverProcess {
    /// Snapshot type; equality certifies equal configurations.
    type Config: Clone + PartialEq + Default;

    /// Overwrites `out` with the current configuration, reusing its
    /// buffers.
    fn config_into(&self, out: &mut Self::Config);

    /// Whether the current configuration equals the snapshot `c`,
    /// compared in place.
    fn config_eq(&self, c: &Self::Config) -> bool;

    /// Whether `self` and `other` are in the same configuration, compared
    /// in place.
    fn same_config(&self, other: &Self) -> bool;
}

/// Brent phase 1 as an [`Observer`]: finds the limit-cycle period `λ` of
/// the configuration sequence during a single
/// [`run_probed`](CoverProcess::run_probed) drive, holding one tortoise
/// snapshot. The snapshot is taken once, at round 0; afterwards the live
/// configuration is compared to it in place
/// ([`config_eq`](ConfigSnapshot::config_eq)) and a teleport overwrites
/// its buffers ([`config_into`](ConfigSnapshot::config_into)).
///
/// The observation stream replays [`brent`]'s phase 1 exactly (the
/// tortoise waits at `x_{2^i − 1}` while the hare walks), so the detected
/// `λ` is bit-identical to the restartable form. Pair with a fresh process
/// and a [`TailProbe`] to recover the tail `μ`, or use [`probe_cycle`]
/// which composes both passes.
///
/// ```
/// use rotor_core::limit::CycleProbe;
/// use rotor_core::{CoverProcess, RingRouter};
///
/// let mut r = RingRouter::new(5, &[0], &[0; 5]);
/// let mut probe = CycleProbe::new();
/// assert!(r.run_probed(10_000, &mut probe));
/// // single agent: the limit cycle is the Eulerian traversal of 2|E| arcs
/// assert_eq!(probe.period(), Some(10));
/// ```
#[derive(Clone, Debug)]
pub struct CycleProbe<C> {
    tortoise: Option<C>,
    power: u64,
    lambda: u64,
    period: Option<u64>,
}

impl<C> CycleProbe<C> {
    /// A fresh probe, ready to observe a run from its initial
    /// configuration (round 0) onward.
    pub fn new() -> Self {
        CycleProbe {
            tortoise: None,
            power: 1,
            lambda: 1,
            period: None,
        }
    }

    /// The certified period `λ`, once found.
    pub fn period(&self) -> Option<u64> {
        self.period
    }
}

impl<C> Default for CycleProbe<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: ConfigSnapshot> Observer<P> for CycleProbe<P::Config> {
    fn observe(&mut self, p: &P) {
        if self.period.is_some() {
            return;
        }
        let Some(tortoise) = &mut self.tortoise else {
            // Round 0: the tortoise starts at the initial configuration —
            // the only snapshot this pass allocates.
            let mut first = P::Config::default();
            p.config_into(&mut first);
            self.tortoise = Some(first);
            return;
        };
        if p.config_eq(tortoise) {
            self.period = Some(self.lambda);
            return;
        }
        if self.power == self.lambda {
            p.config_into(tortoise);
            self.power = self.power.checked_mul(2).expect("power-of-two overflow");
            self.lambda = 0;
        }
        self.lambda += 1;
    }
}

impl<P: ConfigSnapshot> Probe<P> for CycleProbe<P::Config> {
    fn finished(&self) -> bool {
        self.period.is_some()
    }
}

/// Brent phase 2 as an [`Observer`]: given a known period `λ`, finds the
/// tail `μ` (the index of the first configuration on the limit cycle) by
/// walking a *trailing* copy of the same deterministic process `λ` rounds
/// behind the observed one — the first round `r` with `x_{r−λ} = x_r` has
/// `μ = r − λ`.
///
/// Memory is one extra machine and no snapshot at all: each round compares
/// the trailing machine with the observed one in place
/// ([`same_config`](ConfigSnapshot::same_config)). A `λ`-deep snapshot
/// window would be `Θ(λ·n)` — prohibitive at the sweep sizes the ring
/// campaigns run at.
#[derive(Clone, Debug)]
pub struct TailProbe<P> {
    lambda: u64,
    trailing: P,
    seen: u64,
    tail: Option<u64>,
}

impl<P: ConfigSnapshot> TailProbe<P> {
    /// A probe for a run whose limit period `λ = period` is already known
    /// (from a [`CycleProbe`] pass over an identical process). `trailing`
    /// must be a fresh copy of the observed process (same initial
    /// configuration — the rotor-router is deterministic, so it will
    /// replay the identical sequence).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u64, trailing: P) -> Self {
        assert!(period > 0, "limit period must be positive");
        TailProbe {
            lambda: period,
            trailing,
            seen: 0,
            tail: None,
        }
    }

    /// The certified tail `μ`, once found.
    pub fn tail(&self) -> Option<u64> {
        self.tail
    }
}

impl<P: ConfigSnapshot> Observer<P> for TailProbe<P> {
    fn observe(&mut self, p: &P) {
        if self.tail.is_some() {
            return;
        }
        // `seen` counts observations, so the observed process is at
        // x_seen; once it is λ ahead, the trailing machine sits at
        // x_{seen−λ} and every mismatch advances it by one round.
        if self.seen >= self.lambda {
            if self.trailing.same_config(p) {
                self.tail = Some(self.seen - self.lambda);
                return;
            }
            self.trailing.step();
        }
        self.seen += 1;
    }
}

impl<P: ConfigSnapshot> Probe<P> for TailProbe<P> {
    fn finished(&self) -> bool {
        self.tail.is_some()
    }
}

/// The `(μ, λ)` cycle structure of a deterministic process, measured with
/// the observer probes: one [`CycleProbe`] pass for the period, one
/// [`TailProbe`] pass over a fresh identical process for the tail.
///
/// `make` must reproduce the identical configuration sequence on each call
/// (any engine constructor from fixed inputs qualifies). Returns `None`
/// when no cycle is certified within `max_steps` rounds — the same budget
/// semantics as [`brent`], to which this is property-tested equal.
///
/// The budget counts rounds from the state `make` returns, not absolute
/// rounds: a process that has already run `r` rounds (a disturbed copy in
/// the recovery runner, say) still gets the full `max_steps`, and `μ` is
/// indexed from that state.
pub fn probe_cycle<P: ConfigSnapshot>(make: impl Fn() -> P, max_steps: u64) -> Option<CycleInfo> {
    let mut first = make();
    let mut head = CycleProbe::new();
    let until = first.round().saturating_add(max_steps);
    first.run_probed(until, &mut head);
    let period = head.period()?;
    let mut second = make();
    let mut tail_probe = TailProbe::new(period, make());
    // μ ≤ max_steps is certified at round μ + λ of the second pass.
    let until = second
        .round()
        .saturating_add(max_steps)
        .saturating_add(period);
    second.run_probed(until, &mut tail_probe);
    tail_probe.tail().map(|tail| CycleInfo { tail, period })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::VisitSet;
    use crate::init::{PointerInit, CW};
    use crate::placement::Placement;
    use crate::rng::splitmix64;
    use crate::{Engine, EngineState, RingRouter, RingState};
    use rotor_graph::{builders, NodeId, PortGraph};
    use std::cell::Cell;

    /// The probed `(μ, λ)` of a ring router from the given start.
    fn ring_probe(n: usize, starts: &[u32], dirs: &[u8], max: u64) -> Option<CycleInfo> {
        probe_cycle(|| RingRouter::new(n, starts, dirs), max)
    }

    /// The probed `(μ, λ)` of a general engine from the given start.
    fn engine_probe(g: &PortGraph, agents: &[NodeId], init: &PointerInit) -> Option<CycleInfo> {
        probe_cycle(|| Engine::new(g, agents, init), 1_000_000)
    }

    /// Reference: naive cycle detection storing every state.
    fn naive_cycle(n: usize, starts: &[u32], dirs: &[u8], max: u64) -> Option<CycleInfo> {
        let mut r = RingRouter::new(n, starts, dirs);
        let mut seen = vec![r.state()];
        for _ in 0..max {
            r.step();
            let s = r.state();
            if let Some(pos) = seen.iter().position(|x| *x == s) {
                return Some(CycleInfo {
                    tail: pos as u64,
                    period: (seen.len() - pos) as u64,
                });
            }
            seen.push(s);
        }
        None
    }

    #[test]
    fn brent_on_synthetic_rho_sequence() {
        // x_{i+1} = f(x_i) on a known rho shape: tail 5, cycle 7.
        let f = |x: u64| if x < 5 { x + 1 } else { 5 + ((x - 5) + 1) % 7 };
        let info = brent(|| 0u64, |x| *x = f(*x), |x| *x, 1000).unwrap();
        assert_eq!(info, CycleInfo { tail: 5, period: 7 });
    }

    #[test]
    fn brent_pure_cycle_has_zero_tail() {
        let info = brent(|| 0u64, |x| *x = (*x + 1) % 4, |x| *x, 100).unwrap();
        assert_eq!(info, CycleInfo { tail: 0, period: 4 });
    }

    #[test]
    fn brent_times_out() {
        assert_eq!(brent(|| 0u64, |x| *x += 1, |x| *x, 50), None);
    }

    #[test]
    fn single_agent_ring_period_is_two_e() {
        for n in [3usize, 5, 8] {
            let info = ring_probe(n, &[0], &vec![CW; n], 100_000).unwrap();
            assert_eq!(info.period, 2 * n as u64, "ring n={n}");
        }
    }

    #[test]
    fn brent_matches_naive_on_small_rings() {
        for (n, starts) in [(4usize, vec![0u32]), (5, vec![0, 2]), (6, vec![1, 1, 4])] {
            let dirs = vec![CW; n];
            let fast = ring_probe(n, &starts, &dirs, 1_000_000).unwrap();
            let slow = naive_cycle(n, &starts, &dirs, 1_000_000).unwrap();
            assert_eq!(fast, slow, "n={n} starts={starts:?}");
        }
    }

    #[test]
    fn engine_cycle_matches_ring_cycle() {
        let n = 6;
        let g = builders::ring(n);
        let starts = [NodeId::new(0), NodeId::new(3)];
        let fast = engine_probe(&g, &starts, &PointerInit::Uniform(0)).unwrap();
        let ring = ring_probe(n, &[0, 3], &[CW; 6], 1_000_000).unwrap();
        assert_eq!(fast, ring);
    }

    #[test]
    fn probe_cycle_matches_brent_reference_on_random_rings() {
        // The observer reformulation must certify the exact (μ, λ) the
        // restartable reference finds, seed by seed.
        for i in 0..30u64 {
            let h = splitmix64(0x9B1E ^ i);
            let n = 4 + (h % 12) as usize;
            let k = 1 + (splitmix64(h) % 3) as usize;
            let starts = Placement::Random(h).positions(n, k);
            let dirs = PointerInit::Random(splitmix64(h ^ 1)).ring_directions(n, &starts);
            let probed = probe_cycle(|| RingRouter::new(n, &starts, &dirs), 1_000_000);
            let reference = brent(
                || RingRouter::new(n, &starts, &dirs),
                RingRouter::step,
                |r| -> RingState { r.state() },
                1_000_000,
            );
            assert_eq!(probed, reference, "n={n} k={k} i={i}");
            assert!(probed.is_some(), "small systems always cycle");
        }
    }

    #[test]
    fn probe_cycle_matches_brent_reference_on_engine_graphs() {
        // The general engine's in-place comparisons certify the (μ, λ) the
        // allocating reference finds, off the ring too.
        for (name, g) in [
            ("torus_3x3", builders::torus(3, 3)),
            ("hypercube_3", builders::hypercube(3)),
            ("random_regular_d4", builders::random_regular(10, 4, 0x5EED)),
        ] {
            let n = g.node_count();
            for i in 0..8u64 {
                let h = splitmix64(0xE9 ^ i);
                let k = 1 + (h % 3) as usize;
                let ids: Vec<NodeId> = Placement::Random(h)
                    .positions(n, k)
                    .into_iter()
                    .map(NodeId::new)
                    .collect();
                let ptrs = PointerInit::Random(splitmix64(h ^ 1)).pointers(&g, &ids);
                let make = || Engine::with_pointers(&g, &ids, ptrs.clone());
                let probed = probe_cycle(make, 1_000_000);
                let reference = brent(
                    make,
                    Engine::step,
                    |e| -> EngineState { e.state() },
                    1_000_000,
                );
                assert_eq!(probed, reference, "{name} k={k} i={i}");
                assert!(probed.is_some(), "small systems always cycle");
            }
        }
    }

    #[test]
    fn probe_cycle_budget_counts_from_the_factory_state() {
        // A router already past the budget still gets the full budget,
        // and its (μ, λ) is that of a fresh router built from its state.
        let n = 9usize;
        let dirs = PointerInit::Random(7).ring_directions(n, &[0, 4]);
        let budget = 1_000;
        let mut r = RingRouter::new(n, &[0, 4], &dirs);
        r.run(budget + 5);
        let state = r.state();
        let starts: Vec<u32> = state
            .occupied
            .iter()
            .flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize))
            .collect();
        let dirs: Vec<u8> = (0..n as u32).map(|v| r.direction(v)).collect();
        let fresh = probe_cycle(|| RingRouter::new(n, &starts, &dirs), budget);
        assert!(fresh.is_some(), "the fresh router cycles within the budget");
        assert_eq!(probe_cycle(|| r.clone(), budget), fresh);
    }

    /// A ring router that counts the snapshot fills that must allocate
    /// (into an empty, `Default` snapshot).
    #[derive(Clone)]
    struct Counted<'c> {
        inner: RingRouter,
        snapshots: &'c Cell<u32>,
    }

    impl CoverProcess for Counted<'_> {
        fn kind_name(&self) -> &'static str {
            "counted"
        }
        fn round(&self) -> u64 {
            self.inner.round()
        }
        fn step(&mut self) {
            self.inner.step();
        }
        fn visits(&self) -> &VisitSet {
            self.inner.visits()
        }
    }

    impl ConfigSnapshot for Counted<'_> {
        type Config = RingState;

        fn config_into(&self, out: &mut RingState) {
            if out.dirs.capacity() == 0 {
                self.snapshots.set(self.snapshots.get() + 1);
            }
            self.inner.config_into(out);
        }
        fn config_eq(&self, c: &RingState) -> bool {
            self.inner.config_eq(c)
        }
        fn same_config(&self, other: &Self) -> bool {
            self.inner.same_config(&other.inner)
        }
    }

    #[test]
    fn probes_snapshot_at_most_once_per_pass() {
        let n = 12usize;
        let dirs = PointerInit::Random(3).ring_directions(n, &[0, 5, 5]);
        let snapshots = Cell::new(0);
        let make = || Counted {
            inner: RingRouter::new(n, &[0, 5, 5], &dirs),
            snapshots: &snapshots,
        };
        let mut head = CycleProbe::new();
        assert!(make().run_probed(1_000_000, &mut head));
        assert_eq!(snapshots.get(), 1, "the round-0 tortoise only");
        let period = head.period().unwrap();
        assert!(period > 1, "the tortoise teleported at least once");
        let mut tail = TailProbe::new(period, make());
        assert!(make().run_probed(1_000_000, &mut tail));
        assert_eq!(snapshots.get(), 1, "the tail pass compares in place");
        let expected = ring_probe(n, &[0, 5, 5], &dirs, 1_000_000);
        assert_eq!(
            Some(CycleInfo {
                tail: tail.tail().unwrap(),
                period
            }),
            expected
        );
    }

    #[test]
    fn cycle_probe_period_matches_ring_cycle_on_small_rings() {
        // The probe's phase-1 λ alone, driven through run_probed, equals
        // the full probe_cycle answer on known small configurations.
        for (n, starts) in [(4usize, vec![0u32]), (5, vec![0, 2]), (6, vec![1, 1, 4])] {
            let dirs = vec![CW; n];
            let full = ring_probe(n, &starts, &dirs, 1_000_000).unwrap();
            let mut r = RingRouter::new(n, &starts, &dirs);
            let mut probe = CycleProbe::new();
            assert!(r.run_probed(1_000_000, &mut probe));
            assert_eq!(probe.period(), Some(full.period), "n={n}");
        }
    }

    #[test]
    fn probe_runs_past_cover_round() {
        // run_probed must not stop at cover: the n=8 single-agent ring
        // covers in Θ(n²) rounds but its limit cycle is only entered later.
        let n = 8usize;
        let mut r = RingRouter::new(n, &[0], &vec![CW; n]);
        let mut probe = CycleProbe::new();
        assert!(r.run_probed(1_000_000, &mut probe));
        assert!(r.cover_round().is_some());
        assert!(
            CoverProcess::round(&r) > r.cover_round().unwrap(),
            "probe kept driving after cover"
        );
        assert_eq!(probe.period(), Some(2 * n as u64));
    }

    #[test]
    fn tail_probe_recovers_known_tail() {
        let n = 6usize;
        let starts = [1u32, 1, 4];
        let dirs = vec![CW; n];
        let expected = brent(
            || RingRouter::new(n, &starts, &dirs),
            RingRouter::step,
            |r| -> RingState { r.state() },
            1_000_000,
        )
        .unwrap();
        let mut r = RingRouter::new(n, &starts, &dirs);
        let mut probe = TailProbe::new(expected.period, RingRouter::new(n, &starts, &dirs));
        assert!(r.run_probed(1_000_000, &mut probe));
        assert_eq!(probe.tail(), Some(expected.tail));
    }

    #[test]
    fn single_agent_lockin_period_on_general_graphs() {
        // Lock-in theorem (§1.2, Yanovski et al.): a single agent settles
        // into an Eulerian traversal, so the limit period divides a
        // multiple of 2|E| — and is in fact exactly 2|E| here.
        for g in [
            builders::torus(3, 3),
            builders::hypercube(3),
            builders::lollipop(4, 3),
        ] {
            let two_e = 2 * g.edge_count() as u64;
            let info = engine_probe(&g, &[NodeId::new(0)], &PointerInit::Uniform(0)).unwrap();
            assert_eq!(info.period, two_e, "{g:?}");
            // lock-in happens within the 2·D·|E| bound
            let bound = 2 * u64::from(rotor_graph::algo::diameter(&g)) * g.edge_count() as u64;
            assert!(info.tail <= bound, "tail {} > bound {bound}", info.tail);
        }
    }

    #[test]
    fn probe_cycle_times_out_like_brent() {
        // A budget too small for μ + λ yields None on both paths.
        let n = 16usize;
        let dirs = vec![CW; n];
        assert_eq!(probe_cycle(|| RingRouter::new(n, &[0], &dirs), 10), None);
        assert_eq!(
            brent(
                || RingRouter::new(n, &[0], &dirs),
                RingRouter::step,
                |r| -> RingState { r.state() },
                10,
            ),
            None
        );
    }

    #[test]
    fn multi_agent_certified_period_replays() {
        // The certified (μ, λ) of a two-agent ring is a real cycle: the
        // configuration reached after μ rounds recurs λ rounds later.
        let n = 8usize;
        let starts = [0u32, 4];
        let dirs = vec![CW; n];
        let info = ring_probe(n, &starts, &dirs, 1_000_000).unwrap();
        let mut r = RingRouter::new(n, &starts, &dirs);
        for _ in 0..info.tail {
            r.step();
        }
        let on_cycle = r.state();
        for _ in 0..info.period {
            r.step();
        }
        assert_eq!(r.state(), on_cycle, "period certified by replay");
    }
}
