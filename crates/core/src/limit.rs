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
//! Brent's algorithm finds `(μ, λ)` in `O(μ + λ)` rounds. Configurations
//! are `Θ(n)`-sized, so the probe holds one snapshot, the tortoise, and
//! compares the *live* process with it in place
//! ([`config_eq`](ConfigSnapshot::config_eq)); a teleporting tortoise
//! overwrites the snapshot's buffers
//! ([`config_into`](ConfigSnapshot::config_into)). Occupancy is checked
//! before pointers (on the ring an `O(k)` occupied list;
//! [`Engine`](crate::Engine) keeps `Θ(n)` per-node agent counts).
//!
//! [`brent`] is the classical restartable form over an explicit
//! `new`/`step`/`snap` machine, kept as the reference implementation.
//! [`probe_cycle`] certifies the same `(μ, λ)` on any deterministic backend
//! the scenario layer can build (torus, hypercube, lollipop, …), in two
//! phases:
//!
//! * phase 1 finds `λ` with a [`CycleProbe`] driven through
//!   [`CoverProcess::run_probed`]. The probe names only the rounds where
//!   the live configuration can still equal the tortoise
//!   ([`rounds_to`](ConfigSnapshot::rounds_to)), so the ring skips
//!   straight runs in between, and on the way it keeps a bounded set of
//!   copies of the process, its *checkpoints*;
//! * phase 2 finds `μ`. Whether `x_t = x_{t+λ}` holds is monotone in `t`,
//!   so it bisects the checkpoints for the last one off the cycle and
//!   steps two copies, `λ` rounds apart, from there until they agree.
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
/// comparisons have no defaults, so every backend states its own. Each
/// must agree with the snapshot's `PartialEq` on *every* pair — different
/// `k` (after a crash) included:
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

    /// A lower bound, at least 1, on the rounds before the configuration
    /// can equal `c`: no round before `round() + rounds_to(c)` does. A
    /// [`CycleProbe`] looks again only then. The default, 1, has it look
    /// every round; [`RingRouter`](crate::RingRouter) counts the direction
    /// bits that must still flip.
    fn rounds_to(&self, c: &Self::Config) -> u64 {
        let _ = c;
        1
    }
}

/// Checkpoint copies a [`CycleProbe`] keeps in each power-of-two block.
const BLOCK_CHECKPOINTS: u64 = 16;

/// Brent phase 1 as an [`Observer`]: finds the limit-cycle period `λ` of
/// the configuration sequence during a single
/// [`run_probed`](CoverProcess::run_probed) drive, holding one tortoise
/// snapshot, and keeps the checkpoints [`cycle`](Self::cycle) bisects for
/// the tail `μ`.
///
/// The tortoise waits at relative round `2^i − 1` while the hare walks the
/// block of the next `2^i` rounds, as in [`brent`], so the detected `λ` is
/// bit-identical to the restartable form. The snapshot is taken once, at
/// the first round observed; afterwards the live configuration is compared
/// to it in place ([`config_eq`](ConfigSnapshot::config_eq)) and a
/// teleport overwrites its buffers
/// ([`config_into`](ConfigSnapshot::config_into)). The probe asks to see
/// only the rounds where a match is still possible
/// ([`rounds_to`](ConfigSnapshot::rounds_to)), the teleport rounds and the
/// checkpoint rounds.
///
/// The checkpoints are copies of the process at the start, at every
/// teleport and at 16 evenly spaced rounds of each of the current and the
/// previous block (every round of a block shorter than 16). A teleport
/// drops the ones inside the block before the previous one, and new
/// copies reuse their buffers ([`Clone::clone_from`]). A run of at most
/// `max_steps` rounds holds at most `33 + ⌈log₂ max_steps⌉` copies,
/// spare ones included, whatever `μ` is.
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
/// assert_eq!(probe.cycle().map(|c| c.period), Some(10));
/// ```
#[derive(Clone, Debug)]
pub struct CycleProbe<P: ConfigSnapshot> {
    tortoise: Option<P::Config>,
    /// The first round observed: `μ` counts from here.
    start: u64,
    /// The round the tortoise snapshot holds.
    tortoise_round: u64,
    /// Length of the hare's block: it is compared at rounds
    /// `tortoise_round + 1 ..= tortoise_round + power`.
    power: u64,
    /// The next round this probe needs to see.
    next: u64,
    period: Option<u64>,
    /// Copies of the observed process, ascending by round.
    checkpoints: Vec<P>,
    /// Dropped copies whose buffers the next checkpoints reuse.
    spare: Vec<P>,
}

impl<P: ConfigSnapshot + Clone> CycleProbe<P> {
    /// A fresh probe, ready to observe a run from its initial
    /// configuration onward.
    pub fn new() -> Self {
        CycleProbe {
            tortoise: None,
            start: 0,
            tortoise_round: 0,
            power: 1,
            next: 0,
            period: None,
            checkpoints: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The certified period `λ`, once found.
    pub fn period(&self) -> Option<u64> {
        self.period
    }

    /// Brent phase 2: the certified `(μ, λ)` once the period is found,
    /// `None` before.
    ///
    /// The tortoise round `T` is on the cycle (`x_T = x_{T+λ}`), so
    /// `μ ≤ T`. A binary search over the checkpoints before `T` finds the
    /// last one off the cycle, testing each by advancing a copy `λ`
    /// rounds; from there two copies `λ` rounds apart step until they
    /// agree, at most to the next checkpoint. That costs one `λ`-round
    /// [`advance`](CoverProcess::advance) per bisection step, plus two
    /// copies stepped over at most the gap between two checkpoints,
    /// instead of the `2μ + λ` rounds of [`brent`]'s replay.
    pub fn cycle(mut self) -> Option<CycleInfo> {
        let period = self.period?;
        // The checkpoints past the tortoise round are on the cycle.
        let before = self
            .checkpoints
            .partition_point(|c| c.round() < self.tortoise_round);
        self.spare.extend(self.checkpoints.drain(before..));
        // Checkpoints below `lo` are off the cycle, those from `hi` on
        // are on it; `off` holds the last one found off it, and a copy of
        // it λ rounds later.
        let (mut lo, mut hi) = (0, before);
        let mut off: Option<(usize, P)> = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut front = recycled(&mut self.spare, &self.checkpoints[mid]);
            let until = front.round() + period;
            while front.advance(until) < until {}
            if self.checkpoints[mid].same_config(&front) {
                hi = mid;
                self.spare.push(front);
            } else {
                lo = mid + 1;
                self.spare.extend(off.replace((mid, front)).map(|(_, f)| f));
            }
        }
        let tail = match off {
            // The first checkpoint, the start, is on the cycle.
            None => 0,
            Some((i, mut front)) => {
                let back = &mut self.checkpoints[i];
                loop {
                    back.step();
                    front.step();
                    if back.same_config(&front) {
                        break back.round() - self.start;
                    }
                }
            }
        };
        Some(CycleInfo { tail, period })
    }

    /// Keeps a copy of `p` as the newest checkpoint.
    fn checkpoint(&mut self, p: &P) {
        let copy = recycled(&mut self.spare, p);
        self.checkpoints.push(copy);
    }
}

/// A copy of `p`, made in the buffers of a spare copy if there is one.
fn recycled<P: Clone>(spare: &mut Vec<P>, p: &P) -> P {
    match spare.pop() {
        Some(mut copy) => {
            copy.clone_from(p);
            copy
        }
        None => p.clone(),
    }
}

impl<P: ConfigSnapshot + Clone> Default for CycleProbe<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: ConfigSnapshot + Clone> Observer<P> for CycleProbe<P> {
    fn observe(&mut self, p: &P) {
        if self.period.is_some() {
            return;
        }
        let now = p.round();
        let Some(tortoise) = &mut self.tortoise else {
            // The first round: the tortoise starts at the initial
            // configuration — the only snapshot this pass allocates.
            let mut first = P::Config::default();
            p.config_into(&mut first);
            self.tortoise = Some(first);
            (self.start, self.tortoise_round, self.next) = (now, now, now + 1);
            self.checkpoint(p);
            return;
        };
        if p.config_eq(tortoise) {
            self.period = Some(now - self.tortoise_round);
            return;
        }
        if now == self.tortoise_round + self.power {
            p.config_into(tortoise);
            // The previous block becomes the one before it: drop the
            // checkpoints inside it (there is none before the first).
            let (first, last) = (self.tortoise_round - self.power / 2, self.tortoise_round);
            let from = self.checkpoints.partition_point(|c| c.round() <= first);
            let to = self.checkpoints.partition_point(|c| c.round() < last);
            self.spare
                .extend(self.checkpoints.drain(from..to.max(from)));
            self.tortoise_round = now;
            self.power = self.power.checked_mul(2).expect("power-of-two overflow");
        }
        let to_tortoise = p.rounds_to(tortoise);
        let stride = (self.power / BLOCK_CHECKPOINTS).max(1);
        let into_block = (now - self.tortoise_round) % stride;
        if into_block == 0 {
            self.checkpoint(p);
        }
        self.next = now
            .saturating_add(to_tortoise)
            .min(self.tortoise_round + self.power)
            .min(now + stride - into_block);
    }

    fn next_round(&self, _now: u64) -> u64 {
        self.next
    }
}

impl<P: ConfigSnapshot + Clone> Probe<P> for CycleProbe<P> {
    fn finished(&self) -> bool {
        self.period.is_some()
    }
}

/// The `(μ, λ)` cycle structure of a deterministic process: one
/// [`CycleProbe`] pass over the process `make` returns for the period and
/// the checkpoints, then [`CycleProbe::cycle`]'s bisection for the tail.
///
/// Returns `None` when no cycle is certified within `max_steps` rounds:
/// exactly when [`brent`], to which this is property-tested equal, returns
/// `None`. Once phase 1 matches, `μ` is at most the tortoise round, so
/// phase 2 always succeeds.
///
/// The budget counts rounds from the state `make` returns, not absolute
/// rounds: a process that has already run `r` rounds (a disturbed copy in
/// the recovery runner, say) still gets the full `max_steps`, and `μ` is
/// indexed from that state.
///
/// Cost: phase 1 runs `μ + λ` rounds at most, observing only the rounds
/// [`CycleProbe`] names, and phase 2 is the bisection. The probe holds at
/// most `33 + ⌈log₂ max_steps⌉` copies of the process.
pub fn probe_cycle<P: ConfigSnapshot + Clone>(
    make: impl FnOnce() -> P,
    max_steps: u64,
) -> Option<CycleInfo> {
    let mut process = make();
    let mut probe = CycleProbe::new();
    let until = process.round().saturating_add(max_steps);
    process.run_probed(until, &mut probe);
    probe.cycle()
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
        let cycle = head.cycle();
        assert_eq!(snapshots.get(), 1, "phase 2 compares live copies");
        assert_eq!(cycle, ring_probe(n, &[0, 5, 5], &dirs, 1_000_000));
    }

    /// A [`CycleProbe`] that records the most copies it ever held,
    /// checkpoints and spare ones.
    struct Watched(CycleProbe<RingRouter>, usize);

    impl Observer<RingRouter> for Watched {
        fn observe(&mut self, p: &RingRouter) {
            self.0.observe(p);
            self.1 = self.1.max(self.0.checkpoints.len() + self.0.spare.len());
        }
        fn next_round(&self, now: u64) -> u64 {
            self.0.next_round(now)
        }
    }

    impl Probe<RingRouter> for Watched {
        fn finished(&self) -> bool {
            self.0.finished()
        }
    }

    #[test]
    fn checkpoints_stay_within_the_stated_bound_whatever_the_tail() {
        // Tails from a handful of rounds to about 10⁵: the copies held
        // stay under 33 + ⌈log₂ max_steps⌉ throughout phase 1.
        let mut tails = Vec::new();
        for (n, k) in [(8usize, 2usize), (64, 1), (256, 1), (512, 2), (500, 3)] {
            let starts = Placement::AllOnOne(0).positions(n, k);
            let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
            let max_steps = 1u64 << 22;
            let bound = 33 + max_steps.next_power_of_two().trailing_zeros() as usize;
            let mut watched = Watched(CycleProbe::new(), 0);
            let mut r = RingRouter::new(n, &starts, &dirs);
            assert!(r.run_probed(max_steps, &mut watched), "n={n} k={k}");
            assert!(watched.1 <= bound, "n={n} k={k}: {} copies", watched.1);
            let info = watched.0.cycle();
            let reference = brent(
                || RingRouter::new(n, &starts, &dirs),
                RingRouter::step,
                |r| -> RingState { r.state() },
                max_steps,
            );
            assert_eq!(info, reference, "n={n} k={k}");
            tails.push(info.expect("cycles").tail);
        }
        assert!(tails.iter().any(|&t| t < 100) && tails.iter().any(|&t| t > 50_000));
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
    fn probe_cycle_tail_matches_brent_on_known_start() {
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
        assert!(expected.tail > 0, "a start off the cycle");
        let probed = ring_probe(n, &starts, &dirs, 1_000_000).unwrap();
        assert_eq!(probed.tail, expected.tail);
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
