//! Differential test of the §4 cycle probe: on seeded scenarios,
//! [`limit::probe_cycle`] against the restartable [`limit::brent`]
//! reference, which steps and snapshots every round.
//!
//! A ring case is a ring size, an agent count, a placement, a pointer
//! initialisation and the state the process is handed in at: round 0,
//! mid-run, past its cover round, or after a new cover epoch opened on a
//! disturbed router (so phase 1 crosses a first cover). Each case is
//! probed at several budgets: `μ + λ`, the round phase 1 matches at, one
//! below it (no cycle certified) and a few tiny ones. Both sides must
//! return the same `Option<CycleInfo>` at every budget. [`Engine`] cases
//! do the same on a torus, a hypercube, a random-regular graph and a
//! lollipop. A failure names the case's seed on one line; rerun it with
//! [`check_ring_case`] or [`check_engine_case`].

use rotor_core::faults::Perturb;
use rotor_core::init::PointerInit;
use rotor_core::limit::{brent, probe_cycle, CycleInfo};
use rotor_core::placement::Placement;
use rotor_core::rng::splitmix64;
use rotor_core::{Engine, EngineState, RingRouter, RingState};
use rotor_graph::{builders, NodeId, PortGraph};

/// A seeded draw stream.
struct Draws(u64);

impl Draws {
    /// A draw from `0..bound`.
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = splitmix64(self.0);
        self.0 % bound
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Where in its run a case hands the process to the probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HandIn {
    /// The fresh process, at round 0.
    Start,
    /// After this many rounds, covered or not.
    MidRun(u64),
    /// This many rounds past its cover round.
    PastCover(u64),
    /// After its cover round, with pointers corrupted by this seed and a
    /// new cover epoch opened.
    NewEpoch(u64),
}

/// One generated ring scenario.
#[derive(Debug)]
struct Case {
    n: usize,
    k: usize,
    placement: Placement,
    init: PointerInit,
    hand_in: HandIn,
}

/// The scenario of `seed`: rings of 3 to about 200 nodes and the word
/// edges around 64 and 128, one to eight agents, random, all-on-one and
/// equally spaced placements, random, toward and away pointers.
fn case(seed: u64) -> Case {
    let mut d = Draws(seed);
    let n = match d.below(10) {
        0..=3 => 3 + d.below(30) as usize,
        4..=6 => 33 + d.below(168) as usize,
        _ => d.pick(&[63, 64, 65, 127, 128, 129]),
    };
    let k = 1 + d.below(8) as usize;
    let placement = match d.below(3) {
        0 => Placement::Random(d.below(u64::MAX)),
        1 => Placement::AllOnOne(d.below(n as u64) as u32),
        _ => Placement::EquallySpaced {
            offset: d.below(n as u64) as u32,
        },
    };
    let init = match d.below(4) {
        0 | 1 => PointerInit::Random(d.below(u64::MAX)),
        2 => PointerInit::TowardNearestAgent,
        _ => PointerInit::AwayFromNearestAgent,
    };
    let hand_in = match d.below(5) {
        0 | 1 => HandIn::Start,
        2 => HandIn::MidRun(1 + d.below(2 * n as u64)),
        3 => HandIn::PastCover(d.below(4 * n as u64)),
        _ => HandIn::NewEpoch(d.below(u64::MAX)),
    };
    Case {
        n,
        k,
        placement,
        init,
        hand_in,
    }
}

/// `p` moved to the state `hand_in` names.
fn handed_in<P: Perturb>(mut p: P, hand_in: HandIn) -> P {
    match hand_in {
        HandIn::Start => {}
        HandIn::MidRun(rounds) => p.run(rounds),
        HandIn::PastCover(rounds) => {
            p.run_until_covered(u64::MAX).expect("covers");
            p.run(rounds);
        }
        HandIn::NewEpoch(seed) => {
            p.run_until_covered(u64::MAX).expect("covers");
            p.corrupt_pointers(seed, 1 + p.visits().len() as u32 / 8);
            p.reset_cover_epoch();
        }
    }
    p
}

/// The relative round at which Brent's phase 1 certifies `(μ, λ)`: the
/// tortoise waits at the first `2^i − 1 ≥ μ` whose block `2^i` reaches
/// `λ`, and the hare matches `λ` rounds later.
fn match_round(c: CycleInfo) -> u64 {
    let block = (c.tail + 1).max(c.period).next_power_of_two();
    block - 1 + c.period
}

/// Compares the probe with the reference on `start` at every budget of
/// the case, returning the first disagreement.
fn check_budgets<P: rotor_core::limit::ConfigSnapshot + Clone, S: PartialEq>(
    start: &P,
    snap: impl Fn(&P) -> S + Copy,
    tiny: u64,
) -> Result<(), String> {
    let reference = |budget| brent(|| start.clone(), P::step, snap, budget);
    let full = reference(1 << 24).ok_or("no cycle within 2²⁴ rounds")?;
    let at = match_round(full);
    let mut budgets = vec![full.tail + full.period, at, tiny];
    if at > 1 {
        budgets.push(at - 1);
    }
    for budget in budgets {
        let (probed, want) = (probe_cycle(|| start.clone(), budget), reference(budget));
        if probed != want {
            return Err(format!(
                "budget {budget}: probed {probed:?}, brent {want:?}"
            ));
        }
        let certified = budget >= at;
        if want.is_some() != certified {
            return Err(format!("budget {budget}: brent {want:?}, match round {at}"));
        }
    }
    Ok(())
}

/// Runs ring case `seed`, returning the first disagreement as one line.
fn check_ring_case(seed: u64) -> Result<(), String> {
    let c = case(seed);
    let starts = c.placement.positions(c.n, c.k);
    let dirs = c.init.ring_directions(c.n, &starts);
    let start = handed_in(RingRouter::new(c.n, &starts, &dirs), c.hand_in);
    let tiny = 1 + seed % 3;
    check_budgets(&start, |r: &RingRouter| -> RingState { r.state() }, tiny)
        .map_err(|e| format!("seed {seed:#x}: {e} ({c:?})"))
}

/// Runs engine case `seed` on `g`, returning the first disagreement as one
/// line.
fn check_engine_case(name: &str, g: &PortGraph, seed: u64) -> Result<(), String> {
    let mut d = Draws(seed);
    let n = g.node_count();
    let k = 1 + d.below(4) as usize;
    let ids: Vec<NodeId> = Placement::Random(d.below(u64::MAX))
        .positions(n, k)
        .into_iter()
        .map(NodeId::new)
        .collect();
    let ptrs = PointerInit::Random(d.below(u64::MAX)).pointers(g, &ids);
    let hand_in = match d.below(4) {
        0 | 1 => HandIn::Start,
        2 => HandIn::PastCover(d.below(n as u64)),
        _ => HandIn::NewEpoch(d.below(u64::MAX)),
    };
    let start = handed_in(Engine::with_pointers(g, &ids, ptrs), hand_in);
    let tiny = 1 + seed % 3;
    check_budgets(&start, |e: &Engine| -> EngineState { e.state() }, tiny)
        .map_err(|e| format!("seed {seed:#x}: {e} ({name}, k = {k}, {hand_in:?})"))
}

#[test]
fn probe_cycle_matches_brent_on_seeded_rings() {
    let failures: Vec<String> = (0..150u64)
        .map(|i| splitmix64(0x0C7C_1E00 ^ i))
        .filter_map(|seed| check_ring_case(seed).err())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn probe_cycle_matches_brent_on_engine_graphs() {
    let mut failures = Vec::new();
    for (name, g) in [
        ("torus_5x4", builders::torus(5, 4)),
        ("hypercube_4", builders::hypercube(4)),
        (
            "random_regular_12_3",
            builders::random_regular(12, 3, 0x5EED),
        ),
        ("lollipop_5_4", builders::lollipop(5, 4)),
    ] {
        failures.extend(
            (0..12u64)
                .map(|i| splitmix64(0xE6 ^ i))
                .filter_map(|seed| check_engine_case(name, &g, seed).err()),
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn generated_cases_reach_every_regime() {
    let cases: Vec<Case> = (0..150u64)
        .map(|i| case(splitmix64(0x0C7C_1E00 ^ i)))
        .collect();
    let has = |f: &dyn Fn(&Case) -> bool| cases.iter().any(f);
    assert!(has(&|c| c.k == 1) && has(&|c| c.k == 8));
    assert!(has(&|c| c.n == 64) && has(&|c| c.n == 129) && has(&|c| c.n > 150));
    assert!(has(
        &|c| matches!(c.placement, Placement::AllOnOne(_)) && c.k > 1
    ));
    assert!(has(&|c| matches!(
        c.placement,
        Placement::EquallySpaced { .. }
    ) && c.k > 1));
    assert!(has(&|c| c.init == PointerInit::TowardNearestAgent));
    assert!(has(&|c| c.init == PointerInit::AwayFromNearestAgent));
    for hand_in in [
        |h: HandIn| h == HandIn::Start,
        |h: HandIn| matches!(h, HandIn::MidRun(_)),
        |h: HandIn| matches!(h, HandIn::PastCover(_)),
        |h: HandIn| matches!(h, HandIn::NewEpoch(_)),
    ] {
        assert!(has(&|c| hand_in(c.hand_in)));
    }
}
