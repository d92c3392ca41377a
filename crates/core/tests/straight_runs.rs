//! Differential test of the ring's straight-run skipping: on seeded
//! scenarios, [`RingRouter`]'s [`CoverProcess::advance`] against a
//! reference that steps the same router round by round.
//!
//! A case is a ring size, an agent count, a placement, a pointer
//! initialisation and a sequence of horizons. At every horizon both sides
//! must agree on the round, the direction bits, the occupied list and the
//! whole visit record (bits, count, cover round). Between horizons a case
//! may open a new cover epoch or corrupt pointers on both sides, so
//! skipping is also checked after a cover. Each case also drives a §2.2
//! [`DomainSampler`] through `run_observed` on both sides and compares
//! the traces. A failure names the case's seed on one line; rerun it
//! with [`check_case`].

use rotor_core::domains::DomainSampler;
use rotor_core::faults::Perturb;
use rotor_core::init::PointerInit;
use rotor_core::placement::Placement;
use rotor_core::rng::splitmix64;
use rotor_core::{CoverProcess, RingRouter};

/// The same router driven only through `step`: the trait's default
/// `advance` loops it.
#[derive(Clone)]
struct PerRound(RingRouter);

impl CoverProcess for PerRound {
    fn kind_name(&self) -> &'static str {
        "per_round"
    }
    fn round(&self) -> u64 {
        self.0.round()
    }
    fn step(&mut self) {
        self.0.step();
    }
    fn visits(&self) -> &rotor_core::bitset::VisitSet {
        self.0.visits()
    }
}

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

/// One generated scenario.
#[derive(Debug)]
struct Case {
    n: usize,
    k: usize,
    placement: Placement,
    init: PointerInit,
    /// Sampler stride for the `run_observed` comparison.
    stride: u64,
}

/// The scenario of `seed`: mostly small rings, the word edges around 64
/// and 128, and a few rings past 1000 nodes; agent counts from one to
/// about half the ring; random, all-on-one and equally spaced placements;
/// random, toward-the-agents, away and uniform pointers.
fn case(seed: u64) -> Case {
    let mut d = Draws(seed);
    let n = match d.below(10) {
        0..=5 => 3 + d.below(198) as usize,
        6..=8 => d.pick(&[63, 64, 65, 127, 128, 129]),
        _ => d.pick(&[1000, 1024, 1337, 2048]),
    };
    let k = match d.below(4) {
        0 => 1,
        1 => 2 + d.below(3) as usize,
        2 => 1 + d.below(n as u64 / 8 + 1) as usize,
        _ => 1 + d.below(n as u64 / 2) as usize,
    };
    let placement = match d.below(3) {
        0 => Placement::Random(d.below(u64::MAX)),
        1 => Placement::AllOnOne(d.below(n as u64) as u32),
        _ => Placement::EquallySpaced {
            offset: d.below(n as u64) as u32,
        },
    };
    let init = match d.below(5) {
        0 | 1 => PointerInit::Random(d.below(u64::MAX)),
        2 => PointerInit::TowardNearestAgent,
        3 => PointerInit::AwayFromNearestAgent,
        _ => PointerInit::Uniform(d.below(2) as usize),
    };
    let stride = 1 + d.below(2 * n as u64);
    Case {
        n,
        k,
        placement,
        init,
        stride,
    }
}

/// Runs case `seed`, returning the first disagreement as one line.
fn check_case(seed: u64) -> Result<(), String> {
    let c = case(seed);
    let starts = c.placement.positions(c.n, c.k);
    let dirs = c.init.ring_directions(c.n, &starts);
    let fresh = RingRouter::new(c.n, &starts, &dirs);
    let fail =
        |what: &str, round: u64| Err(format!("seed {seed:#x}: {what} at round {round} ({c:?})"));

    // About 10⁵ agent moves of stepping per case; a single agent on a
    // ring of up to 200 nodes covers well inside that.
    let budget = (100_000 / c.k as u64).max(256);
    let (mut skip, mut step) = (fresh.clone(), PerRound(fresh.clone()));
    let mut d = Draws(splitmix64(seed ^ 0x5EED));
    while skip.round() < budget {
        let gap = match d.below(4) {
            0 => 1 + d.below(3),
            1 => 1 + d.below(c.n as u64),
            _ => 1 + d.below(budget),
        };
        let until = skip.round() + gap;
        let reached = skip.advance(until);
        if reached != step.advance(until) {
            return fail("advance returned a different round", reached);
        }
        if skip.state() != step.0.state() {
            return fail("configurations differ", reached);
        }
        if skip.visits() != step.visits() {
            return fail("visit records differ", reached);
        }
        if skip.cover_round().is_some() {
            match d.below(3) {
                0 => break,
                1 => {
                    let s = d.below(u64::MAX);
                    skip.corrupt_pointers(s, 1 + (c.n / 8) as u32);
                    step.0.corrupt_pointers(s, 1 + (c.n / 8) as u32);
                }
                _ => {}
            }
            skip.reset_cover_epoch();
            step.0.reset_cover_epoch();
        }
    }

    let (mut a, mut b) = (
        DomainSampler::every(c.stride),
        DomainSampler::every(c.stride),
    );
    let cover = fresh.clone().run_observed(budget, &mut a);
    if cover != PerRound(fresh).run_observed(budget, &mut b) {
        return fail("run_observed covers differently", cover.unwrap_or(budget));
    }
    if a.samples != b.samples {
        return fail("§2.2 sample traces differ", cover.unwrap_or(budget));
    }
    Ok(())
}

#[test]
fn advance_matches_stepping_on_seeded_cases() {
    let failures: Vec<String> = (0..300u64)
        .map(|i| splitmix64(0x0057_4A16 ^ i))
        .filter_map(|seed| check_case(seed).err())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn generated_cases_reach_every_regime() {
    let cases: Vec<Case> = (0..300u64)
        .map(|i| case(splitmix64(0x0057_4A16 ^ i)))
        .collect();
    let has = |f: &dyn Fn(&Case) -> bool| cases.iter().any(f);
    assert!(has(&|c| c.k == 1));
    assert!(has(&|c| c.n == 64) && has(&|c| c.n == 129) && has(&|c| c.n >= 1000));
    assert!(has(&|c| c.k > c.n / 4), "dense rings fall back to stepping");
    assert!(has(
        &|c| matches!(c.placement, Placement::AllOnOne(_)) && c.k > 1
    ));
    assert!(has(&|c| matches!(
        c.placement,
        Placement::EquallySpaced { .. }
    ) && c.k > 1));
    assert!(has(&|c| c.init == PointerInit::TowardNearestAgent));
}

/// The regimes where one skip covers the most ground: a single agent, and
/// equally spaced agents sweeping their own segments, with the cover
/// round falling inside a skip.
#[test]
fn closed_form_covers_fall_inside_skips() {
    for (n, k) in [(64, 1), (65, 1), (200, 1), (256, 4), (1024, 16), (1000, 8)] {
        let placement = if k == 1 {
            Placement::AllOnOne(n as u32 / 3)
        } else {
            Placement::EquallySpaced { offset: 5 }
        };
        let starts = placement.positions(n, k);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let mut skip = RingRouter::new(n, &starts, &dirs);
        let mut step = PerRound(skip.clone());
        let cover = skip.run_until_covered(u64::MAX);
        assert_eq!(cover, step.run_until_covered(u64::MAX), "n={n} k={k}");
        if n % k == 0 {
            let m = (n / k) as u64;
            assert_eq!(cover, Some(m * (m - 1) / 2), "n={n} k={k}");
        }
        assert_eq!(skip.state(), step.0.state(), "n={n} k={k}");
    }
}

/// Past cover `advance` runs on to its horizon, skipping as before, and
/// lands where `run` does; before cover it still stops at the cover round.
#[test]
fn advance_past_cover_matches_run() {
    let failures: Vec<String> = (0..100u64)
        .map(|i| splitmix64(0x0C0F_E4ED ^ i))
        .filter_map(|seed| {
            let c = case(seed);
            let starts = c.placement.positions(c.n, c.k);
            let dirs = c.init.ring_directions(c.n, &starts);
            let mut skip = RingRouter::new(c.n, &starts, &dirs);
            let cover = PerRound(skip.clone()).run_until_covered(u64::MAX);
            if skip.advance(u64::MAX) != cover.expect("covers") {
                return Some(format!(
                    "seed {seed:#x}: advance passed the cover round ({c:?})"
                ));
            }
            let mut run = skip.clone();
            let mut d = Draws(splitmix64(seed ^ 0xC0FE));
            for _ in 0..4 {
                let gap = 1 + d.below(4 * c.n as u64);
                let reached = skip.advance(skip.round() + gap);
                run.run(gap);
                if reached != run.round()
                    || skip.state() != run.state()
                    || skip.visits() != run.visits()
                {
                    return Some(format!(
                        "seed {seed:#x}: differs at round {reached} ({c:?})"
                    ));
                }
            }
            None
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
