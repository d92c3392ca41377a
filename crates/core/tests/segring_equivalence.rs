//! Property tests pinning [`SegmentedRing`] bit-identical to [`RingRouter`].
//!
//! The segmented backend must be a pure partition parameter: for every
//! `(n, k, seed, placement, init, delay-schedule)` and every segment count
//! `P`, the per-round [`RingState`] sequence, the cover round, the §2.2
//! domain statistics and the Brent `(μ, λ)` cycle structure must all equal
//! the serial [`RingRouter`]'s. These tests sweep random instances across
//! `P ∈ {1, 2, 3, 4, 7}` — including the segment-boundary edge cases the
//! exchange protocol has to get right: `k > n/P` (agents outnumber a
//! segment), delayed deployments straddling a boundary, and mid-run
//! [`Perturb`] disturbances.
//!
//! [`Perturb`]: rotor_core::faults::Perturb

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rotor_core::domains::scan_domain_stats;
use rotor_core::faults::Perturb;
use rotor_core::init::PointerInit;
use rotor_core::limit::probe_cycle;
use rotor_core::placement::Placement;
use rotor_core::{CoverProcess, RingRouter, SegmentedRing};

const PARTITIONS: [usize; 5] = [1, 2, 3, 4, 7];

/// Drive both engines `rounds` rounds in lockstep, checking every
/// deterministic field after every round.
fn assert_lockstep(serial: &mut RingRouter, seg: &mut SegmentedRing, rounds: u64, ctx: &str) {
    for r in 0..rounds {
        assert_eq!(
            serial.state(),
            seg.state(),
            "state drift at round {r} ({ctx})"
        );
        assert_eq!(
            serial.cover_round(),
            seg.cover_round(),
            "cover-round drift at round {r} ({ctx})"
        );
        let want = CoverProcess::domain_stats(serial);
        let got = CoverProcess::domain_stats(seg);
        assert_eq!(want, got, "domain-stats drift at round {r} ({ctx})");
        assert_eq!(
            got,
            scan_domain_stats(seg),
            "incremental domain stats disagree with the O(n) scan at round {r} ({ctx})"
        );
        serial.step();
        seg.step();
    }
    assert_eq!(
        serial.state(),
        seg.state(),
        "state drift after {rounds} rounds ({ctx})"
    );
}

fn random_instance(rng: &mut SmallRng) -> (usize, Vec<u32>, Vec<u8>) {
    let n = rng.gen_range(3..64usize);
    let k = rng.gen_range(1..13usize);
    let placement = match rng.gen_range(0..4u32) {
        0 => Placement::AllOnOne(rng.gen_range(0..n as u32)),
        1 => Placement::EquallySpaced {
            offset: rng.gen_range(0..n as u32),
        },
        2 => Placement::Random(rng.next_u64()),
        _ => Placement::Custom((0..k).map(|_| rng.gen_range(0..n as u32)).collect()),
    };
    let starts = placement.positions(n, k);
    let dirs = match rng.gen_range(0..4u32) {
        0 => PointerInit::TowardNearestAgent.ring_directions(n, &starts),
        1 => PointerInit::AwayFromNearestAgent.ring_directions(n, &starts),
        2 => PointerInit::Random(rng.next_u64()).ring_directions(n, &starts),
        _ => PointerInit::Uniform(rng.gen_range(0..2)).ring_directions(n, &starts),
    };
    (n, starts, dirs)
}

/// Tentpole pin: random `(n, k, placement, init)` instances, every
/// partition count, every deterministic field, every round.
#[test]
fn segmented_ring_matches_ring_router_per_round() {
    let mut rng = SmallRng::seed_from_u64(0x5E61);
    for case in 0..40 {
        let (n, starts, dirs) = random_instance(&mut rng);
        for p in PARTITIONS {
            let mut serial = RingRouter::new(n, &starts, &dirs);
            let mut seg = SegmentedRing::new(n, &starts, &dirs, p);
            let ctx = format!("case {case}: n={n} k={} p={p}", starts.len());
            assert_lockstep(&mut serial, &mut seg, 4 * n as u64 + 32, &ctx);
        }
    }
}

/// Boundary edge case: `k > n/P`, so at least one segment holds more
/// agents than nodes and both boundary streams carry traffic every round.
#[test]
fn agents_outnumbering_a_segment_still_match() {
    let cases: [(usize, usize); 4] = [(12, 4), (9, 3), (20, 7), (6, 2)];
    for (n, p) in cases {
        let k = 3 * n; // k > n ≥ n/P for every segment
        for anchor in [0u32, (n / 2) as u32, (n - 1) as u32] {
            let starts = Placement::AllOnOne(anchor).positions(n, k);
            let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
            let mut serial = RingRouter::new(n, &starts, &dirs);
            let mut seg = SegmentedRing::new(n, &starts, &dirs, p);
            let ctx = format!("n={n} k={k} p={p} anchor={anchor}");
            assert_lockstep(&mut serial, &mut seg, 6 * n as u64, &ctx);
        }
    }
}

/// Delayed deployments (§2.1) straddling segment boundaries: the same
/// pure `D(v, c)` schedule must produce identical trajectories, including
/// when the held agents sit exactly on the first and last node of a
/// segment.
#[test]
fn delayed_deployment_straddling_boundaries_matches() {
    let mut rng = SmallRng::seed_from_u64(0xD31A);
    // Deterministic, value-dependent delay: holds back a (v, c)-dependent
    // share, frequently at boundary nodes of every partition tested.
    let delay = |v: u32, c: u32| (v.wrapping_mul(0x9E37_79B9) >> 27).wrapping_add(c) % (c + 1);
    for case in 0..20 {
        let (n, starts, dirs) = random_instance(&mut rng);
        for p in PARTITIONS {
            let mut serial = RingRouter::new(n, &starts, &dirs);
            let mut seg = SegmentedRing::new(n, &starts, &dirs, p);
            let ctx = format!("delayed case {case}: n={n} p={p}");
            for r in 0..3 * n as u64 {
                assert_eq!(
                    serial.state(),
                    seg.state(),
                    "state drift at round {r} ({ctx})"
                );
                assert_eq!(
                    serial.cover_round(),
                    seg.cover_round(),
                    "cover drift ({ctx})"
                );
                assert_eq!(
                    CoverProcess::domain_stats(&serial),
                    CoverProcess::domain_stats(&seg),
                    "domain drift at round {r} ({ctx})"
                );
                serial.step_delayed(delay);
                seg.step_delayed(delay);
            }
            assert_eq!(serial.state(), seg.state(), "final state ({ctx})");
        }
    }
}

/// Mid-run [`Perturb`] disturbances — pointer corruption, agent crashes
/// and a cover-epoch reset — must consume the same deterministic draw
/// sequences and leave both engines in the same configuration.
#[test]
fn perturbations_mid_run_match() {
    let mut rng = SmallRng::seed_from_u64(0xFA17);
    for case in 0..20 {
        let (n, starts, dirs) = random_instance(&mut rng);
        for p in PARTITIONS {
            let mut serial = RingRouter::new(n, &starts, &dirs);
            let mut seg = SegmentedRing::new(n, &starts, &dirs, p);
            let ctx = format!("perturb case {case}: n={n} p={p}");
            assert_lockstep(&mut serial, &mut seg, n as u64, &ctx);

            let seed = rng.next_u64();
            let flips = rng.gen_range(1..8u32);
            assert_eq!(
                Perturb::corrupt_pointers(&mut serial, seed, flips),
                Perturb::corrupt_pointers(&mut seg, seed, flips),
                "corrupt_pointers draw mismatch ({ctx})"
            );
            assert_lockstep(&mut serial, &mut seg, n as u64, &ctx);

            let seed = rng.next_u64();
            let kills = rng.gen_range(1..6u32);
            assert_eq!(
                Perturb::remove_agents(&mut serial, seed, kills),
                Perturb::remove_agents(&mut seg, seed, kills),
                "remove_agents draw mismatch ({ctx})"
            );
            assert_lockstep(&mut serial, &mut seg, n as u64, &ctx);

            Perturb::reset_cover_epoch(&mut serial);
            Perturb::reset_cover_epoch(&mut seg);
            assert_eq!(
                serial.cover_round(),
                seg.cover_round(),
                "epoch reset ({ctx})"
            );
            assert_lockstep(&mut serial, &mut seg, 2 * n as u64, &ctx);
        }
    }
}

/// §4 limit behaviour: Brent `(μ, λ)` over the configuration sequence is
/// identical on both backends for every partition count.
#[test]
fn brent_cycle_structure_matches() {
    let mut rng = SmallRng::seed_from_u64(0xB3E7);
    for case in 0..12u64 {
        let n = rng.gen_range(3..16usize);
        let k = rng.gen_range(1..4usize);
        let starts: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n as u32)).collect();
        for init in [PointerInit::TowardNearestAgent, PointerInit::Random(case)] {
            let dirs = init.ring_directions(n, &starts);
            let serial = probe_cycle(|| RingRouter::new(n, &starts, &dirs), 200_000);
            for p in PARTITIONS {
                let seg = probe_cycle(|| SegmentedRing::new(n, &starts, &dirs, p), 200_000);
                assert_eq!(serial, seg, "(μ, λ) drift: n={n} k={k} p={p} {init:?}");
            }
        }
    }
}

/// Cover times across the worst-case family stay pinned for partitions
/// that do not divide `n`, including `P` close to `n`.
#[test]
fn awkward_partition_counts_match_cover_times() {
    for n in [5usize, 13, 31, 47] {
        let starts = Placement::AllOnOne(0).positions(n, 4);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let mut serial = RingRouter::new(n, &starts, &dirs);
        let want = serial.run_until_covered(1 << 20).expect("serial covers");
        for p in [2usize, n - 1, n, n + 3] {
            let mut seg = SegmentedRing::new(n, &starts, &dirs, p);
            let got = seg.run_until_covered(1 << 20).expect("segmented covers");
            assert_eq!(want, got, "cover time drift: n={n} p={p}");
        }
    }
}
