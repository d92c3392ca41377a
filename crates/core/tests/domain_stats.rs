//! Property tests pinning the word-wise §2.2 domain/border pass
//! [`VisitSet::domain_stats`] bit-identical to the `O(n)` reference scan
//! ([`rotor_core::domains::scan_domain_stats`]) on bare sets and on the
//! visit records of the [`RingRouter`] and the general engine.

use rotor_core::bitset::VisitSet;
use rotor_core::domains::{scan_domain_stats, visited_domains, DomainStats};
use rotor_core::init::PointerInit;
use rotor_core::placement::Placement;
use rotor_core::rng::splitmix64;
use rotor_core::{CoverProcess, RingRouter};

/// Drives one random (n, k, seed) configuration and checks the ring's
/// word-wise stats against the scan after every round until cover (or a
/// cap).
fn check_triple(n: usize, k: usize, seed: u64, max_rounds: u64) {
    let starts = Placement::Random(seed).positions(n, k);
    let dirs = PointerInit::Random(splitmix64(seed ^ 0xD0)).ring_directions(n, &starts);
    let mut r = RingRouter::new(n, &starts, &dirs);
    let ctx = |round: u64| format!("n={n} k={k} seed={seed} round={round}");
    let stats = |r: &RingRouter| r.visits().domain_stats();
    assert_eq!(stats(&r), scan_domain_stats(r.visits()), "{}", ctx(0));
    for _ in 0..max_rounds {
        r.step();
        let word_wise = stats(&r);
        assert_eq!(
            word_wise,
            scan_domain_stats(r.visits()),
            "{}",
            ctx(r.round())
        );
        // Cross-check against the segment-level reference machinery too:
        // an unfinished domain has a border at each end, or one if it is a
        // single node.
        let segments = visited_domains(&r);
        assert_eq!(
            word_wise.domains as usize,
            segments.len(),
            "{}",
            ctx(r.round())
        );
        let segment_borders: u32 = segments
            .iter()
            .filter(|d| d.len < n as u32)
            .map(|d| d.len.min(2))
            .sum();
        assert_eq!(word_wise.borders, segment_borders, "{}", ctx(r.round()));
        if r.cover_round().is_some() {
            break;
        }
    }
}

#[test]
fn incremental_counters_match_scan_on_102_random_triples() {
    // >= 100 random (n, k, seed) triples, spanning tiny rings (n = 3, the
    // wrap-heavy corner) through mid-size ones, each driven to cover.
    let mut triples = 0;
    for i in 0..102u64 {
        let h = splitmix64(0x0D07_A115 ^ i);
        let n = 3 + (h % 180) as usize;
        let k = 1 + (splitmix64(h) % 8) as usize;
        check_triple(n, k, splitmix64(h ^ 0xBEEF), 200_000);
        triples += 1;
    }
    assert!(triples >= 100);
}

#[test]
fn incremental_counters_cover_full_ring() {
    // At cover the invariant pair is exactly (1 domain, 0 borders).
    for (n, k) in [(3usize, 1usize), (16, 2), (64, 5)] {
        let starts = Placement::Random(7).positions(n, k);
        let dirs = PointerInit::Random(11).ring_directions(n, &starts);
        let mut r = RingRouter::new(n, &starts, &dirs);
        r.run_until_covered(10_000_000).expect("covers");
        assert_eq!(
            r.visits().domain_stats(),
            DomainStats {
                domains: 1,
                borders: 0
            }
        );
    }
}

#[test]
fn delayed_rounds_keep_counters_in_sync() {
    // Held agents produce no visits; the record must survive delayed
    // deployments (§2.1) exactly like plain rounds.
    let n = 48;
    let starts = Placement::EquallySpaced { offset: 0 }.positions(n, 4);
    let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
    let mut r = RingRouter::new(n, &starts, &dirs);
    for t in 0..500u32 {
        r.step_delayed(|v, c| u32::from((v + t) % 3 == 0).min(c));
        let visits = r.visits();
        assert_eq!(
            visits.domain_stats(),
            scan_domain_stats(visits),
            "round {}",
            t + 1
        );
    }
}

#[test]
fn ring_and_engine_stats_agree() {
    use rotor_graph::{builders, NodeId};
    let n = 40;
    let starts = Placement::AllOnOne(0).positions(n, 3);
    let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
    let mut ring = RingRouter::new(n, &starts, &dirs);

    let g = builders::ring(n);
    let ids: Vec<NodeId> = starts.iter().map(|&s| NodeId::new(s)).collect();
    let ptrs: Vec<u32> = dirs.iter().map(|&d| u32::from(d)).collect();
    let mut eng = rotor_core::Engine::with_pointers(&g, &ids, ptrs);

    // Identical processes: identical records and §2.2 stats every round.
    for _ in 0..300 {
        assert_eq!(ring.visits(), eng.visits());
        assert_eq!(ring.visits().domain_stats(), eng.visits().domain_stats());
        CoverProcess::step(&mut ring);
        CoverProcess::step(&mut eng);
    }
}

#[test]
fn word_wise_stats_match_bit_scan_on_random_sets() {
    let lens = (1..300).chain([4095, 4096, 4097]);
    // Per-mille density of the random fill, from empty to full.
    let densities = [0u64, 1, 50, 300, 500, 700, 950, 999, 1000];
    for len in lens {
        for (i, &permille) in densities.iter().enumerate() {
            let mut set = VisitSet::new(len);
            let mut s = splitmix64(len as u64 * 31 + i as u64);
            for v in 0..len {
                s = splitmix64(s);
                if s % 1000 < permille {
                    set.arrive(v, 0);
                }
            }
            assert_eq!(
                set.domain_stats(),
                scan_domain_stats(&set),
                "len={len} density={permille}/1000"
            );
        }
    }
}

#[test]
fn word_wise_stats_match_bit_scan_at_word_edges() {
    // Single nodes and pairs straddling word boundaries and the wrap.
    for len in [1usize, 2, 63, 64, 65, 127, 128, 129, 4097] {
        let picks = [0, 1, 62, 63, 64, 65, len.saturating_sub(2), len - 1];
        for &a in picks.iter().filter(|&&a| a < len) {
            for &b in picks.iter().filter(|&&b| b < len) {
                let mut set = VisitSet::new(len);
                set.arrive(a, 0);
                set.arrive(b, 0);
                assert_eq!(
                    set.domain_stats(),
                    scan_domain_stats(&set),
                    "len={len} nodes={a},{b}"
                );
            }
        }
    }
}

#[test]
fn engine_stats_match_scan_every_round_off_the_ring() {
    use rotor_graph::{builders, NodeId};
    let graphs = [
        builders::torus(12, 10),
        builders::hypercube(7),
        builders::binary_tree(200),
        builders::star(150),
        builders::random_regular(130, 3, 5),
    ];
    for (gi, g) in graphs.iter().enumerate() {
        let n = g.node_count();
        for (k, seed) in [(1usize, 1u64), (4, 2), (16, 3)] {
            let starts = Placement::Random(seed).positions(n, k);
            let ids: Vec<NodeId> = starts.iter().map(|&s| NodeId::new(s)).collect();
            let mut e = rotor_core::Engine::new(g, &ids, &PointerInit::Random(seed ^ 0x5EED));
            loop {
                assert_eq!(
                    e.visits().domain_stats(),
                    scan_domain_stats(e.visits()),
                    "graph {gi} k={k} round {}",
                    e.round()
                );
                if e.cover_round().is_some() || e.round() >= 100_000 {
                    break;
                }
                CoverProcess::step(&mut e);
            }
        }
    }
}
