//! Property tests pinning the in-place [`ConfigSnapshot`] comparisons to
//! snapshot equality.
//!
//! The §4 probes compare live configurations in place
//! ([`config_eq`](ConfigSnapshot::config_eq),
//! [`same_config`](ConfigSnapshot::same_config)) and overwrite a stored
//! snapshot ([`config_into`](ConfigSnapshot::config_into)) instead of
//! allocating one per round. Each must return exactly what equality of
//! snapshots filled from `Default` returns, for *any* pair: random pairs,
//! near misses (same occupancy with one pointer changed, same pointers
//! with one agent moved) and pairs with different `k`.

#![expect(
    clippy::disallowed_methods,
    reason = "property tests draw their cases from fixed literal seeds; no report reads them"
)]

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rotor_core::faults::Perturb;
use rotor_core::init::PointerInit;
use rotor_core::limit::ConfigSnapshot;
use rotor_core::placement::Placement;
use rotor_core::{CoverProcess, Engine, RingRouter};
use rotor_graph::{builders, NodeId, PortGraph};
use std::fmt::Debug;

/// A fresh snapshot of `p`: a `Default` one filled by `config_into`.
fn snap<P: ConfigSnapshot>(p: &P) -> P::Config {
    let mut c = P::Config::default();
    p.config_into(&mut c);
    c
}

/// Checks every in-place method against snapshot equality on `(a, b)`,
/// both ways round, and returns whether the configurations are equal.
fn check_pair<P: ConfigSnapshot>(a: &P, b: &P, ctx: &str) -> bool
where
    P::Config: Debug,
{
    let (ca, cb) = (snap(a), snap(b));
    let want = ca == cb;
    assert_eq!(a.config_eq(&cb), want, "config_eq a→b ({ctx})");
    assert_eq!(b.config_eq(&ca), want, "config_eq b→a ({ctx})");
    assert_eq!(a.same_config(b), want, "same_config a,b ({ctx})");
    assert_eq!(b.same_config(a), want, "same_config b,a ({ctx})");
    assert!(a.config_eq(&ca) && a.same_config(a), "reflexive ({ctx})");
    let mut buf = cb.clone();
    a.config_into(&mut buf);
    assert_eq!(
        buf, ca,
        "config_into overwrites b's snapshot with a ({ctx})"
    );
    want
}

fn random_starts(rng: &mut SmallRng, n: usize, k: usize) -> Vec<u32> {
    (0..k).map(|_| rng.gen_range(0..n as u32)).collect()
}

fn random_dirs(rng: &mut SmallRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen_range(0..2u8)).collect()
}

/// Ring configurations as `(n, starts, dirs)` pairs of every kind the
/// contract names, each tagged with whether equality is expected
/// (`None` = either way).
type RingCase = (usize, Vec<u32>, Vec<u8>);

fn ring_pairs(seed: u64) -> Vec<(RingCase, RingCase, Option<bool>, &'static str)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    for _ in 0..40 {
        let n = rng.gen_range(3..40usize);
        let k = rng.gen_range(1..6usize);
        let starts = random_starts(&mut rng, n, k);
        let dirs = random_dirs(&mut rng, n);
        // Random pair on the same ring, and across ring sizes.
        let m = if rng.gen_range(0..4u32) == 0 {
            rng.gen_range(3..40usize)
        } else {
            n
        };
        let other = (m, random_starts(&mut rng, m, k), random_dirs(&mut rng, m));
        pairs.push(((n, starts.clone(), dirs.clone()), other, None, "random"));
        // Identical configurations, placement order shuffled.
        let mut reordered = starts.clone();
        reordered.reverse();
        let same = (n, reordered, dirs.clone());
        pairs.push((
            (n, starts.clone(), dirs.clone()),
            same,
            Some(true),
            "identical",
        ));
        // Same occupancy, one pointer flipped.
        let mut flipped = dirs.clone();
        flipped[rng.gen_range(0..n)] ^= 1;
        let near = (n, starts.clone(), flipped);
        pairs.push((
            (n, starts.clone(), dirs.clone()),
            near,
            Some(false),
            "pointer",
        ));
        // Same pointers, one agent moved one node on.
        let mut moved = starts.clone();
        let i = rng.gen_range(0..k);
        moved[i] = (moved[i] + 1) % n as u32;
        let near = (n, moved, dirs.clone());
        pairs.push((
            (n, starts.clone(), dirs.clone()),
            near,
            Some(false),
            "agent",
        ));
        // Different k: one extra agent on an occupied node, same pointers.
        let mut extra = starts.clone();
        extra.push(starts[0]);
        let near = (n, extra, dirs.clone());
        pairs.push(((n, starts.clone(), dirs.clone()), near, Some(false), "k"));
        // Different n: the same agents and pointers on a ring one node
        // longer, so one direction vector is a prefix of the other.
        let mut longer = dirs.clone();
        longer.push(0);
        let near = (n + 1, starts.clone(), longer);
        pairs.push(((n, starts, dirs), near, Some(false), "n"));
    }
    pairs
}

#[test]
fn ring_router_in_place_equality_matches_snapshots() {
    for ((n, sa, da), (m, sb, db), expect, kind) in ring_pairs(0xC0F1) {
        let a = RingRouter::new(n, &sa, &da);
        let b = RingRouter::new(m, &sb, &db);
        let got = check_pair(&a, &b, kind);
        if let Some(e) = expect {
            assert_eq!(got, e, "{kind} pair n={n}");
        }
        // Stepped copies: λ-apart equality is what the probes look for.
        let (mut a2, mut b2) = (a.clone(), a.clone());
        a2.step();
        check_pair(&a, &a2, "stepped");
        b2.step();
        assert!(check_pair(&a2, &b2, "stepped twins"));
        // A crash changes k but keeps every pointer.
        let mut crashed = a.clone();
        if crashed.remove_agents(n as u64, 1) == 1 {
            assert!(!check_pair(&a, &crashed, "crash"));
        }
    }
}

/// Same graph, random agent placements and pointers, plus the near
/// misses and the `k` change.
fn engine_pairs_on(g: &PortGraph, seed: u64) {
    let n = g.node_count();
    let mut rng = SmallRng::seed_from_u64(seed);
    let ids = |v: &[u32]| -> Vec<NodeId> { v.iter().map(|&x| NodeId::new(x)).collect() };
    for case in 0..25u64 {
        let k = rng.gen_range(1..6usize);
        let starts = ids(&Placement::Random(rng.next_u64()).positions(n, k));
        let ptrs = PointerInit::Random(rng.next_u64()).pointers(g, &starts);
        let a = Engine::with_pointers(g, &starts, ptrs.clone());
        let other = ids(&Placement::Random(rng.next_u64()).positions(n, k));
        let other_ptrs = PointerInit::Random(rng.next_u64()).pointers(g, &other);
        check_pair(&a, &Engine::with_pointers(g, &other, other_ptrs), "random");
        // Same occupancy, one pointer advanced one port.
        let mut near = ptrs.clone();
        let v = rng.gen_range(0..n);
        let deg = g.degree(NodeId::new(v as u32)) as u32;
        near[v] = (near[v] + 1) % deg;
        let b = Engine::with_pointers(g, &starts, near);
        assert_eq!(
            check_pair(&a, &b, "pointer"),
            deg == 1,
            "pointer case {case}"
        );
        // Same pointers, one agent moved to a neighbour.
        let mut moved = starts.clone();
        let i = rng.gen_range(0..k);
        moved[i] = g.neighbor(moved[i], 0);
        let b = Engine::with_pointers(g, &moved, ptrs.clone());
        assert!(!check_pair(&a, &b, "agent"), "agent case {case}");
        // Different k.
        let mut extra = starts.clone();
        extra.push(starts[0]);
        let b = Engine::with_pointers(g, &extra, ptrs.clone());
        assert!(!check_pair(&a, &b, "k"), "k case {case}");
        let mut crashed = a.clone();
        if crashed.remove_agents(case, 1) == 1 {
            assert!(!check_pair(&a, &crashed, "crash"), "crash case {case}");
        }
        // Stepped twins.
        let (mut s1, mut s2) = (a.clone(), a.clone());
        s1.step();
        s2.step();
        assert!(check_pair(&s1, &s2, "stepped twins"));
        check_pair(&a, &s1, "stepped");
    }
}

#[test]
fn engine_in_place_equality_matches_snapshots() {
    engine_pairs_on(&builders::torus(4, 4), 0xE1);
    engine_pairs_on(&builders::hypercube(3), 0xE2);
    engine_pairs_on(&builders::random_regular(12, 4, 0x5EED), 0xE3);
    engine_pairs_on(&builders::lollipop(4, 3), 0xE4);
}
