//! Agent placements and remote vertices.
//!
//! Table 1 of the paper distinguishes the *worst* initial placement (all
//! agents on one node — Theorems 1 and 2) from the *best* placement (agents
//! equally spaced — Theorems 3 and 4). The lower-bound proofs use *remote
//! vertices* (Definition 2): vertices around which few agents start, which
//! therefore take `Ω((n/k)²)` time to reach; Lemma 15 shows at least
//! `0.8n − o(n)` of the ring's vertices are remote for *any* placement.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rotor_graph::NodeId;

/// A strategy choosing the `k` starting nodes on the `n`-node ring (agents
/// may share nodes; positions form a multiset).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// All `k` agents on the given node (the worst case of Theorems 1–2).
    AllOnOne(u32),
    /// Agent `i` at `⌊i·n/k⌋ + offset mod n` — the best case of Theorem 3:
    /// the gaps between consecutive agents are `≤ ⌈n/k⌉`.
    EquallySpaced {
        /// Rotation applied to all positions.
        offset: u32,
    },
    /// Independent uniformly random nodes, seeded (reproducible).
    Random(u64),
    /// Explicit positions (sorted internally).
    Custom(Vec<u32>),
}

impl Placement {
    /// The sorted multiset of starting positions for `k` agents on an
    /// `n`-node ring.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `k == 0`, or a position is out of range.
    pub fn positions(&self, n: usize, k: usize) -> Vec<u32> {
        assert!(n > 0, "ring must be non-empty");
        assert!(k > 0, "need at least one agent");
        let n32 = n as u32;
        let mut pos = match self {
            Placement::AllOnOne(v) => {
                assert!(*v < n32, "start node out of range");
                vec![*v; k]
            }
            Placement::EquallySpaced { offset } => (0..k)
                .map(|i| (((i * n / k) as u32) + offset) % n32)
                .collect(),
            Placement::Random(seed) => {
                #[expect(clippy::disallowed_methods, reason = "seed derived by rotor-sweep")]
                let mut rng = SmallRng::seed_from_u64(*seed);
                (0..k).map(|_| rng.gen_range(0..n32)).collect()
            }
            Placement::Custom(v) => {
                assert_eq!(v.len(), k, "custom placement length mismatch");
                assert!(v.iter().all(|&p| p < n32), "position out of range");
                v.clone()
            }
        };
        pos.sort_unstable();
        pos
    }

    /// The positions as [`NodeId`]s, for use with the general-graph engine.
    pub fn node_ids(&self, n: usize, k: usize) -> Vec<NodeId> {
        self.positions(n, k).into_iter().map(NodeId::new).collect()
    }
}

/// Whether vertex `v` is *remote* for the placement `starts` on the
/// `n`-ring (Definition 2): for every `1 ≤ r ≤ k`, each of the two cyclic
/// segments `[v, v ± ⌊r·n/(10k)⌋]` contains at most `r` starting positions.
///
/// `starts` must be sorted ascending (as produced by
/// [`Placement::positions`]).
pub fn is_remote(n: usize, starts: &[u32], v: u32) -> bool {
    let k = starts.len();
    debug_assert!(starts.windows(2).all(|w| w[0] <= w[1]), "starts sorted");
    for r in 1..=k {
        let len = (r * n / (10 * k)) as u32;
        if count_in_cyclic_segment(n, starts, v, len, true) > r {
            return false;
        }
        if count_in_cyclic_segment(n, starts, v, len, false) > r {
            return false;
        }
    }
    true
}

/// All remote vertices for `starts` on the `n`-ring.
///
/// Lemma 15: for `k = ω(1)` there are at least `0.8n − o(n)` of them,
/// whatever the placement.
pub fn remote_vertices(n: usize, starts: &[u32]) -> Vec<u32> {
    (0..n as u32).filter(|&v| is_remote(n, starts, v)).collect()
}

/// Number of elements of the sorted multiset `starts` lying in the cyclic
/// segment of `len + 1` vertices starting at `v` and extending clockwise
/// (`cw = true`: `{v, v+1, …, v+len}`) or anticlockwise.
fn count_in_cyclic_segment(n: usize, starts: &[u32], v: u32, len: u32, cw: bool) -> usize {
    let n32 = n as u32;
    debug_assert!(len < n32, "segment wraps the whole ring");
    // Count of starts in [a, b] (mod n), inclusive.
    let (a, b) = if cw {
        (v, (v + len) % n32)
    } else {
        ((v + n32 - len) % n32, v)
    };
    if a <= b {
        count_in_range(starts, a, b)
    } else {
        count_in_range(starts, a, n32 - 1) + count_in_range(starts, 0, b)
    }
}

/// Number of elements of sorted `starts` in the inclusive range `[a, b]`.
fn count_in_range(starts: &[u32], a: u32, b: u32) -> usize {
    let lo = starts.partition_point(|&x| x < a);
    let hi = starts.partition_point(|&x| x <= b);
    hi - lo
}

/// The largest cyclic gap between consecutive starting positions — the
/// length of the longest agent-free sub-path plus one.
///
/// Used by lower-bound experiments: the last node covered lies in the
/// middle of this gap.
///
/// # Panics
///
/// Panics if `starts` is empty.
pub fn max_gap(n: usize, starts: &[u32]) -> u32 {
    assert!(!starts.is_empty(), "need at least one start");
    let n32 = n as u32;
    let mut uniq: Vec<u32> = starts.to_vec();
    uniq.dedup();
    if uniq.len() == 1 {
        return n32;
    }
    let mut best = 0;
    for w in uniq.windows(2) {
        best = best.max(w[1] - w[0]);
    }
    best.max(uniq[0] + n32 - uniq[uniq.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_on_one() {
        assert_eq!(Placement::AllOnOne(3).positions(10, 4), vec![3; 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn all_on_one_out_of_range() {
        Placement::AllOnOne(10).positions(10, 2);
    }

    #[test]
    fn equally_spaced_divisible() {
        assert_eq!(
            Placement::EquallySpaced { offset: 0 }.positions(12, 4),
            vec![0, 3, 6, 9]
        );
    }

    #[test]
    fn equally_spaced_offset_wraps() {
        assert_eq!(
            Placement::EquallySpaced { offset: 10 }.positions(12, 4),
            vec![1, 4, 7, 10]
        );
    }

    #[test]
    fn equally_spaced_non_divisible_gaps_are_balanced() {
        let pos = Placement::EquallySpaced { offset: 0 }.positions(10, 3);
        assert_eq!(pos, vec![0, 3, 6]);
        assert_eq!(max_gap(10, &pos), 4);
    }

    #[test]
    fn random_reproducible_and_in_range() {
        let a = Placement::Random(1).positions(100, 8);
        let b = Placement::Random(1).positions(100, 8);
        assert_eq!(a, b);
        assert!(a.iter().all(|&p| p < 100));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn custom_is_sorted() {
        let p = Placement::Custom(vec![5, 1, 3]).positions(6, 3);
        assert_eq!(p, vec![1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn custom_wrong_k() {
        Placement::Custom(vec![1, 2]).positions(6, 3);
    }

    #[test]
    fn node_ids_match_positions() {
        let p = Placement::EquallySpaced { offset: 0 };
        let ids = p.node_ids(8, 2);
        assert_eq!(ids, vec![NodeId::new(0), NodeId::new(4)]);
    }

    #[test]
    fn count_in_range_basics() {
        let s = vec![2, 4, 4, 9];
        assert_eq!(count_in_range(&s, 0, 1), 0);
        assert_eq!(count_in_range(&s, 2, 4), 3);
        assert_eq!(count_in_range(&s, 4, 4), 2);
        assert_eq!(count_in_range(&s, 5, 9), 1);
    }

    #[test]
    fn cyclic_segment_wraps() {
        let s = vec![0, 1, 9];
        // clockwise from 8, length 3: {8,9,0,1} -> 3 starts
        assert_eq!(count_in_cyclic_segment(10, &s, 8, 3, true), 3);
        // anticlockwise from 1, length 3: {8,9,0,1} -> 3 starts
        assert_eq!(count_in_cyclic_segment(10, &s, 1, 3, false), 3);
        // clockwise from 2, length 3: {2,3,4,5} -> 0 starts
        assert_eq!(count_in_cyclic_segment(10, &s, 2, 3, true), 0);
    }

    #[test]
    fn remote_vertices_exclude_cluster_neighbourhood() {
        let n = 1000;
        let k = 10;
        let starts = Placement::AllOnOne(0).positions(n, k);
        let remote = remote_vertices(n, &starts);
        // Nodes right next to the cluster are not remote: r=1 gives segment
        // length n/(10k) = 10 containing all 10 starts > 1.
        assert!(!remote.contains(&1));
        assert!(!remote.contains(&(n as u32 - 1)));
        // The antipode is remote.
        assert!(remote.contains(&500));
        // Lemma 15 flavour: a large fraction is remote.
        assert!(
            remote.len() >= (0.8 * n as f64) as usize - 50,
            "only {} remote vertices",
            remote.len()
        );
    }

    #[test]
    fn remote_vertices_majority_for_spread_placements() {
        let n = 2000;
        let k = 40;
        for placement in [
            Placement::EquallySpaced { offset: 0 },
            Placement::Random(13),
        ] {
            let starts = placement.positions(n, k);
            let remote = remote_vertices(n, &starts);
            assert!(
                remote.len() >= (0.75 * n as f64) as usize,
                "{placement:?}: only {} remote",
                remote.len()
            );
        }
    }

    #[test]
    fn max_gap_cases() {
        assert_eq!(max_gap(10, &[0, 5]), 5);
        assert_eq!(max_gap(10, &[3, 3, 3]), 10);
        assert_eq!(max_gap(10, &[0, 1, 2]), 8);
        assert_eq!(
            max_gap(12, &Placement::EquallySpaced { offset: 0 }.positions(12, 4)),
            3
        );
    }
}
