//! The visit record every exploration process keeps: which nodes have
//! been visited, how many are left, and the round the last one fell.
//!
//! [`VisitSet`] is the one place in the workspace that does first-visit
//! bookkeeping. The [`RingRouter`](crate::RingRouter), the
//! [`Engine`](crate::Engine) and the random walks each own one, call
//! [`arrive`](VisitSet::arrive) for every arrival of a round and
//! [`reset`](VisitSet::reset) when a fault opens a new cover epoch, and
//! hand it out through [`CoverProcess::visits`](crate::CoverProcess::visits).
//!
//! The bits are packed 64 nodes per `u64` word: a `Vec<bool>` spends a
//! byte per node and a cache line per 64 nodes, while the packed set keeps
//! even a million-node ring in L2 during the hot loop. The §2.2
//! domain/border counts come from one word-wise pass over the same words
//! ([`VisitSet::domain_stats`]), so nothing in a round's kernel maintains
//! them.

use crate::domains::DomainStats;

/// The visited nodes `0..len` of a process, with its unvisited count and
/// cover round.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct VisitSet {
    words: Vec<u64>,
    len: usize,
    unvisited: usize,
    cover_round: Option<u64>,
}

impl VisitSet {
    /// The record over `0..len` with nothing visited yet (covered at round
    /// 0 only if `len == 0`).
    pub fn new(len: usize) -> Self {
        VisitSet {
            words: vec![0; len.div_ceil(64)],
            len,
            unvisited: len,
            cover_round: (len == 0).then_some(0),
        }
    }

    /// Forgets every visit and starts a new cover epoch at `round` with
    /// the nodes in `occupied` visited (repeats allowed). The record is
    /// covered at `round` iff they are all of `0..len`.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range.
    pub fn reset(&mut self, occupied: impl IntoIterator<Item = usize>, round: u64) {
        self.words.fill(0);
        self.unvisited = self.len;
        self.cover_round = (self.len == 0).then_some(round);
        for v in occupied {
            self.arrive(v, round);
        }
    }

    /// Records an arrival at `v` in `round`: a first visit marks `v`, and
    /// the last one sets the cover round. A no-op once covered.
    ///
    /// # Panics
    ///
    /// Panics if `v >= len` while the record is not covered.
    #[inline]
    pub fn arrive(&mut self, v: usize, round: u64) {
        if self.unvisited > 0 {
            assert!(v < self.len, "index {v} out of range");
            let mask = 1u64 << (v % 64);
            if self.words[v / 64] & mask == 0 {
                self.first_visit(v / 64, mask, round);
            }
        }
    }

    /// The first-visit branch of [`arrive`](Self::arrive), kept out of
    /// line: inlined into the engines' round kernels it measurably slows
    /// the ring kernel.
    #[inline(never)]
    fn first_visit(&mut self, word: usize, mask: u64, round: u64) {
        self.words[word] |= mask;
        self.unvisited -= 1;
        if self.unvisited == 0 {
            self.cover_round = Some(round);
        }
    }

    /// Size of the universe (number of tracked nodes, not of visited ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty (`len == 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of visited nodes.
    pub fn count(&self) -> usize {
        self.len - self.unvisited
    }

    /// Whether `v` has been visited in this cover epoch.
    ///
    /// # Panics
    ///
    /// Panics if `v >= len`.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        assert!(v < self.len, "index {v} out of range");
        self.words[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// The round at which the last node was first visited, if every node
    /// has been (`Some(r)` right after a [`reset`](Self::reset) at `r` that
    /// occupies every node).
    pub fn cover_round(&self) -> Option<u64> {
        self.cover_round
    }

    /// The §2.2 domain/border structure of the set in the cyclic index
    /// space `0..len`, 64 nodes per step.
    ///
    /// Word `j` is compared with two shifted copies of itself: `prev`
    /// holds each node's anticlockwise neighbour (bit 63 of word `j − 1`
    /// carried in, node `len − 1` for word 0) and `next` its clockwise
    /// neighbour (bit 0 of word `j + 1` carried in, node 0 placed after
    /// node `len − 1` in the last word). A visited node without a visited
    /// `prev` starts a domain; one missing either neighbour is a border.
    /// A full set is one cyclic domain, as in
    /// [`scan_domain_stats`](crate::domains::scan_domain_stats), which
    /// this equals on every set. Debug builds also check the visited count
    /// against the popcount.
    pub fn domain_stats(&self) -> DomainStats {
        let w = &self.words;
        let Some(&last) = w.last() else {
            // The empty universe counts as fully covered.
            return DomainStats {
                domains: 1,
                borders: 0,
            };
        };
        let top = (self.len - 1) % 64;
        let node0 = w[0] & 1;
        let mut carry = (last >> top) & 1;
        let (mut domains, mut borders, mut visited) = (0u32, 0u32, 0usize);
        for (j, &x) in w.iter().enumerate() {
            let prev = (x << 1) | carry;
            let next = match w.get(j + 1) {
                Some(&y) => (x >> 1) | (y << 63),
                None => (x >> 1) | (node0 << top),
            };
            domains += (x & !prev).count_ones();
            borders += (x & !(prev & next)).count_ones();
            visited += x.count_ones() as usize;
            carry = x >> 63;
        }
        debug_assert_eq!(visited, self.count(), "visited count agrees with popcount");
        if domains == 0 && visited != 0 {
            domains = 1;
        }
        DomainStats { domains, borders }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::scan_domain_stats;
    use crate::rng::splitmix64;

    /// The visited count recomputed bit by bit.
    fn popcount(s: &VisitSet) -> usize {
        (0..s.len()).filter(|&v| s.contains(v)).count()
    }

    #[test]
    fn arrive_contains_count() {
        let mut s = VisitSet::new(130);
        assert_eq!(s.len(), 130);
        assert!(!s.is_empty());
        assert!(!s.contains(0));
        for v in [0, 0, 63, 64, 129] {
            s.arrive(v, 1);
        }
        assert!(s.contains(129));
        assert!(!s.contains(128));
        assert_eq!(s.count(), 4, "a repeat arrival is not a first visit");
        assert_eq!(popcount(&s), 4);
        assert_eq!(s.cover_round(), None);
    }

    /// Filling the universe sets the cover round exactly once.
    #[test]
    fn full_universe() {
        let mut s = VisitSet::new(64);
        for v in 0..63 {
            s.arrive(v, v as u64);
        }
        assert_eq!((s.count(), s.cover_round()), (63, None));
        s.arrive(63, 70);
        assert_eq!((s.count(), s.cover_round()), (64, Some(70)));
        let covered = s.clone();
        for (v, round) in [(0, 71), (63, 72), (17, 1000)] {
            s.arrive(v, round);
            assert_eq!(s, covered, "an arrival after cover changes nothing");
        }
    }

    #[test]
    fn reset_starts_a_new_epoch() {
        let mut s = VisitSet::new(65);
        s.reset(0..65, 9);
        assert_eq!(s.cover_round(), Some(9), "fully occupied: covered at once");
        s.reset([3, 3, 64], 12);
        assert_eq!((s.count(), s.cover_round()), (2, None));
        assert!(s.contains(3) && s.contains(64) && !s.contains(0));
        s.reset((0..65).rev().chain([0]), 40);
        assert_eq!((s.count(), s.cover_round()), (65, Some(40)));
    }

    #[test]
    fn empty_universe() {
        let mut s = VisitSet::new(0);
        assert!(s.is_empty());
        assert_eq!((s.count(), s.cover_round()), (0, Some(0)));
        s.reset([], 5);
        assert_eq!(s.cover_round(), Some(5));
        s.arrive(0, 6);
        assert_eq!(s.cover_round(), Some(5), "no-op once covered");
    }

    #[test]
    fn records_agree_with_the_scan_at_word_edges() {
        for len in [1usize, 63, 64, 65, 128] {
            let mut s = VisitSet::new(len);
            let mut h = splitmix64(len as u64);
            for round in 1.. {
                let (count, stats) = (s.count(), s.domain_stats());
                assert_eq!(count, popcount(&s), "len={len} round={round}");
                assert_eq!(stats, scan_domain_stats(&s), "len={len} round={round}");
                if s.cover_round().is_some() {
                    assert_eq!((stats.domains, stats.borders), (1, 0));
                    break;
                }
                h = splitmix64(h);
                s.arrive((h % len as u64) as usize, round);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        VisitSet::new(10).contains(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_arrival_panics() {
        VisitSet::new(10).arrive(12, 1);
    }
}
