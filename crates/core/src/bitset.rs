//! A fixed-capacity `u64`-word bitset for visited-node tracking.
//!
//! Both engines track "has node `v` ever been visited" for every node. A
//! `Vec<bool>` spends a byte per node and a cache line per 64 nodes; the
//! bitset packs 64 nodes per word, so the covered/uncovered state of even a
//! million-node ring stays in L2 during the hot loop. The engines maintain
//! their unvisited counters incrementally on [`VisitSet::insert`] and can
//! re-derive them from [`VisitSet::count_ones`] (a word-wise popcount),
//! which the debug build asserts after every round. The §2.2
//! domain/border counts come from one word-wise pass as well
//! ([`VisitSet::domain_stats`]).

use crate::domains::DomainStats;

/// A set of node indices `0..len`, packed 64 per `u64` word.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct VisitSet {
    words: Vec<u64>,
    len: usize,
}

impl VisitSet {
    /// The empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        VisitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Size of the universe (number of tracked indices, not of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty (`len == 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `i` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of range");
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Inserts `i`; returns `true` iff it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of range");
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Number of set bits (word-wise popcount).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
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
    /// this equals on every set.
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
        let (mut domains, mut borders, mut any) = (0u32, 0u32, 0u64);
        for (j, &x) in w.iter().enumerate() {
            let prev = (x << 1) | carry;
            let next = match w.get(j + 1) {
                Some(&y) => (x >> 1) | (y << 63),
                None => (x >> 1) | (node0 << top),
            };
            domains += (x & !prev).count_ones();
            borders += (x & !(prev & next)).count_ones();
            any |= x;
            carry = x >> 63;
        }
        if domains == 0 && any != 0 {
            domains = 1;
        }
        DomainStats { domains, borders }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut s = VisitSet::new(130);
        assert_eq!(s.len(), 130);
        assert!(!s.is_empty());
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0), "second insert is not fresh");
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(s.contains(129));
        assert!(!s.contains(128));
        assert_eq!(s.count_ones(), 4);
    }

    #[test]
    fn full_universe() {
        let mut s = VisitSet::new(64);
        for i in 0..64 {
            assert!(s.insert(i));
        }
        assert_eq!(s.count_ones(), 64);
    }

    #[test]
    fn empty_universe() {
        let s = VisitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        VisitSet::new(10).contains(10);
    }
}
