//! The visit record every exploration process keeps: which nodes have
//! been visited, how many are left, and the round the last one fell.
//!
//! [`VisitSet`] is the one place in the workspace that does first-visit
//! bookkeeping. The [`RingRouter`](crate::RingRouter), the
//! [`Engine`](crate::Engine) and the random walks each own one, call
//! [`arrive`](VisitSet::arrive) for every arrival of a round (the ring
//! marks the straight runs of a skip a word at a time instead) and
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
use std::ops::Range;

/// The visited nodes `0..len` of a process, with its unvisited count and
/// cover round.
#[derive(PartialEq, Eq, Hash, Debug)]
pub struct VisitSet {
    words: Vec<u64>,
    len: usize,
    unvisited: usize,
    cover_round: Option<u64>,
}

/// `clone_from` reuses the words' buffer.
impl Clone for VisitSet {
    fn clone(&self) -> Self {
        VisitSet {
            words: self.words.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        (self.len, self.unvisited, self.cover_round) =
            (source.len, source.unvisited, source.cover_round);
    }
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

    /// Records `len` rounds of straight runs on the cyclic universe
    /// `0..self.len()`, one run per `(from, cw)` item: an agent that
    /// leaves `from` in round `round + 1` and keeps going clockwise (`cw`,
    /// toward `from + 1`) or anticlockwise arrives at `from ± j` in round
    /// `round + j`, for `j` in `1..=len`. The runs are marked a word at a
    /// time. If they visit the last unvisited node, the cover round is
    /// the last round in which any run made a first visit; it is set and
    /// returned, and the arrivals after it change nothing. Does nothing
    /// once covered.
    ///
    /// Two runs may share a node only where it is already visited, as
    /// when one agent ends on the node another agent started from.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the universe or a run starts out of range.
    pub(crate) fn arrive_runs(
        &mut self,
        round: u64,
        len: usize,
        runs: impl IntoIterator<Item = (usize, bool)>,
    ) -> Option<u64> {
        if self.unvisited == 0 {
            return None;
        }
        let n = self.len;
        assert!(len <= n, "a run of {len} rounds laps a universe of {n}");
        let mut farthest = 0;
        for (from, cw) in runs {
            assert!(from < n, "index {from} out of range");
            let start = if cw {
                wrap(from + 1, n)
            } else {
                wrap(from + n - len, n)
            };
            for r in arc(n, start, len).iter().filter(|r| !r.is_empty()) {
                let (first, last, head, tail) = span(r);
                if first == last {
                    farthest = farthest.max(self.arrive_word(first, head & tail, from, cw));
                    continue;
                }
                farthest = farthest.max(self.arrive_word(first, head, from, cw));
                let mut w = first + 1;
                while w < last {
                    if self.words[w] != !0 {
                        farthest = farthest.max(self.arrive_word(w, !0, from, cw));
                    }
                    w += 1;
                }
                farthest = farthest.max(self.arrive_word(last, tail, from, cw));
            }
        }
        if self.unvisited > 0 {
            return None;
        }
        self.cover_round = Some(round + farthest as u64);
        self.cover_round
    }

    /// The arrivals `mask` of one run in word `w`: how many steps from
    /// `from` its farthest first visit lies, or `0`.
    #[inline]
    fn arrive_word(&mut self, w: usize, mask: u64, from: usize, cw: bool) -> usize {
        let new = mask & !self.words[w];
        if new == 0 {
            return 0;
        }
        self.first_visits(w, new, from, cw)
    }

    /// The first-visit branch of [`arrive_runs`](Self::arrive_runs), out
    /// of line like [`first_visit`](Self::first_visit): marks `new` in
    /// word `w` and returns how many steps from `from` the farthest of
    /// them lies in the run's direction (`new` lies in one unwrapped
    /// segment of the run, so that is its top bit clockwise and its
    /// bottom bit anticlockwise).
    #[inline(never)]
    fn first_visits(&mut self, w: usize, new: u64, from: usize, cw: bool) -> usize {
        self.words[w] |= new;
        self.unvisited -= new.count_ones() as usize;
        let n = self.len;
        if cw {
            let v = w * 64 + 63 - new.leading_zeros() as usize;
            wrap(v + n - from, n)
        } else {
            let v = w * 64 + new.trailing_zeros() as usize;
            wrap(from + n - v, n)
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

/// `x mod n` for `x < 2n`, without a division.
#[inline]
pub(crate) fn wrap(x: usize, n: usize) -> usize {
    if x >= n {
        x - n
    } else {
        x
    }
}

/// The cyclic arc `start, start + 1, …` of `len` nodes in `0..n` as its
/// unwrapped ranges, in arc order: the second is empty unless the arc
/// passes node `n − 1`.
pub(crate) fn arc(n: usize, start: usize, len: usize) -> [Range<usize>; 2] {
    debug_assert!(start < n && len <= n, "arc within the universe");
    let first = len.min(n - start);
    [start..start + first, 0..len - first]
}

/// The words holding the non-empty bit range `r`, 64 bits per word: the
/// first and last index and the masks of `r`'s bits in each (the words
/// between are whole; with one word, its mask is `head & tail`).
#[inline]
pub(crate) fn span(r: &Range<usize>) -> (usize, usize, u64, u64) {
    let last = r.end - 1;
    (
        r.start / 64,
        last / 64,
        !0u64 << (r.start % 64),
        !0u64 >> (63 - last % 64),
    )
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

    /// Runs marked a word at a time agree with arrivals one by one, and
    /// the cover round is the last first visit of any run. Three agents
    /// run the same way, each at most to where the next one started.
    #[test]
    fn runs_match_single_arrivals_across_words_and_the_seam() {
        let mut covers = 0;
        for len in [3usize, 63, 64, 65, 129, 192, 200] {
            let gap = len / 3;
            let mut h = splitmix64(len as u64);
            for trial in 0..40 {
                h = splitmix64(h);
                let offset = (h % len as u64) as usize;
                let cw = trial % 2 == 0;
                let starts: Vec<usize> = (0..3).map(|i| (offset + i * gap) % len).collect();
                let (mut runs, mut single) = (VisitSet::new(len), VisitSet::new(len));
                runs.reset(starts.iter().copied(), 10);
                single.reset(starts.iter().copied(), 10);
                // Every fourth trial runs the whole gap, which covers
                // when three gaps make the ring.
                let steps = if trial % 4 == 1 {
                    gap
                } else {
                    1 + (h >> 32) as usize % gap
                };
                let covered_before = runs.cover_round().is_some();
                let cover = runs.arrive_runs(10, steps, starts.iter().map(|&v| (v, cw)));
                for j in 1..=steps {
                    for &v in &starts {
                        let u = if cw {
                            (v + j) % len
                        } else {
                            (v + len - j) % len
                        };
                        single.arrive(u, 10 + j as u64);
                    }
                }
                assert_eq!(runs, single, "len={len} steps={steps} cw={cw}");
                let fell = single.cover_round().filter(|_| !covered_before);
                assert_eq!(cover, fell, "len={len} steps={steps}");
                covers += usize::from(cover.is_some());
            }
        }
        assert!(covers >= 30, "runs that cover: {covers}");
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
