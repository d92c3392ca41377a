//! The ring-specialised rotor-router engine.
//!
//! On the ring every node has degree 2, there is a single cyclic order of
//! the two ports ("there exists only one cyclic permutation of the two
//! neighbors of each node", §1.3), and a port pointer degenerates to a
//! *direction bit*: `0` = clockwise (toward `v+1 mod n`), `1` =
//! anticlockwise. A node sending `c` agents in one round sends `⌈c/2⌉` in
//! its pointer direction and `⌊c/2⌋` the other way, and flips its pointer
//! iff `c` is odd. The bits are packed 64 nodes per `u64` word.
//!
//! The engine maintains only the sorted occupied-node list, and a round is
//! one `O(k)` pass over it with no per-round sort. Node `v` sends its
//! shares to `v−1`, `v` (held agents, §2.1) and `v+1`, and every earlier
//! node's destinations are `≤ v`, so walking the list in ascending order
//! writes the next list already sorted: the held share merges with its
//! last entry or is appended, the clockwise share is appended, and an
//! anticlockwise share lands at most one entry behind the tail (the only
//! entry that can follow `v−1` is `v`, node `v−1`'s clockwise share). The
//! two shares that cross the `n−1 | 0` seam are applied after the pass, at
//! the two ends of the list.
//!
//! [`CoverProcess::advance`](crate::CoverProcess::advance) skips ahead
//! where that pass would only repeat itself. A lone agent keeps going the
//! way it goes until it reaches a node whose pointer points back: its
//! *straight run*, flipping each pointer it leaves. While every occupied
//! node holds one agent, all agents run straight for `Δ` rounds, with `Δ`
//! the largest count for which no agent reaches the end of its run, a
//! node another agent has left, or an oncoming agent's path. The skip
//! flips each run's bits and marks its arrivals in the [`VisitSet`] a word
//! at a time, so `Δ` rounds of `k` agents cost `O(k·(1 + Δ/64))` word
//! operations instead of `k·Δ` moves. `Δ` comes from one pass over the
//! sorted list, since the neighbours that bound an agent are adjacent
//! entries, and the pass stops at the first agent that holds `Δ` below 8.
//! A multi-agent node or `Δ < 8` steps the round instead, and a ring whose
//! horizons keep falling short (dense agents) is searched exponentially
//! less often, at most every 64 rounds, so there the search costs next to
//! nothing. §2.1 delays and a plain [`step`](crate::CoverProcess::step)
//! never skip. This matters for the `Θ(n²/log k)` worst-case cover sweeps
//! of experiment E1: a single agent's `n(n−1)/2`-round cover is `n`
//! skips.
//!
//! The occupied list is stored structure-of-arrays (split
//! `nodes: Vec<u32>` / `counts: Vec<u32>`), so the sorted-position checks
//! of a round only touch the node half.
//!
//! Per round the engine writes only what cover sweeps read: the pointer
//! bits, the occupied list and the visit record ([`VisitSet`]), whose
//! §2.2 domain/border counts are computed when a sampler asks. The §2.2
//! visit *types* (propagation or reflection of each visit) are not tracked
//! here; attach a [`VisitLog`](crate::domains::VisitLog) observer to
//! replay them.

use crate::bitset::{arc, span, wrap, VisitSet};
use crate::init::CW;
use std::ops::Range;

/// Snapshot of the mutable configuration of a [`RingRouter`]: direction
/// bits plus the sorted occupied-node list. Equal states have identical
/// futures.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct RingState {
    /// Ring size, which the packed directions do not fix.
    pub n: u32,
    /// Pointer directions packed 64 nodes per word: bit `v % 64` of word
    /// `v / 64` is node `v`'s (`0` = clockwise), and the bits past the
    /// last node are `0`.
    pub dirs: Vec<u64>,
    /// Sorted `(node, agent count)` pairs for occupied nodes.
    pub occupied: Vec<(u32, u32)>,
}

/// The multi-agent rotor-router on the `n`-node ring.
///
/// ```
/// use rotor_core::{init::PointerInit, placement::Placement, CoverProcess, RingRouter};
///
/// let n = 128;
/// let starts = Placement::EquallySpaced { offset: 0 }.positions(n, 8);
/// let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
/// let mut r = RingRouter::new(n, &starts, &dirs);
/// let cover = r.run_until_covered(1_000_000).expect("covers");
/// assert!(cover <= ((n / 8) * (n / 8) * 8) as u64); // O((n/k)²) regime
/// ```
#[derive(Clone, Debug)]
pub struct RingRouter {
    n: u32,
    k: u32,
    /// Pointer directions, packed as in [`RingState::dirs`].
    dirs: Vec<u64>,
    /// Occupied nodes, sorted ascending (SoA: node half).
    occ_nodes: Vec<u32>,
    /// Agent count per occupied node, `> 0`, parallel to `occ_nodes`.
    occ_counts: Vec<u32>,
    round: u64,
    visits: VisitSet,
    /// Scratch buffer for the next occupied list, reused between rounds.
    next_occ: SoaList,
    /// Rounds `advance` steps before it next looks for a straight-run
    /// horizon, and the wait it sets after the next miss: a ring whose
    /// horizons keep falling short is searched exponentially less often.
    skip_wait: u32,
    skip_backoff: u32,
}

/// A sorted occupied list under construction, split nodes/counts.
#[derive(Clone, Debug, Default)]
struct SoaList {
    nodes: Vec<u32>,
    counts: Vec<u32>,
}

impl SoaList {
    fn clear(&mut self) {
        self.nodes.clear();
        self.counts.clear();
    }

    /// Appends `v`, which must lie past the tail.
    #[inline]
    fn push(&mut self, v: u32, count: u32) {
        debug_assert!(
            self.nodes.last().is_none_or(|&t| t < v),
            "push past the tail"
        );
        self.nodes.push(v);
        self.counts.push(count);
    }

    /// Adds `count` agents at `v`, which is the tail or lies past it.
    #[inline]
    fn add_last(&mut self, v: u32, count: u32) {
        match self.nodes.last() {
            Some(&t) if t == v => *self.counts.last_mut().expect("non-empty") += count,
            _ => self.push(v, count),
        }
    }

    /// Adds `count` agents at `v`, which may lie one entry behind the
    /// tail: the only node that can follow it is `v + 1`.
    #[inline]
    fn add_behind(&mut self, v: u32, count: u32) {
        let len = self.nodes.len();
        if len == 0 || self.nodes[len - 1] <= v {
            self.add_last(v, count);
        } else if len > 1 && self.nodes[len - 2] == v {
            self.counts[len - 2] += count;
        } else {
            self.nodes.insert(len - 1, v);
            self.counts.insert(len - 1, count);
        }
    }

    /// Adds `count` agents at `v`, which is the head or lies before it.
    fn add_first(&mut self, v: u32, count: u32) {
        if self.nodes.first() == Some(&v) {
            self.counts[0] += count;
        } else {
            self.nodes.insert(0, v);
            self.counts.insert(0, count);
        }
    }
}

/// The smallest straight-run horizon worth a skip: a skip costs a few
/// stepped rounds, so on shorter ones `advance` steps.
const MIN_SKIP_HORIZON: u64 = 8;

/// The most rounds `advance` steps between two horizon searches.
const MAX_SKIP_WAIT: u32 = 64;

/// Node `v`'s direction bit in the packed `dirs`.
#[inline]
fn bit(dirs: &[u64], v: usize) -> u8 {
    ((dirs[v / 64] >> (v % 64)) & 1) as u8
}

/// Flips the bits of the unwrapped range `r` in the packed `dirs`.
fn flip(dirs: &mut [u64], r: Range<usize>) {
    if r.is_empty() {
        return;
    }
    let (first, last, head, tail) = span(&r);
    if first == last {
        dirs[first] ^= head & tail;
        return;
    }
    dirs[first] ^= head;
    for word in &mut dirs[first + 1..last] {
        *word = !*word;
    }
    dirs[last] ^= tail;
}

/// How many nodes from `from` on, stepping clockwise if `cw` and
/// anticlockwise otherwise, point that way, counting at most `cap`: the
/// length of the straight run of a lone agent leaving `from`. Whole words
/// are skipped at a time.
fn run_length(dirs: &[u64], n: usize, from: usize, cap: usize, cw: bool) -> usize {
    // Bits that point the run's way read as 0.
    let fill = if cw { 0 } else { !0u64 };
    let other = |w: usize, mask: u64| (dirs[w] ^ fill) & mask;
    let mut count = 0;
    if cw {
        for r in arc(n, from, cap).iter().filter(|r| !r.is_empty()) {
            let (first, last, head, tail) = span(r);
            let (mut w, mut x) = (
                first,
                other(first, if first == last { head & tail } else { head }),
            );
            if x == 0 && first < last {
                w += 1;
                while w < last && dirs[w] == fill {
                    w += 1;
                }
                x = other(w, if w == last { tail } else { !0 });
            }
            if x != 0 {
                return count + w * 64 + x.trailing_zeros() as usize - r.start;
            }
            count += r.len();
        }
    } else {
        for r in arc(n, wrap(from + n + 1 - cap, n), cap)
            .iter()
            .rev()
            .filter(|r| !r.is_empty())
        {
            let (first, last, head, tail) = span(r);
            let (mut w, mut x) = (
                last,
                other(last, if first == last { head & tail } else { tail }),
            );
            if x == 0 && first < last {
                w -= 1;
                while w > first && dirs[w] == fill {
                    w -= 1;
                }
                x = other(w, if w == first { head } else { !0 });
            }
            if x != 0 {
                return count + r.end - 1 - (w * 64 + 63 - x.leading_zeros() as usize);
            }
            count += r.len();
        }
    }
    cap
}

impl RingRouter {
    /// Creates a router with agents at `starts` (a multiset of node
    /// indices) and initial pointer directions `dirs` (`0` = clockwise).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`, `starts` is empty, `dirs.len() != n`, a start is
    /// out of range, or a direction is not 0/1.
    pub fn new(n: usize, starts: &[u32], dirs: &[u8]) -> Self {
        assert!(n >= 3, "ring router needs n >= 3");
        assert!(!starts.is_empty(), "need at least one agent");
        assert_eq!(dirs.len(), n, "direction vector length mismatch");
        assert!(dirs.iter().all(|&d| d <= 1), "directions must be 0 or 1");
        let n32 = n as u32;
        let mut count = vec![0u32; n];
        for &s in starts {
            assert!(s < n32, "start position out of range");
            count[s as usize] += 1;
        }
        // Enumerating 0..n yields the occupied list already sorted.
        let mut occ_nodes = Vec::new();
        let mut occ_counts = Vec::new();
        for (v, &c) in count.iter().enumerate() {
            if c > 0 {
                occ_nodes.push(v as u32);
                occ_counts.push(c);
            }
        }
        let mut words = vec![0u64; n.div_ceil(64)];
        for (v, &d) in dirs.iter().enumerate() {
            words[v / 64] |= u64::from(d) << (v % 64);
        }
        let mut visits = VisitSet::new(n);
        visits.reset(occ_nodes.iter().map(|&v| v as usize), 0);
        RingRouter {
            n: n32,
            k: starts.len() as u32,
            dirs: words,
            occ_nodes,
            occ_counts,
            round: 0,
            visits,
            next_occ: SoaList::default(),
            skip_wait: 0,
            skip_backoff: 0,
        }
    }

    /// Ring size `n`.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of agents `k`.
    pub fn agent_count(&self) -> u32 {
        self.k
    }

    /// Current pointer direction at `v` (`0` = clockwise).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn direction(&self, v: u32) -> u8 {
        assert!(v < self.n, "node {v} out of range");
        bit(&self.dirs, v as usize)
    }

    /// Agents currently at `v`.
    pub fn agents_at(&self, v: u32) -> u32 {
        match self.occ_nodes.binary_search(&v) {
            Ok(i) => self.occ_counts[i],
            Err(_) => 0,
        }
    }

    /// Sorted `(node, count)` pairs of occupied nodes, materialised from
    /// the SoA halves (convenience; the hot paths use
    /// [`occupied_nodes`](Self::occupied_nodes) /
    /// [`occupied_counts`](Self::occupied_counts) directly).
    pub fn occupied(&self) -> Vec<(u32, u32)> {
        self.occ_nodes
            .iter()
            .copied()
            .zip(self.occ_counts.iter().copied())
            .collect()
    }

    /// Occupied nodes, sorted ascending.
    pub fn occupied_nodes(&self) -> &[u32] {
        &self.occ_nodes
    }

    /// Agent counts parallel to [`occupied_nodes`](Self::occupied_nodes),
    /// all `> 0`.
    pub fn occupied_counts(&self) -> &[u32] {
        &self.occ_counts
    }

    /// Snapshot of the mutable configuration.
    pub fn state(&self) -> RingState {
        let mut state = RingState {
            n: self.n,
            dirs: Vec::new(),
            occupied: Vec::with_capacity(self.occ_nodes.len()),
        };
        crate::limit::ConfigSnapshot::config_into(self, &mut state);
        state
    }

    /// Clockwise neighbour of `v`.
    #[inline]
    pub fn cw(&self, v: u32) -> u32 {
        let u = v + 1;
        if u == self.n {
            0
        } else {
            u
        }
    }

    /// Anticlockwise neighbour of `v`.
    #[inline]
    pub fn acw(&self, v: u32) -> u32 {
        if v == 0 {
            self.n - 1
        } else {
            v - 1
        }
    }

    /// Advances one round of a *delayed deployment* (§2.1): `delay(v, c)`
    /// is `D(v, t)` — how many of the `c` agents at node `v` stay put this
    /// round (clamped to `c`). Held agents neither move nor flip pointers,
    /// and staying put does not count as a visit. `delay` is called once
    /// per occupied node, in ascending node order, with the node's
    /// pre-round count, so stateful schedules see a fixed call sequence.
    pub fn step_delayed(&mut self, mut delay: impl FnMut(u32, u32) -> u32) {
        self.round += 1;
        let round = self.round;
        let mut next = std::mem::take(&mut self.next_occ);
        next.clear();
        let last = self.n - 1;
        // The two shares that cross the `n−1 | 0` seam, applied after the
        // pass: node 0's anticlockwise share and node `n−1`'s clockwise one.
        let (mut to_last, mut to_first) = (0, 0);
        // One ascending pass writing the next list in sorted order (see the
        // module docs for why each share lands where it does).
        for i in 0..self.occ_nodes.len() {
            let v = self.occ_nodes[i];
            let c = self.occ_counts[i];
            let word = &mut self.dirs[v as usize / 64];
            let d = ((*word >> (v % 64)) & 1) as u8;
            let held = delay(v, c).min(c);
            let moving = c - held;
            *word ^= u64::from(moving & 1) << (v % 64);
            let (with_ptr, against) = (moving.div_ceil(2), moving / 2);
            let (cw_cnt, acw_cnt) = if d == CW {
                (with_ptr, against)
            } else {
                (against, with_ptr)
            };
            if acw_cnt > 0 {
                if v == 0 {
                    to_last = acw_cnt;
                } else {
                    next.add_behind(v - 1, acw_cnt);
                    self.visits.arrive(v as usize - 1, round);
                }
            }
            // Held agents do not revisit; only arrivals can be first visits.
            if held > 0 {
                next.add_last(v, held);
            }
            if cw_cnt > 0 {
                if v == last {
                    to_first = cw_cnt;
                } else {
                    next.push(v + 1, cw_cnt);
                    self.visits.arrive(v as usize + 1, round);
                }
            }
        }
        if to_last > 0 {
            next.add_last(last, to_last);
            self.visits.arrive(last as usize, round);
        }
        if to_first > 0 {
            next.add_first(0, to_first);
            self.visits.arrive(0, round);
        }
        std::mem::swap(&mut self.occ_nodes, &mut next.nodes);
        std::mem::swap(&mut self.occ_counts, &mut next.counts);
        self.next_occ = next;
        debug_assert!(self.occ_nodes.windows(2).all(|w| w[0] < w[1]), "occ sorted");
        debug_assert_eq!(
            self.occ_counts.iter().sum::<u32>(),
            self.k,
            "agents conserved"
        );
    }

    /// The straight-run horizon of the current configuration: the
    /// largest `Δ` for which every agent may run straight for `Δ` rounds,
    /// or some number below [`MIN_SKIP_HORIZON`] (it stops looking once
    /// the answer is that small). Each agent is bounded by its own run and
    /// its two neighbours in the sorted list ([`straight_bound`]).
    ///
    /// [`straight_bound`]: Self::straight_bound
    fn straight_horizon(&self) -> u64 {
        let nodes = &self.occ_nodes;
        let points_cw = |i: usize| bit(&self.dirs, nodes[i] as usize) == CW;
        // The entry before the first is the last one, across the seam.
        let mut prev_cw = nodes.len() > 1 && points_cw(nodes.len() - 1);
        let mut horizon = u64::MAX;
        for i in 0..nodes.len() {
            let cw = points_cw(i);
            horizon = horizon.min(self.straight_bound(i, cw, prev_cw));
            if horizon < MIN_SKIP_HORIZON {
                break;
            }
            prev_cw = cw;
        }
        horizon
    }

    /// How far occupied entry `i` (pointing clockwise if `cw`, the entry
    /// before it clockwise if `prev_cw`) lets every agent run straight:
    /// `0` if it holds more than one agent, else its run, counted at most
    /// to the next agent its way (past that node a receding agent has
    /// flipped the pointers, or an oncoming one's path begins) and, if it
    /// and the entry behind it, `g` nodes apart, move toward each other,
    /// at most `(g − 1)/2` (so that their paths stay apart).
    fn straight_bound(&self, i: usize, cw: bool, prev_cw: bool) -> u64 {
        if self.occ_counts[i] > 1 {
            return 0;
        }
        let n = self.n as usize;
        let nodes = &self.occ_nodes;
        let v = nodes[i] as usize;
        let (before, after) = match (i.checked_sub(1), nodes.get(i + 1)) {
            (Some(b), Some(&a)) => (nodes[b] as usize, a as usize),
            (Some(b), None) => (nodes[b] as usize, nodes[0] as usize + n),
            (None, Some(&a)) => (nodes[nodes.len() - 1] as usize, a as usize),
            (None, None) => (v, v + n),
        };
        let behind = wrap(v + n - before - 1, n) + 1;
        let cap = match (cw, prev_cw) {
            (true, _) => after - v,
            (false, true) => (behind - 1) / 2,
            (false, false) => behind,
        };
        if cap < MIN_SKIP_HORIZON as usize {
            return cap as u64;
        }
        run_length(&self.dirs, n, v, cap, cw) as u64
    }

    /// Advances every agent `delta` rounds along its straight run, or to
    /// the cover round if that falls first: flips the bits each run
    /// leaves, marks its arrivals and moves the agent. `delta` must be at
    /// most the [`straight_horizon`](Self::straight_horizon), so every
    /// occupied node holds one agent.
    fn run_straight(&mut self, delta: u64) {
        debug_assert!(self.occ_counts.iter().all(|&c| c == 1), "lone agents");
        let n = self.n as usize;
        let round = self.round;
        let dirs = &self.dirs;
        let runs = self
            .occ_nodes
            .iter()
            .map(|&v| (v as usize, bit(dirs, v as usize) == CW));
        let len = match self.visits.arrive_runs(round, delta as usize, runs) {
            Some(cover) => cover - round,
            None => delta,
        } as usize;
        // Cyclic order is kept, so the list stays sorted up to a rotation
        // at the one entry that crossed the seam, if any did.
        let mut seam = 0;
        for i in 0..self.occ_nodes.len() {
            let v = self.occ_nodes[i] as usize;
            let (left, to) = if bit(&self.dirs, v) == CW {
                (v, wrap(v + len, n))
            } else {
                (wrap(v + n + 1 - len, n), wrap(v + n - len, n))
            };
            for r in arc(n, left, len) {
                flip(&mut self.dirs, r);
            }
            self.occ_nodes[i] = to as u32;
            if i > 0 && self.occ_nodes[i] < self.occ_nodes[i - 1] {
                seam = i;
            }
        }
        self.occ_nodes.rotate_left(seam);
        self.round = round + len as u64;
        debug_assert!(self.occ_nodes.windows(2).all(|w| w[0] < w[1]), "occ sorted");
    }
}

/// Whether the SoA occupied halves `nodes`/`counts` spell out exactly the
/// `(node, count)` pairs of a [`RingState`] snapshot.
fn occupied_eq(nodes: &[u32], counts: &[u32], pairs: &[(u32, u32)]) -> bool {
    pairs.len() == nodes.len()
        && pairs
            .iter()
            .zip(nodes.iter().zip(counts))
            .all(|(&(v, c), (&w, &d))| v == w && c == d)
}

/// Occupancy first: the `O(k)` occupied list settles most mismatches
/// before the `n/64` direction words are read.
impl crate::limit::ConfigSnapshot for RingRouter {
    type Config = RingState;

    fn config_into(&self, out: &mut RingState) {
        out.n = self.n;
        out.dirs.clone_from(&self.dirs);
        out.occupied.clear();
        out.occupied.extend(
            self.occ_nodes
                .iter()
                .copied()
                .zip(self.occ_counts.iter().copied()),
        );
    }

    fn config_eq(&self, c: &RingState) -> bool {
        occupied_eq(&self.occ_nodes, &self.occ_counts, &c.occupied)
            && c.n == self.n
            && c.dirs == self.dirs
    }

    fn same_config(&self, other: &Self) -> bool {
        self.n == other.n
            && self.occ_nodes == other.occ_nodes
            && self.occ_counts == other.occ_counts
            && self.dirs == other.dirs
    }
}

impl crate::CoverProcess for RingRouter {
    fn kind_name(&self) -> &'static str {
        "rotor_ring"
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn step(&mut self) {
        self.step_delayed(|_, _| 0);
    }

    /// Runs straight for the whole horizon `Δ` when `Δ ≥ 8`, and steps
    /// otherwise (see the module docs).
    fn advance(&mut self, until: u64) -> u64 {
        while self.visits.cover_round().is_none() && self.round < until {
            if self.skip_wait > 0 {
                self.skip_wait -= 1;
            } else if until - self.round >= MIN_SKIP_HORIZON {
                let horizon = self.straight_horizon();
                if horizon >= MIN_SKIP_HORIZON {
                    self.skip_backoff = 0;
                    self.run_straight(horizon.min(until - self.round));
                    continue;
                }
                self.skip_backoff = (2 * self.skip_backoff).clamp(1, MAX_SKIP_WAIT);
                self.skip_wait = self.skip_backoff;
            }
            self.step();
        }
        self.round
    }

    fn visits(&self) -> &VisitSet {
        &self.visits
    }
}

impl crate::faults::Perturb for RingRouter {
    /// Each draw picks a node and a fresh direction bit from the chained
    /// `seed` stream; draws may repeat a node.
    fn corrupt_pointers(&mut self, seed: u64, count: u32) -> u32 {
        let mut s = seed;
        let mut changed = 0;
        for _ in 0..count {
            s = crate::rng::splitmix64(s);
            let v = (s % u64::from(self.n)) as usize;
            let new_dir = ((s >> 32) & 1) as u8;
            if bit(&self.dirs, v) != new_dir {
                self.dirs[v / 64] ^= 1 << (v % 64);
                changed += 1;
            }
        }
        changed
    }

    /// Each draw removes one agent from a seed-chosen occupied node.
    fn remove_agents(&mut self, seed: u64, count: u32) -> u32 {
        let mut s = seed;
        let mut removed = 0;
        for _ in 0..count {
            if self.k <= 1 {
                break;
            }
            s = crate::rng::splitmix64(s);
            let i = (s % self.occ_nodes.len() as u64) as usize;
            self.occ_counts[i] -= 1;
            if self.occ_counts[i] == 0 {
                self.occ_nodes.remove(i);
                self.occ_counts.remove(i);
            }
            self.k -= 1;
            removed += 1;
        }
        removed
    }

    fn reset_cover_epoch(&mut self) {
        let occupied = self.occ_nodes.iter().map(|&v| v as usize);
        self.visits.reset(occupied, self.round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::VisitLog;
    use crate::init::{PointerInit, ACW};
    use crate::placement::Placement;
    use crate::process::Observer;
    use crate::CoverProcess;

    /// Steps `r` once with `log` attached (the log must already have seen
    /// the pre-round configuration).
    fn step_logged(r: &mut RingRouter, log: &mut VisitLog) {
        r.step();
        log.observe(r);
    }

    fn cw_dirs(n: usize) -> Vec<u8> {
        vec![CW; n]
    }

    #[test]
    fn single_agent_first_lap() {
        let mut r = RingRouter::new(5, &[0], &cw_dirs(5));
        for t in 1..=5u64 {
            r.step();
            assert_eq!(r.occupied(), &[((t % 5) as u32, 1)]);
        }
        r.step(); // reflected at 0
        assert_eq!(r.occupied(), &[(4, 1)]);
    }

    #[test]
    fn two_agents_on_one_node_split() {
        let mut r = RingRouter::new(6, &[0, 0], &cw_dirs(6));
        r.step();
        assert_eq!(r.occupied(), &[(1, 1), (5, 1)]);
        assert_eq!(r.direction(0), CW, "even count leaves pointer unchanged");
    }

    #[test]
    fn odd_count_flips_pointer() {
        let mut r = RingRouter::new(6, &[0, 0, 0], &cw_dirs(6));
        r.step();
        // 2 clockwise (ports cw, cw after full cycle), 1 anticlockwise
        assert_eq!(r.occupied(), &[(1, 2), (5, 1)]);
        assert_eq!(r.direction(0), ACW);
    }

    #[test]
    fn head_on_swap_preserves_counts() {
        // agents at 0 moving cw and at 2 moving acw meet edge {1,2}? Set up
        // a clean swap: agents at 1 (cw) and 2 (acw) traverse edge {1,2} in
        // opposite directions in the same round.
        let mut dirs = cw_dirs(6);
        dirs[2] = ACW;
        let mut r = RingRouter::new(6, &[1, 2], &dirs);
        r.step();
        assert_eq!(
            r.occupied(),
            &[(1, 1), (2, 1)],
            "swap keeps both nodes occupied"
        );
    }

    #[test]
    fn visit_record_propagation_vs_reflection() {
        // Node 2's pointer clockwise: an agent arriving from 1 (moving cw)
        // will continue to 3 -> propagation.
        let mut r = RingRouter::new(6, &[1], &cw_dirs(6));
        let mut log = VisitLog::new();
        log.observe(&r);
        step_logged(&mut r, &mut log);
        let rec = log.last_visit(2).unwrap();
        assert_eq!(rec.round, 1);
        assert_eq!(rec.multiplicity, 1);
        assert_eq!(rec.entry_dir, CW);
        assert!(rec.propagation);

        // Node 2's pointer anticlockwise: agent arriving from 1 is sent
        // back -> reflection.
        let mut dirs = cw_dirs(6);
        dirs[2] = ACW;
        let mut r = RingRouter::new(6, &[1], &dirs);
        let mut log = VisitLog::new();
        log.observe(&r);
        step_logged(&mut r, &mut log);
        let rec = log.last_visit(2).unwrap();
        assert!(!rec.propagation);
        step_logged(&mut r, &mut log);
        assert_eq!(r.occupied(), &[(1, 1)], "reflected back to 1");
        let back = log.last_visit(1).unwrap();
        assert_eq!((back.round, back.entry_dir), (2, ACW));
    }

    #[test]
    fn double_visit_is_never_propagation() {
        // two agents converge on node 2 in the same round
        let mut dirs = cw_dirs(5);
        dirs[3] = ACW;
        let mut r = RingRouter::new(5, &[1, 3], &dirs);
        let mut log = VisitLog::new();
        log.observe(&r);
        step_logged(&mut r, &mut log);
        let rec = log.last_visit(2).unwrap();
        assert_eq!(rec.multiplicity, 2);
        assert_eq!(rec.entry_dir, CW, "a clockwise arrival sets the side");
        assert!(!rec.propagation);
    }

    #[test]
    fn lemma5_at_most_two_agents_per_node_is_preserved() {
        // start with <= 2 agents per node; property must hold forever
        let n = 32;
        let starts = [0, 0, 5, 9, 9, 20];
        let dirs = PointerInit::Random(5).ring_directions(n, &starts);
        let mut r = RingRouter::new(n, &starts, &dirs);
        for _ in 0..2000 {
            r.step();
            assert!(
                r.occupied().iter().all(|&(_, c)| c <= 2),
                "Lemma 5 violated"
            );
        }
    }

    #[test]
    fn matches_general_engine_on_ring() {
        use crate::engine::Engine;
        use rotor_graph::{builders, NodeId};
        let n = 17;
        let g = builders::ring(n);
        let starts_u: Vec<u32> = vec![0, 0, 4, 11];
        let starts: Vec<NodeId> = starts_u.iter().map(|&s| NodeId::new(s)).collect();
        for seed in 0..3u64 {
            let dirs = PointerInit::Random(seed).ring_directions(n, &starts_u);
            let ptrs: Vec<u32> = dirs.iter().map(|&d| u32::from(d)).collect();
            let mut fast = RingRouter::new(n, &starts_u, &dirs);
            let mut reference = Engine::with_pointers(&g, &starts, ptrs);
            for t in 1..=500u64 {
                fast.step();
                reference.step();
                for v in 0..n as u32 {
                    assert_eq!(
                        fast.agents_at(v),
                        reference.agents_at(NodeId::new(v)),
                        "agent mismatch at node {v}, round {t}, seed {seed}"
                    );
                    assert_eq!(
                        u32::from(fast.direction(v)),
                        reference.pointer(NodeId::new(v)),
                        "pointer mismatch at node {v}, round {t}, seed {seed}"
                    );
                    assert_eq!(
                        fast.visits().contains(v as usize),
                        reference.visits().contains(v as usize),
                        "visited-set mismatch at node {v}, round {t}, seed {seed}"
                    );
                }
                assert_eq!(fast.cover_round(), reference.cover_round());
            }
        }
    }

    #[test]
    fn cover_time_single_agent_quadratic_band() {
        let n = 64u32;
        let starts = [0u32];
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n as usize, &starts);
        let mut r = RingRouter::new(n as usize, &starts, &dirs);
        let c = r.run_until_covered(10_000_000).unwrap();
        // negative init forces the full zig-zag: cover time ~ n²
        assert!(c >= u64::from(n * n) / 4, "cover {c}");
        assert!(c <= u64::from(4 * n * n), "cover {c}");
    }

    #[test]
    fn equally_spaced_cover_much_faster() {
        let n = 256;
        let k = 16;
        let starts = Placement::EquallySpaced { offset: 0 }.positions(n, k);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let mut r = RingRouter::new(n, &starts, &dirs);
        let c = r.run_until_covered(10_000_000).unwrap();
        let per_domain = (n / k) as u64;
        assert!(c <= 8 * per_domain * per_domain, "cover {c} not O((n/k)²)");
    }

    #[test]
    fn delayed_hold_everything_freezes_state() {
        let starts = [3u32, 7];
        let dirs = cw_dirs(12);
        let mut r = RingRouter::new(12, &starts, &dirs);
        let before = r.state();
        r.step_delayed(|_, c| c);
        assert_eq!(r.state(), before);
        assert_eq!(r.round(), 1, "round still advances");
    }

    #[test]
    fn delayed_partial_release() {
        let mut r = RingRouter::new(8, &[2, 2], &cw_dirs(8));
        r.step_delayed(|v, _| u32::from(v == 2)); // hold one of two
        assert_eq!(r.agents_at(2), 1);
        assert_eq!(r.agents_at(3), 1);
        assert_eq!(r.direction(2), ACW, "one mover flips the pointer");
    }

    #[test]
    fn delay_sees_each_occupied_node_once_in_ascending_order() {
        // §2.1 schedules may be stateful: each round must call `delay`
        // once per occupied node, ascending, with its pre-round count.
        let n = 16;
        let starts = [0u32, 0, 0, 3, 7, 7, 8, 15, 15];
        let dirs = PointerInit::Random(3).ring_directions(n, &starts);
        let mut r = RingRouter::new(n, &starts, &dirs);
        for t in 0..200u32 {
            let before = r.occupied();
            let mut calls = Vec::new();
            r.step_delayed(|v, c| {
                calls.push((v, c));
                (v + t) % (c + 1)
            });
            assert_eq!(calls, before, "round {}", t + 1);
        }
    }

    #[test]
    fn visits_initial_placement_counts() {
        let r = RingRouter::new(6, &[1, 1, 4], &cw_dirs(6));
        let mut log = VisitLog::new();
        log.observe(&r);
        let rec = log.last_visit(1).unwrap();
        assert_eq!(
            (rec.round, rec.multiplicity, rec.propagation),
            (0, 2, false)
        );
        assert_eq!(log.last_visit(4).unwrap().multiplicity, 1);
        assert!(log.last_visit(0).is_none());
        let visits = r.visits();
        assert!(visits.contains(1) && visits.contains(4) && !visits.contains(0));
    }

    #[test]
    fn state_equality_detects_periodicity_small_case() {
        // single agent on a 3-ring has a small configuration space; verify
        // the sequence of states eventually repeats
        let mut r = RingRouter::new(3, &[0], &cw_dirs(3));
        let mut states = vec![r.state()];
        let mut period = None;
        for _ in 0..200 {
            r.step();
            let s = r.state();
            if let Some(pos) = states.iter().position(|x| *x == s) {
                period = Some(states.len() - pos);
                break;
            }
            states.push(s);
        }
        let p = period.expect("must be eventually periodic");
        // single agent in the limit traverses the Eulerian circuit of
        // length 2|E| = 6; period must divide a multiple of it
        assert_eq!(p % 6, 0, "period {p} not a multiple of 2|E|");
    }

    #[test]
    #[should_panic(expected = "n >= 3")]
    fn too_small_ring_panics() {
        RingRouter::new(2, &[0], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_start_panics() {
        RingRouter::new(5, &[9], &[0; 5]);
    }

    #[test]
    #[should_panic(expected = "0 or 1")]
    fn bad_direction_panics() {
        RingRouter::new(5, &[0], &[0, 0, 2, 0, 0]);
    }
}
