//! The segmented-parallel ring engine: [`RingRouter`] semantics, cut into
//! `P` contiguous segments that advance independently and exchange only
//! their two boundary agent streams at a per-round barrier.
//!
//! ## Why segments
//!
//! `rotor_sweep::run_sharded` parallelises *across* cells, so one
//! worst-case `Θ(n²/log k)` cell at large `n` is still a single-core job.
//! [`SegmentedRing`] parallelises *inside* one instance: segment `s` owns
//! the contiguous node range `[s·n/P, (s+1)·n/P)` — its direction bits, its
//! slice of the sorted occupied list, its visited bits — and runs the SoA
//! three-way branchless merge of [`RingRouter`] locally each round. The
//! only cross-segment traffic is the clockwise stream leaving the last
//! node of a segment and the anticlockwise stream leaving its first node
//! (at most one `(node, count)` pair each per round per boundary), swapped
//! with the cyclic neighbours at the barrier between the departure and
//! merge phases.
//!
//! ## Determinism contract
//!
//! The segment count `P` is a pure *partition parameter*: every
//! deterministic output — covers, occupied configurations, pointer bits,
//! §2.2 domain/border stats, Brent `(μ, λ)` — is bit-identical to
//! [`RingRouter`] for every `(n, k, placement, init, delay-schedule)` at
//! every `P`, and independent of how many worker threads execute the
//! segments. Property tests in `tests/segring_equivalence.rs` pin this
//! across `P ∈ {1, 2, 3, 4, 7}`. `P = 1` falls back to the serial
//! [`RingRouter`] path entirely.
//!
//! ## How the `P ≥ 2` kernel differs from the serial one
//!
//! Both paths keep only the state the acceptance surface needs (covers,
//! domain stats, configuration snapshots); neither records per-visit
//! metadata. The segmented kernel differs in shape: departures and merge
//! are fused per segment, segments that are fully covered skip visit
//! tracking altogether, and the departure pass is written as explicit
//! fixed-width lane chunks (`[u32; 8]` — two `u64x4` registers' worth)
//! over the SoA `nodes`/`counts` vectors so the compiler can autovectorise
//! the split arithmetic (the offline build has no SIMD intrinsics crates;
//! `#![forbid(unsafe_code)]` holds). Whether that shape pays per core is
//! a measurement, not a given: see the single-worker ratios of the
//! `engine_throughput` bench.

use crate::bitset::VisitSet;
use crate::init::CW;
use crate::ring::{occupied_eq, RingRouter, RingState};

/// Environment variable overriding the intra-instance segment count used
/// by sweeps and campaigns (`1` — the serial path — when unset).
pub const SEGMENTS_ENV: &str = "ROTOR_SEGMENTS";

/// Pure core of [`segment_count_from_env`] (separable for tests): parses
/// an override value, falling back to `1` (the serial path).
pub fn segments_from(var: Option<&str>) -> usize {
    if let Some(s) = var {
        if let Ok(p) = s.trim().parse::<usize>() {
            if p > 0 {
                return p;
            }
        }
    }
    1
}

/// The segment count requested via [`SEGMENTS_ENV`], or `1` when unset or
/// unparsable. Results are bit-identical at any value; this only selects
/// the partition (and thus the leaner segmented execution path for
/// `P ≥ 2`).
pub fn segment_count_from_env() -> usize {
    segments_from(std::env::var(SEGMENTS_ENV).ok().as_deref())
}

/// Number of lanes in the chunked departure pass: eight `u32`s, the width
/// of two `u64x4` vector registers.
const LANES: usize = 8;

/// One pre-sorted per-round move stream with a manually managed length,
/// so zero-count entries can be compressed out *branchlessly*: `emit`
/// always stores, and advances the length by `count > 0`.
#[derive(Clone, Debug, Default)]
struct SegStream {
    nodes: Vec<u32>,
    counts: Vec<u32>,
    len: usize,
}

impl SegStream {
    /// Prepares the stream for a round, guaranteeing room for `cap`
    /// entries (indexed stores only — no `push`, no reallocation in the
    /// steady state).
    fn reset(&mut self, cap: usize) {
        if self.nodes.len() < cap {
            self.nodes.resize(cap, 0);
            self.counts.resize(cap, 0);
        }
        self.len = 0;
    }

    /// Branchless append: stores unconditionally, keeps the slot only
    /// when `count > 0`.
    #[inline]
    fn emit(&mut self, node: u32, count: u32) {
        self.nodes[self.len] = node;
        self.counts[self.len] = count;
        self.len += usize::from(count > 0);
    }

    /// Unconditional append (merge output: counts are always positive).
    #[inline]
    fn push(&mut self, node: u32, count: u32) {
        self.nodes[self.len] = node;
        self.counts[self.len] = count;
        self.len += 1;
    }

    /// Appends the `u32::MAX` stream-exhausted sentinel.
    #[inline]
    fn seal(&mut self) {
        self.nodes[self.len] = u32::MAX;
        self.counts[self.len] = 0;
        self.len += 1;
    }
}

/// One contiguous node range `[lo, hi)` of the ring, owning every piece
/// of mutable state for its nodes. Segments only ever touch their own
/// arrays during the departure and merge phases, which is what makes the
/// scoped-thread fan-out safe without any locking.
#[derive(Clone, Debug)]
struct Segment {
    /// First owned node (inclusive).
    lo: u32,
    /// Last owned node (exclusive).
    hi: u32,
    /// Direction bits for nodes `lo..hi`, indexed by `v - lo`.
    dirs: Vec<u8>,
    /// Occupied nodes in `[lo, hi)`, sorted ascending (global indices).
    occ_nodes: Vec<u32>,
    /// Agent counts parallel to `occ_nodes`, all `> 0`.
    occ_counts: Vec<u32>,
    /// Visited bits over the local index space `0..(hi - lo)`.
    visited: VisitSet,
    /// Never-visited nodes in this segment.
    unvisited: u32,
    /// §2.2 starts `v` with `visited(v) ∧ ¬visited(v−1)` where *both*
    /// nodes are in-segment (local `v ∈ [1, len)`), maintained
    /// incrementally; the two boundary pairs per segment are recomputed
    /// at merge time in `O(P)` total.
    interior_starts: u32,
    /// §2.2 borders (visited node with an unvisited cyclic neighbour)
    /// whose whole 3-node window is in-segment (local `v ∈ [1, len−2]`),
    /// maintained incrementally like `interior_starts`.
    interior_borders: u32,
    /// Agents leaving clockwise across the `hi` boundary this round
    /// (destination `hi mod n` — the next segment's first node).
    out_cw: u32,
    /// Agents leaving anticlockwise across the `lo` boundary this round
    /// (destination `lo − 1 mod n` — the previous segment's last node).
    out_acw: u32,
    /// Boundary arrivals handed over at the barrier.
    in_cw: u32,
    /// See `in_cw`; destination `hi − 1`.
    in_acw: u32,
    /// Set by `depart` when the segment had no occupants: nothing was
    /// emitted, so `absorb` can skip the whole merge when no boundary
    /// agents arrive either. Keeps far-from-the-band segments O(1) per
    /// round instead of paying stream resets and an empty merge.
    parked: bool,
    /// Set by `depart` when the round took the fused single-pass path
    /// (undelayed rounds): `next` already holds the sorted local arrivals
    /// and `absorb` only applies the two boundary arrivals. Delayed
    /// rounds clear it and go through the held/CW/ACW stream merge.
    fused: bool,
    /// Fused-path scratch: per-occupied-node clockwise share, filled by
    /// the lane-chunked split pass.
    cw_buf: Vec<u32>,
    /// Fused-path scratch: per-occupied-node anticlockwise share.
    acw_buf: Vec<u32>,
    held: SegStream,
    cw: SegStream,
    acw: SegStream,
    next: SegStream,
}

impl Segment {
    fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Re-derives the incremental §2.2 interior counters from the visited
    /// bits (`O(segment length)`): construction and epoch resets only.
    fn reseed_counters(&mut self) {
        let len = self.len();
        self.interior_starts = 0;
        self.interior_borders = 0;
        for j in 1..len {
            if self.visited.contains(j) && !self.visited.contains(j - 1) {
                self.interior_starts += 1;
            }
        }
        for j in 1..len.saturating_sub(1) {
            if self.visited.contains(j)
                && (!self.visited.contains(j - 1) || !self.visited.contains(j + 1))
            {
                self.interior_borders += 1;
            }
        }
    }

    /// Incremental update of the interior §2.2 counters for the first
    /// visit to global node `v`, called with `v` already inserted. Only
    /// `v` and its two neighbours can change status, and for the
    /// *interior* counters every bit consulted is in-segment — which is
    /// why concurrent first visits in other segments cannot race this.
    fn note_first_visit(&mut self, v: u32) {
        let len = self.len();
        let i = (v - self.lo) as usize;
        // Start pairs (v−1, v) and (v, v+1), when fully in-segment.
        if i >= 1 && !self.visited.contains(i - 1) {
            self.interior_starts += 1;
        }
        if i + 1 < len && self.visited.contains(i + 1) {
            self.interior_starts -= 1;
        }
        // Border status can change for v−1, v, v+1; count only nodes
        // whose whole neighbour window is in-segment (local [1, len−2]).
        let interior = |j: usize| j >= 1 && j + 2 <= len;
        if interior(i) {
            let pv = self.visited.contains(i - 1);
            let nv = self.visited.contains(i + 1);
            if !pv || !nv {
                self.interior_borders += 1;
            }
        }
        // A visited neighbour was a border (it touched the then-unvisited
        // v); it stays one only if its other neighbour is unvisited.
        if i >= 1 && interior(i - 1) && self.visited.contains(i - 1) && self.visited.contains(i - 2)
        {
            self.interior_borders -= 1;
        }
        if i + 1 < len
            && interior(i + 1)
            && self.visited.contains(i + 1)
            && self.visited.contains(i + 2)
        {
            self.interior_borders -= 1;
        }
    }

    /// Departure phase. Boundary-crossing agents land in `out_cw` /
    /// `out_acw` instead of the local structures, so no wrap rotation is
    /// ever needed: within a segment `v ↦ v±1` never wraps.
    ///
    /// Undelayed rounds take the *fused* path: nothing is held back, so
    /// the local arrivals are exactly the two-way merge of the CW/ACW
    /// shares, and one pass over the occupied list can write the next
    /// sorted occupied list directly into `next` — no intermediate
    /// streams, no sentinels, no separate merge. Delayed rounds (§2.1)
    /// keep the held/CW/ACW stream emission merged in `absorb`.
    fn depart(&mut self, delay: Option<&(dyn Fn(u32, u32) -> u32 + Sync)>) {
        let m = self.occ_nodes.len();
        self.out_cw = 0;
        self.out_acw = 0;
        self.parked = m == 0;
        if self.parked {
            return;
        }
        match delay {
            None => {
                self.fused = true;
                if self.unvisited > 0 {
                    self.depart_fused::<true>();
                } else {
                    self.depart_fused::<false>();
                }
            }
            Some(d) => {
                self.fused = false;
                self.held.reset(m + 2);
                self.cw.reset(m + 3);
                self.acw.reset(m + 3);
                // Slot 0 of the clockwise stream is reserved for the
                // incoming boundary element (destination `lo`, smaller
                // than every local clockwise destination); locals fill
                // from index 1.
                self.cw.len = 1;
                self.depart_delayed(d);
                self.held.seal();
                self.cw.seal();
                // `acw` is sealed at merge time, after the incoming
                // boundary element (destination `hi − 1`, larger than
                // every local one).
            }
        }
    }

    /// Generic scalar departure for delayed deployments (§2.1).
    fn depart_delayed(&mut self, delay: &(dyn Fn(u32, u32) -> u32 + Sync)) {
        for i in 0..self.occ_nodes.len() {
            let v = self.occ_nodes[i];
            let c = self.occ_counts[i];
            let h = delay(v, c).min(c);
            let moving = c - h;
            if h > 0 {
                self.held.emit(v, h);
            }
            if moving > 0 {
                self.route(v, moving);
            }
        }
    }

    /// Pass 1 of the fused departure — the SIMD core: loads `LANES`
    /// occupied entries into fixed-width `[u32; LANES]` lane buffers,
    /// computes the ⌈c/2⌉ / ⌊c/2⌋ split, direction selection and pointer
    /// flips branch-free across the lanes (autovectorisable: no branches,
    /// no data-dependent arithmetic), scatters the flips back into `dirs`
    /// and stores the two per-node shares into `cw_buf` / `acw_buf`.
    fn split_counts(&mut self) {
        let m = self.occ_nodes.len();
        if self.cw_buf.len() < m {
            self.cw_buf.resize(m, 0);
            self.acw_buf.resize(m, 0);
        }
        let lo = self.lo;
        let mut i = 0;
        while i + LANES <= m {
            let mut nodes = [0u32; LANES];
            let mut counts = [0u32; LANES];
            nodes.copy_from_slice(&self.occ_nodes[i..i + LANES]);
            counts.copy_from_slice(&self.occ_counts[i..i + LANES]);
            // Gather pass (data-dependent indices: scalar by necessity).
            let mut dir = [0u32; LANES];
            for j in 0..LANES {
                dir[j] = u32::from(self.dirs[(nodes[j] - lo) as usize]);
            }
            // Lane arithmetic — the vectorisable core. `dir` is 0 for CW,
            // so `1 - dir` masks the ⌈c/2⌉ share onto the pointer
            // direction.
            let mut cw_cnt = [0u32; LANES];
            let mut acw_cnt = [0u32; LANES];
            let mut flip = [0u32; LANES];
            for j in 0..LANES {
                let c = counts[j];
                let up = (c + 1) >> 1;
                let dn = c >> 1;
                let cw_sel = 1 - dir[j];
                cw_cnt[j] = cw_sel * up + dir[j] * dn;
                acw_cnt[j] = cw_sel * dn + dir[j] * up;
                flip[j] = c & 1;
            }
            // Scatter passes.
            for j in 0..LANES {
                self.dirs[(nodes[j] - lo) as usize] ^= flip[j] as u8;
            }
            self.cw_buf[i..i + LANES].copy_from_slice(&cw_cnt);
            self.acw_buf[i..i + LANES].copy_from_slice(&acw_cnt);
            i += LANES;
        }
        while i < m {
            let c = self.occ_counts[i];
            let li = (self.occ_nodes[i] - lo) as usize;
            let d = u32::from(self.dirs[li]);
            self.dirs[li] ^= (c & 1) as u8;
            let up = (c + 1) >> 1;
            let dn = c >> 1;
            self.cw_buf[i] = (1 - d) * up + d * dn;
            self.acw_buf[i] = (1 - d) * dn + d * up;
            i += 1;
        }
    }

    /// Pass 2 of the fused departure: one ordered sweep over the occupied
    /// list that writes the next sorted occupied list straight into
    /// `next`. Node `v`'s anticlockwise share lands at `v − 1` and its
    /// clockwise share at `v + 1`, so at most two destinations are ever
    /// still awaiting future contributions — a two-slot carry (`q0 < q1`)
    /// replaces the whole stream-and-merge machinery. A destination is
    /// complete (and emitted, in order) as soon as the sweep passes it.
    fn depart_fused<const TRACK: bool>(&mut self) {
        self.split_counts();
        let m = self.occ_nodes.len();
        // Capacity: every occupied node contributes at most two distinct
        // destinations, plus the two boundary arrivals applied in
        // `absorb`.
        self.next.reset(2 * m + 2);
        let (mut q0, mut d0) = (u32::MAX, 0u32);
        let (mut q1, mut d1) = (u32::MAX, 0u32);
        for i in 0..m {
            let v = self.occ_nodes[i];
            let acw_c = self.acw_buf[i];
            let cw_c = self.cw_buf[i];
            if v == self.lo {
                self.out_acw = acw_c;
            } else {
                let a = v - 1;
                // Flush carries below `a` (complete: nothing ≥ v can
                // reach them), then absorb a carry at `a` — its last
                // possible contributor is this node's anticlockwise
                // share.
                if q0 < a {
                    self.land::<TRACK>(q0, d0);
                    (q0, d0) = (q1, d1);
                    (q1, d1) = (u32::MAX, 0);
                    if q0 < a {
                        self.land::<TRACK>(q0, d0);
                        (q0, d0) = (u32::MAX, 0);
                    }
                }
                let mut at_a = acw_c;
                if q0 == a {
                    at_a += d0;
                    (q0, d0) = (q1, d1);
                    (q1, d1) = (u32::MAX, 0);
                }
                self.land::<TRACK>(a, at_a);
            }
            if v + 1 == self.hi {
                self.out_cw = cw_c;
            } else if cw_c > 0 {
                // `v + 1` may still receive node `v + 2`'s anticlockwise
                // share: carry it. At most one other carry (`v`, from a
                // gap-1 predecessor) can be live, so `q1` is free.
                if q0 == u32::MAX {
                    (q0, d0) = (v + 1, cw_c);
                } else {
                    (q1, d1) = (v + 1, cw_c);
                }
            }
        }
        if q0 != u32::MAX {
            self.land::<TRACK>(q0, d0);
        }
        if q1 != u32::MAX {
            self.land::<TRACK>(q1, d1);
        }
    }

    /// Fused-path arrival: appends `(pos, cnt)` to the next occupied list
    /// (ascending calls only) and runs first-visit tracking. Zero counts
    /// are dropped, matching the stream path's branchless compression.
    #[inline]
    fn land<const TRACK: bool>(&mut self, pos: u32, cnt: u32) {
        if cnt == 0 {
            return;
        }
        self.next.push(pos, cnt);
        if TRACK {
            self.mark_visited(pos);
        }
    }

    /// First-visit bookkeeping for an arrival at `v` (idempotent).
    #[inline]
    fn mark_visited(&mut self, v: u32) {
        let li = (v - self.lo) as usize;
        if self.visited.insert(li) {
            self.unvisited -= 1;
            self.note_first_visit(v);
        }
    }

    /// Scalar departure of one occupied node, handling the two segment
    /// boundaries.
    #[inline]
    fn route(&mut self, v: u32, moving: u32) {
        let li = (v - self.lo) as usize;
        let d = self.dirs[li];
        let with_ptr = moving.div_ceil(2);
        let against = moving / 2;
        self.dirs[li] ^= (moving & 1) as u8;
        let (cw_cnt, acw_cnt) = if d == CW {
            (with_ptr, against)
        } else {
            (against, with_ptr)
        };
        if v + 1 == self.hi {
            self.out_cw = cw_cnt;
        } else {
            self.cw.emit(v + 1, cw_cnt);
        }
        if v == self.lo {
            self.out_acw = acw_cnt;
        } else {
            self.acw.emit(v - 1, acw_cnt);
        }
    }

    /// Merge phase (post-barrier): applies the boundary arrivals and
    /// commits the next occupied list — `O(1)` for parked segments,
    /// boundary-only for fused rounds, the full three-way stream merge
    /// for delayed rounds. Visit tracking is compiled out once the
    /// segment is fully covered.
    fn absorb(&mut self) {
        if self.parked {
            if self.in_cw == 0 && self.in_acw == 0 {
                // Empty segment, no boundary arrivals: the round cannot
                // change any of its state.
                return;
            }
            // Boundary agents arrived into a parked segment: the local
            // arrivals are empty, so only the boundary application below
            // runs (this holds on delayed rounds too — a segment with no
            // occupants holds nothing back).
            self.next.reset(2);
            self.commit_fused();
            return;
        }
        if self.fused {
            self.commit_fused();
            return;
        }
        self.absorb_streams();
    }

    /// Completes a fused (or parked) round: merges the two boundary
    /// arrivals into the ends of the sorted `next` list — `lo` can only
    /// be its first entry, `hi − 1` its last — and swaps it in.
    fn commit_fused(&mut self) {
        let track = self.unvisited > 0;
        if self.in_cw > 0 {
            if self.next.len > 0 && self.next.nodes[0] == self.lo {
                self.next.counts[0] += self.in_cw;
            } else {
                // Rare: the boundary node was not a local destination
                // (the band's edge is crossing `lo` over a gap).
                let len = self.next.len;
                self.next.nodes.copy_within(0..len, 1);
                self.next.counts.copy_within(0..len, 1);
                self.next.nodes[0] = self.lo;
                self.next.counts[0] = self.in_cw;
                self.next.len += 1;
            }
            if track {
                self.mark_visited(self.lo);
            }
        }
        if self.in_acw > 0 {
            let last = self.hi - 1;
            let len = self.next.len;
            if len > 0 && self.next.nodes[len - 1] == last {
                self.next.counts[len - 1] += self.in_acw;
            } else {
                self.next.push(last, self.in_acw);
            }
            if track {
                self.mark_visited(last);
            }
        }
        std::mem::swap(&mut self.occ_nodes, &mut self.next.nodes);
        std::mem::swap(&mut self.occ_counts, &mut self.next.counts);
        self.occ_nodes.truncate(self.next.len);
        self.occ_counts.truncate(self.next.len);
        debug_assert!(
            self.occ_nodes.windows(2).all(|w| w[0] < w[1]),
            "segment occupied list sorted"
        );
    }

    /// Stream-path merge (delayed rounds): completes the CW/ACW streams
    /// with the boundary arrivals and runs the three-way branchless merge
    /// into the next occupied list.
    fn absorb_streams(&mut self) {
        let start_c = if self.in_cw > 0 {
            self.cw.nodes[0] = self.lo;
            self.cw.counts[0] = self.in_cw;
            0
        } else {
            1
        };
        self.acw.emit(self.hi - 1, self.in_acw);
        self.acw.seal();
        self.next.reset(self.held.len + self.cw.len + self.acw.len);
        if self.unvisited > 0 {
            self.merge::<true>(start_c);
        } else {
            self.merge::<false>(start_c);
        }
        std::mem::swap(&mut self.occ_nodes, &mut self.next.nodes);
        std::mem::swap(&mut self.occ_counts, &mut self.next.counts);
        self.occ_nodes.truncate(self.next.len);
        self.occ_counts.truncate(self.next.len);
        debug_assert!(
            self.occ_nodes.windows(2).all(|w| w[0] < w[1]),
            "segment occupied list sorted"
        );
    }

    /// The [`RingRouter`] three-way branchless merge, restricted to this
    /// segment's streams; `TRACK` compiles the first-visit bookkeeping in
    /// or out.
    fn merge<const TRACK: bool>(&mut self, start_c: usize) {
        let held = std::mem::take(&mut self.held);
        let cw = std::mem::take(&mut self.cw);
        let acw = std::mem::take(&mut self.acw);
        let mut next = std::mem::take(&mut self.next);
        let (mut hi, mut ci, mut ai) = (0usize, start_c, 0usize);
        loop {
            let hd = held.nodes[hi];
            let cd = cw.nodes[ci];
            let ad = acw.nodes[ai];
            let dest = hd.min(cd).min(ad);
            if dest == u32::MAX {
                break;
            }
            let take_h = u32::from(hd == dest);
            let take_c = u32::from(cd == dest);
            let take_a = u32::from(ad == dest);
            let stationary = take_h * held.counts[hi];
            let arrived = take_c * cw.counts[ci] + take_a * acw.counts[ai];
            hi += take_h as usize;
            ci += take_c as usize;
            ai += take_a as usize;
            if TRACK && arrived > 0 {
                self.mark_visited(dest);
            }
            next.push(dest, stationary + arrived);
        }
        self.held = held;
        self.cw = cw;
        self.acw = acw;
        self.next = next;
    }
}

/// The multi-agent rotor-router on the ring, partitioned into `P`
/// contiguous segments that advance in parallel and exchange boundary
/// agents at a per-round barrier — bit-identical to [`RingRouter`] at
/// every `P` (see the module docs for the determinism contract and why
/// `P ≥ 2` is the leaner path).
///
/// ```
/// use rotor_core::{init::PointerInit, placement::Placement, SegmentedRing};
///
/// let n = 128;
/// let starts = Placement::AllOnOne(0).positions(n, 4);
/// let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
/// let mut seg = SegmentedRing::new(n, &starts, &dirs, 4);
/// let mut reference = rotor_core::RingRouter::new(n, &starts, &dirs);
/// let cover = seg.run_until_covered(1_000_000).expect("covers");
/// assert_eq!(Some(cover), reference.run_until_covered(1_000_000));
/// assert_eq!(seg.state(), reference.state());
/// ```
#[derive(Clone, Debug)]
pub struct SegmentedRing {
    inner: Inner,
}

#[derive(Clone, Debug)]
enum Inner {
    /// `P = 1`: the serial path — the [`RingRouter`] itself.
    Serial(Box<RingRouter>),
    /// `P ≥ 2`: the segmented lean path.
    Seg(SegRing),
}

/// The `P ≥ 2` engine proper.
#[derive(Clone, Debug)]
struct SegRing {
    n: u32,
    k: u32,
    round: u64,
    unvisited: u32,
    cover_round: Option<u64>,
    /// Worker threads fanned over segments per phase (`1` = run the
    /// segments sequentially on the calling thread). Never affects
    /// results, only wall-clock.
    workers: usize,
    segments: Vec<Segment>,
    /// Barrier scratch: `(out_cw, out_acw)` per segment.
    exchange: Vec<(u32, u32)>,
}

impl SegmentedRing {
    /// Creates a segmented router with agents at `starts` and initial
    /// directions `dirs`, partitioned into `segments` contiguous pieces
    /// (clamped to `[1, n]`; `1` selects the serial [`RingRouter`] path).
    /// Workers default to 1 — see [`with_workers`](Self::with_workers).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RingRouter::new`].
    pub fn new(n: usize, starts: &[u32], dirs: &[u8], segments: usize) -> Self {
        Self::with_workers(n, starts, dirs, segments, 1)
    }

    /// [`new`](Self::new) with an explicit worker-thread count for the
    /// per-phase fan-out (clamped to `[1, P]`). Worker count never
    /// changes any result — segments own disjoint state and the barrier
    /// is a full synchronisation — so callers size it from the machine's
    /// thread budget (`rotor_sweep`'s `split_budget`) independently of
    /// the partition parameter `P`.
    pub fn with_workers(
        n: usize,
        starts: &[u32],
        dirs: &[u8],
        segments: usize,
        workers: usize,
    ) -> Self {
        let p = segments.clamp(1, n.max(1));
        if p == 1 {
            return SegmentedRing {
                inner: Inner::Serial(Box::new(RingRouter::new(n, starts, dirs))),
            };
        }
        SegmentedRing {
            inner: Inner::Seg(SegRing::new(n, starts, dirs, p, workers)),
        }
    }

    /// [`new`](Self::new) with the segment count taken from the
    /// [`SEGMENTS_ENV`] environment variable (`ROTOR_SEGMENTS`).
    pub fn from_env(n: usize, starts: &[u32], dirs: &[u8]) -> Self {
        Self::new(n, starts, dirs, segment_count_from_env())
    }

    /// The partition parameter `P` actually in effect (after clamping).
    pub fn segment_count(&self) -> usize {
        match &self.inner {
            Inner::Serial(_) => 1,
            Inner::Seg(s) => s.segments.len(),
        }
    }

    /// Worker threads used for the per-phase fan-out.
    pub fn worker_count(&self) -> usize {
        match &self.inner {
            Inner::Serial(_) => 1,
            Inner::Seg(s) => s.workers,
        }
    }

    /// Ring size `n`.
    pub fn n(&self) -> u32 {
        match &self.inner {
            Inner::Serial(r) => r.n(),
            Inner::Seg(s) => s.n,
        }
    }

    /// Number of agents `k`.
    pub fn agent_count(&self) -> u32 {
        match &self.inner {
            Inner::Serial(r) => r.agent_count(),
            Inner::Seg(s) => s.k,
        }
    }

    /// Completed rounds.
    pub fn round(&self) -> u64 {
        match &self.inner {
            Inner::Serial(r) => r.round(),
            Inner::Seg(s) => s.round,
        }
    }

    /// Current pointer direction at `v` (`0` = clockwise).
    pub fn direction(&self, v: u32) -> u8 {
        match &self.inner {
            Inner::Serial(r) => r.direction(v),
            Inner::Seg(s) => {
                let seg = &s.segments[s.seg_index(v)];
                seg.dirs[(v - seg.lo) as usize]
            }
        }
    }

    /// Agents currently at `v`.
    pub fn agents_at(&self, v: u32) -> u32 {
        match &self.inner {
            Inner::Serial(r) => r.agents_at(v),
            Inner::Seg(s) => {
                let seg = &s.segments[s.seg_index(v)];
                match seg.occ_nodes.binary_search(&v) {
                    Ok(i) => seg.occ_counts[i],
                    Err(_) => 0,
                }
            }
        }
    }

    /// Sorted `(node, count)` pairs of occupied nodes (concatenating the
    /// segments preserves global sort order).
    pub fn occupied(&self) -> Vec<(u32, u32)> {
        self.parts()
            .flat_map(|(_, nodes, counts)| nodes.iter().copied().zip(counts.iter().copied()))
            .collect()
    }

    /// Whether `v` has ever been visited (or initially held an agent).
    pub fn is_visited(&self, v: u32) -> bool {
        match &self.inner {
            Inner::Serial(r) => r.is_visited(v),
            Inner::Seg(s) => {
                let seg = &s.segments[s.seg_index(v)];
                seg.visited.contains((v - seg.lo) as usize)
            }
        }
    }

    /// Number of never-visited nodes.
    pub fn unvisited_count(&self) -> u32 {
        match &self.inner {
            Inner::Serial(r) => r.unvisited_count(),
            Inner::Seg(s) => s.unvisited,
        }
    }

    /// The round at which the last node was first visited, if any.
    pub fn cover_round(&self) -> Option<u64> {
        match &self.inner {
            Inner::Serial(r) => r.cover_round(),
            Inner::Seg(s) => s.cover_round,
        }
    }

    /// Snapshot of the mutable configuration — the same [`RingState`] as
    /// [`RingRouter::state`], so equality (and Brent cycle probing over
    /// it) is directly comparable across the two engines.
    pub fn state(&self) -> RingState {
        let mut state = RingState {
            dirs: Vec::with_capacity(self.n() as usize),
            occupied: Vec::new(),
        };
        crate::limit::ConfigSnapshot::config_into(self, &mut state);
        state
    }

    /// Advances one synchronous round: every agent moves.
    pub fn step(&mut self) {
        match &mut self.inner {
            Inner::Serial(r) => r.step(),
            Inner::Seg(s) => s.step_round(None),
        }
    }

    /// Advances one round of a *delayed deployment* (§2.1): `delay(v, c)`
    /// agents of the `c` at node `v` stay put (clamped to `c`). The
    /// schedule must be a pure function (`Fn + Sync`) because segments
    /// may query it from worker threads; [`RingRouter::step_delayed`]'s
    /// `FnMut` surface is deliberately narrowed here.
    pub fn step_delayed(&mut self, delay: impl Fn(u32, u32) -> u32 + Sync) {
        match &mut self.inner {
            Inner::Serial(r) => r.step_delayed(&delay),
            Inner::Seg(s) => s.step_round(Some(&delay)),
        }
    }

    /// Runs until every node has been visited, or gives up after
    /// `max_rounds` total rounds.
    pub fn run_until_covered(&mut self, max_rounds: u64) -> Option<u64> {
        while self.cover_round().is_none() && self.round() < max_rounds {
            self.step();
        }
        self.cover_round()
    }

    /// Runs `rounds` additional rounds (undelayed).
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Fault injection: scrambles `count` pointer directions — the exact
    /// seed-chained draw sequence of [`RingRouter::corrupt_pointers`].
    pub fn corrupt_pointers(&mut self, seed: u64, count: u32) -> u32 {
        match &mut self.inner {
            Inner::Serial(r) => r.corrupt_pointers(seed, count),
            Inner::Seg(s) => s.corrupt_pointers(seed, count),
        }
    }

    /// Fault injection: crashes up to `count` agents (always leaving at
    /// least one) — the exact draw sequence of
    /// [`RingRouter::remove_agents`].
    pub fn remove_agents(&mut self, seed: u64, count: u32) -> u32 {
        match &mut self.inner {
            Inner::Serial(r) => r.remove_agents(seed, count),
            Inner::Seg(s) => s.remove_agents(seed, count),
        }
    }

    /// Starts a fresh cover epoch from the current configuration, exactly
    /// like [`RingRouter::reset_cover_epoch`].
    pub fn reset_cover_epoch(&mut self) {
        match &mut self.inner {
            Inner::Serial(r) => r.reset_cover_epoch(),
            Inner::Seg(s) => s.reset_cover_epoch(),
        }
    }
}

impl SegRing {
    fn new(n: usize, starts: &[u32], dirs: &[u8], p: usize, workers: usize) -> Self {
        assert!(n >= 3, "ring router needs n >= 3");
        assert!(!starts.is_empty(), "need at least one agent");
        assert_eq!(dirs.len(), n, "direction vector length mismatch");
        assert!(dirs.iter().all(|&d| d <= 1), "directions must be 0 or 1");
        debug_assert!(p >= 2 && p <= n);
        let n32 = n as u32;
        let mut count = vec![0u32; n];
        for &s in starts {
            assert!(s < n32, "start position out of range");
            count[s as usize] += 1;
        }
        let mut segments = Vec::with_capacity(p);
        for s in 0..p {
            let lo = (s * n / p) as u32;
            let hi = ((s + 1) * n / p) as u32;
            let len = (hi - lo) as usize;
            let mut seg = Segment {
                lo,
                hi,
                dirs: dirs[lo as usize..hi as usize].to_vec(),
                occ_nodes: Vec::new(),
                occ_counts: Vec::new(),
                visited: VisitSet::new(len),
                unvisited: len as u32,
                interior_starts: 0,
                interior_borders: 0,
                out_cw: 0,
                out_acw: 0,
                in_cw: 0,
                in_acw: 0,
                parked: false,
                fused: false,
                cw_buf: Vec::new(),
                acw_buf: Vec::new(),
                held: SegStream::default(),
                cw: SegStream::default(),
                acw: SegStream::default(),
                next: SegStream::default(),
            };
            for v in lo..hi {
                let c = count[v as usize];
                if c > 0 {
                    seg.occ_nodes.push(v);
                    seg.occ_counts.push(c);
                    seg.visited.insert((v - lo) as usize);
                    seg.unvisited -= 1;
                }
            }
            seg.reseed_counters();
            segments.push(seg);
        }
        let unvisited: u32 = segments.iter().map(|s| s.unvisited).sum();
        SegRing {
            n: n32,
            k: starts.len() as u32,
            round: 0,
            unvisited,
            cover_round: (unvisited == 0).then_some(0),
            workers: workers.clamp(1, p),
            segments,
            exchange: Vec::new(),
        }
    }

    /// Which segment owns global node `v`.
    fn seg_index(&self, v: u32) -> usize {
        let p = self.segments.len();
        // The balanced partition makes v·P/n at most one segment off.
        let mut s = ((v as u64 * p as u64) / u64::from(self.n)) as usize;
        s = s.min(p - 1);
        while self.segments[s].lo > v {
            s -= 1;
        }
        while self.segments[s].hi <= v {
            s += 1;
        }
        s
    }

    /// Runs `f` over every segment — sequentially, or fanned over up to
    /// `workers` scoped threads. Segments own disjoint state, so the
    /// fan-out is pure data parallelism; the scope join is the barrier.
    fn for_each_segment(&mut self, f: impl Fn(&mut Segment) + Sync) {
        let p = self.segments.len();
        if self.workers <= 1 || p <= 1 {
            for seg in &mut self.segments {
                f(seg);
            }
            return;
        }
        let chunk = p.div_ceil(self.workers.min(p));
        let f = &f;
        std::thread::scope(|scope| {
            for part in self.segments.chunks_mut(chunk) {
                scope.spawn(move || {
                    for seg in part {
                        f(seg);
                    }
                });
            }
        });
    }

    /// One synchronous round: parallel departures, boundary exchange at
    /// the barrier, parallel merges, then `O(P)` cover accounting.
    fn step_round(&mut self, delay: Option<&(dyn Fn(u32, u32) -> u32 + Sync)>) {
        self.round += 1;
        self.for_each_segment(|seg| seg.depart(delay));
        let p = self.segments.len();
        self.exchange.clear();
        self.exchange
            .extend(self.segments.iter().map(|s| (s.out_cw, s.out_acw)));
        for (s, seg) in self.segments.iter_mut().enumerate() {
            seg.in_cw = self.exchange[(s + p - 1) % p].0;
            seg.in_acw = self.exchange[(s + 1) % p].1;
        }
        self.for_each_segment(|seg| seg.absorb());
        if self.unvisited > 0 {
            self.unvisited = self.segments.iter().map(|s| s.unvisited).sum();
            if self.unvisited == 0 && self.cover_round.is_none() {
                self.cover_round = Some(self.round);
            }
        }
        debug_assert_eq!(
            self.segments
                .iter()
                .flat_map(|s| s.occ_counts.iter())
                .sum::<u32>(),
            self.k,
            "agents conserved"
        );
    }

    /// The merged §2.2 stats: interior counters summed, plus the `O(P)`
    /// boundary terms (one start pair per boundary, two edge nodes per
    /// segment) computed from the live visited bits.
    fn domain_stats(&self) -> crate::domains::DomainStats {
        let p = self.segments.len();
        let mut starts = 0u32;
        let mut borders = 0u32;
        for (s, seg) in self.segments.iter().enumerate() {
            starts += seg.interior_starts;
            borders += seg.interior_borders;
            // Boundary start pair (lo − 1, lo).
            let prev = &self.segments[(s + p - 1) % p];
            let prev_last = prev.visited.contains(prev.len() - 1);
            if seg.visited.contains(0) && !prev_last {
                starts += 1;
            }
            // Edge nodes lo and hi − 1 (one node when the segment has
            // length 1) — their border status spans a segment boundary,
            // so it is recomputed here instead of tracked incrementally.
            borders += u32::from(self.is_border(seg.lo));
            if seg.len() > 1 {
                borders += u32::from(self.is_border(seg.hi - 1));
            }
        }
        let domains = if self.unvisited == 0 { 1 } else { starts };
        crate::domains::DomainStats { domains, borders }
    }

    fn vis(&self, v: u32) -> bool {
        let seg = &self.segments[self.seg_index(v)];
        seg.visited.contains((v - seg.lo) as usize)
    }

    fn is_border(&self, v: u32) -> bool {
        if !self.vis(v) {
            return false;
        }
        let prev = if v == 0 { self.n - 1 } else { v - 1 };
        let next = if v + 1 == self.n { 0 } else { v + 1 };
        !self.vis(prev) || !self.vis(next)
    }

    fn corrupt_pointers(&mut self, seed: u64, count: u32) -> u32 {
        let mut s = seed;
        let mut changed = 0;
        for _ in 0..count {
            s = crate::rng::splitmix64(s);
            let v = (s % u64::from(self.n)) as u32;
            let new_dir = ((s >> 32) & 1) as u8;
            let si = self.seg_index(v);
            let seg = &mut self.segments[si];
            let li = (v - seg.lo) as usize;
            changed += u32::from(seg.dirs[li] != new_dir);
            seg.dirs[li] = new_dir;
        }
        changed
    }

    fn remove_agents(&mut self, seed: u64, count: u32) -> u32 {
        let mut s = seed;
        let mut removed = 0;
        for _ in 0..count {
            if self.k <= 1 {
                break;
            }
            s = crate::rng::splitmix64(s);
            // The global occupied list is the concatenation of the
            // per-segment lists, so indexing it by walking the segments
            // reproduces RingRouter::remove_agents draw for draw.
            let total: u64 = self.segments.iter().map(|g| g.occ_nodes.len() as u64).sum();
            let mut i = (s % total) as usize;
            for seg in &mut self.segments {
                if i < seg.occ_nodes.len() {
                    seg.occ_counts[i] -= 1;
                    if seg.occ_counts[i] == 0 {
                        seg.occ_nodes.remove(i);
                        seg.occ_counts.remove(i);
                    }
                    break;
                }
                i -= seg.occ_nodes.len();
            }
            self.k -= 1;
            removed += 1;
        }
        removed
    }

    fn reset_cover_epoch(&mut self) {
        for seg in &mut self.segments {
            let len = seg.len();
            let mut visited = VisitSet::new(len);
            for &v in &seg.occ_nodes {
                visited.insert((v - seg.lo) as usize);
            }
            seg.visited = visited;
            seg.unvisited = len as u32 - seg.occ_nodes.len() as u32;
            seg.reseed_counters();
        }
        self.unvisited = self.segments.iter().map(|s| s.unvisited).sum();
        self.cover_round = (self.unvisited == 0).then_some(self.round);
    }
}

impl crate::CoverProcess for SegmentedRing {
    fn kind_name(&self) -> &'static str {
        "rotor_ring_seg"
    }

    fn node_count(&self) -> usize {
        self.n() as usize
    }

    fn round(&self) -> u64 {
        SegmentedRing::round(self)
    }

    fn step(&mut self) {
        SegmentedRing::step(self);
    }

    fn cover_round(&self) -> Option<u64> {
        SegmentedRing::cover_round(self)
    }

    fn visited_count(&self) -> usize {
        (self.n() - self.unvisited_count()) as usize
    }

    fn is_node_visited(&self, node: usize) -> bool {
        self.is_visited(node as u32)
    }

    /// Segment-local counters merged in `O(P)` — constant in `n`, like
    /// the serial engine's `O(1)` counters, and property-tested
    /// bit-identical to both [`RingRouter`] and the `O(n)` scan.
    fn domain_stats(&self) -> crate::domains::DomainStats {
        match &self.inner {
            Inner::Serial(r) => crate::CoverProcess::domain_stats(&**r),
            Inner::Seg(s) => s.domain_stats(),
        }
    }
}

impl SegmentedRing {
    /// The configuration as `(dirs, occupied nodes, occupied counts)`
    /// pieces in ring order — one per segment, or the whole serial router
    /// — so comparisons never materialise the global vectors.
    fn parts(&self) -> impl Iterator<Item = (&[u8], &[u32], &[u32])> {
        let (serial, segments) = match &self.inner {
            Inner::Serial(r) => (
                Some((r.direction_bits(), r.occupied_nodes(), r.occupied_counts())),
                &[][..],
            ),
            Inner::Seg(s) => (None, &s.segments[..]),
        };
        serial.into_iter().chain(
            segments
                .iter()
                .map(|g| (&g.dirs[..], &g.occ_nodes[..], &g.occ_counts[..])),
        )
    }
}

/// Occupancy before directions, walking the segments in ring order so
/// the global vectors are never materialised.
impl crate::limit::ConfigSnapshot for SegmentedRing {
    type Config = RingState;

    fn config(&self) -> RingState {
        self.state()
    }

    fn config_into(&self, out: &mut RingState) {
        out.dirs.clear();
        out.occupied.clear();
        for (dirs, nodes, counts) in self.parts() {
            out.dirs.extend_from_slice(dirs);
            out.occupied
                .extend(nodes.iter().copied().zip(counts.iter().copied()));
        }
    }

    fn config_eq(&self, c: &RingState) -> bool {
        let mut at = 0;
        for (_, nodes, counts) in self.parts() {
            match c.occupied.get(at..at + nodes.len()) {
                Some(pairs) if occupied_eq(nodes, counts, pairs) => at += nodes.len(),
                _ => return false,
            }
        }
        if at != c.occupied.len() {
            return false;
        }
        let mut at = 0;
        for (dirs, ..) in self.parts() {
            if c.dirs.get(at..at + dirs.len()) != Some(dirs) {
                return false;
            }
            at += dirs.len();
        }
        at == c.dirs.len()
    }

    fn same_config(&self, other: &Self) -> bool {
        fn occupied(r: &SegmentedRing) -> impl Iterator<Item = (&u32, &u32)> {
            r.parts()
                .flat_map(|(_, nodes, counts)| nodes.iter().zip(counts))
        }
        fn dirs(r: &SegmentedRing) -> impl Iterator<Item = &u8> {
            r.parts().flat_map(|(dirs, ..)| dirs)
        }
        occupied(self).eq(occupied(other)) && dirs(self).eq(dirs(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::PointerInit;
    use crate::placement::Placement;
    use crate::CoverProcess;

    #[test]
    fn env_parsing_falls_back_to_one() {
        assert_eq!(segments_from(Some("4")), 4);
        assert_eq!(segments_from(Some(" 16 ")), 16);
        assert_eq!(segments_from(Some("0")), 1);
        assert_eq!(segments_from(Some("many")), 1);
        assert_eq!(segments_from(None), 1);
    }

    #[test]
    fn partition_covers_every_node_once() {
        for n in [3usize, 7, 16, 61] {
            for p in [2usize, 3, 4, 7, 16] {
                let starts = [0u32];
                let dirs = vec![CW; n];
                let seg = SegmentedRing::new(n, &starts, &dirs, p);
                let eff = seg.segment_count();
                assert!(eff <= n && eff >= 1);
                if let Inner::Seg(s) = &seg.inner {
                    let mut covered = 0u32;
                    for (i, g) in s.segments.iter().enumerate() {
                        assert!(g.lo < g.hi, "non-empty segment");
                        covered += g.hi - g.lo;
                        assert_eq!(s.seg_index(g.lo), i);
                        assert_eq!(s.seg_index(g.hi - 1), i);
                    }
                    assert_eq!(covered, n as u32);
                }
            }
        }
    }

    #[test]
    fn p_one_is_the_serial_path() {
        let seg = SegmentedRing::new(8, &[0], &[CW; 8], 1);
        assert!(matches!(seg.inner, Inner::Serial(_)));
        assert_eq!(seg.segment_count(), 1);
        assert_eq!(seg.kind_name(), "rotor_ring_seg");
    }

    #[test]
    fn seg_stream_emit_compresses_zeros() {
        let mut s = SegStream::default();
        s.reset(4);
        s.emit(3, 0);
        s.emit(5, 2);
        s.emit(7, 0);
        s.seal();
        assert_eq!(&s.nodes[..s.len], &[5, u32::MAX]);
        assert_eq!(&s.counts[..s.len], &[2, 0]);
    }

    #[test]
    fn worker_count_never_changes_results() {
        let n = 96;
        let starts = Placement::Random(11).positions(n, 7);
        let dirs = PointerInit::Random(5).ring_directions(n, &starts);
        let mut one = SegmentedRing::with_workers(n, &starts, &dirs, 4, 1);
        let mut two = SegmentedRing::with_workers(n, &starts, &dirs, 4, 2);
        assert_eq!(two.worker_count(), 2);
        for _ in 0..500 {
            one.step();
            two.step();
            assert_eq!(one.state(), two.state());
            assert_eq!(one.cover_round(), two.cover_round());
        }
    }

    #[test]
    fn covers_like_the_quadratic_band() {
        let n = 64u32;
        let starts = [0u32];
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n as usize, &starts);
        let mut r = SegmentedRing::new(n as usize, &starts, &dirs, 4);
        let c = r.run_until_covered(10_000_000).unwrap();
        assert!(
            c >= u64::from(n * n) / 4 && c <= u64::from(4 * n * n),
            "{c}"
        );
    }
}
