//! The segmented-parallel torus engine: [`Engine`](crate::Engine)
//! semantics on the `rows × cols` torus, cut into `P` contiguous *row
//! bands* that advance independently and exchange only their two boundary
//! rows of agent counts at a per-round barrier.
//!
//! ## Why row bands
//!
//! [`SegmentedRing`](crate::SegmentedRing) proved that cutting one
//! instance into contiguous pieces can be bit-identical *and* faster per
//! core on the ring, where a boundary message is at most one
//! `(node, count)` pair. The torus is the first family off the ring where
//! the same cut works with a bounded message: band `s` owns the rows
//! `[s·rows/P, (s+1)·rows/P)` — its pointers, its dense agent counts, its
//! slice of the sorted occupied list, its visited bits — and every
//! departure from a band-owned node lands either inside the band (east,
//! west, and most north/south moves) or in one of exactly two foreign
//! *rows*: the row above the band and the row below it. The entire
//! cross-band traffic of a round is therefore two per-column count
//! vectors per band — an `O(cols)` message, not `O(1)` like the ring's,
//! which is precisely the barrier-economics difference the
//! `segmented_torus_rounds_per_sec` bench curve measures.
//!
//! ## Determinism contract
//!
//! The band count `P` is a pure *partition parameter*: every
//! deterministic output — covers, configurations
//! ([`EngineState`]), pointer state, §2.2
//! domain/border scans, Brent `(μ, λ)` via
//! [`probe_cycle`](crate::limit::probe_cycle) — is bit-identical to the
//! serial [`Engine`](crate::Engine) for every
//! `(rows, cols, k, placement, init, delay-schedule)` at every `P`, and
//! independent of how many worker threads execute the bands. Property
//! tests in `tests/segtorus_equivalence.rs` pin this across
//! `P ∈ {1, 2, 3, 4, 7}`. Unlike the ring backend there is no separate
//! serial fallback: `P = 1` runs the same banded code path with an empty
//! exchange.
//!
//! ## How the banded kernel differs from the serial one
//!
//! Both the band and the serial [`Engine`](crate::Engine) keep only the
//! state the acceptance surface needs (covers, §2.2 domain scans,
//! configuration snapshots). The band differs in shape: bands that are
//! fully covered compile visit tracking out of both round phases (a
//! const-generic `TRACK` switch, like the segmented ring's merge), and the
//! per-node neighbour table is a flat `4 × len` copy of the torus CSR, so
//! the departure loop runs on a fixed degree of 4 with no offset-array
//! indirection. Whether that pays per core is a measurement: see the
//! single-worker ratios of the `engine_throughput` bench.

use crate::bitset::VisitSet;
use crate::init::PointerInit;
use crate::EngineState;
use rotor_graph::{builders, NodeId};

/// Every torus node has exactly four ports (`rows, cols ≥ 3` means no
/// self-loops and no parallel edges).
const DEG: u32 = 4;

/// One contiguous row band `[lo, hi)` of the torus, owning every piece of
/// mutable state for its nodes. Bands only ever touch their own arrays
/// during the departure and absorb phases, which is what makes the
/// scoped-thread fan-out safe without any locking.
#[derive(Clone, Debug)]
struct Band {
    /// First owned node (inclusive; `row_lo · cols`).
    lo: u32,
    /// Last owned node (exclusive; `row_hi · cols`).
    hi: u32,
    /// Torus width — the length of every boundary-row message.
    cols: u32,
    /// Global index of the first node of the row cyclically *above* the
    /// band (`((row_lo − 1) mod rows) · cols`): where `up_out` lands.
    up_base: u32,
    /// Global index of the first node of the row cyclically *below*
    /// (`(row_hi mod rows) · cols`): where `down_out` lands.
    down_base: u32,
    /// Port pointers for nodes `lo..hi`, indexed by `v − lo`.
    pointers: Vec<u32>,
    /// Dense agent counts for nodes `lo..hi`.
    agents: Vec<u32>,
    /// Occupied nodes in `[lo, hi)`, sorted ascending (global indices).
    occupied: Vec<u32>,
    /// Flat neighbour table copied from the torus CSR:
    /// `nbrs[4·(v − lo) + p]` is the global destination of port `p` at
    /// `v`. Port order is the builder's insertion order — never assumed,
    /// always copied.
    nbrs: Vec<u32>,
    /// Visited bits over the local index space `0..(hi − lo)`.
    visited: VisitSet,
    /// Never-visited nodes in this band.
    unvisited: u32,
    /// Per-column agent counts leaving across the top boundary this
    /// round (destination row `up_base / cols`).
    up_out: Vec<u32>,
    /// Per-column agent counts leaving across the bottom boundary.
    down_out: Vec<u32>,
    /// Boundary arrivals handed over at the barrier, applied to the
    /// band's first row.
    in_first: Vec<u32>,
    /// Boundary arrivals for the band's last row.
    in_last: Vec<u32>,
    /// Scratch buffer of in-band `(dest, count)` arrivals — buffered
    /// exactly like the serial engine's two-phase round, never applied
    /// while departures are still reading the counts.
    arrivals: Vec<(u32, u32)>,
    /// Scratch buffer for the next occupied-node list.
    next_occupied: Vec<u32>,
}

impl Band {
    fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Departure phase: the exact held/moving split and
    /// `full`-cycles-plus-`rem`-ports arithmetic of
    /// [`Engine::step_delayed`](crate::Engine::step_delayed), with
    /// out-of-band destinations diverted into the two boundary-row
    /// buffers. In-band arrivals are applied at the end of the phase,
    /// after every departure has read its count.
    fn depart(&mut self, delay: Option<&(dyn Fn(u32, u32) -> u32 + Sync)>) {
        if self.unvisited > 0 {
            self.depart_inner::<true>(delay);
        } else {
            self.depart_inner::<false>(delay);
        }
    }

    fn depart_inner<const TRACK: bool>(
        &mut self,
        delay: Option<&(dyn Fn(u32, u32) -> u32 + Sync)>,
    ) {
        self.up_out.fill(0);
        self.down_out.fill(0);
        let mut arrivals = std::mem::take(&mut self.arrivals);
        let mut next_occ = std::mem::take(&mut self.next_occupied);
        arrivals.clear();
        next_occ.clear();
        for i in 0..self.occupied.len() {
            let v = self.occupied[i];
            let li = (v - self.lo) as usize;
            let c = self.agents[li];
            debug_assert!(c > 0);
            let held = match delay {
                Some(d) => d(v, c).min(c),
                None => 0,
            };
            let moving = c - held;
            self.agents[li] = held;
            if held > 0 {
                next_occ.push(v);
            }
            if moving == 0 {
                continue;
            }
            let ptr = self.pointers[li];
            let full = moving / DEG;
            let rem = moving % DEG;
            let base = 4 * li;
            if full == 0 {
                // fewer movers than ports: only ports ptr..ptr+rem−1 fire
                for offset in 0..rem {
                    let p = ptr + offset;
                    let p = if p >= DEG { p - DEG } else { p };
                    let dest = self.nbrs[base + p as usize];
                    self.route(&mut arrivals, dest, 1);
                }
            } else {
                for p in 0..DEG {
                    // ports ptr, ptr+1, …, ptr+rem−1 get one extra agent
                    let offset = (p + DEG - ptr) % DEG;
                    let cnt = full + u32::from(offset < rem);
                    let dest = self.nbrs[base + p as usize];
                    self.route(&mut arrivals, dest, cnt);
                }
            }
            self.pointers[li] = (ptr + moving) % DEG;
        }
        for &(dest, cnt) in &arrivals {
            let d = (dest - self.lo) as usize;
            if self.agents[d] == 0 {
                next_occ.push(dest);
            }
            self.agents[d] += cnt;
            if TRACK && self.visited.insert(d) {
                self.unvisited -= 1;
            }
        }
        self.arrivals = arrivals;
        self.next_occupied = next_occ;
    }

    /// Classifies one departure: in-band destinations join the buffered
    /// local arrivals; the rest land in exactly the row above or the row
    /// below the band (torus neighbours differ by at most one row).
    #[inline]
    fn route(&mut self, arrivals: &mut Vec<(u32, u32)>, dest: u32, cnt: u32) {
        if dest >= self.lo && dest < self.hi {
            arrivals.push((dest, cnt));
            return;
        }
        let col = dest % self.cols;
        if dest - col == self.up_base {
            self.up_out[col as usize] += cnt;
        } else {
            debug_assert_eq!(dest - col, self.down_base, "foreign dest in a boundary row");
            self.down_out[col as usize] += cnt;
        }
    }

    /// Absorb phase (post-barrier): applies the boundary-row arrivals to
    /// the band's first and last rows (the same row, for a single-row
    /// band) and commits the sorted next occupied list.
    fn absorb(&mut self) {
        if self.unvisited > 0 {
            self.absorb_inner::<true>();
        } else {
            self.absorb_inner::<false>();
        }
    }

    fn absorb_inner<const TRACK: bool>(&mut self) {
        let mut next_occ = std::mem::take(&mut self.next_occupied);
        let cols = self.cols as usize;
        let last_base = self.len() - cols;
        for c in 0..cols {
            let cnt = self.in_first[c];
            if cnt == 0 {
                continue;
            }
            if self.agents[c] == 0 {
                next_occ.push(self.lo + c as u32);
            }
            self.agents[c] += cnt;
            if TRACK && self.visited.insert(c) {
                self.unvisited -= 1;
            }
        }
        for c in 0..cols {
            let cnt = self.in_last[c];
            if cnt == 0 {
                continue;
            }
            let d = last_base + c;
            if self.agents[d] == 0 {
                next_occ.push(self.hi - self.cols + c as u32);
            }
            self.agents[d] += cnt;
            if TRACK && self.visited.insert(d) {
                self.unvisited -= 1;
            }
        }
        next_occ.sort_unstable();
        std::mem::swap(&mut self.occupied, &mut next_occ);
        self.next_occupied = next_occ;
        debug_assert!(
            self.occupied.windows(2).all(|w| w[0] < w[1]),
            "band occupied list sorted"
        );
    }
}

/// The multi-agent rotor-router on the `rows × cols` torus, partitioned
/// into `P` contiguous row bands that advance in parallel and exchange
/// their boundary rows of agent counts at a per-round barrier —
/// bit-identical to the serial [`Engine`](crate::Engine) at every `P`
/// (see the module docs for the determinism contract and how the banded
/// kernel differs from the serial one).
///
/// ```
/// use rotor_core::{init::PointerInit, Engine, SegmentedTorus};
/// use rotor_graph::{builders, NodeId};
///
/// let (rows, cols) = (8, 8);
/// let agents = vec![NodeId::new(0), NodeId::new(27)];
/// let g = builders::torus(rows, cols);
/// let mut serial = Engine::new(&g, &agents, &PointerInit::Random(7));
/// let mut banded = SegmentedTorus::new(rows, cols, &agents, &PointerInit::Random(7), 4);
/// let cover = banded.run_until_covered(1_000_000).expect("covers");
/// assert_eq!(Some(cover), serial.run_until_covered(1_000_000));
/// assert_eq!(banded.state(), serial.state());
/// ```
#[derive(Clone, Debug)]
pub struct SegmentedTorus {
    rows: usize,
    cols: usize,
    k: u32,
    round: u64,
    unvisited: usize,
    cover_round: Option<u64>,
    /// Worker threads fanned over bands per phase (`1` = run the bands
    /// sequentially on the calling thread). Never affects results, only
    /// wall-clock.
    workers: usize,
    bands: Vec<Band>,
    /// Barrier scratch: one `(up_out, down_out)` buffer pair per band,
    /// rotated by `mem::swap` so the steady state allocates nothing.
    exchange: Vec<(Vec<u32>, Vec<u32>)>,
}

impl SegmentedTorus {
    /// Creates a banded torus engine with agents at `agents` (a multiset
    /// of nodes) and pointers from `init`, partitioned into `segments`
    /// row bands (clamped to `[1, rows]`). Workers default to 1 — see
    /// [`with_workers`](Self::with_workers).
    ///
    /// # Panics
    ///
    /// Panics if `rows < 3` or `cols < 3` (the torus builder's minimum),
    /// if `agents` is empty or out of range, or if `init` is invalid for
    /// the torus (see [`PointerInit::pointers`]).
    pub fn new(
        rows: usize,
        cols: usize,
        agents: &[NodeId],
        init: &PointerInit,
        segments: usize,
    ) -> Self {
        Self::with_workers(rows, cols, agents, init, segments, 1)
    }

    /// [`new`](Self::new) with an explicit worker-thread count for the
    /// per-phase fan-out (clamped to `[1, P]`). Worker count never
    /// changes any result — bands own disjoint state and the barrier is
    /// a full synchronisation — so callers size it from the machine's
    /// thread budget (`rotor_sweep`'s `split_budget`) independently of
    /// the partition parameter `P`.
    pub fn with_workers(
        rows: usize,
        cols: usize,
        agents: &[NodeId],
        init: &PointerInit,
        segments: usize,
        workers: usize,
    ) -> Self {
        let g = builders::torus(rows, cols);
        let pointers = init.pointers(&g, agents);
        Self::with_pointers(rows, cols, agents, pointers, segments, workers)
    }

    /// [`new`](Self::new) with the band count taken from the
    /// [`SEGMENTS_ENV`](crate::segring::SEGMENTS_ENV) environment
    /// variable (`ROTOR_SEGMENTS`) — the same knob the segmented ring
    /// honours.
    pub fn from_env(rows: usize, cols: usize, agents: &[NodeId], init: &PointerInit) -> Self {
        Self::new(
            rows,
            cols,
            agents,
            init,
            crate::segring::segment_count_from_env(),
        )
    }

    /// Creates a banded torus engine with an explicit pointer vector
    /// (port index per node) — the constructor sweep runners use so the
    /// banded engine starts from the *same* derived pointers as the
    /// serial [`Engine`](crate::Engine).
    ///
    /// # Panics
    ///
    /// Panics if `rows < 3` or `cols < 3`, `agents` is empty, or any
    /// position/pointer is out of range.
    pub fn with_pointers(
        rows: usize,
        cols: usize,
        agents: &[NodeId],
        pointers: Vec<u32>,
        segments: usize,
        workers: usize,
    ) -> Self {
        let g = builders::torus(rows, cols);
        let n = rows * cols;
        assert!(!agents.is_empty(), "need at least one agent");
        assert_eq!(pointers.len(), n, "pointer vector length");
        for (v, &ptr) in pointers.iter().enumerate() {
            assert!(ptr < DEG, "pointer out of range at node {v}");
        }
        let mut count = vec![0u32; n];
        for &a in agents {
            assert!(a.index() < n, "agent position out of range");
            count[a.index()] += 1;
        }
        let p = segments.clamp(1, rows);
        let workers = workers.clamp(1, p);
        let mut bands = Vec::with_capacity(p);
        for s in 0..p {
            let row_lo = s * rows / p;
            let row_hi = (s + 1) * rows / p;
            let lo = (row_lo * cols) as u32;
            let hi = (row_hi * cols) as u32;
            let len = (hi - lo) as usize;
            let mut nbrs = vec![0u32; 4 * len];
            for (li, chunk) in nbrs.chunks_exact_mut(4).enumerate() {
                let v = NodeId::new(lo + li as u32);
                debug_assert_eq!(g.degree(v), 4, "torus nodes are 4-regular");
                chunk.copy_from_slice(g.neighbor_slice(v));
            }
            let mut visited = VisitSet::new(len);
            let mut unvisited = len as u32;
            let mut occupied = Vec::new();
            let mut dense = vec![0u32; len];
            for v in lo..hi {
                let c = count[v as usize];
                if c > 0 {
                    occupied.push(v);
                    dense[(v - lo) as usize] = c;
                    if visited.insert((v - lo) as usize) {
                        unvisited -= 1;
                    }
                }
            }
            bands.push(Band {
                lo,
                hi,
                cols: cols as u32,
                up_base: (((row_lo + rows - 1) % rows) * cols) as u32,
                down_base: ((row_hi % rows) * cols) as u32,
                pointers: pointers[lo as usize..hi as usize].to_vec(),
                agents: dense,
                occupied,
                nbrs,
                visited,
                unvisited,
                up_out: vec![0; cols],
                down_out: vec![0; cols],
                in_first: vec![0; cols],
                in_last: vec![0; cols],
                arrivals: Vec::new(),
                next_occupied: Vec::new(),
            });
        }
        let unvisited: usize = bands.iter().map(|b| b.unvisited as usize).sum();
        SegmentedTorus {
            rows,
            cols,
            k: agents.len() as u32,
            round: 0,
            unvisited,
            cover_round: (unvisited == 0).then_some(0),
            workers,
            bands,
            exchange: vec![(vec![0; cols], vec![0; cols]); p],
        }
    }

    /// Torus rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Torus columns (the boundary-message length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The partition parameter `P` actually in effect (after clamping).
    pub fn segment_count(&self) -> usize {
        self.bands.len()
    }

    /// Worker threads used for the per-phase fan-out.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Number of agents `k`.
    pub fn agent_count(&self) -> u32 {
        self.k
    }

    /// Completed rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current port pointer `π_v`.
    pub fn pointer(&self, v: NodeId) -> u32 {
        let b = &self.bands[self.band_index(v.value())];
        b.pointers[(v.value() - b.lo) as usize]
    }

    /// Agents currently at `v`.
    pub fn agents_at(&self, v: NodeId) -> u32 {
        let b = &self.bands[self.band_index(v.value())];
        b.agents[(v.value() - b.lo) as usize]
    }

    /// Sorted list of nodes currently holding at least one agent
    /// (concatenating the bands preserves global sort order).
    pub fn occupied(&self) -> Vec<u32> {
        self.bands
            .iter()
            .flat_map(|b| b.occupied.iter().copied())
            .collect()
    }

    /// Whether `v` has ever been visited (or initially held an agent).
    pub fn is_visited(&self, v: NodeId) -> bool {
        let b = &self.bands[self.band_index(v.value())];
        b.visited.contains((v.value() - b.lo) as usize)
    }

    /// Number of never-visited nodes.
    pub fn unvisited_count(&self) -> usize {
        self.unvisited
    }

    /// The round at which the last node was first visited, if covering
    /// has happened (`Some(0)` if the initial placement already covers).
    pub fn cover_round(&self) -> Option<u64> {
        self.cover_round
    }

    /// Snapshot of the mutable configuration — the same
    /// [`EngineState`] as [`Engine::state`](crate::Engine::state), so
    /// equality (and Brent cycle probing over it) is directly comparable
    /// across the two engines.
    pub fn state(&self) -> EngineState {
        EngineState {
            pointers: self
                .bands
                .iter()
                .flat_map(|b| b.pointers.iter().copied())
                .collect(),
            agents: self
                .bands
                .iter()
                .flat_map(|b| b.agents.iter().copied())
                .collect(),
        }
    }

    /// Which band owns global node `v`.
    fn band_index(&self, v: u32) -> usize {
        let p = self.bands.len();
        let row = (v / self.cols as u32) as usize;
        // The balanced row partition makes row·P/rows at most one band
        // off.
        let mut s = (row * p / self.rows).min(p - 1);
        while self.bands[s].lo > v {
            s -= 1;
        }
        while self.bands[s].hi <= v {
            s += 1;
        }
        s
    }

    /// Runs `f` over every band — sequentially, or fanned over up to
    /// `workers` scoped threads. Bands own disjoint state, so the
    /// fan-out is pure data parallelism; the scope join is the barrier.
    fn for_each_band(&mut self, f: impl Fn(&mut Band) + Sync) {
        let p = self.bands.len();
        if self.workers <= 1 || p <= 1 {
            for b in &mut self.bands {
                f(b);
            }
            return;
        }
        let chunk = p.div_ceil(self.workers.min(p));
        let f = &f;
        std::thread::scope(|scope| {
            for part in self.bands.chunks_mut(chunk) {
                scope.spawn(move || {
                    for b in part {
                        f(b);
                    }
                });
            }
        });
    }

    /// One synchronous round: parallel departures, boundary-row exchange
    /// at the barrier, parallel absorbs, then `O(P)` cover accounting.
    fn step_round(&mut self, delay: Option<&(dyn Fn(u32, u32) -> u32 + Sync)>) {
        self.round += 1;
        self.for_each_band(|b| b.depart(delay));
        let p = self.bands.len();
        for s in 0..p {
            std::mem::swap(&mut self.bands[s].up_out, &mut self.exchange[s].0);
            std::mem::swap(&mut self.bands[s].down_out, &mut self.exchange[s].1);
        }
        for s in 0..p {
            // Band s's first row is the previous band's "row below"; its
            // last row is the next band's "row above" (cyclically).
            std::mem::swap(
                &mut self.bands[s].in_first,
                &mut self.exchange[(s + p - 1) % p].1,
            );
            std::mem::swap(
                &mut self.bands[s].in_last,
                &mut self.exchange[(s + 1) % p].0,
            );
        }
        self.for_each_band(|b| b.absorb());
        if self.unvisited > 0 {
            self.unvisited = self.bands.iter().map(|b| b.unvisited as usize).sum();
            if self.unvisited == 0 && self.cover_round.is_none() {
                self.cover_round = Some(self.round);
            }
        }
        debug_assert_eq!(
            self.bands
                .iter()
                .flat_map(|b| b.agents.iter())
                .map(|&c| u64::from(c))
                .sum::<u64>(),
            u64::from(self.k),
            "agents conserved"
        );
    }

    /// Advances one synchronous round: every agent moves.
    pub fn step(&mut self) {
        self.step_round(None);
    }

    /// Advances one round of a *delayed deployment* (§2.1): `delay(v, c)`
    /// agents of the `c` at node `v` stay put (clamped to `c`). The
    /// schedule must be a pure function (`Fn + Sync`) because bands may
    /// query it from worker threads;
    /// [`Engine::step_delayed`](crate::Engine::step_delayed)'s `FnMut`
    /// surface is deliberately narrowed here.
    pub fn step_delayed(&mut self, delay: impl Fn(u32, u32) -> u32 + Sync) {
        self.step_round(Some(&delay));
    }

    /// Runs until every node has been visited, or gives up after
    /// `max_rounds` total rounds.
    pub fn run_until_covered(&mut self, max_rounds: u64) -> Option<u64> {
        while self.cover_round.is_none() && self.round < max_rounds {
            self.step();
        }
        self.cover_round
    }

    /// Runs `rounds` additional rounds (undelayed).
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Fault injection: scrambles `count` port pointers — the exact
    /// seed-chained draw sequence of
    /// [`Engine::corrupt_pointers`](crate::Engine::corrupt_pointers)
    /// (every torus degree is 4, so the per-draw modulus agrees).
    pub fn corrupt_pointers(&mut self, seed: u64, count: u32) -> u32 {
        let n = (self.rows * self.cols) as u64;
        let mut s = seed;
        let mut changed = 0;
        for _ in 0..count {
            s = crate::rng::splitmix64(s);
            let v = (s % n) as u32;
            let new_ptr = ((s >> 32) % u64::from(DEG)) as u32;
            let bi = self.band_index(v);
            let b = &mut self.bands[bi];
            let li = (v - b.lo) as usize;
            changed += u32::from(b.pointers[li] != new_ptr);
            b.pointers[li] = new_ptr;
        }
        changed
    }

    /// Fault injection: crashes up to `count` agents (always leaving at
    /// least one) — the exact draw sequence of
    /// [`Engine::remove_agents`](crate::Engine::remove_agents): the
    /// global occupied list is the concatenation of the per-band lists,
    /// so indexing it by walking the bands reproduces the serial draws.
    pub fn remove_agents(&mut self, seed: u64, count: u32) -> u32 {
        let mut s = seed;
        let mut removed = 0;
        for _ in 0..count {
            if self.k <= 1 {
                break;
            }
            s = crate::rng::splitmix64(s);
            let total: u64 = self.bands.iter().map(|b| b.occupied.len() as u64).sum();
            let mut i = (s % total) as usize;
            for b in &mut self.bands {
                if i < b.occupied.len() {
                    let v = b.occupied[i];
                    let li = (v - b.lo) as usize;
                    b.agents[li] -= 1;
                    if b.agents[li] == 0 {
                        b.occupied.remove(i);
                    }
                    break;
                }
                i -= b.occupied.len();
            }
            self.k -= 1;
            removed += 1;
        }
        removed
    }

    /// Starts a fresh cover epoch from the current configuration, exactly
    /// like [`Engine::reset_cover_epoch`](crate::Engine::reset_cover_epoch):
    /// only the currently occupied nodes count as visited and the cover
    /// round is cleared (unless the occupation alone already covers).
    pub fn reset_cover_epoch(&mut self) {
        for b in &mut self.bands {
            let len = b.len();
            let mut visited = VisitSet::new(len);
            for &v in &b.occupied {
                visited.insert((v - b.lo) as usize);
            }
            b.visited = visited;
            b.unvisited = len as u32 - b.occupied.len() as u32;
        }
        self.unvisited = self.bands.iter().map(|b| b.unvisited as usize).sum();
        self.cover_round = (self.unvisited == 0).then_some(self.round);
    }
}

impl crate::CoverProcess for SegmentedTorus {
    fn kind_name(&self) -> &'static str {
        "rotor_torus_seg"
    }

    fn node_count(&self) -> usize {
        self.rows * self.cols
    }

    fn round(&self) -> u64 {
        SegmentedTorus::round(self)
    }

    fn step(&mut self) {
        SegmentedTorus::step(self);
    }

    fn cover_round(&self) -> Option<u64> {
        SegmentedTorus::cover_round(self)
    }

    fn visited_count(&self) -> usize {
        self.rows * self.cols - self.unvisited
    }

    fn is_node_visited(&self, node: usize) -> bool {
        self.is_visited(NodeId::new(node as u32))
    }
    // domain_stats: the default O(n) scan, exactly like the serial
    // Engine — the two backends must agree on every sampled round.
}

impl crate::limit::ConfigSnapshot for SegmentedTorus {
    type Config = EngineState;

    fn config(&self) -> EngineState {
        self.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use crate::{CoverProcess, Engine};

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().map(|&x| NodeId::new(x)).collect()
    }

    #[test]
    fn row_partition_covers_every_node_once() {
        for rows in [3usize, 4, 7, 16] {
            for p in [1usize, 2, 3, 4, 7, 16] {
                let t = SegmentedTorus::new(rows, 5, &ids(&[0]), &PointerInit::Uniform(0), p);
                assert!(t.segment_count() >= 1 && t.segment_count() <= rows);
                let mut covered = 0u32;
                for (i, b) in t.bands.iter().enumerate() {
                    assert!(b.lo < b.hi, "non-empty band");
                    assert_eq!((b.hi - b.lo) % 5, 0, "bands are whole rows");
                    covered += b.hi - b.lo;
                    assert_eq!(t.band_index(b.lo), i);
                    assert_eq!(t.band_index(b.hi - 1), i);
                }
                assert_eq!(covered, (rows * 5) as u32);
            }
        }
    }

    #[test]
    fn band_count_clamps_to_rows() {
        let t = SegmentedTorus::new(4, 8, &ids(&[0]), &PointerInit::Uniform(0), 99);
        assert_eq!(t.segment_count(), 4);
        assert_eq!(t.kind_name(), "rotor_torus_seg");
    }

    #[test]
    fn boundary_rows_are_the_cyclic_neighbours() {
        let t = SegmentedTorus::new(6, 4, &ids(&[0]), &PointerInit::Uniform(0), 3);
        let p = t.bands.len();
        for (s, b) in t.bands.iter().enumerate() {
            let prev = &t.bands[(s + p - 1) % p];
            let next = &t.bands[(s + 1) % p];
            assert_eq!(b.down_base, next.lo, "down row is the next band's first");
            assert_eq!(
                b.up_base,
                prev.hi - prev.cols,
                "up row is the previous band's last"
            );
        }
    }

    #[test]
    fn matches_serial_engine_on_a_small_torus() {
        let (rows, cols) = (5, 7);
        let g = builders::torus(rows, cols);
        let agents = ids(&[0, 0, 12, 30]);
        let init = PointerInit::Random(42);
        let mut serial = Engine::new(&g, &agents, &init);
        let mut banded = SegmentedTorus::new(rows, cols, &agents, &init, 3);
        for round in 0..400u64 {
            assert_eq!(banded.state(), serial.state(), "round {round}");
            assert_eq!(banded.cover_round(), serial.cover_round(), "round {round}");
            serial.step();
            banded.step();
        }
    }

    #[test]
    fn worker_count_never_changes_results() {
        let (rows, cols) = (12, 6);
        let starts = Placement::Random(11).positions(rows * cols, 7);
        let agents = ids(&starts);
        let init = PointerInit::Random(5);
        let mut one = SegmentedTorus::with_workers(rows, cols, &agents, &init, 4, 1);
        let mut two = SegmentedTorus::with_workers(rows, cols, &agents, &init, 4, 2);
        assert_eq!(two.worker_count(), 2);
        for _ in 0..500 {
            one.step();
            two.step();
            assert_eq!(one.state(), two.state());
            assert_eq!(one.cover_round(), two.cover_round());
        }
    }

    #[test]
    fn covers_and_conserves_agents() {
        let (rows, cols) = (9, 9);
        let mut t = SegmentedTorus::new(rows, cols, &ids(&[0, 0, 40]), &PointerInit::Uniform(0), 4);
        let cover = t.run_until_covered(1_000_000).expect("covers the torus");
        assert!(cover > 0);
        let total: u32 = t
            .occupied()
            .iter()
            .map(|&v| t.agents_at(NodeId::new(v)))
            .sum();
        assert_eq!(total, 3);
        assert_eq!(t.visited_count(), rows * cols);
    }
}
