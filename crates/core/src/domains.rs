//! Agent domains and visit-type classification (§2.2, Fig. 1).
//!
//! The paper's ring analysis partitions time into visits of two *types*: a
//! single agent arriving at a node whose pointer points onward continues
//! through (a **propagation**), while one arriving against the pointer is
//! sent back where it came from (a **reflection**). Nodes where two agents
//! arrive in the same round are **meeting** points, and the domains of the
//! proofs are the maximal contiguous visited segments of the ring in which
//! an agent zig-zags between its two borders.
//!
//! The [`RingRouter`] keeps only the visited set and the domain/border
//! counters. The per-visit metadata the classification needs comes from
//! [`VisitLog`], an opt-in observer that replays each round from the
//! previous configuration. This module exposes that classification plus
//! the current domain (visited-segment) structure used by the §2.2
//! arguments.

use crate::init::{ACW, CW};
use crate::process::{CoverProcess, Observer};
use crate::ring::RingRouter;

/// The §2.2 domain/border structure of a configuration, in the cyclic
/// index space `0..n`.
///
/// `domains` is the number of maximal contiguous visited segments (1 once
/// everything is visited — the full ring is a single cyclic domain);
/// `borders` is the number of visited nodes cyclically adjacent to an
/// unvisited node (0 once everything is visited).
///
/// Obtained from any backend through
/// [`CoverProcess::domain_stats`]: the [`RingRouter`] maintains these
/// counters *incrementally* (`O(agents moved)` per round, `O(1)` per
/// query); the general [`Engine`](crate::Engine) and the random walks
/// answer with one word-wise pass over their visited set,
/// [`VisitSet::domain_stats`](crate::bitset::VisitSet::domain_stats)
/// (`O(n / 64)`); a backend without a packed visited set falls back to
/// the `O(n)` [`scan_domain_stats`] over [`CoverProcess::is_node_visited`].
/// Property tests pin every path bit-identical to the scan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DomainStats {
    /// Maximal contiguous visited segments (cyclically; 1 at full cover).
    pub domains: u32,
    /// Visited nodes cyclically adjacent to an unvisited node.
    pub borders: u32,
}

/// Reference `O(n)` computation of [`DomainStats`] for any
/// [`CoverProcess`]: one scan over
/// [`is_node_visited`](CoverProcess::is_node_visited) in the cyclic index
/// space — the default body of [`CoverProcess::domain_stats`] and the
/// ground truth the [`RingRouter`]'s incremental counters and the
/// word-wise [`VisitSet::domain_stats`](crate::bitset::VisitSet::domain_stats)
/// are property-tested against.
pub fn scan_domain_stats<P: CoverProcess + ?Sized>(p: &P) -> DomainStats {
    let n = p.node_count();
    let mut domains = 0u32;
    let mut borders = 0u32;
    for v in 0..n {
        if !p.is_node_visited(v) {
            continue;
        }
        let prev = p.is_node_visited(if v == 0 { n - 1 } else { v - 1 });
        let next = p.is_node_visited(if v + 1 == n { 0 } else { v + 1 });
        domains += u32::from(!prev);
        borders += u32::from(!prev || !next);
    }
    // A fully covered ring is a single cyclic domain with no
    // visited/unvisited transition for the scan to count.
    if p.visited_count() == n {
        domains = 1;
    }
    DomainStats { domains, borders }
}

/// The §2.2 classification of the most recent visit to a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VisitType {
    /// The node has only held its initially placed agents (round 0).
    Initial,
    /// A single agent passed through, continuing in its direction of
    /// motion.
    Propagation,
    /// A single agent was turned back the way it came.
    Reflection,
    /// Two or more agents entered the node in the same round.
    Meeting,
}

/// Metadata about the most recent visit to a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VisitRecord {
    /// Round of the visit (`0` for the initial placement).
    pub round: u64,
    /// Number of agents that entered in that round (initial placement:
    /// number of agents placed).
    pub multiplicity: u32,
    /// Direction of motion of the arriving agents: [`CW`] if any arrived
    /// from `v−1` moving clockwise, else [`ACW`]. Meaningful when
    /// `multiplicity == 1` and `round > 0`.
    pub entry_dir: u8,
    /// Whether a single-agent visit was a propagation (§2.2). `false` for
    /// multi-agent visits and for the initial placement.
    pub propagation: bool,
}

/// An [`Observer`] of a [`RingRouter`] that keeps the last [`VisitRecord`]
/// of every node, for the §2.2 visit-type classification.
///
/// The router does not record visits itself. The log replays each
/// observed round from the occupied list it saw one round earlier. In an
/// undelayed round every agent moves, so a node that sent `c` agents had
/// the pre-round pointer `direction(v) ^ (c & 1)`. That fixes each
/// departure, and with it every node's arrival multiplicity and entry
/// side, in `O(k)` per round. A single arrival propagates iff the node's
/// post-round pointer points onward.
///
/// The log must see every round, every round must be undelayed, and the
/// agent count must not change between rounds. It panics if a round is
/// skipped or if its replay does not reproduce the router's occupied list.
/// Pointer corruption between rounds is harmless: the replay reads only
/// post-round pointers. The configuration it first observes counts as the
/// initial placement (round-`0` records) only when that observation is at
/// round 0; a log attached later records only the visits it sees. A
/// repeated observation of the same round is ignored, so one log can
/// follow several `run_observed` calls. Nothing is allocated or computed
/// unless it is attached.
///
/// ```
/// use rotor_core::domains::{classify_last, VisitLog, VisitType};
/// use rotor_core::{CoverProcess, RingRouter};
///
/// let mut r = RingRouter::new(6, &[1], &[0; 6]); // all pointers clockwise
/// let mut log = VisitLog::new();
/// r.run_observed(1, &mut log); // round 0 and round 1
/// assert_eq!(classify_last(&log, 1), Some(VisitType::Initial));
/// assert_eq!(classify_last(&log, 2), Some(VisitType::Propagation));
/// assert_eq!(classify_last(&log, 3), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct VisitLog {
    /// Last record per node; `multiplicity == 0` marks a node never seen
    /// visited.
    records: Vec<VisitRecord>,
    /// Round of the last observation, `None` before the first.
    round: Option<u64>,
    /// Occupied list of the last observation.
    prev_nodes: Vec<u32>,
    prev_counts: Vec<u32>,
}

impl VisitLog {
    /// An empty log; attach it from round 0 to see the initial placement.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recent visit to `v` the log has seen, or `None` if it has
    /// seen none.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range of an observed ring.
    pub fn last_visit(&self, v: u32) -> Option<VisitRecord> {
        self.records
            .get(v as usize)
            .copied()
            .filter(|r| r.multiplicity > 0)
    }

    /// Adds `count` arrivals in `round` from side `entry_dir` to `rec`. A
    /// clockwise arrival sets the entry side whatever the order.
    fn arrive(rec: &mut VisitRecord, round: u64, count: u32, entry_dir: u8) {
        if rec.round != round {
            *rec = VisitRecord {
                round,
                multiplicity: 0,
                entry_dir,
                propagation: false,
            };
        }
        rec.multiplicity += count;
        if entry_dir == CW {
            rec.entry_dir = CW;
        }
    }
}

impl Observer<RingRouter> for VisitLog {
    fn observe(&mut self, r: &RingRouter) {
        let round = r.round();
        match self.round {
            Some(prev) if prev == round => return,
            Some(prev) => {
                assert_eq!(prev + 1, round, "VisitLog must observe every round");
                assert_eq!(
                    self.prev_counts.iter().sum::<u32>(),
                    r.agent_count(),
                    "VisitLog cannot replay a round after agents were removed"
                );
                let records = &mut self.records;
                for (&v, &c) in self.prev_nodes.iter().zip(&self.prev_counts) {
                    let pre = r.direction(v) ^ (c & 1) as u8;
                    let (with_ptr, against) = (c.div_ceil(2), c / 2);
                    let (cw_cnt, acw_cnt) = if pre == CW {
                        (with_ptr, against)
                    } else {
                        (against, with_ptr)
                    };
                    if cw_cnt > 0 {
                        Self::arrive(&mut records[r.cw(v) as usize], round, cw_cnt, CW);
                    }
                    if acw_cnt > 0 {
                        Self::arrive(&mut records[r.acw(v) as usize], round, acw_cnt, ACW);
                    }
                }
                for (&v, &c) in r.occupied_nodes().iter().zip(r.occupied_counts()) {
                    let rec = &mut records[v as usize];
                    assert!(
                        rec.round == round && rec.multiplicity == c,
                        "VisitLog replay of round {round} disagrees at node {v}: \
                         delayed or perturbed rounds cannot be replayed"
                    );
                    rec.propagation = c == 1 && r.direction(v) == rec.entry_dir;
                }
            }
            None => {
                self.records = vec![
                    VisitRecord {
                        round: 0,
                        multiplicity: 0,
                        entry_dir: CW,
                        propagation: false,
                    };
                    r.n() as usize
                ];
                if round == 0 {
                    for (&v, &c) in r.occupied_nodes().iter().zip(r.occupied_counts()) {
                        self.records[v as usize].multiplicity = c;
                    }
                }
            }
        }
        self.round = Some(round);
        self.prev_nodes.clear();
        self.prev_nodes.extend_from_slice(r.occupied_nodes());
        self.prev_counts.clear();
        self.prev_counts.extend_from_slice(r.occupied_counts());
    }
}

/// Classifies a visit record.
///
/// ```
/// use rotor_core::domains::{classify, VisitLog, VisitType};
/// use rotor_core::{CoverProcess, RingRouter};
///
/// let mut r = RingRouter::new(6, &[1], &[0; 6]); // all pointers clockwise
/// let mut log = VisitLog::new();
/// r.run_observed(1, &mut log);
/// // node 2's pointer is clockwise, so the clockwise arrival propagates
/// assert_eq!(classify(&log.last_visit(2).unwrap()), VisitType::Propagation);
/// ```
pub fn classify(rec: &VisitRecord) -> VisitType {
    if rec.round == 0 {
        VisitType::Initial
    } else if rec.multiplicity >= 2 {
        VisitType::Meeting
    } else if rec.propagation {
        VisitType::Propagation
    } else {
        VisitType::Reflection
    }
}

/// Classifies the most recent visit to `v` that `log` has seen, or `None`
/// if it has seen none.
pub fn classify_last(log: &VisitLog, v: u32) -> Option<VisitType> {
    log.last_visit(v).as_ref().map(classify)
}

/// A maximal contiguous segment of visited ring nodes: `len` nodes starting
/// at `start` and extending clockwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Domain {
    /// First node of the segment (anticlockwise end).
    pub start: u32,
    /// Number of nodes in the segment (`n` when the whole ring is covered).
    pub len: u32,
}

impl Domain {
    /// Whether `v` lies in this domain on an `n`-node ring.
    pub fn contains(&self, n: u32, v: u32) -> bool {
        (v + n - self.start) % n < self.len
    }
}

/// The maximal contiguous visited segments of the ring, in increasing order
/// of `start`.
///
/// Initially these are the agents' starting positions; they grow as
/// exploration proceeds and merge when two explored segments meet. Once the
/// cover time is reached there is a single domain of length `n`.
pub fn visited_domains(router: &RingRouter) -> Vec<Domain> {
    let n = router.n();
    let mut runs: Vec<Domain> = Vec::new();
    let mut current: Option<(u32, u32)> = None; // (start, len)
    for v in 0..n {
        if router.is_visited(v) {
            match current.as_mut() {
                Some((_, len)) => *len += 1,
                None => current = Some((v, 1)),
            }
        } else if let Some((start, len)) = current.take() {
            runs.push(Domain { start, len });
        }
    }
    if let Some((start, len)) = current.take() {
        runs.push(Domain { start, len });
    }
    // Merge a run ending at n−1 with one starting at 0 (cyclic wrap), unless
    // they are the same run covering the whole ring.
    if runs.len() >= 2 {
        let first = runs[0];
        let last = *runs.last().expect("non-empty");
        if first.start == 0 && last.start + last.len == n {
            runs.pop();
            runs[0] = Domain {
                start: last.start,
                len: last.len + first.len,
            };
        }
    }
    runs.sort_unstable_by_key(|d| d.start);
    runs
}

/// Number of *border* nodes: visited nodes adjacent to an unvisited node
/// (both ends of every unfinished domain; 0 once the ring is covered).
pub fn border_count(router: &RingRouter) -> u32 {
    let n = router.n();
    (0..n)
        .filter(|&v| {
            router.is_visited(v)
                && (!router.is_visited((v + 1) % n) || !router.is_visited((v + n - 1) % n))
        })
        .count() as u32
}

/// One sampled observation of the domain structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DomainSample {
    /// Round the sample was taken at (0 = initial configuration).
    pub round: u64,
    /// Nodes visited so far.
    pub visited: usize,
    /// Maximal contiguous visited ring segments.
    pub domains: u32,
    /// Visited nodes adjacent (cyclically) to an unvisited node.
    pub borders: u32,
}

/// An [`Observer`] sampling the §2.2 domain/border structure every
/// `stride` rounds (plus the initial configuration and the covering
/// round), on *any* [`CoverProcess`] backend.
///
/// Domains are counted in the cyclic index space `0..node_count()` — the
/// ring topology of the paper's analysis — using only the
/// [`CoverProcess::is_node_visited`] surface, so the sampler attaches
/// equally to the ring engine, the general engine and the random-walk
/// baseline without forking any drive loop. Each sample reads
/// [`CoverProcess::domain_stats`]: `O(1)` on the [`RingRouter`] (which
/// maintains the counters incrementally), one `O(n / 64)` word-wise pass
/// on the general engine and the walks, and the `O(n)` scan only on a
/// backend without a packed visited set — so the stride bounds the
/// sample buffer more than the sampling cost.
///
/// ```
/// use rotor_core::domains::DomainSampler;
/// use rotor_core::{init::PointerInit, placement::Placement, CoverProcess, RingRouter};
///
/// let starts = Placement::EquallySpaced { offset: 0 }.positions(64, 4);
/// let dirs = PointerInit::TowardNearestAgent.ring_directions(64, &starts);
/// let mut r = RingRouter::new(64, &starts, &dirs);
/// let mut sampler = DomainSampler::every(8);
/// r.run_observed(1_000_000, &mut sampler);
/// let last = sampler.samples.last().unwrap();
/// assert_eq!((last.domains, last.borders), (1, 0), "covered ring: one domain");
/// ```
#[derive(Clone, Debug)]
pub struct DomainSampler {
    stride: u64,
    /// Samples in round order.
    pub samples: Vec<DomainSample>,
}

impl DomainSampler {
    /// A sampler recording every `stride`-th round (and always round 0 and
    /// the covering round).
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn every(stride: u64) -> Self {
        assert!(stride > 0, "sampling stride must be positive");
        DomainSampler {
            stride,
            samples: Vec::new(),
        }
    }
}

impl<P: CoverProcess + ?Sized> Observer<P> for DomainSampler {
    fn observe(&mut self, p: &P) {
        let round = p.round();
        let at_cover = p.cover_round() == Some(round);
        if !round.is_multiple_of(self.stride) && !at_cover {
            return;
        }
        let DomainStats { domains, borders } = p.domain_stats();
        self.samples.push(DomainSample {
            round,
            visited: p.visited_count(),
            domains,
            borders,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{PointerInit, ACW, CW};
    use crate::placement::Placement;

    /// Runs `rounds` rounds of `r` with a fresh [`VisitLog`] attached.
    fn logged(mut r: RingRouter, rounds: u64) -> VisitLog {
        let mut log = VisitLog::new();
        log.observe(&r);
        for _ in 0..rounds {
            r.step();
            log.observe(&r);
        }
        log
    }

    #[test]
    fn classify_all_variants() {
        // Initial: untouched starting node.
        let log = logged(RingRouter::new(8, &[3], &[CW; 8]), 0);
        assert_eq!(classify_last(&log, 3), Some(VisitType::Initial));
        assert_eq!(classify_last(&log, 0), None);

        // Propagation: arrival with the pointer.
        let log = logged(RingRouter::new(8, &[3], &[CW; 8]), 1);
        assert_eq!(classify_last(&log, 4), Some(VisitType::Propagation));

        // Reflection: arrival against the pointer.
        let mut dirs = vec![CW; 8];
        dirs[4] = ACW;
        let log = logged(RingRouter::new(8, &[3], &dirs), 1);
        assert_eq!(classify_last(&log, 4), Some(VisitType::Reflection));

        // Meeting: two agents converge.
        let mut dirs = vec![CW; 8];
        dirs[5] = ACW;
        let log = logged(RingRouter::new(8, &[3, 5], &dirs), 1);
        assert_eq!(classify_last(&log, 4), Some(VisitType::Meeting));
    }

    #[test]
    fn visit_log_skips_repeat_observations_and_rejects_gaps() {
        let mut r = RingRouter::new(8, &[3], &[CW; 8]);
        let mut log = VisitLog::new();
        log.observe(&r);
        log.observe(&r); // same round again: a no-op
        r.step();
        log.observe(&r);
        assert_eq!(log.last_visit(4).map(|v| v.round), Some(1));
        r.step();
        r.step();
        let gap = std::panic::catch_unwind(move || log.observe(&r));
        assert!(gap.is_err(), "a skipped round must not be replayed");
    }

    #[test]
    fn visit_log_attached_late_records_only_what_it_sees() {
        let mut r = RingRouter::new(8, &[3], &[CW; 8]);
        r.step();
        let mut log = VisitLog::new();
        log.observe(&r);
        assert_eq!(log.last_visit(4), None, "no record before attaching");
        r.step();
        log.observe(&r);
        assert_eq!(classify_last(&log, 5), Some(VisitType::Propagation));
    }

    #[test]
    fn visit_log_rejects_delayed_rounds() {
        let mut r = RingRouter::new(8, &[3], &[CW; 8]);
        let mut log = VisitLog::new();
        log.observe(&r);
        r.step_delayed(|_, c| c);
        let held = std::panic::catch_unwind(move || log.observe(&r));
        assert!(held.is_err(), "a held agent has no replayable departure");
    }

    #[test]
    fn domains_start_at_placements_and_merge_to_ring() {
        let n = 32;
        let starts = Placement::EquallySpaced { offset: 0 }.positions(n, 4);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let mut r = RingRouter::new(n, &starts, &dirs);
        let d0 = visited_domains(&r);
        assert_eq!(d0.len(), 4, "one domain per isolated start");
        assert!(d0.iter().all(|d| d.len == 1));
        assert_eq!(
            border_count(&r),
            4,
            "singleton domains have one border node"
        );

        let cover = r.run_until_covered(100_000).expect("covers");
        assert!(cover > 0);
        let d1 = visited_domains(&r);
        assert_eq!(
            d1,
            vec![Domain {
                start: 0,
                len: n as u32
            }]
        );
        assert_eq!(border_count(&r), 0);
    }

    #[test]
    fn domains_wrap_around_zero() {
        // Visited nodes straddling position 0 form one cyclic domain.
        let mut r = RingRouter::new(10, &[9], &[CW; 10]);
        r.step(); // agent 9 -> 0
        r.step(); // agent 0 -> 1
        let d = visited_domains(&r);
        assert_eq!(d, vec![Domain { start: 9, len: 3 }]);
        assert!(d[0].contains(10, 9));
        assert!(d[0].contains(10, 0));
        assert!(d[0].contains(10, 1));
        assert!(!d[0].contains(10, 2));
        assert_eq!(border_count(&r), 2);
    }

    #[test]
    fn sampler_agrees_with_full_scan_on_ring_router() {
        let n = 48;
        let starts = Placement::Random(5).positions(n, 4);
        let dirs = PointerInit::Random(9).ring_directions(n, &starts);
        let mut r = RingRouter::new(n, &starts, &dirs);
        let mut sampler = DomainSampler::every(1);
        // Drive manually so each sample can be checked against the
        // reference scan of the same configuration.
        use crate::process::Observer;
        sampler.observe(&r);
        for _ in 0..300 {
            r.step();
            sampler.observe(&r);
        }
        assert_eq!(sampler.samples.len(), 301);
        // Re-run and compare the final state (cheap spot check of the
        // last sample plus monotone visited counts along the way).
        let last = *sampler.samples.last().unwrap();
        assert_eq!(last.domains as usize, visited_domains(&r).len());
        assert_eq!(last.borders, border_count(&r));
        assert!(sampler
            .samples
            .windows(2)
            .all(|w| w[0].visited <= w[1].visited));
    }

    #[test]
    fn sampler_attaches_to_every_backend() {
        use crate::process::CoverProcess;
        use crate::Engine;
        use rotor_graph::{builders, NodeId};
        let n = 32;

        let starts = Placement::AllOnOne(0).positions(n, 2);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let mut ring = RingRouter::new(n, &starts, &dirs);
        let mut ring_sampler = DomainSampler::every(4);
        ring.run_observed(1_000_000, &mut ring_sampler).unwrap();

        let g = builders::ring(n);
        let ids: Vec<NodeId> = starts.iter().map(|&s| NodeId::new(s)).collect();
        let ptrs: Vec<u32> = dirs.iter().map(|&d| u32::from(d)).collect();
        let mut eng = Engine::with_pointers(&g, &ids, ptrs);
        let mut eng_sampler = DomainSampler::every(4);
        eng.run_observed(1_000_000, &mut eng_sampler).unwrap();

        // Identical processes: identical sample traces.
        assert_eq!(ring_sampler.samples, eng_sampler.samples);
        let last = ring_sampler.samples.last().unwrap();
        assert_eq!((last.domains, last.borders), (1, 0));
        // The stride is honoured except at the covering round.
        for s in &ring_sampler.samples[..ring_sampler.samples.len() - 1] {
            assert_eq!(s.round % 4, 0);
        }
    }

    #[test]
    fn domain_count_never_exceeds_agent_count() {
        // Domains only grow/merge, so there are at most k of them.
        let n = 64;
        let starts = Placement::Random(11).positions(n, 6);
        let dirs = PointerInit::Random(3).ring_directions(n, &starts);
        let mut r = RingRouter::new(n, &starts, &dirs);
        let k = starts
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        for _ in 0..500 {
            r.step();
            assert!(visited_domains(&r).len() <= k);
        }
    }
}
