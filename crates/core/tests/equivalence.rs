//! Property tests pinning the batched hot path to the model's definition.
//!
//! The engine releases the `c` agents at a node with O(min(c, deg))
//! arithmetic per node and keeps no counters; the paper's model (§1.3) is
//! stated per agent. These tests check, across ≥ 100 random (graph,
//! placement, pointer-init) triples and ≥ 1000 rounds each, that
//!
//! 1. the batched [`Engine::step`] produces **bit-identical**
//!    [`EngineState`] sequences to a naive per-agent reference stepper, and
//! 2. the reference, which counts visits, exits and per-arc traversals one
//!    agent at a time, satisfies the arc-traversal identity
//!    `traversals(v →_p u) = ⌈(e_v − label_v(p)) / deg v⌉` and the
//!    exit/visit balance `e_v(t+1) = n_v(t)` — so by state equality the
//!    engine's executions do too,
//!
//! and additionally that the [`VisitLog`] replay of §2.2 visit records
//! matches the reference's per-arrival records.
//!
//! The ring fast path has its own differential suite: [`RingRouter`]'s
//! single-pass round is stepped against the general [`Engine`] on
//! [`builders::ring`] — an independent implementation of the same model —
//! through floods, both seam crossings, §2.1 delay schedules and mid-run
//! [`Perturb`] strikes, and compared every round on agents, pointers,
//! visited set, cover round and §2.2 domain statistics.

#![expect(
    clippy::disallowed_methods,
    reason = "property tests draw their cases from fixed literal seeds; no report reads them"
)]

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rotor_core::domains::{scan_domain_stats, VisitLog, VisitRecord};
use rotor_core::faults::Perturb;
use rotor_core::init::PointerInit;
use rotor_core::placement::Placement;
use rotor_core::{CoverProcess, Engine, EngineState, Observer, RingRouter};
use rotor_graph::{builders, NodeId, PortGraph};

/// The last round in which agents arrived at a node, as the per-agent
/// reference saw it.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    round: u64,
    /// Agents that arrived in that round (initial placement: agents placed).
    multiplicity: u32,
    /// Smallest source port any of them left through. On
    /// [`builders::ring`] port 0 is the clockwise arc, so `0` means some
    /// agent arrived moving clockwise.
    port: u32,
    /// A single arrival whose node now points on through the same port
    /// label it came by: the agent will continue in its direction.
    propagation: bool,
}

/// Reference implementation: moves agents strictly one at a time, exactly
/// as §1.3 states the model, with per-node nested state and no batching.
/// It also counts what the paper's lemmas are stated in: visits `n_v(t)`,
/// exits `e_v(t)`, per-arc traversals and each node's last arrival.
struct PerAgentReference<'g> {
    g: &'g PortGraph,
    round: u64,
    start_pointers: Vec<u32>,
    pointers: Vec<u32>,
    agents: Vec<u32>,
    visits: Vec<u64>,
    exits: Vec<u64>,
    /// `traversals[v][p]` = times an agent left `v` through port `p`.
    traversals: Vec<Vec<u64>>,
    last_arrival: Vec<Option<Arrival>>,
}

impl<'g> PerAgentReference<'g> {
    fn new(g: &'g PortGraph, agents: &[NodeId], pointers: &[u32]) -> Self {
        let n = g.node_count();
        let mut count = vec![0u32; n];
        for a in agents {
            count[a.index()] += 1;
        }
        let last_arrival = count
            .iter()
            .map(|&c| {
                (c > 0).then_some(Arrival {
                    round: 0,
                    multiplicity: c,
                    port: 0,
                    propagation: false,
                })
            })
            .collect();
        PerAgentReference {
            g,
            round: 0,
            start_pointers: pointers.to_vec(),
            pointers: pointers.to_vec(),
            visits: count.iter().map(|&c| u64::from(c)).collect(),
            agents: count,
            exits: vec![0; n],
            traversals: g.nodes().map(|v| vec![0; g.degree(v)]).collect(),
            last_arrival,
        }
    }

    fn step(&mut self) {
        self.step_delayed(|_, _| 0);
    }

    fn step_delayed(&mut self, mut delay: impl FnMut(u32, u32) -> u32) {
        self.round += 1;
        let departing = std::mem::replace(&mut self.agents, vec![0; self.g.node_count()]);
        for (v, c) in departing.into_iter().enumerate() {
            let node = NodeId::new(v as u32);
            let deg = self.g.degree(node) as u32;
            let held = delay(v as u32, c).min(c);
            self.agents[v] += held;
            // one agent at a time: use the pointer, then advance it
            for _ in 0..(c - held) {
                let p = self.pointers[v];
                self.pointers[v] = (p + 1) % deg;
                self.exits[v] += 1;
                self.traversals[v][p as usize] += 1;
                let dest = self.g.neighbor(node, p as usize).index();
                self.agents[dest] += 1;
                self.visits[dest] += 1;
                let last = &mut self.last_arrival[dest];
                match last {
                    Some(a) if a.round == self.round => {
                        a.multiplicity += 1;
                        a.port = a.port.min(p);
                    }
                    _ => {
                        *last = Some(Arrival {
                            round: self.round,
                            multiplicity: 1,
                            port: p,
                            propagation: false,
                        });
                    }
                }
            }
        }
        for (v, last) in self.last_arrival.iter_mut().enumerate() {
            if let Some(a) = last.as_mut().filter(|a| a.round == self.round) {
                a.propagation = a.multiplicity == 1 && self.pointers[v] == a.port;
            }
        }
    }

    fn state(&self) -> EngineState {
        EngineState {
            pointers: self.pointers.clone(),
            agents: self.agents.clone(),
        }
    }

    /// The §1.3 identity relating exits and per-arc traversals: for every
    /// node `v` and port `p`,
    /// `traversals(v, p) == ⌈(e_v − label_v(p)) / deg(v)⌉`, where the label
    /// numbers ports so that the initial pointer has label 0. It depends
    /// only on exits being round-robin, so delays do not break it.
    fn arc_identity_holds(&self) -> bool {
        self.g.nodes().all(|v| {
            let i = v.index();
            let deg = self.g.degree(v) as u64;
            let ev = self.exits[i];
            (0..self.g.degree(v)).all(|p| {
                let label = (p as u64 + deg - u64::from(self.start_pointers[i])) % deg;
                let expected = if ev > label {
                    (ev - label).div_ceil(deg)
                } else {
                    0
                };
                self.traversals[i][p] == expected
            })
        })
    }

    /// The last arrival at `v` as a §2.2 [`VisitRecord`] (ring only: port
    /// 0 is the clockwise direction bit).
    fn visit_record(&self, v: usize) -> Option<VisitRecord> {
        self.last_arrival[v].map(|a| VisitRecord {
            round: a.round,
            multiplicity: a.multiplicity,
            entry_dir: a.port as u8,
            propagation: a.propagation,
        })
    }
}

/// A varied pool of graph topologies, deterministic per seed.
fn graph_for(case: usize, rng: &mut SmallRng) -> PortGraph {
    match case % 6 {
        0 => builders::random_connected(rng.gen_range(8..40), 0.15, case as u64),
        1 => {
            let d = rng.gen_range(3..5);
            let mut n = rng.gen_range(12..32);
            if n * d % 2 == 1 {
                n += 1;
            }
            builders::random_regular(n, d, case as u64)
        }
        2 => builders::ring(rng.gen_range(3..48)),
        3 => builders::grid(rng.gen_range(2..7), rng.gen_range(2..7)),
        4 => builders::binary_tree(rng.gen_range(3..32)),
        5 => builders::shuffle_ports(&builders::torus(3, rng.gen_range(3..8)), case as u64),
        _ => unreachable!(),
    }
}

fn placement_for(g: &PortGraph, rng: &mut SmallRng) -> Vec<NodeId> {
    let k = rng.gen_range(1..9usize);
    (0..k)
        .map(|_| NodeId::new(rng.gen_range(0..g.node_count() as u32)))
        .collect()
}

fn init_for(case: usize) -> PointerInit {
    match case % 4 {
        0 => PointerInit::Uniform(case),
        1 => PointerInit::Random(case as u64),
        2 => PointerInit::TowardNearestAgent,
        3 => PointerInit::AwayFromNearestAgent,
        _ => unreachable!(),
    }
}

#[test]
fn batched_engine_bit_identical_to_per_agent_reference() {
    const TRIPLES: usize = 102;
    const ROUNDS: u64 = 1000;
    let mut rng = SmallRng::seed_from_u64(0xB47C);
    for case in 0..TRIPLES {
        let g = graph_for(case, &mut rng);
        let agents = placement_for(&g, &mut rng);
        let init = init_for(case);
        let pointers = init.pointers(&g, &agents);
        let mut batched = Engine::with_pointers(&g, &agents, pointers.clone());
        let mut reference = PerAgentReference::new(&g, &agents, &pointers);
        assert_eq!(batched.state(), reference.state(), "case {case}: round 0");
        for t in 1..=ROUNDS {
            batched.step();
            reference.step();
            assert_eq!(
                batched.state(),
                reference.state(),
                "case {case} ({g:?}, k={}, {init:?}): diverged at round {t}",
                agents.len(),
            );
        }
    }
}

#[test]
fn arc_identity_survives_csr_flattening() {
    // The engine reads its ports from the flat CSR arena; the reference
    // from `neighbor(v, p)`. Equal states every round carry the identity,
    // checked on the reference, over to the engine.
    const TRIPLES: usize = 102;
    let mut rng = SmallRng::seed_from_u64(0xC5A0);
    for case in 0..TRIPLES {
        let g = graph_for(case, &mut rng);
        let agents = placement_for(&g, &mut rng);
        let pointers = init_for(case).pointers(&g, &agents);
        let mut e = Engine::with_pointers(&g, &agents, pointers.clone());
        let mut reference = PerAgentReference::new(&g, &agents, &pointers);
        for t in 0..200u64 {
            assert!(
                reference.arc_identity_holds(),
                "case {case} ({g:?}): identity broken at round {t}"
            );
            assert_eq!(e.state(), reference.state(), "case {case} round {t}");
            e.step();
            reference.step();
        }
        // spot-check the identity's terms: exits split over the ports
        for v in g.nodes() {
            let total: u64 = reference.traversals[v.index()].iter().sum();
            assert_eq!(
                total,
                reference.exits[v.index()],
                "case {case}: exits split over ports"
            );
        }
    }
}

#[test]
fn arc_identity_on_assorted_graphs() {
    for g in [
        builders::ring(9),
        builders::grid(3, 4),
        builders::complete(5),
        builders::binary_tree(9),
        builders::hypercube(3),
    ] {
        let agents: Vec<NodeId> = [0, 1, 2].map(NodeId::new).to_vec();
        let pointers = PointerInit::Random(11).pointers(&g, &agents);
        let mut e = Engine::with_pointers(&g, &agents, pointers.clone());
        let mut reference = PerAgentReference::new(&g, &agents, &pointers);
        assert!(reference.arc_identity_holds(), "round 0 on {g:?}");
        for t in 1..=300u64 {
            e.step();
            reference.step();
            assert!(reference.arc_identity_holds(), "round {t} on {g:?}");
            assert_eq!(e.state(), reference.state(), "round {t} on {g:?}");
        }
    }
}

#[test]
fn exits_visits_balance() {
    // paper eq. (2): e_v(t+1) = n_v(t) − D(v, t+1); undelayed D = 0
    let g = builders::grid(3, 3);
    let agents: Vec<NodeId> = [0, 4, 4].map(NodeId::new).to_vec();
    let pointers = PointerInit::Uniform(0).pointers(&g, &agents);
    let mut e = Engine::with_pointers(&g, &agents, pointers.clone());
    let mut reference = PerAgentReference::new(&g, &agents, &pointers);
    for t in 1..=100u64 {
        let before = reference.visits.clone();
        e.step();
        reference.step();
        assert_eq!(reference.exits, before, "e_v(t+1) == n_v(t) at round {t}");
        assert_eq!(e.state(), reference.state(), "round {t}");
    }
}

/// A random ring instance: `n ∈ [3, 64)`, `k` from one agent up to
/// floods of three agents per node, and placements that put agents on the
/// seam nodes `0` and `n − 1` often, so both wrap paths of a round run.
fn ring_instance(rng: &mut SmallRng) -> (usize, Vec<u32>, Vec<u8>) {
    let n = rng.gen_range(3..64usize);
    let k = match rng.gen_range(0..3u32) {
        0 => rng.gen_range(1..13usize),
        1 => rng.gen_range(1..n + 1),
        _ => rng.gen_range(n..3 * n + 1),
    };
    let anchor = match rng.gen_range(0..3u32) {
        0 => 0,
        1 => n as u32 - 1,
        _ => rng.gen_range(0..n as u32),
    };
    let placement = match rng.gen_range(0..4u32) {
        0 => Placement::AllOnOne(anchor),
        1 => Placement::EquallySpaced { offset: anchor },
        2 => Placement::Random(rng.next_u64()),
        _ => Placement::Custom((0..k).map(|_| rng.gen_range(0..n as u32)).collect()),
    };
    let starts = placement.positions(n, k);
    let dirs = match rng.gen_range(0..4u32) {
        0 => PointerInit::TowardNearestAgent.ring_directions(n, &starts),
        1 => PointerInit::AwayFromNearestAgent.ring_directions(n, &starts),
        2 => PointerInit::Random(rng.next_u64()).ring_directions(n, &starts),
        _ => PointerInit::Uniform(rng.gen_range(0..2)).ring_directions(n, &starts),
    };
    (n, starts, dirs)
}

/// The §2.1 delay schedules the ring suite runs, applied identically to
/// both processes.
#[derive(Clone, Copy, Debug)]
enum Schedule {
    Undelayed,
    /// A pure `(v, c)`-dependent share.
    Hashed,
    /// Holds about half of the agents at the seam nodes `0` and `n − 1`.
    Seam,
    /// Holds by call index, so it matches only if both processes call the
    /// schedule in the same order with the same counts.
    Stateful,
}

/// `D(v, t)` of `schedule` for `c` agents at `v` in round `t` on an
/// `n`-ring; `calls` is the per-process count of earlier calls.
fn hold(schedule: Schedule, n: u32, t: u64, v: u32, c: u32, calls: &mut u32) -> u32 {
    *calls += 1;
    match schedule {
        Schedule::Undelayed => 0,
        Schedule::Hashed => (v.wrapping_mul(0x9E37_79B9) >> 27).wrapping_add(c) % (c + 1),
        Schedule::Seam if v == 0 || v == n - 1 => (c + (t % 2) as u32) / 2,
        Schedule::Seam => 0,
        Schedule::Stateful => (*calls * 7 + c) % (c + 1),
    }
}

/// Every deterministic field of the ring fast path against the general
/// engine on the same ring, plus the fast path's word-wise §2.2 stats
/// against the `O(n)` scan.
fn assert_same_ring(ring: &RingRouter, general: &Engine, ctx: &str) {
    for v in 0..ring.n() {
        let id = NodeId::new(v);
        assert_eq!(
            ring.agents_at(v),
            general.agents_at(id),
            "{ctx}: agents at node {v}"
        );
        assert_eq!(
            u32::from(ring.direction(v)),
            general.pointer(id),
            "{ctx}: pointer at node {v}"
        );
    }
    assert_eq!(
        ring.visits(),
        general.visits(),
        "{ctx}: visited set and cover round"
    );
    let stats = ring.visits().domain_stats();
    assert_eq!(
        stats,
        scan_domain_stats(ring.visits()),
        "{ctx}: §2.2 stats vs scan"
    );
}

/// The ring stepper merges every share straight into the next sorted
/// occupied list; it must match the general engine on the same ring every
/// round, under every delay schedule and across mid-run strikes.
#[test]
fn ring_merge_stepper_matches_general_engine() {
    const CASES: usize = 60;
    let mut rng = SmallRng::seed_from_u64(0x416);
    for case in 0..CASES {
        let (n, starts, dirs) = ring_instance(&mut rng);
        let g = builders::ring(n);
        let ids: Vec<NodeId> = starts.iter().map(|&s| NodeId::new(s)).collect();
        let ptrs: Vec<u32> = dirs.iter().map(|&d| u32::from(d)).collect();
        let strike_seed = rng.next_u64();
        for schedule in [
            Schedule::Undelayed,
            Schedule::Hashed,
            Schedule::Seam,
            Schedule::Stateful,
        ] {
            let mut ring = RingRouter::new(n, &starts, &dirs);
            let mut general = Engine::with_pointers(&g, &ids, ptrs.clone());
            let (mut ring_calls, mut general_calls) = (0, 0);
            let ctx = format!("case {case} (n={n}, k={}, {schedule:?})", starts.len());
            assert_same_ring(&ring, &general, &format!("{ctx}, round 0"));
            let rounds = 4 * n as u64 + 32;
            for t in 1..=rounds {
                // Mid-run strikes: corrupt pointers, crash agents, then
                // restart the cover epoch, each on both processes.
                if t == rounds / 4 {
                    let flips = 1 + (strike_seed % 7) as u32;
                    assert_eq!(
                        Perturb::corrupt_pointers(&mut ring, strike_seed, flips),
                        Perturb::corrupt_pointers(&mut general, strike_seed, flips),
                        "{ctx}: corrupt_pointers at round {t}"
                    );
                } else if t == rounds / 2 {
                    let kills = 1 + (strike_seed % 5) as u32;
                    assert_eq!(
                        Perturb::remove_agents(&mut ring, strike_seed ^ 1, kills),
                        Perturb::remove_agents(&mut general, strike_seed ^ 1, kills),
                        "{ctx}: remove_agents at round {t}"
                    );
                } else if t == 3 * rounds / 4 {
                    Perturb::reset_cover_epoch(&mut ring);
                    Perturb::reset_cover_epoch(&mut general);
                }
                let n32 = n as u32;
                ring.step_delayed(|v, c| hold(schedule, n32, t, v, c, &mut ring_calls));
                general.step_delayed(|v, c| hold(schedule, n32, t, v, c, &mut general_calls));
                assert_same_ring(&ring, &general, &format!("{ctx}, round {t}"));
            }
            assert_eq!(ring_calls, general_calls, "{ctx}: schedule calls");
        }
    }
}

#[test]
fn delayed_batched_step_matches_per_agent_semantics() {
    // Holding `h` of `c` agents must equal releasing `c − h` agents one at a
    // time; exercise the batch split with a deterministic delay pattern.
    let mut rng = SmallRng::seed_from_u64(0xDE1A);
    for case in 0..20usize {
        let g = graph_for(case, &mut rng);
        let agents = placement_for(&g, &mut rng);
        let init = init_for(case);
        let pointers = init.pointers(&g, &agents);
        let mut delayed = Engine::with_pointers(&g, &agents, pointers.clone());
        let mut reference = PerAgentReference::new(&g, &agents, &pointers);
        for t in 1..=300u64 {
            // hold ⌊c/2⌋ agents at even nodes on even rounds
            let hold = move |v: u32, c: u32| {
                if t.is_multiple_of(2) && v.is_multiple_of(2) {
                    c / 2
                } else {
                    0
                }
            };
            delayed.step_delayed(hold);
            reference.step_delayed(hold);
            assert_eq!(delayed.state(), reference.state(), "case {case} round {t}");
            assert!(reference.arc_identity_holds(), "case {case} round {t}");
        }
    }
}

#[test]
fn visit_log_matches_per_agent_arrival_records() {
    // Every node's §2.2 record, every round, on random rings — including
    // floods with k > n/2, where nodes hold several agents and meetings
    // arrive from both sides.
    const CASES: usize = 104;
    const ROUNDS: u64 = 500;
    let mut rng = SmallRng::seed_from_u64(0x7151);
    for case in 0..CASES {
        let n = rng.gen_range(3..48usize);
        let k = if case % 2 == 0 {
            rng.gen_range(1..n / 2 + 2)
        } else {
            rng.gen_range(n / 2 + 1..2 * n + 1)
        };
        let placement = match case % 3 {
            0 => Placement::Random(case as u64),
            1 => Placement::AllOnOne(rng.gen_range(0..n as u32)),
            _ => Placement::EquallySpaced {
                offset: rng.gen_range(0..n as u32),
            },
        };
        let starts = placement.positions(n, k);
        let init = match case % 4 {
            0 => PointerInit::Random(case as u64),
            1 => PointerInit::TowardNearestAgent,
            2 => PointerInit::AwayFromNearestAgent,
            _ => PointerInit::Uniform(case),
        };
        let dirs = init.ring_directions(n, &starts);
        let g = builders::ring(n);
        let ids: Vec<NodeId> = starts.iter().map(|&s| NodeId::new(s)).collect();
        let ptrs: Vec<u32> = dirs.iter().map(|&d| u32::from(d)).collect();
        let mut router = RingRouter::new(n, &starts, &dirs);
        let mut reference = PerAgentReference::new(&g, &ids, &ptrs);
        let mut log = VisitLog::new();
        for t in 0..=ROUNDS {
            if t > 0 {
                router.step();
                reference.step();
            }
            log.observe(&router);
            for v in 0..n {
                assert_eq!(
                    log.last_visit(v as u32),
                    reference.visit_record(v),
                    "case {case} (n={n}, k={k}, {placement:?}, {init:?}): node {v}, round {t}"
                );
            }
        }
    }
}
