//! Fault injection: deterministic disturbance schedules and the state
//! hooks that apply them to a running [`CoverProcess`].
//!
//! The paper's robustness story — the §2.1 delayed deployments (Lemma 3)
//! and the Eulerian lock-in bound — is about *recovery*: the rotor-router
//! self-stabilises from arbitrary pointer states and agent placements.
//! This module turns that property into something measurable. A
//! [`FaultPlan`] is a deterministic, seed-derived schedule of
//! [`FaultEvent`]s; each event names a [`FaultKind`]:
//!
//! * [`FaultKind::CorruptPointers`] — scramble rotor pointers at a chosen
//!   round (after cover / lock-in), via [`Perturb::corrupt_pointers`];
//! * [`FaultKind::CrashAgents`] — remove agents outright, via
//!   [`Perturb::remove_agents`];
//! * [`FaultKind::StallAgents`] — hold agents in place for a stretch of
//!   rounds; this is *exactly* the §2.1
//!   [`DelaySchedule`](crate::delays::DelaySchedule) machinery, so the
//!   driver interprets it with `step_delayed` rather than a state hook;
//! * [`FaultKind::ChurnEdges`] — rewire graph edges
//!   ([`churn_graph`]), which changes the topology out from under the
//!   process; the driver rebuilds the engine on the churned graph.
//!
//! Every random draw chains [`splitmix64`] from a seed derived through
//! [`STREAM_FAULT`](crate::rng::STREAM_FAULT), so a fault schedule is a
//! pure function of the scenario seed — bit-identical across thread
//! counts and resume patterns, like everything else in the workspace.
//!
//! "Recovered" is defined by the existing cover predicate:
//! [`Perturb::reset_cover_epoch`] restarts the visited set from the
//! current agent positions, and the rounds until
//! [`cover_round`](CoverProcess::cover_round) is `Some` again are the
//! re-cover time. Re-lock-in is measured separately with the §4
//! [`limit`](crate::limit) probes on the disturbed configuration.

use crate::process::CoverProcess;
use crate::rng::splitmix64;
use rotor_graph::{NodeId, PortGraph, PortGraphBuilder};

/// A disturbance category a [`FaultEvent`] can apply. The `severity`
/// carried by the event means something different per kind — pointers
/// scrambled, agents removed, rounds stalled, edge swaps attempted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Scramble `severity` rotor pointers to seed-drawn values
    /// ([`Perturb::corrupt_pointers`]).
    CorruptPointers,
    /// Remove up to `severity` agents from the system
    /// ([`Perturb::remove_agents`]; at least one agent always survives).
    CrashAgents,
    /// Hold every agent in place for `severity` rounds — the §2.1 delayed
    /// deployment applied adversarially. Driver-interpreted (via
    /// `step_delayed`); [`FaultPlan::apply_state_fault`] is a no-op.
    StallAgents,
    /// Attempt `severity` connectivity-preserving double-edge swaps on the
    /// graph ([`churn_graph`]). Driver-interpreted (the engine is rebuilt
    /// on the churned topology); [`FaultPlan::apply_state_fault`] is a
    /// no-op.
    ChurnEdges,
}

impl FaultKind {
    /// A short stable label (used in report curve names and meta).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::CorruptPointers => "corrupt",
            FaultKind::CrashAgents => "crash",
            FaultKind::StallAgents => "stall",
            FaultKind::ChurnEdges => "churn",
        }
    }
}

/// One scheduled disturbance of a [`FaultPlan`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// Absolute round at which the disturbance strikes.
    pub round: u64,
    /// What happens.
    pub kind: FaultKind,
    /// Kind-specific magnitude (see [`FaultKind`]).
    pub severity: u32,
}

/// A deterministic, seed-derived schedule of disturbances.
///
/// The plan's randomness is domain-separated from every other consumer of
/// the scenario seed through [`STREAM_FAULT`](crate::rng::STREAM_FAULT),
/// and each event draws from its own chained sub-stream
/// ([`event_seed`](Self::event_seed)) — so inserting an event never
/// changes what an existing event does.
///
/// ```
/// use rotor_core::faults::{FaultKind, FaultPlan, Perturb};
/// use rotor_core::{CoverProcess, RingRouter};
///
/// let mut r = RingRouter::new(16, &[0, 8], &[0; 16]);
/// r.run_until_covered(10_000).expect("covers");
/// let mut plan = FaultPlan::new(0xC0FFEE);
/// plan.push(r.round() + 1, FaultKind::CorruptPointers, 8);
/// r.step();
/// plan.apply_state_fault(0, &mut r);
/// r.reset_cover_epoch();
/// assert!(r.run_until_covered(100_000).is_some(), "re-covers");
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    base: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan whose event seeds derive from `seed` through the
    /// [`STREAM_FAULT`](crate::rng::STREAM_FAULT) stream.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            base: crate::rng::stream(seed, crate::rng::STREAM_FAULT),
            events: Vec::new(),
        }
    }

    /// Appends a disturbance at the given absolute round.
    pub fn push(&mut self, round: u64, kind: FaultKind, severity: u32) {
        self.events.push(FaultEvent {
            round,
            kind,
            severity,
        });
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The derived seed of event `index` — every event perturbs from its
    /// own sub-stream of the plan seed.
    pub fn event_seed(&self, index: usize) -> u64 {
        splitmix64(self.base ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Applies event `index` to a process through its [`Perturb`] hooks
    /// and returns how many units (pointers changed / agents removed) the
    /// disturbance actually touched.
    ///
    /// [`StallAgents`](FaultKind::StallAgents) and
    /// [`ChurnEdges`](FaultKind::ChurnEdges) are not state faults — the
    /// driver interprets them (delay schedules, graph rebuild) — so they
    /// return 0 here.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn apply_state_fault<P: Perturb + ?Sized>(&self, index: usize, p: &mut P) -> u32 {
        let ev = self.events[index];
        let seed = self.event_seed(index);
        match ev.kind {
            FaultKind::CorruptPointers => p.corrupt_pointers(seed, ev.severity),
            FaultKind::CrashAgents => p.remove_agents(seed, ev.severity),
            FaultKind::StallAgents | FaultKind::ChurnEdges => 0,
        }
    }
}

/// A [`CoverProcess`] whose state can be disturbed mid-run and whose
/// cover predicate can be restarted — the surface the fault-injection
/// layer needs from a backend.
///
/// Implemented by the two rotor engines, [`RingRouter`](crate::RingRouter)
/// and [`Engine`](crate::Engine), next to their state; the random-walk
/// baseline has no routing state and no impl.
pub trait Perturb: CoverProcess {
    /// Scrambles up to `count` units of routing state (pointer
    /// directions / port pointers), drawing deterministically from
    /// `seed`. Returns how many draws actually changed state.
    fn corrupt_pointers(&mut self, seed: u64, count: u32) -> u32;

    /// Removes up to `count` agents, drawing deterministically from
    /// `seed`. Returns how many were removed.
    ///
    /// At least one agent always survives: a process with no agents never
    /// covers again, which would make every recovery time infinite by
    /// construction rather than by measurement.
    fn remove_agents(&mut self, seed: u64, count: u32) -> u32;

    /// Restarts the cover predicate from the current configuration
    /// ([`VisitSet::reset`](crate::bitset::VisitSet::reset)): only
    /// currently occupied nodes count as visited and
    /// [`cover_round`](CoverProcess::cover_round) is cleared (unless the
    /// occupation alone covers). Pointers, agents and the round counter
    /// are left as they are.
    fn reset_cover_epoch(&mut self);
}

/// Edge churn: up to `swaps` connectivity-preserving double-edge swaps on
/// `g`, drawn deterministically from `seed`. Returns the churned graph and
/// the number of swaps actually applied.
///
/// A double-edge swap picks two distinct edges `{a,b}`, `{c,d}` and
/// rewires them to `{a,d}`, `{c,b}` — it preserves every node's degree
/// (so `|E|`, and on the ring 2-regularity, survive), which keeps the
/// recovery comparison about *topology*, not edge budget. Candidate swaps
/// that would create a self-loop, a duplicate edge, or disconnect the
/// graph are rejected and retried (bounded retries, so an unswappable
/// graph — e.g. `K_n` — degrades to a no-op instead of looping).
pub fn churn_graph(g: &PortGraph, seed: u64, swaps: u32) -> (PortGraph, u32) {
    // Normalised (u < v) undirected edge list in deterministic order; the
    // builder re-inserts in this order, so port numbering is a pure
    // function of (g, seed, swaps).
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(g.edge_count());
    for v in g.nodes() {
        for u in g.neighbor_slice(v) {
            if v.value() < *u {
                edges.push((v.value(), *u));
            }
        }
    }
    let norm = |a: u32, b: u32| if a < b { (a, b) } else { (b, a) };
    let mut present: std::collections::BTreeSet<(u32, u32)> = edges.iter().copied().collect();
    let rebuild = |edges: &[(u32, u32)]| -> Result<PortGraph, rotor_graph::GraphError> {
        let mut b = PortGraphBuilder::new(g.node_count());
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    };
    let mut s = seed;
    let mut applied = 0u32;
    let mut attempts = 0u32;
    let budget = swaps.saturating_mul(32).max(32);
    while applied < swaps && attempts < budget && edges.len() >= 2 {
        attempts += 1;
        s = splitmix64(s);
        let i = (s % edges.len() as u64) as usize;
        s = splitmix64(s);
        let j = (s % edges.len() as u64) as usize;
        if i == j {
            continue;
        }
        let (a, b) = edges[i];
        let (c, d) = edges[j];
        // orientation bit: swap to {a,d},{c,b} or {a,c},{b,d}
        let (e1, e2) = if s >> 63 == 0 {
            (norm(a, d), norm(c, b))
        } else {
            (norm(a, c), norm(b, d))
        };
        if e1.0 == e1.1
            || e2.0 == e2.1
            || e1 == e2
            || present.contains(&e1)
            || present.contains(&e2)
        {
            continue;
        }
        // Tentatively apply, then certify connectivity by rebuilding.
        present.remove(&edges[i]);
        present.remove(&edges[j]);
        present.insert(e1);
        present.insert(e2);
        let (old_i, old_j) = (edges[i], edges[j]);
        edges[i] = e1;
        edges[j] = e2;
        if rebuild(&edges).is_ok() {
            applied += 1;
        } else {
            present.remove(&e1);
            present.remove(&e2);
            edges[i] = old_i;
            edges[j] = old_j;
            present.insert(old_i);
            present.insert(old_j);
        }
    }
    if applied == 0 {
        // Keep the graph bit-identical (including port numbering, which a
        // rebuild from the normalised edge list may permute) when nothing
        // actually churned.
        return (g.clone(), 0);
    }
    let churned = rebuild(&edges).expect("every accepted swap was certified connected");
    (churned, applied)
}

/// The positions (as a multiset of [`NodeId`]s) of every agent of an
/// engine state's per-node `agents` counts — the transplant helper the
/// churn driver uses to re-seed a fresh engine on the churned graph.
pub fn agent_multiset(agents: &[u32]) -> Vec<NodeId> {
    let mut out = Vec::new();
    for (v, &c) in agents.iter().enumerate() {
        for _ in 0..c {
            out.push(NodeId::new(v as u32));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, RingRouter};
    use rotor_graph::builders;

    fn covered_ring(n: usize, k: usize) -> RingRouter {
        let starts: Vec<u32> = (0..k).map(|i| (i * n / k) as u32).collect();
        let mut r = RingRouter::new(n, &starts, &vec![0u8; n]);
        r.run_until_covered(1 << 20).expect("ring covers");
        r
    }

    #[test]
    fn plan_event_seeds_are_deterministic_and_distinct() {
        let a = FaultPlan::new(7);
        let b = FaultPlan::new(7);
        assert_eq!(a.event_seed(0), b.event_seed(0));
        assert_ne!(a.event_seed(0), a.event_seed(1));
        assert_ne!(FaultPlan::new(8).event_seed(0), a.event_seed(0));
    }

    #[test]
    fn ring_corruption_is_deterministic_and_stays_valid() {
        let mut a = covered_ring(32, 2);
        let mut b = a.clone();
        let ca = a.corrupt_pointers(0xFEED, 16);
        let cb = b.corrupt_pointers(0xFEED, 16);
        assert_eq!(ca, cb);
        assert!(ca > 0, "16 draws on 32 nodes change something");
        for v in 0..32 {
            assert!(a.direction(v) <= 1);
            assert_eq!(a.direction(v), b.direction(v));
        }
    }

    #[test]
    fn engine_corruption_keeps_pointers_in_range() {
        let g = builders::binary_tree(31);
        let mut e =
            Engine::with_pointers(&g, &[rotor_graph::NodeId::new(0)], vec![0; g.node_count()]);
        e.corrupt_pointers(0xFEED, 64);
        for v in g.nodes() {
            assert!(
                (e.pointer(v) as usize) < g.degree(v),
                "pointer valid at {v:?}"
            );
        }
    }

    #[test]
    fn crash_conserves_at_least_one_agent() {
        let mut r = covered_ring(24, 4);
        let removed = r.remove_agents(0xDEAD, 100);
        assert_eq!(removed, 3, "stops at the last agent");
        assert_eq!(r.agent_count(), 1);
        assert_eq!(r.occupied_counts().iter().sum::<u32>(), 1);
        // and the survivor still steps without tripping the conservation
        // debug_asserts
        r.step();
        assert_eq!(r.occupied_counts().iter().sum::<u32>(), 1);
    }

    #[test]
    fn engine_crash_conserves_at_least_one_agent() {
        let g = builders::torus(4, 4);
        let starts: Vec<rotor_graph::NodeId> =
            (0..4).map(|i| rotor_graph::NodeId::new(i * 4)).collect();
        let mut e = Engine::with_pointers(&g, &starts, vec![0; 16]);
        let removed = e.remove_agents(0xDEAD, 100);
        assert_eq!(removed, 3);
        assert_eq!(e.agent_count(), 1);
        e.step();
        let total: u32 = e
            .occupied()
            .iter()
            .map(|&v| e.agents_at(rotor_graph::NodeId::new(v)))
            .sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn epoch_reset_restarts_the_cover_predicate() {
        let mut r = covered_ring(32, 2);
        assert!(r.cover_round().is_some());
        let round_at_reset = RingRouter::round(&r);
        r.reset_cover_epoch();
        assert_eq!(r.cover_round(), None, "32 nodes, 2 occupied: not covered");
        assert_eq!(r.visits().count(), r.occupied_nodes().len());
        let recover = r.run_until_covered(1 << 20).expect("re-covers");
        assert!(recover > round_at_reset);
    }

    #[test]
    fn epoch_reset_reseeds_domain_counters() {
        let mut r = covered_ring(48, 3);
        r.run(17); // drift the occupation off the cover configuration
        r.reset_cover_epoch();
        let scan = crate::domains::scan_domain_stats(r.visits());
        assert_eq!(r.visits().domain_stats().domains, scan.domains);
        assert_eq!(r.visits().domain_stats().borders, scan.borders);
        // keep the word-wise stats honest through the re-cover epoch
        while r.cover_round().is_none() {
            r.step();
            let scan = crate::domains::scan_domain_stats(r.visits());
            assert_eq!(r.visits().domain_stats().domains, scan.domains);
            assert_eq!(r.visits().domain_stats().borders, scan.borders);
        }
        assert_eq!(r.visits().domain_stats().domains, 1, "covered: one domain");
    }

    #[test]
    fn corrupt_then_recover_via_trait_hooks() {
        fn disturb<P: Perturb>(p: &mut P, plan: &FaultPlan) -> Option<u64> {
            plan.apply_state_fault(0, p);
            p.reset_cover_epoch();
            let before = p.round();
            p.run_until_covered(1 << 22).map(|c| c - before)
        }
        let mut plan = FaultPlan::new(99);
        plan.push(0, FaultKind::CorruptPointers, 24);
        let mut r = covered_ring(48, 3);
        assert!(disturb(&mut r, &plan).is_some(), "ring re-covers");
        let g = builders::ring(48);
        let starts: Vec<rotor_graph::NodeId> =
            (0..3).map(|i| rotor_graph::NodeId::new(i * 16)).collect();
        let mut e = Engine::with_pointers(&g, &starts, vec![0; 48]);
        e.run_until_covered(1 << 20).expect("covers");
        assert!(disturb(&mut e, &plan).is_some(), "engine re-covers");
    }

    #[test]
    fn churn_preserves_degrees_and_is_deterministic() {
        let g = builders::torus(4, 4);
        let (a, applied_a) = churn_graph(&g, 0xBEEF, 4);
        let (b, applied_b) = churn_graph(&g, 0xBEEF, 4);
        assert_eq!(a, b, "same seed, same churned graph");
        assert_eq!(applied_a, applied_b);
        assert!(applied_a > 0, "torus has swappable edges");
        assert_ne!(a, g, "an applied swap changes the topology");
        assert_eq!(a.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(a.degree(v), g.degree(v), "degree preserved at {v:?}");
        }
        assert!(rotor_graph::algo::is_connected(&a));
    }

    #[test]
    fn churn_zero_swaps_is_identity() {
        let g = builders::ring(12);
        let (same, applied) = churn_graph(&g, 1, 0);
        assert_eq!(applied, 0);
        assert_eq!(same, g);
    }

    #[test]
    fn churn_on_unswappable_graph_degrades_to_noop() {
        // K_5: every rewiring candidate is already an edge, so every swap
        // is rejected and the budget runs out.
        let g = builders::complete(5);
        let (same, applied) = churn_graph(&g, 3, 8);
        assert_eq!(applied, 0);
        assert_eq!(same, g);
    }

    #[test]
    fn agent_multiset_expands_counts() {
        let ids = agent_multiset(&[0, 2, 0, 1]);
        assert_eq!(
            ids,
            vec![
                rotor_graph::NodeId::new(1),
                rotor_graph::NodeId::new(1),
                rotor_graph::NodeId::new(3)
            ]
        );
    }

    #[test]
    fn stall_and_churn_are_not_state_faults() {
        let mut plan = FaultPlan::new(3);
        plan.push(5, FaultKind::StallAgents, 10);
        plan.push(9, FaultKind::ChurnEdges, 2);
        let mut r = covered_ring(16, 2);
        let before = r.state();
        assert_eq!(plan.apply_state_fault(0, &mut r), 0);
        assert_eq!(plan.apply_state_fault(1, &mut r), 0);
        assert_eq!(r.state(), before, "driver-level kinds leave state alone");
    }
}
