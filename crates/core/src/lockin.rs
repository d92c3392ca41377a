//! Single-agent Eulerian lock-in certification (the Yanovski et al.
//! baseline behaviour, §1.2).
//!
//! Yanovski et al. proved that a single rotor-router agent, after at most
//! `2·D·|E|` rounds, *locks in* to a directed Eulerian circuit of `G⃗` and
//! repeats it forever. This module certifies that behaviour for a concrete
//! execution: it runs the engine past the lock-in bound, records the next
//! two periods of `2|E|` arcs each, and verifies them against
//! [`rotor_graph::euler`]'s ground-truth circuit checkers.

use crate::engine::Engine;
use crate::init::PointerInit;
use crate::process::CoverProcess;
use rotor_graph::{algo, euler, Arc, NodeId, PortGraph};

/// Evidence that an execution has locked into an Eulerian circuit.
#[derive(Clone, Debug)]
pub struct LockinCertificate {
    /// Round at which the recorded circuit window starts (after this round's
    /// configuration, the agent repeats `circuit` forever).
    pub start_round: u64,
    /// The certified circuit: `2|E|` arcs forming a directed Eulerian
    /// circuit of `G⃗`.
    pub circuit: Vec<Arc>,
}

/// Position of the single agent (panics if the engine has `k != 1`).
fn agent_position(e: &Engine<'_>) -> NodeId {
    debug_assert_eq!(e.agent_count(), 1);
    NodeId::new(e.occupied()[0])
}

/// Runs a single agent from `start` and certifies Eulerian lock-in.
///
/// The engine is advanced `2·D·|E|` rounds (the Yanovski et al. bound),
/// clamped to `max_rounds`; the following `2·(2|E|)` arcs are recorded and
/// checked with [`euler::is_repeated_circuit`]. Returns `None` when the
/// trace is not yet a repeated Eulerian circuit — only possible if
/// `max_rounds` cut the warm-up short of the lock-in bound.
///
/// ```
/// use rotor_core::{init::PointerInit, lockin};
/// use rotor_graph::{builders, euler, NodeId};
///
/// let g = builders::grid(3, 3);
/// let cert = lockin::certify_lockin(&g, NodeId::new(0), &PointerInit::Uniform(0), u64::MAX)
///     .expect("always locks in within 2·D·|E| rounds");
/// assert!(euler::is_eulerian_circuit(&g, &cert.circuit));
/// ```
pub fn certify_lockin(
    g: &PortGraph,
    start: NodeId,
    init: &PointerInit,
    max_rounds: u64,
) -> Option<LockinCertificate> {
    let agents = [start];
    let mut e = Engine::new(g, &agents, init);
    let bound = 2 * u64::from(algo::diameter(g)) * g.edge_count() as u64;
    let warmup = bound.min(max_rounds);
    e.run(warmup);
    let period = g.arc_count();
    let mut trace = Vec::with_capacity(2 * period);
    let mut pos = agent_position(&e);
    for _ in 0..2 * period {
        e.step();
        let next = agent_position(&e);
        trace.push(Arc::new(pos, next));
        pos = next;
    }
    euler::is_repeated_circuit(g, &trace).then(|| LockinCertificate {
        start_round: warmup,
        circuit: trace[..period].to_vec(),
    })
}

/// The earliest round after which the agent's trace is a repetition of one
/// Eulerian circuit, found by linear scan over the recorded arc trace.
///
/// Runs the engine for at most `max_rounds` rounds. Returns `None` when no
/// lock-in point at most `max_rounds − 2·(2|E|)` is found (the certificate
/// needs two full periods of trace after the candidate round).
pub fn lockin_round(
    g: &PortGraph,
    start: NodeId,
    init: &PointerInit,
    max_rounds: u64,
) -> Option<u64> {
    let agents = [start];
    let mut e = Engine::new(g, &agents, init);
    let period = g.arc_count();
    let window = 2 * period;
    let mut trace: Vec<Arc> = Vec::new();
    let mut pos = agent_position(&e);
    for _ in 0..max_rounds {
        e.step();
        let next = agent_position(&e);
        trace.push(Arc::new(pos, next));
        pos = next;
    }
    if trace.len() < window {
        return None;
    }
    (0..=trace.len() - window)
        .find(|&t| euler::is_repeated_circuit(g, &trace[t..t + window]))
        .map(|t| t as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotor_graph::builders;

    #[test]
    fn certifies_on_assorted_graphs() {
        for g in [
            builders::ring(7),
            builders::grid(3, 4),
            builders::binary_tree(9),
            builders::hypercube(3),
            builders::star(5),
        ] {
            for init in [PointerInit::Uniform(0), PointerInit::Random(5)] {
                let cert = certify_lockin(&g, NodeId::new(0), &init, u64::MAX)
                    .unwrap_or_else(|| panic!("no lock-in on {g:?} with {init:?}"));
                assert_eq!(cert.circuit.len(), g.arc_count());
                assert!(euler::is_eulerian_circuit(&g, &cert.circuit));
                assert_eq!(cert.circuit[0].from, cert.circuit[g.arc_count() - 1].to);
            }
        }
    }

    #[test]
    fn negative_init_also_locks_in() {
        let g = builders::ring(9);
        let cert = certify_lockin(
            &g,
            NodeId::new(0),
            &PointerInit::TowardNearestAgent,
            u64::MAX,
        )
        .expect("lock-in is initialisation-independent");
        assert!(euler::is_eulerian_circuit(&g, &cert.circuit));
    }

    #[test]
    fn truncated_warmup_can_fail() {
        // Negative init on a larger ring needs Θ(n²) rounds to stabilise;
        // with the warm-up clamped to 0 the trace starts mid-transient.
        let g = builders::ring(32);
        let r = certify_lockin(&g, NodeId::new(0), &PointerInit::TowardNearestAgent, 0);
        assert!(r.is_none(), "zig-zag transient must not certify");
    }

    #[test]
    fn lockin_round_short_budget_returns_none() {
        // budget smaller than the 2·(2|E|) certificate window must be a
        // clean None, not a slice panic
        let g = builders::ring(8);
        assert_eq!(
            lockin_round(&g, NodeId::new(0), &PointerInit::Uniform(0), 10),
            None
        );
    }

    #[test]
    fn lockin_round_is_sound_and_within_bound() {
        let g = builders::ring(8);
        let bound = 2 * u64::from(algo::diameter(&g)) * g.edge_count() as u64;
        let budget = bound + 4 * g.arc_count() as u64;
        let t = lockin_round(&g, NodeId::new(0), &PointerInit::Uniform(1), budget)
            .expect("lock-in within the Yanovski bound");
        assert!(t <= bound, "lock-in round {t} exceeds 2·D·|E| = {bound}");
    }
}
