//! The fault-injection recovery runner: disturb a covered scenario and
//! measure how long the rotor-router takes to re-cover and re-lock-in.
//!
//! One recovery cell is `(Scenario, FaultSpec)`: run the scenario's rotor
//! process to cover, keep it running `after_cover` rounds into its settled
//! regime, strike one deterministic disturbance from the scenario seed's
//! [`FaultPlan`] (pointer corruption, agent crash, a stall that holds
//! every agent as a §2.1 delayed deployment, or edge churn with an engine
//! rebuild), restart the cover predicate ([`Perturb::reset_cover_epoch`]),
//! and count the rounds until the process covers again. Optionally the
//! disturbed configuration is handed to the §4 Brent probes
//! ([`rotor_core::limit::probe_cycle`]) for the re-lock-in tail `μ` and
//! period `λ`.
//!
//! Like [`run_scenario_cycle`](crate::runners::run_scenario_cycle) this is
//! a *rotor* instrument: the ring family runs the
//! [`RingRouter`](rotor_core::RingRouter) fast path, every other family
//! (and every churn cell, whose rewired graph is no longer the ring the
//! fast path assumes) runs the general [`Engine`]. Everything is derived
//! from the scenario seed, so recovery samples are bit-identical across
//! thread counts and resume patterns — the determinism-drift CI gate
//! covers this runner.

use crate::scenario::Scenario;
use rotor_core::faults::{agent_multiset, churn_graph, FaultKind, FaultPlan, Perturb};
use rotor_core::limit::{probe_cycle, ConfigSnapshot, CycleInfo};
use rotor_core::{CoverProcess, Engine};
use rotor_graph::NodeId;
use std::time::Instant;

/// One disturbance to apply to a covered scenario: what strikes, how hard,
/// and how many rounds after cover.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// The disturbance kind.
    pub kind: FaultKind,
    /// Kind-specific magnitude (pointers scrambled / agents crashed /
    /// rounds stalled / edge swaps attempted — see [`FaultKind`]).
    pub severity: u32,
    /// Rounds to keep running after cover before the fault strikes, so
    /// the disturbance hits the settled regime rather than the covering
    /// transient.
    pub after_cover: u64,
}

/// Budgets for one recovery measurement.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryOptions {
    /// Round budget for the healthy cover phase (absolute rounds).
    pub cover_budget: u64,
    /// Round budget for re-covering after the disturbance (rounds counted
    /// from the disturbance; stalled rounds count).
    pub recover_budget: u64,
    /// When `Some`, probe the disturbed configuration with Brent cycle
    /// detection for the re-lock-in tail/period, with this step budget
    /// (counted from the disturbed configuration, whatever its round).
    /// Expensive (`O(μ + λ)` extra simulation per cell) — campaigns enable
    /// it only where the lock-in theory says it is affordable (small `k`).
    pub relock_budget: Option<u64>,
}

/// One measured recovery cell.
#[derive(Clone, Copy, Debug)]
pub struct RecoverySample {
    /// Node count.
    pub n: usize,
    /// Agent count of the healthy scenario (crashes reduce the live count
    /// below this).
    pub k: usize,
    /// Repetition index within the point.
    pub seed_index: usize,
    /// The scenario's derived seed.
    pub seed: u64,
    /// Healthy-phase cover round, or `None` if `cover_budget` elapsed
    /// first (no disturbance is applied in that case).
    pub cover: Option<u64>,
    /// Absolute round at which the fault struck.
    pub disturb_round: Option<u64>,
    /// Units the disturbance actually touched: pointers changed, agents
    /// removed, rounds stalled, or edge swaps applied.
    pub touched: u32,
    /// Rounds from the disturbance until the process covered again, or
    /// `None` if `recover_budget` elapsed first.
    pub recover: Option<u64>,
    /// Re-lock-in tail `μ` of the disturbed configuration (rounds until
    /// the limit cycle is entered), when probed.
    pub relock: Option<u64>,
    /// Limit-cycle period `λ` of the disturbed configuration, when probed.
    pub period: Option<u64>,
    /// Which engine ran the cell ([`CoverProcess::kind_name`]).
    pub backend: &'static str,
    /// Wall-clock nanoseconds spent simulating (excludes setup).
    pub nanos: u64,
}

/// What one recovery cell measured, before [`RecoverySample`] adds the
/// cell coordinates and the timing.
#[derive(Default)]
struct Outcome {
    cover: Option<u64>,
    disturb_round: Option<u64>,
    touched: u32,
    recover: Option<u64>,
    cycle: Option<CycleInfo>,
    backend: &'static str,
}

/// The healthy phase every recovery cell shares: run `p` to cover, keep
/// it running `after_cover` rounds, and schedule the fault at the round
/// it has reached. Returns the cover round and the plan, or `None` if
/// `cover_budget` elapsed first.
fn run_healthy<P: CoverProcess>(
    p: &mut P,
    sc: &Scenario,
    fault: &FaultSpec,
    opts: &RecoveryOptions,
) -> Option<(u64, FaultPlan)> {
    let cover = p.run_until_covered(opts.cover_budget)?;
    p.run(fault.after_cover);
    let mut plan = FaultPlan::new(sc.seed);
    plan.push(p.round(), fault.kind, fault.severity);
    Some((cover, plan))
}

/// The healthy run → disturbance → epoch reset → re-cover sequence of
/// every state fault, on any rotor backend. `hold_all` advances `p` one
/// round with every agent held (the §2.1 delayed-step hook), which is
/// what a stall does.
fn disturb_and_recover<P>(
    mut p: P,
    sc: &Scenario,
    fault: &FaultSpec,
    opts: &RecoveryOptions,
    hold_all: impl Fn(&mut P),
) -> Outcome
where
    P: Perturb + ConfigSnapshot + Clone,
{
    let Some((cover, plan)) = run_healthy(&mut p, sc, fault, opts) else {
        return Outcome {
            backend: p.kind_name(),
            ..Outcome::default()
        };
    };
    let disturb_round = p.round();
    let touched = match fault.kind {
        FaultKind::CorruptPointers | FaultKind::CrashAgents => {
            let t = plan.apply_state_fault(0, &mut p);
            p.reset_cover_epoch();
            t
        }
        FaultKind::StallAgents => {
            // An adversarial §2.1 delayed deployment: hold every agent at
            // its node for `severity` rounds. The stalled rounds count
            // toward recovery — that is the point of the fault.
            p.reset_cover_epoch();
            for _ in 0..fault.severity {
                hold_all(&mut p);
            }
            fault.severity
        }
        FaultKind::ChurnEdges => {
            unreachable!("churn cells take the engine-rebuild path")
        }
    };
    // Snapshot the disturbed configuration before the recovery run mutates
    // it — the re-lock-in probes need a factory that replays it.
    let disturbed = p.clone();
    let budget = disturb_round.saturating_add(opts.recover_budget);
    let recover = p.run_until_covered(budget).map(|c| c - disturb_round);
    let cycle = opts
        .relock_budget
        .and_then(|b| probe_cycle(|| disturbed.clone(), b));
    Outcome {
        cover: Some(cover),
        disturb_round: Some(disturb_round),
        touched,
        recover,
        cycle,
        backend: p.kind_name(),
    }
}

/// The edge-churn cell: the rewired topology needs a rebuilt engine, and a
/// fresh engine's starts-visited initialisation *is* the epoch reset. The
/// ring family also takes this path: a churned ring is not the ring the
/// fast path assumes.
fn churn_and_recover(sc: &Scenario, fault: &FaultSpec, opts: &RecoveryOptions) -> Outcome {
    let g = sc.graph();
    let mut e = sc.engine(&g);
    let Some((cover, plan)) = run_healthy(&mut e, sc, fault, opts) else {
        return Outcome {
            backend: e.kind_name(),
            ..Outcome::default()
        };
    };
    let disturb_round = e.round();
    let state = e.state();
    let (churned, applied) = churn_graph(&g, plan.event_seed(0), fault.severity);
    let survivors = agent_multiset(&state.agents);
    // Double-edge swaps preserve degrees, so the carried-over pointers
    // stay in range; the modulo is a guard, not a remapping.
    let pointers: Vec<u32> = state
        .pointers
        .iter()
        .enumerate()
        .map(|(v, &p)| p % churned.degree(NodeId::new(v as u32)) as u32)
        .collect();
    let rebuilt = || Engine::with_pointers(&churned, &survivors, pointers.clone());
    let mut e2 = rebuilt();
    // Fresh engine: rounds count from the disturbance by construction.
    let recover = e2.run_until_covered(opts.recover_budget);
    let cycle = opts.relock_budget.and_then(|b| probe_cycle(rebuilt, b));
    Outcome {
        cover: Some(cover),
        disturb_round: Some(disturb_round),
        touched: applied,
        recover,
        cycle,
        backend: e2.kind_name(),
    }
}

/// Measures one recovery cell: runs `sc`'s rotor process to cover, strikes
/// `fault` `after_cover` rounds later (seed-derived through the scenario's
/// [`FaultPlan`]), and measures re-cover (and optionally re-lock-in) time.
///
/// Dispatch mirrors [`run_scenario_cycle`](crate::runners::run_scenario_cycle):
/// the ring family runs the [`RingRouter`](rotor_core::RingRouter) fast
/// path, every other family — and every
/// [`ChurnEdges`](FaultKind::ChurnEdges) cell, whose rewired graph is no
/// longer a ring — runs the general [`Engine`]. If the healthy phase fails
/// to cover within `opts.cover_budget`, no disturbance is applied and the
/// sample records the timeout honestly (`cover: None`, everything
/// downstream `None`).
pub fn run_scenario_recovery(
    sc: &Scenario,
    fault: &FaultSpec,
    opts: &RecoveryOptions,
) -> RecoverySample {
    #[expect(clippy::disallowed_methods, reason = "feeds RecoverySample::nanos")]
    let start = Instant::now();
    let o = if fault.kind == FaultKind::ChurnEdges {
        churn_and_recover(sc, fault, opts)
    } else if sc.family.is_ring() {
        disturb_and_recover(sc.ring_router(), sc, fault, opts, |r| {
            r.step_delayed(|_, c| c);
        })
    } else {
        let g = sc.graph();
        disturb_and_recover(sc.engine(&g), sc, fault, opts, |e| {
            e.step_delayed(|_, c| c);
        })
    };
    RecoverySample {
        n: sc.n,
        k: sc.k,
        seed_index: sc.seed_index,
        seed: sc.seed,
        cover: o.cover,
        disturb_round: o.disturb_round,
        touched: o.touched,
        recover: o.recover,
        relock: o.cycle.map(|c| c.tail),
        period: o.cycle.map(|c| c.period),
        backend: o.backend,
        nanos: start.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_sharded;
    use crate::scenario::{GraphFamily, InitSpec, PlacementSpec, ScenarioGrid};

    fn ring_grid(n: usize, ks: Vec<usize>) -> ScenarioGrid {
        ScenarioGrid {
            families: vec![GraphFamily::Ring],
            ns: vec![n],
            ks,
            seed_count: 2,
            base_seed: 11,
            placement: PlacementSpec::Random,
            init: InitSpec::Random,
        }
    }

    fn opts() -> RecoveryOptions {
        RecoveryOptions {
            cover_budget: 1 << 22,
            recover_budget: 1 << 22,
            relock_budget: None,
        }
    }

    fn fault(kind: FaultKind) -> FaultSpec {
        FaultSpec {
            kind,
            severity: 8,
            after_cover: 16,
        }
    }

    #[test]
    fn every_kind_recovers_on_the_ring() {
        for kind in [
            FaultKind::CorruptPointers,
            FaultKind::CrashAgents,
            FaultKind::StallAgents,
            FaultKind::ChurnEdges,
        ] {
            let sc = ring_grid(32, vec![3]).scenarios()[0];
            let f = fault(kind);
            let s = run_scenario_recovery(&sc, &f, &opts());
            let cover = s.cover.expect("healthy phase covers");
            assert_eq!(
                s.disturb_round,
                Some(cover + f.after_cover),
                "{kind:?}: fault strikes after_cover rounds past cover"
            );
            let recover = s.recover.unwrap_or_else(|| panic!("{kind:?} re-covers"));
            assert!(recover > 0, "{kind:?}: disturbance uncovers something");
            if kind == FaultKind::StallAgents {
                assert!(
                    recover > u64::from(f.severity),
                    "stalled rounds count toward recovery"
                );
                assert_eq!(s.touched, f.severity);
            }
            let expected_backend = if kind == FaultKind::ChurnEdges {
                "rotor_general"
            } else {
                "rotor_ring"
            };
            assert_eq!(s.backend, expected_backend, "{kind:?}");
        }
    }

    #[test]
    fn crash_removes_agents_and_churn_rewires() {
        let sc = ring_grid(32, vec![4]).scenarios()[0];
        let crash = run_scenario_recovery(&sc, &fault(FaultKind::CrashAgents), &opts());
        assert_eq!(crash.touched, 3, "8 requested, 3 removable past the last");
        let churn = run_scenario_recovery(&sc, &fault(FaultKind::ChurnEdges), &opts());
        assert!(churn.touched > 0, "the 32-ring has swappable edges");
    }

    #[test]
    fn samples_are_thread_count_invariant() {
        let scenarios = ring_grid(24, vec![1, 3]).scenarios();
        let cells: Vec<(FaultSpec, Scenario)> =
            [FaultKind::CorruptPointers, FaultKind::CrashAgents]
                .into_iter()
                .flat_map(|kind| scenarios.iter().map(move |&sc| (fault(kind), sc)))
                .collect();
        let run = |threads| {
            run_sharded(&cells, threads, |_, (f, sc)| {
                run_scenario_recovery(sc, f, &opts())
            })
        };
        let key = |s: &RecoverySample| {
            (
                s.n,
                s.k,
                s.seed,
                s.cover,
                s.disturb_round,
                s.touched,
                s.recover,
                s.relock,
                s.period,
                s.backend,
            )
        };
        let one: Vec<_> = run(1).iter().map(key).collect();
        let two: Vec<_> = run(2).iter().map(key).collect();
        assert_eq!(one, two, "fault schedules are scheduling-independent");
    }

    #[test]
    fn relock_probe_finds_single_agent_eulerian_period() {
        // k = 1 on the ring: whatever the corruption did, the re-locked
        // limit cycle is the Eulerian traversal, period 2n = 2|E| (§1.2).
        // The budget counts from the disturbance: a fault that strikes
        // after more rounds than the budget still gets all of it, as a
        // churn cell's fresh engine does.
        let n = 16;
        let sc = ring_grid(n, vec![1]).scenarios()[0];
        let mut o = opts();
        let budget = 4 * 2 * n as u64 * n as u64;
        o.relock_budget = Some(budget);
        for after_cover in [16, 2 * budget] {
            let mut f = fault(FaultKind::CorruptPointers);
            f.after_cover = after_cover;
            let s = run_scenario_recovery(&sc, &f, &o);
            assert_eq!(
                s.period,
                Some(2 * n as u64),
                "Eulerian lock-in survives faults (after_cover {after_cover})"
            );
            assert!(s.relock.is_some());
        }
    }

    #[test]
    fn recovery_runs_off_ring_families() {
        let grid = ScenarioGrid {
            families: vec![GraphFamily::RandomRegular { degree: 4 }],
            ns: vec![24],
            ks: vec![2],
            seed_count: 1,
            base_seed: 5,
            placement: PlacementSpec::Random,
            init: InitSpec::Random,
        };
        let sc = grid.scenarios()[0];
        for kind in [
            FaultKind::CorruptPointers,
            FaultKind::CrashAgents,
            FaultKind::StallAgents,
            FaultKind::ChurnEdges,
        ] {
            let s = run_scenario_recovery(&sc, &fault(kind), &opts());
            assert!(s.recover.is_some(), "{kind:?} re-covers on random-regular");
            assert_eq!(s.backend, "rotor_general");
        }
    }

    #[test]
    fn cover_timeout_applies_no_fault() {
        let sc = ring_grid(64, vec![1]).scenarios()[0];
        let mut o = opts();
        o.cover_budget = 2; // cannot cover 64 nodes in 2 rounds
        let s = run_scenario_recovery(&sc, &fault(FaultKind::CorruptPointers), &o);
        assert_eq!(s.cover, None);
        assert_eq!(s.disturb_round, None);
        assert_eq!(s.recover, None);
        assert_eq!(s.touched, 0);
    }
}
