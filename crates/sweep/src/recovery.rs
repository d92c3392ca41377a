//! The fault-injection recovery runner: disturb a covered scenario and
//! measure how long the rotor-router takes to re-cover and re-lock-in.
//!
//! One recovery cell is `(Scenario, FaultSpec)`: run the scenario's rotor
//! process to cover, keep it running `after_cover` rounds into its settled
//! regime, strike one deterministic disturbance from the scenario seed's
//! [`FaultPlan`] (pointer corruption, agent crash, stall via the §2.1
//! [`DelaySchedule`], or edge churn with an engine rebuild), restart the
//! cover predicate ([`Perturb::reset_cover_epoch`]), and count the rounds
//! until the process covers again. Optionally the disturbed configuration
//! is handed to the §4 Brent probes ([`rotor_core::limit::probe_cycle`])
//! for the
//! re-lock-in tail `μ` and period `λ`.
//!
//! Like [`run_scenario_cycle`](crate::runners::run_scenario_cycle) this is
//! a *rotor* instrument: the ring family runs the
//! [`RingRouter`] fast path, every other family (and every churn cell,
//! whose rewired graph is no longer the ring the fast path assumes) runs
//! the general [`Engine`]. Everything is derived from the scenario seed,
//! so recovery samples are bit-identical across thread counts and resume
//! patterns — the determinism-drift CI gate covers this runner.

use crate::driver::run_sharded;
use crate::runners::initial_pointers;
use crate::scenario::{Scenario, ScenarioGrid};
use rotor_core::delays::{self, DelaySchedule};
use rotor_core::faults::{agent_multiset, churn_graph, FaultKind, FaultPlan, Perturb};
use rotor_core::limit::{probe_cycle, ConfigSnapshot, CycleInfo};
use rotor_core::{CoverProcess, Engine, RingRouter};
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

/// A recovery grid: the cartesian product of a [`ScenarioGrid`] with a
/// fault axis (fault-major enumeration), the `rotor_sweep` surface for
/// fault-injection sweeps.
#[derive(Clone, Debug)]
pub struct RecoveryGrid {
    /// The healthy scenario lattice.
    pub grid: ScenarioGrid,
    /// Faults to apply (outermost axis).
    pub faults: Vec<FaultSpec>,
}

impl RecoveryGrid {
    /// Enumerates `(fault, scenario)` cells, fault-major then the
    /// [`ScenarioGrid::scenarios`] order. Scenario seeds are untouched by
    /// the fault axis: the same scenario disturbed two ways shares its
    /// healthy phase bit-for-bit.
    pub fn cells(&self) -> Vec<(FaultSpec, Scenario)> {
        let scenarios = self.grid.scenarios();
        let mut out = Vec::with_capacity(self.faults.len() * scenarios.len());
        for &fault in &self.faults {
            for &sc in &scenarios {
                out.push((fault, sc));
            }
        }
        out
    }

    /// The index range of one `(fault, family, n, k)` point in
    /// [`cells`](Self::cells) — one entry per seed index, mirroring
    /// [`ScenarioGrid::point_range`].
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for the grid's axes.
    pub fn point_range(
        &self,
        fault_index: usize,
        family_index: usize,
        n_index: usize,
        k_index: usize,
    ) -> std::ops::Range<usize> {
        assert!(fault_index < self.faults.len(), "fault index in range");
        let per_fault = self.grid.families.len()
            * self.grid.ns.len()
            * self.grid.ks.len()
            * self.grid.seed_count;
        let inner = self.grid.point_range(family_index, n_index, k_index);
        let base = fault_index * per_fault;
        base + inner.start..base + inner.end
    }
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

/// The disturbance → epoch-reset → re-cover core, shared by the ring and
/// general-engine paths. `occupied` and `step_sched` feed the stall kind:
/// the current `(node, count)` occupation becomes a [`DelaySchedule`]
/// holding everything in place, driven through the §2.1 delayed-step hook.
///
/// Returns `(disturb_round, touched, recover, cycle)`.
fn disturb_and_recover<P, S>(
    p: &mut P,
    fault: &FaultSpec,
    plan: &FaultPlan,
    opts: &RecoveryOptions,
    occupied: impl Fn(&P) -> Vec<(u32, u32)>,
    step_sched: S,
) -> (u64, u32, Option<u64>, Option<CycleInfo>)
where
    P: Perturb + ConfigSnapshot + Clone,
    S: Fn(&mut P, &DelaySchedule),
{
    let disturb_round = p.round();
    let touched = match fault.kind {
        FaultKind::CorruptPointers | FaultKind::CrashAgents => {
            let t = plan.apply_state_fault(0, p);
            p.reset_cover_epoch();
            t
        }
        FaultKind::StallAgents => {
            // An adversarial §2.1 delayed deployment: hold every agent at
            // its node for `severity` rounds. The stalled rounds count
            // toward recovery — that is the point of the fault.
            let mut sched = DelaySchedule::new();
            let start = disturb_round + 1;
            for (v, c) in occupied(p) {
                sched.hold_during(v, start..start + u64::from(fault.severity), c);
            }
            p.reset_cover_epoch();
            for _ in 0..fault.severity {
                step_sched(p, &sched);
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
    (disturb_round, touched, recover, cycle)
}

/// Measures one recovery cell: runs `sc`'s rotor process to cover, strikes
/// `fault` `after_cover` rounds later (seed-derived through the scenario's
/// [`FaultPlan`]), and measures re-cover (and optionally re-lock-in) time.
///
/// Dispatch mirrors [`run_scenario_cycle`](crate::runners::run_scenario_cycle):
/// the ring family runs the [`RingRouter`] fast path, every other family —
/// and every [`ChurnEdges`](FaultKind::ChurnEdges) cell, whose rewired
/// graph is no longer a ring — runs the general [`Engine`]. If the healthy
/// phase fails to cover within `opts.cover_budget`, no disturbance is
/// applied and the sample records the timeout honestly (`cover: None`,
/// everything downstream `None`).
pub fn run_scenario_recovery(
    sc: &Scenario,
    fault: &FaultSpec,
    opts: &RecoveryOptions,
) -> RecoverySample {
    // lint: allow(wall-clock) -- feeds RecoverySample::nanos, a declared nondeterministic timing field
    let start = Instant::now();
    let positions = sc.positions();
    let mut plan = FaultPlan::new(sc.seed);
    let sample =
        |cover, disturb, touched, recover, cycle: Option<CycleInfo>, backend| RecoverySample {
            n: sc.n,
            k: sc.k,
            seed_index: sc.seed_index,
            seed: sc.seed,
            cover,
            disturb_round: disturb,
            touched,
            recover,
            relock: cycle.map(|c| c.tail),
            period: cycle.map(|c| c.period),
            backend,
            nanos: start.elapsed().as_nanos() as u64,
        };
    if fault.kind == FaultKind::ChurnEdges {
        // Edge churn rebuilds the topology, so the engine is rebuilt too —
        // a fresh engine's starts-visited initialisation *is* the epoch
        // reset. The ring family also takes this path: a churned ring is
        // not the ring the fast path assumes.
        let g = sc.graph();
        let ids: Vec<NodeId> = positions.iter().map(|&v| NodeId::new(v)).collect();
        let ptrs = initial_pointers(sc, &g, &positions, &ids);
        let mut e = Engine::with_pointers(&g, &ids, ptrs);
        let Some(cover) = e.run_until_covered(opts.cover_budget) else {
            return sample(None, None, 0, None, None, e.kind_name());
        };
        e.run(fault.after_cover);
        let disturb_round = e.round();
        plan.push(disturb_round, fault.kind, fault.severity);
        let state = e.state();
        drop(e);
        let (churned, applied) = churn_graph(&g, plan.event_seed(0), fault.severity);
        let survivors = agent_multiset(&state.agents);
        // Double-edge swaps preserve degrees, so the carried-over pointers
        // stay in range; the modulo is a guard, not a remapping.
        let ptrs2: Vec<u32> = state
            .pointers
            .iter()
            .enumerate()
            .map(|(v, &p)| p % churned.degree(NodeId::new(v as u32)) as u32)
            .collect();
        let mut e2 = Engine::with_pointers(&churned, &survivors, ptrs2.clone());
        // Fresh engine: rounds count from the disturbance by construction.
        let recover = e2.run_until_covered(opts.recover_budget);
        let cycle = opts.relock_budget.and_then(|b| {
            probe_cycle(
                || Engine::with_pointers(&churned, &survivors, ptrs2.clone()),
                b,
            )
        });
        return sample(
            Some(cover),
            Some(disturb_round),
            applied,
            recover,
            cycle,
            e2.kind_name(),
        );
    }
    if sc.family.is_ring() {
        let dirs = sc.ring_directions(&positions);
        let mut p = RingRouter::new(sc.n, &positions, &dirs);
        let Some(cover) = p.run_until_covered(opts.cover_budget) else {
            return sample(None, None, 0, None, None, p.kind_name());
        };
        p.run(fault.after_cover);
        plan.push(RingRouter::round(&p), fault.kind, fault.severity);
        let (disturb, touched, recover, cycle) = disturb_and_recover(
            &mut p,
            fault,
            &plan,
            opts,
            RingRouter::occupied,
            delays::step_ring,
        );
        sample(
            Some(cover),
            Some(disturb),
            touched,
            recover,
            cycle,
            p.kind_name(),
        )
    } else {
        let g = sc.graph();
        let ids: Vec<NodeId> = positions.iter().map(|&v| NodeId::new(v)).collect();
        let ptrs = initial_pointers(sc, &g, &positions, &ids);
        let mut p = Engine::with_pointers(&g, &ids, ptrs);
        let Some(cover) = p.run_until_covered(opts.cover_budget) else {
            return sample(None, None, 0, None, None, p.kind_name());
        };
        p.run(fault.after_cover);
        plan.push(Engine::round(&p), fault.kind, fault.severity);
        let (disturb, touched, recover, cycle) = disturb_and_recover(
            &mut p,
            fault,
            &plan,
            opts,
            |e: &Engine<'_>| {
                e.occupied()
                    .iter()
                    .map(|&v| (v, e.agents_at(NodeId::new(v))))
                    .collect()
            },
            delays::step_engine,
        );
        sample(
            Some(cover),
            Some(disturb),
            touched,
            recover,
            cycle,
            p.kind_name(),
        )
    }
}

/// Runs every cell of a [`RecoveryGrid`] through the sharded driver and
/// returns the samples in cell order — the sweep entry point the recovery
/// bench and campaign build on.
pub fn run_recovery_grid(
    grid: &RecoveryGrid,
    threads: usize,
    opts: &RecoveryOptions,
) -> Vec<RecoverySample> {
    let cells = grid.cells();
    run_sharded(&cells, threads, |_, (fault, sc)| {
        run_scenario_recovery(sc, fault, opts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{GraphFamily, InitSpec, PlacementSpec};

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
        let grid = RecoveryGrid {
            grid: ring_grid(24, vec![1, 3]),
            faults: vec![
                fault(FaultKind::CorruptPointers),
                fault(FaultKind::CrashAgents),
            ],
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
        let one: Vec<_> = run_recovery_grid(&grid, 1, &opts())
            .iter()
            .map(key)
            .collect();
        let two: Vec<_> = run_recovery_grid(&grid, 2, &opts())
            .iter()
            .map(key)
            .collect();
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

    #[test]
    fn grid_point_range_matches_cell_order() {
        let grid = RecoveryGrid {
            grid: ring_grid(24, vec![1, 3]),
            faults: vec![
                fault(FaultKind::CorruptPointers),
                fault(FaultKind::ChurnEdges),
            ],
        };
        let cells = grid.cells();
        assert_eq!(cells.len(), 2 * 2 * 2);
        for (fi, f) in grid.faults.iter().enumerate() {
            for (ki, &k) in grid.grid.ks.iter().enumerate() {
                for (offset, i) in grid.point_range(fi, 0, 0, ki).enumerate() {
                    let (cf, sc) = &cells[i];
                    assert_eq!(cf.kind, f.kind);
                    assert_eq!(sc.k, k);
                    assert_eq!(sc.seed_index, offset);
                }
            }
        }
    }
}
