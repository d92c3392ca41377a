//! Delayed deployments `D : V × N → N` (§2.1).
//!
//! The paper's proofs frequently compare an execution with a *delayed* one
//! in which some agents are held at their nodes for chosen rounds: a
//! delayed deployment is a function `D(v, t)` giving the number of agents
//! held at node `v` in round `t` (clamped to the number actually present).
//! Held agents neither move nor advance the pointer, and staying put does
//! not count as a visit. The *slow-down lemma* (Lemma 3) states that
//! delaying deployments never decreases the time at which any vertex is
//! visited, which is why worst-case arguments may freeze agents freely.
//!
//! Both engines expose a per-round closure hook
//! ([`Engine::step_delayed`](crate::Engine::step_delayed),
//! [`RingRouter::step_delayed`](crate::RingRouter::step_delayed)); this
//! module provides the explicit schedule object `D` the paper's notation
//! uses, and [`DelaySchedule::at`] turns one round of it into that hook's
//! closure.

use std::collections::BTreeMap;

/// An explicit delayed deployment `D : V × N → N`: `delay(v, t)` agents are
/// held at node `v` in round `t`.
///
/// Rounds are numbered from 1 (the first call to `step`), matching
/// [`CoverProcess::round`](crate::CoverProcess::round) after the step
/// completes. Unspecified pairs default to 0 (no delay).
///
/// ```
/// use rotor_core::delays::DelaySchedule;
/// use rotor_core::{CoverProcess, RingRouter};
///
/// let mut d = DelaySchedule::new();
/// d.hold(3, 1, 2); // hold two agents at node 3 in round 1
/// let mut r = RingRouter::new(8, &[3, 3], &[0; 8]);
/// r.step_delayed(d.at(r.round() + 1));
/// assert_eq!(r.agents_at(3), 2, "both agents held");
/// r.step_delayed(d.at(r.round() + 1));
/// assert_eq!(r.agents_at(3), 0, "no delay scheduled for round 2");
/// ```
#[derive(Clone, Debug, Default)]
pub struct DelaySchedule {
    // Keyed store ordered by (node, round): lookups are point queries, and
    // any future iteration (serialisation, debugging) is schedule-order
    // independent by construction — a HashMap here was the workspace's one
    // order-dependent container in result-bearing code.
    held: BTreeMap<(u32, u64), u32>,
}

impl DelaySchedule {
    /// The empty schedule (`D ≡ 0`, the undelayed execution).
    pub fn new() -> Self {
        Self::default()
    }

    /// Holds `count` agents at node `v` in round `round` (replacing any
    /// previous entry for that pair).
    pub fn hold(&mut self, v: u32, round: u64, count: u32) -> &mut Self {
        self.held.insert((v, round), count);
        self
    }

    /// Holds `count` agents at node `v` for every round in `rounds`.
    pub fn hold_during(&mut self, v: u32, rounds: std::ops::Range<u64>, count: u32) -> &mut Self {
        for t in rounds {
            self.hold(v, t, count);
        }
        self
    }

    /// `D(v, round)`: how many agents the schedule holds at `v` in `round`.
    pub fn delay(&self, v: u32, round: u64) -> u32 {
        self.held.get(&(v, round)).copied().unwrap_or(0)
    }

    /// Round `round` of the schedule as the `delay(v, c)` closure both
    /// engines' `step_delayed` take; the round being executed is the
    /// process's [`round`](crate::CoverProcess::round) plus one.
    pub fn at(&self, round: u64) -> impl Fn(u32, u32) -> u32 + '_ {
        move |v, _| self.delay(v, round)
    }

    /// Whether the schedule is identically zero.
    pub fn is_empty(&self) -> bool {
        self.held.values().all(|&c| c == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::PointerInit;
    use crate::{CoverProcess, Engine, RingRouter};
    use rotor_graph::{builders, NodeId};

    #[test]
    fn empty_schedule_matches_undelayed() {
        let g = builders::grid(3, 3);
        let agents = [NodeId::new(0), NodeId::new(4)];
        let init = PointerInit::Uniform(0);
        let mut a = Engine::new(&g, &agents, &init);
        let mut b = Engine::new(&g, &agents, &init);
        let schedule = DelaySchedule::new();
        assert!(schedule.is_empty());
        for _ in 0..50 {
            a.step();
            b.step_delayed(schedule.at(b.round() + 1));
            assert_eq!(a.state(), b.state());
        }
    }

    #[test]
    fn schedule_holds_then_releases() {
        let mut d = DelaySchedule::new();
        d.hold_during(5, 1..4, 1);
        assert_eq!(d.delay(5, 1), 1);
        assert_eq!(d.delay(5, 3), 1);
        assert_eq!(d.delay(5, 4), 0);
        assert_eq!(d.delay(6, 1), 0);

        let mut r = RingRouter::new(10, &[5], &[0; 10]);
        for _ in 0..3 {
            r.step_delayed(d.at(r.round() + 1));
        }
        assert_eq!(r.agents_at(5), 1, "held for rounds 1..4");
        assert_eq!(r.round(), 3);
        r.step_delayed(d.at(r.round() + 1));
        assert_eq!(r.agents_at(6), 1, "released in round 4");
    }

    #[test]
    fn slow_down_lemma_flavour_on_ring() {
        // Lemma 3: delaying agents never makes any vertex be visited
        // earlier. Compare first-visit coverage after the same number of
        // rounds with and without a delay.
        let n = 24;
        let starts = [0u32, 0];
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let mut plain = RingRouter::new(n, &starts, &dirs);
        let mut slow = RingRouter::new(n, &starts, &dirs);
        let mut d = DelaySchedule::new();
        d.hold_during(0, 1..20, 1);
        for _ in 0..200 {
            plain.step();
            slow.step_delayed(d.at(slow.round() + 1));
            for v in 0..n {
                // anything the delayed run has visited, the plain run has too
                if slow.visits().contains(v) {
                    assert!(plain.visits().contains(v), "delay visited {v} first");
                }
            }
        }
    }

    #[test]
    fn engine_schedule_clamps_to_present_agents() {
        let g = builders::ring(6);
        let mut e = Engine::new(&g, &[NodeId::new(2)], &PointerInit::Uniform(0));
        let mut d = DelaySchedule::new();
        d.hold(2, 1, 10); // more than present: clamped
        e.step_delayed(d.at(1));
        assert_eq!(e.agents_at(NodeId::new(2)), 1);
    }
}
