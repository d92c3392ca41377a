//! Per-cell cover-time measurement for every [`CoverProcess`] backend.
//!
//! A runner turns one [`Scenario`] into one [`CoverSample`]; which
//! process backs the measurement is a [`ProcessKind`] value, so the same
//! sharded sweep produces paired rotor-router and random-walk curves from
//! one grid — the measurement the paper's "deterministic alternative to
//! parallel random walks" framing calls for. Dispatch is over `(GraphFamily, ProcessKind)`:
//! [`ProcessKind::Rotor`] resolves to the [`RingRouter`] fast path on the
//! ring family and to the general [`Engine`] everywhere else.

use crate::scenario::Scenario;
use rotor_core::limit::{self, CycleInfo};
use rotor_core::rng::{stream, STREAM_WALK};
use rotor_core::{CoverProcess, Engine, Observer, RingRouter};
use rotor_graph::NodeId;
use rotor_walks::ParallelWalk;
use std::time::Instant;

/// Which [`CoverProcess`] implementation backs a cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcessKind {
    /// The family-appropriate rotor-router: [`RingRouter`] when the
    /// scenario's family is the ring, the general [`Engine`] otherwise.
    /// The right default for every rotor sweep.
    Rotor,
    /// The general-graph rotor-router ([`Engine`]) — on the ring, used to
    /// cross-check the specialised engine at sweep scale.
    RotorGeneral,
    /// `k` independent random walkers ([`ParallelWalk`]) — the baseline.
    RandomWalk,
}

impl ProcessKind {
    /// A short stable label (used in report curve names).
    pub fn label(&self) -> &'static str {
        match self {
            ProcessKind::Rotor => "rotor",
            ProcessKind::RotorGeneral => "rotor_general",
            ProcessKind::RandomWalk => "walk",
        }
    }
}

/// One measured cell: the cell coordinates plus the observed cover
/// behaviour and wall-clock cost.
#[derive(Clone, Copy, Debug)]
pub struct CoverSample {
    /// Ring size.
    pub n: usize,
    /// Agent / walker count.
    pub k: usize,
    /// Repetition index within the (n, k) point.
    pub seed_index: usize,
    /// The cell's derived seed.
    pub seed: u64,
    /// Cover round, or `None` if `max_rounds` elapsed first.
    pub cover: Option<u64>,
    /// Rounds actually simulated.
    pub rounds: u64,
    /// Wall-clock nanoseconds spent simulating (excludes setup).
    pub nanos: u64,
    /// Which engine actually ran the cell
    /// ([`CoverProcess::kind_name`]): `"rotor_ring"`, `"rotor_general"`
    /// or `"walk"` — the resolution
    /// of the [`ProcessKind::Rotor`] auto-dispatch, recorded so reports can
    /// carry the backend column.
    pub backend: &'static str,
}

/// Measures one [`Scenario`] with the given process, running to cover or
/// `max_rounds`, whichever comes first.
///
/// Dispatch keeps the ring fast path: `Rotor` on the ring family runs the
/// `O(k)`-per-round [`RingRouter`]; everything else builds the scenario's
/// graph and runs the general [`Engine`] or [`ParallelWalk`]. On the ring,
/// pointer initialisation goes through the direction-bit form for *all*
/// kinds ([`Scenario::engine`]), so general-engine cross-checks see
/// exactly the specialised engine's initial configuration.
pub fn run_scenario(sc: &Scenario, kind: ProcessKind, max_rounds: u64) -> CoverSample {
    // The unobserved run is the observed one with a no-op instrument —
    // one dispatch to keep in sync, and the "observation must not perturb
    // the run" pins hold by construction.
    struct NoOp;
    impl<P: CoverProcess + ?Sized> Observer<P> for NoOp {
        fn observe(&mut self, _: &P) {}
    }
    run_scenario_observed(sc, kind, max_rounds, &mut NoOp)
}

/// Measures one [`Scenario`] like [`run_scenario`], with a per-round
/// [`Observer`] attached to the drive loop
/// ([`run_observed`](CoverProcess::run_observed)): the observer sees the
/// initial configuration and every round's result, whichever backend the
/// `(family, kind)` dispatch selects.
///
/// The observer bound is "attaches to every backend this runner can
/// build" — any `impl Observer<P> for all P: CoverProcess` instrument
/// (such as [`DomainSampler`](rotor_core::domains::DomainSampler))
/// satisfies it directly.
pub fn run_scenario_observed<O>(
    sc: &Scenario,
    kind: ProcessKind,
    max_rounds: u64,
    observer: &mut O,
) -> CoverSample
where
    O: Observer<RingRouter> + for<'g> Observer<Engine<'g>> + for<'g> Observer<ParallelWalk<'g>>,
{
    match kind {
        ProcessKind::Rotor if sc.family.is_ring() => {
            finish_observed(sc, &mut sc.ring_router(), max_rounds, observer)
        }
        ProcessKind::Rotor | ProcessKind::RotorGeneral => {
            let g = sc.graph();
            finish_observed(sc, &mut sc.engine(&g), max_rounds, observer)
        }
        ProcessKind::RandomWalk => {
            let g = sc.graph();
            let ids: Vec<NodeId> = sc.positions().into_iter().map(NodeId::new).collect();
            let mut p = ParallelWalk::new(&g, &ids, stream(sc.seed, STREAM_WALK));
            finish_observed(sc, &mut p, max_rounds, observer)
        }
    }
}

/// The `(μ, λ)` limit-cycle structure of one rotor [`Scenario`] (§4),
/// measured with the [`CycleProbe`](rotor_core::limit::CycleProbe) /
/// [`TailProbe`](rotor_core::limit::TailProbe) observer passes of
/// [`limit::probe_cycle`] — so Brent return-time probing runs on *any*
/// graph family the scenario layer can build, not just the ring.
///
/// The ring family keeps the [`RingRouter`] fast path (snapshotting
/// [`RingState`](rotor_core::RingState)); every other family probes the
/// general [`Engine`]. The random-walk baseline has no deterministic limit
/// cycle, so there is no `ProcessKind` here: this is a rotor instrument.
///
/// Returns `None` when no cycle is certified within `max_steps` rounds.
pub fn run_scenario_cycle(sc: &Scenario, max_steps: u64) -> Option<CycleInfo> {
    if sc.family.is_ring() {
        let start = sc.ring_router();
        limit::probe_cycle(|| start.clone(), max_steps)
    } else {
        let g = sc.graph();
        let start = sc.engine(&g);
        limit::probe_cycle(|| start.clone(), max_steps)
    }
}

/// Shared tail of every runner: timed `run_observed` plus sample
/// assembly — exactly the surface [`CoverProcess`] promises.
fn finish_observed<P: CoverProcess>(
    sc: &Scenario,
    p: &mut P,
    max_rounds: u64,
    observer: &mut impl Observer<P>,
) -> CoverSample {
    #[expect(clippy::disallowed_methods, reason = "feeds CoverSample::nanos")]
    let start = Instant::now();
    let cover = p.run_observed(max_rounds, observer);
    let nanos = start.elapsed().as_nanos() as u64;
    CoverSample {
        n: sc.n,
        k: sc.k,
        seed_index: sc.seed_index,
        seed: sc.seed,
        cover,
        rounds: p.round(),
        nanos,
        backend: p.kind_name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_sharded;
    use crate::scenario::{GraphFamily, InitSpec, PlacementSpec, ScenarioGrid};

    fn grid() -> ScenarioGrid {
        ScenarioGrid {
            families: vec![GraphFamily::Ring],
            ns: vec![32, 64],
            ks: vec![1, 2, 4],
            seed_count: 2,
            base_seed: 7,
            placement: PlacementSpec::Random,
            init: InitSpec::Random,
        }
    }

    #[test]
    fn rotor_ring_matches_general_engine_cell_by_cell() {
        let scenarios = grid().scenarios();
        let fast = run_sharded(&scenarios, 2, |_, s| {
            run_scenario(s, ProcessKind::Rotor, 1 << 22)
        });
        let general = run_sharded(&scenarios, 2, |_, s| {
            run_scenario(s, ProcessKind::RotorGeneral, 1 << 22)
        });
        for (f, g) in fast.iter().zip(&general) {
            assert_eq!(f.cover, g.cover, "n={} k={} seed={}", f.n, f.k, f.seed);
            assert!(f.cover.is_some(), "rotor-router always covers");
        }
    }

    #[test]
    fn sharding_is_thread_count_invariant() {
        let scenarios = grid().scenarios();
        let one: Vec<Option<u64>> = run_sharded(&scenarios, 1, |_, s| {
            run_scenario(s, ProcessKind::RandomWalk, 1 << 22).cover
        });
        let four: Vec<Option<u64>> = run_sharded(&scenarios, 4, |_, s| {
            run_scenario(s, ProcessKind::RandomWalk, 1 << 22).cover
        });
        assert_eq!(one, four, "seeded walks are scheduling-independent");
    }

    #[test]
    fn worst_case_rotor_cell_matches_direct_router() {
        use rotor_core::init::PointerInit;
        use rotor_core::placement::Placement;
        use rotor_core::RingRouter;
        let sc = Scenario {
            family: GraphFamily::Ring,
            n: 128,
            k: 4,
            seed_index: 0,
            seed: 0xDEAD,
            placement: PlacementSpec::AllOnOne,
            init: InitSpec::TowardNearestAgent,
        };
        let sample = run_scenario(&sc, ProcessKind::Rotor, u64::MAX);
        let starts = Placement::AllOnOne(0).positions(128, 4);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(128, &starts);
        let direct = RingRouter::new(128, &starts, &dirs)
            .run_until_covered(u64::MAX)
            .unwrap();
        assert_eq!(sample.cover, Some(direct));
        assert_eq!(sample.rounds, direct, "stops at cover");
    }

    #[test]
    fn rotor_auto_dispatch_covers_every_family() {
        let families = [
            GraphFamily::Ring,
            GraphFamily::Path,
            GraphFamily::Torus { rows: 4, cols: 8 },
            GraphFamily::Hypercube { dim: 5 },
            GraphFamily::Complete,
            GraphFamily::Star,
            GraphFamily::BinaryTree,
            GraphFamily::Lollipop {
                clique: 16,
                tail: 16,
            },
            GraphFamily::RandomRegular { degree: 4 },
        ];
        for family in families {
            let sc = Scenario {
                family,
                n: 32,
                k: 2,
                seed_index: 0,
                seed: 0xFACE,
                placement: PlacementSpec::AllOnOne,
                init: InitSpec::TowardNearestAgent,
            };
            let rotor = run_scenario(&sc, ProcessKind::Rotor, 1 << 22);
            assert!(rotor.cover.is_some(), "{} rotor covers", family.label());
            let walk = run_scenario(&sc, ProcessKind::RandomWalk, 1 << 22);
            assert!(walk.cover.is_some(), "{} walk covers", family.label());
        }
    }

    #[test]
    fn samples_record_the_dispatched_backend() {
        // The Rotor auto kind resolves per family; the sample's backend
        // column (CoverProcess::kind_name) records what actually ran.
        let sc = |family| Scenario {
            family,
            n: 32,
            k: 2,
            seed_index: 0,
            seed: 0xFACE,
            placement: PlacementSpec::AllOnOne,
            init: InitSpec::TowardNearestAgent,
        };
        let ring = sc(GraphFamily::Ring);
        let torus = sc(GraphFamily::Torus { rows: 4, cols: 8 });
        assert_eq!(
            run_scenario(&ring, ProcessKind::Rotor, 1 << 22).backend,
            "rotor_ring"
        );
        assert_eq!(
            run_scenario(&ring, ProcessKind::RotorGeneral, 1 << 22).backend,
            "rotor_general"
        );
        assert_eq!(
            run_scenario(&torus, ProcessKind::Rotor, 1 << 22).backend,
            "rotor_general"
        );
        assert_eq!(
            run_scenario(&torus, ProcessKind::RandomWalk, 1 << 22).backend,
            "walk"
        );
    }

    #[test]
    fn rotor_auto_matches_explicit_ring_kind() {
        let scenarios = ScenarioGrid {
            families: vec![GraphFamily::Ring],
            ns: vec![64],
            ks: vec![1, 3],
            seed_count: 2,
            base_seed: 3,
            placement: PlacementSpec::Random,
            init: InitSpec::Random,
        }
        .scenarios();
        for sc in &scenarios {
            let auto = run_scenario(sc, ProcessKind::Rotor, 1 << 22);
            let positions = sc.positions();
            let dirs = sc.ring_directions(&positions);
            let mut explicit = RingRouter::new(sc.n, &positions, &dirs);
            assert_eq!(auto.cover, explicit.run_until_covered(1 << 22));
            assert_eq!(auto.rounds, explicit.round());
        }
    }

    #[test]
    fn observed_run_matches_plain_run_on_every_kind() {
        use rotor_core::domains::DomainSampler;
        for family in [GraphFamily::Ring, GraphFamily::Torus { rows: 4, cols: 8 }] {
            let sc = Scenario {
                family,
                n: 32,
                k: 2,
                seed_index: 0,
                seed: 0xBEE,
                placement: PlacementSpec::Random,
                init: InitSpec::Random,
            };
            for kind in [
                ProcessKind::Rotor,
                ProcessKind::RotorGeneral,
                ProcessKind::RandomWalk,
            ] {
                let plain = run_scenario(&sc, kind, 1 << 22);
                let mut sampler = DomainSampler::every(1);
                let observed = run_scenario_observed(&sc, kind, 1 << 22, &mut sampler);
                assert_eq!(
                    (plain.cover, plain.rounds),
                    (observed.cover, observed.rounds),
                    "{} {kind:?}: observation must not perturb the run",
                    family.label()
                );
                // initial configuration + one sample per round
                assert_eq!(sampler.samples.len() as u64, observed.rounds + 1);
                let last = sampler.samples.last().unwrap();
                assert_eq!((last.domains, last.borders), (1, 0), "covered: one domain");
            }
        }
    }

    #[test]
    fn scenario_cycle_matches_direct_ring_cycle() {
        use rotor_core::limit;
        let sc = Scenario {
            family: GraphFamily::Ring,
            n: 16,
            k: 2,
            seed_index: 0,
            seed: 0xF00D,
            placement: PlacementSpec::AllOnOne,
            init: InitSpec::TowardNearestAgent,
        };
        let via_scenario = run_scenario_cycle(&sc, 10_000_000).unwrap();
        let positions = sc.positions();
        let dirs = sc.ring_directions(&positions);
        let direct =
            limit::probe_cycle(|| RingRouter::new(16, &positions, &dirs), 10_000_000).unwrap();
        assert_eq!(via_scenario, direct);
    }

    #[test]
    fn scenario_cycle_on_non_ring_family_finds_lockin_period() {
        // Single agent on the torus: the limit cycle is the Eulerian
        // traversal, period exactly 2|E| (lock-in theorem).
        let sc = Scenario {
            family: GraphFamily::Torus { rows: 4, cols: 4 },
            n: 16,
            k: 1,
            seed_index: 0,
            seed: 0x70F5,
            placement: PlacementSpec::AllOnOne,
            init: InitSpec::Uniform(0),
        };
        let info = run_scenario_cycle(&sc, 10_000_000).unwrap();
        let two_e = 2 * sc.graph().edge_count() as u64;
        assert_eq!(info.period, two_e);
    }

    #[test]
    fn ring_backends_match_cell_by_cell() {
        // One ScenarioGrid through Rotor and RotorGeneral must produce
        // field-identical reports under `xtask compare` semantics — every
        // CoverSample field except `nanos` (wall-clock time, which no
        // report carries) and `backend`
        // (compare-stable *within* a backend; across backends it differs
        // by construction and is asserted exactly). Of the three
        // kind_names — rotor_ring, rotor_general and walk — only the
        // random-walk baseline covers differently.
        let scenarios = ScenarioGrid {
            families: vec![GraphFamily::Ring],
            ns: vec![32, 61],
            ks: vec![1, 2, 5],
            seed_count: 2,
            base_seed: 11,
            placement: PlacementSpec::Random,
            init: InitSpec::Random,
        }
        .scenarios();
        let run = |kind| -> Vec<CoverSample> {
            run_sharded(&scenarios, 2, |_, s| run_scenario(s, kind, 1 << 22))
        };
        let deterministic = |c: &CoverSample| (c.n, c.k, c.seed_index, c.seed, c.cover, c.rounds);
        let ring = run(ProcessKind::Rotor);
        for (r, o) in ring.iter().zip(&run(ProcessKind::RotorGeneral)) {
            assert_eq!(
                deterministic(r),
                deterministic(o),
                "RotorGeneral diverged at n={} k={} seed={}",
                r.n,
                r.k,
                r.seed
            );
            assert_eq!((r.backend, o.backend), ("rotor_ring", "rotor_general"));
        }
    }

    #[test]
    fn timeout_yields_none_with_rounds_spent() {
        let sc = Scenario {
            family: GraphFamily::Ring,
            n: 256,
            k: 1,
            seed_index: 0,
            seed: 1,
            placement: PlacementSpec::AllOnOne,
            init: InitSpec::TowardNearestAgent,
        };
        let s = run_scenario(&sc, ProcessKind::Rotor, 10);
        assert_eq!(s.cover, None);
        assert_eq!(s.rounds, 10);
    }
}
