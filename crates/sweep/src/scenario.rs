//! The scenario-first experiment surface: graph families, scenarios, and
//! family-axis sweep grids.
//!
//! The paper's results span the ring (Theorems 1–4) *and* general graphs
//! (the `Θ(mD)` cover bound of §1.2), but the PR 2 sweep lattice could
//! only say "ring of size n". A [`Scenario`] names the *whole* experiment
//! point — graph family, size, agent count, seed, placement, pointer
//! init — and [`ScenarioGrid`] enumerates cartesian products with the
//! family as an outermost axis, so `general_graphs`-style sweeps fan
//! (family, n, k, seed) cells through the same
//! [`run_sharded`](crate::driver::run_sharded) driver as every ring
//! experiment.
//!
//! Reproducibility rule: a scenario's measurement may depend only on the
//! scenario's own fields — never on which thread ran it or in which order.
//! All randomness (random placements, random pointer inits, random graph
//! draws, random-walk trajectories) is derived from [`Scenario::seed`],
//! a splitmix64 hash of the grid's `base_seed` and the scenario's position
//! in the enumeration, so re-running any subset of a grid reproduces
//! exactly.
//!
//! ```
//! use rotor_sweep::{
//!     run_scenario, run_sharded, GraphFamily, InitSpec, PlacementSpec, ProcessKind,
//!     ScenarioGrid,
//! };
//!
//! let grid = ScenarioGrid {
//!     families: vec![GraphFamily::Ring, GraphFamily::Torus { rows: 8, cols: 8 }],
//!     ns: vec![64],
//!     ks: vec![1, 4],
//!     seed_count: 2,
//!     base_seed: 7,
//!     placement: PlacementSpec::Random,
//!     init: InitSpec::Random,
//! };
//! let scenarios = grid.scenarios();
//! assert_eq!(scenarios.len(), 2 * 2 * 2);
//! let samples = run_sharded(&scenarios, 2, |_, sc| {
//!     run_scenario(sc, ProcessKind::Rotor, 1 << 22)
//! });
//! assert!(samples.iter().all(|s| s.cover.is_some()));
//! ```

use rotor_core::init::PointerInit;
use rotor_core::placement::Placement;
pub use rotor_core::rng::splitmix64;
use rotor_core::rng::{stream, STREAM_GRAPH, STREAM_POINTER_INIT};
use rotor_core::{Engine, RingRouter};
use rotor_graph::{builders, NodeId, PortGraph};

/// Agent placement strategy for a scenario (the seed-bearing variants draw
/// from the scenario seed, unlike [`Placement`] which carries its own).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlacementSpec {
    /// All agents on node 0 — the worst case of Theorems 1–2.
    AllOnOne,
    /// Agents equally spaced — the best case of Theorems 3–4.
    EquallySpaced,
    /// Independent uniformly random nodes, from the scenario seed.
    Random,
}

impl PlacementSpec {
    /// The concrete [`Placement`] for a scenario with the given seed.
    pub fn placement(self, seed: u64) -> Placement {
        match self {
            PlacementSpec::AllOnOne => Placement::AllOnOne(0),
            PlacementSpec::EquallySpaced => Placement::EquallySpaced { offset: 0 },
            PlacementSpec::Random => Placement::Random(seed),
        }
    }
}

/// Pointer initialisation strategy for a scenario.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InitSpec {
    /// Negative initialisation (pointers toward the nearest agent).
    TowardNearestAgent,
    /// Positive initialisation (pointers away from the nearest agent).
    AwayFromNearestAgent,
    /// All pointers at the same port.
    Uniform(usize),
    /// Independent random pointers, from the scenario seed
    /// (domain-separated from the placement's stream).
    Random,
}

impl InitSpec {
    /// The concrete [`PointerInit`] for a scenario with the given seed.
    pub fn pointer_init(self, seed: u64) -> PointerInit {
        match self {
            InitSpec::TowardNearestAgent => PointerInit::TowardNearestAgent,
            InitSpec::AwayFromNearestAgent => PointerInit::AwayFromNearestAgent,
            InitSpec::Uniform(p) => PointerInit::Uniform(p),
            // Separate the init's random stream from the placement's.
            InitSpec::Random => PointerInit::Random(stream(seed, STREAM_POINTER_INIT)),
        }
    }
}

/// A named graph family a [`Scenario`] resolves on.
///
/// Scalable families (`Ring`, `Path`, `Complete`, `Star`, `BinaryTree`,
/// `RandomRegular`) take their node count from the scenario's `n`;
/// shape-fixed families (`Torus`, `Hypercube`, `Lollipop`) carry their
/// size in the variant and require `n` to match it
/// ([`fixed_node_count`](Self::fixed_node_count)), so a grid's `ns` axis
/// can never silently disagree with the family's actual size.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphFamily {
    /// The cycle `C_n` — the paper's primary object (Theorems 1–4), with
    /// the [`RingRouter`] fast path.
    Ring,
    /// The path `P_n` (the reduction target of Theorem 1's proof).
    Path,
    /// The `rows × cols` torus — 4-regular, low diameter; the
    /// near-linear-speed-up territory of Yanovski et al.'s experiments.
    Torus {
        /// Torus rows (must be ≥ 3).
        rows: usize,
        /// Torus columns (must be ≥ 3).
        cols: usize,
    },
    /// The hypercube `Q_dim` on `2^dim` nodes — logarithmic diameter, the
    /// opposite extreme from the ring's `Θ(n)`.
    Hypercube {
        /// Hypercube dimension (`1..=20`).
        dim: usize,
    },
    /// The complete graph `K_n`.
    Complete,
    /// The star `S_{n−1}` (node 0 is the centre).
    Star,
    /// The complete binary tree on `n` heap-indexed nodes.
    BinaryTree,
    /// The lollipop: a `clique`-node clique with a `tail`-node path
    /// attached — the classical `Θ(mD)`-flavoured worst case for cover
    /// time off the ring.
    Lollipop {
        /// Clique size (must be ≥ 3).
        clique: usize,
        /// Tail length (must be ≥ 1).
        tail: usize,
    },
    /// A random `degree`-regular simple connected graph, drawn from the
    /// scenario seed's [`STREAM_GRAPH`] stream — every repetition
    /// (seed index) is an independent graph draw.
    RandomRegular {
        /// Uniform node degree (≥ 2, < n, with `n·degree` even).
        degree: usize,
    },
}

impl GraphFamily {
    /// A short stable label (used in report curve names and bench JSON).
    pub fn label(&self) -> String {
        match self {
            GraphFamily::Ring => "ring".into(),
            GraphFamily::Path => "path".into(),
            GraphFamily::Torus { rows, cols } => format!("torus_{rows}x{cols}"),
            GraphFamily::Hypercube { dim } => format!("hypercube_{dim}"),
            GraphFamily::Complete => "complete".into(),
            GraphFamily::Star => "star".into(),
            GraphFamily::BinaryTree => "binary_tree".into(),
            GraphFamily::Lollipop { clique, tail } => format!("lollipop_{clique}_{tail}"),
            GraphFamily::RandomRegular { degree } => format!("random_regular_d{degree}"),
        }
    }

    /// The node count a shape-fixed family dictates, or `None` for
    /// families that scale with the scenario's `n`.
    pub fn fixed_node_count(&self) -> Option<usize> {
        match self {
            GraphFamily::Torus { rows, cols } => Some(rows * cols),
            GraphFamily::Hypercube { dim } => Some(1usize << dim),
            GraphFamily::Lollipop { clique, tail } => Some(clique + tail),
            _ => None,
        }
    }

    /// Checks that this family can be built with `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns a description of the incompatibility (size mismatch for a
    /// shape-fixed family, parity/degree violation for `RandomRegular`,
    /// `n` below the family's minimum).
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if let Some(fixed) = self.fixed_node_count() {
            if fixed != n {
                return Err(format!(
                    "family {} has {fixed} nodes but the scenario says n = {n}",
                    self.label()
                ));
            }
        }
        let min = match self {
            GraphFamily::Ring => 3, // RingRouter fast path needs n >= 3
            GraphFamily::RandomRegular { degree } => degree + 1,
            _ => 2,
        };
        if n < min {
            return Err(format!("family {} needs n >= {min}", self.label()));
        }
        if let GraphFamily::RandomRegular { degree } = self {
            if *degree < 2 {
                return Err("random regular degree must be >= 2".into());
            }
            if !(n * degree).is_multiple_of(2) {
                return Err(format!(
                    "random regular needs n*degree even, got n = {n}, degree = {degree}"
                ));
            }
        }
        Ok(())
    }

    /// Builds the family's [`PortGraph`] with `n` nodes; seeded families
    /// draw from `seed`'s [`STREAM_GRAPH`] stream.
    ///
    /// # Panics
    ///
    /// Panics if [`validate`](Self::validate) rejects `(self, n)`.
    pub fn build(&self, n: usize, seed: u64) -> PortGraph {
        if let Err(e) = self.validate(n) {
            panic!("invalid scenario graph: {e}");
        }
        match self {
            GraphFamily::Ring => builders::ring(n),
            GraphFamily::Path => builders::path(n),
            GraphFamily::Torus { rows, cols } => builders::torus(*rows, *cols),
            GraphFamily::Hypercube { dim } => builders::hypercube(*dim),
            GraphFamily::Complete => builders::complete(n),
            GraphFamily::Star => builders::star(n),
            GraphFamily::BinaryTree => builders::binary_tree(n),
            GraphFamily::Lollipop { clique, tail } => builders::lollipop(*clique, *tail),
            GraphFamily::RandomRegular { degree } => {
                builders::random_regular(n, *degree, stream(seed, STREAM_GRAPH))
            }
        }
    }

    /// Whether this is the ring family (the
    /// [`RingRouter`] fast path applies).
    pub fn is_ring(&self) -> bool {
        matches!(self, GraphFamily::Ring)
    }
}

/// One experiment point: everything a runner needs to measure one sample,
/// independent of every other scenario.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Graph family the scenario runs on.
    pub family: GraphFamily,
    /// Node count (must satisfy `family.validate(n)`).
    pub n: usize,
    /// Agent / walker count.
    pub k: usize,
    /// Repetition index within the (family, n, k) point.
    pub seed_index: usize,
    /// Derived scenario seed (splitmix64 of base seed and enumeration
    /// index).
    pub seed: u64,
    /// Placement strategy.
    pub placement: PlacementSpec,
    /// Pointer-init strategy.
    pub init: InitSpec,
}

impl Scenario {
    /// The sorted starting positions of this scenario's agents (node
    /// indices in `0..n`, valid for every family).
    pub fn positions(&self) -> Vec<u32> {
        self.placement
            .placement(self.seed)
            .positions(self.n, self.k)
    }

    /// The initial ring direction bits, given the positions.
    ///
    /// # Panics
    ///
    /// Panics if the family is not [`GraphFamily::Ring`].
    pub fn ring_directions(&self, positions: &[u32]) -> Vec<u8> {
        assert!(
            self.family.is_ring(),
            "ring_directions is only defined for the Ring family"
        );
        self.init
            .pointer_init(self.seed)
            .ring_directions(self.n, positions)
    }

    /// Builds this scenario's graph.
    pub fn graph(&self) -> PortGraph {
        self.family.build(self.n, self.seed)
    }

    /// This scenario's rotor-router on the [`RingRouter`] fast path.
    ///
    /// # Panics
    ///
    /// Panics if the family is not [`GraphFamily::Ring`].
    pub fn ring_router(&self) -> RingRouter {
        let positions = self.positions();
        RingRouter::new(self.n, &positions, &self.ring_directions(&positions))
    }

    /// This scenario's rotor-router as the general [`Engine`] on `g`, the
    /// graph [`graph`](Self::graph) builds. On the ring family the pointers
    /// come from the direction bits, so the engine starts in exactly
    /// [`ring_router`](Self::ring_router)'s configuration; every other
    /// family resolves the [`PointerInit`] on the graph.
    pub fn engine<'g>(&self, g: &'g PortGraph) -> Engine<'g> {
        let positions = self.positions();
        let ids: Vec<NodeId> = positions.iter().map(|&v| NodeId::new(v)).collect();
        let pointers = if self.family.is_ring() {
            self.ring_directions(&positions)
                .iter()
                .map(|&d| u32::from(d))
                .collect()
        } else {
            self.init.pointer_init(self.seed).pointers(g, &ids)
        };
        Engine::with_pointers(g, &ids, pointers)
    }
}

/// A rectangular scenario grid: the cartesian product
/// `families × ns × ks × (0..seed_count)` under one placement and one
/// pointer-init spec.
#[derive(Clone, Debug)]
pub struct ScenarioGrid {
    /// Graph families to sweep (outermost axis).
    pub families: Vec<GraphFamily>,
    /// Node counts to sweep. Shape-fixed families must match exactly;
    /// [`scenarios`](Self::scenarios) panics on a mismatch rather than
    /// silently skipping lattice points.
    pub ns: Vec<usize>,
    /// Agent counts to sweep.
    pub ks: Vec<usize>,
    /// Number of independent repetitions per (family, n, k) point.
    pub seed_count: usize,
    /// Base seed every scenario seed is derived from.
    pub base_seed: u64,
    /// Agent placement strategy.
    pub placement: PlacementSpec,
    /// Pointer initialisation strategy.
    pub init: InitSpec,
}

impl ScenarioGrid {
    /// Enumerates the grid's scenarios in deterministic order (family
    /// major, then `n`, then `k`, then seed index), each with its derived
    /// seed.
    ///
    /// The seed of scenario `i` is `splitmix64(splitmix64(base_seed) ^ i)`.
    ///
    /// # Panics
    ///
    /// Panics if any (family, n) pair fails
    /// [`GraphFamily::validate`].
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(
            self.families.len() * self.ns.len() * self.ks.len() * self.seed_count,
        );
        // Mix the base seed through splitmix *before* combining with the
        // index: `splitmix64(base + index)` would make grids with nearby
        // base seeds share shifted-identical seed streams (base 100's
        // scenario i == base 99's scenario i+1).
        let mixed_base = splitmix64(self.base_seed);
        for &family in &self.families {
            for &n in &self.ns {
                if let Err(e) = family.validate(n) {
                    panic!("invalid grid point: {e}");
                }
                for &k in &self.ks {
                    for seed_index in 0..self.seed_count {
                        let index = out.len() as u64;
                        out.push(Scenario {
                            family,
                            n,
                            k,
                            seed_index,
                            seed: splitmix64(mixed_base ^ index),
                            placement: self.placement,
                            init: self.init,
                        });
                    }
                }
            }
        }
        out
    }

    /// The index range that the scenarios of one (family, n, k) point
    /// occupy in [`scenarios`](Self::scenarios) (and therefore in any
    /// sample vector produced from it in order) — one entry per seed
    /// index. Keeps aggregation code next to the enumeration order it
    /// depends on instead of hand-rolled index math in every bench.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for the grid's axes.
    pub fn point_range(
        &self,
        family_index: usize,
        n_index: usize,
        k_index: usize,
    ) -> std::ops::Range<usize> {
        assert!(family_index < self.families.len(), "family index in range");
        assert!(n_index < self.ns.len(), "n index in range");
        assert!(k_index < self.ks.len(), "k index in range");
        let point = (family_index * self.ns.len() + n_index) * self.ks.len() + k_index;
        let base = point * self.seed_count;
        base..base + self.seed_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_grid() -> ScenarioGrid {
        ScenarioGrid {
            families: vec![GraphFamily::Ring],
            ns: vec![32, 64],
            ks: vec![1, 2, 4],
            seed_count: 3,
            base_seed: 99,
            placement: PlacementSpec::Random,
            init: InitSpec::Random,
        }
    }

    #[test]
    fn enumeration_is_dense_and_ordered() {
        let mut g = ring_grid();
        g.families = vec![GraphFamily::Ring, GraphFamily::Path];
        let scs = g.scenarios();
        assert_eq!(scs.len(), 2 * 2 * 3 * 3);
        assert_eq!(scs[0].family, GraphFamily::Ring);
        assert_eq!(scs[18].family, GraphFamily::Path);
        assert_eq!((scs[0].n, scs[0].k, scs[0].seed_index), (32, 1, 0));
        assert_eq!((scs[35].n, scs[35].k, scs[35].seed_index), (64, 4, 2));
    }

    #[test]
    fn scenario_seeds_are_distinct_and_reproducible() {
        // Seeds across a multi-family lattice: reproducible, collision-free,
        // and moved wholesale by a different base seed.
        let mut g = ring_grid();
        g.families = vec![GraphFamily::Ring, GraphFamily::Torus { rows: 4, cols: 8 }];
        g.ns = vec![32];
        let a = g.scenarios();
        let b = g.scenarios();
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, b.iter().map(|s| s.seed).collect::<Vec<_>>());
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "no seed collisions");
        // and a different base seed moves every cell
        let mut g2 = g.clone();
        g2.base_seed = 100;
        assert!(g2.scenarios().iter().zip(&a).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn ring_enumeration_is_dense_and_ordered() {
        let scs = ring_grid().scenarios();
        assert_eq!(scs.len(), 2 * 3 * 3);
        assert_eq!((scs[0].n, scs[0].k, scs[0].seed_index), (32, 1, 0));
        assert_eq!((scs[17].n, scs[17].k, scs[17].seed_index), (64, 4, 2));
        // n-major ordering
        assert!(scs.windows(2).all(|w| w[0].n <= w[1].n));
    }

    #[test]
    fn ring_seeds_are_distinct_and_reproducible() {
        let a = ring_grid().scenarios();
        let b = ring_grid().scenarios();
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, b.iter().map(|s| s.seed).collect::<Vec<_>>());
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "no seed collisions");
    }

    #[test]
    fn different_base_seeds_give_different_scenarios() {
        let mut g2 = ring_grid();
        g2.base_seed = 100;
        let a = ring_grid().scenarios();
        let b = g2.scenarios();
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn adjacent_base_seeds_do_not_shift_share_streams() {
        // base 100's stream must not be base 99's stream shifted by one
        // (or any small shift) — sweeps with nearby base seeds must be
        // statistically independent repetitions.
        let mut g100 = ring_grid();
        g100.base_seed = 100;
        let a: Vec<u64> = ring_grid().scenarios().iter().map(|s| s.seed).collect();
        let b: Vec<u64> = g100.scenarios().iter().map(|s| s.seed).collect();
        for shift in 0..4usize {
            assert!(
                a.iter().skip(shift).zip(&b).any(|(x, y)| x != y),
                "stream of base 100 equals base 99 shifted by {shift}"
            );
        }
    }

    #[test]
    fn positions_and_dirs_are_scenario_deterministic() {
        let scs = ring_grid().scenarios();
        for sc in &scs {
            let p1 = sc.positions();
            let p2 = sc.positions();
            assert_eq!(p1, p2);
            assert_eq!(p1.len(), sc.k);
            assert!(p1.iter().all(|&p| (p as usize) < sc.n));
            assert_eq!(sc.ring_directions(&p1), sc.ring_directions(&p2));
        }
        // random placements actually vary across seeds (k = 1 scenarios
        // may coincide by chance; compare a k = 4 pair)
        let k4: Vec<&Scenario> = scs.iter().filter(|s| s.k == 4 && s.n == 64).collect();
        assert_ne!(k4[0].positions(), k4[1].positions());
    }

    #[test]
    fn deterministic_specs_ignore_seed() {
        let mk = |seed| Scenario {
            family: GraphFamily::Ring,
            n: 64,
            k: 4,
            seed_index: 0,
            seed,
            placement: PlacementSpec::AllOnOne,
            init: InitSpec::TowardNearestAgent,
        };
        assert_eq!(mk(1).positions(), mk(2).positions());
        let p = mk(1).positions();
        assert_eq!(mk(1).ring_directions(&p), mk(2).ring_directions(&p));
    }

    #[test]
    fn splitmix_spreads_consecutive_indices() {
        let a = splitmix64(7);
        let b = splitmix64(8);
        assert_ne!(a, b);
        assert!(((a ^ b).count_ones()) > 8, "avalanche");
    }

    #[test]
    fn point_range_matches_enumeration_order() {
        let mut g = ring_grid();
        g.families = vec![GraphFamily::Ring, GraphFamily::Path];
        let scs = g.scenarios();
        for (fi, &family) in g.families.iter().enumerate() {
            for (ni, &n) in g.ns.iter().enumerate() {
                for (ki, &k) in g.ks.iter().enumerate() {
                    let range = g.point_range(fi, ni, ki);
                    assert_eq!(range.len(), g.seed_count);
                    for (offset, i) in range.enumerate() {
                        let sc = &scs[i];
                        assert_eq!(
                            (sc.family, sc.n, sc.k, sc.seed_index),
                            (family, n, k, offset)
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "k index in range")]
    fn point_range_rejects_out_of_range() {
        ring_grid().point_range(0, 0, 99);
    }

    #[test]
    fn fixed_size_families_validate_n() {
        assert!(GraphFamily::Torus { rows: 4, cols: 4 }.validate(16).is_ok());
        assert!(GraphFamily::Torus { rows: 4, cols: 4 }
            .validate(17)
            .is_err());
        assert!(GraphFamily::Hypercube { dim: 5 }.validate(32).is_ok());
        assert!(GraphFamily::Hypercube { dim: 5 }.validate(64).is_err());
        assert!(GraphFamily::Lollipop { clique: 8, tail: 8 }
            .validate(16)
            .is_ok());
        assert!(GraphFamily::Lollipop { clique: 8, tail: 8 }
            .validate(20)
            .is_err());
        assert!(
            GraphFamily::RandomRegular { degree: 3 }
                .validate(15)
                .is_err(),
            "odd n*d"
        );
        assert!(GraphFamily::RandomRegular { degree: 3 }
            .validate(16)
            .is_ok());
        assert!(
            GraphFamily::Ring.validate(2).is_err(),
            "fast path needs n >= 3"
        );
    }

    #[test]
    #[should_panic(expected = "invalid grid point")]
    fn mismatched_grid_point_panics() {
        let mut g = ring_grid();
        g.families = vec![GraphFamily::Hypercube { dim: 4 }];
        g.ns = vec![32];
        g.scenarios();
    }

    #[test]
    fn random_regular_draws_differ_per_seed_index() {
        let g = ScenarioGrid {
            families: vec![GraphFamily::RandomRegular { degree: 3 }],
            ns: vec![24],
            ks: vec![2],
            seed_count: 2,
            base_seed: 5,
            placement: PlacementSpec::Random,
            init: InitSpec::Random,
        };
        let scs = g.scenarios();
        assert_ne!(scs[0].graph(), scs[1].graph(), "independent graph draws");
        // but each scenario's draw is deterministic
        assert_eq!(scs[0].graph(), scs[0].graph());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(GraphFamily::Ring.label(), "ring");
        assert_eq!(GraphFamily::Torus { rows: 8, cols: 4 }.label(), "torus_8x4");
        assert_eq!(
            GraphFamily::RandomRegular { degree: 4 }.label(),
            "random_regular_d4"
        );
    }

    #[test]
    #[should_panic(expected = "only defined for the Ring family")]
    fn ring_directions_reject_other_families() {
        let sc = Scenario {
            family: GraphFamily::Complete,
            n: 8,
            k: 1,
            seed_index: 0,
            seed: 1,
            placement: PlacementSpec::AllOnOne,
            init: InitSpec::TowardNearestAgent,
        };
        sc.ring_directions(&sc.positions());
    }
}
