//! # rotor-sweep
//!
//! The sharded parameter-sweep subsystem: one place where every experiment
//! in this workspace fans its (n, k, seed, placement, pointer-init) grid
//! across threads.
//!
//! The paper's claims are statements about *curves* — cover time as a
//! function of the agent count `k` for a fixed ring size `n`, under
//! worst-case, best-case and random initialisations — and its headline
//! comparison ("a deterministic alternative to parallel random walks")
//! needs the rotor-router and the `k`-walker baseline measured over the
//! *same* grid. Before this crate, every bench target hand-rolled its own
//! single-threaded loop; now they all build a [`ScenarioGrid`], hand its
//! scenarios to [`run_sharded`], and aggregate the [`CoverSample`]s — so
//! scaling `n` to 10⁵–10⁶ is a thread-count question, not a rewrite.
//!
//! * [`scenario`] — the scenario-first surface: [`GraphFamily`],
//!   [`Scenario`] and [`ScenarioGrid`], the (family, n, k, seed) lattice
//!   every experiment enumerates, with its [`PlacementSpec`] and
//!   [`InitSpec`] axes.
//! * [`driver`] — [`run_sharded`]: a work-stealing `std::thread::scope`
//!   fan-out over any `Sync` cell type, deterministic output order; the
//!   caller picks the thread count ([`thread_count`] is the machine's
//!   available parallelism).
//! * [`runners`] — per-scenario cover measurement for each
//!   [`CoverProcess`](rotor_core::CoverProcess) backend, dispatching over
//!   `(GraphFamily, ProcessKind)` with the
//!   [`RingRouter`](rotor_core::RingRouter) fast path preserved on the
//!   ring family.
//! * [`recovery`] — fault-injection recovery measurement:
//!   [`run_scenario_recovery`] strikes one [`FaultSpec`] on a covered
//!   scenario and measures re-cover and re-lock-in time after pointer
//!   corruption, agent crashes, stalls, or edge churn.
//!
//! ## Example: one grid, two families, two processes
//!
//! ```
//! use rotor_sweep::{
//!     run_scenario, run_sharded, GraphFamily, InitSpec, PlacementSpec, ProcessKind,
//!     ScenarioGrid,
//! };
//!
//! let grid = ScenarioGrid {
//!     families: vec![GraphFamily::Ring, GraphFamily::Hypercube { dim: 6 }],
//!     ns: vec![64],
//!     ks: vec![1, 2, 4],
//!     seed_count: 3,
//!     base_seed: 0xC0FFEE,
//!     placement: PlacementSpec::Random,
//!     init: InitSpec::Random,
//! };
//! let scenarios = grid.scenarios();
//! let rotor = run_sharded(&scenarios, 2, |_, s| {
//!     run_scenario(s, ProcessKind::Rotor, 1 << 24)
//! });
//! let walks = run_sharded(&scenarios, 2, |_, s| {
//!     run_scenario(s, ProcessKind::RandomWalk, 1 << 24)
//! });
//! assert_eq!(rotor.len(), walks.len());
//! assert!(rotor.iter().zip(&walks).all(|(r, w)| (r.n, r.k, r.seed) == (w.n, w.k, w.seed)));
//! ```

pub mod driver;
pub mod recovery;
pub mod runners;
pub mod scenario;

pub use driver::{run_sharded, run_sharded_checked, thread_count};
pub use recovery::{run_scenario_recovery, FaultSpec, RecoveryOptions, RecoverySample};
pub use runners::{
    run_scenario, run_scenario_cycle, run_scenario_observed, CoverSample, ProcessKind,
};
pub use scenario::{GraphFamily, InitSpec, PlacementSpec, Scenario, ScenarioGrid};
