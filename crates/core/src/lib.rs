//! # rotor-core
//!
//! The multi-agent rotor-router of Klasing, Kosowski, Pająk and Sauerwald
//! (*The multi-agent rotor-router on the ring: a deterministic alternative
//! to parallel random walks*, PODC 2013 / Distributed Computing 2017).
//!
//! ## The model (paper §1.3)
//!
//! `k ≥ 1` indistinguishable agents move on an undirected connected graph in
//! synchronous rounds. A *configuration* is `((ρ_v), (π_v), {r_1, …, r_k})`:
//! the fixed cyclic port orders, a current *port pointer* per node, and the
//! multiset of agent locations. In each round, every agent at node `r`
//! leaves along the arc indicated by `π_r`, which is then advanced to the
//! next arc in cyclic order; agents sharing a node leave along consecutive
//! ports. The system is fully deterministic.
//!
//! ## What this crate provides
//!
//! * [`Engine`] — a reference implementation on arbitrary
//!   [`PortGraph`]s that stores only pointers, agent counts and the
//!   visit record. The §1.3 counters `n_v(t)`, `e_v(t)` and the per-arc
//!   traversal identity `traversals(v→u) = ⌈(e_v − port_v(u)) / deg(v)⌉`
//!   are tested on a per-agent reference that the engine matches round by
//!   round.
//! * [`RingRouter`] — the ring-specialised engine (pointer = direction
//!   bit, one `O(k)` pass per round, delayed or not, and straight runs of
//!   lone agents skipped a word at a time in
//!   [`advance`](CoverProcess::advance)) used by the large
//!   parameter sweeps; the per-visit metadata of the domain analysis
//!   comes from the opt-in [`domains::VisitLog`].
//! * [`bitset::VisitSet`] — the visit record every process owns: visited
//!   bits, cover round and the word-wise §2.2 domain/border counts, the
//!   one place that does first-visit bookkeeping.
//! * [`init`] — the pointer initialisations the paper's theorems use:
//!   *negative* (toward the nearest agent — every first visit reflects),
//!   *positive* (away), uniform, random and custom adversarial.
//! * [`placement`] — agent placements (all-on-one, equally spaced, random,
//!   custom) and the *remote vertex* machinery of Definition 2 / Lemma 15.
//! * [`delays`] — delayed deployments `D : V × N → N` (§2.1) and helpers
//!   for the slow-down lemma (Lemma 3).
//! * [`faults`] — fault injection: deterministic disturbance schedules
//!   ([`faults::FaultPlan`]) over pointer corruption, agent crashes,
//!   stalls and edge churn, plus the [`faults::Perturb`] hooks both
//!   rotor engines implement so recovery is measurable on either.
//! * [`domains`] — agent domains, lazy domains, propagation/reflection
//!   visit types and vertex-/edge-type borders (§2.2, Fig. 1).
//! * [`limit`] — Brent cycle detection on the configuration sequence and
//!   the *return time* of the limit behaviour (§4, Theorem 6).
//! * [`lockin`] — single-agent Eulerian lock-in certification (the
//!   Yanovski et al. baseline behaviour).
//! * [`CoverProcess`] — the common trait over synchronous exploration
//!   processes (both engines here plus the random-walk baseline of
//!   `rotor-walks`) that the `rotor-sweep` sharded driver is generic over:
//!   a round ([`step`](CoverProcess::step)), a run to a named round
//!   ([`advance`](CoverProcess::advance)) and a visit record
//!   ([`visits`](CoverProcess::visits)), with an [`Observer`] hook
//!   ([`run_observed`](CoverProcess::run_observed)) for attaching samplers
//!   to any backend's drive loop at the rounds they name.
//! * [`rng`] — splitmix64 seed derivation and the named random-stream
//!   constants every seeded consumer in the workspace derives from.
//!
//! ## Quick example
//!
//! Cover time of 4 agents on a 64-node ring, from the worst-case
//! initialisation of Theorem 1 (all agents on one node, pointers toward it):
//!
//! ```
//! use rotor_core::{init::PointerInit, placement::Placement, CoverProcess, RingRouter};
//!
//! let n = 64;
//! let placement = Placement::AllOnOne(0).positions(n, 4);
//! let pointers = PointerInit::TowardNearestAgent.ring_directions(n, &placement);
//! let mut router = RingRouter::new(n, &placement, &pointers);
//! let cover = router.run_until_covered(1_000_000).expect("covers");
//! assert!(cover > 0 && cover < 64 * 64);
//! ```

pub mod bitset;
pub mod delays;
pub mod domains;
mod engine;
pub mod faults;
pub mod init;
pub mod limit;
pub mod lockin;
pub mod placement;
mod process;
mod ring;
pub mod rng;

pub use engine::{Engine, EngineState};
pub use process::{CoverProcess, Observer, Probe};
pub use ring::{RingRouter, RingState};

pub use rotor_graph::{NodeId, PortGraph};
