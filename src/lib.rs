//! # rotor
//!
//! Facade crate for the multi-agent rotor-router workspace reproducing
//! Klasing, Kosowski, Pająk and Sauerwald (*The multi-agent rotor-router on
//! the ring: a deterministic alternative to parallel random walks*, PODC
//! 2013 / Distributed Computing 2017).
//!
//! Re-exports the member crates under one roof:
//!
//! * [`rotor_graph`] — port-labelled graphs, builders, BFS/diameter, Euler
//!   circuits;
//! * [`rotor_core`] — the general-graph [`rotor_core::Engine`] and the
//!   ring-specialised [`rotor_core::RingRouter`], plus pointer
//!   initialisations, placements, delays, domains, limit behaviour and
//!   lock-in certification;
//! * [`rotor_walks`] — the parallel random-walk baseline (implements the
//!   same [`rotor_core::CoverProcess`] trait as both engines);
//! * [`rotor_sweep`] — the scenario layer (graph families × n × k × seed)
//!   and the sharded multi-thread sweep driver fanning scenario grids
//!   over any `CoverProcess`;
//! * [`rotor_analysis`] — sweep statistics (medians, bootstrap bands,
//!   regime fits against the paper's `Θ(n²/log k)` / `Θ(n²/k²)` curves)
//!   and the shared `rotor-experiment/1` report schema every
//!   `BENCH_*.json` is written in.
//!
//! ```
//! use rotor::rotor_core::{init::PointerInit, placement::Placement, CoverProcess, RingRouter};
//!
//! let n = 64;
//! let starts = Placement::AllOnOne(0).positions(n, 4);
//! let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
//! let mut r = RingRouter::new(n, &starts, &dirs);
//! assert!(r.run_until_covered(1_000_000).is_some());
//! ```

pub use rotor_analysis;
pub use rotor_core;
pub use rotor_graph;
pub use rotor_sweep;
pub use rotor_walks;
