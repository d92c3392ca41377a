//! # xtask
//!
//! Workspace tooling for the `BENCH_*.json` experiment reports and the
//! full-scale sweep campaigns, so CI, local runs and multi-day campaign
//! passes all enforce the `rotor-experiment/1` contract with the *same*
//! code. The `cargo run -p xtask -- <subcommand>` binary is a thin argv
//! shim over this library. Every committed `BENCH_*.json` is written by a
//! [`campaign`], and the CI smoke grids run the same definitions at a
//! smaller [`Scale`](campaign::Scale), so the two cannot drift apart.
//!
//! * [`validate`] — schema, curve/point invariants and the per-bench
//!   rules each [`CAMPAIGNS`](campaign::CAMPAIGNS) row carries, for every
//!   report (`xtask validate <files…>`);
//! * [`compare`] — deterministic-field diff between two runs of the same
//!   experiment (`xtask compare a.json b.json`, the CI 1-vs-2-thread
//!   determinism gate);
//! * [`campaign`] — named, resumable experiment campaigns
//!   (`xtask campaign table1`, `return-time`, `walk-vs-rotor`,
//!   `engine-throughput`, `family-speedup`, `ring-large-n`, `recovery`,
//!   `torus-seg`), one row of the [`CAMPAIGNS`](campaign::CAMPAIGNS)
//!   table per committed report;
//! * [`lint`] — the determinism contract's text rules (`xtask lint`):
//!   unpinned float accumulation in report crates, and to-do comments
//!   that cite no ROADMAP item. The root `clippy.toml` and workspace
//!   lints check the rest of the contract on the compiler.
//!
//! ```
//! use rotor_analysis::report::Json;
//! use xtask::validate::{validate, Options};
//!
//! let report = Json::parse(
//!     r#"{"schema":"rotor-experiment/1","bench":"demo","threads":2,"meta":{},
//!         "curves":[{"label":"c/1","meta":{},"fit":null,
//!                    "points":[{"x":1,"v":3},{"x":2,"v":5}]}]}"#,
//! )
//! .unwrap();
//! assert!(validate(&report, &Options::default()).is_empty());
//!
//! // A wrong schema tag (or any per-bench violation) is reported, not
//! // panicked on — the CLI turns the list into exit status 1.
//! let stale = Json::parse(r#"{"schema":"rotor-experiment/0","bench":"demo"}"#).unwrap();
//! assert!(!validate(&stale, &Options::default()).is_empty());
//! ```

pub mod campaign;
pub mod compare;
pub mod lint;
pub mod validate;

/// The repository root, two levels above this crate's manifest and fixed
/// at compile time: the canonical `BENCH_*.json` reports and the default
/// campaign state files live there, and `xtask lint` walks it.
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}
