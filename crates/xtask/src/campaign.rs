//! Named, resumable sweep campaigns — every experiment pass behind
//! `cargo run -p xtask -- campaign <name>`, and the only writer of the
//! committed `BENCH_*.json` reports. Every report field is a pure function
//! of the grid and its seeds; the wall-clock measurements live in
//! [`perf`](crate::perf).
//!
//! [`CAMPAIGNS`] is the one table of experiments. Each row names the
//! campaign and the bench its report is filed under, and holds its
//! `Full`/`Smoke`/`Test` [`Grid`]s, its report builder and the [`Rules`]
//! that [`validate`] holds its reports to. A new experiment is a new row.
//!
//! A campaign is a fixed list of **units**, executed in order through the
//! sharded [`run_sharded`] driver. After each unit completes, its result
//! is persisted into a JSON state file, so an interrupted pass — a
//! large-`n` run killed halfway through, a laptop lid closed — resumes
//! from the last finished unit instead of recomputing days of simulation.
//! All randomness is derived from the campaign's base seed, so a resumed
//! unit is bit-identical to an uninterrupted one (pinned by tests).
//!
//! The rows, each with its report and its unit key:
//!
//! * `table1` → `BENCH_table1.json`: the paper's Table 1 on the ring at
//!   `n = 1024`: the worst-case column (all agents on one node, pointers
//!   toward it — Theorems 1–2, `Θ(n²/log k)`), the best-case column
//!   (equally spaced — Theorems 3–4) and the median over random
//!   placements, each with a [`fit_regime`] verdict. Unit
//!   `<column>/n<n>`.
//! * `return-time` → `BENCH_return_time.json`: §4's return times, Brent
//!   cycle probes of the worst-case start on ring, torus, hypercube and
//!   lollipop cells, reporting the tail `μ` and period `λ` per `k`. Unit
//!   `<family>/n<n>`, one per sweep.
//! * `walk-vs-rotor` → `BENCH_walk_vs_rotor.json`: the headline
//!   comparison on the ring, rotor-router against `k` random walks over
//!   one shared grid, for random and all-on-one placements, with
//!   bootstrap bands, regime fits and the fitted speed-up exponent per
//!   `(placement, n)`. Unit `<placement>`, every `n` inside it.
//! * `family-speedup` → `BENCH_general_graphs.json`: the headline
//!   comparison *off* the ring, every shape-free graph family (ring,
//!   path, complete, star, binary tree, random-regular) at
//!   `n ∈ {256, 1024, 4096}` and `k ∈ {1, 4, 16, n/16}`, with paired
//!   rotor-router and random-walk columns from one shared
//!   [`ScenarioGrid`] per unit. Each curve carries a
//!   [`fit_regime_scaled`] verdict over its `2·D·|E|`-normalised cover
//!   medians, and the report meta pools the per-family scaled exponents
//!   across all three sizes. Unit `<family>/n<n>`.
//! * `ring-large-n` → `BENCH_ring_large_n.json`: the ring `walk_vs_rotor`
//!   / `table1` grids at `n ≥ 10⁵` (worst-case, best-case and paired
//!   random columns) on the [`RingRouter`](rotor_core::RingRouter) fast
//!   path through [`ProcessKind::Rotor`]. Unit `<column>/n<n>`, so an
//!   interrupted pass loses at most one long worst-case cell.
//! * `recovery` → `BENCH_recovery.json`: fault injection, every
//!   disturbance kind (pointer corruption, agent crashes, §2.1 stalls,
//!   edge churn) struck after cover on ring, random-regular and
//!   binary-tree scenarios, measuring rounds to re-cover (and, on `k = 1`
//!   cells, the Brent-probed re-lock-in tail and period of the disturbed
//!   configuration). Scenarios run through the panic-contained
//!   [`run_sharded_checked`] driver, so one poisoned cell surfaces in the
//!   report meta instead of killing the pass; [`run`] still writes that
//!   report and then fails. Unit `<kind>/<family>/n<n>`.
//! * `torus-seg` → `BENCH_torus_seg.json`: the torus canary, worst-case
//!   and seeded random cover curves per torus shape on the general
//!   [`Engine`](rotor_core::Engine), so the determinism-drift job can diff
//!   a full-scale rerun against the committed report. The name and report
//!   file are kept from the retired row-banded torus backend. Unit
//!   `<rows>x<cols>`.

use crate::validate::{self, flag, int, num, Bound::*, Check::*, ReportRule::*, Rules, SetTest::*};
use rotor_analysis::recovery::{summarize_recovery, RecoveryObs};
use rotor_analysis::report::{report_json, write_summary, Curve, Json, Point};
use rotor_analysis::{
    bootstrap_median_band, fit_regime, fit_regime_scaled, median, speedup_exponent, RegimeFit,
};
use rotor_core::domains::DomainSampler;
use rotor_core::faults::FaultKind;
use rotor_graph::algo;
use rotor_sweep::{
    run_scenario, run_scenario_cycle, run_scenario_observed, run_scenario_recovery, run_sharded,
    run_sharded_checked, CoverSample, FaultSpec, GraphFamily, InitSpec, PlacementSpec, ProcessKind,
    RecoveryOptions, RecoverySample, Scenario, ScenarioGrid,
};
use std::path::PathBuf;

/// The torus of the `return-time` sweeps.
const TORUS_4X4: GraphFamily = GraphFamily::Torus { rows: 4, cols: 4 };
/// Powers of two up to 64: the `table1` and `walk-vs-rotor` `k` ladder.
const POW2_KS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

/// Every experiment, one row each.
pub const CAMPAIGNS: [Campaign; 7] = [
    Campaign {
        name: "table1",
        bench: "table1",
        // k over the powers of two up to n/16; five seeds in the random
        // column
        grids: [
            grid(&[1024], POW2_KS, 5),
            grid(&[64], POW2_KS, 5),
            grid(&[64], POW2_KS, 5),
        ],
        build: table1_report,
        rules: Rules {
            // `cover` in the deterministic worst/best columns, the median
            // over seeds in the random one
            points: &[AnyOf(&[&[int("cover")], &[int("median_cover")]])],
            ..Rules::GENERIC
        },
    },
    Campaign {
        name: "return-time",
        bench: "return_time",
        // Every scale keeps a non-ring family, so the observer probes run
        // off the ring too.
        grids: [
            Grid {
                sweeps: &[
                    (GraphFamily::Ring, 16, &[1, 2]),
                    (GraphFamily::Ring, 64, &[1, 2, 4]),
                    (GraphFamily::Ring, 256, &[1]),
                    (TORUS_4X4, 16, &[1, 2]),
                    (GraphFamily::Hypercube { dim: 4 }, 16, &[1, 2]),
                    (GraphFamily::Lollipop { clique: 8, tail: 8 }, 16, &[1, 2]),
                ],
                ..grid(&[], &[], 1)
            },
            Grid {
                sweeps: &[(GraphFamily::Ring, 16, &[1, 2]), (TORUS_4X4, 16, &[1, 2])],
                ..grid(&[], &[], 1)
            },
            Grid {
                sweeps: &[(GraphFamily::Ring, 16, &[1]), (TORUS_4X4, 16, &[1])],
                ..grid(&[], &[], 1)
            },
        ],
        build: return_time_report,
        rules: Rules {
            meta_keys: &["family", "n"],
            points: &[
                flag("found"),
                Gate(
                    "found",
                    &["tail", "period"],
                    &[int("tail"), int("period").bounded(AtLeast(1.0))],
                ),
            ],
            report: &[Distinct("family", "graph families", NotOnly("ring"))],
            ..Rules::GENERIC
        },
    },
    Campaign {
        name: "walk-vs-rotor",
        bench: "walk_vs_rotor",
        grids: [
            grid(&[1024, 4096], POW2_KS, 5),
            grid(&[128, 256], &[1, 2, 4], 2),
            grid(&[128, 256], &[1, 2, 4], 2),
        ],
        build: walk_vs_rotor_report,
        rules: Rules {
            meta_keys: &["process", "placement", "n"],
            points: &[
                int("median_cover"),
                int("covered"),
                int("band_lo"),
                int("band_hi"),
                Ordered("band_lo", "band_hi"),
            ],
            report: &[Distinct(
                "placement",
                "placement columns",
                Exactly(&["all_on_one", "random"]),
            )],
            ..Rules::GENERIC
        },
    },
    Campaign {
        name: "family-speedup",
        bench: "general_graphs",
        // 16 seeds per point at full scale: the extra repetitions tighten
        // the bootstrap bands and pooled exponents everywhere.
        grids: [
            grid(&[256, 1024, 4096], &[], 16),
            grid(&[64, 256], &[], 2),
            grid(&[32, 64], &[], 1),
        ],
        build: family_speedup_report,
        rules: Rules {
            meta_keys: &["family", "n", "process"],
            per_process: &[
                // Rotor covers against the 2·D·|E| budget, a bootstrap
                // band that brackets the median, the §2.2 domain dynamics.
                (
                    "rotor",
                    &[
                        int("median_cover"),
                        int("band_lo"),
                        int("band_hi"),
                        Ordered("band_lo", "band_hi"),
                        InBand("median_cover", "band_lo", "band_hi"),
                        num("median_ratio"),
                        int("bound_2_d_e").or_null(),
                        num("worst_ratio").bounded(AtMost(4.0)),
                        int("max_domains").bounded(AtLeast(1.0)),
                        int("single_domain_round"),
                    ],
                ),
                // Walks may time out and legitimately exceed 2·D·|E|:
                // nullable covers and bands with an explicit covered count.
                (
                    "walk",
                    &[
                        int("covered"),
                        num("median_cover").or_null(),
                        int("band_lo").or_null(),
                        int("band_hi").or_null(),
                        Ordered("band_lo", "band_hi"),
                        num("median_ratio").or_null(),
                        num("walk_over_rotor").or_null(),
                    ],
                ),
            ],
            report: &[
                Distinct("family", "graph families", NotOnly("ring")),
                Custom(validate::paired_speedups),
            ],
            ..Rules::GENERIC
        },
    },
    Campaign {
        name: "ring-large-n",
        bench: "ring_large_n",
        // n ≥ 10⁵ at full scale; powers of two keep n/16 on the k ladder.
        // n = 262144 rides the same resumable state on bigger hardware,
        // but the report needs every unit, so the committed baseline stops
        // where one box can finish.
        grids: [
            grid(&[131_072], &[1, 4, 16, 64, 256], 3),
            grid(&[128, 256], &[1, 4, 16], 2),
            grid(&[64, 128], &[1, 4], 1),
        ],
        build: ring_large_n_report,
        rules: Rules {
            meta_keys: &["placement", "n", "process"],
            points: &[AnyOf(&[
                &[int("cover")],
                &[int("median_cover").or_null(), int("covered")],
            ])],
            // all three table1 columns next to the paired random column
            report: &[Distinct(
                "placement",
                "placement columns",
                Exactly(&["all_on_one", "equally_spaced", "random"]),
            )],
            ..Rules::GENERIC
        },
    },
    Campaign {
        name: "recovery",
        bench: "recovery",
        grids: [
            grid(&[256, 1024], &[], 3),
            grid(&[64, 256], &[], 2),
            grid(&[32, 64], &[], 1),
        ],
        build: recovery_report,
        rules: Rules {
            meta_keys: &["kind", "family", "n", "process"],
            // Timeout honesty: the re-cover and re-lock statistics exist
            // exactly when something recovered (re-locked), and are null,
            // never omitted, otherwise.
            points: &[
                int("attempts").bounded(AtLeast(1.0)),
                int("recovered"),
                Ordered("recovered", "attempts"),
                Gate(
                    "recovered",
                    &["median_recover", "worst_recover"],
                    &[
                        int("median_recover"),
                        int("worst_recover"),
                        Ordered("median_recover", "worst_recover"),
                    ],
                ),
                int("relocked"),
                Ordered("relocked", "attempts"),
                Gate(
                    "relocked",
                    &["median_relock", "median_period"],
                    &[
                        int("median_relock"),
                        int("median_period").bounded(AtLeast(1.0)),
                    ],
                ),
            ],
            // The robustness claim needs the state-disturbance kinds on
            // more than one topology, and the failed-cell ledger even (and
            // especially) when it is zero.
            report: &[
                Distinct(
                    "kind",
                    "disturbance kinds",
                    Includes(&["churn", "corrupt", "crash"]),
                ),
                Distinct("family", "graph families", Several),
                Meta(&[int("failed_cells")]),
            ],
            ..Rules::GENERIC
        },
    },
    Campaign {
        name: "torus-seg",
        bench: "torus_seg",
        // 16 seeds at full scale, matching family-speedup's weight.
        grids: [
            Grid {
                shapes: &[(64, 64), (96, 48)],
                ..grid(&[], &[], 16)
            },
            Grid {
                shapes: &[(8, 8), (12, 8)],
                ..grid(&[], &[], 2)
            },
            Grid {
                shapes: &[(4, 4), (6, 4)],
                ..grid(&[], &[], 1)
            },
        ],
        build: torus_seg_report,
        rules: Rules {
            // The campaign canaries the general engine on the torus; a
            // report claiming another engine ran is a wiring regression.
            meta_values: &[("backend", "rotor_general")],
            ..Rules::GENERIC
        },
    },
];

/// One experiment: a row of [`CAMPAIGNS`].
pub struct Campaign {
    /// The CLI name, `xtask campaign <name>`.
    pub name: &'static str,
    /// The report's `bench` field; the report file is `BENCH_<bench>.json`.
    pub bench: &'static str,
    /// The grids at [`Scale::Full`], [`Scale::Smoke`] and [`Scale::Test`].
    pub grids: [Grid; 3],
    /// Computes the units `state` lacks and assembles the report body.
    build: fn(&Grid, usize, &mut CampaignState) -> Result<Body, String>,
    /// The rules [`validate`] holds every report of this bench to.
    pub rules: Rules,
}

impl Campaign {
    /// The complete report at `scale`, computing the units not already in
    /// `state`.
    ///
    /// # Errors
    ///
    /// Fails when the state cannot be persisted or holds malformed units.
    pub fn report(
        &self,
        scale: Scale,
        threads: usize,
        state: &mut CampaignState,
    ) -> Result<Json, String> {
        let Body(meta, curves) = (self.build)(&self.grids[scale as usize], threads, state)?;
        Ok(report_json(self.bench, threads, meta, curves))
    }
}

/// The row of campaign `name`.
///
/// # Errors
///
/// Fails for a name with no row.
pub fn find(name: &str) -> Result<&'static Campaign, String> {
    CAMPAIGNS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown campaign {name:?} (defined: {})", names(", ")))
}

/// Every campaign name, joined by `sep` (for CLI help).
pub fn names(sep: &str) -> String {
    CAMPAIGNS.map(|c| c.name).join(sep)
}

/// One scale's grid of a campaign. Axes a campaign does not sweep stay
/// empty.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    /// Node counts `n`.
    pub ns: &'static [usize],
    /// The `k` ladder, capped at `n/16` in per-`n` units; empty where the
    /// campaign takes [`ks_for`].
    pub ks: &'static [usize],
    /// Seed repetitions per point of the seeded columns.
    pub seeds: usize,
    /// `torus-seg`'s torus shapes `(rows, cols)`.
    pub shapes: &'static [(usize, usize)],
    /// `return-time`'s `(family, n, ks)` sweeps.
    pub sweeps: &'static [(GraphFamily, usize, &'static [usize])],
}

/// A grid of sizes `ns` over the `ks` ladder with `seeds` repetitions;
/// `Grid { .., ..grid(..) }` adds the other axes.
const fn grid(ns: &'static [usize], ks: &'static [usize], seeds: usize) -> Grid {
    Grid {
        ns,
        ks,
        seeds,
        shapes: &[],
        sweeps: &[],
    }
}

impl Grid {
    /// The `k` axis of a unit at size `n`.
    fn ks_at(&self, n: usize) -> Vec<usize> {
        if self.ks.is_empty() {
            return ks_for(n);
        }
        let cap = (n / 16).max(1);
        self.ks.iter().copied().filter(|&k| k <= cap).collect()
    }
}

/// A report before its envelope: its meta and its curves.
struct Body(Json, Vec<Json>);

/// Schema tag of the campaign state file.
pub const STATE_SCHEMA: &str = "rotor-campaign-state/1";

/// How big a campaign pass is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The real experiment grids (the committed baselines).
    Full,
    /// The CI grids (`--smoke`): cover campaigns stay at `n ≤ 256` and
    /// finish in seconds on two threads.
    Smoke,
    /// The tiny grids the unit tests run: each campaign finishes in
    /// seconds even in a debug build.
    Test,
}

impl Scale {
    /// Stable tag used in state-file headers and default state paths.
    pub fn tag(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
            Scale::Test => "test",
        }
    }
}

/// Persistent per-unit results of one campaign pass.
///
/// The state is a flat `unit key → unit JSON` map under a
/// `(campaign, scale)` header; [`unit`](Self::unit) returns the stored
/// result when present (a *resume*) and otherwise computes, stores and
/// persists it. Loading a state file written by a different campaign or
/// scale is refused — mixing grids would silently splice incompatible
/// curves into one report.
#[derive(Debug)]
pub struct CampaignState {
    path: Option<PathBuf>,
    campaign: String,
    scale: String,
    units: Vec<(String, Json)>,
    /// Units answered from the state file in this pass.
    pub resumed: usize,
    /// Units computed (and persisted) in this pass.
    pub computed: usize,
}

impl CampaignState {
    /// An in-memory state that never touches disk, so every unit is
    /// computed fresh.
    pub fn ephemeral(campaign: &str, scale: Scale) -> CampaignState {
        CampaignState {
            path: None,
            campaign: campaign.to_string(),
            scale: scale.tag().to_string(),
            units: Vec::new(),
            resumed: 0,
            computed: 0,
        }
    }

    /// Loads the state at `path` (or starts empty if the file does not
    /// exist, or `fresh` asked to ignore it).
    ///
    /// A file that exists but does not *parse* — the classic aftermath of
    /// a pass killed mid-`persist`, leaving truncated JSON — is treated as
    /// lost work, not an abort: the load warns on stderr and starts a
    /// fresh campaign (which rewrites the file at the first computed
    /// unit). The same applies to parseable JSON with no `units` object.
    /// A *valid* state file whose header names a different campaign or
    /// scale is still refused hard: that is a usage error, and silently
    /// discarding another pass's finished units would be worse than
    /// stopping (`--fresh` remains the explicit override).
    ///
    /// # Errors
    ///
    /// Fails when the file exists but cannot be read, or parses cleanly
    /// with a mismatched `(campaign, scale)` header.
    pub fn load(
        path: PathBuf,
        campaign: &str,
        scale: Scale,
        fresh: bool,
    ) -> Result<CampaignState, String> {
        let mut state = CampaignState::ephemeral(campaign, scale);
        state.path = Some(path.clone());
        if fresh || !path.exists() {
            return Ok(state);
        }
        let body = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: cannot read state: {e}", path.display()))?;
        let parsed = match Json::parse(&body) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!(
                    "warning: {}: corrupt campaign state ({e}); \
                     discarding it and starting fresh",
                    path.display()
                );
                return Ok(state);
            }
        };
        for (key, expect) in [
            ("schema", STATE_SCHEMA),
            ("campaign", campaign),
            ("scale", scale.tag()),
        ] {
            match parsed.get(key).and_then(Json::as_str) {
                Some(v) if v == expect => {}
                other => {
                    return Err(format!(
                        "{}: state {key} = {other:?}, expected {expect:?} \
                         (pass --fresh to discard it)",
                        path.display()
                    ))
                }
            }
        }
        let Some(units) = parsed.get("units").and_then(Json::as_obj) else {
            eprintln!(
                "warning: {}: campaign state has no units object; \
                 discarding it and starting fresh",
                path.display()
            );
            return Ok(state);
        };
        state.units = units.to_vec();
        Ok(state)
    }

    /// The stored result for `key`, or `compute`'s result (stored and, for
    /// file-backed states, persisted before returning).
    ///
    /// # Errors
    ///
    /// Fails when the state file cannot be written.
    pub fn unit(&mut self, key: &str, compute: impl FnOnce() -> Json) -> Result<Json, String> {
        if let Some((_, stored)) = self.units.iter().find(|(k, _)| k == key) {
            self.resumed += 1;
            return Ok(stored.clone());
        }
        let value = compute();
        self.units.push((key.to_string(), value.clone()));
        self.computed += 1;
        self.persist()?;
        Ok(value)
    }

    fn persist(&self) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("{}: cannot create state dir: {e}", parent.display()))?;
        }
        let body = Json::Obj(vec![
            ("schema".into(), Json::Str(STATE_SCHEMA.into())),
            ("campaign".into(), Json::Str(self.campaign.clone())),
            ("scale".into(), Json::Str(self.scale.clone())),
            ("units".into(), Json::Obj(self.units.clone())),
        ]);
        let mut text = body.render();
        text.push('\n');
        std::fs::write(path, text)
            .map_err(|e| format!("{}: cannot write state: {e}", path.display()))
    }
}

fn num_or_null(v: Option<f64>) -> Json {
    v.map(Json::Num).unwrap_or(Json::Null)
}

fn int_or_null(v: Option<u64>) -> Json {
    v.map(Json::Int).unwrap_or(Json::Null)
}

/// Lower median of an `f64` sample (mirroring
/// [`rotor_analysis::median`]'s convention), `None` when empty.
fn median_f64(mut v: Vec<f64>) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    Some(v[(v.len() - 1) / 2])
}

/// The `2·D·|E|` lock-in bound of a scenario's graph. Families with a
/// closed-form diameter skip the all-pairs BFS: even at 64 sources per
/// pass, `algo::diameter` on `K_4096` costs `⌈n/64⌉·2|E|` ≈ 10⁹ word
/// operations, more than the simulation itself.
fn lockin_bound(sc: &Scenario) -> u64 {
    let g = sc.graph();
    let diameter = match sc.family {
        GraphFamily::Ring => (sc.n / 2) as u32,
        GraphFamily::Path => (sc.n - 1) as u32,
        GraphFamily::Complete => 1,
        GraphFamily::Star => {
            if sc.n <= 2 {
                1
            } else {
                2
            }
        }
        _ => algo::diameter(&g),
    };
    2 * u64::from(diameter) * g.edge_count() as u64
}

/// Generous random-walk budget: ring cover concentrates around `n²/2`,
/// and every other shape-free family covers faster; `64·n²` never
/// truncates in practice but bounds a pathological cell.
fn walk_budget(n: usize) -> u64 {
    64 * (n as u64) * (n as u64)
}

// ---------------------------------------------------------------------------
// Shared pieces: columns, the single-family grid, cover points, units
// ---------------------------------------------------------------------------

/// One placement column of a sweep.
#[derive(Clone, Copy)]
struct Column {
    /// Its name in curve labels and unit keys.
    name: &'static str,
    /// The `placement` label its curves carry in their meta.
    placement_label: &'static str,
    placement: PlacementSpec,
    init: InitSpec,
    /// Seeded columns repeat every point over the grid's seeds (and, on
    /// the ring, pair random walks against the rotor-router); the
    /// deterministic ones run once.
    seeded: bool,
}

/// All agents on one node, pointers toward them (Theorems 1–2).
const WORST: Column = Column {
    name: "worst",
    placement_label: "all_on_one",
    placement: PlacementSpec::AllOnOne,
    init: InitSpec::TowardNearestAgent,
    seeded: false,
};

/// Agents equally spaced (Theorems 3–4).
const BEST: Column = Column {
    name: "best",
    placement_label: "equally_spaced",
    placement: PlacementSpec::EquallySpaced,
    init: InitSpec::TowardNearestAgent,
    seeded: false,
};

/// Random placements and pointers.
const RANDOM: Column = Column {
    name: "random",
    placement_label: "random",
    placement: PlacementSpec::Random,
    init: InitSpec::Random,
    seeded: true,
};

impl Column {
    /// `seeds` for a seeded column, one for a deterministic one.
    fn seed_count(&self, seeds: usize) -> usize {
        if self.seeded {
            seeds
        } else {
            1
        }
    }

    /// The single-family grid of one unit: `family` at the sizes `ns`
    /// over `ks`, `seed_count` repetitions per point.
    fn grid(
        &self,
        family: GraphFamily,
        ns: &[usize],
        ks: &[usize],
        seed_count: usize,
        base_seed: u64,
    ) -> ScenarioGrid {
        ScenarioGrid {
            families: vec![family],
            ns: ns.to_vec(),
            ks: ks.to_vec(),
            seed_count,
            base_seed,
            placement: self.placement,
            init: self.init,
        }
    }
}

/// How a point reports its cover samples.
#[derive(Clone, Copy)]
enum Shape {
    /// One deterministic run: `cover`.
    Cover,
    /// Seeds that always cover: `median_cover`.
    Median,
    /// Seeds that may time out: `covered`, then `median_cover` (null when
    /// none covered).
    Counted,
}

/// Bootstrap resamples behind every `band_lo`/`band_hi` pair (shared by
/// `family-speedup` and `walk-vs-rotor`, so band widths are comparable
/// across reports).
const BOOTSTRAP_RESAMPLES: usize = 300;
/// Confidence level of the bootstrap median bands.
const BAND_CONFIDENCE: f64 = 0.95;

/// Turns one point's cover samples (`None`: a cell that timed out) into
/// its fields: the cover fields of `shape`, the bootstrap band around the
/// median when `band_seed` seeds one, then `extra`, then `walk_over_rotor`
/// against the rotor median when given. Returns the median with the point.
fn cover_point(
    k: usize,
    cells: impl IntoIterator<Item = Option<u64>>,
    shape: Shape,
    band_seed: Option<u64>,
    extra: impl IntoIterator<Item = (&'static str, Json)>,
    rotor_median: Option<Option<u64>>,
) -> (Option<u64>, Point) {
    let mut covers: Vec<u64> = match shape {
        Shape::Counted => cells.into_iter().flatten().collect(),
        Shape::Cover | Shape::Median => cells
            .into_iter()
            .map(|c| c.expect("rotor-router always covers"))
            .collect(),
    };
    // Resampled in cell order, before `median` permutes the covers in an
    // order std leaves unspecified.
    let band = band_seed
        .map(|seed| bootstrap_median_band(&covers, BOOTSTRAP_RESAMPLES, BAND_CONFIDENCE, seed));
    let covered = covers.len() as u64;
    let m = median(&mut covers);
    let mut fields = match shape {
        Shape::Cover => vec![("cover", int_or_null(m))],
        Shape::Median => vec![("median_cover", int_or_null(m))],
        Shape::Counted => vec![
            ("covered", Json::Int(covered)),
            ("median_cover", int_or_null(m)),
        ],
    };
    if let Some(b) = band {
        fields.push(("band_lo", int_or_null(b.as_ref().map(|b| b.lo))));
        fields.push(("band_hi", int_or_null(b.as_ref().map(|b| b.hi))));
    }
    fields.extend(extra);
    if let Some(r) = rotor_median {
        let ratio = m.zip(r).filter(|&(_, r)| r > 0);
        fields.push((
            "walk_over_rotor",
            num_or_null(ratio.map(|(w, r)| w as f64 / r as f64)),
        ));
    }
    (m, Point::new(k as u64, fields))
}

/// The covers of a slice of samples, `None` where a cell timed out.
fn covers(samples: &[CoverSample]) -> impl Iterator<Item = Option<u64>> + '_ {
    samples.iter().map(|s| s.cover)
}

/// The unit-assembly loop every builder shares: each `(key, input)` unit
/// is answered from `state` or computed by `run` (and persisted), and its
/// curves are spliced into the report in unit order. Returns the curves
/// and the units, for the builder's meta.
fn run_units<T>(
    state: &mut CampaignState,
    units: impl IntoIterator<Item = (String, T)>,
    run: impl Fn(T) -> Json,
) -> Result<(Vec<Json>, Vec<Json>), String> {
    let mut curves = Vec::new();
    let mut done = Vec::new();
    for (key, input) in units {
        let unit = state.unit(&key, || run(input))?;
        curves.extend_from_slice(unit_field(&unit, "curves", Json::as_arr)?);
        done.push(unit);
    }
    Ok((curves, done))
}

/// Field `key` of a unit, read by `read`: a resumed unit that lacks a
/// field is an error, never a silent default.
fn unit_field<'a, T>(
    unit: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    unit.get(key)
        .and_then(read)
        .ok_or_else(|| format!("unit is missing {key}"))
}

fn ints(values: &[usize]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Int(v as u64)).collect())
}

fn scaled_to_json(points: &[(u64, f64)]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|&(k, r)| Json::Arr(vec![Json::Int(k), Json::Num(r)]))
            .collect(),
    )
}

/// The `scaled.<process>` fit points of `units`, pooled.
fn pooled(units: &[Json], process: &str) -> Result<Vec<(u64, f64)>, String> {
    let mut pool = Vec::new();
    for unit in units {
        let scaled = unit
            .get("scaled")
            .and_then(|s| s.get(process))
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("unit is missing scaled.{process}"))?;
        for pair in scaled {
            let point = match pair.as_arr() {
                Some([k, r]) => k.as_u64().zip(r.as_f64()),
                _ => None,
            };
            pool.push(point.ok_or_else(|| format!("malformed scaled.{process} entry"))?);
        }
    }
    Ok(pool)
}

fn fit_fields(prefix: &str, fit: &Option<RegimeFit>) -> [(String, Json); 2] {
    [
        (
            format!("{prefix}_exponent"),
            num_or_null(fit.as_ref().map(|f| f.exponent)),
        ),
        (
            format!("{prefix}_regime"),
            fit.as_ref()
                .map(|f| Json::Str(format!("{:?}", f.regime)))
                .unwrap_or(Json::Null),
        ),
    ]
}

/// The `k` axis of the `family-speedup`, `recovery` and `torus-seg`
/// units at size `n`: `{1, 4, 16, n/16}`, deduplicated and capped at
/// `n/16` (the paper's sweeps stop at `k = n/16`, past which the ring
/// regimes degenerate).
pub fn ks_for(n: usize) -> Vec<usize> {
    let cap = (n / 16).max(1);
    let mut ks: Vec<usize> = [1, 4, 16, cap].into_iter().filter(|&k| k <= cap).collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// How the `k` axis of [`ks_for`] is recorded in report meta.
const KS_RULE: &str = "1,4,16,n/16 (deduplicated, capped at n/16)";

// ---------------------------------------------------------------------------
// table1
// ---------------------------------------------------------------------------

const TABLE1_BASE_SEED: u64 = 0x7AB1E1;

fn table1_report(grid: &Grid, threads: usize, state: &mut CampaignState) -> Result<Body, String> {
    let n = grid.ns[0];
    let units = [WORST, BEST, RANDOM].map(|c| (format!("{}/n{n}", c.name), c));
    let (curves, _) = run_units(state, units, |column| {
        run_table1_unit(&column, n, grid, threads)
    })?;
    let meta = Json::obj([
        ("n", Json::Int(n as u64)),
        ("random_seeds", Json::Int(grid.seeds as u64)),
    ]);
    Ok(Body(meta, curves))
}

/// One Table 1 column: the ring at size `n` over the `k` ladder, with a
/// [`fit_regime`] verdict on its cover curve.
fn run_table1_unit(column: &Column, n: usize, grid: &Grid, threads: usize) -> Json {
    let ks = grid.ks_at(n);
    let seeds = column.seed_count(grid.seeds);
    let sg = column.grid(GraphFamily::Ring, &[n], &ks, seeds, TABLE1_BASE_SEED);
    let samples: Vec<CoverSample> = run_sharded(&sg.scenarios(), threads, |_, sc| {
        run_scenario(sc, ProcessKind::Rotor, u64::MAX)
    });
    let shape = if column.seeded {
        Shape::Median
    } else {
        Shape::Cover
    };
    let mut curve = Curve::new(format!("{}/n{n}", column.name))
        .meta("placement", Json::Str(column.placement_label.into()))
        .meta("n", Json::Int(n as u64));
    let mut fit_points: Vec<(u64, u64)> = Vec::new();
    for (ki, &k) in ks.iter().enumerate() {
        let cells = &samples[sg.point_range(0, 0, ki)];
        let (m, point) = cover_point(k, covers(cells), shape, None, [], None);
        fit_points.extend(m.map(|m| (k as u64, m)));
        curve.points.push(point);
    }
    curve.fit = fit_regime(&fit_points);
    Json::obj([("curves", Json::Arr(vec![curve.to_json()]))])
}

// ---------------------------------------------------------------------------
// return-time
// ---------------------------------------------------------------------------

/// Step budget of every Brent probe.
const RETURN_TIME_MAX_STEPS: u64 = 10_000_000;

fn return_time_report(
    grid: &Grid,
    threads: usize,
    state: &mut CampaignState,
) -> Result<Body, String> {
    let units = grid
        .sweeps
        .iter()
        .map(|&(family, n, ks)| (format!("{}/n{n}", family.label()), (family, n, ks)));
    let (curves, _) = run_units(state, units, |(family, n, ks)| {
        run_return_time_unit(family, n, ks, threads)
    })?;
    let meta = Json::obj([("max_steps", Json::Int(RETURN_TIME_MAX_STEPS))]);
    Ok(Body(meta, curves))
}

/// One `(family, n)` sweep: the worst-case start (all agents on one
/// node, pointers toward it) probed for its tail `μ` and period `λ` at
/// every `k`. The start is deterministic, so the seed fields are inert.
fn run_return_time_unit(family: GraphFamily, n: usize, ks: &[usize], threads: usize) -> Json {
    let cells: Vec<Scenario> = ks
        .iter()
        .map(|&k| Scenario {
            family,
            n,
            k,
            seed_index: 0,
            seed: 0,
            placement: PlacementSpec::AllOnOne,
            init: InitSpec::TowardNearestAgent,
        })
        .collect();
    let infos = run_sharded(&cells, threads, |_, sc| {
        run_scenario_cycle(sc, RETURN_TIME_MAX_STEPS)
    });
    let label = family.label();
    let mut curve = Curve::new(format!("brent/{label}/n{n}"))
        .meta("family", Json::Str(label))
        .meta("n", Json::Int(n as u64));
    for (&k, info) in ks.iter().zip(&infos) {
        curve.points.push(Point::new(
            k as u64,
            [
                ("found", Json::Bool(info.is_some())),
                ("tail", int_or_null(info.map(|i| i.tail))),
                ("period", int_or_null(info.map(|i| i.period))),
            ],
        ));
    }
    Json::obj([("curves", Json::Arr(vec![curve.to_json()]))])
}

// ---------------------------------------------------------------------------
// walk-vs-rotor
// ---------------------------------------------------------------------------

const WALK_VS_ROTOR_BASE_SEED: u64 = 0xA10E_5EED;

fn walk_vs_rotor_report(
    grid: &Grid,
    threads: usize,
    state: &mut CampaignState,
) -> Result<Body, String> {
    let units = [RANDOM, WORST].map(|c| (c.placement_label.to_string(), c));
    let (curves, units) = run_units(state, units, |column| {
        run_walk_vs_rotor_unit(&column, grid, threads)
    })?;
    let mut speedups = Vec::new();
    for unit in &units {
        speedups.extend_from_slice(unit_field(unit, "speedups", Json::as_arr)?);
    }
    let meta = Json::obj([
        ("seed_count", Json::Int(grid.seeds as u64)),
        ("ks", ints(grid.ks)),
        ("speedups", Json::Arr(speedups)),
    ]);
    Ok(Body(meta, curves))
}

/// One placement column: the rotor-router and `k` random walks over one
/// shared ring grid, giving a rotor and a walk curve per `n` and the
/// fitted speed-up exponent of each pair.
fn run_walk_vs_rotor_unit(column: &Column, grid: &Grid, threads: usize) -> Json {
    let col = column.placement_label;
    // Both columns pair walks with the rotor, so both take every seed.
    let sg = column.grid(
        GraphFamily::Ring,
        grid.ns,
        grid.ks,
        grid.seeds,
        WALK_VS_ROTOR_BASE_SEED,
    );
    let scenarios = sg.scenarios();
    // Both processes get the generous walk budget, which no rotor cell
    // comes near.
    let [rotor, walks] = [ProcessKind::Rotor, ProcessKind::RandomWalk].map(|process| {
        run_sharded(&scenarios, threads, |_, sc| {
            run_scenario(sc, process, walk_budget(sc.n))
        })
    });
    let mut curves: Vec<Json> = Vec::new();
    let mut speedups: Vec<Json> = Vec::new();
    for (ni, &n) in grid.ns.iter().enumerate() {
        let new_curve = |process: &str| {
            Curve::new(format!("{process}/{col}/n{n}"))
                .meta("process", Json::Str(process.into()))
                .meta("placement", Json::Str(col.into()))
                .meta("n", Json::Int(n as u64))
        };
        let mut rotor_curve = new_curve("rotor");
        let mut walk_curve = new_curve("walk");
        let mut rotor_points: Vec<(u64, u64)> = Vec::new();
        let mut walk_points: Vec<(u64, u64)> = Vec::new();
        for (ki, &k) in grid.ks.iter().enumerate() {
            let range = sg.point_range(0, ni, ki);
            // Covered counts make a timed-out cell visible: a median over
            // fewer than seed_count samples is biased toward the cells
            // that happened to cover in budget.
            let (r, point) = cover_point(
                k,
                covers(&rotor[range.clone()]),
                Shape::Counted,
                Some(0xB00 + k as u64),
                [],
                None,
            );
            rotor_curve.points.push(point);
            let (w, point) = cover_point(
                k,
                covers(&walks[range]),
                Shape::Counted,
                Some(0xBA5E + k as u64),
                [],
                Some(r),
            );
            walk_curve.points.push(point);
            if let (Some(r), Some(w)) = (r, w) {
                rotor_points.push((k as u64, r));
                walk_points.push((k as u64, w));
            }
        }
        rotor_curve.fit = fit_regime(&rotor_points);
        walk_curve.fit = fit_regime(&walk_points);
        // The OLS log-log slope of the walk/rotor ratio in k equals the
        // difference of the two curves' slopes over the shared k support.
        let speedup = rotor_curve
            .fit
            .as_ref()
            .zip(walk_curve.fit.as_ref())
            .map(|(r, w)| speedup_exponent(r, w));
        speedups.push(Json::obj([
            ("placement", Json::Str(col.into())),
            ("n", Json::Int(n as u64)),
            ("speedup_exponent", num_or_null(speedup)),
        ]));
        curves.push(rotor_curve.to_json());
        curves.push(walk_curve.to_json());
    }
    Json::obj([
        ("curves", Json::Arr(curves)),
        ("speedups", Json::Arr(speedups)),
    ])
}

// ---------------------------------------------------------------------------
// family-speedup
// ---------------------------------------------------------------------------

/// The shape-free families (node count taken from the scenario's `n`, so
/// one family sweeps all three sizes) of the speed-up campaign.
const SPEEDUP_FAMILIES: [GraphFamily; 6] = [
    GraphFamily::Ring,
    GraphFamily::Path,
    GraphFamily::Complete,
    GraphFamily::Star,
    GraphFamily::BinaryTree,
    GraphFamily::RandomRegular { degree: 4 },
];

const SPEEDUP_BASE_SEED: u64 = 0xFA111E5;

/// The `family-speedup` report: per-family rotor and walk curves per
/// size, with the `2·D·|E|`-scaled exponents pooled across every size.
fn family_speedup_report(
    grid: &Grid,
    threads: usize,
    state: &mut CampaignState,
) -> Result<Body, String> {
    let units = SPEEDUP_FAMILIES.iter().flat_map(|&family| {
        grid.ns
            .iter()
            .map(move |&n| (format!("{}/n{n}", family.label()), (family, n)))
    });
    let (curves, units) = run_units(state, units, |(family, n)| {
        run_speedup_unit(family, n, grid.seeds, threads)
    })?;
    let mut speedups: Vec<Json> = Vec::new();
    for (family, units) in SPEEDUP_FAMILIES.iter().zip(units.chunks(grid.ns.len())) {
        // The pooled fit is where the 2·D·|E| normalisation earns its
        // keep: cover medians from n = 256 and n = 4096 land on one curve
        // because each is divided by its own size's bound.
        let rotor_fit = fit_regime_scaled(&pooled(units, "rotor")?);
        let walk_fit = fit_regime_scaled(&pooled(units, "walk")?);
        let speedup = rotor_fit
            .as_ref()
            .zip(walk_fit.as_ref())
            .map(|(r, w)| speedup_exponent(r, w));
        let mut entry = vec![("family".to_string(), Json::Str(family.label()))];
        entry.extend(fit_fields("rotor", &rotor_fit));
        entry.extend(fit_fields("walk", &walk_fit));
        entry.push(("speedup_exponent".to_string(), num_or_null(speedup)));
        speedups.push(Json::Obj(entry));
    }
    let meta = Json::obj([
        ("ns", ints(grid.ns)),
        ("seed_count", Json::Int(grid.seeds as u64)),
        ("placement", Json::Str("random".into())),
        ("ks_rule", Json::Str(KS_RULE.into())),
        ("speedups", Json::Arr(speedups)),
    ]);
    Ok(Body(meta, curves))
}

/// One measured rotor cell of a speed-up unit: the cover round against its
/// own graph's `2·D·|E|` bound, plus the §2.2 domain dynamics sampled
/// through the observer hook.
struct RotorRun {
    cover: u64,
    bound: u64,
    max_domains: u32,
    single_domain_round: u64,
    backend: &'static str,
}

/// Runs one rotor cell to cover with §2.2 domain sampling. The budget is
/// `4·2·D·|E|` of the cell's own graph; the sampling stride scales to the
/// expected run length: every round on short runs, ~4096 samples on long
/// ones, which keeps the sample buffer small; each sample is an
/// `O(n / 64)` word-wise pass over the engine's visit record.
fn run_rotor_cell(sc: &Scenario) -> RotorRun {
    let bound = lockin_bound(sc);
    let mut sampler = DomainSampler::every((bound / 4096).max(1));
    let sample = run_scenario_observed(sc, ProcessKind::Rotor, 4 * bound, &mut sampler);
    let samples = sampler.samples;
    let cover = sample
        .cover
        .expect("rotor covers within the 4·2·D·|E| budget");
    let max_domains = samples
        .iter()
        .map(|s| s.domains)
        .max()
        .expect("observer saw round 0");
    // The first *sampled* round from which the domain count stays at 1
    // (an upper bound at stride > 1); the covering round is always
    // sampled and has a single domain, so the rposition + 1 is in range.
    let single_domain_round = samples
        .iter()
        .rposition(|s| s.domains != 1)
        .map(|i| samples[i + 1].round)
        .unwrap_or(0);
    RotorRun {
        cover,
        bound,
        max_domains,
        single_domain_round,
        backend: sample.backend,
    }
}

/// Runs one `(family, n)` unit of the speed-up campaign: the rotor and
/// random-walk columns over one shared grid, aggregated into two curves
/// plus the `2·D·|E|`-scaled fit points the assembly pools per family.
fn run_speedup_unit(family: GraphFamily, n: usize, seeds: usize, threads: usize) -> Json {
    let ks = ks_for(n);
    let sg = RANDOM.grid(family, &[n], &ks, seeds, SPEEDUP_BASE_SEED);
    let scenarios = sg.scenarios();
    let rotor: Vec<RotorRun> = run_sharded(&scenarios, threads, |_, sc| run_rotor_cell(sc));
    let walks: Vec<CoverSample> = run_sharded(&scenarios, threads, |_, sc| {
        run_scenario(sc, ProcessKind::RandomWalk, walk_budget(sc.n))
    });
    let backend = rotor[0].backend;
    debug_assert!(rotor.iter().all(|c| c.backend == backend));

    let label = family.label();
    let new_curve = |process: &str| {
        Curve::new(format!("{process}/{label}/n{n}"))
            .meta("process", Json::Str(process.into()))
            .meta("family", Json::Str(label.clone()))
            .meta("n", Json::Int(n as u64))
            .meta("seed_count", Json::Int(seeds as u64))
    };
    let mut rotor_curve = new_curve("rotor").meta("backend", Json::Str(backend.into()));
    let mut walk_curve = new_curve("walk");
    let mut rotor_scaled: Vec<(u64, f64)> = Vec::new();
    let mut walk_scaled: Vec<(u64, f64)> = Vec::new();
    for (ki, &k) in ks.iter().enumerate() {
        let range = sg.point_range(0, 0, ki);
        let r_cells = &rotor[range.clone()];
        // Seeded families draw a fresh graph (hence bound) per repetition,
        // so ratios are per-cell; the shared bound is emitted only when it
        // really is shared.
        let ratios = r_cells.iter().map(|c| c.cover as f64 / c.bound as f64);
        let r_ratio = median_f64(ratios.clone().collect()).expect("non-empty point");
        let worst_ratio = ratios.fold(f64::MIN, f64::max);
        let bound = r_cells[0].bound;
        let shared_bound = if r_cells.iter().all(|c| c.bound == bound) {
            Json::Int(bound)
        } else {
            Json::Null
        };
        let max_domains = r_cells.iter().map(|c| c.max_domains).max();
        let single_domain_round = r_cells.iter().map(|c| c.single_domain_round).max();
        // Seeded percentile-bootstrap band around the cover median, keyed
        // by the point's first scenario seed so reassembly reproduces it.
        let band_seed = scenarios[range.start].seed;
        rotor_scaled.push((k as u64, r_ratio));
        let (r_median, point) = cover_point(
            k,
            r_cells.iter().map(|c| Some(c.cover)),
            Shape::Median,
            Some(band_seed),
            [
                ("median_ratio", Json::Num(r_ratio)),
                ("bound_2_d_e", shared_bound),
                ("worst_ratio", Json::Num(worst_ratio)),
                ("max_domains", int_or_null(max_domains.map(u64::from))),
                ("single_domain_round", int_or_null(single_domain_round)),
            ],
            None,
        );
        rotor_curve.points.push(point);

        // The walk ratio reuses the rotor pass's bounds: same scenario
        // index, same seed, same graph draw.
        let w_ratio = median_f64(
            walks[range.clone()]
                .iter()
                .zip(r_cells)
                .filter_map(|(w, r)| w.cover.map(|c| c as f64 / r.bound as f64))
                .collect(),
        );
        walk_scaled.extend(w_ratio.map(|ratio| (k as u64, ratio)));
        let (_, point) = cover_point(
            k,
            covers(&walks[range]),
            Shape::Counted,
            Some(band_seed),
            [("median_ratio", num_or_null(w_ratio))],
            Some(r_median),
        );
        walk_curve.points.push(point);
    }
    rotor_curve.fit = fit_regime_scaled(&rotor_scaled);
    walk_curve.fit = fit_regime_scaled(&walk_scaled);

    Json::obj([
        (
            "curves",
            Json::Arr(vec![rotor_curve.to_json(), walk_curve.to_json()]),
        ),
        (
            "scaled",
            Json::obj([
                ("rotor", scaled_to_json(&rotor_scaled)),
                ("walk", scaled_to_json(&walk_scaled)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// ring-large-n
// ---------------------------------------------------------------------------

const LARGE_BASE_SEED: u64 = 0x1A26E;

/// The `ring-large-n` report: the `table1` worst/best columns and the
/// paired `walk_vs_rotor` random column at every size, with pooled
/// `n²`-scaled exponents per column.
fn ring_large_n_report(
    grid: &Grid,
    threads: usize,
    state: &mut CampaignState,
) -> Result<Body, String> {
    let columns = [WORST, BEST, RANDOM];
    let units = columns.iter().flat_map(|&column| {
        grid.ns
            .iter()
            .map(move |&n| (format!("{}/n{n}", column.name), (column, n)))
    });
    let (curves, units) = run_units(state, units, |(column, n)| {
        run_large_unit(&column, n, grid, threads)
    })?;
    let mut scaled_fits: Vec<Json> = Vec::new();
    let mut speedups: Vec<Json> = Vec::new();
    for (column, units) in columns.iter().zip(units.chunks(grid.ns.len())) {
        let pools = if column.seeded {
            for (&n, unit) in grid.ns.iter().zip(units) {
                let speedup = unit_field(unit, "speedup_exponent", Some)?;
                speedups.push(Json::obj([
                    ("n", Json::Int(n as u64)),
                    ("speedup_exponent", speedup.clone()),
                ]));
            }
            vec![
                ("rotor_random", pooled(units, "rotor")?),
                ("walk_random", pooled(units, "walk")?),
            ]
        } else {
            vec![(column.name, pooled(units, "rotor")?)]
        };
        for (label, pool) in pools {
            let mut entry = vec![("column".to_string(), Json::Str(label.into()))];
            entry.extend(fit_fields("scaled", &fit_regime_scaled(&pool)));
            scaled_fits.push(Json::Obj(entry));
        }
    }
    let meta = Json::obj([
        ("ns", ints(grid.ns)),
        ("seed_count", Json::Int(grid.seeds as u64)),
        ("scaled_fits", Json::Arr(scaled_fits)),
        ("speedups", Json::Arr(speedups)),
    ]);
    Ok(Body(meta, curves))
}

/// The ring's `2·D·|E|` bound: `2·⌊n/2⌋·n`.
fn ring_bound(n: usize) -> u64 {
    2 * (n as u64 / 2) * (n as u64)
}

/// One `(column, n)` unit of the large-`n` ring campaign.
fn run_large_unit(column: &Column, n: usize, grid: &Grid, threads: usize) -> Json {
    let ks = grid.ks_at(n);
    let seeds = column.seed_count(grid.seeds);
    let sg = column.grid(GraphFamily::Ring, &[n], &ks, seeds, LARGE_BASE_SEED);
    let scenarios = sg.scenarios();
    let rotor: Vec<CoverSample> = run_sharded(&scenarios, threads, |_, sc| {
        run_scenario(sc, ProcessKind::Rotor, u64::MAX)
    });
    let walks: Option<Vec<CoverSample>> = column.seeded.then(|| {
        run_sharded(&scenarios, threads, |_, sc| {
            run_scenario(sc, ProcessKind::RandomWalk, walk_budget(sc.n))
        })
    });

    let bound = ring_bound(n) as f64;
    let curve_meta = |c: Curve, process: &str| {
        c.meta("process", Json::Str(process.into()))
            .meta("placement", Json::Str(column.placement_label.into()))
            .meta("n", Json::Int(n as u64))
            .meta("seed_count", Json::Int(seeds as u64))
    };
    let (rotor_label, shape) = if column.seeded {
        (format!("rotor/{}/n{n}", column.name), Shape::Counted)
    } else {
        (format!("{}/n{n}", column.name), Shape::Cover)
    };
    let mut rotor_curve = curve_meta(Curve::new(rotor_label), "rotor")
        .meta("backend", Json::Str(rotor[0].backend.into()));
    let mut rotor_scaled: Vec<(u64, f64)> = Vec::new();
    let mut walk_curve = curve_meta(Curve::new(format!("walk/{}/n{n}", column.name)), "walk");
    let mut walk_scaled: Vec<(u64, f64)> = Vec::new();
    for (ki, &k) in ks.iter().enumerate() {
        let range = sg.point_range(0, 0, ki);
        let (m, point) = cover_point(k, covers(&rotor[range.clone()]), shape, None, [], None);
        rotor_scaled.extend(m.map(|m| (k as u64, m as f64 / bound)));
        rotor_curve.points.push(point);
        if let Some(walks) = &walks {
            let (w, point) =
                cover_point(k, covers(&walks[range]), Shape::Counted, None, [], Some(m));
            walk_scaled.extend(w.map(|w| (k as u64, w as f64 / bound)));
            walk_curve.points.push(point);
        }
    }
    rotor_curve.fit = fit_regime_scaled(&rotor_scaled);
    let mut curves = vec![rotor_curve.to_json()];
    let mut scaled = vec![("rotor", scaled_to_json(&rotor_scaled))];
    let mut speedup = Json::Null;
    if walks.is_some() {
        walk_curve.fit = fit_regime_scaled(&walk_scaled);
        if let (Some(r), Some(w)) = (rotor_curve.fit.as_ref(), walk_curve.fit.as_ref()) {
            speedup = Json::Num(speedup_exponent(r, w));
        }
        curves.push(walk_curve.to_json());
        scaled.push(("walk", scaled_to_json(&walk_scaled)));
    }
    Json::obj([
        ("curves", Json::Arr(curves)),
        ("scaled", Json::obj(scaled)),
        ("speedup_exponent", speedup),
    ])
}

// ---------------------------------------------------------------------------
// recovery
// ---------------------------------------------------------------------------

/// Families the recovery campaign disturbs: the paper's ring plus two
/// general shapes (an expander-like random-regular draw and the
/// binary tree), so every disturbance kind is measured on ≥ 2 families.
const RECOVERY_FAMILIES: [GraphFamily; 3] = [
    GraphFamily::Ring,
    GraphFamily::RandomRegular { degree: 4 },
    GraphFamily::BinaryTree,
];

/// Every disturbance kind, in curve order.
const RECOVERY_KINDS: [FaultKind; 4] = [
    FaultKind::CorruptPointers,
    FaultKind::CrashAgents,
    FaultKind::StallAgents,
    FaultKind::ChurnEdges,
];

const RECOVERY_BASE_SEED: u64 = 0xFA11_0C0DE;

/// The `recovery` report: one curve per `(kind, family, n)` unit with
/// re-cover medians over `k`, plus the failed-cell ledger
/// (`meta.failed_cells` / `meta.failures`) fed by the panic-contained
/// driver.
fn recovery_report(grid: &Grid, threads: usize, state: &mut CampaignState) -> Result<Body, String> {
    let units = RECOVERY_KINDS.iter().flat_map(|&kind| {
        RECOVERY_FAMILIES.iter().flat_map(move |&family| {
            grid.ns.iter().map(move |&n| {
                let key = format!("{}/{}/n{n}", kind.label(), family.label());
                (key, (kind, family, n))
            })
        })
    });
    let (curves, units) = run_units(state, units, |(kind, family, n)| {
        run_recovery_unit(kind, family, n, grid.seeds, threads)
    })?;
    let mut cells = 0;
    let mut failures: Vec<Json> = Vec::new();
    for unit in &units {
        cells += unit_field(unit, "cells", Json::as_u64)?;
        failures.extend_from_slice(unit_field(unit, "failures", Json::as_arr)?);
    }
    let meta = Json::obj([
        ("ns", ints(grid.ns)),
        ("seed_count", Json::Int(grid.seeds as u64)),
        (
            "kinds",
            Json::Arr(
                RECOVERY_KINDS
                    .iter()
                    .map(|k| Json::Str(k.label().into()))
                    .collect(),
            ),
        ),
        (
            "families",
            Json::Arr(
                RECOVERY_FAMILIES
                    .iter()
                    .map(|f| Json::Str(f.label()))
                    .collect(),
            ),
        ),
        ("placement", Json::Str("random".into())),
        ("ks_rule", Json::Str(KS_RULE.into())),
        ("cells", Json::Int(cells)),
        ("failed_cells", Json::Int(failures.len() as u64)),
        ("failures", Json::Arr(failures)),
    ]);
    Ok(Body(meta, curves))
}

/// Disturbance magnitude at size `n`: enough to measurably uncover the
/// graph, scaled so the fault stays a perturbation rather than a restart.
/// Corruption scrambles `n/8` pointers, crashes remove up to 4 agents
/// (the runner always spares the last), stalls hold every agent 32
/// rounds, churn attempts `n/16` degree-preserving edge swaps.
fn fault_severity(kind: FaultKind, n: usize) -> u32 {
    match kind {
        FaultKind::CorruptPointers => (n / 8).max(4) as u32,
        FaultKind::CrashAgents => 4,
        FaultKind::StallAgents => 32,
        FaultKind::ChurnEdges => (n / 16).max(2) as u32,
    }
}

/// Runs one `(kind, family, n)` unit of the recovery campaign: every
/// `(k, seed)` cell disturbed once after cover, through the
/// panic-contained driver, aggregated into one recovery curve per unit
/// plus the failed-cell ledger the assembly hoists into the report meta.
fn run_recovery_unit(
    kind: FaultKind,
    family: GraphFamily,
    n: usize,
    seeds: usize,
    threads: usize,
) -> Json {
    let ks = ks_for(n);
    let sg = RANDOM.grid(family, &[n], &ks, seeds, RECOVERY_BASE_SEED);
    let scenarios = sg.scenarios();
    let results: Vec<Result<RecoverySample, String>> =
        run_sharded_checked(&scenarios, threads, |_, sc| {
            let bound = lockin_bound(sc);
            let fault = FaultSpec {
                kind,
                severity: fault_severity(kind, sc.n),
                after_cover: 8,
            };
            let opts = RecoveryOptions {
                cover_budget: 4 * bound,
                recover_budget: 8 * bound,
                // Re-lock-in probes cost O(μ + λ) extra simulation per
                // cell; §4's bounds make that affordable exactly where
                // the period is short — probe the k = 1 column only.
                relock_budget: (sc.k == 1).then_some(4 * bound),
            };
            run_scenario_recovery(sc, &fault, &opts)
        });
    let failures: Vec<Json> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            r.as_ref().err().map(|msg| {
                let sc = &scenarios[i];
                Json::Str(format!(
                    "{}/{}/n{}/k{}/seed{}: {msg}",
                    kind.label(),
                    family.label(),
                    sc.n,
                    sc.k,
                    sc.seed_index
                ))
            })
        })
        .collect();

    let backend = results
        .iter()
        .find_map(|r| r.as_ref().ok().map(|s| s.backend))
        .unwrap_or("unknown");
    let mut curve = Curve::new(format!("{}/{}/n{n}", kind.label(), family.label()))
        .meta("process", Json::Str("rotor".into()))
        .meta("kind", Json::Str(kind.label().into()))
        .meta("family", Json::Str(family.label()))
        .meta("n", Json::Int(n as u64))
        .meta("seed_count", Json::Int(seeds as u64))
        .meta("severity", Json::Int(u64::from(fault_severity(kind, n))))
        .meta("backend", Json::Str(backend.into()));
    for (ki, &k) in ks.iter().enumerate() {
        let cells: Vec<&RecoverySample> = sg
            .point_range(0, 0, ki)
            .filter_map(|i| results[i].as_ref().ok())
            .collect();
        let obs: Vec<RecoveryObs> = cells
            .iter()
            .map(|s| RecoveryObs {
                recover: s.recover,
                relock: s.relock,
                period: s.period,
            })
            .collect();
        let summary = summarize_recovery(&obs);
        let mut covers: Vec<u64> = cells.iter().filter_map(|s| s.cover).collect();
        let median_cover = median(&mut covers);
        let touched = cells.iter().map(|s| u64::from(s.touched)).max();
        curve.points.push(Point::new(
            k as u64,
            [
                ("attempts", Json::Int(summary.attempts as u64)),
                ("recovered", Json::Int(summary.recovered as u64)),
                ("median_cover", int_or_null(median_cover)),
                ("median_recover", int_or_null(summary.median_recover)),
                ("worst_recover", int_or_null(summary.worst_recover)),
                ("relocked", Json::Int(summary.relocked as u64)),
                ("median_relock", int_or_null(summary.median_relock)),
                ("median_period", int_or_null(summary.median_period)),
                ("max_touched", int_or_null(touched)),
            ],
        ));
    }
    Json::obj([
        ("curves", Json::Arr(vec![curve.to_json()])),
        ("cells", Json::Int(scenarios.len() as u64)),
        ("failures", Json::Arr(failures)),
    ])
}

// ---------------------------------------------------------------------------
// torus-seg
// ---------------------------------------------------------------------------

const TORUS_SEG_BASE_SEED: u64 = 0x70B5;

/// The `torus-seg` report: per-shape worst-case and random cover curves,
/// every cell measured on the general engine through
/// [`ProcessKind::Rotor`].
fn torus_seg_report(
    grid: &Grid,
    threads: usize,
    state: &mut CampaignState,
) -> Result<Body, String> {
    let units = grid
        .shapes
        .iter()
        .map(|&(rows, cols)| (format!("{rows}x{cols}"), (rows, cols)));
    let (curves, _) = run_units(state, units, |(rows, cols)| {
        run_torus_seg_unit(rows, cols, grid.seeds, threads)
    })?;
    let shapes = grid
        .shapes
        .iter()
        .map(|&(r, c)| Json::Str(format!("{r}x{c}")));
    let meta = Json::obj([
        ("shapes", Json::Arr(shapes.collect())),
        ("seed_count", Json::Int(grid.seeds as u64)),
    ]);
    Ok(Body(meta, curves))
}

/// One shape unit: the deterministic worst-case column and a seeded
/// random column, both on the general engine over the [`ks_for`] ladder.
/// Off the ring `Rotor` dispatches to the general engine, and every cover
/// is deterministic, so the drift job diffs a rerun against the
/// committed report.
fn run_torus_seg_unit(rows: usize, cols: usize, seeds: usize, threads: usize) -> Json {
    let n = rows * cols;
    let ks = ks_for(n);
    let curves = [WORST, RANDOM].map(|column| {
        let seed_count = column.seed_count(seeds);
        let family = GraphFamily::Torus { rows, cols };
        let sg = column.grid(family, &[n], &ks, seed_count, TORUS_SEG_BASE_SEED);
        let samples: Vec<CoverSample> = run_sharded(&sg.scenarios(), threads, |_, sc| {
            run_scenario(sc, ProcessKind::Rotor, u64::MAX)
        });
        let shape = if column.seeded {
            Shape::Counted
        } else {
            Shape::Cover
        };
        let mut curve = Curve::new(format!("{}/{rows}x{cols}", column.name))
            .meta("process", Json::Str("rotor".into()))
            .meta("rows", Json::Int(rows as u64))
            .meta("cols", Json::Int(cols as u64))
            .meta("n", Json::Int(n as u64))
            .meta("seed_count", Json::Int(seed_count as u64))
            .meta("backend", Json::Str(samples[0].backend.into()));
        for (ki, &k) in ks.iter().enumerate() {
            let cells = &samples[sg.point_range(0, 0, ki)];
            curve
                .points
                .push(cover_point(k, covers(cells), shape, None, [], None).1);
        }
        curve.to_json()
    });
    Json::obj([("curves", Json::Arr(curves.to_vec()))])
}

/// The default state-file path of a `(campaign, scale)` pass, under
/// `target/campaign/` so it never pollutes the working tree.
pub fn default_state_path(campaign: &str, scale: Scale) -> PathBuf {
    crate::workspace_root()
        .join("target")
        .join("campaign")
        .join(format!("{campaign}-{}.state.json", scale.tag()))
}

/// Outcome of a CLI campaign run.
pub struct RunSummary {
    /// Where the assembled report was written.
    pub out: PathBuf,
    /// Units computed in this pass.
    pub computed: usize,
    /// Units resumed from the state file.
    pub resumed: usize,
}

/// Runs a campaign end to end: load (or start) the state, compute the
/// missing units, assemble the report, check it against the
/// [`validate`] rules, and write it.
///
/// # Errors
///
/// Fails on unknown campaigns, unusable state files, I/O errors, and —
/// deliberately — when the assembled report does not pass its own
/// validator: a campaign must never write a report CI would reject. A
/// report whose `meta.failed_cells` is nonzero is written (so its
/// `meta.failures` ledger can be read) and then fails the run.
pub fn run(
    campaign: &str,
    scale: Scale,
    threads: usize,
    out: Option<PathBuf>,
    state_path: Option<PathBuf>,
    fresh: bool,
) -> Result<RunSummary, String> {
    let row = find(campaign)?;
    let state_path = state_path.unwrap_or_else(|| default_state_path(campaign, scale));
    let mut state = CampaignState::load(state_path, campaign, scale, fresh)?;
    let report = row.report(scale, threads, &mut state)?;
    let errors = validate::validate(&report, &validate::Options::default());
    if !errors.is_empty() {
        return Err(format!(
            "assembled report fails validation:\n  {}",
            errors.join("\n  ")
        ));
    }
    let out_path = match out {
        Some(path) => {
            let mut body = report.render();
            body.push('\n');
            std::fs::write(&path, body)
                .map_err(|e| format!("{}: cannot write report: {e}", path.display()))?;
            path
        }
        None => write_summary(row.bench, &report),
    };
    let failed = report
        .get("meta")
        .and_then(|m| m.get("failed_cells"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if failed > 0 {
        return Err(format!(
            "{failed} cell(s) failed; see meta.failures in {}",
            out_path.display()
        ));
    }
    Ok(RunSummary {
        out: out_path,
        computed: state.computed,
        resumed: state.resumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::OnceLock;

    #[test]
    fn ks_rule_matches_the_issue() {
        assert_eq!(ks_for(32), vec![1, 2]);
        assert_eq!(ks_for(64), vec![1, 4]);
        assert_eq!(ks_for(256), vec![1, 4, 16]);
        assert_eq!(ks_for(1024), vec![1, 4, 16, 64]);
        assert_eq!(ks_for(4096), vec![1, 4, 16, 256]);
    }

    /// Row `name`'s `Scale::Test` report, checked against its own rules.
    /// Every row's report is built once per test process.
    fn validated(name: &str) -> &'static Json {
        static REPORTS: OnceLock<Vec<Json>> = OnceLock::new();
        let reports = REPORTS.get_or_init(|| {
            CAMPAIGNS
                .iter()
                .map(|c| {
                    let mut state = CampaignState::ephemeral(c.name, Scale::Test);
                    c.report(Scale::Test, 2, &mut state).expect("report builds")
                })
                .collect()
        });
        let i = CAMPAIGNS.iter().position(|c| c.name == name).unwrap();
        let errors = validate::validate(&reports[i], &validate::Options::default());
        assert_eq!(errors, Vec::<String>::new(), "{name}");
        &reports[i]
    }

    #[test]
    fn every_campaign_passes_its_own_validator() {
        for c in &CAMPAIGNS {
            let report = validated(c.name);
            assert_eq!(report.get("bench").and_then(Json::as_str), Some(c.bench));
        }
    }

    fn curves(report: &Json) -> &[Json] {
        report.get("curves").and_then(Json::as_arr).unwrap()
    }

    fn curve_labels(report: &Json) -> Vec<&str> {
        curves(report)
            .iter()
            .map(|c| c.get("label").and_then(Json::as_str).unwrap())
            .collect()
    }

    fn meta_str<'a>(curve: &'a Json, key: &str) -> &'a str {
        curve
            .get("meta")
            .and_then(|m| m.get(key))
            .and_then(Json::as_str)
            .unwrap()
    }

    #[test]
    fn family_speedup_test_scale_passes_its_own_validator() {
        let report = validated("family-speedup");
        // paired columns: every family appears as both rotor and walk
        assert_eq!(
            curves(report).len(),
            6 * 2 * 2,
            "6 families × 2 sizes × 2 processes"
        );
        // the ring rotor curves record the fast-path backend, others the
        // general engine
        for curve in curves(report) {
            if meta_str(curve, "process") == "rotor" {
                let expected = if meta_str(curve, "family") == "ring" {
                    "rotor_ring"
                } else {
                    "rotor_general"
                };
                assert_eq!(meta_str(curve, "backend"), expected);
            }
        }
    }

    #[test]
    fn table1_test_scale_passes_its_own_validator() {
        let report = validated("table1");
        assert_eq!(
            curve_labels(report),
            ["worst/n64", "best/n64", "random/n64"]
        );
        // k = 1 worst case: the single agent covers the ring in n(n−1)/2
        let first = &curves(report)[0]
            .get("points")
            .and_then(Json::as_arr)
            .unwrap()[0];
        assert_eq!(first.get("cover").and_then(Json::as_u64), Some(64 * 63 / 2));
    }

    #[test]
    fn return_time_test_scale_passes_its_own_validator() {
        let report = validated("return-time");
        assert_eq!(
            curve_labels(report),
            ["brent/ring/n16", "brent/torus_4x4/n16"]
        );
        // the single-agent limit on the ring has period 2n (Theorem 6)
        let first = &curves(report)[0]
            .get("points")
            .and_then(Json::as_arr)
            .unwrap()[0];
        assert_eq!(first.get("period").and_then(Json::as_u64), Some(32));
    }

    #[test]
    fn walk_vs_rotor_test_scale_passes_its_own_validator() {
        let report = validated("walk-vs-rotor");
        let mut expected = Vec::new();
        for col in ["random", "all_on_one"] {
            for n in [128, 256] {
                for process in ["rotor", "walk"] {
                    expected.push(format!("{process}/{col}/n{n}"));
                }
            }
        }
        assert_eq!(curve_labels(report), expected);
        let speedups = report.get("meta").and_then(|m| m.get("speedups"));
        let speedups = speedups.and_then(Json::as_arr).unwrap();
        assert_eq!(speedups.len(), 2 * 2, "one exponent per (placement, n)");
    }

    #[test]
    fn torus_seg_test_scale_passes_its_own_validator() {
        let report = validated("torus-seg");
        // worst + random columns at two shapes
        assert_eq!(curves(report).len(), 2 * 2);
        for curve in curves(report) {
            assert_eq!(meta_str(curve, "backend"), "rotor_general");
        }
    }

    #[test]
    fn ring_large_n_test_scale_passes_its_own_validator() {
        let report = validated("ring-large-n");
        // worst + best + rotor/random + walk/random, at two sizes
        assert_eq!(curves(report).len(), 4 * 2);
    }

    #[test]
    fn recovery_test_scale_passes_its_own_validator() {
        let report = validated("recovery");
        assert_eq!(
            curves(report).len(),
            4 * 3 * 2,
            "4 kinds × 3 families × 2 sizes"
        );
        let meta = report.get("meta").unwrap();
        assert_eq!(meta.get("failed_cells").and_then(Json::as_u64), Some(0));
        for curve in curves(report) {
            let kind = meta_str(curve, "kind");
            for point in curve.get("points").and_then(Json::as_arr).unwrap() {
                let field = |key: &str| point.get(key).and_then(Json::as_u64).unwrap();
                let attempts = field("attempts");
                assert!(
                    attempts >= 1 && field("recovered") == attempts,
                    "{kind}: all cells recover at test scale"
                );
                if field("x") == 1 {
                    assert_eq!(
                        field("relocked"),
                        attempts,
                        "k = 1 cells carry the lock-in probe"
                    );
                } else {
                    assert_eq!(field("relocked"), 0, "k > 1 cells skip the probe");
                    assert!(point.get("median_relock").is_some_and(Json::is_null));
                }
            }
        }
    }

    /// A scratch directory for one test.
    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rotor-campaign-{tag}-{}", std::process::id()))
    }

    #[test]
    fn state_resumes_bit_identically() {
        let dir = scratch("resume");
        // Units per row at test scale.
        for (c, units) in CAMPAIGNS.iter().zip([3, 2, 2, 6 * 2, 3 * 2, 4 * 3 * 2, 2]) {
            let path = dir.join(format!("{}.state.json", c.name));
            let _ = std::fs::remove_file(&path);

            let mut first =
                CampaignState::load(path.clone(), c.name, Scale::Test, false).expect("fresh");
            let a = c.report(Scale::Test, 2, &mut first).expect("first pass");
            assert_eq!((first.resumed, first.computed), (0, units), "{}", c.name);

            // A second pass on another thread count answers every unit
            // from disk and reassembles the identical report.
            let mut second =
                CampaignState::load(path.clone(), c.name, Scale::Test, false).expect("reload");
            let b = c.report(Scale::Test, 1, &mut second).expect("resumed pass");
            assert_eq!((second.resumed, second.computed), (units, 0), "{}", c.name);
            assert_eq!(
                crate::compare::compare(&a, &b),
                Vec::<String>::new(),
                "{}",
                c.name
            );

            // --fresh discards the stored units.
            let mut fresh =
                CampaignState::load(path.clone(), c.name, Scale::Test, true).expect("fresh");
            assert!(fresh.unit("probe", || Json::Null).is_ok());
            assert_eq!(fresh.computed, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Removes `field` from stored unit `key` of the state file at `path`.
    fn drop_unit_field(path: &Path, key: &str, field: &str) {
        let mut state = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Json::Obj(top) = &mut state else {
            panic!("state is an object")
        };
        let (_, Json::Obj(units)) = top.iter_mut().find(|(k, _)| k == "units").unwrap() else {
            panic!("units is an object")
        };
        let (_, Json::Obj(unit)) = units.iter_mut().find(|(k, _)| k == key).unwrap() else {
            panic!("unit {key} is an object")
        };
        unit.retain(|(k, _)| k != field);
        std::fs::write(path, state.render()).unwrap();
    }

    #[test]
    fn resumed_unit_missing_a_field_is_an_error() {
        let dir = scratch("missing");
        for (campaign, key, field) in [
            ("recovery", "corrupt/ring/n32", "cells"),
            ("recovery", "crash/binary_tree/n64", "failures"),
            ("ring-large-n", "random/n64", "speedup_exponent"),
            ("walk-vs-rotor", "random", "speedups"),
            ("table1", "best/n64", "curves"),
        ] {
            let row = find(campaign).unwrap();
            let path = dir.join(format!("{campaign}.state.json"));
            let mut state = CampaignState::load(path.clone(), campaign, Scale::Test, true).unwrap();
            row.report(Scale::Test, 2, &mut state).expect("first pass");
            drop_unit_field(&path, key, field);
            let mut resumed =
                CampaignState::load(path.clone(), campaign, Scale::Test, false).unwrap();
            let err = row.report(Scale::Test, 2, &mut resumed).unwrap_err();
            assert_eq!(err, format!("unit is missing {field}"), "{campaign}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_row_has_a_committed_report_and_every_report_a_row() {
        let root = crate::workspace_root();
        let mut committed: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
            .collect();
        committed.sort_unstable();
        let mut rows: Vec<String> = CAMPAIGNS
            .iter()
            .map(|c| format!("BENCH_{}.json", c.bench))
            .collect();
        rows.sort_unstable();
        assert_eq!(committed, rows);
        for c in &CAMPAIGNS {
            let body = std::fs::read_to_string(root.join(format!("BENCH_{}.json", c.bench)));
            let report = Json::parse(&body.unwrap()).unwrap();
            let errors = validate::validate(&report, &validate::Options::default());
            assert_eq!(errors, Vec::<String>::new(), "BENCH_{}.json", c.bench);
        }
    }

    #[test]
    fn corrupt_state_file_falls_back_to_fresh() {
        let dir = scratch("bad");
        let path = dir.join("state.json");
        let load = || CampaignState::load(path.clone(), "family-speedup", Scale::Test, false);
        let mut s = load().unwrap();
        s.unit("u", || Json::Int(7)).unwrap();

        // A pass killed mid-persist leaves a JSON prefix: loading it must
        // warn and start fresh, not abort the campaign.
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        let mut half = load().expect("truncated state is recoverable");
        assert_eq!(half.resumed, 0, "no unit survives a truncated file");
        let recomputed = half.unit("u", || Json::Int(8)).unwrap();
        assert_eq!(recomputed.as_u64(), Some(8));
        assert_eq!(half.computed, 1, "unit recomputed, file rewritten");
        // and the rewritten file round-trips again
        assert_eq!(load().unwrap().units.len(), 1);

        // Outright garbage and unit-less JSON take the same fallback.
        std::fs::write(&path, "{ not json at all").unwrap();
        assert!(load().is_ok());
        std::fs::write(
            &path,
            format!(
                "{{\"schema\": \"{STATE_SCHEMA}\", \"campaign\": \"family-speedup\", \
                 \"scale\": \"test\"}}\n"
            ),
        )
        .unwrap();
        assert!(load().unwrap().units.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_refuses_mismatched_headers() {
        let dir = scratch("hdr");
        let path = dir.join("state.json");
        let load =
            |campaign, scale, fresh| CampaignState::load(path.clone(), campaign, scale, fresh);
        let mut s = load("family-speedup", Scale::Test, false).unwrap();
        s.unit("u", || Json::Int(1)).unwrap();
        // same file, different campaign or scale: refused
        let other = load("ring-large-n", Scale::Test, false);
        assert!(other.unwrap_err().contains("campaign"));
        let other = load("family-speedup", Scale::Smoke, false);
        assert!(other.unwrap_err().contains("scale"));
        // --fresh overrides the mismatch
        assert!(load("ring-large-n", Scale::Test, true).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_campaign_is_an_error() {
        let err = find("nope").map(|c| c.name).unwrap_err();
        assert!(err.contains("unknown campaign") && err.contains(&names(", ")));
        assert_eq!(find("family-speedup").unwrap().bench, "general_graphs");
        // every defined campaign has its own name and writes its own report
        // file
        for key in [|c: &Campaign| c.name, |c: &Campaign| c.bench] {
            let mut keys: Vec<&str> = CAMPAIGNS.iter().map(key).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), CAMPAIGNS.len());
        }
    }
}
