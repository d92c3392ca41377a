//! Named, resumable sweep campaigns — the full-scale experiment passes
//! behind `cargo run -p xtask -- campaign <name>`.
//!
//! A *campaign* is a fixed list of **units** (one `(column, n)` grid pair
//! each), executed in order through the same sharded [`run_sharded`]
//! driver as every bench sweep.
//! After each unit completes, its curves are persisted into a JSON state
//! file, so an interrupted pass — a large-`n` run killed halfway through,
//! a laptop lid closed — resumes from the last finished unit instead of
//! recomputing days of simulation. All randomness is derived from the
//! campaign's base seed, so a resumed unit is bit-identical to an
//! uninterrupted one (pinned by tests).
//!
//! Four campaigns are defined:
//!
//! * [`FAMILY_SPEEDUP`] — the paper's headline comparison *off* the ring:
//!   every shape-free graph family (ring, path, complete, star, binary
//!   tree, random-regular) at `n ∈ {256, 1024, 4096}` and
//!   `k ∈ {1, 4, 16, n/16}`, with paired rotor-router and random-walk
//!   columns from one shared [`ScenarioGrid`] per unit. Each curve carries
//!   a [`fit_regime_scaled`] verdict over its `2·D·|E|`-normalised cover
//!   medians, and the report meta pools the per-family scaled exponents
//!   across all three sizes. Writes `BENCH_general_graphs.json`.
//! * [`RING_LARGE_N`] — the ring `walk_vs_rotor` / `table1` grids at
//!   `n ≥ 10⁵` (worst-case, best-case and paired random columns). The
//!   rotor columns run the segmented-parallel backend
//!   ([`ProcessKind::RotorSegmented`], partition count from
//!   `ROTOR_SEGMENTS`, bit-identical at every setting), and the sweep
//!   shard count is clamped against the segment workers by the shared
//!   thread budget — so the campaign is a laptop run, not a
//!   wait-for-a-big-box one; the resumable unit granularity still covers
//!   interruptions. Writes `BENCH_ring_large_n.json`.
//! * [`RECOVERY`] — the fault-injection robustness campaign: every
//!   disturbance kind (pointer corruption, agent crashes, §2.1 stalls,
//!   edge churn) struck after cover on ring, random-regular and
//!   binary-tree scenarios, measuring rounds to re-cover (and, on `k = 1`
//!   cells, the Brent-probed re-lock-in tail and period of the disturbed
//!   configuration). Scenarios run through the panic-contained
//!   [`run_sharded_checked`] driver, so one poisoned cell surfaces in the
//!   report meta instead of killing the pass. Writes
//!   `BENCH_recovery.json`.
//! * [`TORUS_SEG`] — the segmented-torus canary: worst-case and seeded
//!   random cover curves per torus shape, measured on the row-banded
//!   [`ProcessKind::TorusSegmented`] backend (band count from
//!   `ROTOR_SEGMENTS`, bit-identical to the serial engine at every
//!   setting), so the determinism-drift job has a torus report to diff
//!   across partition counts. Writes `BENCH_torus_seg.json`.
//!
//! The `general_graphs` and `recovery` bench targets are thin smoke-mode
//! wrappers over [`family_speedup_report`] / [`recovery_report`], so the
//! CI smoke grids and the full campaigns can never drift: same unit code,
//! same aggregation, same validator.

use crate::validate;
use rotor_analysis::recovery::{summarize_recovery, RecoveryObs};
use rotor_analysis::report::{write_summary, Curve, Json, Point, SCHEMA};
use rotor_analysis::{
    bootstrap_median_band, fit_regime_scaled, median, speedup_exponent, RegimeFit,
};
use rotor_core::domains::{scan_domain_stats, DomainSampler};
use rotor_core::faults::FaultKind;
use rotor_core::{init::PointerInit, placement::Placement, CoverProcess, RingRouter};
use rotor_graph::algo;
use rotor_sweep::{
    run_scenario, run_scenario_observed, run_scenario_recovery, run_sharded, run_sharded_checked,
    CoverSample, FaultSpec, GraphFamily, InitSpec, PlacementSpec, ProcessKind, RecoveryOptions,
    RecoverySample, Scenario, ScenarioGrid,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The per-family speed-up campaign (writes `BENCH_general_graphs.json`).
pub const FAMILY_SPEEDUP: &str = "family-speedup";
/// The large-`n` ring campaign (writes `BENCH_ring_large_n.json`).
pub const RING_LARGE_N: &str = "ring-large-n";
/// The fault-injection recovery campaign (writes `BENCH_recovery.json`).
pub const RECOVERY: &str = "recovery";
/// The segmented-torus backend canary (writes `BENCH_torus_seg.json`).
pub const TORUS_SEG: &str = "torus-seg";
/// Every defined campaign name, for CLI help and dispatch.
pub const NAMES: [&str; 4] = [FAMILY_SPEEDUP, RING_LARGE_N, RECOVERY, TORUS_SEG];

/// Schema tag of the campaign state file.
pub const STATE_SCHEMA: &str = "rotor-campaign-state/1";

/// The `bench` field (and canonical `BENCH_<bench>.json` file) a campaign
/// reports under, or `None` for an unknown campaign name.
pub fn bench_name(campaign: &str) -> Option<&'static str> {
    match campaign {
        FAMILY_SPEEDUP => Some("general_graphs"),
        RING_LARGE_N => Some("ring_large_n"),
        RECOVERY => Some("recovery"),
        TORUS_SEG => Some("torus_seg"),
        _ => None,
    }
}

/// How big a campaign pass is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The real experiment grids (the committed baselines).
    Full,
    /// The CI grids: `n ≤ 256`, completes in seconds on two threads.
    Smoke,
    /// Tiny grids for `cargo test` / `-- --test`: `n ≤ 128`.
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
    /// An in-memory state that never touches disk — the bench wrapper's
    /// mode, where every unit is computed fresh.
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

/// Wall-clock ratio of every-round §2.2 sampling through the `O(n)`
/// reference scan versus the `RingRouter`'s incremental counters, at
/// `n = 4096` — recorded in every `general_graphs` report's meta (the
/// validator requires it to stay above 1; the bench smoke asserts ≥ 5×).
pub fn domain_sampler_speedup() -> f64 {
    let n = 4096;
    let rounds = 2048;
    let starts = Placement::EquallySpaced { offset: 0 }.positions(n, 8);
    let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);

    let mut incremental = RingRouter::new(n, &starts, &dirs);
    let mut sampler = DomainSampler::every(1);
    // lint: allow(wall-clock) -- measures the sampler speed-up ratio, a declared nondeterministic meta field
    let t0 = Instant::now();
    incremental.run_observed(rounds, &mut sampler);
    let incremental_time = t0.elapsed();

    let mut scanned = RingRouter::new(n, &starts, &dirs);
    let mut scans = Vec::new();
    // lint: allow(wall-clock) -- measures the reference-scan leg of the same nondeterministic ratio
    let t0 = Instant::now();
    scanned.run_observed(rounds, &mut |p: &RingRouter| {
        scans.push(scan_domain_stats(p));
    });
    let scan_time = t0.elapsed();

    // Identical runs: the two instruments must agree sample for sample.
    assert_eq!(sampler.samples.len(), scans.len());
    assert!(sampler
        .samples
        .iter()
        .zip(&scans)
        .all(|(s, sc)| (s.domains, s.borders) == (sc.domains, sc.borders)));
    scan_time.as_secs_f64() / incremental_time.as_secs_f64().max(f64::EPSILON)
}

// ---------------------------------------------------------------------------
// family-speedup
// ---------------------------------------------------------------------------

/// The shape-free families (node count taken from the scenario's `n`, so
/// one family sweeps all three sizes) of the speed-up campaign.
fn shape_free_families() -> [GraphFamily; 6] {
    [
        GraphFamily::Ring,
        GraphFamily::Path,
        GraphFamily::Complete,
        GraphFamily::Star,
        GraphFamily::BinaryTree,
        GraphFamily::RandomRegular { degree: 4 },
    ]
}

/// The campaign's `k` axis at size `n`: `{1, 4, 16, n/16}`, deduplicated
/// and capped at `n/16` (the paper's sweeps stop at `k = n/16`, past
/// which the ring regimes degenerate).
pub fn ks_for(n: usize) -> Vec<usize> {
    let cap = (n / 16).max(1);
    let mut ks: Vec<usize> = [1, 4, 16, cap].into_iter().filter(|&k| k <= cap).collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

fn speedup_ns(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Full => &[256, 1024, 4096],
        Scale::Smoke => &[64, 256],
        Scale::Test => &[32, 64],
    }
}

fn speedup_seed_count(scale: Scale) -> usize {
    match scale {
        // 16 seeds per point: the extra repetitions tighten the bootstrap
        // bands and pooled exponents everywhere.
        Scale::Full => 16,
        Scale::Smoke => 2,
        Scale::Test => 1,
    }
}

const SPEEDUP_BASE_SEED: u64 = 0xFA111E5;

/// Bootstrap resamples behind every `band_lo`/`band_hi` pair (matches the
/// `walk_vs_rotor` bench so band widths are comparable across reports).
const BOOTSTRAP_RESAMPLES: usize = 300;
/// Confidence level of the bootstrap median bands.
const BAND_CONFIDENCE: f64 = 0.95;

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
/// ones, which keeps the sample buffer small; each sample is an `O(1)`
/// read on the ring and an `O(n / 64)` word-wise pass elsewhere.
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
fn run_speedup_unit(family: GraphFamily, n: usize, seed_count: usize, threads: usize) -> Json {
    let ks = ks_for(n);
    let grid = ScenarioGrid {
        families: vec![family],
        ns: vec![n],
        ks: ks.clone(),
        seed_count,
        base_seed: SPEEDUP_BASE_SEED,
        placement: PlacementSpec::Random,
        init: InitSpec::Random,
    };
    let scenarios = grid.scenarios();
    let rotor: Vec<RotorRun> = run_sharded(&scenarios, threads, |_, sc| run_rotor_cell(sc));
    let walks: Vec<CoverSample> = run_sharded(&scenarios, threads, |_, sc| {
        run_scenario(sc, ProcessKind::RandomWalk, walk_budget(sc.n))
    });
    let backend = rotor[0].backend;
    debug_assert!(rotor.iter().all(|c| c.backend == backend));

    let label = family.label();
    let mut rotor_curve = Curve::new(format!("rotor/{label}/n{n}"))
        .meta("process", Json::Str("rotor".into()))
        .meta("family", Json::Str(label.clone()))
        .meta("n", Json::Int(n as u64))
        .meta("seed_count", Json::Int(seed_count as u64))
        .meta("backend", Json::Str(backend.into()));
    let mut walk_curve = Curve::new(format!("walk/{label}/n{n}"))
        .meta("process", Json::Str("walk".into()))
        .meta("family", Json::Str(label.clone()))
        .meta("n", Json::Int(n as u64))
        .meta("seed_count", Json::Int(seed_count as u64));

    let mut rotor_scaled: Vec<(u64, f64)> = Vec::new();
    let mut walk_scaled: Vec<(u64, f64)> = Vec::new();
    for (ki, &k) in ks.iter().enumerate() {
        let range = grid.point_range(0, 0, ki);
        let r_cells = &rotor[range.clone()];
        let w_cells = &walks[range.clone()];

        let mut r_covers: Vec<u64> = r_cells.iter().map(|c| c.cover).collect();
        let r_median = median(&mut r_covers).expect("non-empty point");
        // Seeded families draw a fresh graph (hence bound) per repetition,
        // so ratios are per-cell; the shared bound is emitted only when it
        // really is shared.
        let r_ratio = median_f64(
            r_cells
                .iter()
                .map(|c| c.cover as f64 / c.bound as f64)
                .collect(),
        )
        .expect("non-empty point");
        let worst_ratio = r_cells
            .iter()
            .map(|c| c.cover as f64 / c.bound as f64)
            .fold(f64::MIN, f64::max);
        let bound = r_cells[0].bound;
        let shared_bound = if r_cells.iter().all(|c| c.bound == bound) {
            Json::Int(bound)
        } else {
            Json::Null
        };
        let max_domains = r_cells
            .iter()
            .map(|c| c.max_domains)
            .max()
            .expect("non-empty");
        let single_domain_round = r_cells
            .iter()
            .map(|c| c.single_domain_round)
            .max()
            .expect("non-empty");
        // Seeded percentile-bootstrap band around the cover median, keyed
        // by the point's first scenario seed so reassembly reproduces it.
        let band_seed = scenarios[range.start].seed;
        let r_band =
            bootstrap_median_band(&r_covers, BOOTSTRAP_RESAMPLES, BAND_CONFIDENCE, band_seed);
        rotor_scaled.push((k as u64, r_ratio));
        rotor_curve.points.push(Point::new(
            k as u64,
            [
                ("median_cover", Json::Int(r_median)),
                ("band_lo", int_or_null(r_band.as_ref().map(|b| b.lo))),
                ("band_hi", int_or_null(r_band.as_ref().map(|b| b.hi))),
                ("median_ratio", Json::Num(r_ratio)),
                ("bound_2_d_e", shared_bound),
                ("worst_ratio", Json::Num(worst_ratio)),
                ("max_domains", Json::Int(u64::from(max_domains))),
                ("single_domain_round", Json::Int(single_domain_round)),
            ],
        ));

        let mut w_covers: Vec<u64> = w_cells.iter().filter_map(|s| s.cover).collect();
        let covered = w_covers.len();
        let w_median = median(&mut w_covers);
        // The walk ratio reuses the rotor pass's bounds: same scenario
        // index, same seed, same graph draw.
        let w_ratio = median_f64(
            w_cells
                .iter()
                .zip(r_cells)
                .filter_map(|(w, r)| w.cover.map(|c| c as f64 / r.bound as f64))
                .collect(),
        );
        if let Some(ratio) = w_ratio {
            walk_scaled.push((k as u64, ratio));
        }
        let walk_over_rotor = w_median
            .filter(|_| r_median > 0)
            .map(|w| w as f64 / r_median as f64);
        let w_band =
            bootstrap_median_band(&w_covers, BOOTSTRAP_RESAMPLES, BAND_CONFIDENCE, band_seed);
        walk_curve.points.push(Point::new(
            k as u64,
            [
                ("covered", Json::Int(covered as u64)),
                ("median_cover", int_or_null(w_median)),
                ("band_lo", int_or_null(w_band.as_ref().map(|b| b.lo))),
                ("band_hi", int_or_null(w_band.as_ref().map(|b| b.hi))),
                ("median_ratio", num_or_null(w_ratio)),
                ("walk_over_rotor", num_or_null(walk_over_rotor)),
            ],
        ));
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

fn scaled_to_json(points: &[(u64, f64)]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|&(k, r)| Json::Arr(vec![Json::Int(k), Json::Num(r)]))
            .collect(),
    )
}

fn scaled_from_unit(unit: &Json, process: &str) -> Result<Vec<(u64, f64)>, String> {
    let arr = unit
        .get("scaled")
        .and_then(|s| s.get(process))
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("unit is missing scaled.{process}"))?;
    arr.iter()
        .map(|pair| {
            let items = pair.as_arr().filter(|i| i.len() == 2);
            match items {
                Some(items) => match (items[0].as_u64(), items[1].as_f64()) {
                    (Some(k), Some(r)) => Ok((k, r)),
                    _ => Err(format!("malformed scaled.{process} entry")),
                },
                None => Err(format!("malformed scaled.{process} entry")),
            }
        })
        .collect()
}

fn unit_curves(unit: &Json) -> Result<Vec<Json>, String> {
    Ok(unit
        .get("curves")
        .and_then(Json::as_arr)
        .ok_or("unit is missing curves")?
        .to_vec())
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

/// Builds the complete `family-speedup` report (bench `general_graphs`),
/// computing units not already in `state` and pooling the per-family
/// `2·D·|E|`-scaled exponents across every size in the scale's grid.
///
/// # Errors
///
/// Fails when the state cannot be persisted or holds malformed units.
pub fn family_speedup_report(
    scale: Scale,
    threads: usize,
    state: &mut CampaignState,
) -> Result<Json, String> {
    let ns = speedup_ns(scale);
    let seed_count = speedup_seed_count(scale);
    let mut curves: Vec<Json> = Vec::new();
    let mut speedups: Vec<Json> = Vec::new();
    for family in shape_free_families() {
        let mut rotor_pool: Vec<(u64, f64)> = Vec::new();
        let mut walk_pool: Vec<(u64, f64)> = Vec::new();
        for &n in ns {
            let key = format!("{}/n{n}", family.label());
            let unit = state.unit(&key, || run_speedup_unit(family, n, seed_count, threads))?;
            curves.extend(unit_curves(&unit)?);
            rotor_pool.extend(scaled_from_unit(&unit, "rotor")?);
            walk_pool.extend(scaled_from_unit(&unit, "walk")?);
        }
        // The pooled fit is where the 2·D·|E| normalisation earns its
        // keep: cover medians from n = 256 and n = 4096 land on one curve
        // because each is divided by its own size's bound.
        let rotor_fit = fit_regime_scaled(&rotor_pool);
        let walk_fit = fit_regime_scaled(&walk_pool);
        let speedup = match (&rotor_fit, &walk_fit) {
            (Some(r), Some(w)) => Some(speedup_exponent(r, w)),
            _ => None,
        };
        let mut entry = vec![("family".to_string(), Json::Str(family.label()))];
        entry.extend(fit_fields("rotor", &rotor_fit));
        entry.extend(fit_fields("walk", &walk_fit));
        entry.push(("speedup_exponent".to_string(), num_or_null(speedup)));
        speedups.push(Json::Obj(entry));
    }
    let meta = Json::obj([
        (
            "ns",
            Json::Arr(ns.iter().map(|&n| Json::Int(n as u64)).collect()),
        ),
        ("seed_count", Json::Int(seed_count as u64)),
        ("placement", Json::Str("random".into())),
        (
            "ks_rule",
            Json::Str("1,4,16,n/16 (deduplicated, capped at n/16)".into()),
        ),
        ("speedups", Json::Arr(speedups)),
        (
            "domain_sampler_speedup_n4096",
            Json::Num(domain_sampler_speedup()),
        ),
    ]);
    Ok(report_json("general_graphs", threads, meta, curves))
}

// ---------------------------------------------------------------------------
// ring-large-n
// ---------------------------------------------------------------------------

fn large_ns(scale: Scale) -> &'static [usize] {
    match scale {
        // ≥ 10⁵ as the ROADMAP asks; powers of two keep n/16 on the
        // shared k ladder. n = 262144 rides the same resumable state on
        // bigger hardware — the report assembly needs every unit, so the
        // committed baseline stops where one box can actually finish.
        Scale::Full => &[131_072],
        Scale::Smoke => &[128, 256],
        Scale::Test => &[64, 128],
    }
}

fn large_ks(scale: Scale, n: usize) -> Vec<usize> {
    let base: &[usize] = match scale {
        Scale::Full => &[1, 4, 16, 64, 256],
        Scale::Smoke => &[1, 4, 16],
        Scale::Test => &[1, 4],
    };
    let cap = (n / 16).max(1);
    base.iter().copied().filter(|&k| k <= cap).collect()
}

fn large_seed_count(scale: Scale) -> usize {
    match scale {
        Scale::Full => 3,
        Scale::Smoke => 2,
        Scale::Test => 1,
    }
}

const LARGE_BASE_SEED: u64 = 0x1A26E;

/// The ring's `2·D·|E|` bound: `2·⌊n/2⌋·n`.
fn ring_bound(n: usize) -> u64 {
    2 * (n as u64 / 2) * (n as u64)
}

/// One sweep column of the large-`n` ring campaign.
struct RingColumn {
    name: &'static str,
    placement: PlacementSpec,
    init: InitSpec,
    /// Whether the column pairs a random-walk run against the rotor run.
    paired: bool,
    /// Whether the column needs seed repetitions (deterministic
    /// placements do not).
    seeded: bool,
}

fn ring_columns() -> [RingColumn; 3] {
    [
        RingColumn {
            name: "worst",
            placement: PlacementSpec::AllOnOne,
            init: InitSpec::TowardNearestAgent,
            paired: false,
            seeded: false,
        },
        RingColumn {
            name: "best",
            placement: PlacementSpec::EquallySpaced,
            init: InitSpec::TowardNearestAgent,
            paired: false,
            seeded: false,
        },
        RingColumn {
            name: "random",
            placement: PlacementSpec::Random,
            init: InitSpec::Random,
            paired: true,
            seeded: true,
        },
    ]
}

/// Runs one `(column, n)` unit of the large-`n` ring campaign.
fn run_large_unit(column: &RingColumn, n: usize, scale: Scale, threads: usize) -> Json {
    let ks = large_ks(scale, n);
    let seed_count = if column.seeded {
        large_seed_count(scale)
    } else {
        1
    };
    let grid = ScenarioGrid {
        families: vec![GraphFamily::Ring],
        ns: vec![n],
        ks: ks.clone(),
        seed_count,
        base_seed: LARGE_BASE_SEED,
        placement: column.placement,
        init: column.init,
    };
    let scenarios = grid.scenarios();
    // The rotor columns run the segmented backend (bit-identical to the
    // serial router at every ROTOR_SEGMENTS — pinned by the equivalence
    // property tests), so the worst-case large-n cells parallelize inside
    // the instance instead of serializing behind the cell boundary.
    let rotor: Vec<CoverSample> = run_sharded(&scenarios, threads, |_, sc| {
        run_scenario(sc, ProcessKind::RotorSegmented, u64::MAX)
    });
    let walks: Option<Vec<CoverSample>> = column.paired.then(|| {
        run_sharded(&scenarios, threads, |_, sc| {
            run_scenario(sc, ProcessKind::RandomWalk, walk_budget(sc.n))
        })
    });

    let placement_label = match column.name {
        "worst" => "all_on_one",
        "best" => "equally_spaced",
        _ => "random",
    };
    let bound = ring_bound(n) as f64;
    let curve_meta = |c: Curve, process: &str| {
        c.meta("process", Json::Str(process.into()))
            .meta("placement", Json::Str(placement_label.into()))
            .meta("n", Json::Int(n as u64))
            .meta("seed_count", Json::Int(seed_count as u64))
    };
    let rotor_label = if column.paired {
        format!("rotor/{}/n{n}", column.name)
    } else {
        format!("{}/n{n}", column.name)
    };
    let mut rotor_curve = curve_meta(Curve::new(rotor_label), "rotor")
        .meta("backend", Json::Str(rotor[0].backend.into()));
    let mut rotor_scaled: Vec<(u64, f64)> = Vec::new();
    let mut walk_curve = curve_meta(Curve::new(format!("walk/{}/n{n}", column.name)), "walk");
    let mut walk_scaled: Vec<(u64, f64)> = Vec::new();

    for (ki, &k) in ks.iter().enumerate() {
        let range = grid.point_range(0, 0, ki);
        let mut covers: Vec<u64> = rotor[range.clone()]
            .iter()
            .map(|s| s.cover.expect("rotor-router always covers"))
            .collect();
        let m = median(&mut covers).expect("non-empty point");
        rotor_scaled.push((k as u64, m as f64 / bound));
        if column.seeded {
            rotor_curve.points.push(Point::new(
                k as u64,
                [
                    ("covered", Json::Int(covers.len() as u64)),
                    ("median_cover", Json::Int(m)),
                ],
            ));
        } else {
            rotor_curve
                .points
                .push(Point::new(k as u64, [("cover", Json::Int(m))]));
        }
        if let Some(walks) = &walks {
            let mut w_covers: Vec<u64> = walks[range].iter().filter_map(|s| s.cover).collect();
            let covered = w_covers.len();
            let w_median = median(&mut w_covers);
            if let Some(w) = w_median {
                walk_scaled.push((k as u64, w as f64 / bound));
            }
            let ratio = w_median.filter(|_| m > 0).map(|w| w as f64 / m as f64);
            walk_curve.points.push(Point::new(
                k as u64,
                [
                    ("covered", Json::Int(covered as u64)),
                    ("median_cover", int_or_null(w_median)),
                    ("walk_over_rotor", num_or_null(ratio)),
                ],
            ));
        }
    }
    rotor_curve.fit = fit_regime_scaled(&rotor_scaled);
    let mut scaled_fields = vec![("rotor", scaled_to_json(&rotor_scaled))];
    let mut speedup = Json::Null;
    let mut curves = Vec::new();
    if walks.is_some() {
        walk_curve.fit = fit_regime_scaled(&walk_scaled);
        if let (Some(r), Some(w)) = (rotor_curve.fit.as_ref(), walk_curve.fit.as_ref()) {
            speedup = Json::Num(speedup_exponent(r, w));
        }
    }
    curves.push(rotor_curve.to_json());
    if walks.is_some() {
        curves.push(walk_curve.to_json());
        scaled_fields.push(("walk", scaled_to_json(&walk_scaled)));
    }
    Json::obj([
        ("curves", Json::Arr(curves)),
        ("scaled", Json::obj(scaled_fields)),
        ("speedup_exponent", speedup),
    ])
}

/// Builds the complete `ring-large-n` report (bench `ring_large_n`):
/// the `table1` worst/best columns and the paired `walk_vs_rotor` random
/// column at every size, with pooled `n²`-scaled exponents per column.
///
/// # Errors
///
/// Fails when the state cannot be persisted or holds malformed units.
pub fn ring_large_n_report(
    scale: Scale,
    threads: usize,
    state: &mut CampaignState,
) -> Result<Json, String> {
    let ns = large_ns(scale);
    let mut curves: Vec<Json> = Vec::new();
    let mut scaled_fits: Vec<Json> = Vec::new();
    let mut speedups: Vec<Json> = Vec::new();
    for column in ring_columns() {
        let mut rotor_pool: Vec<(u64, f64)> = Vec::new();
        let mut walk_pool: Vec<(u64, f64)> = Vec::new();
        for &n in ns {
            let key = format!("{}/n{n}", column.name);
            let unit = state.unit(&key, || run_large_unit(&column, n, scale, threads))?;
            curves.extend(unit_curves(&unit)?);
            rotor_pool.extend(scaled_from_unit(&unit, "rotor")?);
            if column.paired {
                walk_pool.extend(scaled_from_unit(&unit, "walk")?);
                speedups.push(Json::obj([
                    ("n", Json::Int(n as u64)),
                    (
                        "speedup_exponent",
                        unit.get("speedup_exponent").cloned().unwrap_or(Json::Null),
                    ),
                ]));
            }
        }
        let pools: Vec<(&str, Vec<(u64, f64)>)> = if column.paired {
            vec![("rotor_random", rotor_pool), ("walk_random", walk_pool)]
        } else {
            vec![(column.name, rotor_pool)]
        };
        for (label, pool) in pools {
            let fit = fit_regime_scaled(&pool);
            let mut entry = vec![("column".to_string(), Json::Str(label.into()))];
            entry.extend(fit_fields("scaled", &fit));
            scaled_fits.push(Json::Obj(entry));
        }
    }
    let meta = Json::obj([
        (
            "ns",
            Json::Arr(ns.iter().map(|&n| Json::Int(n as u64)).collect()),
        ),
        ("seed_count", Json::Int(large_seed_count(scale) as u64)),
        ("scaled_fits", Json::Arr(scaled_fits)),
        ("speedups", Json::Arr(speedups)),
    ]);
    Ok(report_json("ring_large_n", threads, meta, curves))
}

// ---------------------------------------------------------------------------
// recovery
// ---------------------------------------------------------------------------

/// Families the recovery campaign disturbs: the paper's ring plus two
/// general shapes (an expander-like random-regular draw and the
/// binary tree), so every disturbance kind is measured on ≥ 2 families.
fn recovery_families() -> [GraphFamily; 3] {
    [
        GraphFamily::Ring,
        GraphFamily::RandomRegular { degree: 4 },
        GraphFamily::BinaryTree,
    ]
}

/// Every disturbance kind, in curve order.
fn recovery_kinds() -> [FaultKind; 4] {
    [
        FaultKind::CorruptPointers,
        FaultKind::CrashAgents,
        FaultKind::StallAgents,
        FaultKind::ChurnEdges,
    ]
}

fn recovery_ns(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Full => &[256, 1024],
        Scale::Smoke => &[64, 256],
        Scale::Test => &[32, 64],
    }
}

fn recovery_seed_count(scale: Scale) -> usize {
    match scale {
        Scale::Full => 3,
        Scale::Smoke => 2,
        Scale::Test => 1,
    }
}

const RECOVERY_BASE_SEED: u64 = 0xFA11_0C0DE;

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
    seed_count: usize,
    threads: usize,
) -> Json {
    let ks = ks_for(n);
    let grid = ScenarioGrid {
        families: vec![family],
        ns: vec![n],
        ks: ks.clone(),
        seed_count,
        base_seed: RECOVERY_BASE_SEED,
        placement: PlacementSpec::Random,
        init: InitSpec::Random,
    };
    let scenarios = grid.scenarios();
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
        .meta("seed_count", Json::Int(seed_count as u64))
        .meta("severity", Json::Int(u64::from(fault_severity(kind, n))))
        .meta("backend", Json::Str(backend.into()));
    for (ki, &k) in ks.iter().enumerate() {
        let cells: Vec<&RecoverySample> = grid
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
        let nanos: u64 = cells.iter().map(|s| s.nanos).sum();
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
                ("nanos", Json::Int(nanos)),
            ],
        ));
    }
    Json::obj([
        ("curves", Json::Arr(vec![curve.to_json()])),
        ("cells", Json::Int(scenarios.len() as u64)),
        ("failures", Json::Arr(failures)),
    ])
}

/// Builds the complete `recovery` report (bench `recovery`): one curve
/// per `(kind, family, n)` unit with re-cover medians over `k`, plus the
/// failed-cell ledger (`meta.failed_cells` / `meta.failures`) fed by the
/// panic-contained driver.
///
/// # Errors
///
/// Fails when the state cannot be persisted or holds malformed units.
pub fn recovery_report(
    scale: Scale,
    threads: usize,
    state: &mut CampaignState,
) -> Result<Json, String> {
    let ns = recovery_ns(scale);
    let seed_count = recovery_seed_count(scale);
    let mut curves: Vec<Json> = Vec::new();
    let mut failures: Vec<Json> = Vec::new();
    let mut cells = 0u64;
    for kind in recovery_kinds() {
        for family in recovery_families() {
            for &n in ns {
                let key = format!("{}/{}/n{n}", kind.label(), family.label());
                let unit = state.unit(&key, || {
                    run_recovery_unit(kind, family, n, seed_count, threads)
                })?;
                curves.extend(unit_curves(&unit)?);
                cells += unit.get("cells").and_then(Json::as_u64).unwrap_or(0);
                if let Some(unit_failures) = unit.get("failures").and_then(Json::as_arr) {
                    failures.extend(unit_failures.iter().cloned());
                }
            }
        }
    }
    let meta = Json::obj([
        (
            "ns",
            Json::Arr(ns.iter().map(|&n| Json::Int(n as u64)).collect()),
        ),
        ("seed_count", Json::Int(seed_count as u64)),
        (
            "kinds",
            Json::Arr(
                recovery_kinds()
                    .iter()
                    .map(|k| Json::Str(k.label().into()))
                    .collect(),
            ),
        ),
        (
            "families",
            Json::Arr(
                recovery_families()
                    .iter()
                    .map(|f| Json::Str(f.label()))
                    .collect(),
            ),
        ),
        ("placement", Json::Str("random".into())),
        (
            "ks_rule",
            Json::Str("1,4,16,n/16 (deduplicated, capped at n/16)".into()),
        ),
        ("cells", Json::Int(cells)),
        ("failed_cells", Json::Int(failures.len() as u64)),
        ("failures", Json::Arr(failures)),
    ]);
    Ok(report_json("recovery", threads, meta, curves))
}

// ---------------------------------------------------------------------------
// torus-seg
// ---------------------------------------------------------------------------

/// Torus shapes the segmented-torus campaign sweeps, per scale; the
/// non-square shapes keep `rows mod P ≠ 0` partitions in the canary.
fn torus_shapes(scale: Scale) -> &'static [(usize, usize)] {
    match scale {
        Scale::Full => &[(64, 64), (96, 48)],
        Scale::Smoke => &[(8, 8), (12, 8)],
        Scale::Test => &[(4, 4), (6, 4)],
    }
}

fn torus_seg_seed_count(scale: Scale) -> usize {
    match scale {
        // Bumped 3 → 16 alongside the family-speedup seed axis so the
        // torus canary's medians carry the same statistical weight.
        Scale::Full => 16,
        Scale::Smoke => 2,
        Scale::Test => 1,
    }
}

const TORUS_SEG_BASE_SEED: u64 = 0x70B5;

/// Runs one shape unit of the segmented-torus campaign: the
/// deterministic worst-case column (all agents on one node, pointers
/// toward them) and a seeded random column, both measured on the
/// row-banded backend over the shared `k` ladder.
fn run_torus_seg_unit(rows: usize, cols: usize, scale: Scale, threads: usize) -> Json {
    let n = rows * cols;
    let ks = ks_for(n);
    let mut curves = Vec::new();
    let columns = [
        (
            "worst",
            PlacementSpec::AllOnOne,
            InitSpec::TowardNearestAgent,
            false,
        ),
        ("random", PlacementSpec::Random, InitSpec::Random, true),
    ];
    for (name, placement, init, seeded) in columns {
        let seed_count = if seeded {
            torus_seg_seed_count(scale)
        } else {
            1
        };
        let grid = ScenarioGrid {
            families: vec![GraphFamily::Torus { rows, cols }],
            ns: vec![n],
            ks: ks.clone(),
            seed_count,
            base_seed: TORUS_SEG_BASE_SEED,
            placement,
            init,
        };
        let scenarios = grid.scenarios();
        // The row-banded backend is bit-identical to the serial engine
        // at every ROTOR_SEGMENTS (pinned by the equivalence property
        // tests), so the drift job can diff this report across
        // partition counts — the torus analogue of the ring canary.
        let samples: Vec<CoverSample> = run_sharded(&scenarios, threads, |_, sc| {
            run_scenario(sc, ProcessKind::TorusSegmented, u64::MAX)
        });
        let mut curve = Curve::new(format!("{name}/{rows}x{cols}"))
            .meta("process", Json::Str("rotor".into()))
            .meta("rows", Json::Int(rows as u64))
            .meta("cols", Json::Int(cols as u64))
            .meta("n", Json::Int(n as u64))
            .meta("seed_count", Json::Int(seed_count as u64))
            .meta("backend", Json::Str(samples[0].backend.into()));
        for (ki, &k) in ks.iter().enumerate() {
            let range = grid.point_range(0, 0, ki);
            let mut covers: Vec<u64> = samples[range]
                .iter()
                .map(|s| s.cover.expect("rotor-router always covers"))
                .collect();
            let m = median(&mut covers).expect("non-empty point");
            if seeded {
                curve.points.push(Point::new(
                    k as u64,
                    [
                        ("covered", Json::Int(covers.len() as u64)),
                        ("median_cover", Json::Int(m)),
                    ],
                ));
            } else {
                curve
                    .points
                    .push(Point::new(k as u64, [("cover", Json::Int(m))]));
            }
        }
        curves.push(curve.to_json());
    }
    Json::obj([("curves", Json::Arr(curves))])
}

/// Builds the `torus-seg` report (bench `torus_seg`): per-shape
/// worst-case and random cover curves, every cell measured on
/// [`ProcessKind::TorusSegmented`].
///
/// # Errors
///
/// Fails when the state cannot be persisted or holds malformed units.
pub fn torus_seg_report(
    scale: Scale,
    threads: usize,
    state: &mut CampaignState,
) -> Result<Json, String> {
    let shapes = torus_shapes(scale);
    let mut curves: Vec<Json> = Vec::new();
    for &(rows, cols) in shapes {
        let key = format!("{rows}x{cols}");
        let unit = state.unit(&key, || run_torus_seg_unit(rows, cols, scale, threads))?;
        curves.extend(unit_curves(&unit)?);
    }
    let meta = Json::obj([
        (
            "shapes",
            Json::Arr(
                shapes
                    .iter()
                    .map(|&(r, c)| Json::Str(format!("{r}x{c}")))
                    .collect(),
            ),
        ),
        ("seed_count", Json::Int(torus_seg_seed_count(scale) as u64)),
    ]);
    Ok(report_json("torus_seg", threads, meta, curves))
}

fn report_json(bench: &str, threads: usize, meta: Json, curves: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("bench".into(), Json::Str(bench.into())),
        ("threads".into(), Json::Int(threads as u64)),
        ("meta".into(), meta),
        ("curves".into(), Json::Arr(curves)),
    ])
}

/// Dispatches a campaign name to its report builder.
///
/// # Errors
///
/// Fails for unknown names and on any unit/state error.
pub fn build_report(
    campaign: &str,
    scale: Scale,
    threads: usize,
    state: &mut CampaignState,
) -> Result<Json, String> {
    match campaign {
        FAMILY_SPEEDUP => family_speedup_report(scale, threads, state),
        RING_LARGE_N => ring_large_n_report(scale, threads, state),
        RECOVERY => recovery_report(scale, threads, state),
        TORUS_SEG => torus_seg_report(scale, threads, state),
        other => Err(format!(
            "unknown campaign {other:?} (defined: {})",
            NAMES.join(", ")
        )),
    }
}

/// Repository root (two levels above this crate's manifest) — where the
/// canonical `BENCH_*.json` reports and the default state files live.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// The default state-file path of a `(campaign, scale)` pass, under
/// `target/campaign/` so it never pollutes the working tree.
pub fn default_state_path(campaign: &str, scale: Scale) -> PathBuf {
    repo_root()
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
/// validator: a campaign must never write a report CI would reject.
pub fn run(
    campaign: &str,
    scale: Scale,
    threads: usize,
    out: Option<PathBuf>,
    state_path: Option<PathBuf>,
    fresh: bool,
) -> Result<RunSummary, String> {
    let bench = bench_name(campaign).ok_or_else(|| {
        format!(
            "unknown campaign {campaign:?} (defined: {})",
            NAMES.join(", ")
        )
    })?;
    let state_path = state_path.unwrap_or_else(|| default_state_path(campaign, scale));
    let mut state = CampaignState::load(state_path, campaign, scale, fresh)?;
    let report = build_report(campaign, scale, threads, &mut state)?;
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
        None => write_summary(bench, &report),
    };
    Ok(RunSummary {
        out: out_path,
        computed: state.computed,
        resumed: state.resumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ks_rule_matches_the_issue() {
        assert_eq!(ks_for(32), vec![1, 2]);
        assert_eq!(ks_for(64), vec![1, 4]);
        assert_eq!(ks_for(256), vec![1, 4, 16]);
        assert_eq!(ks_for(1024), vec![1, 4, 16, 64]);
        assert_eq!(ks_for(4096), vec![1, 4, 16, 256]);
    }

    #[test]
    fn family_speedup_test_scale_passes_its_own_validator() {
        let mut state = CampaignState::ephemeral(FAMILY_SPEEDUP, Scale::Test);
        let report = family_speedup_report(Scale::Test, 2, &mut state).expect("report builds");
        let errors = validate::validate(&report, &validate::Options::default());
        assert_eq!(errors, Vec::<String>::new());
        // paired columns: every family appears as both rotor and walk
        let curves = report.get("curves").and_then(Json::as_arr).unwrap();
        assert_eq!(
            curves.len(),
            6 * 2 * 2,
            "6 families × 2 sizes × 2 processes"
        );
        // the ring rotor curves record the fast-path backend, others the
        // general engine
        for curve in curves {
            let meta = curve.get("meta").unwrap();
            if meta.get("process").and_then(Json::as_str) != Some("rotor") {
                continue;
            }
            let family = meta.get("family").and_then(Json::as_str).unwrap();
            let backend = meta.get("backend").and_then(Json::as_str).unwrap();
            if family == "ring" {
                assert_eq!(backend, "rotor_ring");
            } else {
                assert_eq!(backend, "rotor_general");
            }
        }
    }

    #[test]
    fn torus_seg_test_scale_passes_its_own_validator() {
        let mut state = CampaignState::ephemeral(TORUS_SEG, Scale::Test);
        let report = torus_seg_report(Scale::Test, 2, &mut state).expect("report builds");
        let errors = validate::validate(&report, &validate::Options::default());
        assert_eq!(errors, Vec::<String>::new());
        let curves = report.get("curves").and_then(Json::as_arr).unwrap();
        // worst + random columns at two shapes
        assert_eq!(curves.len(), 2 * 2);
        for curve in curves {
            let backend = curve
                .get("meta")
                .and_then(|m| m.get("backend"))
                .and_then(Json::as_str);
            assert_eq!(backend, Some("rotor_torus_seg"));
        }
    }

    #[test]
    fn ring_large_n_test_scale_passes_its_own_validator() {
        let mut state = CampaignState::ephemeral(RING_LARGE_N, Scale::Test);
        let report = ring_large_n_report(Scale::Test, 2, &mut state).expect("report builds");
        let errors = validate::validate(&report, &validate::Options::default());
        assert_eq!(errors, Vec::<String>::new());
        let curves = report.get("curves").and_then(Json::as_arr).unwrap();
        // worst + best + rotor/random + walk/random, at two sizes
        assert_eq!(curves.len(), 4 * 2);
    }

    #[test]
    fn state_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("rotor-campaign-test-{}", std::process::id()));
        let path = dir.join("state.json");
        let _ = std::fs::remove_file(&path);

        let mut first = CampaignState::load(path.clone(), FAMILY_SPEEDUP, Scale::Test, false)
            .expect("fresh state");
        let a = family_speedup_report(Scale::Test, 2, &mut first).expect("first pass");
        assert_eq!(first.resumed, 0);
        assert_eq!(first.computed, 6 * 2);

        // A second pass over the same state answers every unit from disk
        // and reassembles the identical report.
        let mut second = CampaignState::load(path.clone(), FAMILY_SPEEDUP, Scale::Test, false)
            .expect("reload state");
        let b = family_speedup_report(Scale::Test, 2, &mut second).expect("resumed pass");
        assert_eq!(second.computed, 0);
        assert_eq!(second.resumed, 6 * 2);
        // Same determinism contract CI enforces between thread counts:
        // every field agrees except the wall-clock-derived ones (the
        // domain-sampler speedup is re-measured at each assembly).
        assert_eq!(crate::compare::compare(&a, &b), Vec::<String>::new());

        // --fresh discards the stored units.
        let mut fresh = CampaignState::load(path.clone(), FAMILY_SPEEDUP, Scale::Test, true)
            .expect("fresh reload");
        assert!(fresh.unit("probe", || Json::Null).is_ok());
        assert_eq!(fresh.computed, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_test_scale_passes_its_own_validator() {
        let mut state = CampaignState::ephemeral(RECOVERY, Scale::Test);
        let report = recovery_report(Scale::Test, 2, &mut state).expect("report builds");
        let errors = validate::validate(&report, &validate::Options::default());
        assert_eq!(errors, Vec::<String>::new());
        let curves = report.get("curves").and_then(Json::as_arr).unwrap();
        assert_eq!(curves.len(), 4 * 3 * 2, "4 kinds × 3 families × 2 sizes");
        let meta = report.get("meta").unwrap();
        assert_eq!(meta.get("failed_cells").and_then(Json::as_u64), Some(0));
        for curve in curves {
            let kind = curve
                .get("meta")
                .and_then(|m| m.get("kind"))
                .and_then(Json::as_str)
                .unwrap();
            for point in curve.get("points").and_then(Json::as_arr).unwrap() {
                let recovered = point.get("recovered").and_then(Json::as_u64).unwrap();
                let attempts = point.get("attempts").and_then(Json::as_u64).unwrap();
                assert!(
                    attempts >= 1 && recovered == attempts,
                    "{kind}: all cells recover at test scale"
                );
                let k = point.get("x").and_then(Json::as_u64).unwrap();
                let relocked = point.get("relocked").and_then(Json::as_u64).unwrap();
                if k == 1 {
                    assert_eq!(relocked, attempts, "k = 1 cells carry the lock-in probe");
                } else {
                    assert_eq!(relocked, 0, "k > 1 cells skip the probe");
                    assert!(point.get("median_relock").is_some_and(Json::is_null));
                }
            }
        }
    }

    #[test]
    fn recovery_state_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("rotor-recovery-test-{}", std::process::id()));
        let path = dir.join("state.json");
        let _ = std::fs::remove_file(&path);

        let mut first =
            CampaignState::load(path.clone(), RECOVERY, Scale::Test, false).expect("fresh state");
        let a = recovery_report(Scale::Test, 2, &mut first).expect("first pass");
        assert_eq!((first.resumed, first.computed), (0, 4 * 3 * 2));

        let mut second =
            CampaignState::load(path.clone(), RECOVERY, Scale::Test, false).expect("reload");
        let b = recovery_report(Scale::Test, 1, &mut second).expect("resumed pass");
        assert_eq!((second.resumed, second.computed), (4 * 3 * 2, 0));
        assert_eq!(crate::compare::compare(&a, &b), Vec::<String>::new());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_state_file_falls_back_to_fresh() {
        let dir = std::env::temp_dir().join(format!("rotor-campaign-bad-{}", std::process::id()));
        let path = dir.join("state.json");
        let mut s = CampaignState::load(path.clone(), FAMILY_SPEEDUP, Scale::Test, false).unwrap();
        s.unit("u", || Json::Int(7)).unwrap();

        // A pass killed mid-persist leaves a JSON prefix: loading it must
        // warn and start fresh, not abort the campaign.
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        let mut half = CampaignState::load(path.clone(), FAMILY_SPEEDUP, Scale::Test, false)
            .expect("truncated state is recoverable");
        assert_eq!(half.resumed, 0, "no unit survives a truncated file");
        let recomputed = half.unit("u", || Json::Int(8)).unwrap();
        assert_eq!(recomputed.as_u64(), Some(8));
        assert_eq!(half.computed, 1, "unit recomputed, file rewritten");
        // and the rewritten file round-trips again
        let again = CampaignState::load(path.clone(), FAMILY_SPEEDUP, Scale::Test, false).unwrap();
        assert_eq!(again.units.len(), 1);

        // Outright garbage and unit-less JSON take the same fallback.
        std::fs::write(&path, "{ not json at all").unwrap();
        assert!(CampaignState::load(path.clone(), FAMILY_SPEEDUP, Scale::Test, false).is_ok());
        std::fs::write(
            &path,
            format!(
                "{{\"schema\": \"{STATE_SCHEMA}\", \"campaign\": \"{FAMILY_SPEEDUP}\", \
                 \"scale\": \"test\"}}\n"
            ),
        )
        .unwrap();
        let no_units =
            CampaignState::load(path.clone(), FAMILY_SPEEDUP, Scale::Test, false).unwrap();
        assert!(no_units.units.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_refuses_mismatched_headers() {
        let dir = std::env::temp_dir().join(format!("rotor-campaign-hdr-{}", std::process::id()));
        let path = dir.join("state.json");
        let mut s = CampaignState::load(path.clone(), FAMILY_SPEEDUP, Scale::Test, false).unwrap();
        s.unit("u", || Json::Int(1)).unwrap();
        // same file, different campaign or scale: refused
        let other = CampaignState::load(path.clone(), RING_LARGE_N, Scale::Test, false);
        assert!(other.unwrap_err().contains("campaign"));
        let other = CampaignState::load(path.clone(), FAMILY_SPEEDUP, Scale::Smoke, false);
        assert!(other.unwrap_err().contains("scale"));
        // --fresh overrides the mismatch
        assert!(CampaignState::load(path.clone(), RING_LARGE_N, Scale::Test, true).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_campaign_is_an_error() {
        let mut state = CampaignState::ephemeral("nope", Scale::Test);
        assert!(build_report("nope", Scale::Test, 1, &mut state)
            .unwrap_err()
            .contains("unknown campaign"));
        assert_eq!(bench_name("nope"), None);
        assert_eq!(bench_name(FAMILY_SPEEDUP), Some("general_graphs"));
    }
}
