//! `perfbench`: the end-to-end benchmark of the rotor-router workspace.
//!
//! One invocation takes a workload and a seed, builds that workload's
//! scenario grids, runs every cell through the sharded sweep driver for
//! the requested time, checks every output and prints one JSON result line.
//! It drives the program only through its model-level public surface
//! (scenario grids, the sharded driver, the per-scenario runners, graph
//! builders and diameter, the analysis statistics and report JSON), so
//! backend and execution-plan changes inside the program need no edit
//! here.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! See `README.md` beside this package for the workloads and metrics.

#![forbid(unsafe_code)]

mod plan;
mod sys;
mod trace;

use plan::{Cell, Expect, Job, Plan, Scale, Workload};
use rotor::rotor_analysis::report::Json;
use rotor::rotor_analysis::{bootstrap_median_band, fit_regime_scaled, median};
use rotor::rotor_core::domains::DomainSampler;
use rotor::rotor_core::rng::splitmix64;
use rotor::rotor_sweep::{
    run_scenario, run_scenario_cycle, run_scenario_observed, run_sharded_checked, CoverSample,
    ProcessKind,
};
use std::collections::{BTreeMap, BTreeSet};
use trace::{now_ns, TimedObserver, Tracer};

/// Sweep shards: a closed batch, every cell queued at start and this many
/// workers pulling from the queue.
const SHARDS: usize = 2;
/// Set-ups per run: at least the first number, and more while they add
/// up to less than `SETUP_TOTAL_NS`, up to the second number; `setup_s`
/// is their median.
const SETUP_REPS: (usize, usize) = (5, 1000);
const SETUP_TOTAL_NS: u64 = 2_000_000_000;
/// Fewest timed passes per mode, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// The rotor-vs-general cross-check reruns first-repetition ring cells up
/// to this size and this many agent moves on the general engine.
const CROSS_CHECK_MAX_N: usize = 4096;
const CROSS_CHECK_MAX_MOVES: u64 = 1 << 24;
/// Bootstrap settings of the per-point bands (the campaigns' values).
const BOOTSTRAP_RESAMPLES: usize = 300;
const BAND_CONFIDENCE: f64 = 0.95;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut opts: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        opts.insert(key.to_string(), value);
    }
    let take = |k: &str| opts.get(k).ok_or_else(|| format!("missing --{k}"));
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = Workload::parse(take("workload")?)
        .ok_or_else(|| format!("unknown workload; expected one of {names:?}"))?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    for key in opts.keys() {
        if !["workload", "seed", "seconds", "trace", "trace-out"].contains(&key.as_str()) {
            return Err(format!("unknown option --{key}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out: opts.get("trace-out").cloned(),
    })
}

/// What one cell produced.
#[derive(Clone, Copy, Debug, Default)]
struct Outcome {
    /// Cover round (cover jobs).
    cover: Option<u64>,
    /// Rounds simulated; `μ + λ` for limit probes.
    rounds: u64,
    /// `(μ, λ)` (limit probes).
    cycle: Option<(u64, u64)>,
    /// `CoverSample.nanos`: simulation only, observer calls included.
    sim_ns: u64,
    /// Time in the observer's sampling calls (traced runs).
    observe_ns: u64,
    /// Observer calls.
    observe_calls: u64,
    /// §2.2 samples taken, and the domain/border pair of the last one.
    samples: u64,
    last_sample: Option<(u32, u32)>,
    /// Cell span on the benchmark clock (traced runs).
    start: u64,
    end: u64,
    /// The engine the runner resolved.
    backend: &'static str,
}

fn from_sample(s: &CoverSample) -> Outcome {
    Outcome {
        cover: s.cover,
        rounds: s.rounds,
        sim_ns: s.nanos,
        backend: s.backend,
        ..Outcome::default()
    }
}

fn with_sampler(mut o: Outcome, sampler: &DomainSampler) -> Outcome {
    o.samples = sampler.samples.len() as u64;
    o.last_sample = sampler.samples.last().map(|s| (s.domains, s.borders));
    o
}

/// Runs one cell; `traced` adds the cell span and the timed observer.
fn run_cell(cell: &Cell, traced: bool) -> Outcome {
    let start = if traced { now_ns() } else { 0 };
    let mut o = match cell.job {
        Job::Cycle => {
            let info = run_scenario_cycle(&cell.sc, cell.budget);
            Outcome {
                rounds: info.map_or(0, |c| c.tail + c.period),
                cycle: info.map(|c| (c.tail, c.period)),
                ..Outcome::default()
            }
        }
        Job::Cover(ProcessKind::RandomWalk) => from_sample(&run_scenario(
            &cell.sc,
            ProcessKind::RandomWalk,
            cell.budget,
        )),
        Job::Cover(kind) => {
            let sampler = DomainSampler::every(cell.stride);
            if traced {
                let mut timed = TimedObserver::new(sampler, cell.stride);
                let s = run_scenario_observed(&cell.sc, kind, cell.budget, &mut timed);
                Outcome {
                    observe_ns: timed.nanos,
                    observe_calls: timed.calls,
                    ..with_sampler(from_sample(&s), &timed.inner)
                }
            } else {
                let mut sampler = sampler;
                let s = run_scenario_observed(&cell.sc, kind, cell.budget, &mut sampler);
                with_sampler(from_sample(&s), &sampler)
            }
        }
    };
    if traced {
        o.start = start;
        o.end = now_ns();
    }
    o
}

/// The output checks of one cell: it ran, covered (or certified a cycle)
/// within its budget, and matches the paper's closed form where one
/// exists. Rotor budgets are `4·2·D·|E|`, so a rotor cover within budget
/// is a cover within that bound.
fn check(cell: &Cell, result: &Result<Outcome, String>) -> Result<(), String> {
    let o = result.as_ref().map_err(|e| format!("panicked: {e}"))?;
    match cell.job {
        Job::Cover(kind) => {
            let cover = o.cover.ok_or("no cover within the round budget")?;
            if o.rounds != cover {
                return Err(format!("ran {} rounds past cover {cover}", o.rounds));
            }
            if kind != ProcessKind::RandomWalk && o.last_sample != Some((1, 0)) {
                return Err(format!(
                    "last §2.2 sample {:?}, want one domain",
                    o.last_sample
                ));
            }
        }
        Job::Cycle => {
            o.cycle
                .ok_or("no limit cycle certified within the budget")?;
        }
    }
    match cell.expect {
        Some(Expect::Cover(want)) if o.cover != Some(want) => {
            Err(format!("cover {:?}, the closed form says {want}", o.cover))
        }
        Some(Expect::Period(want)) if o.cycle.map(|c| c.1) != Some(want) => Err(format!(
            "period {:?}, want 2|E| = {want}",
            o.cycle.map(|c| c.1)
        )),
        _ => Ok(()),
    }
}

/// The deterministic counts of a pass: identical across passes, runs and
/// shard counts, so `moves_per_s` always has the same numerator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Digest {
    cells: u64,
    moves: u64,
    covers: u64,
    samples: u64,
    cycles: u64,
}

fn digest(plan: &Plan, results: &[Result<Outcome, String>]) -> Digest {
    let mut d = Digest {
        cells: results.len() as u64,
        ..Digest::default()
    };
    for (cell, r) in plan.cells.iter().zip(results) {
        let Ok(o) = r else { continue };
        d.moves += cell.sc.k as u64 * o.rounds;
        d.covers += o.cover.unwrap_or(0);
        d.samples += o.samples;
        if let Some((mu, lambda)) = o.cycle {
            d.cycles = splitmix64(d.cycles ^ splitmix64(mu) ^ lambda.rotate_left(32));
        }
    }
    d
}

/// The per-point analysis of one pass: medians, bootstrap bands, regime
/// fits, and the result document rendered and parsed back. Returns
/// whether the document round-trips.
fn analyse(plan: &Plan, results: &[Result<Outcome, String>], tr: &mut Tracer) -> bool {
    let value = |c: usize| match &results[c] {
        Ok(o) => o.cover.or(o.cycle.map(|(mu, lambda)| mu + lambda)),
        Err(_) => None,
    };
    let values: Vec<Vec<u64>> = plan
        .points
        .iter()
        .map(|p| p.cells.iter().filter_map(|&c| value(c)).collect())
        .collect();

    let span = tr.begin("analysis.median");
    let medians: Vec<Option<u64>> = values.iter().map(|v| median(&mut v.clone())).collect();
    tr.end(span);

    let span = tr.begin("analysis.bootstrap");
    let bands: Vec<_> = plan
        .points
        .iter()
        .zip(&values)
        .map(|(p, v)| {
            let seed = plan.cells[p.cells[0]].sc.seed;
            bootstrap_median_band(v, BOOTSTRAP_RESAMPLES, BAND_CONFIDENCE, seed)
        })
        .collect();
    tr.end(span);

    let span = tr.begin("analysis.fit");
    let fits: Vec<_> = (0..plan.curves.len())
        .map(|curve| {
            let scaled: Vec<(u64, f64)> = plan
                .points
                .iter()
                .zip(&medians)
                .filter(|(p, _)| p.curve == curve)
                .filter_map(|(p, m)| {
                    let bound = plan.cells[p.cells[0]].bound as f64;
                    m.map(|m| (p.k as u64, m as f64 / bound))
                })
                .collect();
            fit_regime_scaled(&scaled)
        })
        .collect();
    tr.end(span);

    let span = tr.begin("analysis.report");
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::Int);
    let curves = plan
        .curves
        .iter()
        .zip(&fits)
        .enumerate()
        .map(|(ci, (label, fit))| {
            let points = plan
                .points
                .iter()
                .enumerate()
                .filter(|(_, p)| p.curve == ci)
                .map(|(pi, p)| {
                    Json::obj([
                        ("k", Json::Int(p.k as u64)),
                        ("median", opt(medians[pi])),
                        ("band_lo", opt(bands[pi].map(|b| b.lo))),
                        ("band_hi", opt(bands[pi].map(|b| b.hi))),
                    ])
                })
                .collect();
            Json::obj([
                ("label", Json::Str(label.clone())),
                (
                    "regime",
                    fit.map_or(Json::Null, |f| Json::Str(format!("{:?}", f.regime))),
                ),
                (
                    "exponent",
                    fit.map_or(Json::Null, |f| Json::Num(f.exponent)),
                ),
                ("points", Json::Arr(points)),
            ])
        })
        .collect();
    let text = Json::obj([("curves", Json::Arr(curves))]).render();
    let round_trips = Json::parse(&text).is_ok_and(|j| j.render() == text);
    tr.end(span);
    round_trips
}

/// One timed pass over every cell of the plan, then its checks.
struct Pass {
    traced: bool,
    wall_ns: u64,
    cpu_s: f64,
    digest: Digest,
    failed: u64,
    tracer: Tracer,
}

fn run_pass(plan: &Plan, traced: bool) -> (Pass, Vec<Result<Outcome, String>>) {
    let mut tr = Tracer::new(traced);
    let cpu0 = sys::cpu_seconds();
    let t0 = now_ns();
    let pass_span = tr.begin("pass");
    let sweep_span = tr.begin("sweep.run_sharded");
    let results = run_sharded_checked(&plan.cells, SHARDS, |_, cell| run_cell(cell, traced));
    tr.end(sweep_span);
    let report_ok = analyse(plan, &results, &mut tr);
    tr.end(pass_span);
    let wall_ns = now_ns() - t0;
    let cpu_s = sys::cpu_seconds() - cpu0;

    // Outside the timed phase: checks, and the cell spans measured on the
    // worker threads.
    let mut failed = u64::from(!report_ok);
    for (i, (cell, r)) in plan.cells.iter().zip(&results).enumerate() {
        if let Err(e) = check(cell, r) {
            failed += 1;
            eprintln!("perfbench: cell {i} ({:?}) failed: {e}", cell.sc);
        }
        if let Ok(o) = r {
            record_cell(&mut tr, sweep_span, i, cell, o);
        }
    }
    let pass = Pass {
        traced,
        wall_ns,
        cpu_s,
        digest: digest(plan, &results),
        failed,
        tracer: tr,
    };
    (pass, results)
}

/// Adds a traced cell's span and its children: the simulation
/// (`CoverSample.nanos`, placed at the end of the cell since the runner's
/// set-up precedes it) and, inside it, the observer's aggregated time.
fn record_cell(tr: &mut Tracer, sweep: Option<usize>, i: usize, cell: &Cell, o: &Outcome) {
    let Some(span) = tr.record("sweep.cell", o.start, o.end, sweep, Some(i)) else {
        return;
    };
    let k = cell.sc.k as u64;
    match cell.job {
        Job::Cycle => {
            tr.record("core.limit.probe", o.start, o.end, Some(span), Some(i));
            tr.count("core.limit.rounds", o.rounds);
        }
        Job::Cover(kind) => {
            let layer = if kind == ProcessKind::RandomWalk {
                tr.count("walks.cells", 1);
                tr.count("walks.covered", u64::from(o.cover.is_some()));
                "walks".to_string()
            } else {
                format!("core.{}", cell.sc.family.label())
            };
            let sim_start = o.end.saturating_sub(o.sim_ns).max(o.start);
            let sim = tr.record(
                &format!("{layer}.sim"),
                sim_start,
                o.end,
                Some(span),
                Some(i),
            );
            tr.count(format!("{layer}.moves"), k * o.rounds);
            if o.observe_calls > 0 {
                let obs_start = o.end.saturating_sub(o.observe_ns).max(sim_start);
                tr.record("core.observe", obs_start, o.end, sim, Some(i));
                tr.count("core.observe_calls", o.observe_calls);
                tr.count("core.samples", o.samples);
            }
        }
    }
}

/// Reruns a deterministic sample of ring rotor cells on the general
/// engine: cover and rounds must match the ring fast path. Returns
/// `(attempted, failed)`.
fn cross_check(plan: &Plan, reference: &[Result<Outcome, String>]) -> (u64, u64) {
    let sample: Vec<usize> = (0..plan.cells.len())
        .filter(|&i| {
            let c = &plan.cells[i];
            c.job == Job::Cover(ProcessKind::Rotor)
                && c.sc.family.is_ring()
                && c.sc.n <= CROSS_CHECK_MAX_N
                && c.sc.seed_index == 0
                && matches!(&reference[i], Ok(o) if c.sc.k as u64 * o.rounds <= CROSS_CHECK_MAX_MOVES)
        })
        .collect();
    let general = run_sharded_checked(&sample, SHARDS, |_, &i| {
        let c = &plan.cells[i];
        run_scenario(&c.sc, ProcessKind::RotorGeneral, c.budget)
    });
    let mut failed = 0;
    for (&i, g) in sample.iter().zip(&general) {
        let want = reference[i].as_ref().map(|o| (o.cover, o.rounds)).ok();
        let got = g.as_ref().map(|s| (s.cover, s.rounds)).ok();
        if got.is_none() || got != want {
            failed += 1;
            eprintln!("perfbench: cell {i}: general engine {got:?} != ring fast path {want:?}");
        }
    }
    (sample.len() as u64, failed)
}

/// The determinism self-test at tiny scale: the deterministic counts must
/// be identical across repeated runs and between 1 and 2 shards. Returns
/// `(attempted, failed)`.
fn self_test(w: Workload, seed: u64) -> (u64, u64) {
    let tiny = plan::setup(w, Scale::Tiny, seed, &mut Tracer::new(false));
    let run = |shards: usize| {
        let results = run_sharded_checked(&tiny.cells, shards, |_, c| run_cell(c, false));
        let failed = tiny
            .cells
            .iter()
            .zip(&results)
            .filter(|(c, r)| check(c, r).is_err())
            .count() as u64;
        (digest(&tiny, &results), failed)
    };
    let runs = [run(1), run(1), run(SHARDS)];
    let failed =
        runs.iter().map(|r| r.1).sum::<u64>() + u64::from(runs.iter().any(|r| r.0 != runs[0].0));
    if failed > 0 {
        eprintln!("perfbench: tiny-scale self-test failed: {runs:?}");
    }
    (3 * tiny.cells.len() as u64, failed)
}

/// Lower median.
fn median_f64(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metric name, value and unit.
type Metric = (String, f64, &'static str);

/// Means over a set of tracers (traced passes or set-ups) of each span
/// name's self time, in seconds, and of each counter.
struct Means {
    self_s: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
}

impl Means {
    fn of(tracers: &[&Tracer]) -> Means {
        let n = tracers.len().max(1) as f64;
        let mut m = Means {
            self_s: BTreeMap::new(),
            counts: BTreeMap::new(),
        };
        for t in tracers {
            for (name, ns) in t.self_times() {
                *m.self_s.entry(name).or_default() += ns as f64 / 1e9 / n;
            }
            for (name, c) in &t.counts {
                *m.counts.entry(name.clone()).or_default() += *c as f64 / n;
            }
        }
        m
    }

    fn secs(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Total duration of the spans named `name`, in nanoseconds.
fn span_total_ns(t: &Tracer, name: &str) -> u64 {
    t.spans
        .iter()
        .filter(|s| s.name == name)
        .map(trace::Span::nanos)
        .sum()
}

/// The per-layer metrics: means per traced pass and per set-up, the
/// thread-time accounting of the traced passes, and the tracing overhead
/// against the untraced passes of the same run. Layers idle in a workload
/// report 0.
fn layer_metrics(setups: &[Tracer], passes: &[Pass]) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let run = Means::of(&traced.iter().map(|p| &p.tracer).collect::<Vec<_>>());
    let set = Means::of(&setups.iter().collect::<Vec<_>>());

    // Thread-time accounting, per traced pass: `shards × wall` splits into
    // cell time (the layers' self times), idle time (shards outside a cell
    // during the sweep, every shard but the main thread during the
    // analysis), analysis time and an unattributed rest (the pass span's
    // own self time).
    let n = traced.len().max(1) as f64;
    let (mut wall, mut sweep, mut busy) = (0.0, 0.0, 0.0);
    let mut cell_ms: Vec<f64> = Vec::new();
    for p in &traced {
        wall += p.wall_ns as f64 / 1e9 / n;
        sweep += span_total_ns(&p.tracer, "sweep.run_sharded") as f64 / 1e9 / n;
        busy += span_total_ns(&p.tracer, "sweep.cell") as f64 / 1e9 / n;
        let cells = p.tracer.spans.iter().filter(|s| s.name == "sweep.cell");
        cell_ms.extend(cells.map(|s| s.nanos() as f64 / 1e6));
    }
    cell_ms.sort_by(f64::total_cmp);
    let shards = SHARDS as f64;
    let idle = shards * sweep - busy + (shards - 1.0) * (wall - sweep);
    let unattributed = run.secs("pass");
    let spans = traced.iter().map(|p| p.tracer.spans.len()).sum::<usize>() as f64 / n;
    let median_wall = |traced: bool| {
        let walls: Vec<f64> = passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall_ns as f64)
            .collect();
        median_f64(&walls)
    };

    let mut out: Vec<Metric> = vec![
        ("sweep.enumerate_s".into(), set.secs("sweep.enumerate"), "s"),
        ("sweep.prep_s".into(), run.secs("sweep.cell"), "s"),
        ("sweep.busy_s".into(), busy, "s"),
        ("sweep.idle_s".into(), idle, "s"),
        ("sweep.parallelism".into(), ratio(busy, sweep), "ratio"),
        ("sweep.cell_ms_p50".into(), percentile(&cell_ms, 0.5), "ms"),
        ("sweep.cell_ms_p90".into(), percentile(&cell_ms, 0.9), "ms"),
        ("sweep.cell_ms_max".into(), percentile(&cell_ms, 1.0), "ms"),
        ("sweep.cell_samples".into(), cell_ms.len() as f64, "count"),
        ("graph.build_s".into(), set.secs("graph.build"), "s"),
        ("graph.builds".into(), set.count("graph.builds"), "count"),
        ("graph.arcs".into(), set.count("graph.arcs"), "count"),
        ("graph.diameter_s".into(), set.secs("graph.diameter"), "s"),
        (
            "graph.diameters".into(),
            set.count("graph.diameters"),
            "count",
        ),
    ];
    for label in plan::rotor_family_labels() {
        let sim = run.secs(&format!("core.{label}.sim"));
        let moves = run.count(&format!("core.{label}.moves"));
        out.extend([
            (format!("core.{label}.sim_s"), sim, "s"),
            (format!("core.{label}.moves"), moves, "count"),
            (
                format!("core.{label}.ns_per_move"),
                ratio(sim * 1e9, moves),
                "ns",
            ),
        ]);
    }
    let (probe, limit_rounds) = (run.secs("core.limit.probe"), run.count("core.limit.rounds"));
    let (walk_sim, walk_moves) = (run.secs("walks.sim"), run.count("walks.moves"));
    out.extend([
        ("core.observe_s".into(), run.secs("core.observe"), "s"),
        (
            "core.observe_calls".into(),
            run.count("core.observe_calls"),
            "count",
        ),
        ("core.samples".into(), run.count("core.samples"), "count"),
        ("core.limit.probe_s".into(), probe, "s"),
        ("core.limit.rounds".into(), limit_rounds, "count"),
        (
            "core.limit.ns_per_round".into(),
            ratio(probe * 1e9, limit_rounds),
            "ns",
        ),
        ("walks.sim_s".into(), walk_sim, "s"),
        ("walks.moves".into(), walk_moves, "count"),
        (
            "walks.ns_per_move".into(),
            ratio(walk_sim * 1e9, walk_moves),
            "ns",
        ),
        (
            "walks.covered_frac".into(),
            ratio(run.count("walks.covered"), run.count("walks.cells")),
            "ratio",
        ),
        ("analysis.median_s".into(), run.secs("analysis.median"), "s"),
        (
            "analysis.bootstrap_s".into(),
            run.secs("analysis.bootstrap"),
            "s",
        ),
        ("analysis.fit_s".into(), run.secs("analysis.fit"), "s"),
        ("analysis.report_s".into(), run.secs("analysis.report"), "s"),
        (
            "trace.overhead".into(),
            ratio(median_wall(true), median_wall(false)) - 1.0,
            "ratio",
        ),
        ("trace.wall_s".into(), wall, "s"),
        ("trace.unattributed_s".into(), unattributed, "s"),
        (
            "trace.accounted_frac".into(),
            1.0 - ratio(unattributed, shards * wall),
            "ratio",
        ),
        ("trace.spans".into(), spans, "count"),
    ]);
    out
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str((*unit).into())),
                ]);
                (name.clone(), v)
            })
            .collect(),
    )
}

/// The set-up phase, repeated: returns the last plan, every set-up's
/// time and every set-up's tracer.
fn set_up(w: Workload, seed: u64) -> (Plan, Vec<u64>, Vec<Tracer>) {
    let mut times: Vec<u64> = Vec::new();
    let mut tracers = Vec::new();
    let mut plan = None;
    while times.len() < SETUP_REPS.0
        || (times.iter().sum::<u64>() < SETUP_TOTAL_NS && times.len() < SETUP_REPS.1)
    {
        drop(plan.take());
        let mut tr = Tracer::new(true);
        let t0 = now_ns();
        plan = Some(plan::setup(w, Scale::Full, seed, &mut tr));
        times.push(now_ns() - t0);
        tracers.push(tr);
    }
    (plan.expect("at least one set-up"), times, tracers)
}

/// The timed phase: passes until `seconds` have gone and each mode has
/// `MIN_PASSES`; traced runs alternate untraced and traced passes.
/// Returns the passes, the first pass's outcomes, and the cells attempted
/// and failed (a pass whose deterministic counts differ from the first
/// pass's counts as one more failure).
fn timed_passes(plan: &Plan, args: &Args) -> (Vec<Pass>, Vec<Result<Outcome, String>>, u64, u64) {
    let budget_ns = (args.seconds * 1e9) as u64;
    let t0 = now_ns();
    let mut passes: Vec<Pass> = Vec::new();
    let mut reference = None;
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let (pass, results) = run_pass(plan, traced);
        eprintln!(
            "perfbench: {} pass {}{}: wall {:.3} s, cpu {:.2} s",
            args.workload.name(),
            passes.len(),
            if traced { " (traced)" } else { "" },
            pass.wall_ns as f64 / 1e9,
            pass.cpu_s
        );
        attempted += plan.cells.len() as u64;
        failed += pass.failed;
        if let Some(first) = passes.first() {
            if pass.digest != first.digest {
                failed += 1;
                eprintln!(
                    "perfbench: pass digest {:?} != first pass {:?}",
                    pass.digest, first.digest
                );
            }
        }
        reference.get_or_insert(results);
        passes.push(pass);
        let untraced = passes.iter().filter(|p| !p.traced).count();
        let enough =
            untraced >= MIN_PASSES && (!args.trace || passes.len() - untraced >= MIN_PASSES);
        if enough && now_ns() - t0 >= budget_ns {
            break;
        }
    }
    (
        passes,
        reference.expect("at least one pass"),
        attempted,
        failed,
    )
}

/// The end-to-end metrics: medians over set-ups and untraced passes.
fn end_to_end_metrics(plan: &Plan, setup_ns: &[u64], passes: &[Pass]) -> Vec<Metric> {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let wall: Vec<f64> = untraced.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    let cpu: Vec<f64> = untraced.iter().map(|p| p.cpu_s).collect();
    let setup: Vec<f64> = setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    let wall_s = median_f64(&wall);
    vec![
        ("setup_s".into(), median_f64(&setup), "s"),
        ("wall_s".into(), wall_s, "s"),
        (
            "moves_per_s".into(),
            passes[0].digest.moves as f64 / wall_s,
            "moves/s",
        ),
        ("cpu_s".into(), median_f64(&cpu), "s"),
        ("peak_rss_mib".into(), sys::peak_rss_mib(), "MiB"),
        ("cells".into(), plan.cells.len() as f64, "count"),
    ]
}

/// Writes every set-up's and traced pass's spans as JSON lines.
fn write_spans(path: &str, setups: &[Tracer], passes: &[Pass]) -> std::io::Result<()> {
    let mut text = String::new();
    for (i, t) in setups.iter().enumerate() {
        t.to_json_lines(&format!("setup{i}"), &mut text);
    }
    for (i, p) in passes.iter().enumerate().filter(|(_, p)| p.traced) {
        p.tracer.to_json_lines(&format!("pass{i}"), &mut text);
    }
    std::fs::write(path, text)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (plan, setup_ns, setups) = set_up(args.workload, args.seed);
    let setup_peak_mib = sys::peak_rss_mib();
    let (passes, reference, mut attempted, mut failed) = timed_passes(&plan, &args);

    // Untimed checks: rotor vs general engine, and tiny-scale determinism.
    for (a, f) in [
        cross_check(&plan, &reference),
        self_test(args.workload, args.seed),
    ] {
        attempted += a;
        failed += f;
    }

    let metrics = if args.trace {
        layer_metrics(&setups, &passes)
    } else {
        end_to_end_metrics(&plan, &setup_ns, &passes)
    };
    if let (true, Some(path)) = (args.trace, &args.trace_out) {
        if let Err(e) = write_spans(path, &setups, &passes) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            failed += 1;
        }
    }

    let mut backends: BTreeMap<String, BTreeSet<&'static str>> = BTreeMap::new();
    for (cell, o) in plan.cells.iter().zip(&reference) {
        if let Some(o) = o.as_ref().ok().filter(|o| !o.backend.is_empty()) {
            backends
                .entry(cell.sc.family.label())
                .or_default()
                .insert(o.backend);
        }
    }
    let digest = passes[0].digest;
    let secs = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
    println!(
        "fingerprint {}",
        sys::fingerprint(SHARDS, &backends).render()
    );
    println!(
        "run {}",
        Json::obj([
            ("workload", Json::Str(args.workload.name().into())),
            ("seed", Json::Int(args.seed)),
            ("passes", Json::Int(passes.len() as u64)),
            ("cells", Json::Int(digest.cells)),
            ("moves", Json::Int(digest.moves)),
            ("cover_sum", Json::Int(digest.covers)),
            ("samples", Json::Int(digest.samples)),
            ("cycle_digest", Json::Int(digest.cycles)),
            ("setup_peak_rss_mib", Json::Num(setup_peak_mib)),
            (
                "setup_s",
                secs(setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect())
            ),
            (
                "pass_wall_s",
                secs(passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect())
            ),
        ])
        .render()
    );
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.render());
}
