//! Round throughput of the general-graph engine on the standard workloads
//! (grid, hypercube, random regular) — the binding constraint on every
//! sweep in this repository — plus the ring fast path against the general
//! engine on the same ring cells.
//!
//! Writes `BENCH_engine_throughput.json` (schema `rotor-experiment/1`)
//! with rounds/sec per workload (x = node count) and, for the ring cells,
//! `RingRouter` and `Engine` rounds/sec per agent count (x = k). The
//! validator requires the ring curve to exist, to sweep k ∈ {1, 16, 8192},
//! and the ring fast path to be at least as fast as `Engine` at every k.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rotor_bench::report::{Curve, ExperimentReport, Json, Point};
use rotor_core::init::PointerInit;
use rotor_core::placement::Placement;
use rotor_core::{Engine, RingRouter};
use rotor_graph::{builders, NodeId, PortGraph};
use std::time::Instant;

/// Agents per workload: enough to keep a meaningful occupied set alive.
const AGENTS: u32 = 64;

/// Agent counts of the ring-vs-general curve (x axis), each with the
/// rounds timed per repetition: enough for a few milliseconds per timing.
const RING_CELLS: [(usize, u64); 3] = [(1, 1 << 20), (16, 1 << 18), (8192, 4096)];

fn workloads() -> Vec<(&'static str, PortGraph)> {
    vec![
        ("grid_64x64", builders::grid(64, 64)),
        ("hypercube_10", builders::hypercube(10)),
        (
            "random_regular_1024_4",
            builders::random_regular(1024, 4, 1),
        ),
    ]
}

fn spread_agents(g: &PortGraph, k: u32) -> Vec<NodeId> {
    let n = g.node_count() as u32;
    (0..k).map(|i| NodeId::new(i * n / k)).collect()
}

/// Rounds/sec over a timed run of `rounds` rounds (after a warm-up).
fn measure_rounds_per_sec(g: &PortGraph, rounds: u64) -> f64 {
    let agents = spread_agents(g, AGENTS);
    let mut e = Engine::new(g, &agents, &PointerInit::Random(7));
    e.run(rounds / 10 + 1); // warm-up: caches, occupied list steady state

    // lint: allow(wall-clock) -- rounds/sec is the measured quantity of this bench, never a deterministic column
    let start = Instant::now();
    e.run(rounds);
    rounds as f64 / start.elapsed().as_secs_f64()
}

/// Rounds/sec of `RingRouter` and of `Engine` on the same ring cell (all
/// agents on one node, pointers toward it — Theorem 1's initialisation),
/// one pair per entry of `cells`. Every engine is measured `reps` times in
/// a round-robin over the cells and the best repetition is kept, so
/// transient machine interference cannot skew the ring-vs-general
/// comparison the validator gates on. Both engines of a cell start from
/// the same configuration and step in lockstep, so each repetition times
/// the same rounds on both.
fn measure_ring_vs_general(n: usize, cells: &[(usize, u64)], reps: usize) -> Vec<(f64, f64)> {
    let g = builders::ring(n);
    let mut engines: Vec<(RingRouter, Engine)> = cells
        .iter()
        .map(|&(k, rounds)| {
            let starts = Placement::AllOnOne(0).positions(n, k);
            let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
            let ids: Vec<NodeId> = starts.iter().map(|&s| NodeId::new(s)).collect();
            let ptrs = dirs.iter().map(|&d| u32::from(d)).collect();
            let mut ring = RingRouter::new(n, &starts, &dirs);
            let mut general = Engine::with_pointers(&g, &ids, ptrs);
            // warm-up: spread the occupied band
            ring.run(rounds / 2 + 1);
            general.run(rounds / 2 + 1);
            (ring, general)
        })
        .collect();
    let mut best = vec![(0f64, 0f64); cells.len()];
    for _ in 0..reps {
        for ((b, (ring, general)), &(_, rounds)) in best.iter_mut().zip(&mut engines).zip(cells) {
            b.0 = b.0.max(timed_rounds_per_sec(rounds, |r| ring.run(r)));
            b.1 = b.1.max(timed_rounds_per_sec(rounds, |r| general.run(r)));
        }
    }
    best
}

/// Rounds/sec of one `run(rounds)` call.
fn timed_rounds_per_sec(rounds: u64, run: impl FnOnce(u64)) -> f64 {
    // lint: allow(wall-clock) -- best-of-reps ring-vs-general timing, a measured quantity
    let start = Instant::now();
    run(rounds);
    rounds as f64 / start.elapsed().as_secs_f64()
}

fn bench(c: &mut Criterion) {
    let rounds: u64 = if c.is_test_mode() { 64 } else { 4096 };

    // Machine-readable summary for cross-PR trajectory tracking.
    let mut report = ExperimentReport::new("engine_throughput", 1)
        .meta("agents", Json::Int(u64::from(AGENTS)))
        .meta("rounds", Json::Int(rounds));
    let mut curve = Curve::new("rounds_per_sec");
    for (name, g) in workloads() {
        let rps = measure_rounds_per_sec(&g, rounds);
        curve.points.push(Point::new(
            g.node_count() as u64,
            [
                ("graph", Json::Str(name.into())),
                ("edges", Json::Int(g.edge_count() as u64)),
                ("rounds_per_sec", Json::Num(rps)),
            ],
        ));
    }
    report.curves.push(curve);

    // The ring fast path against the general engine on worst-case ring
    // cells: x = k. Test mode keeps the k ladder on a small ring.
    let (ring_n, ring_reps, scale) = if c.is_test_mode() {
        (4096, 1, 1 << 10)
    } else {
        (1 << 21, 5, 1)
    };
    let cells: Vec<(usize, u64)> = RING_CELLS
        .iter()
        .map(|&(k, rounds)| (k, (rounds / scale).max(64)))
        .collect();
    let mut ring_curve = Curve::new("ring_vs_general_rounds_per_sec")
        .meta("n", Json::Int(ring_n as u64))
        .meta("placement", Json::Str("all_on_one".into()))
        .meta("init", Json::Str("toward_nearest_agent".into()))
        .meta("reps", Json::Int(ring_reps as u64));
    let measured = measure_ring_vs_general(ring_n, &cells, ring_reps);
    for (&(k, rounds), (ring, general)) in cells.iter().zip(measured) {
        ring_curve.points.push(Point::new(
            k as u64,
            [
                ("k", Json::Int(k as u64)),
                ("rounds", Json::Int(rounds)),
                ("rounds_per_sec", Json::Num(ring)),
                ("general_rounds_per_sec", Json::Num(general)),
                ("ring_over_general", Json::Num(ring / general)),
            ],
        ));
    }
    report.curves.push(ring_curve);

    if c.is_test_mode() {
        println!("test mode: BENCH_engine_throughput.json left untouched");
    } else {
        let path = report.write();
        println!("wrote {}", path.display());
    }

    // Interactive timing report.
    let mut group = c.benchmark_group("engine_throughput");
    group.throughput(Throughput::Elements(rounds));
    for (name, g) in workloads() {
        let agents = spread_agents(&g, AGENTS);
        let mut e = Engine::new(&g, &agents, &PointerInit::Random(7));
        group.bench_function(BenchmarkId::new("rounds", name), |b| {
            b.iter(|| e.run(rounds));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
