//! Return times of the limit behaviour (§4): Brent cycle probing over the
//! configuration sequence, reporting the transient tail `μ` and limit
//! period `λ` per scenario.
//!
//! Since the probes became observers
//! ([`rotor_core::limit::CycleProbe`] / `TailProbe` driven through
//! `run_probed`), the cells are ordinary [`Scenario`]s and the sweep runs
//! on *any* graph family — the ring curves of the paper's Theorem 6 next
//! to torus, hypercube and lollipop curves where the single-agent period
//! is the Eulerian `2|E|` of the lock-in theorem. Scenarios fan across
//! the sharded driver like every other experiment.
//!
//! Writes `BENCH_return_time.json` (schema `rotor-experiment/1`), one
//! curve per (family, n) with `k` on the x axis and `found` / `tail` /
//! `period` point fields. `ROTOR_SWEEP_SMOKE=1` shrinks the sweep to a
//! ring grid plus one non-ring (torus) grid and still writes the
//! canonical path so CI can validate the schema; `-- --test` runs the
//! tiny grids and writes nothing.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rotor_bench::report::{Curve, ExperimentReport, Json, Point};
use rotor_sweep::{
    run_scenario_cycle, run_sharded, thread_count, GraphFamily, InitSpec, PlacementSpec, Scenario,
};

const MAX_STEPS: u64 = 10_000_000;
const SMOKE_ENV: &str = "ROTOR_SWEEP_SMOKE";

/// One report curve: a family, its node count, and the agent counts swept
/// along the x axis.
struct CycleSweep {
    family: GraphFamily,
    n: usize,
    ks: Vec<usize>,
}

fn sweeps(test_mode: bool, smoke: bool) -> Vec<CycleSweep> {
    if test_mode || smoke {
        // Ring plus one non-ring family: the observer path must be
        // exercised off the ring even in the cheapest modes.
        vec![
            CycleSweep {
                family: GraphFamily::Ring,
                n: 16,
                ks: if smoke { vec![1, 2] } else { vec![1] },
            },
            CycleSweep {
                family: GraphFamily::Torus { rows: 4, cols: 4 },
                n: 16,
                ks: if smoke { vec![1, 2] } else { vec![1] },
            },
        ]
    } else {
        vec![
            CycleSweep {
                family: GraphFamily::Ring,
                n: 16,
                ks: vec![1, 2],
            },
            CycleSweep {
                family: GraphFamily::Ring,
                n: 64,
                ks: vec![1, 2, 4],
            },
            CycleSweep {
                family: GraphFamily::Ring,
                n: 256,
                ks: vec![1],
            },
            CycleSweep {
                family: GraphFamily::Torus { rows: 4, cols: 4 },
                n: 16,
                ks: vec![1, 2],
            },
            CycleSweep {
                family: GraphFamily::Hypercube { dim: 4 },
                n: 16,
                ks: vec![1, 2],
            },
            CycleSweep {
                family: GraphFamily::Lollipop { clique: 8, tail: 8 },
                n: 16,
                ks: vec![1, 2],
            },
        ]
    }
}

/// The scenario behind one (family, n, k) cell: the worst-case start of
/// the ring experiments (all agents on one node, pointers toward it),
/// which is deterministic, so the seed field is inert.
fn cell_scenario(family: GraphFamily, n: usize, k: usize) -> Scenario {
    Scenario {
        family,
        n,
        k,
        seed_index: 0,
        seed: 0,
        placement: PlacementSpec::AllOnOne,
        init: InitSpec::TowardNearestAgent,
    }
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::var(SMOKE_ENV).is_ok_and(|v| !v.is_empty() && v != "0");
    let sweeps = sweeps(c.is_test_mode(), smoke);
    let cells: Vec<Scenario> = sweeps
        .iter()
        .flat_map(|s| s.ks.iter().map(|&k| cell_scenario(s.family, s.n, k)))
        .collect();
    let threads = thread_count();
    let infos = run_sharded(&cells, threads, |_, sc| run_scenario_cycle(sc, MAX_STEPS));

    let mut report = ExperimentReport::new("return_time", threads as u64)
        .meta("max_steps", Json::Int(MAX_STEPS));
    let mut offset = 0;
    for sweep in &sweeps {
        let label = sweep.family.label();
        let mut curve = Curve::new(format!("brent/{label}/n{}", sweep.n))
            .meta("family", Json::Str(label))
            .meta("n", Json::Int(sweep.n as u64));
        for (&k, info) in sweep.ks.iter().zip(&infos[offset..]) {
            curve.points.push(Point::new(
                k as u64,
                [
                    ("found", Json::Bool(info.is_some())),
                    (
                        "tail",
                        info.map(|i| Json::Int(i.tail)).unwrap_or(Json::Null),
                    ),
                    (
                        "period",
                        info.map(|i| Json::Int(i.period)).unwrap_or(Json::Null),
                    ),
                ],
            ));
        }
        offset += sweep.ks.len();
        report.curves.push(curve);
    }
    if c.is_test_mode() {
        println!("test mode: BENCH_return_time.json left untouched");
    } else {
        let path = report.write();
        println!("wrote {}", path.display());
    }

    let mut group = c.benchmark_group("return_time");
    let ring = cell_scenario(GraphFamily::Ring, 64, 2);
    group.bench_function(BenchmarkId::new("brent_ring", "n64_k2"), |b| {
        b.iter(|| run_scenario_cycle(&ring, MAX_STEPS));
    });
    let torus = cell_scenario(GraphFamily::Torus { rows: 4, cols: 4 }, 16, 1);
    group.bench_function(BenchmarkId::new("brent_torus", "4x4_k1"), |b| {
        b.iter(|| run_scenario_cycle(&torus, MAX_STEPS));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
