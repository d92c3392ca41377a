//! The four workloads: which scenario grids each one enumerates, and the
//! set-up every timed pass shares (one graph build and one diameter per
//! distinct graph, the `2·D·|E|` bounds, budgets and exact expectations).

use crate::trace::Tracer;
use rotor::rotor_graph::algo;
use rotor::rotor_sweep::{
    GraphFamily, InitSpec, PlacementSpec, ProcessKind, Scenario, ScenarioGrid,
};
use std::collections::BTreeMap;

/// A named benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The paper's Table 1 regimes on the ring: random columns plus the
    /// worst-case column, cache-resident.
    RingSweep,
    /// Non-ring families with paired rotor and random-walk columns.
    FamilySweep,
    /// A few cells whose state does not fit in cache.
    GiantCover,
    /// §4 `(μ, λ)` limit-cycle probes.
    LimitProbe,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::RingSweep,
        Workload::FamilySweep,
        Workload::GiantCover,
        Workload::LimitProbe,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RingSweep => "ring-sweep",
            Workload::FamilySweep => "family-sweep",
            Workload::GiantCover => "giant-cover",
            Workload::LimitProbe => "limit-probe",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size for the timed passes, tiny for the determinism self-test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The measured grid.
    Full,
    /// The same shape at a size that runs in milliseconds.
    Tiny,
}

/// What one cell runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Job {
    /// Run to cover with this process (`run_scenario[_observed]`).
    Cover(ProcessKind),
    /// Probe the §4 limit cycle (`run_scenario_cycle`).
    Cycle,
}

/// A closed-form result a cell must reproduce exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// Exact cover round.
    Cover(u64),
    /// Exact limit-cycle period.
    Period(u64),
}

/// One unit of work handed to the sharded driver.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// The scenario the cell runs.
    pub sc: Scenario,
    /// What it runs on it.
    pub job: Job,
    /// Round budget (`max_rounds` or `max_steps`).
    pub budget: u64,
    /// §2.2 sampling stride for observed rotor cells.
    pub stride: u64,
    /// The graph's `2·D·|E|` lock-in bound.
    pub bound: u64,
    /// Exact expectation, when the paper gives one.
    pub expect: Option<Expect>,
}

/// One analysis point: the repetitions of one `(column, family, n, k, job)`.
pub struct Point {
    /// Index of the curve the point lies on.
    pub curve: usize,
    /// Agent count.
    pub k: usize,
    /// Cell indices of the repetitions.
    pub cells: Vec<usize>,
}

/// Everything the timed passes need, built once per set-up.
pub struct Plan {
    /// Cells in queue order.
    pub cells: Vec<Cell>,
    /// Analysis points.
    pub points: Vec<Point>,
    /// Curve labels (`column/job/family/n`).
    pub curves: Vec<String>,
}

/// One scenario grid and the jobs run on each of its scenarios.
struct Column {
    grid: ScenarioGrid,
    jobs: &'static [Job],
}

const ROTOR: &[Job] = &[Job::Cover(ProcessKind::Rotor)];
const PAIRED: &[Job] = &[
    Job::Cover(ProcessKind::Rotor),
    Job::Cover(ProcessKind::RandomWalk),
];
const CYCLE: &[Job] = &[Job::Cycle];

/// All-pairs BFS costs `n·(n + m)`: above this node count the set-up uses
/// the family's closed-form diameter instead (the giant-cover graphs), and
/// a ring is not built at all, since its runner steps without a graph.
const BFS_DIAMETER_MAX_NODES: usize = 1 << 13;

/// Limit probes get this many multiples of the `2·D·|E|` bound.
const CYCLE_BUDGET_BOUNDS: u64 = 16;

fn column(
    families: &[GraphFamily],
    ns: &[usize],
    ks: &[usize],
    seed_count: usize,
    placement: PlacementSpec,
    init: InitSpec,
    jobs: &'static [Job],
) -> Column {
    Column {
        grid: ScenarioGrid {
            families: families.to_vec(),
            ns: ns.to_vec(),
            ks: ks.to_vec(),
            seed_count,
            base_seed: 0,
            placement,
            init,
        },
        jobs,
    }
}

/// The `k` axis at ring size `n`: the given values up to `n/16`, past
/// which the paper's ring regimes degenerate.
fn ks_upto(n: usize, ks: &[usize]) -> Vec<usize> {
    ks.iter().copied().filter(|&k| k <= n / 16).collect()
}

/// The scenario grids of one workload. Grid `i` takes base seed
/// `seed + i`, so the benchmark seed moves every random placement.
fn columns(w: Workload, scale: Scale, seed: u64) -> Vec<Column> {
    use GraphFamily as F;
    use InitSpec::{Random as RandInit, TowardNearestAgent as Toward};
    use PlacementSpec::{AllOnOne, EquallySpaced, Random as RandPlace};
    let full = scale == Scale::Full;
    let mut out = Vec::new();
    match w {
        Workload::RingSweep => {
            let (ns, seeds): (&[usize], usize) = if full {
                (&[1024, 2048], 16)
            } else {
                (&[64, 256], 2)
            };
            for &n in ns {
                let ks = ks_upto(n, &[1, 4, 16, 64, 256]);
                out.push(column(
                    &[F::Ring],
                    &[n],
                    &ks,
                    seeds,
                    RandPlace,
                    RandInit,
                    ROTOR,
                ));
                out.push(column(&[F::Ring], &[n], &ks, 1, AllOnOne, Toward, ROTOR));
            }
        }
        Workload::FamilySweep => {
            let (n, side, dim, seeds) = if full {
                (4096, 64, 12, 10)
            } else {
                (64, 8, 6, 2)
            };
            let families = [
                F::Torus {
                    rows: side,
                    cols: side,
                },
                F::Hypercube { dim },
                F::BinaryTree,
                F::Star,
            ];
            let ks: &[usize] = if full { &[1, 16, 256] } else { &[1, 4] };
            out.push(column(
                &families,
                &[n],
                ks,
                seeds,
                RandPlace,
                RandInit,
                PAIRED,
            ));
            // Two families at n/4, because at full n their cost would follow
            // the seed: path k = 1 cells cover in ~n² rounds and a single
            // walker's cover time is heavy-tailed; every random-regular cell
            // draws a fresh graph by configuration-model restarts, whose
            // count is geometric (~40 at degree 4).
            out.push(column(
                &[F::RandomRegular { degree: 4 }, F::Path],
                &[n / 4],
                ks,
                seeds,
                RandPlace,
                RandInit,
                PAIRED,
            ));
        }
        Workload::GiantCover => {
            let (ring_n, ring_k, side, torus_k) = if full {
                (1 << 22, 1 << 17, 512, 1 << 12)
            } else {
                (1 << 10, 1 << 7, 32, 16)
            };
            out.push(column(
                &[F::Ring],
                &[ring_n],
                &[ring_k],
                1,
                EquallySpaced,
                Toward,
                ROTOR,
            ));
            let torus = F::Torus {
                rows: side,
                cols: side,
            };
            out.push(column(
                &[torus],
                &[side * side],
                &[torus_k],
                4,
                RandPlace,
                RandInit,
                ROTOR,
            ));
        }
        Workload::LimitProbe => {
            let (small, large, side, dim, seeds) = if full {
                (256, 1024, 16, 8, 6)
            } else {
                (16, 32, 4, 4, 2)
            };
            let ks: &[usize] = if full { &[1, 2, 4, 8] } else { &[1, 2] };
            let mixed = [
                F::Ring,
                F::Torus {
                    rows: side,
                    cols: side,
                },
                F::Hypercube { dim },
            ];
            out.push(column(
                &mixed,
                &[small],
                ks,
                seeds,
                RandPlace,
                RandInit,
                CYCLE,
            ));
            out.push(column(
                &[F::Ring],
                &[large],
                ks,
                seeds,
                RandPlace,
                RandInit,
                CYCLE,
            ));
        }
    }
    for (i, c) in out.iter_mut().enumerate() {
        c.grid.base_seed = seed.wrapping_add(i as u64);
    }
    out
}

/// The closed-form diameter of the built families that grow past the BFS
/// limit.
fn closed_form_diameter(family: GraphFamily) -> Option<usize> {
    match family {
        GraphFamily::Torus { rows, cols } => Some(rows / 2 + cols / 2),
        _ => None,
    }
}

/// A graph's identity for set-up: seeded families draw one graph per
/// scenario seed, every other family one graph per `(family, n)`.
fn graph_key(sc: &Scenario) -> (String, usize, u64) {
    let seed = match sc.family {
        GraphFamily::RandomRegular { .. } => sc.seed,
        _ => 0,
    };
    (sc.family.label(), sc.n, seed)
}

/// `(2·D·|E|, |E|)` of a scenario's graph: one build, one diameter.
fn measure_graph(sc: &Scenario, tr: &mut Tracer) -> (u64, u64) {
    if sc.family.is_ring() && sc.n > BFS_DIAMETER_MAX_NODES {
        let (diameter, edges) = ((sc.n / 2) as u64, sc.n as u64);
        return (2 * diameter * edges, edges);
    }
    let span = tr.begin("graph.build");
    let g = sc.graph();
    tr.end(span);
    let diameter = if g.node_count() <= BFS_DIAMETER_MAX_NODES {
        let span = tr.begin("graph.diameter");
        let d = algo::diameter(&g);
        tr.end(span);
        tr.count("graph.diameters", 1);
        d
    } else {
        let d = closed_form_diameter(sc.family);
        u32::try_from(d.expect("graphs past the BFS limit have a closed form"))
            .expect("diameter fits u32")
    };
    tr.count("graph.builds", 1);
    tr.count("graph.arcs", g.arc_count() as u64);
    let edges = g.edge_count() as u64;
    (2 * u64::from(diameter) * edges, edges)
}

/// The exact result the paper gives for a cell, if any: equally spaced
/// (or single) agents on the ring with pointers toward the nearest agent
/// cover in `m(m−1)/2` rounds, `m = n/k`; a single agent's limit cycle is
/// the Eulerian circuit, of period `2|E|`.
fn expectation(sc: &Scenario, job: Job, edges: u64) -> Option<Expect> {
    match job {
        Job::Cover(ProcessKind::Rotor) => {
            let spaced = match sc.placement {
                PlacementSpec::EquallySpaced => sc.n.is_multiple_of(sc.k),
                PlacementSpec::AllOnOne => sc.k == 1,
                PlacementSpec::Random => false,
            };
            (sc.family.is_ring() && sc.init == InitSpec::TowardNearestAgent && spaced).then(|| {
                let m = (sc.n / sc.k) as u64;
                Expect::Cover(m * (m - 1) / 2)
            })
        }
        Job::Cycle if sc.k == 1 => Some(Expect::Period(2 * edges)),
        _ => None,
    }
}

/// Round budget of one cell: `4·2·D·|E|` for the rotor-router, the
/// campaign's `64·n²` for random walks.
fn budget(sc: &Scenario, job: Job, bound: u64) -> u64 {
    match job {
        Job::Cover(ProcessKind::RandomWalk) => 64 * (sc.n as u64) * (sc.n as u64),
        Job::Cover(_) => 4 * bound,
        Job::Cycle => CYCLE_BUDGET_BOUNDS * bound,
    }
}

/// Builds a workload's plan: enumerate, measure each distinct graph once,
/// derive budgets, strides and expectations, and group the cells into
/// analysis points and curves.
pub fn setup(w: Workload, scale: Scale, seed: u64, tr: &mut Tracer) -> Plan {
    let span = tr.begin("sweep.enumerate");
    let columns = columns(w, scale, seed);
    let enumerated: Vec<Vec<Scenario>> = columns.iter().map(|c| c.grid.scenarios()).collect();
    tr.end(span);

    let mut graphs: BTreeMap<(String, usize, u64), (u64, u64)> = BTreeMap::new();
    let mut cells = Vec::new();
    // (column, job, family, n) names a curve; k then names its point.
    let mut points: BTreeMap<(usize, usize, String, usize, usize), Vec<usize>> = BTreeMap::new();
    for (ci, (col, scenarios)) in columns.iter().zip(&enumerated).enumerate() {
        for sc in scenarios {
            let (bound, edges) = *graphs
                .entry(graph_key(sc))
                .or_insert_with(|| measure_graph(sc, tr));
            for (ji, &job) in col.jobs.iter().enumerate() {
                let key = (ci, ji, sc.family.label(), sc.n, sc.k);
                points.entry(key).or_default().push(cells.len());
                cells.push(Cell {
                    sc: *sc,
                    job,
                    budget: budget(sc, job, bound),
                    stride: (bound / 4096).max(1),
                    bound,
                    expect: expectation(sc, job, edges),
                });
            }
        }
    }

    let mut plan = Plan {
        cells,
        points: Vec::new(),
        curves: Vec::new(),
    };
    let mut last_curve = None;
    for ((ci, ji, family, n, k), members) in points {
        if last_curve.as_ref() != Some(&(ci, ji, family.clone(), n)) {
            let job = columns[ci].jobs[ji];
            plan.curves
                .push(format!("c{ci}/{}/{family}/n{n}", job_label(job)));
            last_curve = Some((ci, ji, family, n));
        }
        plan.points.push(Point {
            curve: plan.curves.len() - 1,
            k,
            cells: members,
        });
    }
    plan
}

/// Short label of a job in curve names.
fn job_label(job: Job) -> &'static str {
    match job {
        Job::Cover(kind) => kind.label(),
        Job::Cycle => "cycle",
    }
}

/// The family labels of the rotor cells across every full-size workload:
/// the per-family `core.<label>.*` metric set every traced run prints.
pub fn rotor_family_labels() -> Vec<String> {
    let mut labels: Vec<String> = Workload::ALL
        .into_iter()
        .flat_map(|w| columns(w, Scale::Full, 0))
        .filter(|c| c.jobs.contains(&Job::Cover(ProcessKind::Rotor)))
        .flat_map(|c| {
            c.grid
                .families
                .iter()
                .map(GraphFamily::label)
                .collect::<Vec<_>>()
        })
        .collect();
    labels.sort();
    labels.dedup();
    labels
}
