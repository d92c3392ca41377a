//! `xtask perf-check`: the workspace's wall-clock measurements, and the
//! only place a timing gates anything. Campaign reports,
//! [`validate`](crate::validate) and [`compare`](crate::compare) hold
//! deterministic data only, so nothing here is written to the repository.
//!
//! Every comparison runs [`PAIRS`] paired trials after a warm-up. A pair
//! times both sides back to back, alternating which side goes first, and
//! records the ratio of their times in parts per thousand. A seeded
//! bootstrap of the median ratio gives a 95% band, and a gate tests the
//! band's lower bound (Kalibera & Jones, *Rigorous Benchmarking in
//! Reasonable Time*, ISMM 2013). The comparisons, by name:
//!
//! * `ring_vs_general/k<k>`: [`RingRouter`] against [`Engine`] on the same
//!   ring from Theorem 1's start (all agents on one node, pointers toward
//!   it), both stepped round by round, ratio general time over ring time.
//!   Gate: the ring is at least as fast.
//! * `ring_skip/k<k>`: [`RingRouter`]'s straight-run skipping
//!   ([`CoverProcess::advance`]) against stepping it round by round over
//!   the same rounds, from random agents and pointers on a `2¹⁶`-node
//!   ring, ratio stepping time over skipping time. The two must reach the
//!   same configuration. Gates: at `k ≤ 16` skipping is at least as fast;
//!   at `k = n/8`, where it falls back to stepping, it is not shown
//!   slower.
//! * `limit_probe/ring_k<k>`: the §4 cycle probe ([`limit::probe_cycle`],
//!   on horizons with bisected tails) against the [`limit::brent`]
//!   reference, which steps and snapshots every round and replays the
//!   tail, from random agents and pointers on a 1024-node ring, ratio
//!   reference time over probe time. The two must certify the same
//!   `(μ, λ)`. Gate: the probe is at least as fast.
//! * `domain_sampler/n<n>`: every-round §2.2 sampling of a ring run
//!   through the word-wise [`DomainSampler`] against the bit-by-bit
//!   [`scan_domain_stats`], ratio scan time over sampler time. The two must
//!   agree sample for sample. Gate: at least 5× faster.
//! * `engine/<graph>`: [`Engine`] rounds/sec on three standard graphs with
//!   64 agents, one trial at a time. Reported only.
//!
//! A [`fingerprint`] line naming the machine comes before the verdicts.

use rotor_analysis::{bootstrap_median_band, median};
use rotor_core::domains::{scan_domain_stats, DomainSampler};
use rotor_core::limit::{self, ConfigSnapshot};
use rotor_core::{init::PointerInit, placement::Placement, CoverProcess, Engine, RingRouter};
use rotor_graph::{builders, NodeId, PortGraph};
use std::time::Instant;

/// Trials per comparison.
pub const PAIRS: usize = 15;
/// Bootstrap resamples behind every band.
const RESAMPLES: usize = 1000;
/// Seed of every band's resamples, so a band is a function of its trials.
const BAND_SEED: u64 = 0x9E2F;
/// Agents on each `Engine` workload: enough to keep a meaningful occupied
/// set alive.
const ENGINE_AGENTS: u32 = 64;

/// The sizes one pass times.
pub struct Plan {
    /// Ring size of the ring-vs-general cells.
    pub ring_n: usize,
    /// `(k, timed rounds)` of each ring-vs-general cell.
    pub ring_cells: &'static [(usize, u64)],
    /// Ring size of the skipping cells.
    pub skip_n: usize,
    /// `(k, timed rounds)` of each skipping cell; the rounds stay short of
    /// the cover round.
    pub skip_cells: &'static [(usize, u64)],
    /// Ring size of the cycle-probe cells.
    pub limit_n: usize,
    /// Agent counts of the cycle-probe cells.
    pub limit_ks: &'static [usize],
    /// Ring size and sampled rounds of the §2.2 sampler comparison.
    pub sampler: (usize, u64),
    /// Timed rounds of each `Engine` workload trial.
    pub engine_rounds: u64,
}

/// What `xtask perf-check` times: a few milliseconds per timing.
pub const FULL: Plan = Plan {
    ring_n: 1 << 21,
    ring_cells: &[(1, 1 << 20), (16, 1 << 18), (8192, 4096)],
    skip_n: 1 << 16,
    skip_cells: &[(1, 1 << 20), (4, 1 << 19), (16, 1 << 17), (8192, 256)],
    limit_n: 1024,
    limit_ks: &[1, 8],
    sampler: (4096, 2048),
    engine_rounds: 4096,
};

/// One comparison's trials.
pub struct Measured {
    /// Its name, such as `ring_vs_general/k16`.
    pub name: String,
    /// What a trial holds: `ppt` (a time ratio in parts per thousand,
    /// above 1000 when the side named first is faster) or `rounds/s`.
    pub unit: &'static str,
    /// One value per trial.
    pub trials: Vec<u64>,
}

/// A floor under one comparison's band.
pub struct Gate {
    /// The [`Measured::name`] it judges.
    pub name: String,
    /// The lowest band bound that passes, in the comparison's unit.
    pub floor: u64,
    /// Which bound of the band must reach the floor.
    pub side: Side,
    /// What a miss means.
    pub miss: String,
}

/// The bound of a band that a [`Gate`] tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// The lower bound: the comparison is shown to reach the floor.
    Lower,
    /// The upper bound: the comparison is not shown to fall short of it.
    Upper,
}

/// The gates on `plan`'s comparisons.
pub fn gates(plan: &Plan) -> Vec<Gate> {
    let mut gates: Vec<Gate> = plan
        .ring_cells
        .iter()
        .map(|&(k, _)| Gate {
            name: format!("ring_vs_general/k{k}"),
            floor: 1000,
            side: Side::Lower,
            miss: format!("ring fast path at k = {k} is slower than the general engine"),
        })
        .collect();
    for &(k, _) in plan.skip_cells {
        let (side, miss) = if k <= 16 {
            (Side::Lower, "is not shown at least as fast as stepping")
        } else {
            (Side::Upper, "is shown slower than stepping")
        };
        gates.push(Gate {
            name: format!("ring_skip/k{k}"),
            floor: 1000,
            side,
            miss: format!("straight-run skipping at k = {k} {miss}"),
        });
    }
    gates.extend(plan.limit_ks.iter().map(|&k| Gate {
        name: format!("limit_probe/ring_k{k}"),
        floor: 1000,
        side: Side::Lower,
        miss: format!("the cycle probe at k = {k} is not shown at least as fast as brent"),
    }));
    let n = plan.sampler.0;
    gates.push(Gate {
        name: format!("domain_sampler/n{n}"),
        floor: 5000,
        side: Side::Lower,
        miss: format!("the word-wise §2.2 sampler at n = {n} is not 5× faster than the scan"),
    });
    gates
}

/// Judges `measured` against `gates`: one line per comparison (median,
/// band, floor and verdict), and one failure per gate whose band's gated
/// bound is below its floor or whose comparison is missing.
pub fn verdicts(measured: &[Measured], gates: &[Gate]) -> (Vec<String>, Vec<String>) {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for m in measured {
        let mut trials = m.trials.clone();
        let band = bootstrap_median_band(&m.trials, RESAMPLES, 0.95, BAND_SEED);
        let (Some(mid), Some(band)) = (median(&mut trials), band) else {
            failures.push(format!("{}: no trials", m.name));
            continue;
        };
        let summary = format!("median {mid} [{}, {}] {}", band.lo, band.hi, m.unit);
        let verdict = match gates.iter().find(|g| g.name == m.name) {
            None => "reported".to_string(),
            Some(g) => {
                let (bound, which) = match g.side {
                    Side::Lower => (band.lo, ""),
                    Side::Upper => (band.hi, "upper "),
                };
                if bound >= g.floor {
                    format!("pass ({which}floor {})", g.floor)
                } else {
                    failures.push(format!(
                        "{} ({}: {summary}, {which}floor {})",
                        g.miss, m.name, g.floor
                    ));
                    format!("FAIL ({which}floor {})", g.floor)
                }
            }
        };
        lines.push(format!("{:<32} {summary}  {verdict}", m.name));
    }
    for g in gates
        .iter()
        .filter(|g| measured.iter().all(|m| m.name != g.name))
    {
        failures.push(format!("{}: comparison missing", g.name));
    }
    (lines, failures)
}

/// Times every comparison of `plan`.
pub fn measure(plan: &Plan) -> Vec<Measured> {
    let ring = builders::ring(plan.ring_n);
    let mut measured: Vec<Measured> = plan
        .ring_cells
        .iter()
        .map(|&(k, rounds)| ring_vs_general(&ring, k, rounds))
        .collect();
    measured.extend(
        plan.skip_cells
            .iter()
            .map(|&(k, rounds)| ring_skip(plan.skip_n, k, rounds)),
    );
    measured.extend(plan.limit_ks.iter().map(|&k| limit_probe(plan.limit_n, k)));
    measured.push(domain_sampler(plan.sampler));
    for (name, g) in [
        ("grid_64x64", builders::grid(64, 64)),
        ("hypercube_10", builders::hypercube(10)),
        (
            "random_regular_1024_4",
            builders::random_regular(1024, 4, 1),
        ),
    ] {
        measured.push(engine_rounds_per_sec(name, &g, plan.engine_rounds));
    }
    measured
}

/// Seconds one call of `f` takes: the module's only clock read.
fn seconds(f: impl FnOnce()) -> f64 {
    #[expect(clippy::disallowed_methods, reason = "perf-check owns every timing")]
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64().max(f64::EPSILON)
}

/// [`PAIRS`] pairs of trials of `a` and `b`, each returning the seconds it
/// timed, alternating which runs first; per pair, `b`'s time over `a`'s in
/// parts per thousand.
fn paired(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Vec<u64> {
    (0..PAIRS)
        .map(|i| {
            let (ta, tb) = if i % 2 == 0 {
                (a(), b())
            } else {
                let tb = b();
                (a(), tb)
            };
            (1000.0 * tb / ta).round() as u64
        })
        .collect()
}

/// `RingRouter` against `Engine` on `ring` from Theorem 1's start with `k`
/// agents, after a warm-up that spreads the occupied band. Both engines
/// step the same rounds in every trial, so they stay in lockstep and each
/// pair times the same rounds on both.
fn ring_vs_general(ring: &PortGraph, k: usize, rounds: u64) -> Measured {
    let n = ring.node_count();
    let starts = Placement::AllOnOne(0).positions(n, k);
    let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
    let ids: Vec<NodeId> = starts.iter().map(|&s| NodeId::new(s)).collect();
    let mut fast = RingRouter::new(n, &starts, &dirs);
    let mut general = Engine::with_pointers(ring, &ids, dirs.iter().map(|&d| d.into()).collect());
    fast.run(rounds / 2 + 1);
    general.run(rounds / 2 + 1);
    Measured {
        name: format!("ring_vs_general/k{k}"),
        unit: "ppt",
        trials: paired(
            || seconds(|| fast.run(rounds)),
            || seconds(|| general.run(rounds)),
        ),
    }
}

/// `RingRouter` skipping straight runs against stepping round by round,
/// `rounds` rounds from random agents and pointers on an `n`-node ring;
/// each trial starts both sides from the same state.
fn ring_skip(n: usize, k: usize, rounds: u64) -> Measured {
    let starts = Placement::Random(0x5EED).positions(n, k);
    let dirs = PointerInit::Random(7).ring_directions(n, &starts);
    let start = RingRouter::new(n, &starts, &dirs);
    let (mut skipped, mut stepped) = (start.clone(), start.clone());
    let trials = paired(
        || {
            skipped.clone_from(&start);
            seconds(|| {
                skipped.advance(rounds);
            })
        },
        || {
            stepped.clone_from(&start);
            seconds(|| stepped.run(rounds))
        },
    );
    assert_eq!(
        skipped.round(),
        rounds,
        "k = {k}: covered inside the timed rounds"
    );
    assert!(skipped.same_config(&stepped), "k = {k}: skipping diverged");
    Measured {
        name: format!("ring_skip/k{k}"),
        unit: "ppt",
        trials,
    }
}

/// [`limit::probe_cycle`] against the [`limit::brent`] reference from
/// random agents and pointers on an `n`-node ring, each trial from the
/// same start.
fn limit_probe(n: usize, k: usize) -> Measured {
    let starts = Placement::Random(0x5EED).positions(n, k);
    let dirs = PointerInit::Random(7).ring_directions(n, &starts);
    let start = RingRouter::new(n, &starts, &dirs);
    let budget = 1 << 40;
    let (mut probed, mut reference) = (None, None);
    let trials = paired(
        || seconds(|| probed = limit::probe_cycle(|| start.clone(), budget)),
        || {
            seconds(|| {
                reference = limit::brent(
                    || start.clone(),
                    RingRouter::step,
                    RingRouter::state,
                    budget,
                );
            })
        },
    );
    assert!(probed.is_some(), "k = {k}: no cycle certified");
    assert_eq!(probed, reference, "k = {k}: the probe and brent disagree");
    Measured {
        name: format!("limit_probe/ring_k{k}"),
        unit: "ppt",
        trials,
    }
}

/// The machine a pass runs on, as one line: available parallelism, arch
/// and OS, and the CPU model and L3 size where `/proc/cpuinfo` and sysfs
/// have them. It gates nothing.
pub fn fingerprint() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .filter(|l| l.starts_with("model name"))
                .find_map(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        });
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .ok()
        .map(|size| size.trim().to_string());
    let unknown = || "unknown".to_string();
    format!(
        "fingerprint parallelism={parallelism} arch={} os={} cpu={:?} l3={}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        cpu.unwrap_or_else(unknown),
        l3.unwrap_or_else(unknown),
    )
}

/// Every-round §2.2 sampling over `rounds` rounds of an `n`-node ring with
/// 8 equally spaced agents: the word-wise sampler against the reference
/// scan, each trial on a fresh router.
fn domain_sampler((n, rounds): (usize, u64)) -> Measured {
    let starts = Placement::EquallySpaced { offset: 0 }.positions(n, 8);
    let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
    let (mut sampled, mut scanned) = (Vec::new(), Vec::new());
    let trials = paired(
        || {
            let mut router = RingRouter::new(n, &starts, &dirs);
            let mut sampler = DomainSampler::every(1);
            let t = seconds(|| {
                router.run_observed(rounds, &mut sampler);
            });
            sampled = sampler.samples;
            t
        },
        || {
            let mut router = RingRouter::new(n, &starts, &dirs);
            scanned.clear();
            seconds(|| {
                router.run_observed(rounds, &mut |p: &RingRouter| {
                    scanned.push(scan_domain_stats(p.visits()));
                });
            })
        },
    );
    // Identical runs: the two instruments must agree sample for sample.
    assert_eq!(sampled.len(), scanned.len());
    assert!(sampled
        .iter()
        .zip(&scanned)
        .all(|(s, sc)| (s.domains, s.borders) == (sc.domains, sc.borders)));
    Measured {
        name: format!("domain_sampler/n{n}"),
        unit: "ppt",
        trials,
    }
}

/// `Engine` rounds/sec on `g`, one trial of `rounds` rounds at a time,
/// after a warm-up.
fn engine_rounds_per_sec(name: &str, g: &PortGraph, rounds: u64) -> Measured {
    let n = g.node_count() as u32;
    let agents: Vec<NodeId> = (0..ENGINE_AGENTS)
        .map(|i| NodeId::new(i * n / ENGINE_AGENTS))
        .collect();
    let mut e = Engine::new(g, &agents, &PointerInit::Random(7));
    e.run(rounds / 10 + 1);
    Measured {
        name: format!("engine/{name}"),
        unit: "rounds/s",
        trials: (0..PAIRS)
            .map(|_| (rounds as f64 / seconds(|| e.run(rounds))).round() as u64)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `trials` under `name`, in parts per thousand.
    fn ratios(name: &str, trials: &[u64]) -> Measured {
        Measured {
            name: name.into(),
            unit: "ppt",
            trials: trials.to_vec(),
        }
    }

    /// Every gated comparison of [`FULL`] at `ppt` on every trial, the
    /// ring ones at `ring`.
    fn all_at(ring: u64, sampler: u64) -> Vec<Measured> {
        let mut m: Vec<Measured> = [1, 16, 8192]
            .map(|k| ratios(&format!("ring_vs_general/k{k}"), &[ring; PAIRS]))
            .into();
        m.extend([1, 4, 16, 8192].map(|k| ratios(&format!("ring_skip/k{k}"), &[ring; PAIRS])));
        m.extend([1, 8].map(|k| ratios(&format!("limit_probe/ring_k{k}"), &[ring; PAIRS])));
        m.push(ratios("domain_sampler/n4096", &[sampler; PAIRS]));
        m
    }

    #[test]
    fn a_band_at_or_above_its_floor_passes() {
        let (lines, failures) = verdicts(&all_at(1000, 5000), &gates(&FULL));
        assert_eq!(failures, Vec::<String>::new());
        assert_eq!(lines.len(), 10);
        assert!(lines.iter().all(|l| l.contains("pass")), "{lines:?}");

        // a spread whose lower bound clears the floor passes too
        let spread: Vec<u64> = (0..PAIRS as u64).map(|i| 1300 + 10 * i).collect();
        let mut m = all_at(1000, 5000);
        m[0] = ratios("ring_vs_general/k1", &spread);
        assert_eq!(verdicts(&m, &gates(&FULL)).1, Vec::<String>::new());
    }

    #[test]
    fn a_band_below_its_floor_fails_naming_the_comparison_and_k() {
        let mut m = all_at(1400, 20_000);
        // the median clears the floor, but the band's lower bound does not
        let mut straddling = vec![900; 7];
        straddling.extend([1100; 8]);
        m[1] = ratios("ring_vs_general/k16", &straddling);
        let (lines, failures) = verdicts(&m, &gates(&FULL));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("ring fast path at k = 16 is slower than the general engine"));
        assert!(failures[0].contains("ring_vs_general/k16"));
        assert!(lines[1].contains("FAIL"));

        let slow_sampler = all_at(1400, 4500);
        let failures = verdicts(&slow_sampler, &gates(&FULL)).1;
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("domain_sampler/n4096") && failures[0].contains("5×"));
    }

    #[test]
    fn dense_skipping_is_gated_on_the_upper_bound() {
        let at = |k: u32, trials: &[u64]| {
            let mut m = all_at(1400, 20_000);
            let i = m.iter().position(|x| x.name == format!("ring_skip/k{k}"));
            m[i.expect("row")] = ratios(&format!("ring_skip/k{k}"), trials);
            verdicts(&m, &gates(&FULL)).1
        };
        // a band straddling 1: not shown slower at k = n/8, yet not shown
        // faster at k = 16
        let mut straddling = vec![900; 7];
        straddling.extend([1100; 8]);
        assert_eq!(at(8192, &straddling), Vec::<String>::new());
        let failures = at(16, &straddling);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("skipping at k = 16 is not shown at least as fast"));
        // shown slower at k = n/8
        let failures = at(8192, &[900; PAIRS]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("k = 8192 is shown slower") && failures[0].contains("upper floor")
        );
    }

    #[test]
    fn the_fingerprint_is_one_line_naming_the_machine() {
        let line = fingerprint();
        assert!(line.starts_with("fingerprint parallelism="), "{line}");
        assert!(line.contains(&format!("arch={}", std::env::consts::ARCH)));
        assert!(line.contains(" cpu=") && line.contains(" l3="), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_missing_comparison_is_an_error() {
        let mut m = all_at(1400, 20_000);
        m.remove(2);
        let failures = verdicts(&m, &gates(&FULL)).1;
        assert_eq!(failures, ["ring_vs_general/k8192: comparison missing"]);
        let empty = verdicts(&[ratios("ring_vs_general/k1", &[])], &gates(&FULL)).1;
        assert!(empty.contains(&"ring_vs_general/k1: no trials".to_string()));
    }

    /// A debug-build pass at small sizes produces every comparison; it
    /// checks their shape, not their speed.
    #[test]
    fn a_small_pass_produces_every_comparison() {
        let plan = Plan {
            ring_n: 4096,
            ring_cells: &[(1, 1024), (16, 256), (8192, 64)],
            skip_n: 4096,
            skip_cells: &[(1, 4096), (4, 2048), (16, 1024), (512, 16)],
            limit_n: 64,
            limit_ks: &[1, 8],
            sampler: (1024, 256),
            engine_rounds: 64,
        };
        let measured = measure(&plan);
        let names: Vec<&str> = measured.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "ring_vs_general/k1",
                "ring_vs_general/k16",
                "ring_vs_general/k8192",
                "ring_skip/k1",
                "ring_skip/k4",
                "ring_skip/k16",
                "ring_skip/k512",
                "limit_probe/ring_k1",
                "limit_probe/ring_k8",
                "domain_sampler/n1024",
                "engine/grid_64x64",
                "engine/hypercube_10",
                "engine/random_regular_1024_4",
            ]
        );
        for m in &measured {
            assert_eq!(m.trials.len(), PAIRS, "{}", m.name);
            assert!(m.trials.iter().all(|&t| t > 0), "{}", m.name);
        }
        let (lines, failures) = verdicts(&measured, &gates(&plan));
        assert_eq!(lines.len(), measured.len());
        assert!(
            failures.iter().all(|f| !f.contains("missing")),
            "{failures:?}"
        );
    }
}
