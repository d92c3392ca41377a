//! # rotor-analysis
//!
//! Statistics for rotor-router parameter sweeps.
//!
//! Experiments in this workspace produce per-(n, k, seed) samples of cover
//! times, return times and throughput; this crate holds the shared
//! post-processing:
//!
//! * order statistics ([`summarize`], [`median`]) — in-place
//!   `select_nth_unstable` selection, no copy and no full sort, so the hot
//!   sweep aggregation loops stay `O(samples)`;
//! * seeded bootstrap confidence bands for medians
//!   ([`bootstrap_median_band`]);
//! * automatic regime classification ([`fit_regime`]) of measured
//!   cover-time curves `T(k)` against the paper's ring regimes — the
//!   `Θ(n²/log k)` worst case versus the `Θ(n²/k²)`–`Θ(n²/k)` best-case
//!   band — emitting a [`Regime`] verdict plus the fitted exponent, with
//!   [`fit_regime_scaled`] taking `2·D·|E|`-normalised measurements so one
//!   pooled fit spans several graph sizes, and [`speedup_exponent`] for
//!   paired walk-vs-rotor curves;
//! * recovery-curve aggregation for fault-injection sweeps
//!   ([`recovery::summarize_recovery`]), with honest timeout bookkeeping
//!   (`recovered ≤ attempts`, timed-out cells never enter the medians);
//! * the shared experiment-report schema ([`report`]):
//!   [`report_json`](report::report_json) /
//!   [`Curve`](report::Curve) and the dependency-free
//!   [`Json`](report::Json) builder every `BENCH_<name>.json` is written
//!   through.
//!
//! ```
//! use rotor_analysis::{fit_regime, median, Regime};
//!
//! // Cover-time medians over k: the sweep aggregation in two lines.
//! let mut samples = [41_000u64, 39_500, 40_250];
//! assert_eq!(median(&mut samples), Some(40_250));
//! let curve = [(1u64, 160_000u64), (2, 40_000), (4, 10_000), (8, 2_500)];
//! assert_eq!(fit_regime(&curve).unwrap().regime, Regime::QuadraticSpeedup);
//! ```

pub mod recovery;
pub mod report;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Summary order statistics of a sample of `u64` measurements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum value.
    pub min: u64,
    /// Median (lower median for even counts).
    pub median: u64,
    /// Maximum value.
    pub max: u64,
}

/// Computes [`Summary`] statistics of `samples` in place.
///
/// The slice is reordered (partially, by `select_nth_unstable`) but not
/// copied — sweep aggregation calls this on buffers it owns. Returns
/// `None` for an empty sample.
///
/// ```
/// use rotor_analysis::summarize;
/// let s = summarize(&mut [5, 1, 9, 3]).unwrap();
/// assert_eq!((s.min, s.median, s.max), (1, 3, 9));
/// ```
pub fn summarize(samples: &mut [u64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let (&min, &max) = (
        samples.iter().min().expect("non-empty"),
        samples.iter().max().expect("non-empty"),
    );
    let mid = (samples.len() - 1) / 2;
    let (_, &mut median, _) = samples.select_nth_unstable(mid);
    Some(Summary {
        count: samples.len(),
        min,
        median,
        max,
    })
}

/// Median of a sample (lower median for even counts), selected in place;
/// `None` when empty.
pub fn median(samples: &mut [u64]) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mid = (samples.len() - 1) / 2;
    let (_, &mut m, _) = samples.select_nth_unstable(mid);
    Some(m)
}

/// A two-sided bootstrap confidence band `[lo, hi]` for an estimator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConfidenceBand {
    /// Lower band edge.
    pub lo: u64,
    /// Upper band edge.
    pub hi: u64,
}

/// Seeded percentile-bootstrap confidence band for the median of
/// `samples`.
///
/// Draws `resamples` resamples with replacement, computes each resample's
/// median, and returns the `[(1−confidence)/2, (1+confidence)/2]`
/// percentile band of those medians. Deterministic per `seed`, which is
/// domain-separated through [`rotor_core::rng::STREAM_BOOTSTRAP`] so a
/// caller may pass the same seed it used for data generation without the
/// resampling stream overlapping it. Returns `None` for an empty sample,
/// `resamples == 0`, or a `confidence` outside `(0, 1)`.
///
/// ```
/// use rotor_analysis::bootstrap_median_band;
/// let band = bootstrap_median_band(&[40, 42, 41, 39, 43, 40, 120], 200, 0.95, 7).unwrap();
/// assert!(band.lo >= 39 && band.hi <= 120);
/// assert!(band.lo <= band.hi);
/// ```
pub fn bootstrap_median_band(
    samples: &[u64],
    resamples: usize,
    confidence: f64,
    seed: u64,
) -> Option<ConfidenceBand> {
    if samples.is_empty() || resamples == 0 || !(confidence > 0.0 && confidence < 1.0) {
        return None;
    }
    #[expect(clippy::disallowed_methods, reason = "seeded via STREAM_BOOTSTRAP")]
    let mut rng = SmallRng::seed_from_u64(rotor_core::rng::stream(
        seed,
        rotor_core::rng::STREAM_BOOTSTRAP,
    ));
    let mut scratch = vec![0u64; samples.len()];
    let mut medians = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        for slot in &mut scratch {
            *slot = samples[rng.gen_range(0..samples.len())];
        }
        medians.push(median(&mut scratch).expect("non-empty resample"));
    }
    medians.sort_unstable();
    let alpha = (1.0 - confidence) / 2.0;
    let idx = |q: f64| (((medians.len() - 1) as f64 * q).round() as usize).min(medians.len() - 1);
    Some(ConfidenceBand {
        lo: medians[idx(alpha)],
        hi: medians[idx(1.0 - alpha)],
    })
}

/// The empirical exponent `α` in `T(k) ≈ C·k^α` fitted between two
/// measurements `(k₁, t₁)` and `(k₂, t₂)` — the log-log slope.
///
/// Used to distinguish the paper's best-case regimes: `α ≈ −2` in the
/// `k ≲ log n` range (Theorem 3's `Θ(n²/k²)`) flattening toward `α ≈ −1`.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn loglog_slope(k1: u64, t1: u64, k2: u64, t2: u64) -> f64 {
    assert!(
        k1 > 0 && t1 > 0 && k2 > 0 && t2 > 0,
        "log-log needs positives"
    );
    assert_ne!(k1, k2, "need two distinct k values");
    ((t2 as f64).ln() - (t1 as f64).ln()) / ((k2 as f64).ln() - (k1 as f64).ln())
}

/// The asymptotic regime a measured cover-time curve `T(k)` is classified
/// into (ring regimes of the paper's Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Regime {
    /// `Θ(n²/log k)` — the worst-case speed-up (Theorems 1–2): `T`
    /// shrinks like the reciprocal of `log k`, not polynomially in `k`.
    LogSpeedup,
    /// `Θ(n²/k²)` — the best-case quadratic speed-up (Theorem 3,
    /// `k ≲ log n`): fitted exponent `α ≈ −2`.
    QuadraticSpeedup,
    /// `Θ(n²/k)` — linear speed-up (the upper end of the best-case band):
    /// fitted exponent `α ≈ −1`.
    LinearSpeedup,
    /// No speed-up in `k`: fitted exponent `α ≈ 0`.
    Flat,
}

/// Result of [`fit_regime`]: the classified [`Regime`] with both model
/// fits' parameters, so callers can report goodness-of-fit alongside the
/// verdict.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RegimeFit {
    /// The classified regime.
    pub regime: Regime,
    /// Fitted power-law exponent `α` (`ln T` against `ln k`).
    pub exponent: f64,
    /// Mean squared residual of the power-law fit in log space.
    pub power_residual: f64,
    /// Fitted coefficient `γ` of the log model `ln T = b − γ·ln(ln k)`
    /// (over the `k ≥ 2` points), when that fit is possible.
    pub log_coefficient: Option<f64>,
    /// Mean squared residual of the log-model fit, when possible.
    pub log_residual: Option<f64>,
}

/// Ordinary least squares `y = a + b·x`; returns `(a, b, mean squared
/// residual)`. Requires ≥ 2 distinct `x` (checked by callers).
fn least_squares(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    let n = xs.len() as f64;
    // lint: allow(float-accumulation) -- serial fold over a slice in index order; the order is schedule-independent
    let mx = xs.iter().sum::<f64>() / n;
    // lint: allow(float-accumulation) -- serial fold over a slice in index order; the order is schedule-independent
    let my = ys.iter().sum::<f64>() / n;
    // lint: allow(float-accumulation) -- serial fold over a slice in index order; the order is schedule-independent
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    // lint: allow(float-accumulation) -- serial fold over a slice in index order; the order is schedule-independent
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let b = sxy / sxx;
    let a = my - b * mx;
    let res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (a + b * x);
            e * e
        })
        // lint: allow(float-accumulation) -- serial fold over a slice in index order; the order is schedule-independent
        .sum::<f64>()
        / n;
    (a, b, res)
}

/// Classifies a measured curve `T(k)` (as `(k, T)` points) against the
/// paper's ring regimes.
///
/// Fits two models in log space — the power law `T = C·k^α` and the
/// worst-case log model `T = C/(log k)^γ` (over the `k ≥ 2` points) — and
/// returns the verdict:
///
/// * [`Regime::LogSpeedup`] when the log model both fits strictly better
///   and has `γ ≈ 1` while the power slope is shallow (`α > −0.85`);
/// * otherwise by the fitted exponent: `α < −1.5` quadratic,
///   `−1.5 ≤ α < −0.5` linear, `α ≥ −0.5` flat.
///
/// Returns `None` (no verdict) for degenerate inputs instead of
/// panicking: fewer than two distinct `k` with positive `T`, or an
/// exactly constant series (which carries no slope information).
///
/// ```
/// use rotor_analysis::{fit_regime, Regime};
/// let quad: Vec<(u64, u64)> = (0..6).map(|i| { let k = 1u64 << i; (k, 1_000_000 / (k * k)) }).collect();
/// assert_eq!(fit_regime(&quad).unwrap().regime, Regime::QuadraticSpeedup);
/// ```
pub fn fit_regime(points: &[(u64, u64)]) -> Option<RegimeFit> {
    fit_regime_scaled(
        &points
            .iter()
            .map(|&(k, t)| (k, t as f64))
            .collect::<Vec<_>>(),
    )
}

/// [`fit_regime`] over pre-normalised measurements: each point is
/// `(k, T/scale)` where `scale` is the caller's per-point normaliser —
/// canonically the family's `2·D·|E|` lock-in bound, which makes curves
/// from *different* graph sizes (or different seeded graph draws)
/// commensurable so one pooled fit per family is meaningful.
///
/// For a single curve at fixed `n` the scale is a shared constant, so the
/// fitted exponent (a log-log slope) is identical to the unscaled fit —
/// normalisation only moves the intercept. It changes the answer exactly
/// when points with *different* bounds are pooled:
///
/// ```
/// use rotor_analysis::fit_regime_scaled;
/// // T(n, k) = (2·D·|E|)·k⁻¹ at two sizes: pooled raw points mix the two
/// // n-levels, the bound-scaled points collapse onto one k⁻¹ law.
/// let pts: Vec<(u64, f64)> = [256u64, 4096]
///     .iter()
///     .flat_map(|&n| {
///         let bound = (n * n) as f64; // ring: 2·(n/2)·n
///         (0..4).map(move |i| {
///             let k = 1u64 << (2 * i);
///             (k, (bound / k as f64) / bound)
///         })
///     })
///     .collect();
/// let fit = fit_regime_scaled(&pts).unwrap();
/// assert!((fit.exponent + 1.0).abs() < 1e-9);
/// ```
pub fn fit_regime_scaled(points: &[(u64, f64)]) -> Option<RegimeFit> {
    let usable: Vec<(u64, f64)> = points
        .iter()
        .copied()
        .filter(|&(k, t)| k > 0 && t > 0.0 && t.is_finite())
        .collect();
    let mut ks: Vec<u64> = usable.iter().map(|&(k, _)| k).collect();
    ks.sort_unstable();
    ks.dedup();
    if ks.len() < 2 {
        return None; // single point (or nothing measurable): no verdict
    }
    let first_t = usable[0].1;
    if usable.iter().all(|&(_, t)| t == first_t) {
        return None; // constant series: slope carries no information
    }

    let xs: Vec<f64> = usable.iter().map(|&(k, _)| (k as f64).ln()).collect();
    let ys: Vec<f64> = usable.iter().map(|&(_, t)| t.ln()).collect();
    let (_, alpha, power_residual) = least_squares(&xs, &ys);

    // Log model ln T = b − γ·ln(ln k), meaningful only for k ≥ 2.
    let log_subset: Vec<(u64, f64)> = usable.iter().copied().filter(|&(k, _)| k >= 2).collect();
    let mut log_ks: Vec<u64> = log_subset.iter().map(|&(k, _)| k).collect();
    log_ks.sort_unstable();
    log_ks.dedup();
    // The model comparison must be apples-to-apples: refit the power law
    // over the same k ≥ 2 subset, so a k = 1 point the log model never
    // sees cannot inflate the power residual and bias the verdict.
    let (log_coefficient, log_residual, power_residual_on_subset) = if log_ks.len() >= 2 {
        let lx: Vec<f64> = log_subset
            .iter()
            .map(|&(k, _)| (k as f64).ln().ln())
            .collect();
        let px: Vec<f64> = log_subset.iter().map(|&(k, _)| (k as f64).ln()).collect();
        let ly: Vec<f64> = log_subset.iter().map(|&(_, t)| t.ln()).collect();
        let (_, slope, res) = least_squares(&lx, &ly);
        let (_, _, pres) = least_squares(&px, &ly);
        (Some(-slope), Some(res), Some(pres))
    } else {
        (None, None, None)
    };

    let log_wins = match (log_coefficient, log_residual, power_residual_on_subset) {
        (Some(gamma), Some(res), Some(pres)) => {
            (0.5..=1.5).contains(&gamma) && res < pres && alpha > -0.85
        }
        _ => false,
    };
    let regime = if log_wins {
        Regime::LogSpeedup
    } else if alpha < -1.5 {
        Regime::QuadraticSpeedup
    } else if alpha < -0.5 {
        Regime::LinearSpeedup
    } else {
        Regime::Flat
    };
    Some(RegimeFit {
        regime,
        exponent: alpha,
        power_residual,
        log_coefficient,
        log_residual,
    })
}

/// The fitted walk-over-rotor speed-up exponent of a paired curve: the OLS
/// log-log slope of the ratio `T_walk(k) / T_rotor(k)` over the shared `k`
/// support, which equals the difference of the two curves' fitted power
/// exponents. Positive when the deterministic rotor-router's advantage
/// *grows* with `k`.
///
/// ```
/// use rotor_analysis::{fit_regime, speedup_exponent};
/// // rotor ~ k⁻², walk ~ k⁻¹: the rotor advantage grows like k¹.
/// let rotor: Vec<(u64, u64)> = (0..5).map(|i| { let k = 1u64 << i; (k, 1 << (20 - 2 * i)) }).collect();
/// let walk: Vec<(u64, u64)> = (0..5).map(|i| { let k = 1u64 << i; (k, 1 << (20 - i)) }).collect();
/// let s = speedup_exponent(&fit_regime(&rotor).unwrap(), &fit_regime(&walk).unwrap());
/// assert!((s - 1.0).abs() < 1e-9);
/// ```
pub fn speedup_exponent(rotor: &RegimeFit, walk: &RegimeFit) -> f64 {
    walk.exponent - rotor.exponent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_basics() {
        assert_eq!(summarize(&mut []), None);
        let s = summarize(&mut [7]).unwrap();
        assert_eq!((s.count, s.min, s.median, s.max), (1, 7, 7, 7));
        let s = summarize(&mut [4, 2, 8, 6]).unwrap();
        assert_eq!(s.median, 4, "lower median of even count");
    }

    #[test]
    fn median_matches_summary_and_avoids_copy() {
        let mut buf = [3, 1, 2];
        assert_eq!(median(&mut buf), Some(2));
        // the same buffer is reusable (contents permuted, not replaced)
        let mut sorted = buf;
        sorted.sort_unstable();
        assert_eq!(sorted, [1, 2, 3]);
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn median_agrees_with_full_sort_on_many_shapes() {
        for len in 1..40usize {
            let mut v: Vec<u64> = (0..len as u64).map(|i| (i * 7919) % 97).collect();
            let mut sorted = v.clone();
            sorted.sort_unstable();
            assert_eq!(median(&mut v), Some(sorted[(len - 1) / 2]), "length {len}");
        }
    }

    #[test]
    fn bootstrap_band_brackets_the_median_and_reproduces() {
        let samples: Vec<u64> = (0..50).map(|i| 100 + (i * 37) % 11).collect();
        let a = bootstrap_median_band(&samples, 500, 0.95, 42).unwrap();
        let b = bootstrap_median_band(&samples, 500, 0.95, 42).unwrap();
        assert_eq!(a, b, "seeded bootstrap is deterministic");
        let m = median(&mut samples.clone()).unwrap();
        assert!(a.lo <= m && m <= a.hi, "band {a:?} must bracket median {m}");
        // narrower confidence gives a (weakly) narrower band
        let narrow = bootstrap_median_band(&samples, 500, 0.5, 42).unwrap();
        assert!(narrow.hi - narrow.lo <= a.hi - a.lo);
    }

    #[test]
    fn bootstrap_band_degenerate_inputs() {
        assert_eq!(bootstrap_median_band(&[], 100, 0.95, 1), None);
        assert_eq!(bootstrap_median_band(&[5], 0, 0.95, 1), None);
        assert_eq!(bootstrap_median_band(&[5], 100, 1.5, 1), None);
        let single = bootstrap_median_band(&[5], 100, 0.95, 1).unwrap();
        assert_eq!(single, ConfidenceBand { lo: 5, hi: 5 });
    }

    #[test]
    fn slope_of_inverse_square_is_minus_two() {
        // T(k) = 10^6 / k²
        let t = |k: u64| 1_000_000 / (k * k);
        let a = loglog_slope(1, t(1), 4, t(4));
        assert!((a + 2.0).abs() < 0.01, "slope {a}");
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn slope_rejects_equal_k() {
        loglog_slope(2, 10, 2, 20);
    }

    /// Deterministic multiplicative jitter in `[1−amp, 1+amp]`.
    fn jitter(i: u64, amp: f64) -> f64 {
        let h = i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        1.0 + amp * (((h % 2001) as f64 / 1000.0) - 1.0)
    }

    fn power_curve(alpha: f64, noise: f64) -> Vec<(u64, u64)> {
        (0..7)
            .map(|i| {
                let k = 1u64 << i;
                let t = 4.0e9 * (k as f64).powf(alpha) * jitter(i, noise);
                (k, t.round() as u64)
            })
            .collect()
    }

    #[test]
    fn fit_regime_exact_exponents() {
        let quad = fit_regime(&power_curve(-2.0, 0.0)).unwrap();
        assert_eq!(quad.regime, Regime::QuadraticSpeedup);
        assert!((quad.exponent + 2.0).abs() < 0.05, "{}", quad.exponent);

        let lin = fit_regime(&power_curve(-1.0, 0.0)).unwrap();
        assert_eq!(lin.regime, Regime::LinearSpeedup);
        assert!((lin.exponent + 1.0).abs() < 0.05, "{}", lin.exponent);
    }

    #[test]
    fn fit_regime_noisy_exponents() {
        let quad = fit_regime(&power_curve(-2.0, 0.1)).unwrap();
        assert_eq!(quad.regime, Regime::QuadraticSpeedup);
        let lin = fit_regime(&power_curve(-1.0, 0.1)).unwrap();
        assert_eq!(lin.regime, Regime::LinearSpeedup);
        // noisy flat series (α ≈ 0, non-constant)
        let flat = fit_regime(&power_curve(0.0, 0.1)).unwrap();
        assert_eq!(flat.regime, Regime::Flat);
        assert!(flat.exponent.abs() < 0.25, "{}", flat.exponent);
    }

    #[test]
    fn fit_regime_log_worst_case() {
        // T(k) = n² / log₂ k over k = 2 … 256: the paper's worst case.
        let pts: Vec<(u64, u64)> = (1..9)
            .map(|i| {
                let k = 1u64 << i;
                (k, (1.0e9 / i as f64).round() as u64)
            })
            .collect();
        let fit = fit_regime(&pts).unwrap();
        assert_eq!(fit.regime, Regime::LogSpeedup);
        let gamma = fit.log_coefficient.unwrap();
        assert!((gamma - 1.0).abs() < 0.05, "γ = {gamma}");
        assert!(fit.log_residual.unwrap() < fit.power_residual);
    }

    #[test]
    fn fit_regime_noisy_log_worst_case() {
        let pts: Vec<(u64, u64)> = (1..9)
            .map(|i| {
                let k = 1u64 << i;
                (k, (1.0e9 / i as f64 * jitter(i, 0.05)).round() as u64)
            })
            .collect();
        assert_eq!(fit_regime(&pts).unwrap().regime, Regime::LogSpeedup);
    }

    #[test]
    fn fit_regime_degenerate_no_verdict() {
        assert_eq!(fit_regime(&[]), None, "empty");
        assert_eq!(fit_regime(&[(4, 1000)]), None, "single point");
        assert_eq!(
            fit_regime(&[(1, 500), (2, 500), (4, 500), (8, 500)]),
            None,
            "constant series"
        );
        assert_eq!(
            fit_regime(&[(2, 100), (2, 200), (2, 300)]),
            None,
            "one distinct k"
        );
        assert_eq!(fit_regime(&[(0, 10), (1, 0)]), None, "zeros filtered out");
    }

    #[test]
    fn scaled_fit_with_shared_scale_matches_unscaled() {
        for alpha in [-2.0, -1.0, 0.3] {
            let raw = power_curve(alpha, 0.05);
            let plain = fit_regime(&raw).unwrap();
            // One shared normaliser (a fixed-n curve's 2·D·|E| bound) only
            // moves the intercept: slope, residuals and verdict survive.
            let scaled: Vec<(u64, f64)> =
                raw.iter().map(|&(k, t)| (k, t as f64 / 77_000.0)).collect();
            let norm = fit_regime_scaled(&scaled).unwrap();
            assert_eq!(plain.regime, norm.regime);
            assert!((plain.exponent - norm.exponent).abs() < 1e-9);
            assert!((plain.power_residual - norm.power_residual).abs() < 1e-9);
        }
    }

    #[test]
    fn scaled_fit_pools_across_sizes() {
        // T(n, k) = bound(n)·k^(−1)·jitter at three sizes, with the
        // campaign's k-axis shape: k runs up to n/16, so larger sizes
        // reach larger k. Pooling the raw points then correlates large k
        // with large bounds and wrecks the slope; scaling each point by
        // its own size's bound recovers α = −1 cleanly.
        let mut raw: Vec<(u64, u64)> = Vec::new();
        let mut scaled: Vec<(u64, f64)> = Vec::new();
        for (ni, bound) in [65_536u64, 1_048_576, 16_777_216].iter().enumerate() {
            for i in 0..(2 + ni as u64) {
                let k = 1u64 << (2 * i);
                let t = (*bound as f64 / k as f64 * jitter(ni as u64 * 4 + i, 0.03)).round();
                raw.push((k, t as u64));
                scaled.push((k, t / *bound as f64));
            }
        }
        let pooled = fit_regime_scaled(&scaled).unwrap();
        assert_eq!(pooled.regime, Regime::LinearSpeedup);
        assert!((pooled.exponent + 1.0).abs() < 0.1, "{}", pooled.exponent);
        // the unscaled pool is dominated by the size spread, not the k law
        let unscaled = fit_regime(&raw).unwrap();
        assert!(
            (unscaled.exponent + 1.0).abs() > 0.3,
            "raw pooled slope {} should be badly biased",
            unscaled.exponent
        );
    }

    #[test]
    fn scaled_fit_degenerate_inputs() {
        assert_eq!(fit_regime_scaled(&[]), None);
        assert_eq!(fit_regime_scaled(&[(4, 0.5)]), None, "single point");
        assert_eq!(
            fit_regime_scaled(&[(1, 0.5), (2, 0.5), (4, 0.5)]),
            None,
            "constant ratios"
        );
        assert_eq!(
            fit_regime_scaled(&[(1, f64::NAN), (2, 0.5), (0, 1.0), (4, -1.0)]),
            None,
            "non-finite / non-positive / k = 0 all filtered"
        );
    }

    #[test]
    fn speedup_exponent_is_fit_difference() {
        let rotor = fit_regime(&power_curve(-2.0, 0.0)).unwrap();
        let walk = fit_regime(&power_curve(-1.0, 0.0)).unwrap();
        let s = speedup_exponent(&rotor, &walk);
        assert!((s - 1.0).abs() < 0.05, "{s}");
        assert!(speedup_exponent(&walk, &rotor) < 0.0, "antisymmetric");
    }

    #[test]
    fn fit_regime_two_points_prefers_power_on_ties() {
        // Both models fit two points exactly; the power verdict wins ties.
        let fit = fit_regime(&[(2, 4_000_000), (8, 250_000)]).unwrap();
        assert_eq!(fit.regime, Regime::QuadraticSpeedup);
    }
}
