//! The `rotor-experiment/1` report validator: generic schema / curve /
//! point invariants plus per-bench rules keyed on the report's `bench`
//! field. Returns every violation found (not just the first), each
//! prefixed with its curve/point context.

use rotor_analysis::report::{Json, SCHEMA};

/// CI-context expectations applied on top of the intrinsic rules.
#[derive(Default)]
pub struct Options {
    /// Require the report's `threads` field to equal this.
    pub expect_threads: Option<u64>,
    /// Require every curve's `meta.n` to stay at or below this (the smoke
    /// grids are capped at n = 256).
    pub max_n: Option<u64>,
}

/// Validates one parsed report; an empty vector means it conforms.
pub fn validate(report: &Json, opts: &Options) -> Vec<String> {
    let mut errors = Vec::new();
    let mut err = |msg: String| errors.push(msg);

    let Some(_) = report.as_obj() else {
        return vec!["report is not a JSON object".into()];
    };
    match report.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => err(format!("schema tag {other:?}, expected {SCHEMA:?}")),
    }
    let bench = report.get("bench").and_then(Json::as_str).unwrap_or("");
    if bench.is_empty() {
        err("bench name missing or empty".into());
    }
    match report.get("threads").and_then(Json::as_u64) {
        None => err("threads missing or not a positive integer".into()),
        Some(0) => err("threads must be >= 1".into()),
        Some(t) => {
            if let Some(expect) = opts.expect_threads {
                if t != expect {
                    err(format!("threads = {t}, expected {expect}"));
                }
            }
        }
    }
    if report.get("meta").and_then(Json::as_obj).is_none() {
        err("meta missing or not an object".into());
    }
    let Some(curves) = report.get("curves").and_then(Json::as_arr) else {
        errors.push("curves missing or not an array".into());
        return errors;
    };
    if curves.is_empty() {
        errors.push("curves must be non-empty".into());
    }

    let mut labels: Vec<&str> = Vec::new();
    for (ci, curve) in curves.iter().enumerate() {
        let label = curve.get("label").and_then(Json::as_str).unwrap_or("");
        let ctx = if label.is_empty() {
            format!("curve #{ci}")
        } else {
            format!("curve {label:?}")
        };
        let mut err = |msg: String| errors.push(format!("{ctx}: {msg}"));
        if label.is_empty() {
            err("label missing or empty".into());
        } else if labels.contains(&label) {
            err("duplicate label".into());
        }
        labels.push(label);

        let meta = curve.get("meta").and_then(Json::as_obj);
        if meta.is_none() {
            err("meta missing or not an object".into());
        }
        if let (Some(cap), Some(n)) = (opts.max_n, curve.get("meta").and_then(|m| m.get("n"))) {
            match n.as_u64() {
                Some(n) if n <= cap => {}
                other => err(format!("meta.n = {other:?} exceeds --max-n {cap}")),
            }
        }
        match curve.get("fit") {
            None => err("fit field missing (must be object or null)".into()),
            Some(f) => check_fit(f, &mut err),
        }
        let Some(points) = curve.get("points").and_then(Json::as_arr) else {
            err("points missing or not an array".into());
            continue;
        };
        if points.is_empty() {
            err("points must be non-empty".into());
            continue;
        }
        let keys = |p: &Json| -> Vec<String> {
            p.as_obj()
                .map(|fields| fields.iter().map(|(k, _)| k.clone()).collect())
                .unwrap_or_default()
        };
        let first_keys = keys(&points[0]);
        for (pi, point) in points.iter().enumerate() {
            let mut err = |msg: String| errors.push(format!("{ctx}: point #{pi}: {msg}"));
            if point.get("x").and_then(Json::as_u64).is_none() {
                err("x missing or not an unsigned integer".into());
            }
            if keys(point) != first_keys {
                err(format!(
                    "field set {:?} differs from the curve's first point {first_keys:?}",
                    keys(point)
                ));
            }
        }
        check_bench_rules(bench, &ctx, curve, points, &mut errors);
    }
    check_report_rules(bench, report, curves, &mut errors);
    errors
}

fn check_fit(fit: &Json, err: &mut impl FnMut(String)) {
    if fit.is_null() {
        return;
    }
    if fit.as_obj().is_none() {
        err("fit must be an object or null".into());
        return;
    }
    if fit.get("regime").and_then(Json::as_str).is_none() {
        err("fit.regime missing or not a string".into());
    }
    for key in ["exponent", "power_residual"] {
        if fit.get(key).and_then(Json::as_f64).is_none() {
            err(format!("fit.{key} missing or not a number"));
        }
    }
    for key in ["log_coefficient", "log_residual"] {
        match fit.get(key) {
            Some(v) if v.is_null() || v.as_f64().is_some() => {}
            other => err(format!("fit.{key} = {other:?}, expected number or null")),
        }
    }
}

/// Whether the x coordinates are strictly increasing (every bench except
/// `engine_throughput`, whose x is a node count across mixed graphs).
fn check_x_increasing(ctx: &str, points: &[Json], errors: &mut Vec<String>) {
    let xs: Vec<u64> = points.iter().filter_map(|p| p.get("x")?.as_u64()).collect();
    if !xs.windows(2).all(|w| w[0] < w[1]) {
        errors.push(format!("{ctx}: x must be strictly increasing, got {xs:?}"));
    }
}

fn int_field(p: &Json, key: &str) -> Result<u64, String> {
    p.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{key} missing or not an unsigned integer"))
}

fn num_field(p: &Json, key: &str) -> Result<f64, String> {
    p.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{key} missing or not a number"))
}

/// Per-bench point rules. Unknown bench names only get the generic checks,
/// so the validator does not reject future experiments out of hand.
fn check_bench_rules(
    bench: &str,
    ctx: &str,
    curve: &Json,
    points: &[Json],
    errors: &mut Vec<String>,
) {
    let meta_has = |key: &str| curve.get("meta").is_some_and(|m| m.get(key).is_some());
    match bench {
        "torus_seg" => {
            check_x_increasing(ctx, points, errors);
            // The campaign canaries the general engine on the torus; a
            // report claiming another engine ran is a wiring regression.
            match curve
                .get("meta")
                .and_then(|m| m.get("backend"))
                .and_then(Json::as_str)
            {
                Some("rotor_general") => {}
                other => errors.push(format!(
                    "{ctx}: meta.backend = {other:?}, expected \"rotor_general\""
                )),
            }
        }
        "table1" => {
            check_x_increasing(ctx, points, errors);
            for (pi, p) in points.iter().enumerate() {
                let mut err = |msg: String| errors.push(format!("{ctx}: point #{pi}: {msg}"));
                // per-column shapes: `cover` for the deterministic worst/
                // best placements, `median_cover` over seeds for random
                if int_field(p, "cover").is_err() && int_field(p, "median_cover").is_err() {
                    err("needs an integer cover or median_cover".into());
                }
                if p.get("rounds_per_sec").is_some() {
                    match num_field(p, "rounds_per_sec") {
                        Ok(r) if r > 0.0 => {}
                        Ok(r) => err(format!("rounds_per_sec = {r} must be > 0")),
                        Err(e) => err(e),
                    }
                }
            }
        }
        "walk_vs_rotor" => {
            check_x_increasing(ctx, points, errors);
            for key in ["process", "placement", "n"] {
                if !meta_has(key) {
                    errors.push(format!("{ctx}: meta.{key} missing"));
                }
            }
            for (pi, p) in points.iter().enumerate() {
                let mut err = |msg: String| errors.push(format!("{ctx}: point #{pi}: {msg}"));
                for key in ["median_cover", "covered"] {
                    if let Err(e) = int_field(p, key) {
                        err(e);
                    }
                }
                match (int_field(p, "band_lo"), int_field(p, "band_hi")) {
                    (Ok(lo), Ok(hi)) if lo <= hi => {}
                    (Ok(lo), Ok(hi)) => err(format!("band_lo {lo} > band_hi {hi}")),
                    (lo, hi) => {
                        for r in [lo, hi] {
                            if let Err(e) = r {
                                err(e);
                            }
                        }
                    }
                }
            }
        }
        "general_graphs" => {
            check_x_increasing(ctx, points, errors);
            for key in ["family", "n", "process"] {
                if !meta_has(key) {
                    errors.push(format!("{ctx}: meta.{key} missing"));
                }
            }
            let process = curve
                .get("meta")
                .and_then(|m| m.get("process"))
                .and_then(Json::as_str)
                .unwrap_or("");
            match process {
                // The paired rotor column: covers against the 2·D·|E|
                // bound plus the §2.2 domain dynamics.
                "rotor" => {
                    for (pi, p) in points.iter().enumerate() {
                        let mut err =
                            |msg: String| errors.push(format!("{ctx}: point #{pi}: {msg}"));
                        for key in ["median_cover", "single_domain_round"] {
                            if let Err(e) = int_field(p, key) {
                                err(e);
                            }
                        }
                        // Bootstrap band around the cover median: the
                        // rotor column always has samples, so both edges
                        // are required integers bracketing the median.
                        match (int_field(p, "band_lo"), int_field(p, "band_hi")) {
                            (Ok(lo), Ok(hi)) if lo > hi => {
                                err(format!("band_lo = {lo} > band_hi = {hi}"));
                            }
                            (Ok(lo), Ok(hi)) => {
                                if let Ok(m) = int_field(p, "median_cover") {
                                    if m < lo || m > hi {
                                        err(format!(
                                            "median_cover = {m} outside its bootstrap \
                                             band [{lo}, {hi}]"
                                        ));
                                    }
                                }
                            }
                            (lo, hi) => {
                                for e in [lo.err(), hi.err()].into_iter().flatten() {
                                    err(e);
                                }
                            }
                        }
                        if let Err(e) = num_field(p, "median_ratio") {
                            err(e);
                        }
                        match int_field(p, "max_domains") {
                            Ok(d) if d >= 1 => {}
                            Ok(d) => err(format!("max_domains = {d} must be >= 1")),
                            Err(e) => err(e),
                        }
                        match num_field(p, "worst_ratio") {
                            Ok(r) if r <= 4.0 => {}
                            Ok(r) => err(format!("worst_ratio = {r} exceeds the 4.0 budget")),
                            Err(e) => err(e),
                        }
                        match p.get("bound_2_d_e") {
                            Some(v) if v.is_null() || v.as_u64().is_some() => {}
                            other => err(format!("bound_2_d_e = {other:?}, expected int or null")),
                        }
                    }
                }
                // The paired random-walk column: the budget does not
                // apply (walks legitimately exceed 2·D·|E|), a cell may
                // time out, so cover fields are nullable with an
                // explicit covered count.
                "walk" => {
                    for (pi, p) in points.iter().enumerate() {
                        let mut err =
                            |msg: String| errors.push(format!("{ctx}: point #{pi}: {msg}"));
                        if let Err(e) = int_field(p, "covered") {
                            err(e);
                        }
                        for key in ["median_cover", "median_ratio", "walk_over_rotor"] {
                            match p.get(key) {
                                Some(v) if v.is_null() || v.as_f64().is_some() => {}
                                other => err(format!("{key} = {other:?}, expected number or null")),
                            }
                        }
                        // Walk bands are nullable (a fully timed-out point
                        // has no covers to bootstrap) but must be ordered
                        // when present.
                        for key in ["band_lo", "band_hi"] {
                            match p.get(key) {
                                Some(v) if v.is_null() || v.as_u64().is_some() => {}
                                other => err(format!("{key} = {other:?}, expected int or null")),
                            }
                        }
                        if let (Some(lo), Some(hi)) = (
                            p.get("band_lo").and_then(Json::as_u64),
                            p.get("band_hi").and_then(Json::as_u64),
                        ) {
                            if lo > hi {
                                err(format!("band_lo = {lo} > band_hi = {hi}"));
                            }
                        }
                    }
                }
                other => errors.push(format!(
                    "{ctx}: meta.process {other:?} must be \"rotor\" or \"walk\""
                )),
            }
        }
        "ring_large_n" => {
            check_x_increasing(ctx, points, errors);
            for key in ["placement", "n", "process"] {
                if !meta_has(key) {
                    errors.push(format!("{ctx}: meta.{key} missing"));
                }
            }
            for (pi, p) in points.iter().enumerate() {
                let mut err = |msg: String| errors.push(format!("{ctx}: point #{pi}: {msg}"));
                let has_cover = int_field(p, "cover").is_ok();
                let has_median = p
                    .get("median_cover")
                    .is_some_and(|v| v.is_null() || v.as_u64().is_some());
                if has_median && int_field(p, "covered").is_err() {
                    err("median_cover column needs an integer covered count".into());
                }
                if !has_cover && !has_median {
                    err("needs cover, or median_cover (int or null) with covered".into());
                }
            }
        }
        "return_time" => {
            check_x_increasing(ctx, points, errors);
            for key in ["family", "n"] {
                if !meta_has(key) {
                    errors.push(format!("{ctx}: meta.{key} missing"));
                }
            }
            for (pi, p) in points.iter().enumerate() {
                let mut err = |msg: String| errors.push(format!("{ctx}: point #{pi}: {msg}"));
                match p.get("found").and_then(Json::as_bool) {
                    None => err("found missing or not a boolean".into()),
                    Some(true) => {
                        if let Err(e) = int_field(p, "tail") {
                            err(e);
                        }
                        match int_field(p, "period") {
                            Ok(period) if period >= 1 => {}
                            Ok(period) => err(format!("period = {period} must be >= 1")),
                            Err(e) => err(e),
                        }
                    }
                    Some(false) => {
                        for key in ["tail", "period"] {
                            if !p.get(key).is_some_and(Json::is_null) {
                                err(format!("{key} must be null when found is false"));
                            }
                        }
                    }
                }
            }
        }
        "recovery" => {
            check_x_increasing(ctx, points, errors);
            for key in ["kind", "family", "n", "process"] {
                if !meta_has(key) {
                    errors.push(format!("{ctx}: meta.{key} missing"));
                }
            }
            for (pi, p) in points.iter().enumerate() {
                let mut err = |msg: String| errors.push(format!("{ctx}: point #{pi}: {msg}"));
                let attempts = match int_field(p, "attempts") {
                    Ok(a) if a >= 1 => Some(a),
                    Ok(a) => {
                        err(format!("attempts = {a} must be >= 1"));
                        None
                    }
                    Err(e) => {
                        err(e);
                        None
                    }
                };
                let recovered = match int_field(p, "recovered") {
                    Ok(r) => Some(r),
                    Err(e) => {
                        err(e);
                        None
                    }
                };
                if let (Some(a), Some(r)) = (attempts, recovered) {
                    if r > a {
                        err(format!("recovered = {r} exceeds attempts = {a}"));
                    }
                }
                // Timeout honesty: the re-cover order statistics exist
                // exactly when something recovered, and are null (never
                // omitted) otherwise.
                match recovered {
                    Some(0) => {
                        for key in ["median_recover", "worst_recover"] {
                            if !p.get(key).is_some_and(Json::is_null) {
                                err(format!("{key} must be null when recovered is 0"));
                            }
                        }
                    }
                    Some(_) => match (
                        int_field(p, "median_recover"),
                        int_field(p, "worst_recover"),
                    ) {
                        (Ok(m), Ok(w)) if m <= w => {}
                        (Ok(m), Ok(w)) => err(format!("median_recover {m} > worst_recover {w}")),
                        (m, w) => {
                            for r in [m, w] {
                                if let Err(e) = r {
                                    err(e);
                                }
                            }
                        }
                    },
                    None => {}
                }
                // Same shape for the optional re-lock-in probe columns.
                let relocked = match int_field(p, "relocked") {
                    Ok(r) => Some(r),
                    Err(e) => {
                        err(e);
                        None
                    }
                };
                if let (Some(a), Some(r)) = (attempts, relocked) {
                    if r > a {
                        err(format!("relocked = {r} exceeds attempts = {a}"));
                    }
                }
                match relocked {
                    Some(0) => {
                        for key in ["median_relock", "median_period"] {
                            if !p.get(key).is_some_and(Json::is_null) {
                                err(format!("{key} must be null when relocked is 0"));
                            }
                        }
                    }
                    Some(_) => {
                        if let Err(e) = int_field(p, "median_relock") {
                            err(e);
                        }
                        match int_field(p, "median_period") {
                            Ok(period) if period >= 1 => {}
                            Ok(period) => err(format!("median_period = {period} must be >= 1")),
                            Err(e) => err(e),
                        }
                    }
                    None => {}
                }
            }
        }
        "engine_throughput" => {
            for (pi, p) in points.iter().enumerate() {
                match num_field(p, "rounds_per_sec") {
                    Ok(r) if r > 0.0 => {}
                    Ok(r) => {
                        errors.push(format!("{ctx}: point #{pi}: rounds_per_sec = {r} not > 0"));
                    }
                    Err(e) => errors.push(format!("{ctx}: point #{pi}: {e}")),
                }
            }
        }
        _ => {}
    }
}

/// Per-bench report-level rules (cross-curve invariants).
fn check_report_rules(bench: &str, report: &Json, curves: &[Json], errors: &mut Vec<String>) {
    if bench == "walk_vs_rotor" {
        let mut placements: Vec<&str> = curves
            .iter()
            .filter_map(|c| c.get("meta")?.get("placement")?.as_str())
            .collect();
        placements.sort_unstable();
        placements.dedup();
        if placements != ["all_on_one", "random"] {
            errors.push(format!(
                "placement columns {placements:?}, expected [\"all_on_one\", \"random\"]"
            ));
        }
    }
    if bench == "general_graphs" {
        // The heredoc this validator replaced asserted the smoke sweep
        // kept its non-ring grid; generalised: at least one curve must be
        // a non-ring family.
        let families: Vec<&str> = curves
            .iter()
            .filter_map(|c| c.get("meta")?.get("family")?.as_str())
            .collect();
        if !families.iter().any(|f| *f != "ring") {
            errors.push(format!(
                "families {families:?} must include at least one non-ring family"
            ));
        }
        // The incremental §2.2 counters must beat the O(n) reference scan
        // by a wide margin (about 30× at n = 4096), not merely at all.
        match report
            .get("meta")
            .and_then(|m| m.get("domain_sampler_speedup_n4096"))
            .and_then(Json::as_f64)
        {
            Some(s) if s >= 5.0 => {}
            Some(s) => errors.push(format!(
                "meta.domain_sampler_speedup_n4096 = {s} must be >= 5 (incremental §2.2 sampling barely beats the scan)"
            )),
            None => errors.push("meta.domain_sampler_speedup_n4096 missing".into()),
        }
        // Paired columns: every family measured with the rotor-router
        // must also carry its random-walk baseline, and vice versa.
        let families_of = |process: &str| -> Vec<&str> {
            let mut fams: Vec<&str> = curves
                .iter()
                .filter(|c| {
                    c.get("meta")
                        .and_then(|m| m.get("process"))
                        .and_then(Json::as_str)
                        == Some(process)
                })
                .filter_map(|c| c.get("meta")?.get("family")?.as_str())
                .collect();
            fams.sort_unstable();
            fams.dedup();
            fams
        };
        let rotor_families = families_of("rotor");
        let walk_families = families_of("walk");
        if rotor_families != walk_families {
            errors.push(format!(
                "rotor families {rotor_families:?} and walk families {walk_families:?} \
                 must pair up"
            ));
        }
        // The per-family 2·D·|E|-scaled exponent summary: one entry per
        // measured family, exponents numeric or null (a degenerate fit).
        match report
            .get("meta")
            .and_then(|m| m.get("speedups"))
            .and_then(Json::as_arr)
        {
            None => errors.push("meta.speedups missing or not an array".into()),
            Some(entries) => {
                let mut summarised: Vec<&str> = Vec::new();
                for (ei, entry) in entries.iter().enumerate() {
                    let mut err = |msg: String| errors.push(format!("meta.speedups[{ei}]: {msg}"));
                    match entry.get("family").and_then(Json::as_str) {
                        Some(f) => summarised.push(f),
                        None => err("family missing or not a string".into()),
                    }
                    for key in ["rotor_exponent", "walk_exponent", "speedup_exponent"] {
                        match entry.get(key) {
                            Some(v) if v.is_null() || v.as_f64().is_some() => {}
                            other => err(format!("{key} = {other:?}, expected number or null")),
                        }
                    }
                }
                summarised.sort_unstable();
                summarised.dedup();
                if !rotor_families.is_empty() && summarised != rotor_families {
                    errors.push(format!(
                        "meta.speedups families {summarised:?} must cover the measured \
                         families {rotor_families:?}"
                    ));
                }
            }
        }
    }
    if bench == "ring_large_n" {
        // The campaign must keep all three table1 columns next to the
        // paired random column.
        let mut placements: Vec<&str> = curves
            .iter()
            .filter_map(|c| c.get("meta")?.get("placement")?.as_str())
            .collect();
        placements.sort_unstable();
        placements.dedup();
        if placements != ["all_on_one", "equally_spaced", "random"] {
            errors.push(format!(
                "placement columns {placements:?}, expected \
                 [\"all_on_one\", \"equally_spaced\", \"random\"]"
            ));
        }
    }
    if bench == "recovery" {
        // The robustness claim needs all three state-disturbance kinds on
        // more than one topology.
        let mut kinds: Vec<&str> = curves
            .iter()
            .filter_map(|c| c.get("meta")?.get("kind")?.as_str())
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        for required in ["churn", "corrupt", "crash"] {
            if !kinds.contains(&required) {
                errors.push(format!(
                    "disturbance kinds {kinds:?} must include {required:?}"
                ));
            }
        }
        let mut families: Vec<&str> = curves
            .iter()
            .filter_map(|c| c.get("meta")?.get("family")?.as_str())
            .collect();
        families.sort_unstable();
        families.dedup();
        if families.len() < 2 {
            errors.push(format!(
                "families {families:?} must span at least two graph families"
            ));
        }
        // The panic-contained driver's ledger must be present even (and
        // especially) when it is zero — its absence means failed cells
        // could vanish silently.
        if report
            .get("meta")
            .and_then(|m| m.get("failed_cells"))
            .and_then(Json::as_u64)
            .is_none()
        {
            errors.push("meta.failed_cells missing or not an unsigned integer".into());
        }
    }
    if bench == "engine_throughput" {
        // The ring fast-path contract: the report must carry the ring
        // cells' rounds/sec against the general engine over the full k
        // ladder, and `RingRouter` must be at least as fast as `Engine`
        // on the same ring at every point.
        const LABEL: &str = "ring_vs_general_rounds_per_sec";
        let ring = curves
            .iter()
            .find(|c| c.get("label").and_then(Json::as_str) == Some(LABEL));
        match ring {
            None => errors.push(format!(
                "missing the ring-vs-general rounds/sec curve (label \"{LABEL}\")"
            )),
            Some(curve) => {
                let points = curve
                    .get("points")
                    .and_then(Json::as_arr)
                    .map(<[Json]>::to_vec)
                    .unwrap_or_default();
                let xs: Vec<u64> = points.iter().filter_map(|p| p.get("x")?.as_u64()).collect();
                if xs != [1, 16, 8192] {
                    errors.push(format!(
                        "ring-vs-general curve x = {xs:?}, expected agent counts [1, 16, 8192]"
                    ));
                }
                for p in &points {
                    let x = p.get("x").and_then(Json::as_u64).unwrap_or_default();
                    let ring = p.get("rounds_per_sec").and_then(Json::as_f64);
                    match (ring, num_field(p, "general_rounds_per_sec")) {
                        (Some(r), Ok(g)) if r >= g => {}
                        (Some(r), Ok(g)) => errors.push(format!(
                            "ring fast path at k = {x} ({r:.0} rounds/sec) is slower than \
                             the general engine ({g:.0} rounds/sec)"
                        )),
                        (_, Err(e)) => errors.push(format!("ring-vs-general k = {x}: {e}")),
                        (None, _) => {}
                    }
                }
            }
        }
    }
    if bench == "return_time" {
        let families: Vec<&str> = curves
            .iter()
            .filter_map(|c| c.get("meta")?.get("family")?.as_str())
            .collect();
        if !families.iter().any(|f| *f != "ring") {
            errors.push(format!(
                "families {families:?} must include at least one non-ring family \
                 (the observer probes run on any scenario)"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(bench: &str, points: &str, curve_meta: &str, report_meta: &str) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"rotor-experiment/1","bench":"{bench}","threads":2,
                 "meta":{report_meta},
                 "curves":[{{"label":"c/1","meta":{curve_meta},"fit":null,
                             "points":{points}}}]}}"#
        ))
        .expect("well-formed test report")
    }

    fn generic_ok() -> Json {
        minimal(
            "custom_bench",
            r#"[{"x":1,"v":2},{"x":2,"v":3}]"#,
            "{}",
            "{}",
        )
    }

    #[test]
    fn accepts_minimal_generic_report() {
        assert_eq!(
            validate(&generic_ok(), &Options::default()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn rejects_wrong_schema_and_missing_fields() {
        let bad = Json::parse(r#"{"schema":"other/9","bench":"","threads":0,"meta":{}}"#).unwrap();
        let errors = validate(&bad, &Options::default());
        assert!(errors.iter().any(|e| e.contains("schema tag")));
        assert!(errors.iter().any(|e| e.contains("bench name")));
        assert!(errors.iter().any(|e| e.contains("threads")));
        assert!(errors.iter().any(|e| e.contains("curves missing")));
    }

    #[test]
    fn rejects_duplicate_labels_and_ragged_points() {
        let report = Json::parse(
            r#"{"schema":"rotor-experiment/1","bench":"b","threads":1,"meta":{},
                "curves":[
                  {"label":"a","meta":{},"fit":null,"points":[{"x":1,"v":2},{"x":2}]},
                  {"label":"a","meta":{},"fit":null,"points":[{"x":1,"v":2}]}
                ]}"#,
        )
        .unwrap();
        let errors = validate(&report, &Options::default());
        assert!(errors.iter().any(|e| e.contains("duplicate label")));
        assert!(errors.iter().any(|e| e.contains("field set")));
    }

    #[test]
    fn thread_and_n_expectations() {
        let report = minimal("b", r#"[{"x":1}]"#, r#"{"n":512}"#, "{}");
        let errors = validate(
            &report,
            &Options {
                expect_threads: Some(4),
                max_n: Some(256),
            },
        );
        assert!(errors.iter().any(|e| e.contains("threads = 2, expected 4")));
        assert!(errors.iter().any(|e| e.contains("exceeds --max-n")));
    }

    #[test]
    fn return_time_rules() {
        let ok = Json::parse(
            r#"{"schema":"rotor-experiment/1","bench":"return_time","threads":2,"meta":{},
                "curves":[
                  {"label":"brent/ring/n16","meta":{"family":"ring","n":16},"fit":null,
                   "points":[{"x":1,"found":true,"tail":91,"period":32}]},
                  {"label":"brent/torus_4x4/n16","meta":{"family":"torus_4x4","n":16},"fit":null,
                   "points":[{"x":1,"found":false,"tail":null,"period":null}]}
                ]}"#,
        )
        .unwrap();
        assert_eq!(validate(&ok, &Options::default()), Vec::<String>::new());

        // found=true with null period, period 0, and a ring-only sweep all fail
        let bad = Json::parse(
            r#"{"schema":"rotor-experiment/1","bench":"return_time","threads":2,"meta":{},
                "curves":[
                  {"label":"brent/ring/n16","meta":{"family":"ring","n":16},"fit":null,
                   "points":[{"x":1,"found":true,"tail":null,"period":null},
                             {"x":2,"found":true,"tail":3,"period":0}]}
                ]}"#,
        )
        .unwrap();
        let errors = validate(&bad, &Options::default());
        assert!(errors.iter().any(|e| e.contains("tail missing")));
        assert!(errors.iter().any(|e| e.contains("period = 0")));
        assert!(errors.iter().any(|e| e.contains("non-ring family")));
    }

    /// A well-formed paired general_graphs report (one family, one n).
    fn paired_general_graphs(family: &str, speedups_family: &str) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"rotor-experiment/1","bench":"general_graphs","threads":2,
                 "meta":{{"domain_sampler_speedup_n4096":40.0,
                          "speedups":[{{"family":"{speedups_family}","rotor_exponent":-1.2,
                                        "walk_exponent":-0.9,"speedup_exponent":0.3}}]}},
                 "curves":[
                   {{"label":"rotor/{family}/n64",
                     "meta":{{"process":"rotor","family":"{family}","n":64}},"fit":null,
                     "points":[{{"x":1,"median_cover":100,"band_lo":90,"band_hi":112,
                                 "median_ratio":0.5,
                                 "bound_2_d_e":200,"worst_ratio":0.6,
                                 "max_domains":2,"single_domain_round":7}}]}},
                   {{"label":"walk/{family}/n64",
                     "meta":{{"process":"walk","family":"{family}","n":64}},"fit":null,
                     "points":[{{"x":1,"covered":3,"median_cover":180,
                                 "band_lo":160,"band_hi":210,
                                 "median_ratio":0.9,"walk_over_rotor":1.8}}]}}
                 ]}}"#
        ))
        .expect("well-formed test report")
    }

    #[test]
    fn general_graphs_rules() {
        let ok = paired_general_graphs("torus_4x4", "torus_4x4");
        assert_eq!(validate(&ok, &Options::default()), Vec::<String>::new());
        let slow_sampler = Json::parse(&ok.render().replace(
            r#""domain_sampler_speedup_n4096":40"#,
            r#""domain_sampler_speedup_n4096":4.5"#,
        ))
        .unwrap();
        assert!(validate(&slow_sampler, &Options::default())
            .iter()
            .any(|e| e.contains("must be >= 5")));

        let bad = minimal(
            "general_graphs",
            r#"[{"x":1,"median_cover":100,"band_lo":120,"band_hi":95,"median_ratio":0.2,
                 "bound_2_d_e":null,
                 "worst_ratio":9.0,"max_domains":0,"single_domain_round":7}]"#,
            r#"{"process":"rotor"}"#,
            "{}",
        );
        let errors = validate(&bad, &Options::default());
        assert!(errors.iter().any(|e| e.contains("worst_ratio")));
        assert!(errors.iter().any(|e| e.contains("max_domains")));
        assert!(errors
            .iter()
            .any(|e| e.contains("band_lo = 120 > band_hi = 95")));
        assert!(errors.iter().any(|e| e.contains("meta.family")));
        assert!(errors.iter().any(|e| e.contains("domain_sampler_speedup")));
        assert!(errors.iter().any(|e| e.contains("meta.speedups")));

        // a rotor point without its bootstrap band must fail, and a
        // median outside its own band is incoherent
        let bandless = minimal(
            "general_graphs",
            r#"[{"x":1,"median_cover":100,"median_ratio":0.5,"bound_2_d_e":200,
                 "worst_ratio":0.6,"max_domains":2,"single_domain_round":7}]"#,
            r#"{"process":"rotor","family":"path","n":64}"#,
            r#"{"domain_sampler_speedup_n4096":40.0,"speedups":[]}"#,
        );
        assert!(validate(&bandless, &Options::default())
            .iter()
            .any(|e| e.contains("band_lo missing")));
        let outside = minimal(
            "general_graphs",
            r#"[{"x":1,"median_cover":100,"band_lo":150,"band_hi":200,"median_ratio":0.5,
                 "bound_2_d_e":200,
                 "worst_ratio":0.6,"max_domains":2,"single_domain_round":7}]"#,
            r#"{"process":"rotor","family":"path","n":64}"#,
            r#"{"domain_sampler_speedup_n4096":40.0,"speedups":[]}"#,
        );
        assert!(validate(&outside, &Options::default())
            .iter()
            .any(|e| e.contains("outside its bootstrap band")));

        // a rotor column whose walk pair is missing must fail
        let unpaired = minimal(
            "general_graphs",
            r#"[{"x":1,"median_cover":100,"band_lo":90,"band_hi":112,"median_ratio":0.5,
                 "bound_2_d_e":200,
                 "worst_ratio":0.6,"max_domains":2,"single_domain_round":7}]"#,
            r#"{"process":"rotor","family":"path","n":64}"#,
            r#"{"domain_sampler_speedup_n4096":40.0,
                "speedups":[{"family":"path","rotor_exponent":null,
                             "walk_exponent":null,"speedup_exponent":null}]}"#,
        );
        assert!(validate(&unpaired, &Options::default())
            .iter()
            .any(|e| e.contains("pair up")));

        // a sweep that silently dropped its non-ring grids must fail
        let ring_only = paired_general_graphs("ring", "ring");
        assert!(validate(&ring_only, &Options::default())
            .iter()
            .any(|e| e.contains("non-ring family")));

        // speedups summarising a family the curves never measured
        let mismatch = paired_general_graphs("torus_4x4", "hypercube_5");
        assert!(validate(&mismatch, &Options::default())
            .iter()
            .any(|e| e.contains("must cover the measured families")));

        // an unknown process column is rejected outright
        let unknown = minimal(
            "general_graphs",
            r#"[{"x":1,"median_cover":1}]"#,
            r#"{"process":"quantum","family":"path","n":8}"#,
            r#"{"domain_sampler_speedup_n4096":40.0,"speedups":[]}"#,
        );
        assert!(validate(&unknown, &Options::default())
            .iter()
            .any(|e| e.contains("must be \"rotor\" or \"walk\"")));
    }

    #[test]
    fn ring_large_n_rules() {
        let ok = Json::parse(
            r#"{"schema":"rotor-experiment/1","bench":"ring_large_n","threads":2,"meta":{},
                "curves":[
                  {"label":"worst/n128","meta":{"process":"rotor","placement":"all_on_one","n":128},
                   "fit":null,"points":[{"x":1,"cover":9000},{"x":4,"cover":4000}]},
                  {"label":"best/n128","meta":{"process":"rotor","placement":"equally_spaced","n":128},
                   "fit":null,"points":[{"x":1,"cover":8000},{"x":4,"cover":700}]},
                  {"label":"rotor/random/n128","meta":{"process":"rotor","placement":"random","n":128},
                   "fit":null,"points":[{"x":1,"covered":2,"median_cover":8500}]},
                  {"label":"walk/random/n128","meta":{"process":"walk","placement":"random","n":128},
                   "fit":null,"points":[{"x":1,"covered":2,"median_cover":9100}]}
                ]}"#,
        )
        .unwrap();
        assert_eq!(validate(&ok, &Options::default()), Vec::<String>::new());

        // a dropped column and a point with neither cover shape both fail
        let bad = Json::parse(
            r#"{"schema":"rotor-experiment/1","bench":"ring_large_n","threads":2,"meta":{},
                "curves":[
                  {"label":"worst/n128","meta":{"process":"rotor","placement":"all_on_one","n":128},
                   "fit":null,"points":[{"x":1,"other":1}]}
                ]}"#,
        )
        .unwrap();
        let errors = validate(&bad, &Options::default());
        assert!(errors.iter().any(|e| e.contains("placement columns")));
        assert!(errors.iter().any(|e| e.contains("needs cover")));
    }

    /// One well-formed recovery point with every column populated.
    const RECOVERY_POINT: &str = r#"{"x":1,"attempts":3,"recovered":3,"median_cover":500,
        "median_recover":120,"worst_recover":300,"relocked":3,"median_relock":64,
        "median_period":32,"max_touched":4,"nanos":1000}"#;

    fn recovery_report_with(points: &str, kind: &str, family: &str, report_meta: &str) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"rotor-experiment/1","bench":"recovery","threads":2,
                 "meta":{report_meta},
                 "curves":[
                   {{"label":"{kind}/{family}/n32",
                     "meta":{{"process":"rotor","kind":"{kind}","family":"{family}","n":32}},
                     "fit":null,"points":{points}}},
                   {{"label":"corrupt/ring/n32",
                     "meta":{{"process":"rotor","kind":"corrupt","family":"ring","n":32}},
                     "fit":null,"points":[{RECOVERY_POINT}]}},
                   {{"label":"crash/ring/n32",
                     "meta":{{"process":"rotor","kind":"crash","family":"ring","n":32}},
                     "fit":null,"points":[{RECOVERY_POINT}]}},
                   {{"label":"churn/tree/n32",
                     "meta":{{"process":"rotor","kind":"churn","family":"binary_tree","n":32}},
                     "fit":null,"points":[{RECOVERY_POINT}]}}
                 ]}}"#
        ))
        .expect("well-formed test report")
    }

    #[test]
    fn recovery_rules() {
        let ok = recovery_report_with(
            // a timed-out point: zero recoveries, all statistics null
            r#"[{"x":1,"attempts":2,"recovered":0,"median_cover":null,
                 "median_recover":null,"worst_recover":null,"relocked":0,
                 "median_relock":null,"median_period":null,"max_touched":0,"nanos":7}]"#,
            "stall",
            "ring",
            r#"{"failed_cells":0}"#,
        );
        assert_eq!(validate(&ok, &Options::default()), Vec::<String>::new());

        // recovered > attempts, non-null-when-zero, median > worst,
        // period 0 — each its own violation
        let bad = recovery_report_with(
            r#"[{"x":1,"attempts":2,"recovered":3,"median_cover":null,
                 "median_recover":400,"worst_recover":300,"relocked":2,
                 "median_relock":10,"median_period":0,"max_touched":1,"nanos":7},
                {"x":4,"attempts":2,"recovered":0,"median_cover":null,
                 "median_recover":17,"worst_recover":null,"relocked":0,
                 "median_relock":null,"median_period":null,"max_touched":1,"nanos":7}]"#,
            "stall",
            "ring",
            r#"{"failed_cells":0}"#,
        );
        let errors = validate(&bad, &Options::default());
        assert!(errors.iter().any(|e| e.contains("exceeds attempts")));
        assert!(errors
            .iter()
            .any(|e| e.contains("median_recover 400 > worst_recover 300")));
        assert!(errors.iter().any(|e| e.contains("median_period = 0")));
        assert!(errors
            .iter()
            .any(|e| e.contains("median_recover must be null when recovered is 0")));

        // missing failed_cells ledger is a violation in itself
        let no_ledger = recovery_report_with(&format!("[{RECOVERY_POINT}]"), "stall", "ring", "{}");
        assert!(validate(&no_ledger, &Options::default())
            .iter()
            .any(|e| e.contains("failed_cells")));

        // dropping a required disturbance kind or the second family fails
        let single_family = Json::parse(&format!(
            r#"{{"schema":"rotor-experiment/1","bench":"recovery","threads":2,
                 "meta":{{"failed_cells":0}},
                 "curves":[{{"label":"corrupt/ring/n32",
                     "meta":{{"process":"rotor","kind":"corrupt","family":"ring","n":32}},
                     "fit":null,"points":[{RECOVERY_POINT}]}}]}}"#
        ))
        .unwrap();
        let errors = validate(&single_family, &Options::default());
        assert!(errors.iter().any(|e| e.contains("must include \"churn\"")));
        assert!(errors.iter().any(|e| e.contains("must include \"crash\"")));
        assert!(errors
            .iter()
            .any(|e| e.contains("at least two graph families")));
    }

    #[test]
    fn walk_vs_rotor_requires_both_placements() {
        let report = Json::parse(
            r#"{"schema":"rotor-experiment/1","bench":"walk_vs_rotor","threads":2,"meta":{},
                "curves":[
                  {"label":"rotor/random/n64","meta":{"process":"rotor","placement":"random","n":64},
                   "fit":null,
                   "points":[{"x":1,"covered":5,"median_cover":9,"band_lo":8,"band_hi":10}]}
                ]}"#,
        )
        .unwrap();
        let errors = validate(&report, &Options::default());
        assert!(errors.iter().any(|e| e.contains("placement columns")));
    }

    /// A well-formed engine_throughput report: the workload curve (x not
    /// monotone by design) plus the required ring-vs-general curve.
    fn throughput_report(ring_points: &str) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"rotor-experiment/1","bench":"engine_throughput","threads":1,
                 "meta":{{}},
                 "curves":[
                   {{"label":"rounds_per_sec","meta":{{}},"fit":null,
                     "points":[{{"x":4096,"rounds_per_sec":1.0}},{{"x":1024,"rounds_per_sec":2.0}}]}},
                   {{"label":"ring_vs_general_rounds_per_sec","meta":{{"n":2097152}},"fit":null,
                     "points":{ring_points}}}
                 ]}}"#
        ))
        .expect("well-formed test report")
    }

    const RING_POINTS: &str = r#"[{"x":1,"rounds_per_sec":130.0,"general_rounds_per_sec":95.0},
        {"x":16,"rounds_per_sec":20.0,"general_rounds_per_sec":14.0},
        {"x":8192,"rounds_per_sec":1.0,"general_rounds_per_sec":0.4}]"#;

    #[test]
    fn engine_throughput_requires_the_ring_vs_general_curve() {
        let ok = throughput_report(RING_POINTS);
        assert_eq!(validate(&ok, &Options::default()), Vec::<String>::new());

        // missing ring curve
        let missing = minimal(
            "engine_throughput",
            r#"[{"x":4096,"rounds_per_sec":1.0}]"#,
            "{}",
            "{}",
        );
        assert!(validate(&missing, &Options::default())
            .iter()
            .any(|e| e.contains("missing the ring-vs-general")));

        // wrong k ladder
        let short = throughput_report(
            r#"[{"x":1,"rounds_per_sec":130.0,"general_rounds_per_sec":95.0},
                {"x":8192,"rounds_per_sec":1.0,"general_rounds_per_sec":0.4}]"#,
        );
        assert!(validate(&short, &Options::default())
            .iter()
            .any(|e| e.contains("expected agent counts")));

        // a ring point slower than the general engine fails, and only it
        let slow = throughput_report(
            r#"[{"x":1,"rounds_per_sec":130.0,"general_rounds_per_sec":95.0},
                {"x":16,"rounds_per_sec":9.0,"general_rounds_per_sec":14.0},
                {"x":8192,"rounds_per_sec":1.0,"general_rounds_per_sec":0.4}]"#,
        );
        let errors = validate(&slow, &Options::default());
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("k = 16") && errors[0].contains("slower"));

        // the general engine's figure is required
        let unpaired = throughput_report(
            r#"[{"x":1,"rounds_per_sec":130.0},
                {"x":16,"rounds_per_sec":20.0,"general_rounds_per_sec":14.0},
                {"x":8192,"rounds_per_sec":1.0,"general_rounds_per_sec":0.4}]"#,
        );
        assert!(validate(&unpaired, &Options::default())
            .iter()
            .any(|e| e.contains("k = 1: general_rounds_per_sec missing")));

        // a rounds_per_sec point <= 0 trips the generic point rule
        let zero = throughput_report(
            r#"[{"x":1,"rounds_per_sec":0.0,"general_rounds_per_sec":0.0},
                {"x":16,"rounds_per_sec":20.0,"general_rounds_per_sec":14.0},
                {"x":8192,"rounds_per_sec":1.0,"general_rounds_per_sec":0.4}]"#,
        );
        assert!(validate(&zero, &Options::default())
            .iter()
            .any(|e| e.contains("rounds_per_sec = 0 not > 0")));
    }

    #[test]
    fn torus_seg_requires_the_general_engine_backend() {
        let points = r#"[{"x":1,"cover":5},{"x":4,"cover":3}]"#;
        let ok = minimal("torus_seg", points, r#"{"backend":"rotor_general"}"#, "{}");
        assert_eq!(validate(&ok, &Options::default()), Vec::<String>::new());

        // the retired row-banded torus backend is a wiring regression
        let banded = minimal(
            "torus_seg",
            points,
            r#"{"backend":"rotor_torus_seg"}"#,
            "{}",
        );
        assert!(validate(&banded, &Options::default())
            .iter()
            .any(|e| e.contains("meta.backend = Some(\"rotor_torus_seg\")")));
    }

    #[test]
    fn x_monotonicity_is_per_bench() {
        let throughput = throughput_report(RING_POINTS);
        assert_eq!(
            validate(&throughput, &Options::default()),
            Vec::<String>::new()
        );

        let table = minimal(
            "table1",
            r#"[{"x":2,"cover":5,"rounds_per_sec":1.0},{"x":1,"cover":9,"rounds_per_sec":1.0}]"#,
            "{}",
            "{}",
        );
        let errors = validate(&table, &Options::default());
        assert!(errors.iter().any(|e| e.contains("strictly increasing")));
    }

    #[test]
    fn table1_accepts_cover_or_median_cover_columns() {
        let ok = minimal(
            "table1",
            r#"[{"x":1,"median_cover":5},{"x":2,"median_cover":4}]"#,
            "{}",
            "{}",
        );
        assert_eq!(validate(&ok, &Options::default()), Vec::<String>::new());
        let bad = minimal("table1", r#"[{"x":1,"other":5}]"#, "{}", "{}");
        assert!(validate(&bad, &Options::default())
            .iter()
            .any(|e| e.contains("cover or median_cover")));
    }
}
