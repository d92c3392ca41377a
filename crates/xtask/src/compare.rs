//! Determinism comparison between two runs of the same experiment: every
//! field must agree except the wall-clock-derived ones — the CI gate that
//! catches shard-order regressions by rerunning the smoke sweeps with 1
//! and 2 worker threads and diffing the reports.

use rotor_analysis::report::Json;

/// Field names whose values legitimately differ between reruns: wall-clock
/// measurements and the worker-thread count itself. Everything else in a
/// report is derived deterministically from the grid seeds, so any other
/// difference is a reproducibility bug.
pub const NONDETERMINISTIC_FIELDS: &[&str] = &[
    "threads",
    "rounds_per_sec",
    "general_rounds_per_sec",
    "ring_over_general",
    "nanos",
    "domain_sampler_speedup_n4096",
];

/// Diffs two parsed reports, ignoring [`NONDETERMINISTIC_FIELDS`]; an
/// empty vector means the runs agree on every deterministic field.
pub fn compare(a: &Json, b: &Json) -> Vec<String> {
    let mut diffs = Vec::new();
    diff(a, b, "$", &mut diffs);
    diffs
}

fn render_short(v: &Json) -> String {
    let body = v.render();
    if body.chars().count() > 60 {
        let head: String = body.chars().take(60).collect();
        format!("{head}…")
    } else {
        body
    }
}

fn diff(a: &Json, b: &Json, path: &str, out: &mut Vec<String>) {
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            let keep = |fields: &[(String, Json)]| -> Vec<(String, Json)> {
                fields
                    .iter()
                    .filter(|(k, _)| !NONDETERMINISTIC_FIELDS.contains(&k.as_str()))
                    .cloned()
                    .collect()
            };
            let (fa, fb) = (keep(fa), keep(fb));
            let keys = |f: &[(String, Json)]| -> Vec<String> {
                f.iter().map(|(k, _)| k.clone()).collect()
            };
            if keys(&fa) != keys(&fb) {
                out.push(format!(
                    "{path}: field sets differ: {:?} vs {:?}",
                    keys(&fa),
                    keys(&fb)
                ));
                return;
            }
            for ((k, va), (_, vb)) in fa.iter().zip(&fb) {
                diff(va, vb, &format!("{path}.{k}"), out);
            }
        }
        (Json::Arr(ia), Json::Arr(ib)) => {
            if ia.len() != ib.len() {
                out.push(format!(
                    "{path}: array lengths differ: {} vs {}",
                    ia.len(),
                    ib.len()
                ));
                return;
            }
            for (i, (va, vb)) in ia.iter().zip(ib).enumerate() {
                // Use curve labels as path segments where available.
                let seg = va
                    .get("label")
                    .and_then(Json::as_str)
                    .map(|l| format!("{path}[{l:?}]"))
                    .unwrap_or_else(|| format!("{path}[{i}]"));
                diff(va, vb, &seg, out);
            }
        }
        _ if values_equal(a, b) => {}
        _ => out.push(format!(
            "{path}: {} vs {}",
            render_short(a),
            render_short(b)
        )),
    }
}

/// Scalar equality: exact for ints/strings/bools/null, bitwise for floats
/// (deterministic reruns reproduce float aggregates bit-for-bit because
/// the sweep driver restores cell order before aggregation). An integral
/// `Num` equals the same-valued `Int`: the two render identically (`0.0`
/// is written as `0`), so a parse→render round trip legitimately moves a
/// value between the variants and must not read as drift.
fn values_equal(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Int(x), Json::Int(y)) => x == y,
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Int(i), Json::Num(x)) | (Json::Num(x), Json::Int(i)) => *x == *i as f64,
        (Json::Str(x), Json::Str(y)) => x == y,
        (Json::Bool(x), Json::Bool(y)) => x == y,
        (Json::Null, Json::Null) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_reports_agree() {
        let a = Json::parse(
            r#"{"schema":"rotor-experiment/1","bench":"b","threads":1,"meta":{},
                "curves":[{"label":"c","meta":{},"fit":null,
                           "points":[{"x":1,"median_cover":5,"rounds_per_sec":9.0}]}]}"#,
        )
        .unwrap();
        assert!(compare(&a, &a).is_empty());
    }

    #[test]
    fn timing_fields_and_thread_count_are_ignored() {
        let a = Json::parse(
            r#"{"schema":"s","bench":"b","threads":1,
                "meta":{"domain_sampler_speedup_n4096":40.0},
                "curves":[{"label":"c","points":[{"x":1,"cover":5,"rounds_per_sec":9.0}]}]}"#,
        )
        .unwrap();
        let b = Json::parse(
            r#"{"schema":"s","bench":"b","threads":2,
                "meta":{"domain_sampler_speedup_n4096":77.0},
                "curves":[{"label":"c","points":[{"x":1,"cover":5,"rounds_per_sec":3.0}]}]}"#,
        )
        .unwrap();
        assert!(compare(&a, &b).is_empty());

        // the ring-vs-general throughput curve is timing through and through
        let ring = |rps: f64, general: f64| {
            Json::parse(&format!(
                r#"{{"curves":[{{"label":"ring_vs_general_rounds_per_sec",
                    "points":[{{"x":1,"k":1,"rounds":1024,"rounds_per_sec":{rps},
                                "general_rounds_per_sec":{general},
                                "ring_over_general":{}}}]}}]}}"#,
                rps / general
            ))
            .unwrap()
        };
        assert!(compare(&ring(9.0, 6.0), &ring(8.0, 2.0)).is_empty());
    }

    #[test]
    fn deterministic_drift_is_reported_with_context() {
        let a = Json::parse(
            r#"{"bench":"b","curves":[{"label":"rotor/n64","points":[{"x":1,"median_cover":5}]}]}"#,
        )
        .unwrap();
        let b = Json::parse(
            r#"{"bench":"b","curves":[{"label":"rotor/n64","points":[{"x":1,"median_cover":6}]}]}"#,
        )
        .unwrap();
        let diffs = compare(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("rotor/n64"), "{diffs:?}");
        assert!(diffs[0].contains("median_cover"), "{diffs:?}");
        assert!(diffs[0].contains("5 vs 6"), "{diffs:?}");
    }

    #[test]
    fn float_comparison_is_bitwise() {
        let a = Json::parse(r#"{"v":0.1}"#).unwrap();
        let b = Json::parse(r#"{"v":0.10000000000000002}"#).unwrap();
        assert_eq!(compare(&a, &b).len(), 1, "near-equal floats still drift");
    }

    #[test]
    fn shape_changes_are_reported() {
        let a = Json::parse(r#"{"curves":[{"label":"c","points":[{"x":1}]}]}"#).unwrap();
        let b = Json::parse(r#"{"curves":[{"label":"c","points":[{"x":1},{"x":2}]}]}"#).unwrap();
        let diffs = compare(&a, &b);
        assert!(diffs[0].contains("array lengths differ"));
    }
}
