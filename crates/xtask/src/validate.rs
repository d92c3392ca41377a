//! The `rotor-experiment/1` report validator: generic schema / curve /
//! point invariants, plus the [`Rules`] of the report's `bench`. Those
//! rules are data: each bench's [`Rules`] sit in its row of
//! [`CAMPAIGNS`], next to the campaign that writes the report. A bench
//! with no row gets only the generic checks, so the validator does not
//! reject future experiments out of hand. Returns every violation found
//! (not just the first), each prefixed with its curve/point context.
//! Every check is on deterministic data; timings are gated by
//! [`perf`](crate::perf) alone.

use crate::campaign::CAMPAIGNS;
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

/// The rules one bench's reports satisfy beyond the generic checks.
pub struct Rules {
    /// Curve-meta keys every curve carries.
    pub meta_keys: &'static [&'static str],
    /// Curve-meta `(key, value)` pairs every curve carries.
    pub meta_values: &'static [(&'static str, &'static str)],
    /// Checks on every point.
    pub points: &'static [Check],
    /// Further point checks per `meta.process`, for benches that pair
    /// rotor and walk columns; when non-empty, every curve's process must
    /// be one of these.
    pub per_process: &'static [(&'static str, &'static [Check])],
    /// Report-level rules.
    pub report: &'static [ReportRule],
}

impl Rules {
    /// No rules beyond the generic checks; `..Rules::GENERIC` fills the
    /// fields a bench leaves unused.
    pub const GENERIC: Rules = Rules {
        meta_keys: &[],
        meta_values: &[],
        points: &[],
        per_process: &[],
        report: &[],
    };
}

/// The JSON type a checked field holds.
#[derive(Clone, Copy, Debug)]
pub enum Ty {
    /// An unsigned integer.
    Int,
    /// A number (integers included).
    Num,
    /// A boolean.
    Bool,
    /// A string.
    Str,
}

/// Whether a checked field may be null.
#[derive(Clone, Copy, Debug)]
pub enum Presence {
    /// Present and of its type.
    Required,
    /// Present, and of its type or null.
    Nullable,
}

/// A bound on a checked field's value.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// Any value.
    Any,
    /// At least the bound.
    AtLeast(f64),
    /// At most the bound.
    AtMost(f64),
}

/// One rule on a JSON object: a point, the report meta or a summary entry.
#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// Field `key` holds a `Ty`, or null where `Presence` allows, and its
    /// numeric value satisfies `Bound`.
    Field(&'static str, Ty, Presence, Bound),
    /// The first field is at most the second whenever both are integers.
    Ordered(&'static str, &'static str),
    /// The first field lies in its bootstrap band `[second, third]`
    /// whenever all three are integers and the band is ordered.
    InBand(&'static str, &'static str, &'static str),
    /// When the gate field is `false` or `0`, every listed field is null;
    /// when it is `true` or positive, the checks hold.
    Gate(&'static str, &'static [&'static str], &'static [Check]),
    /// The checks of at least one alternative all hold.
    AnyOf(&'static [&'static [Check]]),
}

/// A required unsigned-integer field.
pub const fn int(key: &'static str) -> Check {
    Check::Field(key, Ty::Int, Presence::Required, Bound::Any)
}

/// A required number.
pub const fn num(key: &'static str) -> Check {
    Check::Field(key, Ty::Num, Presence::Required, Bound::Any)
}

/// A required boolean.
pub const fn flag(key: &'static str) -> Check {
    Check::Field(key, Ty::Bool, Presence::Required, Bound::Any)
}

impl Check {
    /// The same field, which may also be null.
    pub const fn or_null(self) -> Check {
        match self {
            Check::Field(key, ty, _, bound) => Check::Field(key, ty, Presence::Nullable, bound),
            other => other,
        }
    }

    /// The same field under `bound`.
    pub const fn bounded(self, bound: Bound) -> Check {
        match self {
            Check::Field(key, ty, presence, _) => Check::Field(key, ty, presence, bound),
            other => other,
        }
    }

    fn check(&self, obj: &Json, err: &mut dyn FnMut(String)) {
        let uint = |key: &str| obj.get(key).and_then(Json::as_u64);
        match *self {
            Check::Field(key, ty, presence, bound) => {
                let v = obj.get(key);
                let (is, name, short) = match ty {
                    Ty::Int => (
                        v.and_then(Json::as_u64).is_some(),
                        "an unsigned integer",
                        "int",
                    ),
                    Ty::Num => (v.and_then(Json::as_f64).is_some(), "a number", "number"),
                    Ty::Bool => (v.and_then(Json::as_bool).is_some(), "a boolean", "bool"),
                    Ty::Str => (v.and_then(Json::as_str).is_some(), "a string", "string"),
                };
                match (v, presence) {
                    _ if is => {}
                    (Some(v), Presence::Nullable) if v.is_null() => {}
                    (other, Presence::Nullable) => {
                        err(format!("{key} = {other:?}, expected {short} or null"));
                    }
                    _ => err(format!("{key} missing or not {name}")),
                }
                let Some(x) = v.and_then(Json::as_f64) else {
                    return;
                };
                let (ok, op, b) = match bound {
                    Bound::Any => (true, "", 0.0),
                    Bound::AtLeast(b) => (x >= b, ">=", b),
                    Bound::AtMost(b) => (x <= b, "<=", b),
                };
                if !ok {
                    err(format!("{key} = {x} must be {op} {b}"));
                }
            }
            Check::Ordered(a, b) => {
                if let (Some(x), Some(y)) = (uint(a), uint(b)) {
                    if x > y {
                        err(format!("{a} = {x} > {b} = {y}"));
                    }
                }
            }
            Check::InBand(key, lo, hi) => {
                if let (Some(m), Some(l), Some(h)) = (uint(key), uint(lo), uint(hi)) {
                    if l <= h && !(l..=h).contains(&m) {
                        err(format!("{key} = {m} outside its bootstrap band [{l}, {h}]"));
                    }
                }
            }
            Check::Gate(gate, nulls, then) => match obj.get(gate) {
                Some(v) if v.as_bool() == Some(false) || v.as_u64() == Some(0) => {
                    for key in nulls {
                        if !obj.get(key).is_some_and(Json::is_null) {
                            err(format!("{key} must be null when {gate} is {}", v.render()));
                        }
                    }
                }
                Some(v) if v.as_bool() == Some(true) || v.as_u64().is_some() => {
                    for c in then {
                        c.check(obj, err);
                    }
                }
                _ => {}
            },
            Check::AnyOf(alternatives) => {
                let holds = |alt: &[Check]| {
                    let mut failed = false;
                    for c in alt {
                        c.check(obj, &mut |_| failed = true);
                    }
                    !failed
                };
                if !alternatives.iter().any(|alt| holds(alt)) {
                    let names: Vec<String> = alternatives
                        .iter()
                        .map(|alt| {
                            let keys: Vec<&str> = alt.iter().filter_map(Check::key).collect();
                            keys.join(" with ")
                        })
                        .collect();
                    err(format!("needs {}", names.join(" or ")));
                }
            }
        }
    }

    fn key(&self) -> Option<&'static str> {
        match *self {
            Check::Field(key, ..) => Some(key),
            _ => None,
        }
    }
}

/// A test on the distinct values of one curve-meta key.
#[derive(Clone, Copy, Debug)]
pub enum SetTest {
    /// The values are exactly these (sorted).
    Exactly(&'static [&'static str]),
    /// The values include each of these.
    Includes(&'static [&'static str]),
    /// At least two values.
    Several,
    /// Some value other than this one.
    NotOnly(&'static str),
}

/// A rule on a whole report (a cross-curve invariant).
#[derive(Clone, Copy)]
pub enum ReportRule {
    /// The distinct values of every curve's `meta.<key>` (the first
    /// field), called by the second field in messages, pass the test.
    Distinct(&'static str, &'static str, SetTest),
    /// Checks on the report's own `meta` object.
    Meta(&'static [Check]),
    /// A rule with no common shape.
    Custom(fn(&Json, &[Json], &mut Vec<String>)),
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
    let rules = CAMPAIGNS
        .iter()
        .find(|c| c.bench == bench)
        .map_or(&Rules::GENERIC, |c| &c.rules);

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
        let xs: Vec<u64> = points.iter().filter_map(|p| p.get("x")?.as_u64()).collect();
        if !xs.windows(2).all(|w| w[0] < w[1]) {
            err(format!("x must be strictly increasing, got {xs:?}"));
        }
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
        rules.check_curve(&ctx, curve, points, &mut errors);
    }
    rules.check_report(report, curves, &mut errors);
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

/// `curve.meta.<key>` as a string.
fn meta_str<'a>(curve: &'a Json, key: &str) -> Option<&'a str> {
    curve.get("meta")?.get(key)?.as_str()
}

/// The sorted distinct values.
fn distinct<'a>(values: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut values: Vec<&str> = values.collect();
    values.sort_unstable();
    values.dedup();
    values
}

impl Rules {
    fn check_curve(&self, ctx: &str, curve: &Json, points: &[Json], errors: &mut Vec<String>) {
        for key in self.meta_keys {
            if curve.get("meta").and_then(|m| m.get(key)).is_none() {
                errors.push(format!("{ctx}: meta.{key} missing"));
            }
        }
        for &(key, want) in self.meta_values {
            match meta_str(curve, key) {
                Some(v) if v == want => {}
                other => errors.push(format!("{ctx}: meta.{key} = {other:?}, expected {want:?}")),
            }
        }
        let mut checks: Vec<&Check> = self.points.iter().collect();
        if !self.per_process.is_empty() {
            let process = meta_str(curve, "process").unwrap_or("");
            match self.per_process.iter().find(|(p, _)| *p == process) {
                Some((_, process_checks)) => checks.extend(process_checks.iter()),
                None => {
                    let known: Vec<String> = self
                        .per_process
                        .iter()
                        .map(|(p, _)| format!("{p:?}"))
                        .collect();
                    errors.push(format!(
                        "{ctx}: meta.process {process:?} must be {}",
                        known.join(" or ")
                    ));
                }
            }
        }
        for (pi, p) in points.iter().enumerate() {
            for c in &checks {
                c.check(p, &mut |msg| {
                    errors.push(format!("{ctx}: point #{pi}: {msg}"));
                });
            }
        }
    }

    fn check_report(&self, report: &Json, curves: &[Json], errors: &mut Vec<String>) {
        for rule in self.report {
            match *rule {
                ReportRule::Distinct(key, noun, test) => {
                    let found = distinct(curves.iter().filter_map(|c| meta_str(c, key)));
                    match test {
                        SetTest::Exactly(want) if found != want => {
                            errors.push(format!("{noun} {found:?}, expected {want:?}"));
                        }
                        SetTest::Includes(want) => {
                            for v in want.iter().filter(|v| !found.contains(v)) {
                                errors.push(format!("{noun} {found:?} must include {v:?}"));
                            }
                        }
                        SetTest::Several if found.len() < 2 => {
                            errors.push(format!("{noun} {found:?} must span at least two {noun}"));
                        }
                        SetTest::NotOnly(v) if found.iter().all(|f| *f == v) => errors.push(
                            format!("{noun} {found:?} must include at least one non-{v} {key}"),
                        ),
                        _ => {}
                    }
                }
                ReportRule::Meta(checks) => {
                    let meta = report.get("meta").unwrap_or(&Json::Null);
                    for c in checks {
                        c.check(meta, &mut |msg| errors.push(format!("meta: {msg}")));
                    }
                }
                ReportRule::Custom(rule) => rule(report, curves, errors),
            }
        }
    }
}

/// The checks on each `general_graphs` `meta.speedups` entry.
const SPEEDUP_ENTRY: &[Check] = &[
    Check::Field("family", Ty::Str, Presence::Required, Bound::Any),
    num("rotor_exponent").or_null(),
    num("walk_exponent").or_null(),
    num("speedup_exponent").or_null(),
];

/// `general_graphs`' paired columns: every family measured with the
/// rotor-router also carries its random-walk baseline, and vice versa,
/// and `meta.speedups` holds one `2·D·|E|`-scaled exponent entry per
/// measured family, exponents numeric or null (a degenerate fit).
pub fn paired_speedups(report: &Json, curves: &[Json], errors: &mut Vec<String>) {
    let families_of = |process: &str| {
        distinct(
            curves
                .iter()
                .filter(|c| meta_str(c, "process") == Some(process))
                .filter_map(|c| meta_str(c, "family")),
        )
    };
    let rotor_families = families_of("rotor");
    let walk_families = families_of("walk");
    if rotor_families != walk_families {
        errors.push(format!(
            "rotor families {rotor_families:?} and walk families {walk_families:?} \
             must pair up"
        ));
    }
    let Some(entries) = report
        .get("meta")
        .and_then(|m| m.get("speedups"))
        .and_then(Json::as_arr)
    else {
        errors.push("meta.speedups missing or not an array".into());
        return;
    };
    for (ei, entry) in entries.iter().enumerate() {
        for c in SPEEDUP_ENTRY {
            c.check(entry, &mut |msg| {
                errors.push(format!("meta.speedups[{ei}]: {msg}"));
            });
        }
    }
    let summarised = distinct(entries.iter().filter_map(|e| e.get("family")?.as_str()));
    if !rotor_families.is_empty() && summarised != rotor_families {
        errors.push(format!(
            "meta.speedups families {summarised:?} must cover the measured \
             families {rotor_families:?}"
        ));
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
                 "meta":{{"speedups":[{{"family":"{speedups_family}","rotor_exponent":-1.2,
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
        assert!(errors.iter().any(|e| e.contains("meta.speedups")));

        // a rotor point without its bootstrap band must fail, and a
        // median outside its own band is incoherent
        let bandless = minimal(
            "general_graphs",
            r#"[{"x":1,"median_cover":100,"median_ratio":0.5,"bound_2_d_e":200,
                 "worst_ratio":0.6,"max_domains":2,"single_domain_round":7}]"#,
            r#"{"process":"rotor","family":"path","n":64}"#,
            r#"{"speedups":[]}"#,
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
            r#"{"speedups":[]}"#,
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
            r#"{"speedups":[{"family":"path","rotor_exponent":null,
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
            r#"{"speedups":[]}"#,
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
        "median_period":32,"max_touched":4}"#;

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
                 "median_relock":null,"median_period":null,"max_touched":0}]"#,
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
                 "median_relock":10,"median_period":0,"max_touched":1},
                {"x":4,"attempts":2,"recovered":0,"median_cover":null,
                 "median_recover":17,"worst_recover":null,"relocked":0,
                 "median_relock":null,"median_period":null,"max_touched":1}]"#,
            "stall",
            "ring",
            r#"{"failed_cells":0}"#,
        );
        let errors = validate(&bad, &Options::default());
        assert!(errors
            .iter()
            .any(|e| e.contains("recovered = 3 > attempts = 2")));
        assert!(errors
            .iter()
            .any(|e| e.contains("median_recover = 400 > worst_recover = 300")));
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
    fn x_strictly_increases_on_every_bench() {
        for bench in ["table1", "custom_bench"] {
            for points in [
                r#"[{"x":2,"cover":5},{"x":1,"cover":9}]"#,
                r#"[{"x":1,"cover":5},{"x":1,"cover":9}]"#,
            ] {
                let errors = validate(&minimal(bench, points, "{}", "{}"), &Options::default());
                assert!(
                    errors.iter().any(|e| e.contains("strictly increasing")),
                    "{bench}: {errors:?}"
                );
            }
        }
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
