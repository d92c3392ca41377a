//! The one experiment-report schema every `BENCH_<name>.json` goes
//! through.
//!
//! Every report is named [`Curve`]s of [`Point`]s, each curve with an
//! optional [`RegimeFit`] verdict, wrapped by [`report_json`] and written
//! with [`write_summary`]; the layout is tagged with [`SCHEMA`] so
//! consumers can detect drift. The underlying [`Json`]
//! value builder (hand-rolled — serde is not available in the offline
//! build environment) lives here too and remains available for free-form
//! extras inside `meta` / point fields.
//!
//! Schema (`rotor-experiment/1`):
//!
//! ```json
//! {
//!   "schema": "rotor-experiment/1",
//!   "bench": "<name>",
//!   "threads": 2,
//!   "meta": { ...bench-wide scalars... },
//!   "curves": [
//!     {
//!       "label": "rotor/random/n1024",
//!       "meta": { "n": 1024, "process": "rotor", ... },
//!       "fit": { "regime": "LogSpeedup", "exponent": -0.7, ... } | null,
//!       "points": [ { "x": 1, "cover": 252574, ... }, ... ]
//!     }
//!   ]
//! }
//! ```
//!
//! Point fields are bench-specific; the instrumented ones are:
//!
//! * `return_time` — `found` (bool; whether Brent certified a cycle within
//!   the step budget), `tail` (`μ`, the transient length; `null` when not
//!   found) and `period` (the configuration period `λ`; `null` when not
//!   found), per (family, n) curve with `k` on the x axis;
//! * `general_graphs` — alongside `median_cover` / `bound_2_d_e` /
//!   `worst_ratio`, the §2.2 domain-dynamics columns `max_domains` (peak
//!   count of maximal contiguous visited index segments over the run,
//!   worst repetition) and `single_domain_round` (first round from which
//!   the domain count stays at 1, latest repetition).
//!
//! Reports are parsed back (for the `xtask` validator and the
//! determinism-drift comparison in CI) with [`Json::parse`], the exact
//! inverse of [`Json::render`] on this module's output.

use crate::RegimeFit;
use std::path::{Path, PathBuf};

/// Schema tag written into every report (bump on layout changes).
pub const SCHEMA: &str = "rotor-experiment/1";

/// A JSON value, built by hand (no serde in the offline environment).
#[derive(Clone, Debug)]
pub enum Json {
    /// An integer (emitted without a decimal point).
    Int(u64),
    /// A float (emitted with enough precision for round-tripping).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Serialises the value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Null => out.push_str("null"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parses a JSON document — the inverse of [`render`](Self::render),
    /// accepting standard JSON (the subset plus the generality: numbers,
    /// strings with escapes, nested arrays/objects, whitespace).
    ///
    /// Non-negative integers without fraction or exponent parse as
    /// [`Json::Int`]; every other number parses as [`Json::Num`].
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first violation.
    ///
    /// ```
    /// use rotor_analysis::report::Json;
    ///
    /// let v = Json::parse(r#"{"x": 1, "ok": true, "rate": 1.5}"#).unwrap();
    /// assert_eq!(v.get("x").and_then(Json::as_u64), Some(1));
    /// assert_eq!(v.get("rate").and_then(Json::as_f64), Some(1.5));
    /// ```
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for missing keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer ([`Json::Int`] only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float ([`Json::Num`], or [`Json::Int`] widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as ordered object fields.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

/// Maximum container nesting [`Json::parse`] accepts. The parser is
/// recursive, so unbounded depth would let a hostile (or simply corrupt)
/// report overflow the stack instead of returning an error; every report
/// this workspace writes nests 5 levels deep.
pub const MAX_PARSE_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if depth >= MAX_PARSE_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} at byte {}",
            *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte '{}' at {}", *c as char, *pos)),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("expected digits at byte {}", *pos));
    }
    // RFC 8259: no leading zeros ("01" is two tokens, i.e. invalid here).
    if b[digits_start] == b'0' && *pos > digits_start + 1 {
        return Err(format!("leading zero in number at byte {digits_start}"));
    }
    let int_end = *pos;
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("expected digits after '.' at byte {}", *pos));
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("expected exponent digits at byte {}", *pos));
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    // Non-negative, fraction- and exponent-free values are Int; everything
    // else (negatives, decimals, exponents, > u64::MAX) widens to Num.
    if b[start] != b'-' && *pos == int_end {
        if let Ok(i) = text.parse::<u64>() {
            return Ok(Json::Int(i));
        }
    }
    // Values overflowing f64 parse as ±inf, which render() would silently
    // rewrite to null — reject them here so parse stays render's inverse.
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Json::Num(x)),
        _ => Err(format!("invalid number '{text}' at byte {start}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = parse_hex4(b, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // surrogate pair: expect the low half
                            if b.get(*pos) == Some(&b'\\') && b.get(*pos + 1) == Some(&b'u') {
                                *pos += 2;
                                let lo = parse_hex4(b, pos)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!("invalid low surrogate at byte {}", *pos));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return Err(format!("lone surrogate at byte {}", *pos));
                            }
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint at byte {}", *pos))?,
                        );
                    }
                    c => {
                        return Err(format!(
                            "invalid escape '\\{}' at byte {}",
                            *c as char, *pos
                        ))
                    }
                }
            }
            Some(_) => {
                // advance by one UTF-8 character
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let chunk = b
        .get(*pos..*pos + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
    let text = std::str::from_utf8(chunk).map_err(|_| "non-ascii \\u escape".to_string())?;
    let v = u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape '{text}'"))?;
    *pos += 4;
    Ok(v)
}

/// One measured point of a [`Curve`]: the sweep coordinate `x` (agent
/// count `k` for cover curves, node count for throughput curves) plus the
/// measured fields.
#[derive(Clone, Debug)]
pub struct Point {
    /// Sweep coordinate.
    pub x: u64,
    /// Measured fields, in emission order (e.g. `cover`, `band_lo`).
    pub fields: Vec<(String, Json)>,
}

impl Point {
    /// A point at `x` with the given fields.
    pub fn new(x: u64, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Point {
        Point {
            x,
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// The point as a [`Json`] object (`x` first, then the fields in
    /// emission order).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![("x".to_string(), Json::Int(self.x))];
        obj.extend(self.fields.iter().cloned());
        Json::Obj(obj)
    }
}

/// One named series of a report: points along a sweep axis under fixed
/// curve-level metadata, with an optional [`RegimeFit`] verdict.
#[derive(Clone, Debug)]
pub struct Curve {
    /// Stable identifier, conventionally `process/placement/nN` for cover
    /// curves (e.g. `"rotor/all_on_one/n1024"`).
    pub label: String,
    /// Curve-level metadata (family, n, placement, …).
    pub meta: Vec<(String, Json)>,
    /// Regime classification of the curve, when one was fitted.
    pub fit: Option<RegimeFit>,
    /// The measured points, in sweep order.
    pub points: Vec<Point>,
}

impl Curve {
    /// An empty curve with the given label.
    pub fn new(label: impl Into<String>) -> Curve {
        Curve {
            label: label.into(),
            meta: Vec::new(),
            fit: None,
            points: Vec::new(),
        }
    }

    /// Adds a curve-level metadata field (builder style).
    pub fn meta(mut self, key: &str, value: Json) -> Curve {
        self.meta.push((key.to_string(), value));
        self
    }

    /// The curve as a [`Json`] object in the `rotor-experiment/1` layout —
    /// public so campaign state files can persist per-unit curves and
    /// splice them back into an assembled report.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".to_string(), Json::Str(self.label.clone())),
            ("meta".to_string(), Json::Obj(self.meta.clone())),
            ("fit".to_string(), fit_json(&self.fit)),
            (
                "points".to_string(),
                Json::Arr(self.points.iter().map(Point::to_json).collect()),
            ),
        ])
    }
}

/// Serialises a [`RegimeFit`] (or `null` when no verdict was possible).
pub fn fit_json(fit: &Option<RegimeFit>) -> Json {
    match fit {
        Some(f) => Json::obj([
            ("regime", Json::Str(format!("{:?}", f.regime))),
            ("exponent", Json::Num(f.exponent)),
            ("power_residual", Json::Num(f.power_residual)),
            (
                "log_coefficient",
                f.log_coefficient.map(Json::Num).unwrap_or(Json::Null),
            ),
            (
                "log_residual",
                f.log_residual.map(Json::Num).unwrap_or(Json::Null),
            ),
        ]),
        None => Json::Null,
    }
}

/// A complete experiment report in the `rotor-experiment/1` layout: the
/// envelope (schema tag, bench name, worker threads, report meta) around
/// the rendered curves, in that key order. Every `BENCH_<bench>.json` is
/// built here.
pub fn report_json(bench: &str, threads: usize, meta: Json, curves: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("bench".into(), Json::Str(bench.into())),
        ("threads".into(), Json::Int(threads as u64)),
        ("meta".into(), meta),
        ("curves".into(), Json::Arr(curves)),
    ])
}

/// The canonical output path for a bench summary: `BENCH_<name>.json`
/// at the repository root (two levels above this crate's manifest).
pub fn bench_json_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(format!("BENCH_{name}.json"))
}

/// Writes the summary and returns the path written to.
///
/// # Panics
///
/// Panics on I/O errors — a campaign that cannot record its report
/// should fail loudly, not silently.
pub fn write_summary(name: &str, value: &Json) -> PathBuf {
    let path = bench_json_path(name);
    let mut body = value.render();
    body.push('\n');
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Regime;

    #[test]
    fn renders_nested_structures() {
        let v = Json::obj([
            ("name", Json::Str("table1".into())),
            ("n", Json::Int(1024)),
            ("ok", Json::Bool(true)),
            ("rate", Json::Num(1.5)),
            ("none", Json::Null),
            ("rows", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"table1","n":1024,"ok":true,"rate":1.5,"none":null,"rows":[1,2]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = Json::Str("a\"b\\c\nd".into());
        assert_eq!(v.render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn nan_becomes_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn path_is_repo_root() {
        let p = bench_json_path("x");
        assert!(p.ends_with("../../BENCH_x.json"), "{}", p.display());
    }

    #[test]
    fn report_layout_is_schema_tagged() {
        let mut curve = Curve::new("rotor/random/n64").meta("n", Json::Int(64));
        curve
            .points
            .push(Point::new(1, [("cover", Json::Int(900))]));
        curve
            .points
            .push(Point::new(2, [("cover", Json::Int(400))]));
        let meta = Json::obj([("seed_count", Json::Int(5))]);
        let body = report_json("demo", 2, meta, vec![curve.to_json()]).render();
        assert!(body.starts_with(r#"{"schema":"rotor-experiment/1","bench":"demo","threads":2"#));
        assert!(body.contains(r#""meta":{"seed_count":5}"#));
        assert!(body.contains(r#""label":"rotor/random/n64""#));
        assert!(body.contains(r#""fit":null"#));
        assert!(body.contains(r#""points":[{"x":1,"cover":900},{"x":2,"cover":400}]"#));
    }

    #[test]
    fn parse_round_trips_rendered_reports() {
        let mut curve = Curve::new("rotor/random/n64").meta("n", Json::Int(64));
        curve.points.push(Point::new(
            1,
            [
                ("cover", Json::Int(900)),
                ("ratio", Json::Num(0.25)),
                ("found", Json::Bool(true)),
                ("bound", Json::Null),
            ],
        ));
        let meta = Json::obj([("note", Json::Str("a\"b\n".into()))]);
        let body = report_json("demo", 2, meta, vec![curve.to_json()]).render();
        let parsed = Json::parse(&body).expect("round trip");
        assert_eq!(parsed.render(), body, "parse inverts render");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(parsed.get("threads").and_then(Json::as_u64), Some(2));
        let curves = parsed.get("curves").and_then(Json::as_arr).unwrap();
        let p0 = curves[0].get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(p0[0].get("ratio").and_then(Json::as_f64), Some(0.25));
        assert_eq!(p0[0].get("found").and_then(Json::as_bool), Some(true));
        assert!(p0[0].get("bound").unwrap().is_null());
        assert!(p0[0].get("missing").is_none());
    }

    #[test]
    fn parse_accepts_general_json() {
        let v =
            Json::parse(" { \"a\" : [ 1 , -2.5 , 1e3 , \"\\u0041\\ud83d\\ude00\" ] } ").unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(1000.0));
        assert_eq!(arr[3].as_str(), Some("A😀"));
    }

    #[test]
    fn parse_int_vs_num_boundary() {
        assert!(matches!(Json::parse("7").unwrap(), Json::Int(7)));
        assert!(matches!(Json::parse("7.0").unwrap(), Json::Num(_)));
        assert!(matches!(Json::parse("-7").unwrap(), Json::Num(_)));
        assert!(matches!(Json::parse("7e2").unwrap(), Json::Num(_)));
        // beyond u64: widens instead of failing
        assert!(matches!(
            Json::parse("99999999999999999999999").unwrap(),
            Json::Num(_)
        ));
        // beyond f64: overflows to inf, which render() would turn into
        // null — rejected so parse stays the inverse of render
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("-1e999").is_err());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "01x",
            "1 2",
            "{\"a\" 1}",
            "[1]]",
            // RFC 8259 number grammar
            "01",
            "-01",
            "1.",
            "1.e3",
            "1e",
            "1e+",
            ".5",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
        // zero itself (and fraction/exponent forms of it) remains valid
        assert!(matches!(Json::parse("0").unwrap(), Json::Int(0)));
        assert!(Json::parse("0.5").is_ok());
        assert!(Json::parse("-0.5").is_ok());
        assert!(Json::parse("0e0").is_ok());
    }

    #[test]
    fn parse_escape_sequences_exhaustively() {
        // every single-character escape, in one string
        let v = Json::parse(r#""\"\\\/\b\f\n\r\t""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\t"));
        // \u escapes: BMP, mixed-case hex, surrogate pair, NUL
        let v = Json::parse("\"\\u0041\\u00e9\\u265E\\ud83d\\uDE00\\u0000\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}\u{265e}\u{1f600}\u{0}"));
        // render→parse agree on control characters (render emits \u00XX)
        let rendered = Json::Str("a\u{1}\u{1f}b".into()).render();
        assert_eq!(
            Json::parse(&rendered).unwrap().as_str(),
            Some("a\u{1}\u{1f}b")
        );
        // malformed escapes all fail with an error, never panic
        for bad in [
            r#""\x""#,           // unknown escape
            r#""\u12""#,         // truncated hex
            r#""\u12g4""#,       // non-hex digit
            r#""\ud800""#,       // lone high surrogate
            r#""\ud800A""#,      // high surrogate + non-surrogate
            r#""\ud800\u0041""#, // high surrogate + non-low-surrogate escape
            "\"\\",              // escape at end of input
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
        // a lone low surrogate is not a valid scalar value
        assert!(Json::parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn parse_deep_nesting_is_bounded_not_fatal() {
        let nest = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        // comfortably deep documents parse fine...
        let deep_ok = Json::parse(&nest(MAX_PARSE_DEPTH - 1)).unwrap();
        assert_eq!(deep_ok.render(), nest(MAX_PARSE_DEPTH - 1));
        // ...and past the cap the parser returns an error instead of
        // recursing toward a stack overflow (100k-deep would crash an
        // unbounded recursive parser).
        for depth in [MAX_PARSE_DEPTH, MAX_PARSE_DEPTH + 1, 100_000] {
            let err = Json::parse(&nest(depth)).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
        // mixed object/array nesting counts against the same budget
        let mixed = format!(
            "{}1{}",
            r#"{"a":["#.repeat(MAX_PARSE_DEPTH / 2 + 1),
            r#"]}"#.repeat(MAX_PARSE_DEPTH / 2 + 1)
        );
        assert!(Json::parse(&mixed).unwrap_err().contains("nesting"));
    }

    #[test]
    fn parse_malformed_structures_report_positions() {
        for (bad, needle) in [
            ("{\"a\":1,}", "expected"),        // trailing comma in object
            ("[1,2,]", "expected"),            // trailing comma in array
            ("{\"a\":1 \"b\":2}", "expected"), // missing comma
            ("{1:2}", "expected"),             // non-string key
            ("tru", "literal"),
            ("truex", "trailing"), // literal parses, junk follows
            ("\u{7f}", "unexpected"),
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} gave {err:?}");
        }
        // invalid UTF-8 inside a string errors cleanly (from_utf8 guard)
        assert!(
            Json::parse("\"\u{fffd}\"").is_ok(),
            "replacement char is fine"
        );
    }

    /// Deterministic pseudo-random [`Json`] generator for the round-trip
    /// property test: splitmix-style mixing, bounded depth and width.
    fn arbitrary_json(state: &mut u64, depth: usize) -> Json {
        let mut next = || {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) as u32
        };
        let choice = if depth >= 5 { next() % 5 } else { next() % 7 };
        match choice {
            0 => Json::Null,
            1 => Json::Bool(next() % 2 == 0),
            2 => Json::Int(u64::from(next())),
            3 => {
                // finite floats only (NaN renders as null by design)
                let x = f64::from(next() as i32) / 64.0;
                Json::Num(x)
            }
            4 => {
                let pool = ['a', '"', '\\', '\n', 'é', '😀', '\u{3}', 'z'];
                let len = (next() % 6) as usize;
                Json::Str((0..len).map(|_| pool[(next() % 8) as usize]).collect())
            }
            5 => {
                let len = (next() % 4) as usize;
                Json::Arr((0..len).map(|_| arbitrary_json(state, depth + 1)).collect())
            }
            _ => {
                let len = (next() % 4) as usize;
                Json::Obj(
                    (0..len)
                        .map(|i| (format!("k{i}"), arbitrary_json(state, depth + 1)))
                        .collect(),
                )
            }
        }
    }

    #[test]
    fn render_parse_round_trip_property() {
        // For 300 seeded pseudo-random documents: parse(render(v)) must
        // succeed and re-render byte-identically (render is injective on
        // the parser's image, so this pins both directions).
        for seed in 0..300u64 {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let v = arbitrary_json(&mut state, 0);
            let body = v.render();
            let reparsed = Json::parse(&body)
                .unwrap_or_else(|e| panic!("seed {seed}: {body:?} failed to reparse: {e}"));
            assert_eq!(reparsed.render(), body, "seed {seed}");
        }
    }

    #[test]
    fn fit_serialisation() {
        assert_eq!(fit_json(&None).render(), "null");
        let fit = RegimeFit {
            regime: Regime::LogSpeedup,
            exponent: -0.75,
            power_residual: 0.01,
            log_coefficient: Some(1.02),
            log_residual: Some(0.002),
        };
        let body = fit_json(&Some(fit)).render();
        assert!(body.contains(r#""regime":"LogSpeedup""#));
        assert!(body.contains(r#""exponent":-0.75"#));
        assert!(body.contains(r#""log_coefficient":1.02"#));
    }
}
