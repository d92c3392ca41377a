//! Determinism-contract static analysis (`cargo run -p xtask -- lint`).
//!
//! Every result in this workspace is sold as a pure function of
//! `(family, n, k, seed, placement, init, kind)`. That claim is enforced
//! *dynamically* by the CI drift jobs (1-vs-2-thread reruns, the full
//! engine canary) and the equivalence property tests — but a stray
//! `HashMap` iteration or an ad-hoc RNG seed ships silently until a drift
//! job happens to catch it. This module is the missing *static* layer: a hand-rolled,
//! dependency-free source scanner (a small lexer that correctly skips
//! line/block comments, strings, raw strings and char literals — no
//! `syn`, the workspace is offline) feeding a rule engine with per-rule
//! inline waivers.
//!
//! A waiver is a comment of the form `allow(<rule>) -- <reason>` behind
//! the `lint:` marker, placed on the offending line or the line above;
//! the reason is mandatory, unknown rule names and waivers that suppress
//! nothing are themselves findings (`stale-waiver`), so the waiver set
//! can never rot. See the README "Determinism contract" section for the
//! rule table (kept in sync by a golden test against [`list_rules`]).
//!
//! ```
//! use xtask::lint::{classify, lint_source};
//!
//! let findings = lint_source(
//!     "crates/core/src/demo.rs",
//!     &classify("crates/core/src/demo.rs"),
//!     "use std::collections::HashMap;\n",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "no-hash-collections");
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

/// A lint rule: stable kebab-case id plus the one-line summary shown by
/// `xtask lint --list-rules` and mirrored in the README rule table.
pub struct Rule {
    /// Stable kebab-case identifier, the name waivers use.
    pub id: &'static str,
    /// One-line summary (README table column 2, golden-tested).
    pub summary: &'static str,
}

const R_HASH: &str = "no-hash-collections";
const R_RNG: &str = "named-rng-streams";
const R_CLOCK: &str = "wall-clock";
const R_UNSAFE: &str = "forbid-unsafe";
const R_ENTROPY: &str = "no-entropy";
const R_FLOAT: &str = "float-accumulation";
const R_ENV: &str = "env-allowlist";
const R_TODO: &str = "todo-roadmap";
const R_WAIVER: &str = "stale-waiver";

/// The determinism contract, one checkable rule per clause.
pub const RULES: &[Rule] = &[
    Rule {
        id: R_HASH,
        summary: "no std HashMap/HashSet in deterministic crates (core, graph, sweep, walks, analysis); iteration order is schedule-dependent",
    },
    Rule {
        id: R_RNG,
        summary: "every SmallRng::seed_from_u64/from_seed call site derives its seed via rotor_core::rng::stream(.., STREAM_*)",
    },
    Rule {
        id: R_CLOCK,
        summary: "Instant::now/SystemTime only at waiver-annotated wall-clock sites (timing meta), never in result-bearing code",
    },
    Rule {
        id: R_UNSAFE,
        summary: "every target root (src/lib.rs, src/main.rs, tests/*.rs, benches/*.rs) carries #![forbid(unsafe_code)]",
    },
    Rule {
        id: R_ENTROPY,
        summary: "no ambient entropy sources (thread_rng, from_entropy, OsRng, getrandom) anywhere",
    },
    Rule {
        id: R_FLOAT,
        summary: "no f32/f64 accumulation (sum/fold) in report-writing crates unless the fold order is pinned and waived",
    },
    Rule {
        id: R_ENV,
        summary: "no std::env::var reads: every input to a result comes from the command line",
    },
    Rule {
        id: R_TODO,
        summary: "TODO/FIXME comments must reference a ROADMAP item on the same line",
    },
    Rule {
        id: R_WAIVER,
        summary: "waivers must be well-formed (`-- <reason>`), name known rules and suppress at least one finding",
    },
];

/// Crates whose result-bearing code must be free of order-dependent
/// containers (rule `no-hash-collections`).
pub const DETERMINISTIC_CRATES: &[&str] = &["core", "graph", "sweep", "walks", "analysis"];

/// Crates on the report-writing path, where float accumulation feeds
/// fields `xtask compare` treats as deterministic (rule
/// `float-accumulation`).
pub const REPORT_CRATES: &[&str] = &["analysis", "sweep", "xtask"];

/// The `--list-rules` output: one `<id>  <summary>` line per rule, in
/// contract order. Golden-tested, and a second test keeps the README
/// table in sync with it.
pub fn list_rules() -> String {
    let width = RULES.iter().map(|r| r.id.len()).max().unwrap_or(0);
    let mut out = String::new();
    for r in RULES {
        out.push_str(&format!("{:width$}  {}\n", r.id, r.summary));
    }
    out
}

/// One unwaived rule violation; rendered as `file:line rule message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root (or as given on the CLI).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule's id.
    pub rule: &'static str,
    /// Human-readable explanation of the specific violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// One source line, split by the lexer into the three channels rules
/// read: code (string/char contents removed), the string-literal contents
/// that appeared on the line, and the comment text.
#[derive(Debug, Default, Clone)]
pub struct LexedLine {
    /// The line's code with comments removed and string/char literal
    /// contents replaced by empty literals (`""`), so rule patterns can
    /// never match inside literal text.
    pub code: String,
    /// Contents of the string literals (cooked, raw or byte) on this
    /// line, in order of appearance; a multi-line literal contributes its
    /// per-line fragment to each line it spans.
    pub strings: Vec<String>,
    /// Concatenated line/block comment text on this line.
    pub comment: String,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Splits Rust source into per-line code/strings/comment channels. The
/// lexer understands line comments, nested block comments, cooked and
/// byte strings with escapes, raw strings with any number of `#`s, char
/// and byte-char literals, and tells lifetimes (`'a`) apart from char
/// literals (`'a'`).
pub fn lint_lex(src: &str) -> Vec<LexedLine> {
    enum State {
        Code,
        LineComment,
        Block(u32),
        Str,
        RawStr(u32),
    }
    let cs: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = LexedLine::default();
    let mut sbuf = String::new();
    let mut st = State::Code;
    let mut i = 0;
    while i < cs.len() {
        let c = cs[i];
        if c == '\n' {
            match st {
                State::LineComment => st = State::Code,
                State::Str | State::RawStr(_) => {
                    cur.strings.push(std::mem::take(&mut sbuf));
                }
                _ => {}
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            State::Code => {
                let next = cs.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = State::Block(1);
                    i += 2;
                } else if (c == 'r' || (c == 'b' && next == Some('r')))
                    && (i == 0 || !is_ident(cs[i - 1]))
                    && raw_string_hashes(&cs, i).is_some()
                {
                    let hashes = raw_string_hashes(&cs, i).unwrap();
                    // skip prefix + hashes + opening quote
                    let prefix = if c == 'b' { 2 } else { 1 };
                    i += prefix + hashes as usize + 1;
                    cur.code.push_str("\"\"");
                    st = State::RawStr(hashes);
                } else if c == '"' || (c == 'b' && next == Some('"')) {
                    i += if c == 'b' { 2 } else { 1 };
                    cur.code.push_str("\"\"");
                    st = State::Str;
                } else if c == '\'' || (c == 'b' && next == Some('\'')) {
                    let q = if c == 'b' { i + 1 } else { i };
                    if cs.get(q + 1) == Some(&'\\') {
                        // escaped char literal: skip to the closing quote
                        let mut j = q + 2;
                        while j < cs.len() && cs[j] != '\'' {
                            j += if cs[j] == '\\' { 2 } else { 1 };
                        }
                        i = j + 1;
                    } else if cs.get(q + 2) == Some(&'\'')
                        && cs.get(q + 1).is_some_and(|&x| x != '\'' && x != '\n')
                    {
                        i = q + 3; // plain (byte-)char literal
                    } else {
                        cur.code.push(c); // lifetime or label
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::Block(depth) => {
                let next = cs.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    st = State::Block(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    if let Some(&e) = cs.get(i + 1) {
                        sbuf.push(e);
                    }
                    i += 2;
                } else if c == '"' {
                    cur.strings.push(std::mem::take(&mut sbuf));
                    st = State::Code;
                    i += 1;
                } else {
                    sbuf.push(c);
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && (1..=hashes as usize).all(|h| cs.get(i + h) == Some(&'#')) {
                    cur.strings.push(std::mem::take(&mut sbuf));
                    st = State::Code;
                    i += 1 + hashes as usize;
                } else {
                    sbuf.push(c);
                    i += 1;
                }
            }
        }
    }
    match st {
        State::Str | State::RawStr(_) if !sbuf.is_empty() => {
            cur.strings.push(sbuf);
        }
        _ => {}
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() || !cur.strings.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Returns `Some(hash_count)` if position `i` starts a raw (byte) string
/// (`r"`, `r#"`, `br##"` …), `None` otherwise (e.g. raw identifiers like
/// `r#match`).
fn raw_string_hashes(cs: &[char], i: usize) -> Option<u32> {
    let mut j = i + 1;
    if cs[i] == 'b' {
        if cs.get(j) != Some(&'r') {
            return None;
        }
        j += 1;
    }
    let mut hashes = 0u32;
    while cs.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (cs.get(j) == Some(&'"')).then_some(hashes)
}

// ---------------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------------

/// What the rule engine needs to know about a file's place in the
/// workspace, derived from its path (or from a fixture's `//@ lint-path:`
/// directive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCtx {
    /// Short crate directory name (`core`, `sweep`, …); the facade crate
    /// at the repo root is `rotor`.
    pub crate_name: String,
    /// Whether the file lives in a `tests/` directory (integration tests
    /// may pick deliberate fixed seeds, so `named-rng-streams` skips
    /// them).
    pub in_tests: bool,
    /// Whether the file is a compilation-target root (`src/lib.rs`,
    /// `src/main.rs`, `tests/*.rs`, `benches/*.rs`), which must carry
    /// `#![forbid(unsafe_code)]`.
    pub is_target_root: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(logical: &str) -> FileCtx {
    let parts: Vec<&str> = logical.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() >= 2 {
        parts[1].to_string()
    } else {
        "rotor".to_string()
    };
    let in_tests = parts.contains(&"tests");
    let is_target_root = matches!(
        parts.as_slice(),
        ["src", "lib.rs" | "main.rs"]
            | ["crates", _, "src", "lib.rs" | "main.rs"]
            | ["crates", _, "tests" | "benches", _]
    );
    FileCtx {
        crate_name,
        in_tests,
        is_target_root,
    }
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

const WAIVER_MARKER: &str = "lint: allow(";

struct Waiver {
    line: usize,
    rules: Vec<String>,
    used: bool,
}

/// Parses waivers out of the comment channel. A well-formed waiver is a
/// comment whose trimmed text *starts* with the marker, so prose that
/// merely mentions the syntax mid-sentence is not a waiver. Returns the
/// waivers plus `stale-waiver` findings for malformed ones.
fn parse_waivers(lines: &[LexedLine]) -> (Vec<Waiver>, Vec<(usize, &'static str, String)>) {
    let known: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    let mut waivers = Vec::new();
    let mut bad = Vec::new();
    for (idx, l) in lines.iter().enumerate() {
        let text = l.comment.trim();
        if !text.starts_with(WAIVER_MARKER) {
            continue;
        }
        let line = idx + 1;
        let rest = &text[WAIVER_MARKER.len()..];
        let Some(close) = rest.find(')') else {
            bad.push((line, R_WAIVER, "malformed waiver: missing `)`".to_string()));
            continue;
        };
        let names: Vec<String> = rest[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let tail = rest[close + 1..].trim();
        let reason = tail.strip_prefix("--").map(str::trim);
        if names.is_empty() {
            bad.push((line, R_WAIVER, "waiver names no rule".to_string()));
            continue;
        }
        if reason.is_none_or(str::is_empty) {
            bad.push((
                line,
                R_WAIVER,
                "waiver needs a reason: `-- <why this site is exempt>`".to_string(),
            ));
            continue;
        }
        let mut ok = true;
        for n in &names {
            if !known.contains(&n.as_str()) {
                bad.push((line, R_WAIVER, format!("waiver names unknown rule {n:?}")));
                ok = false;
            }
        }
        if ok {
            waivers.push(Waiver {
                line,
                rules: names,
                used: false,
            });
        }
    }
    (waivers, bad)
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn scan_rules(ctx: &FileCtx, lines: &[LexedLine]) -> Vec<(usize, &'static str, String)> {
    let deterministic = DETERMINISTIC_CRATES.contains(&ctx.crate_name.as_str());
    let report_crate = REPORT_CRATES.contains(&ctx.crate_name.as_str());
    let mut out = Vec::new();
    let mut has_forbid = false;
    for (idx, l) in lines.iter().enumerate() {
        let line = idx + 1;
        let code = l.code.as_str();
        if code.contains("#![forbid(unsafe_code)]") {
            has_forbid = true;
        }
        if deterministic {
            for pat in ["HashMap", "HashSet"] {
                if code.contains(pat) {
                    out.push((
                        line,
                        R_HASH,
                        format!(
                            "{pat} iteration order is not deterministic; use BTreeMap/BTreeSet or a sorted Vec"
                        ),
                    ));
                }
            }
        }
        if !ctx.in_tests && (code.contains("seed_from_u64(") || code.contains("from_seed(")) {
            let next = lines.get(idx + 1).map_or("", |n| n.code.as_str());
            let derived = |s: &str| s.contains("stream(") || s.contains("STREAM_");
            if !derived(code) && !derived(next) {
                out.push((
                    line,
                    R_RNG,
                    "RNG seeded outside the named-stream discipline; derive the seed via \
                     rotor_core::rng::stream(seed, STREAM_*)"
                        .to_string(),
                ));
            }
        }
        for pat in ["Instant::now", "SystemTime"] {
            if code.contains(pat) {
                out.push((
                    line,
                    R_CLOCK,
                    format!(
                        "{pat} is wall-clock; only waiver-annotated timing-meta sites may read it"
                    ),
                ));
            }
        }
        for pat in ["thread_rng", "from_entropy", "OsRng", "getrandom"] {
            if code.contains(pat) {
                out.push((
                    line,
                    R_ENTROPY,
                    format!("{pat} draws ambient entropy; every random quantity must come from a seeded SmallRng"),
                ));
            }
        }
        if report_crate {
            let float_fold = [
                "sum::<f64>",
                "sum::<f32>",
                "fold(0.0",
                "fold(0f64",
                "fold(0f32",
            ]
            .iter()
            .any(|p| code.contains(p))
                || (code.contains(".sum()") && (code.contains("f64") || code.contains("f32")));
            if float_fold {
                out.push((
                    line,
                    R_FLOAT,
                    "float accumulation is evaluation-order-sensitive; pin the fold order (and waive) \
                     or accumulate in integers"
                        .to_string(),
                ));
            }
        }
        if let Some(pos) = code.find("env::var(") {
            // Anything read from the environment would be an undeclared
            // input to a "pure" result.
            let arg = code[pos + "env::var(".len()..].trim_start();
            let name = if arg.starts_with('"') {
                format!("{:?}", l.strings.first().map_or("", String::as_str))
            } else {
                arg.chars().take_while(|&c| is_ident(c)).collect()
            };
            out.push((
                line,
                R_ENV,
                format!(
                    "env::var({name}) reads an undeclared input; take it from the command line"
                ),
            ));
        }
        let comment = l.comment.as_str();
        if (comment.contains("TODO") || comment.contains("FIXME")) && !comment.contains("ROADMAP") {
            out.push((
                line,
                R_TODO,
                "TODO/FIXME must name the ROADMAP item that tracks it (e.g. `TODO(ROADMAP: <item>)`)"
                    .to_string(),
            ));
        }
    }
    if ctx.is_target_root && !has_forbid {
        out.push((
            1,
            R_UNSAFE,
            "target root is missing #![forbid(unsafe_code)]".to_string(),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Lints one file's source under the scoping rules of `ctx`, applying
/// waivers; `display` is the path findings are reported under.
pub fn lint_source(display: &str, ctx: &FileCtx, src: &str) -> Vec<Finding> {
    let lines = lint_lex(src);
    let candidates = scan_rules(ctx, &lines);
    let (mut waivers, malformed) = parse_waivers(&lines);
    let mut out = Vec::new();
    for (line, rule, message) in candidates {
        let waived = waivers
            .iter_mut()
            .find(|w| (w.line == line || w.line + 1 == line) && w.rules.iter().any(|r| r == rule));
        match waived {
            Some(w) => w.used = true,
            None => out.push(Finding {
                file: display.to_string(),
                line,
                rule,
                message,
            }),
        }
    }
    for (line, rule, message) in malformed {
        out.push(Finding {
            file: display.to_string(),
            line,
            rule,
            message,
        });
    }
    for w in &waivers {
        if !w.used {
            out.push(Finding {
                file: display.to_string(),
                line: w.line,
                rule: R_WAIVER,
                message: format!(
                    "waiver for {} suppresses no finding on its line or the line below; remove it",
                    w.rules.join(", ")
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

const FIXTURE_DIRECTIVE: &str = "//@ lint-path:";

/// Lints one on-disk file. `root` anchors the workspace-relative logical
/// path; a first-line `//@ lint-path: <path>` directive overrides it, so
/// rule fixtures can impersonate any workspace location.
pub fn lint_file(root: &Path, path: &Path) -> Result<Vec<Finding>, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let display = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let logical = src
        .lines()
        .next()
        .and_then(|l| l.strip_prefix(FIXTURE_DIRECTIVE))
        .map_or_else(|| display.clone(), |p| p.trim().to_string());
    Ok(lint_source(&display, &classify(&logical), &src))
}

/// The workspace root, anchored on this crate's manifest at compile time
/// (no environment read — `env::var` is itself lint-gated).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Collects every lintable `.rs` file of the workspace in sorted order:
/// the facade `src/` plus every crate under `crates/` except the vendored
/// stand-ins; `fixtures/` and `target/` directories are skipped.
pub fn collect_workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for top in ["src", "crates"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot read dir: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "vendor" || name == "fixtures" || name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace (the `xtask lint` default), returning every
/// unwaived finding in path order.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut out = Vec::new();
    for path in collect_workspace_files(root)? {
        out.extend(lint_file(root, &path)?);
    }
    Ok(out)
}

/// Lints an explicit list of files or directories (directories are
/// walked recursively with the same exclusions as the workspace walk).
pub fn lint_paths(root: &Path, paths: &[&str]) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    for p in paths {
        let path = PathBuf::from(p);
        if path.is_dir() {
            collect_rs(&path, &mut files)?;
        } else {
            files.push(path);
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        out.extend(lint_file(root, &path)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_src() -> FileCtx {
        classify("crates/core/src/demo.rs")
    }

    #[test]
    fn classify_knows_crates_tests_and_roots() {
        let c = classify("crates/sweep/src/driver.rs");
        assert_eq!(c.crate_name, "sweep");
        assert!(!c.in_tests && !c.is_target_root);
        assert!(classify("crates/core/tests/equivalence.rs").in_tests);
        assert!(classify("crates/core/tests/equivalence.rs").is_target_root);
        assert!(classify("crates/sweep/benches/driver.rs").is_target_root);
        assert!(classify("src/lib.rs").is_target_root);
        assert_eq!(classify("src/lib.rs").crate_name, "rotor");
        assert!(!classify("crates/core/src/ring.rs").is_target_root);
    }

    #[test]
    fn hash_rule_fires_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint_source("f", &core_src(), src).len(), 1);
        let xtask = classify("crates/xtask/src/demo.rs");
        assert!(lint_source("f", &xtask, src).is_empty());
    }

    #[test]
    fn string_and_char_literals_never_match_rules() {
        // Patterns inside cooked strings, raw strings and char literals are
        // invisible to the code channel.
        let src = r###"
let a = "HashMap in a string";
let b = r#"Instant::now inside a raw "string" with // slashes"#;
let c = '"';
let d = '/';
let e = "thread_rng";
"###;
        assert!(lint_source("f", &core_src(), src).is_empty());
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let src = "/* outer /* nested HashMap */ still comment Instant::now */\nlet x = 1;\n";
        assert!(lint_source("f", &core_src(), src).is_empty());
    }

    #[test]
    fn line_comment_inside_string_is_code() {
        // A string containing `//` must not hide the rest of the line.
        let src = "let s = \"// not a comment\"; let m = std::collections::HashSet::new();\n";
        let f = lint_source("f", &core_src(), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-hash-collections");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // If 'a were lexed as a char-literal opener the rest of the file
        // would be swallowed and the HashMap would go unseen.
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nuse std::collections::HashMap;\n";
        let f = lint_source("f", &core_src(), src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn escaped_char_literals_lex() {
        let src = "let q = '\\'';\nlet n = '\\n';\nlet u = '\\u{1F600}';\nuse std::collections::HashMap;\n";
        let f = lint_source("f", &core_src(), src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn raw_strings_with_hashes_lex() {
        let src =
            "let a = r##\"quote \"# still inside\"##;\nlet b = std::collections::HashMap::new();\n";
        let f = lint_source("f", &core_src(), src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn multiline_string_masks_every_line_it_spans() {
        let src = "let s = \"first HashMap\nsecond Instant::now\nthird\";\n";
        assert!(lint_source("f", &core_src(), src).is_empty());
    }

    #[test]
    fn waiver_on_same_line_suppresses() {
        let src = "let t = Instant::now(); // lint: allow(wall-clock) -- bench timing meta only\n";
        assert!(lint_source("f", &core_src(), src).is_empty());
    }

    #[test]
    fn waiver_on_line_above_suppresses() {
        let src = "// lint: allow(wall-clock) -- bench timing meta only\nlet t = Instant::now();\n";
        assert!(lint_source("f", &core_src(), src).is_empty());
    }

    #[test]
    fn waiver_two_lines_above_does_not_reach() {
        let src = "// lint: allow(wall-clock) -- too far away\n\nlet t = Instant::now();\n";
        let f = lint_source("f", &core_src(), src);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"wall-clock"), "{f:?}");
        assert!(
            rules.contains(&"stale-waiver"),
            "unused waiver must be reported: {f:?}"
        );
    }

    #[test]
    fn waiver_without_reason_is_malformed() {
        let src = "let t = Instant::now(); // lint: allow(wall-clock)\n";
        let f = lint_source("f", &core_src(), src);
        assert!(f
            .iter()
            .any(|x| x.rule == "stale-waiver" && x.message.contains("reason")));
        assert!(
            f.iter().any(|x| x.rule == "wall-clock"),
            "malformed waiver must not suppress"
        );
    }

    #[test]
    fn waiver_with_unknown_rule_is_reported() {
        let src = "// lint: allow(no-such-rule) -- whatever\nlet x = 1;\n";
        let f = lint_source("f", &core_src(), src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unknown rule"));
    }

    #[test]
    fn waiver_mentioned_mid_comment_is_not_a_waiver() {
        let src = "// the syntax is lint: allow(wall-clock) -- reason, see README\nlet x = 1;\n";
        assert!(lint_source("f", &core_src(), src).is_empty());
    }

    #[test]
    fn waiver_inside_string_is_not_a_waiver() {
        let src = "let s = \"// lint: allow(wall-clock) -- nope\";\nlet t = Instant::now();\n";
        let f = lint_source("f", &core_src(), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
    }

    #[test]
    fn rng_rule_accepts_stream_derivation_on_same_or_next_line() {
        let same = "let rng = SmallRng::seed_from_u64(rotor_core::rng::stream(s, STREAM_WALK));\n";
        assert!(lint_source("f", &core_src(), same).is_empty());
        let split =
            "let rng = SmallRng::seed_from_u64(\n    rotor_core::rng::stream(s, STREAM_WALK));\n";
        assert!(lint_source("f", &core_src(), split).is_empty());
        let bare = "let rng = SmallRng::seed_from_u64(seed);\n";
        assert_eq!(lint_source("f", &core_src(), bare).len(), 1);
    }

    #[test]
    fn rng_rule_skips_tests_dirs() {
        let ctx = classify("crates/core/tests/demo.rs");
        let src = "#![forbid(unsafe_code)]\nlet rng = SmallRng::seed_from_u64(0xB47C);\n";
        assert!(lint_source("f", &ctx, src).is_empty());
    }

    #[test]
    fn env_rule_flags_reads_through_consts() {
        let via_const = "const SEGMENTS_ENV: &str = \"ROTOR_SEGMENTS\";\nlet v = std::env::var(SEGMENTS_ENV);\n";
        let f = lint_source("f", &core_src(), via_const);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "env-allowlist");
        assert!(f[0].message.contains("SEGMENTS_ENV"));
        let unresolved = "let v = std::env::var(mystery_name);\n";
        assert_eq!(lint_source("f", &core_src(), unresolved).len(), 1);
    }

    #[test]
    fn env_rule_checks_literals() {
        for var in ["ROTOR_BATCH", "PATH"] {
            let src = format!("let v = std::env::var(\"{var}\");\n");
            let f = lint_source("f", &core_src(), &src);
            assert_eq!(f.len(), 1, "{var}");
            assert_eq!(f[0].rule, "env-allowlist");
            assert!(f[0].message.contains(var));
        }
    }

    #[test]
    fn todo_rule_requires_roadmap_reference() {
        let bad = "// TODO: make this faster\n";
        assert_eq!(lint_source("f", &core_src(), bad).len(), 1);
        let ok = "// TODO(ROADMAP: batch-of-cells vectorized engine): widen here\n";
        assert!(lint_source("f", &core_src(), ok).is_empty());
    }

    #[test]
    fn forbid_unsafe_checked_on_target_roots_only() {
        let root = classify("crates/core/src/lib.rs");
        let f = lint_source("f", &root, "pub fn x() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "forbid-unsafe");
        assert!(lint_source("f", &root, "#![forbid(unsafe_code)]\npub fn x() {}\n").is_empty());
        assert!(lint_source("f", &core_src(), "pub fn x() {}\n").is_empty());
    }

    #[test]
    fn float_accumulation_scoped_to_report_crates() {
        let analysis = classify("crates/analysis/src/demo.rs");
        let src = "let m = xs.iter().sum::<f64>() / n;\n";
        assert_eq!(lint_source("f", &analysis, src).len(), 1);
        let annotated = "let sxx: f64 = xs.iter().map(sq).sum();\n";
        assert_eq!(lint_source("f", &analysis, annotated).len(), 1);
        let ints = "let total = xs.iter().sum::<u64>();\n";
        assert!(lint_source("f", &analysis, ints).is_empty());
        let graph = classify("crates/graph/src/demo.rs");
        assert!(lint_source("f", &graph, src).is_empty());
    }

    #[test]
    fn list_rules_covers_every_rule_once() {
        let text = list_rules();
        assert_eq!(text.lines().count(), RULES.len());
        for r in RULES {
            assert!(text.contains(r.id));
        }
    }

    #[test]
    fn findings_render_as_file_line_rule_message() {
        let f = Finding {
            file: "crates/core/src/delays.rs".into(),
            line: 19,
            rule: "no-hash-collections",
            message: "msg".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/core/src/delays.rs:19 no-hash-collections msg"
        );
    }
}
