//! The determinism contract's text rules (`cargo run -p xtask -- lint`).
//!
//! Most of the contract is on the compiler: the root `clippy.toml`
//! disallows clocks, environment reads, bare `seed_from_u64` and hash-order
//! containers, and `[workspace.lints]` forbids `unsafe_code` and `#[allow]`,
//! so every exception is a reasoned `#[expect]` that fails once it goes
//! stale. This line scan keeps what no lint expresses: float accumulation
//! in report-writing crates, and to-do comments that name no ROADMAP item.
//!
//! A waiver is a comment `allow(<rule>) -- <reason>` behind the `lint:`
//! marker, on the flagged line or the line above. Waivers without a reason,
//! naming an unknown rule or suppressing nothing are `stale-waiver`
//! findings. The README "Determinism contract" table mirrors [`RULES`].
//!
//! ```
//! use xtask::lint::lint_source;
//!
//! let src = "let m = xs.iter().sum::<f64>() / n;\n";
//! let findings = lint_source("demo.rs", "crates/analysis/src/demo.rs", src);
//! assert_eq!(findings[0].rule, "float-accumulation");
//! assert!(lint_source("demo.rs", "crates/graph/src/demo.rs", src).is_empty());
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

/// A rule: the id waivers name and the summary `--list-rules` prints.
pub struct Rule {
    /// Kebab-case identifier.
    pub id: &'static str,
    /// One-line summary, also a README table row.
    pub summary: &'static str,
}

const R_FLOAT: &str = "float-accumulation";
const R_TODO: &str = "todo-roadmap";
const R_WAIVER: &str = "stale-waiver";

/// The text rules of the determinism contract.
pub const RULES: &[Rule] = &[
    Rule {
        id: R_FLOAT,
        summary: "no f32/f64 accumulation (sum/fold) in report-writing crates unless the fold order is pinned and waived",
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

/// Crates whose float accumulation feeds fields `xtask compare` checks.
pub const REPORT_CRATES: &[&str] = &["analysis", "sweep", "xtask"];

/// The `--list-rules` output: one `<id>  <summary>` line per rule.
pub fn list_rules() -> String {
    let width = RULES.iter().map(|r| r.id.len()).max().unwrap_or(0);
    RULES
        .iter()
        .map(|r| format!("{:width$}  {}\n", r.id, r.summary))
        .collect()
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

/// Splits a line into its code, literal contents removed, and its `//`
/// comment. Block comments and multi-line strings are not tracked.
fn split_line(line: &str) -> (String, &str) {
    let b = line.as_bytes();
    let mut code = String::new();
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match (in_str, b[i]) {
            (true, b'\\') => i += 1,
            (_, b'"') => {
                in_str = !in_str;
                code.push('"');
            }
            (false, b'/') if b.get(i + 1) == Some(&b'/') => return (code, &line[i + 2..]),
            // a one-byte char literal such as '"'
            (false, b'\'') if b.get(i + 2) == Some(&b'\'') => i += 2,
            (false, c) => code.push(char::from(c)),
            (true, _) => {}
        }
        i += 1;
    }
    (code, "")
}

const FLOAT_FOLDS: &str = "sum::<f64> sum::<f32> fold(0.0 fold(0f64 fold(0f32";
const FLOAT_MSG: &str = "float accumulation is evaluation-order-sensitive; \
                         pin the fold order (and waive) or accumulate in integers";
const TODO_MSG: &str =
    "TODO/FIXME must name the ROADMAP item that tracks it (e.g. `TODO(ROADMAP: <item>)`)";

/// Lints one file's source, reported as `display`; the crate of the
/// workspace-relative `logical` path scopes the float rule.
pub fn lint_source(display: &str, logical: &str, src: &str) -> Vec<Finding> {
    let report_crate = REPORT_CRATES
        .iter()
        .any(|c| logical.starts_with(&format!("crates/{c}/")));
    let known: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    let at = |line, rule, message| Finding {
        file: display.to_string(),
        line,
        rule,
        message,
    };
    let mut found = Vec::new();
    let mut hits = Vec::new();
    // (line, rules, used) of each well-formed waiver
    let mut waivers: Vec<(usize, Vec<&str>, bool)> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        let (code, comment) = split_line(raw);
        let float_fold = FLOAT_FOLDS.split_whitespace().any(|p| code.contains(p))
            || (code.contains(".sum()") && (code.contains("f64") || code.contains("f32")));
        if report_crate && float_fold {
            hits.push((line, R_FLOAT, FLOAT_MSG));
        }
        if (comment.contains("TODO") || comment.contains("FIXME")) && !comment.contains("ROADMAP") {
            hits.push((line, R_TODO, TODO_MSG));
        }
        // A waiver is a comment that starts with the marker, so prose that
        // mentions the syntax mid-sentence is not one.
        let Some(rest) = comment.trim().strip_prefix("lint: allow(") else {
            continue;
        };
        let Some((names, tail)) = rest.split_once(')') else {
            found.push(at(line, R_WAIVER, "malformed waiver: missing `)`".into()));
            continue;
        };
        let names: Vec<&str> = names.split(',').map(str::trim).collect();
        let reason = tail.trim().strip_prefix("--").map_or("", str::trim);
        if reason.is_empty() {
            let msg = "waiver needs a reason: `-- <why this site is exempt>`";
            found.push(at(line, R_WAIVER, msg.into()));
        } else if let Some(n) = names.iter().find(|n| !known.contains(n)) {
            let msg = format!("waiver names unknown rule {n:?}");
            found.push(at(line, R_WAIVER, msg));
        } else {
            waivers.push((line, names, false));
        }
    }
    for (line, rule, message) in hits {
        let waiver = waivers
            .iter_mut()
            .find(|(w, rules, _)| (*w == line || *w + 1 == line) && rules.contains(&rule));
        match waiver {
            Some(w) => w.2 = true,
            None => found.push(at(line, rule, message.into())),
        }
    }
    for (line, rules, _) in waivers.iter().filter(|w| !w.2) {
        let rules = rules.join(", ");
        let msg = format!("waiver for {rules} suppresses nothing on its line or the next");
        found.push(at(*line, R_WAIVER, msg));
    }
    found.sort_by_key(|f| (f.line, f.rule));
    found
}

/// Lints one on-disk file. `root` anchors the workspace-relative logical
/// path; a first-line `//@ lint-path: <path>` directive overrides it, so
/// rule fixtures can impersonate any workspace location.
pub fn lint_file(root: &Path, path: &Path) -> Result<Vec<Finding>, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let display = path.strip_prefix(root).unwrap_or(path).to_string_lossy();
    let display = display.replace('\\', "/");
    let directive = src
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("//@ lint-path:"));
    Ok(lint_source(
        &display,
        directive.map_or(&display, str::trim),
        &src,
    ))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot read dir: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let (path, name) = (entry.path(), entry.file_name());
        let name = name.to_string_lossy();
        let skip = ["vendor", "fixtures", "target"].contains(&&*name) || name.starts_with('.');
        if path.is_dir() && !skip {
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the given files and directories (default: `src/` and `crates/`),
/// skipping `vendor/`, `fixtures/` and `target/`; findings in path order.
pub fn lint_paths(root: &Path, paths: &[&str]) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    let roots: Vec<PathBuf> = if paths.is_empty() {
        vec![root.join("src"), root.join("crates")]
    } else {
        paths.iter().map(PathBuf::from).collect()
    };
    for path in roots {
        if path.is_dir() {
            collect_rs(&path, &mut files)?;
        } else {
            files.push(path);
        }
    }
    files.sort();
    let found: Result<Vec<_>, _> = files.iter().map(|path| lint_file(root, path)).collect();
    Ok(found?.concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORE: &str = "crates/core/src/demo.rs";
    const ANALYSIS: &str = "crates/analysis/src/demo.rs";
    const FOLD: &str = "let m = xs.iter().sum::<f64>() / n;";
    const FLOAT: [&str; 1] = ["float-accumulation"];

    fn rules(logical: &str, src: &str) -> Vec<&'static str> {
        let found = lint_source("f", logical, src);
        found.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn string_and_char_literals_never_match_rules() {
        let src = "let a = \"xs.iter().sum::<f64>()\";\nlet c = '\"'; let d = \"// TODO\";\n";
        assert!(rules(ANALYSIS, src).is_empty());
    }

    #[test]
    fn line_comment_inside_string_is_code() {
        // A string containing `//` must not hide the rest of the line.
        let src = format!("let s = \"// not a comment\"; {FOLD}\n");
        assert_eq!(rules(ANALYSIS, &src), FLOAT);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = format!("fn f<'a>(x: &'a str) -> &'a str {{ x }} {FOLD}\n");
        assert_eq!(rules(ANALYSIS, &src), FLOAT);
    }

    #[test]
    fn escaped_char_literals_lex() {
        let src = format!("let q = '\\''; let b = '\\\\'; {FOLD}\n");
        assert_eq!(rules(ANALYSIS, &src), FLOAT);
    }

    #[test]
    fn waiver_on_same_line_suppresses() {
        let src = format!("{FOLD} // lint: allow(float-accumulation) -- index-order fold\n");
        assert!(rules(ANALYSIS, &src).is_empty());
    }

    #[test]
    fn waiver_on_line_above_suppresses() {
        let src = format!("// lint: allow(float-accumulation) -- index-order fold\n{FOLD}\n");
        assert!(rules(ANALYSIS, &src).is_empty());
    }

    #[test]
    fn waiver_two_lines_above_does_not_reach() {
        let src = format!("// lint: allow(float-accumulation) -- too far away\n\n{FOLD}\n");
        let found = rules(ANALYSIS, &src);
        assert_eq!(found, ["stale-waiver", "float-accumulation"]);
    }

    #[test]
    fn waiver_without_reason_is_malformed() {
        let found = lint_source(
            "f",
            ANALYSIS,
            &format!("{FOLD} // lint: allow(float-accumulation)\n"),
        );
        assert_eq!(
            found[0].rule, "float-accumulation",
            "a malformed waiver must not suppress"
        );
        assert!(found[1].rule == "stale-waiver" && found[1].message.contains("reason"));
    }

    #[test]
    fn waiver_with_unknown_rule_is_reported() {
        // Rules clippy checks now are unknown here: they waive by `#[expect]`.
        for rule in ["no-such-rule", "wall-clock"] {
            let found = lint_source("f", CORE, &format!("// lint: allow({rule}) -- why\n"));
            assert_eq!(found.len(), 1);
            assert!(found[0].message.contains("unknown rule"));
        }
    }

    #[test]
    fn waiver_mentioned_mid_comment_is_not_a_waiver() {
        let src = "// the syntax is lint: allow(float-accumulation) -- reason\nlet x = 1;\n";
        assert!(rules(CORE, src).is_empty());
    }

    #[test]
    fn waiver_inside_string_is_not_a_waiver() {
        let src = format!("let s = \"// lint: allow(float-accumulation) -- nope\";\n{FOLD}\n");
        assert_eq!(rules(ANALYSIS, &src), FLOAT);
    }

    #[test]
    fn todo_rule_requires_roadmap_reference() {
        assert_eq!(rules(CORE, "// TODO: make this faster\n"), ["todo-roadmap"]);
        let ok = "// TODO(ROADMAP: batch-of-cells vectorized engine): widen here\n";
        assert!(rules(CORE, ok).is_empty());
    }

    #[test]
    fn float_accumulation_scoped_to_report_crates() {
        assert_eq!(rules(ANALYSIS, FOLD), FLOAT);
        assert_eq!(
            rules(ANALYSIS, "let sxx: f64 = xs.iter().map(sq).sum();"),
            FLOAT
        );
        assert!(rules(ANALYSIS, "let total = xs.iter().sum::<u64>();").is_empty());
        assert!(rules("crates/graph/src/demo.rs", FOLD).is_empty());
        assert!(rules("src/lib.rs", FOLD).is_empty());
    }

    #[test]
    fn list_rules_covers_every_rule_once() {
        let text = list_rules();
        assert_eq!(text.lines().count(), RULES.len());
        assert!(RULES.iter().all(|r| text.contains(r.id)));
    }

    #[test]
    fn findings_render_as_file_line_rule_message() {
        let found = lint_source("crates/analysis/src/lib.rs", ANALYSIS, FOLD);
        let text = found[0].to_string();
        assert_eq!(
            text,
            format!("crates/analysis/src/lib.rs:1 float-accumulation {FLOAT_MSG}")
        );
    }
}
