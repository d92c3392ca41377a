//! `cargo run -p xtask` — workspace tooling for the `BENCH_*.json`
//! experiment reports, so CI and local runs enforce the
//! `rotor-experiment/1` contract with the *same* code (this used to be an
//! inline Python heredoc in `ci.yml`). The logic lives in the `xtask`
//! library; this binary only parses argv.
//!
//! Subcommands:
//!
//! * `validate [--expect-threads N] [--max-n N] <files...>` — parse each
//!   report with [`Json::parse`], assert the schema tag, the generic
//!   curve/point invariants and the per-bench rules of the report's
//!   [`xtask::campaign::CAMPAIGNS`] row (see [`xtask::validate`]);
//! * `compare <a.json> <b.json>` — assert two runs of the same experiment
//!   agree on every deterministic field (timing-derived fields are
//!   ignored), which is the CI determinism-drift gate between 1-thread and
//!   2-thread reruns of the smoke campaigns;
//! * `campaign <name> [--smoke] [--threads N] [--out PATH] [--state PATH]
//!   [--fresh]` — run a named, resumable sweep campaign (see
//!   [`xtask::campaign`]): completed units are answered from the state
//!   file, the assembled report is validated and written to the
//!   campaign's canonical `BENCH_<bench>.json` (or `--out`); a report
//!   with failed cells is written and then exits nonzero;
//! * `lint [--list-rules] [paths...]` — the determinism contract's text
//!   rules (see [`xtask::lint`]; clippy checks the rest): walks every
//!   non-vendor workspace crate (or the given paths), reports findings as
//!   `file:line rule message` and exits nonzero on any unwaived finding.

use rotor_analysis::report::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use xtask::{campaign, compare, lint, validate};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("validate") => run_validate(it.collect()),
        Some("compare") => run_compare(it.collect()),
        Some("campaign") => run_campaign(it.collect()),
        Some("lint") => run_lint(it.collect()),
        _ => {
            eprintln!(
                "usage: xtask validate [--expect-threads N] [--max-n N] <files...>\n       \
                 xtask compare <a.json> <b.json>\n       \
                 xtask campaign <{}> [--smoke] [--threads N] [--out PATH] [--state PATH] [--fresh]\n       \
                 xtask lint [--list-rules] [paths...]",
                campaign::names("|")
            );
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    Json::parse(&body).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

fn run_validate(args: Vec<&str>) -> ExitCode {
    let mut opts = validate::Options::default();
    let mut files = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg {
            "--expect-threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.expect_threads = Some(v),
                None => return usage_error("--expect-threads needs an integer"),
            },
            "--max-n" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.max_n = Some(v),
                None => return usage_error("--max-n needs an integer"),
            },
            f => files.push(f),
        }
    }
    if files.is_empty() {
        return usage_error("validate needs at least one report file");
    }
    let mut failed = false;
    for path in files {
        match load(path).map(|report| validate::validate(&report, &opts)) {
            Ok(errors) if errors.is_empty() => println!("ok: {path}"),
            Ok(errors) => {
                failed = true;
                for e in errors {
                    eprintln!("{path}: {e}");
                }
            }
            Err(e) => {
                failed = true;
                eprintln!("{e}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_compare(args: Vec<&str>) -> ExitCode {
    let [a_path, b_path] = args[..] else {
        return usage_error("compare needs exactly two report files");
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (ra, rb) => {
            for r in [ra, rb] {
                if let Err(e) = r {
                    eprintln!("{e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    let diffs = compare::compare(&a, &b);
    if diffs.is_empty() {
        println!("ok: {a_path} and {b_path} agree on every deterministic field");
        ExitCode::SUCCESS
    } else {
        eprintln!("{a_path} vs {b_path}:");
        for d in &diffs {
            eprintln!("  {d}");
        }
        ExitCode::FAILURE
    }
}

fn run_campaign(args: Vec<&str>) -> ExitCode {
    let mut name: Option<&str> = None;
    let mut smoke = false;
    let mut fresh = false;
    let mut threads: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut state: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg {
            "--smoke" => smoke = true,
            "--fresh" => fresh = true,
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => threads = Some(v),
                _ => return usage_error("--threads needs a positive integer"),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage_error("--out needs a path"),
            },
            "--state" => match it.next() {
                Some(p) => state = Some(PathBuf::from(p)),
                None => return usage_error("--state needs a path"),
            },
            other if name.is_none() && !other.starts_with('-') => name = Some(other),
            other => return usage_error(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(name) = name else {
        return usage_error(&format!(
            "campaign needs a name ({})",
            campaign::names(", ")
        ));
    };
    let scale = if smoke {
        campaign::Scale::Smoke
    } else {
        campaign::Scale::Full
    };
    let threads = threads.unwrap_or_else(rotor_sweep::thread_count);
    match campaign::run(name, scale, threads, out, state, fresh) {
        Ok(summary) => {
            println!(
                "campaign {name} ({}) done: {} unit(s) computed, {} resumed, {} thread(s)",
                scale.tag(),
                summary.computed,
                summary.resumed,
                summary.threads
            );
            println!("wrote {} (validated)", summary.out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint(args: Vec<&str>) -> ExitCode {
    if args.contains(&"--list-rules") {
        print!("{}", lint::list_rules());
        return ExitCode::SUCCESS;
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return usage_error(&format!("lint: unknown flag {flag:?}"));
    }
    match lint::lint_paths(&xtask::workspace_root(), &args) {
        Ok(findings) if findings.is_empty() => {
            println!("lint: clean (0 findings, {} rules)", lint::RULES.len());
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            let n = findings.len();
            eprintln!("lint: {n} finding(s); waive a deliberate site with a `lint: allow(<rule>) -- <reason>` comment");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("xtask: {msg}");
    ExitCode::FAILURE
}
