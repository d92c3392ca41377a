//! Self-tests of the determinism contract. Each `xtask lint` rule has a
//! firing fixture and a clean twin in `fixtures/lint/` (which impersonate
//! workspace paths via a first-line `//@ lint-path:`), and `--list-rules`
//! and the README table stay in sync with [`xtask::lint::RULES`]. For the
//! compiler-checked rules, every member inherits the workspace lint table,
//! and the clippy fixture crate `fixtures/contract/` shares it and commits
//! a rejection set covering every rule, which CI compares with clippy's.

use std::path::{Path, PathBuf};
use xtask::lint::{lint_file, lint_paths, RULES};
use xtask::workspace_root;

fn fixture_dir() -> PathBuf {
    workspace_root().join("crates/xtask/fixtures/lint")
}

fn contract_dir() -> PathBuf {
    workspace_root().join("crates/xtask/fixtures/contract")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `[workspace.lints.*]` tables of a manifest, up to the next table
/// that is not one of them.
fn lint_tables(manifest: &str) -> String {
    let start = manifest
        .find("[workspace.lints.")
        .expect("manifest has workspace lints");
    let rest = &manifest[start..];
    let end = rest
        .match_indices("\n[")
        .map(|(i, _)| i)
        .find(|&i| !rest[i + 1..].starts_with("[workspace.lints."))
        .unwrap_or(rest.len());
    rest[..end].trim_end().to_string()
}

/// The fixture lines, 1-based, that clippy must reject with `lint` per the
/// committed `expected.txt` (`<line> <lint>` per rejection).
fn rejected(lint: &str) -> Vec<usize> {
    let expected = read(&contract_dir().join("expected.txt"));
    let pairs = expected.lines().filter_map(|l| l.split_once(' '));
    let lines = pairs.filter(|&(_, l)| l == lint || lint.is_empty());
    lines
        .map(|(n, _)| n.parse().expect("line number"))
        .collect()
}

/// The contract fixture's lines, 1-based, that contain `needle`.
fn fixture_lines(needle: &str) -> Vec<usize> {
    let src = read(&contract_dir().join("src/lib.rs"));
    let lines = src.lines().enumerate().filter(|(_, l)| l.contains(needle));
    lines.map(|(i, _)| i + 1).collect()
}

#[test]
fn every_rule_has_a_firing_fixture_and_a_clean_twin() {
    let dir = fixture_dir();
    for rule in RULES {
        for suffix in ["fire", "clean"] {
            let path = dir.join(format!("{}_{suffix}.rs", rule.id));
            assert!(path.is_file(), "missing fixture {}", path.display());
        }
    }
}

#[test]
fn firing_fixtures_fire_their_rule() {
    let root = workspace_root();
    for rule in RULES {
        let path = fixture_dir().join(format!("{}_fire.rs", rule.id));
        let findings = lint_file(&root, &path).expect("fixture reads");
        assert!(
            findings.iter().any(|f| f.rule == rule.id),
            "{}_fire.rs must produce a {} finding, got {findings:?}",
            rule.id,
            rule.id
        );
    }
}

#[test]
fn clean_twins_produce_zero_findings() {
    let root = workspace_root();
    for rule in RULES {
        let path = fixture_dir().join(format!("{}_clean.rs", rule.id));
        let findings = lint_file(&root, &path).expect("fixture reads");
        assert!(
            findings.is_empty(),
            "{}_clean.rs must be clean, got {findings:?}",
            rule.id
        );
    }
}

#[test]
fn the_prefix_hashmap_delays_store_is_caught_and_the_tree_is_clean() {
    // The motivating hazard: the pre-fix `DelaySchedule` HashMap store,
    // kept in the contract fixture crate, is rejected by clippy on its
    // `use` and on its field; the live tree (a BTreeMap since) carries no
    // unwaived text-rule finding anywhere.
    let hash_lines = fixture_lines("HashMap");
    assert_eq!(hash_lines.len(), 2, "use + field declaration");
    let types = rejected("clippy::disallowed_types");
    assert!(hash_lines.iter().all(|l| types.contains(l)), "{types:?}");

    let workspace = lint_paths(&workspace_root(), &[]).expect("workspace walks");
    assert!(
        workspace.is_empty(),
        "the workspace must lint clean: {workspace:?}"
    );
}

#[test]
fn rotor_batch_reads_fail_the_env_allowlist() {
    // ROTOR_BATCH is not a documented input: clippy rejects reading it,
    // and every other environment read, with no list to extend.
    let reads = fixture_lines("var(\"ROTOR_BATCH\")");
    let methods = rejected("clippy::disallowed_methods");
    assert!(!reads.is_empty() && reads.iter().all(|l| methods.contains(l)));
}

#[test]
fn contract_fixture_rejects_every_disallowed_path_and_waiver_form() {
    for lint in [
        "clippy::disallowed_types",
        "clippy::disallowed_methods",
        "unsafe_code",
        "unfulfilled_lint_expectations",
        "clippy::allow_attributes",
        "clippy::allow_attributes_without_reason",
    ] {
        assert!(!rejected(lint).is_empty(), "no fixture site fires {lint}");
    }
    // Every disallowed path of `clippy.toml` is named at a rejected line.
    let config = read(&workspace_root().join("clippy.toml"));
    for entry in config.lines().filter_map(|l| l.split("path = \"").nth(1)) {
        let path = &entry[..entry.find('"').expect("quoted path")];
        let name = path.rsplit("::").next().expect("path segment");
        let rejected = rejected("");
        assert!(
            fixture_lines(name).iter().any(|l| rejected.contains(l)),
            "{path} fires nowhere in the fixture"
        );
    }
}

#[test]
fn contract_fixture_shares_the_workspace_lint_table() {
    let root = read(&workspace_root().join("Cargo.toml"));
    let fixture = read(&contract_dir().join("Cargo.toml"));
    assert_eq!(lint_tables(&fixture), lint_tables(&root));
    assert!(fixture.contains("\n[lints]\nworkspace = true\n"));
}

#[test]
fn every_workspace_member_inherits_the_workspace_lints() {
    // `unsafe_code = "forbid"` and the waiver discipline reach every
    // target of a package only through this inheritance. The vendored
    // stand-ins keep their own attributes instead.
    let root = workspace_root();
    let manifest = read(&root.join("Cargo.toml"));
    let members = manifest
        .split("\nmembers = [")
        .nth(1)
        .and_then(|m| m.split(']').next())
        .expect("workspace members");
    let members: Vec<&str> = members
        .split(',')
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty() && !m.starts_with("crates/vendor/"))
        .collect();
    assert!(members.len() >= 7, "{members:?}");
    for member in members {
        let path = root.join(member).join("Cargo.toml");
        assert!(
            read(&path).contains("\n[lints]\nworkspace = true\n"),
            "{} must inherit the workspace lints",
            path.display()
        );
    }
}

#[test]
fn list_rules_matches_the_committed_golden_output() {
    let golden = include_str!("../fixtures/lint/list_rules.golden");
    assert_eq!(
        xtask::lint::list_rules(),
        golden,
        "regenerate with `cargo run -p xtask -- lint --list-rules > \
         crates/xtask/fixtures/lint/list_rules.golden`"
    );
}

#[test]
fn readme_rule_table_is_in_sync() {
    let readme = include_str!("../../../README.md");
    for rule in RULES {
        let row = format!("| `{}` | {} |", rule.id, rule.summary);
        assert!(
            readme.contains(&row),
            "README determinism-contract table is out of sync for rule \
             `{}`; expected the row:\n{row}",
            rule.id
        );
    }
}

#[test]
fn findings_render_as_file_line_rule_message() {
    let root = workspace_root();
    let path = fixture_dir().join("todo-roadmap_fire.rs");
    let findings = lint_file(&root, &path).expect("fixture reads");
    assert_eq!(findings.len(), 1);
    let line = findings[0].to_string();
    assert!(
        line.starts_with("crates/xtask/fixtures/lint/todo-roadmap_fire.rs:2 todo-roadmap "),
        "{line}"
    );
}
