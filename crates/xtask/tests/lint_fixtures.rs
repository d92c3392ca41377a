//! The lint engine's fixture-based self-test: every rule of the
//! determinism contract has one fixture that must fire and one clean
//! twin that must not, plus golden checks keeping `--list-rules` and the
//! README rule table in sync with [`xtask::lint::RULES`].
//!
//! Fixtures live in `crates/xtask/fixtures/lint/` (a directory the
//! workspace walk explicitly skips — the firing fixtures would otherwise
//! fail `xtask lint` itself) and impersonate real workspace locations
//! via a first-line `//@ lint-path:` directive.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use xtask::lint::{lint_file, lint_workspace, workspace_root, RULES};

fn fixture_dir() -> PathBuf {
    workspace_root().join("crates/xtask/fixtures/lint")
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
    // The motivating hazard: rule 1 fires on the pre-fix `delays.rs`
    // HashMap store (kept verbatim as the fixture) — and the live tree,
    // which now uses a BTreeMap, carries no unwaived finding anywhere.
    let root = workspace_root();
    let fixture = fixture_dir().join("no-hash-collections_fire.rs");
    let findings = lint_file(&root, &fixture).expect("fixture reads");
    assert!(findings
        .iter()
        .all(|f| f.rule == "no-hash-collections" && f.file.ends_with("_fire.rs")));
    assert_eq!(findings.len(), 2, "use + field declaration: {findings:?}");

    let workspace = lint_workspace(&root).expect("workspace walks");
    assert!(
        workspace.is_empty(),
        "the workspace must lint clean: {workspace:?}"
    );
}

#[test]
fn rotor_batch_reads_fail_the_env_allowlist() {
    // ROTOR_BATCH is not a documented override: reading it must fail the
    // lint until a reviewed allowlist entry adds it.
    let root = workspace_root();
    let fixture = fixture_dir().join("env-allowlist_fire.rs");
    let findings = lint_file(&root, &fixture).expect("fixture reads");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "env-allowlist" && f.to_string().contains("\"ROTOR_BATCH\"")),
        "{findings:?}"
    );
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
