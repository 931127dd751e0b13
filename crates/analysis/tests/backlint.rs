//! Liveness tests for every backlint rule family.
//!
//! Each known-bad fixture under `tests/fixtures/` triggers exactly the
//! family it was written for, and the finding disappears when that family
//! is disabled — proving the rule (and its `Rules` wiring) is live, not
//! vacuously passing. The final test runs the real check over the live
//! workspace and requires zero unsuppressed findings.

use std::path::Path;

use backlog_analysis::findings::{
    RULE_DETERMINISM, RULE_LOCK_ORDER, RULE_PANIC_FREE, RULE_SUPPRESSION,
};
use backlog_analysis::{check_source, config, run_check, Config, Finding, Rules};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn cfg() -> Config {
    config::parse(&fixture("lock_tiers.toml")).expect("fixture registry parses")
}

fn findings(name: &str, rules: &Rules) -> Vec<Finding> {
    let (findings, _) = check_source(name, &fixture(name), &cfg(), rules);
    findings
}

#[test]
fn lock_order_rule_is_live() {
    let hits = findings("bad_lock_order.rs", &Rules::default());
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, RULE_LOCK_ORDER);
    assert!(
        hits[0].message.contains("outer") && hits[0].message.contains("inner"),
        "{}",
        hits[0].message
    );

    let disabled = Rules {
        lock_order: false,
        ..Rules::default()
    };
    assert!(
        findings("bad_lock_order.rs", &disabled).is_empty(),
        "finding must disappear when the family is disabled"
    );
}

#[test]
fn qualified_method_forms_keep_their_own_tiers() {
    // `combined_table.read_partition` then `from_table.read_partition`: the
    // same method on two receivers, out of their declared order. The
    // ascending function in the same fixture stays clean.
    let hits = findings("bad_qualified_lock_order.rs", &Rules::default());
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, RULE_LOCK_ORDER);
    assert!(
        hits[0].message.contains("descending_is_not")
            && hits[0]
                .message
                .contains("`from_table.read_partition` (tier 50)")
            && hits[0]
                .message
                .contains("`combined_table.read_partition` (tier 52)"),
        "{}",
        hits[0].message
    );

    let disabled = Rules {
        lock_order: false,
        ..Rules::default()
    };
    assert!(findings("bad_qualified_lock_order.rs", &disabled).is_empty());
}

#[test]
fn guard_across_wait_is_live() {
    let hits = findings("bad_guard_across_wait.rs", &Rules::default());
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, RULE_LOCK_ORDER);
    assert!(
        hits[0].message.contains("wait"),
        "wait-shaped message: {}",
        hits[0].message
    );

    let disabled = Rules {
        lock_order: false,
        ..Rules::default()
    };
    assert!(findings("bad_guard_across_wait.rs", &disabled).is_empty());
}

#[test]
fn panic_free_rule_is_live() {
    let hits = findings("bad_unwrap_in_decode.rs", &Rules::default());
    // unwrap, expect, panic! and `buf[0]` are four distinct findings.
    assert_eq!(hits.len(), 4, "{hits:?}");
    assert!(hits.iter().all(|f| f.rule == RULE_PANIC_FREE));

    let disabled = Rules {
        panic_free: false,
        ..Rules::default()
    };
    assert!(findings("bad_unwrap_in_decode.rs", &disabled).is_empty());
}

#[test]
fn determinism_rule_is_live() {
    let hits = findings("bad_hashmap_iteration.rs", &Rules::default());
    // Instant::now() and the hash-order `entries.iter()` walk.
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().all(|f| f.rule == RULE_DETERMINISM));

    let disabled = Rules {
        determinism: false,
        ..Rules::default()
    };
    assert!(findings("bad_hashmap_iteration.rs", &disabled).is_empty());
}

#[test]
fn suppression_discipline_is_live() {
    // The suppression meta-rule has no off switch: an unjustified allow and
    // a justified-but-unused allow are findings under every configuration.
    for rules in [
        Rules::default(),
        Rules {
            lock_order: false,
            panic_free: false,
            determinism: false,
        },
    ] {
        let hits = findings("bad_suppression.rs", &rules);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|f| f.rule == RULE_SUPPRESSION));
        assert!(
            hits.iter().any(|f| f.message.contains("justification")),
            "{hits:?}"
        );
        assert!(
            hits.iter()
                .any(|f| f.message.contains("matches no finding")),
            "{hits:?}"
        );
    }
}

#[test]
fn obs_files_are_determinism_scoped_in_the_shipped_registry() {
    // Parse the *shipped* registry, not the fixture one: this test proves
    // the obs crate is actually inside the determinism scope backlint
    // enforces on the live tree.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("lock_tiers.toml");
    let shipped =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let cfg = config::parse(&shipped).expect("shipped registry parses");
    let bad = fixture("bad_wallclock_in_obs.rs");

    // The same source trips the rule under an obs-scoped path…
    let (hits, _) = check_source("crates/obs/src/recorder.rs", &bad, &cfg, &Rules::default());
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, RULE_DETERMINISM);
    assert!(hits[0].message.contains("Instant"), "{}", hits[0].message);

    // …and is ignored under clock.rs, the single file deliberately left
    // out of scope so `MonotonicClock` can wrap `Instant`.
    let (clock_hits, _) = check_source("crates/obs/src/clock.rs", &bad, &cfg, &Rules::default());
    assert!(clock_hits.is_empty(), "{clock_hits:?}");
}

#[test]
fn clean_fixture_stays_clean() {
    assert!(findings("clean.rs", &Rules::default()).is_empty());
}

#[test]
fn live_workspace_has_zero_unsuppressed_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let report = run_check(root, &Rules::default()).expect("check runs");
    assert!(
        report.clean(),
        "unsuppressed findings in the live tree:\n{:#?}",
        report.findings
    );
    // Every suppression in the tree must absorb at least one finding
    // (unused ones surface as findings, so `clean()` already implies this;
    // assert it directly for a readable failure).
    for s in &report.suppressions {
        assert!(s.used > 0, "stale suppression at {}:{}", s.file, s.line);
    }
}
