//! Mutation validation of the cross-file rules: each test copies the real
//! workspace, seeds one representative coverage hole, and proves the rule
//! that exists to catch it actually fires. This is the lint's own
//! sanitizer-style evidence — a rule that cannot catch its target
//! mutation is dead weight.

mod util;

use smt_lint::RuleCode;
use util::TempWorkspace;

#[test]
fn pristine_copy_is_clean() {
    let ws = TempWorkspace::copy_current("pristine");
    let r = ws.run();
    assert!(
        r.is_clean(),
        "the copied tree must lint clean before any mutation:\n{}",
        smt_lint::render(&r, false)
    );
}

#[test]
fn dropping_a_dispatch_arm_fires_smt009() {
    let ws = TempWorkspace::copy_current("smt009");
    ws.mutate(
        "crates/core/src/factory.rs",
        "PolicyKind::Flush => v.visit(Flush::new()),",
        "",
    );
    let r = ws.run();
    assert!(
        r.active
            .iter()
            .any(|d| d.code == RuleCode::Smt009 && d.message.contains("Flush")),
        "a dispatch fn missing the Flush variant must fire SMT009:\n{}",
        smt_lint::render(&r, false)
    );
}

#[test]
fn untesting_an_invariant_fires_smt010() {
    let ws = TempWorkspace::copy_current("smt010");
    // Retarget INV008's only mutation test at a different invariant: the
    // EventLenMismatch class loses its firing evidence.
    ws.mutate(
        "crates/pipeline/tests/sanitizer.rs",
        "InvariantCode::EventLenMismatch",
        "InvariantCode::EventPastDue",
    );
    let r = ws.run();
    assert!(
        r.active
            .iter()
            .any(|d| d.code == RuleCode::Smt010 && d.message.contains("INV008")),
        "an untested invariant must fire SMT010:\n{}",
        smt_lint::render(&r, false)
    );
}

#[test]
fn ungating_a_hook_fires_smt011() {
    let ws = TempWorkspace::copy_current("smt011");
    ws.append(
        "crates/pipeline/src/sim.rs",
        "\nfn rogue_probe_poke<P: Probe>(probe: &mut P, state: &CycleState) {\n    \
         probe.on_sample(state);\n}\n",
    );
    let r = ws.run();
    assert!(
        r.active.iter().any(|d| d.code == RuleCode::Smt011),
        "a hook call outside any ENABLED gate must fire SMT011:\n{}",
        smt_lint::render(&r, false)
    );
}

#[test]
fn exit_const_drift_fires_smt012() {
    let ws = TempWorkspace::copy_current("smt012");
    ws.append(
        "crates/experiments/src/error.rs",
        "\npub const EXIT_ROGUE: i32 = 9;\n",
    );
    let r = ws.run();
    assert!(
        r.active
            .iter()
            .any(|d| d.code == RuleCode::Smt012 && d.message.contains("EXIT_ROGUE")),
        "an exit const outside the 0-5 contract must fire SMT012:\n{}",
        smt_lint::render(&r, false)
    );
}

#[test]
fn a_missing_doc_input_is_an_error() {
    let ws = TempWorkspace::copy_current("nodoc");
    std::fs::remove_file(ws.root.join("README.md")).expect("README.md was copied");
    let err = smt_lint::run(&ws.root).expect_err("a missing lint input must fail the run");
    assert!(err.contains("README.md"), "{err}");
}
