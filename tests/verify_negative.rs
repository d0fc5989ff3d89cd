//! Mutation-style negative tests for the post-stage verification layer.
//!
//! Each test corrupts exactly one structural fact in an otherwise valid
//! flow artifact — one wire, one cell, one phase edge, one logic gate —
//! and asserts that the matching verifier reports the catalogued
//! `AQFP-V0xx` rule id *and* names the corrupted object, so a regression
//! that weakens a verifier shows up as a silent pass here.

use aqfp_verify::{lec, lvs, mutate, phase, Defect};
use superflow::{Checked, FlowConfig, FlowSession};

/// Runs the fast flow on adder8 to the check stage, returning the session
/// (for the verify entry points) and the final artifact.
fn checked_adder8() -> (FlowSession, Checked, aqfp_netlist::Netlist) {
    let mut session = FlowSession::new(FlowConfig::fast()).expect("session starts");
    let netlist = superflow::load_netlist("adder8").expect("benchmark resolves");
    let synthesized = session.synthesize(&netlist).expect("synthesis");
    let placed = session.place(synthesized).expect("placement");
    let routed = session.route(placed).expect("routing");
    let checked = session.check(routed).expect("check");
    (session, checked, netlist)
}

#[test]
fn a_clean_artifact_passes_every_verifier() {
    let (session, checked, netlist) = checked_adder8();
    let mut report = session.verify_checked(&checked);
    report.merge(session.verify_synthesized(&netlist, &checked.routed.placed.synthesized));
    assert!(report.ran("lec") && report.ran("phase") && report.ran("lvs"), "{:?}", report.checks);
    assert!(!report.has_errors(), "clean artifact must verify clean:\n{}", report.render());
}

#[test]
fn a_dropped_wire_reports_coverage_with_its_net() {
    let (session, mut checked, _) = checked_adder8();
    let net = mutate::corrupt_routing(&mut checked.routed.routing).expect("a wire to drop");
    let report = session.verify_routed(&checked.routed);
    assert!(
        report.mentions(phase::RULE_COVERAGE),
        "dropped wire must trip {}:\n{}",
        Defect::Wire.expected_rule(),
        report.render()
    );
    let rendered = report.render();
    assert!(rendered.contains(&format!("n{net}")), "must name net n{net}:\n{rendered}");
}

#[test]
fn a_displaced_cell_reports_lvs_with_its_name() {
    let (session, mut checked, _) = checked_adder8();
    let cell = mutate::corrupt_design_cell(&mut checked.routed.placed.placement.design)
        .expect("a cell to displace");
    let report = session.verify_checked(&checked);
    assert!(
        report.errors().any(|d| d.rule == lvs::RULE_INSTANCE && d.object.as_deref() == Some(&cell)),
        "displaced cell `{cell}` must trip {} naming it:\n{}",
        Defect::Cell.expected_rule(),
        report.render()
    );
}

#[test]
fn a_phase_skipping_net_reports_skew_with_its_index() {
    let (session, mut checked, _) = checked_adder8();
    let net = mutate::corrupt_design_phase(&mut checked.routed.placed.placement.design)
        .expect("a net to repoint");
    let report = session.verify_placed(&checked.routed.placed);
    assert!(
        report.mentions(phase::RULE_PHASE_SKEW),
        "phase skip must trip {}:\n{}",
        Defect::Phase.expected_rule(),
        report.render()
    );
    let rendered = report.render();
    assert!(rendered.contains(&format!("n{net}")), "must name net n{net}:\n{rendered}");
}

#[test]
fn a_flipped_gate_fails_lec_with_a_counterexample() {
    let (session, mut checked, netlist) = checked_adder8();
    let gate =
        mutate::corrupt_netlist_gate(&mut checked.routed.placed.synthesized.synthesis.netlist)
            .expect("a buffer to flip");
    let report = session.verify_synthesized(&netlist, &checked.routed.placed.synthesized);
    assert!(
        report.mentions(lec::RULE_FUNCTION_MISMATCH),
        "flipped gate `{gate}` must trip AQFP-V001:\n{}",
        report.render()
    );
    assert!(
        report.errors().any(|d| d.message.contains("counterexample")),
        "LEC failures must carry a counterexample vector:\n{}",
        report.render()
    );
}

#[test]
fn a_shifted_layout_instance_is_caught_by_lvs() {
    let (session, mut checked, _) = checked_adder8();
    let master = mutate::corrupt_layout(&mut checked.layout).expect("an sref to shift");
    let report = session.verify_checked(&checked);
    assert!(
        report.errors().any(|d| d.rule == lvs::RULE_INSTANCE
            && (d.object.as_deref() == Some(&master) || d.message.contains(&master))),
        "shifted `{master}` reference must trip {}:\n{}",
        lvs::RULE_INSTANCE,
        report.render()
    );
}

/// The CLI-facing contract: every [`Defect`] kind the `--inject-defect`
/// flag accepts trips exactly the rule its docs promise.
#[test]
fn each_defect_kind_trips_its_catalogued_rule() {
    for defect in [Defect::Wire, Defect::Cell, Defect::Phase] {
        let (session, mut checked, _) = checked_adder8();
        match defect {
            Defect::Wire => {
                mutate::corrupt_routing(&mut checked.routed.routing).expect("wire");
            }
            Defect::Cell => {
                mutate::corrupt_design_cell(&mut checked.routed.placed.placement.design)
                    .expect("cell");
            }
            Defect::Phase => {
                mutate::corrupt_design_phase(&mut checked.routed.placed.placement.design)
                    .expect("phase");
            }
        }
        let report = session.verify_checked(&checked);
        assert!(
            report.mentions(defect.expected_rule()),
            "{} defect must trip {}:\n{}",
            defect.name(),
            defect.expected_rule(),
            report.render()
        );
        assert!(report.has_errors());
    }
}
