//! Integration tests for the staged `FlowSession` API: JSON checkpoint
//! round-trips that resume to bit-identical GDS, and incremental DRC repair
//! that matches a from-scratch reroute byte for byte.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use aqfp_layout::DrcReport;
use aqfp_route::Router;
use superflow_suite::prelude::*;

fn fast_config() -> FlowConfig {
    FlowConfig::fast()
}

#[test]
fn every_stage_checkpoint_resumes_to_identical_gds() {
    let netlist = benchmark_circuit(Benchmark::Adder8);

    // Uninterrupted reference run, snapshotting every stage artifact.
    let mut session = FlowSession::new(fast_config()).expect("session opens");
    let synthesized = session.synthesize(&netlist).expect("synthesis succeeds");
    let synth_json = synthesized.to_json().expect("serialize synthesized");
    let placed = session.place(synthesized).expect("placement succeeds");
    let placed_json = placed.to_json().expect("serialize placed");
    let routed = session.route(placed).expect("routing succeeds");
    let routed_json = routed.to_json().expect("serialize routed");
    let checked = session.check(routed).expect("check succeeds");
    let checked_json = checked.to_json().expect("serialize checked");
    let reference = session.finish(checked);
    let reference_gds = reference.layout.to_gds_bytes();

    // Resume from the synthesis checkpoint: place → route → check → finish.
    {
        let mut resumed = FlowSession::new(fast_config()).expect("session opens");
        let synthesized = Synthesized::from_json(&synth_json).expect("checkpoint parses");
        let placed = resumed.place(synthesized).expect("same-technology resume");
        let routed = resumed.route(placed).expect("same-technology resume");
        let checked = resumed.check(routed).expect("same-technology resume");
        let report = resumed.finish(checked);
        assert_eq!(report.layout.to_gds_bytes(), reference_gds, "resume from synthesis");
        // A resumed session only times the stages it actually ran.
        assert_eq!(report.stage_timings.synthesis_s, 0.0);
        assert!(report.stage_timings.placement_s >= 0.0);
    }

    // Resume from the placement checkpoint: route → check → finish.
    {
        let mut resumed = FlowSession::new(fast_config()).expect("session opens");
        let placed = Placed::from_json(&placed_json).expect("checkpoint parses");
        let routed = resumed.route(placed).expect("same-technology resume");
        let checked = resumed.check(routed).expect("same-technology resume");
        let report = resumed.finish(checked);
        assert_eq!(report.layout.to_gds_bytes(), reference_gds, "resume from placement");
    }

    // Resume from the routing checkpoint: check → finish.
    {
        let mut resumed = FlowSession::new(fast_config()).expect("session opens");
        let routed = Routed::from_json(&routed_json).expect("checkpoint parses");
        let checked = resumed.check(routed).expect("same-technology resume");
        let report = resumed.finish(checked);
        assert_eq!(report.layout.to_gds_bytes(), reference_gds, "resume from routing");
    }

    // Resume from the check checkpoint: finish only.
    {
        let mut resumed = FlowSession::new(fast_config()).expect("session opens");
        let checked = Checked::from_json(&checked_json).expect("checkpoint parses");
        let report = resumed.finish(checked);
        assert_eq!(report.layout.to_gds_bytes(), reference_gds, "resume from check");
        assert_eq!(report.drc_iterations, reference.drc_iterations);
        assert_eq!(report.drc, reference.drc);
        assert_eq!(report.jj_after_routing(), reference.jj_after_routing());
    }
}

#[test]
fn flow_reports_round_trip_through_json() {
    let report =
        Flow::with_config(fast_config()).run_benchmark(Benchmark::Adder8).expect("flow succeeds");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let parsed: FlowReport = serde_json::from_str(&json).expect("report parses");
    assert_eq!(parsed.design_name, report.design_name);
    assert_eq!(parsed.layout.to_gds_bytes(), report.layout.to_gds_bytes());
    assert_eq!(parsed.routing, report.routing);
    assert_eq!(parsed.drc, report.drc);
    assert_eq!(parsed.stage_timings, report.stage_timings);
}

/// Captures the reroute scope of each DRC-repair iteration: `None` for a
/// full reroute, `Some(rows)` for an incremental one (empty = unchanged).
struct RepairWatch(Rc<RefCell<Vec<Option<Vec<usize>>>>>);

impl FlowObserver for RepairWatch {
    fn drc_iteration(&mut self, _iteration: usize, _report: &DrcReport, scope: RepairScope<'_>) {
        self.0.borrow_mut().push(match scope {
            RepairScope::Full => None,
            RepairScope::Channels(rows) => Some(rows.to_vec()),
            RepairScope::Unchanged => Some(Vec::new()),
        });
    }
}

/// A small structural-Verilog module whose flow run is naturally DRC-clean
/// (no max-wirelength residuals), so the only violations the repair loop
/// ever sees in this test are the ones the test plants itself.
const MAJORITY_VOTE: &str = r#"
    module majority_vote(a, b, c, y);
      input a, b, c;
      output y;
      wire ab, bc, ca, t;
      and g1(ab, a, b);
      and g2(bc, b, c);
      and g3(ca, c, a);
      or g4(t, ab, bc);
      or g5(y, t, ca);
    endmodule
"#;

#[test]
fn incremental_repair_is_byte_identical_to_a_from_scratch_reroute() {
    let netlist = aqfp_netlist::parsers::parse_verilog(MAJORITY_VOTE).expect("valid Verilog");
    let iterations = Rc::new(RefCell::new(Vec::new()));

    let mut session = FlowSession::new(fast_config()).expect("session opens");
    session.add_observer(Box::new(RepairWatch(Rc::clone(&iterations))));
    let synthesized = session.synthesize(&netlist).expect("synthesis succeeds");
    let placed = session.place(synthesized).expect("placement succeeds");
    let mut routed = session.route(placed).expect("routing succeeds");

    // Sabotage the placement *after* routing: drop one cell exactly onto its
    // left-hand row neighbour. The overlap is a CellSpacing violation the
    // check stage must repair by re-legalizing; the victim is chosen so it
    // is not the design's rightmost cell, which keeps the routing grid's
    // column count unchanged and genuinely exercises the incremental path.
    let victim = {
        let design = &routed.placed.placement.design;
        let layer_width = design.layer_width();
        design
            .rows
            .iter()
            .filter(|row| row.len() >= 2)
            .map(|row| row[1])
            .find(|&cell| design.cells[cell].right() < layer_width - 1e-9)
            .expect("a row with two cells away from the right edge")
    };
    {
        let design = &mut routed.placed.placement.design;
        let left = design.rows[design.cells[victim].row][0];
        design.cells[victim].x = design.cells[left].x;
    }
    routed.mark_cell_moved(victim);
    assert!(routed.is_dirty());

    let checked = session.check(routed).expect("check succeeds");

    // The repair loop must have run at least once, and at least one
    // iteration must have rerouted a bounded dirty set rather than the
    // whole design.
    assert!(checked.drc_iterations >= 1, "the sabotage must trigger a repair iteration");
    let seen = iterations.borrow().clone();
    assert!(!seen.is_empty());
    let channel_count = checked.routed.routing.channels.len();
    assert!(
        seen.iter().any(|scope| {
            scope.as_ref().is_some_and(|rows| !rows.is_empty() && rows.len() < channel_count)
        }),
        "at least one repair iteration must reroute only dirty channels \
         (observed {seen:?} over {channel_count} channels)"
    );

    // Byte-identical guarantee: rerouting the repaired design from scratch
    // gives exactly the routing the incremental loop produced.
    let library = Arc::clone(session.technology());
    let router = Router::with_config(library, session.config().router);
    let scratch = router.route(&checked.routed.placed.placement.design);
    assert_eq!(scratch, checked.routed.routing);
    let scratch_json = serde_json::to_string(&scratch).expect("serialize");
    let incremental_json = serde_json::to_string(&checked.routed.routing).expect("serialize");
    assert_eq!(scratch_json, incremental_json, "… down to the serialized bytes");

    // And the repair genuinely fixed the overlap it was given.
    assert_eq!(checked.routed.placed.placement.design.overlap_count(), 0);
}

/// The tentpole guarantee, asserted over benchmark circuits: every one of
/// them reaches `check` with max-wirelength residuals, so the repair loop
/// takes the buffer-row branch (rows and nets renumbered) on each — and
/// that repair stays incremental. The loop never falls back to
/// `RepairScope::Full`, and the final routing, GDS and timing are
/// byte-identical to a from-scratch route/layout/scalar-analysis of the
/// repaired design.
#[test]
fn buffer_row_repair_is_incremental_and_byte_identical() {
    use aqfp_layout::LayoutGenerator;
    use aqfp_timing::TimingAnalyzer;

    for benchmark in [Benchmark::Adder8, Benchmark::C432, Benchmark::Apc32] {
        let iterations = Rc::new(RefCell::new(Vec::new()));
        let mut session = FlowSession::new(fast_config()).expect("session opens");
        session.add_observer(Box::new(RepairWatch(Rc::clone(&iterations))));
        let synthesized =
            session.synthesize(&benchmark_circuit(benchmark)).expect("synthesis succeeds");
        let placed = session.place(synthesized).expect("placement succeeds");
        let rows_before = placed.design().rows.len();
        let routed = session.route(placed).expect("routing succeeds");
        assert!(
            !routed.design().max_wirelength_violations().is_empty(),
            "{benchmark:?} must reach check with max-wirelength residuals \
             for this test to exercise the buffer-row branch"
        );

        let checked = session.check(routed).expect("check succeeds");

        // The buffer-row branch ran (rows were inserted) and every repair
        // iteration stayed incremental.
        assert!(checked.drc_iterations >= 1, "{benchmark:?}: repair must run");
        let design = &checked.routed.placed.placement.design;
        assert!(
            design.rows.len() > rows_before,
            "{benchmark:?}: buffer rows must have been inserted ({} rows before, {} after)",
            rows_before,
            design.rows.len()
        );
        let seen = iterations.borrow().clone();
        assert!(!seen.is_empty());
        assert!(
            seen.iter().all(|scope| scope.is_some()),
            "{benchmark:?}: no repair iteration may fall back to a full reroute \
             (observed {seen:?})"
        );
        assert!(
            seen.iter().any(|scope| scope.as_ref().is_some_and(|rows| !rows.is_empty())),
            "{benchmark:?}: the buffer-row iterations must reroute through a dirty-channel set"
        );
        // Byte-identical guarantee, end to end: routing, GDS and timing all
        // equal a from-scratch run over the repaired design.
        let library = Arc::clone(session.technology());
        let router = Router::with_config(Arc::clone(&library), session.config().router);
        let scratch_routing = router.route(design);
        assert_eq!(scratch_routing, checked.routed.routing, "{benchmark:?}: routing matches");
        let scratch_json = serde_json::to_string(&scratch_routing).expect("serialize");
        let incremental_json = serde_json::to_string(&checked.routed.routing).expect("serialize");
        assert_eq!(
            scratch_json, incremental_json,
            "{benchmark:?}: routing matches down to the serialized bytes"
        );

        let scratch_layout = LayoutGenerator::new(library).generate(design, &scratch_routing);
        assert_eq!(
            scratch_layout.to_gds_bytes(),
            checked.layout.to_gds_bytes(),
            "{benchmark:?}: GDS bytes match a from-scratch layout generation"
        );

        let analyzer = TimingAnalyzer::for_technology(session.technology());
        let fresh = analyzer.analyze(&design.to_placed_nets(), design.layer_width().max(1.0));
        let incremental = &checked.routed.placed.placement.timing;
        assert_eq!(
            fresh.wns_ps.to_bits(),
            incremental.wns_ps.to_bits(),
            "{benchmark:?}: timing is bit-identical to a scalar rebuild"
        );
        assert_eq!(
            fresh.tns_ps.to_bits(),
            incremental.tns_ps.to_bits(),
            "{benchmark:?}: TNS accumulates to the same bits"
        );
        assert_eq!(&fresh, incremental);
    }
}

/// Repair works on (design, routing) alone; the layout is built once, at
/// the end. With repair switched off, that one layout is exactly the
/// layout of the routed design.
#[test]
fn check_without_repair_lays_out_the_routed_design() {
    use aqfp_layout::LayoutGenerator;

    let mut config = fast_config();
    config.max_drc_iterations = 0;
    let mut session = FlowSession::new(config).expect("session opens");
    let synthesized =
        session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("synthesis succeeds");
    let placed = session.place(synthesized).expect("placement succeeds");
    let routed = session.route(placed).expect("routing succeeds");
    let expected = LayoutGenerator::new(Arc::clone(session.technology()))
        .generate(routed.design(), &routed.routing);

    let checked = session.check(routed).expect("check succeeds");
    assert_eq!(checked.drc_iterations, 0);
    assert!(!checked.drc.is_clean(), "adder8 reaches check with residuals to leave alone");
    assert_eq!(checked.layout.to_gds_bytes(), expected.to_gds_bytes());
}

/// Fires the session's cancel token from inside the repair loop.
struct CancelOnRepair(aqfp_cells::CancelToken);

impl FlowObserver for CancelOnRepair {
    fn drc_iteration(&mut self, _iteration: usize, _report: &DrcReport, _scope: RepairScope<'_>) {
        self.0.cancel();
    }
}

/// A cancel that fires mid-repair ends the check stage with
/// `FlowError::Cancelled`, not with a layout of a half-repaired design.
#[test]
fn cancelling_during_repair_cancels_the_check_stage() {
    let cancel = aqfp_cells::CancelToken::new();
    let mut session = FlowSession::new(fast_config()).expect("session opens");
    let synthesized =
        session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("synthesis succeeds");
    let placed = session.place(synthesized).expect("placement succeeds");
    let routed = session.route(placed).expect("routing succeeds");
    assert!(
        !routed.design().max_wirelength_violations().is_empty(),
        "adder8 must reach check with violations for the repair loop to run"
    );

    session.set_cancel_token(cancel.clone());
    session.add_observer(Box::new(CancelOnRepair(cancel)));
    match session.check(routed) {
        Err(FlowError::Cancelled { stage }) => assert_eq!(stage, FlowStage::Check),
        other => panic!("expected FlowError::Cancelled, got {other:?}"),
    }
}

#[test]
fn synthesize_refuses_lint_rejected_netlists_with_the_full_report() {
    // A two-gate combinational loop: structurally parseable, never legal.
    let mut netlist = Netlist::new("looped");
    let a = netlist.add_input("a");
    let g1 = netlist.add_gate(CellKind::And, "g1", vec![a, a]);
    let g2 = netlist.add_gate(CellKind::And, "g2", vec![g1, a]);
    netlist.gate_mut(g1).fanin[1] = g2;
    netlist.add_output("y", g2);

    let mut session = FlowSession::new(fast_config()).expect("session opens");
    // The standalone lint entry point sees the loop ...
    let report = session.lint(&netlist);
    assert!(report.has_errors());
    assert!(report.mentions("AQFP-E001"), "{}", report.render());

    // ... and the synthesize gate refuses with the same report, before
    // `Netlist::validate` gets a say.
    match session.synthesize(&netlist) {
        Err(FlowError::Lint(report)) => {
            assert!(report.mentions("AQFP-E001"), "{}", report.render());
            let rendered = FlowError::Lint(report).to_string();
            assert!(rendered.contains("pre-flight lint"), "{rendered}");
        }
        other => panic!("expected FlowError::Lint, got {other:?}"),
    }
}

#[test]
fn session_construction_lints_the_flow_configuration() {
    // max_splitter_arity 1 would panic splitter insertion; the session must
    // refuse to open (AQFP-E201) instead of failing mid-flow.
    let mut config = fast_config();
    config.synthesis.max_splitter_arity = 1;
    match FlowSession::new(config) {
        Err(FlowError::Lint(report)) => {
            assert!(report.mentions("AQFP-E201"), "{}", report.render());
        }
        other => panic!("expected FlowError::Lint at session construction, got {other:?}"),
    }

    // An allow-list waives the gate: the user takes responsibility.
    let mut waived = fast_config();
    waived.synthesis.max_splitter_arity = 1;
    waived.lint.allow.push("AQFP-E201".to_owned());
    assert!(FlowSession::new(waived).is_ok());
}
