//! Quickstart: drive the SuperFlow RTL-to-GDS pipeline stage by stage on a
//! small hand-written structural-Verilog module and write the resulting
//! layout.
//!
//! `FlowSession::run` drives the whole pipeline in one call. This example
//! drives the same loop by hand: `FlowSession::advance` runs the stage after
//! the artifact it is given and hands back the next one — synthesis,
//! placement, routing, DRC — so each can be inspected (or serialized as a
//! resumable JSON checkpoint) before the next stage runs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use superflow_suite::prelude::*;

const FULL_ADDER: &str = r#"
    // A one-bit full adder: the classic AQFP showcase, because the carry
    // function maps onto a single majority gate.
    module full_adder(a, b, cin, sum, cout);
      input a, b, cin;
      output sum, cout;
      wire ab, s1, t1, t2, t3, u1;
      xor g1(ab, a, b);
      xor g2(sum, ab, cin);
      and g3(t1, a, b);
      and g4(t2, b, cin);
      and g5(t3, cin, a);
      or  g6(u1, t1, t2);
      or  g7(cout, u1, t3);
    endmodule
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Configure the flow with the builder API: the built-in MIT-LL
    //    technology (any `TechSpec` works here — a registry name, a dumped
    //    tech file, or an inline `Technology` value), SuperFlow placer,
    //    default knobs — then open a staged session.
    let config = FlowConfig::paper_default()
        .with_tech(TechSpec::builtin(aqfp_cells::MIT_LL_SQF5EE))
        .with_placer(aqfp_place::PlacerKind::SuperFlow);
    let mut session = FlowSession::new(config)?;

    // 2. Synthesis, then one `advance` per later stage until the check
    //    stage. After placement the artifact could be checkpointed with
    //    `artifact.to_json()` and resumed in a later session through
    //    `Artifact::from_json`.
    let netlist = aqfp_netlist::parsers::parse_verilog(FULL_ADDER)?;
    let mut artifact = Artifact::Synthesized(session.synthesize(&netlist)?);
    describe(&artifact);
    while let Some(next) = artifact.stage().next() {
        artifact = session.advance(artifact)?;
        assert_eq!(artifact.stage(), next);
        describe(&artifact);
    }
    let Artifact::Checked(checked) = artifact else { unreachable!("the loop ends at check") };

    // 6. Finish: fold everything, plus the per-stage timings the session
    //    collected, into the final report and write the GDSII layout.
    let report = session.finish(checked);
    let gds = report.layout.to_gds_bytes();
    std::fs::write("full_adder.gds", &gds)?;
    println!("  GDS           : full_adder.gds ({} bytes)", gds.len());
    println!(
        "  stage times   : synth {:.2}s / place {:.2}s / route {:.2}s / check {:.2}s",
        report.stage_timings.synthesis_s,
        report.stage_timings.placement_s,
        report.stage_timings.routing_s,
        report.stage_timings.check_s,
    );
    Ok(())
}

/// Prints the paper's table columns for the stage `artifact` completes.
fn describe(artifact: &Artifact) {
    match artifact {
        // Majority conversion, splitters, path balancing (Table II columns).
        Artifact::Synthesized(synthesized) => {
            let stats = synthesized.stats();
            println!("design          : {}", synthesized.design_name);
            println!("-- synthesis (Table II columns) --");
            println!("  JJs           : {}", stats.jj_count);
            println!("  nets          : {}", stats.net_count);
            println!("  delay (phases): {}", stats.delay);
            println!("  buffers       : {}", stats.buffer_count);
            println!("  splitters     : {}", stats.splitter_count);
        }
        // Global + legalization + detailed, then buffer rows (Table III).
        Artifact::Placed(placed) => {
            println!("-- placement (Table III columns) --");
            println!("  HPWL          : {:.0} um", placed.placement.hpwl_um);
            println!("  buffer lines  : {}", placed.placement.buffer_lines);
            println!("  WNS           : {} ps", placed.placement.wns_display());
        }
        // Layer-wise channel routing with space expansion (Table IV).
        Artifact::Routed(routed) => {
            println!("-- routing (Table IV columns) --");
            println!("  routed nets   : {}", routed.routing.stats.nets_routed);
            println!("  routed length : {:.0} um", routed.routing.stats.total_wirelength_um);
            println!("  vias          : {}", routed.routing.stats.total_vias);
        }
        // Layout generation + DRC with incremental violation repair (only
        // channels whose cells moved are rerouted).
        Artifact::Checked(checked) => {
            println!("-- signoff --");
            println!(
                "  DRC           : {} ({} repair iterations)",
                if checked.drc.is_clean() { "clean" } else { "violations remain" },
                checked.drc_iterations,
            );
        }
    }
}
