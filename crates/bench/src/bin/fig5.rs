//! Regenerates Fig. 5: the complete GDSII layout of the `apc128` benchmark,
//! written to `apc128.gds` in the current directory.
//!
//! ```text
//! cargo run --release -p bench --bin fig5 [--quick]
//! ```
//!
//! With `--quick` the smaller `apc32` circuit is used instead, which
//! exercises the same code path in a few seconds.
//!
//! The run drives `FlowSession::run` with an observer so each stage reports
//! its wall-clock share as it completes.

use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
use superflow::{FlowConfig, FlowObserver, FlowSession, FlowStage, RepairScope};

/// Prints one line per completed stage and per DRC-repair iteration.
struct Progress;

impl FlowObserver for Progress {
    fn stage_finished(&mut self, stage: FlowStage, elapsed_s: f64) {
        println!("  {:<9} : {elapsed_s:.2}s", stage.name());
    }

    fn drc_iteration(
        &mut self,
        iteration: usize,
        report: &aqfp_layout::DrcReport,
        scope: RepairScope<'_>,
    ) {
        println!("  repair #{iteration}: {} violation(s), {scope}", report.violations.len());
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let benchmark = if quick { Benchmark::Apc32 } else { Benchmark::Apc128 };

    println!("Fig. 5: staged flow for AQFP circuit {benchmark}");
    let mut session =
        FlowSession::new(FlowConfig::paper_default()).expect("built-in technology resolves");
    session.add_observer(Box::new(Progress));
    let report = session.run(&benchmark_circuit(benchmark)).expect("benchmark circuits are valid");

    let bytes = report.layout.to_gds_bytes();
    let path = format!("{}.gds", report.design_name);
    std::fs::write(&path, &bytes).expect("write GDS file");
    println!("  cells placed : {}", report.layout.cell_instances);
    println!("  wire paths   : {}", report.layout.wire_paths);
    println!("  chip size    : {:.0} x {:.0} um", report.layout.width_um, report.layout.height_um);
    println!(
        "  DRC          : {}",
        if report.drc.is_clean() {
            "clean".into()
        } else {
            format!("{} findings", report.drc.violations.len())
        }
    );
    println!("  GDS written  : {path} ({} bytes)", bytes.len());
    println!("\n{}", report.summary());
}
