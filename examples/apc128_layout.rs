//! Fig. 5 reproduction: run the full flow on the `apc128` approximate
//! parallel counter and write its GDSII layout, mirroring the layout figure
//! in the paper.
//!
//! ```text
//! cargo run --release --example apc128_layout [--quick]
//! ```
//!
//! `--quick` substitutes the smaller apc32 counter so the example finishes in
//! a few seconds; the full apc128 run takes a few minutes.

use superflow_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let benchmark = if quick { Benchmark::Apc32 } else { Benchmark::Apc128 };

    println!("running the full RTL-to-GDS flow on {benchmark}...");
    let report =
        FlowSession::new(FlowConfig::paper_default())?.run(&benchmark_circuit(benchmark))?;

    println!("{}", report.summary());
    println!("layout statistics:");
    println!("  cell instances : {}", report.layout.cell_instances);
    println!("  wire paths     : {}", report.layout.wire_paths);
    println!(
        "  chip size      : {:.0} x {:.0} um",
        report.layout.width_um, report.layout.height_um
    );
    println!("  DRC iterations : {}", report.drc_iterations);

    let path = format!("{}.gds", report.design_name);
    std::fs::write(&path, report.layout.to_gds_bytes())?;
    println!("wrote {path} — open it in any GDSII viewer (e.g. KLayout) to see the Fig. 5 layout");
    Ok(())
}
