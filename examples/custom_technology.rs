//! Custom technology: the paper stresses that the AQFP cell library is
//! under active development, so the flow must make it easy to retarget.
//! With the data-driven PDK API, a new process is *data*, not code: dump a
//! built-in technology to a TOML file, edit any number, and drive the whole
//! RTL-to-GDS flow from the edited file.
//!
//! This example does exactly that workflow in-process:
//!
//! 1. run the same RTL under both built-in technologies,
//! 2. dump `mit-ll-sqf5ee` to a file (what `superflow tech dump` writes),
//! 3. edit the dump — a tighter maximum wirelength and a slower clock —
//!    the way a process engineer would edit the text file,
//! 4. load it back (with full validation) and run the flow on it.
//!
//! ```text
//! cargo run --release --example custom_technology
//! ```

use superflow_suite::prelude::*;

fn run_with(label: &str, tech: TechSpec) -> Result<(), Box<dyn std::error::Error>> {
    let config = FlowConfig::fast().with_tech(tech);
    let report = FlowSession::new(config)?.run(&benchmark_circuit(Benchmark::Adder8))?;
    println!(
        "{label:<28} HPWL {:>9.0} um, buffer lines {:>3}, WNS {:>6}",
        report.placement.hpwl_um,
        report.placement.buffer_lines,
        report.placement.wns_display(),
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("adder8 through the flow under four technologies:\n");

    // 1. The built-ins, by registry name.
    run_with("mit-ll-sqf5ee (built-in)", TechSpec::builtin("mit-ll-sqf5ee"))?;
    run_with("aist-stp2 (built-in)", TechSpec::builtin("aist-stp2"))?;

    // 2. Dump the MIT-LL technology to an editable TOML file — the same
    //    bytes `superflow tech dump mit-ll-sqf5ee` prints.
    let dir = std::env::temp_dir().join("superflow_custom_technology");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("mit-ll-tight.toml");
    let dumped = Technology::mit_ll_sqf5ee().to_toml()?;

    // 3. Edit the text, exactly as one would in an editor: a hypothetical
    //    next-generation process with a much tighter maximum wirelength
    //    (expect more buffer lines) and a 4 GHz clock (more slack per
    //    phase).
    let edited = dumped
        .replace("name = \"mit-ll-sqf5ee\"", "name = \"mit-ll-tight\"")
        .replace("max_wirelength = 400.0", "max_wirelength = 250.0")
        .replace("frequency_ghz = 5.0", "frequency_ghz = 4.0");
    std::fs::write(&path, &edited)?;

    // 4. Run the flow from the file. Loading re-validates every field —
    //    a typo'd key or an inconsistent rule is rejected before any stage
    //    runs.
    run_with(
        "custom file (W_max 250, 4 GHz)",
        TechSpec::file(path.to_str().expect("temp path is UTF-8")),
    )?;

    // An inline `Technology` value works too — here with an edit that
    // validation must reject, to show the failure mode.
    let mut broken = Technology::mit_ll_sqf5ee();
    broken.rules.max_wirelength = 5.0; // smaller than min_spacing
    let err = FlowConfig::fast()
        .with_technology(broken)
        .resolve_technology()
        .expect_err("inconsistent rules must be rejected");
    println!("\ninvalid technologies fail loudly before any stage runs:\n  {err}");

    println!("\nTighter maximum wirelength forces more buffer rows, trading area and JJs");
    println!("for shorter hops — the trade-off §II of the paper describes. The custom");
    println!("process lives entirely in {} — no code changed.", path.display());
    Ok(())
}
