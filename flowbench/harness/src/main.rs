//! Child-process harness of the flow benchmark; `flowbench/run.py` drives it.
//!
//! Each invocation runs one unit of measured work in a fresh process and
//! prints one JSON line on stdout:
//! `{"metrics": {...}, "errors": [...], "statuses": {...}}`. Every time is
//! taken here, around calls into the flow's public API, never inside it.
//!
//! ```text
//! flowbench gen <family> <cells> <seed> <out.v>      generated design as Verilog
//! flowbench setup <large|suite> <threads>             set-up only
//! flowbench flow <in.v> <out.gds> <threads>           one untraced flow, text to GDS
//! flowbench trace-flow <in.v> <out.gds> <threads>     one traced flow with pass replays
//! flowbench batch <journal> <out-dir> <workers> <design>...
//!                                                     one BatchRunner::run (cold or resume)
//! flowbench suite-qor <journal> <design>...           QoR of the journal's check checkpoints
//! flowbench trace-suite <threads> <design>            traced flow of one suite design
//! flowbench ckpt <journal> <design>...                decode and re-encode the journal
//! ```

mod output;
mod replay;
mod trace;

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use superflow::netlist::generators::LargeFamily;
use superflow::netlist::parsers::parse_verilog;
use superflow::netlist::writers::to_verilog;
use superflow::synth::truth::MappingTable;
use superflow::{
    error_chain, BatchConfig, BatchJob, BatchRunner, Checked, DesignStatus, FlowConfig, FlowError,
    FlowSession, FlowStage, Placed, Routed, Synthesized, VerifyConfig,
};

use output::{mb, peak_rss_mb, secs, stage_call, Output};

fn main() {
    let entry = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(entry, &args) {
        Ok(output) => output.print(),
        Err(error) => {
            eprintln!("flowbench: {error}");
            std::process::exit(1);
        }
    }
}

fn run(entry: Instant, args: &[String]) -> Result<Output, String> {
    let arg = |index: usize| {
        args.get(index).map(String::as_str).ok_or_else(|| format!("missing argument {index}"))
    };
    let number = |index: usize| -> Result<usize, String> {
        arg(index)?.parse().map_err(|e| format!("argument {index}: {e}"))
    };
    match arg(0)? {
        "gen" => generate(arg(1)?, number(2)?, number(3)? as u64, Path::new(arg(4)?)),
        "setup" => setup_only(entry, arg(1)?, number(2)?),
        "flow" => flow(entry, Path::new(arg(1)?), Path::new(arg(2)?), number(3)?),
        "trace-flow" => trace_flow(entry, Path::new(arg(1)?), Path::new(arg(2)?), number(3)?),
        "batch" => batch(entry, Path::new(arg(1)?), Path::new(arg(2)?), number(3)?, &args[4..]),
        "suite-qor" => suite_qor(Path::new(arg(1)?), &args[2..]),
        "trace-suite" => trace_suite(entry, number(1)?, arg(2)?),
        "ckpt" => checkpoints(Path::new(arg(1)?), &args[2..]),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// The flow configuration of the generated large designs.
fn large_config(threads: usize) -> FlowConfig {
    FlowConfig::fast().with_threads(threads)
}

/// The flow configuration of the paper suite: paper default with every
/// verify gate on.
fn suite_config() -> FlowConfig {
    FlowConfig::paper_default()
        .with_verify(VerifyConfig { enabled: true, ..VerifyConfig::default() })
}

/// Opens a session the way every flow invocation pays for it: technology
/// resolve and validate, then the first `MappingTable::global()` build.
/// Records `setup_s` from process entry.
fn open_session(
    config: FlowConfig,
    entry: Instant,
    out: &mut Output,
) -> Result<FlowSession, String> {
    let session = FlowSession::new(config).map_err(|e| error_chain(&e))?;
    let start = Instant::now();
    black_box(MappingTable::global());
    out.add("synth.mapping_table_s", secs(start));
    out.add("setup_s", secs(entry));
    Ok(session)
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn write_bytes(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn generate(family: &str, cells: usize, seed: u64, path: &Path) -> Result<Output, String> {
    let family =
        LargeFamily::parse(family).ok_or_else(|| format!("unknown design family `{family}`"))?;
    write_bytes(path, to_verilog(&family.by_cells(cells, seed)).as_bytes())?;
    Ok(Output::default())
}

fn setup_only(entry: Instant, kind: &str, threads: usize) -> Result<Output, String> {
    let mut out = Output::default();
    match kind {
        "large" => {
            black_box(open_session(large_config(threads), entry, &mut out)?);
        }
        "suite" => {
            black_box(open_runner(entry, Path::new("."), Path::new("."), threads, &mut out)?);
        }
        other => return Err(format!("unknown set-up kind `{other}`")),
    }
    Ok(out)
}

/// One untraced flow: Verilog text to the finished GDS byte stream.
fn flow(entry: Instant, input: &Path, gds_path: &Path, threads: usize) -> Result<Output, String> {
    let mut out = Output::default();
    let mut session = open_session(large_config(threads), entry, &mut out)?;
    let text = read_text(input)?;
    let chain = |e: superflow::FlowError| error_chain(&e);

    let start = Instant::now();
    let netlist = parse_verilog(&text).map_err(|e| e.to_string())?;
    let synthesized = session.synthesize(&netlist).map_err(chain)?;
    let placed = session.place(synthesized).map_err(chain)?;
    let routed = session.route(placed).map_err(chain)?;
    let checked = session.check(routed).map_err(chain)?;
    let report = session.finish(checked);
    let gds = report.layout.to_gds_bytes();
    out.add("flow_s", secs(start));
    out.add("peak_rss_mb", peak_rss_mb());

    out.add_qor(&report.routing, &report.placement.timing, &report.drc);
    out.add("gds_mb", mb(gds.len()));
    write_bytes(gds_path, &gds)?;
    Ok(out)
}

/// One traced flow of a generated design: the stage calls with an observer
/// and RSS probes, each pass chain replayed and checked against its stage,
/// then LEC, phase and LVS on the result.
fn trace_flow(
    entry: Instant,
    input: &Path,
    gds_path: &Path,
    threads: usize,
) -> Result<Output, String> {
    let mut out = Output::default();
    let session = open_session(large_config(threads), entry, &mut out)?;
    let text = read_text(input)?;
    let mut tracer = trace::Tracer::new(session);
    let gds = tracer.run(trace::Input::Verilog(&text), &mut out)?;
    write_bytes(gds_path, &gds)?;
    Ok(out)
}

/// The traced flow of one suite design with the batch's per-design thread
/// count; verify runs after the flow, timed on its own.
fn trace_suite(entry: Instant, threads: usize, design: &str) -> Result<Output, String> {
    let mut out = Output::default();
    let config = FlowConfig::paper_default().with_threads(threads);
    let session = open_session(config, entry, &mut out)?;
    trace::Tracer::new(session).run(trace::Input::Named(design), &mut out)?;
    Ok(out)
}

/// Set-up of a batch invocation: the session-level technology resolve and
/// validate, the mapping table, and the runner itself.
fn open_runner(
    entry: Instant,
    journal: &Path,
    output_dir: &Path,
    workers: usize,
    out: &mut Output,
) -> Result<BatchRunner, String> {
    black_box(open_session(suite_config(), entry, &mut Output::default())?);
    let config = BatchConfig::new(suite_config())
        .with_workers(workers)
        .with_journal_dir(journal)
        .with_output_dir(output_dir);
    let runner = BatchRunner::new(config);
    out.add("setup_s", secs(entry));
    Ok(runner)
}

/// One `BatchRunner::run` over the suite. Whether it is the cold run or the
/// resume depends only on what the journal already holds.
fn batch(
    entry: Instant,
    journal: &Path,
    output_dir: &Path,
    workers: usize,
    designs: &[String],
) -> Result<Output, String> {
    let mut out = Output::default();
    let runner = open_runner(entry, journal, output_dir, workers, &mut out)?;
    let jobs: Vec<BatchJob> = designs.iter().map(BatchJob::from_input).collect();
    let start = Instant::now();
    let report = runner.run(&jobs).map_err(|e| error_chain(&e))?;
    out.add("wall_s", secs(start));
    out.add("peak_rss_mb", peak_rss_mb());
    out.add("batch.checkpoint_hits", report.checkpoint_hits as f64);
    for design in &report.designs {
        out.statuses.insert(design.name.clone(), design.status.label().to_owned());
        out.add(&format!("hits.{}", design.name), design.checkpoint_hits as f64);
        if let DesignStatus::Failed { error, .. } = &design.status {
            out.errors.push(format!("{}: {error}", design.name));
        }
        for stage in FlowStage::ALL {
            let name = stage.name();
            if let Some(predicted) = &design.predicted_stage_s {
                out.add(&format!("predict.forecast.{name}_s"), predicted.get(stage));
            }
            if let Some(actual) = &design.actual_stage_s {
                out.add(&format!("session.{}_s", stage_call(stage)), actual.get(stage));
            }
        }
    }
    Ok(out)
}

/// The suite's quality of results, read back from each design's check
/// checkpoint: wirelength, JJs and DRC residual summed, slack the worst.
fn suite_qor(journal: &Path, designs: &[String]) -> Result<Output, String> {
    let mut out = Output::default();
    for design in designs {
        let text = read_text(&journal.join(design).join("check.json"))?;
        let checked = Checked::from_json(&text).map_err(|e| format!("{design}: {e}"))?;
        let placement = &checked.routed.placed.placement;
        out.add_qor(&checked.routed.routing, &placement.timing, &checked.drc);
    }
    Ok(out)
}

/// Decodes every checkpoint a batch journaled and encodes it again, timing
/// `from_json` and `to_json` per stage; the re-encoding must reproduce the
/// journal's bytes.
fn checkpoints(journal: &Path, designs: &[String]) -> Result<Output, String> {
    let mut out = Output::default();
    for design in designs {
        let dir = journal.join(design);
        round_trip(
            &dir,
            FlowStage::Synthesis,
            Synthesized::from_json,
            Synthesized::to_json,
            &mut out,
        )?;
        round_trip(&dir, FlowStage::Placement, Placed::from_json, Placed::to_json, &mut out)?;
        round_trip(&dir, FlowStage::Routing, Routed::from_json, Routed::to_json, &mut out)?;
        round_trip(&dir, FlowStage::Check, Checked::from_json, Checked::to_json, &mut out)?;
    }
    Ok(out)
}

fn round_trip<T>(
    dir: &Path,
    stage: FlowStage,
    from_json: impl Fn(&str) -> Result<T, FlowError>,
    to_json: impl Fn(&T) -> Result<String, FlowError>,
    out: &mut Output,
) -> Result<(), String> {
    let name = stage.name();
    let path = dir.join(format!("{name}.json"));
    let text = read_text(&path)?;
    out.add(&format!("ckpt.{name}_mb"), mb(text.len()));
    let start = Instant::now();
    let artifact =
        from_json(&text).map_err(|e| format!("{}: {}", path.display(), error_chain(&e)))?;
    out.add(&format!("ckpt.{name}.from_json_s"), secs(start));
    let start = Instant::now();
    let encoded = to_json(&artifact).map_err(|e| error_chain(&e))?;
    out.add(&format!("ckpt.{name}.to_json_s"), secs(start));
    if encoded != text {
        out.errors
            .push(format!("{}: re-encoding does not reproduce the checkpoint", path.display()));
    }
    Ok(())
}
