//! Million-cell scale trajectory: place + route + streaming GDS wall-clock
//! and peak RSS at three placed-cell decades (~10^4, ~10^5, ~10^6 cells).
//!
//! Each row runs one `large::tiled_multiplier` design through the full
//! back-end once — paper-default placement (sharded global placer on the
//! auto thread count), channel routing, and GDS emission through the
//! streaming writer into a byte-counting sink (no in-memory byte image, no
//! multi-hundred-MB artifact on disk). Sizes run smallest-first because the
//! per-row memory number is the monotone `VmHWM` high-water mark.
//!
//! This bench does not sample: a scaling claim needs placed-cell counts,
//! stage splits, output size and peak RSS per row, and the 10^6 row is far
//! too expensive to run ten times. One measured run per row goes into
//! `BENCH_scale.json` (report-only compared against the committed file,
//! then rewritten).
//!
//! Flags and knobs:
//!
//! * `--test` — CI smoke mode: run only the smallest grid, skip the
//!   baseline file entirely;
//! * `SCALE_MAX_GRID=<n>` — cap the generator grid (rows whose grid
//!   exceeds the cap are skipped; the baseline file is then left
//!   untouched, since a partial run must not clobber the full trajectory).

use std::io::{self, Write};
use std::time::Instant;

use aqfp_cells::Technology;
use aqfp_layout::LayoutGenerator;
use aqfp_netlist::generators::large;
use aqfp_place::{PlacementEngine, PlacerKind};
use aqfp_route::Router;
use aqfp_synth::Synthesizer;
use bench::scale::{compare_and_emit, peak_rss_kb, ScaleRow};

/// The measured rows: `tiled_multiplier` grid sizes whose placed designs
/// land near 10^4 / 10^5 / 10^6 cells (the committed `BENCH_scale.json`
/// records the exact counts).
const ROWS: [(usize, &str); 3] = [(15, "1e4"), (34, "1e5"), (76, "1e6")];

/// A `Write` sink that counts bytes and drops them, so the GDS row
/// measures streaming-emission cost without a 300 MB artifact.
struct CountingSink {
    bytes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs one grid size through synth (untimed setup) + place + route +
/// streamed GDS, each stage timed once.
fn measure(grid: usize, label: &str) -> ScaleRow {
    let technology = Technology::mit_ll_sqf5ee();
    let netlist = large::tiled_multiplier(grid);
    let synthesized =
        Synthesizer::new(technology.clone()).run(&netlist).expect("generated designs synthesize");

    let start = Instant::now();
    let placed =
        PlacementEngine::new(technology.clone()).place(&synthesized, PlacerKind::SuperFlow);
    let place_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let routing = Router::new(technology.clone()).route(&placed.design);
    let route_s = start.elapsed().as_secs_f64();

    let mut sink = CountingSink { bytes: 0 };
    let start = Instant::now();
    let summary = LayoutGenerator::new(technology)
        .stream_layout(&placed.design, &routing, &mut sink)
        .expect("counting sink cannot fail");
    let gds_s = start.elapsed().as_secs_f64();
    assert_eq!(summary.cell_instances, placed.design.cell_count());

    ScaleRow {
        label: label.to_owned(),
        grid,
        placed_cells: placed.design.cell_count(),
        nets: placed.design.nets.len(),
        place_s,
        route_s,
        gds_s,
        gds_bytes: sink.bytes,
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|arg| arg == "--test");
    if test_mode {
        // CI smoke: the smallest grid end to end, no baseline traffic.
        let row = measure(3, "smoke");
        assert!(row.placed_cells > 0 && row.gds_bytes > 0);
        println!("test scale_perf/smoke ... ok");
        return;
    }

    let max_grid: usize = std::env::var("SCALE_MAX_GRID")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(usize::MAX);

    let mut rows = Vec::new();
    let mut skipped = false;
    for (grid, label) in ROWS {
        if grid > max_grid {
            println!("skipping {label} (grid {grid} > SCALE_MAX_GRID {max_grid})");
            skipped = true;
            continue;
        }
        let row = measure(grid, label);
        println!(
            "{:<4} grid {:>2}: {:>9} cells / {:>9} nets  place {:>7.2}s  route {:>7.2}s  \
             gds {:>6.2}s  ({:>6.1} MB streamed, rss {} MB)",
            row.label,
            row.grid,
            row.placed_cells,
            row.nets,
            row.place_s,
            row.route_s,
            row.gds_s,
            row.gds_bytes as f64 / (1024.0 * 1024.0),
            row.peak_rss_kb / 1024,
        );
        rows.push(row);
    }

    compare_and_emit(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json"),
        &rows,
        skipped,
    );
}
