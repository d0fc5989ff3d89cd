//! Pass-chain replays. Each replay reruns, pass by pass through the engine
//! crates' public functions, the work one stage call did, times every pass,
//! and checks that the chain reproduces the stage's output exactly — so the
//! per-layer split provably times the same work as the stage.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use superflow::cells::{CancelToken, Technology};
use superflow::layout::{DrcChecker, DrcViolationKind, LayoutGenerator};
use superflow::netlist::Netlist;
use superflow::place::buffer_rows::{insert_buffer_rows, repair_buffer_rows};
use superflow::place::detailed::detailed_place_cancellable;
use superflow::place::global::global_place_with_scratch;
use superflow::place::legalize::legalize;
use superflow::place::{GlobalPlaceScratch, PlacedDesign, PlacerKind};
use superflow::route::Router;
use superflow::synth::balance::balance;
use superflow::synth::fanout::insert_splitters;
use superflow::synth::maj::{convert_to_majority, MajConversionReport};
use superflow::synth::{SynthesisOptions, SynthesizedNetlist};
use superflow::timing::{TimingAnalyzer, TimingBatch};
use superflow::{Checked, FlowConfig, Placed, Routed, Synthesized};

use crate::output::{secs, Output};
use crate::trace::{violation_counts, CheckLog};

/// Replays `Synthesizer::run`: majority conversion, splitter insertion,
/// path balancing.
pub fn synthesis(
    input: &Netlist,
    technology: &Technology,
    options: SynthesisOptions,
    stage: &Synthesized,
    out: &mut Output,
) -> Result<(), String> {
    if options.decompose_to_aoi {
        return Err("AOI decomposition has no public pass to replay".to_owned());
    }
    let start = Instant::now();
    let (converted, maj_report) = if options.majority_conversion {
        convert_to_majority(input, technology)
    } else {
        let jj = input.jj_count(technology);
        (input.clone(), MajConversionReport { jj_before: jj, jj_after: jj, ..Default::default() })
    };
    out.add("synth.maj_s", secs(start));
    let start = Instant::now();
    let (split, splitter_report) = insert_splitters(&converted, options.max_splitter_arity);
    out.add("synth.split_s", secs(start));
    let start = Instant::now();
    let balanced = balance(&split);
    out.add("synth.balance_s", secs(start));

    out.add("synth.cones_examined", maj_report.cones_examined as f64);
    out.add("synth.cones_converted", maj_report.cones_converted as f64);
    out.add("synth.splitters_inserted", splitter_report.splitters_inserted as f64);
    out.add("synth.buffers_inserted", balanced.report.buffers_inserted as f64);
    out.add("synth.gates_out", balanced.netlist.gate_count() as f64);

    let replayed = SynthesizedNetlist {
        stats: balanced.netlist.stats(technology),
        levels: balanced.levels,
        balance_report: balanced.report,
        netlist: balanced.netlist,
        maj_report,
        splitter_report,
    };
    if replayed == stage.synthesis {
        Ok(())
    } else {
        Err(format!(
            "synthesis replay differs from the stage ({} vs {} gates, {:?} vs {:?})",
            replayed.netlist.gate_count(),
            stage.synthesis.netlist.gate_count(),
            replayed.maj_report,
            stage.synthesis.maj_report
        ))
    }
}

/// Replays `PlacementEngine::place` for the SuperFlow placer: the physical
/// view, global placement, legalization, detailed placement, buffer rows
/// and the closing timing analysis.
pub fn placement(
    stage: &Placed,
    technology: &Arc<Technology>,
    config: &FlowConfig,
    out: &mut Output,
) -> Result<(), String> {
    if config.placer != PlacerKind::SuperFlow {
        return Err(format!("placer {} is not replayed", config.placer.name()));
    }
    let options = &config.placement;
    let start = Instant::now();
    let mut design = PlacedDesign::from_synthesized(&stage.synthesized.synthesis, technology);
    out.add("place.build_s", secs(start));
    let start = Instant::now();
    global_place_with_scratch(
        &mut design,
        &options.global,
        &CancelToken::none(),
        &mut GlobalPlaceScratch::new(),
    );
    out.add("place.global_s", secs(start));
    let start = Instant::now();
    legalize(&mut design);
    out.add("place.legalize_s", secs(start));
    let start = Instant::now();
    let detailed = detailed_place_cancellable(
        &mut design,
        &options.detailed.with_technology_timing(technology),
        &CancelToken::none(),
    );
    out.add("place.detailed_s", secs(start));
    out.add("place.detailed_moves", (detailed.swaps_accepted + detailed.slides_accepted) as f64);
    out.add("place.buffer_cells", 0.0);
    let start = Instant::now();
    if options.insert_buffer_rows {
        let (report, _edit) = insert_buffer_rows(&mut design, technology);
        if report.buffer_cells > 0 {
            legalize(&mut design);
        }
        out.add("place.buffer_cells", report.buffer_cells as f64);
    }
    out.add("place.buffer_rows_s", secs(start));
    let start = Instant::now();
    let mut batch = TimingBatch::with_capacity(design.net_count());
    design.fill_timing_batch(&mut batch);
    let timing = TimingAnalyzer::for_technology(technology)
        .analyze_batch(&batch, design.layer_width().max(1.0));
    out.add("timing.sta_s", secs(start));

    let result = &stage.placement;
    if design == result.design
        && design.hpwl().to_bits() == result.hpwl_um.to_bits()
        && timing == result.timing
    {
        Ok(())
    } else {
        Err(format!(
            "placement replay differs from the stage (HPWL {} vs {} µm)",
            design.hpwl(),
            result.hpwl_um
        ))
    }
}

/// Replays `Router::route` on the placed design.
pub fn routing(
    stage: &Routed,
    technology: &Arc<Technology>,
    config: &FlowConfig,
    out: &mut Output,
) -> Result<(), String> {
    let router = Router::with_config(Arc::clone(technology), config.router);
    let start = Instant::now();
    let routing = router.route(stage.design());
    out.add("route.route_s", secs(start));
    if routing == stage.routing {
        Ok(())
    } else {
        Err(format!(
            "routing replay differs from the stage ({} vs {} nets routed)",
            routing.stats.nets_routed, stage.routing.stats.nets_routed
        ))
    }
}

/// What the replayed first repair iteration produced, to be checked against
/// the check stage's observer once the stage has run.
#[derive(Debug)]
pub struct RepairReplay {
    /// Violations per kind of the initial layout.
    first: [usize; 5],
    /// The channels the iteration reroutes; `None` when no iteration ran.
    dirty: Option<Vec<usize>>,
    /// Violations per kind after the reroute; `None` when nothing was
    /// rerouted.
    second: Option<[usize; 5]>,
}

/// Replays the start of `FlowSession::check` on a copy of the routed
/// design: layout generation and DRC, then the first repair iteration —
/// re-legalization for spacing, buffer-row repair for wirelength, the
/// partial reroute of the dirty channels — and the layout and DRC after it.
pub fn first_repair(
    stage: &Routed,
    technology: &Arc<Technology>,
    config: &FlowConfig,
    out: &mut Output,
) -> Result<RepairReplay, String> {
    if stage.is_dirty() {
        return Err("the routed design has dirty channels; the replay starts clean".to_owned());
    }
    for name in [
        "place.repair_buffer_cells",
        "place.repair_buffer_rows_s",
        "route.partial_dirty",
        "route.partial_channels",
        "route.partial_s",
    ] {
        out.add(name, 0.0);
    }
    let generator = LayoutGenerator::new(Arc::clone(technology));
    let checker = DrcChecker::for_technology(technology);
    let router = Router::with_config(Arc::clone(technology), config.router);
    let mut design = stage.design().clone();

    let start = Instant::now();
    std::hint::black_box(generator.generate(&design, &stage.routing));
    out.add("layout.generate_s", secs(start));
    let start = Instant::now();
    let drc = checker.check(&design, &stage.routing);
    out.add("layout.drc_s", secs(start));
    let first = violation_counts(&drc);
    if drc.is_clean() || config.max_drc_iterations == 0 {
        return Ok(RepairReplay { first, dirty: None, second: None });
    }

    let mut moved: Vec<usize> = Vec::new();
    if drc.count(DrcViolationKind::CellSpacing) > 0 {
        moved.extend(legalize(&mut design).moved_cells);
    }
    let mut edit = None;
    let start = Instant::now();
    if drc.count(DrcViolationKind::MaxWirelength) > 0 {
        let detailed = config.placement.detailed.with_technology_timing(technology);
        let (report, buffer_edit, repair_moved) =
            repair_buffer_rows(&mut design, technology, &detailed);
        out.add("place.repair_buffer_cells", report.buffer_cells as f64);
        moved.extend(repair_moved);
        if !buffer_edit.is_noop() {
            edit = Some(buffer_edit);
        }
    }
    out.add("place.repair_buffer_rows_s", secs(start));
    let mut dirty_rows: BTreeSet<usize> = BTreeSet::new();
    if let Some(edit) = &edit {
        dirty_rows.extend(edit.edited_channel_rows());
    }
    for &cell in &moved {
        let row = design.cells[cell].row;
        dirty_rows.insert(row);
        if row > 0 {
            dirty_rows.insert(row - 1);
        }
    }
    let dirty: Vec<usize> = dirty_rows.into_iter().collect();
    out.add("route.partial_dirty", dirty.len() as f64);
    out.add("route.partial_channels", design.rows.len() as f64);
    if dirty.is_empty() {
        return Ok(RepairReplay { first, dirty: Some(dirty), second: None });
    }
    let start = Instant::now();
    let routing = router.route_partial(&design, &stage.routing, &dirty, edit.as_ref());
    out.add("route.partial_s", secs(start));
    let second = violation_counts(&checker.check(&design, &routing));
    Ok(RepairReplay { first, dirty: Some(dirty), second: Some(second) })
}

impl RepairReplay {
    /// Checks the replay against what the check stage reported: the initial
    /// violations, the dirty channels of iteration 1, and the violations
    /// after its reroute.
    pub fn matches(&self, log: &CheckLog, checked: &Checked) -> Result<(), String> {
        let last = violation_counts(&checked.drc);
        let first_iteration = log.iterations.first();
        let expected_first = first_iteration.map_or(last, |iteration| iteration.counts);
        if self.first != expected_first {
            return Err(format!(
                "initial DRC replay {:?} differs from the stage's {:?}",
                self.first, expected_first
            ));
        }
        let expected_dirty = first_iteration.and_then(|iteration| iteration.dirty.as_ref());
        if self.dirty.as_ref() != expected_dirty {
            return Err("the replayed first repair dirties other channels than the stage".into());
        }
        if let Some(second) = self.second {
            let expected = log.iterations.get(1).map_or(last, |iteration| iteration.counts);
            if second != expected {
                return Err(format!(
                    "DRC after the replayed repair {second:?} differs from the stage's {expected:?}"
                ));
            }
        }
        Ok(())
    }
}
