//! The traced flow: the same stage calls as an untraced run, with an
//! observer on the check stage, an RSS probe after every stage, each pass
//! chain replayed and checked against its stage's output, GDS emission and
//! verify.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use superflow::cells::Technology;
use superflow::layout::{DrcReport, DrcViolationKind};
use superflow::netlist::parsers::parse_verilog;
use superflow::netlist::Netlist;
use superflow::verify::VerifyReport;
use superflow::{
    error_chain, load_netlist, Checked, FlowError, FlowObserver, FlowSession, FlowStage,
    RepairScope,
};

use crate::output::{mb, rss_mb, secs, stage_call, Output};
use crate::replay;

/// Repair iterations reported one by one (`max_drc_iterations` of both
/// configurations the benchmark runs).
const ITERATIONS: usize = 3;

/// Every DRC violation kind, with the name its metrics use.
const DRC_KINDS: [(DrcViolationKind, &str); 5] = [
    (DrcViolationKind::CellSpacing, "cell_spacing"),
    (DrcViolationKind::ZigzagSpacing, "zigzag_spacing"),
    (DrcViolationKind::MaxWirelength, "max_wirelength"),
    (DrcViolationKind::MetalDensity, "metal_density"),
    (DrcViolationKind::Unrouted, "unrouted"),
];

/// Violations per kind, in [`DRC_KINDS`] order.
pub fn violation_counts(report: &DrcReport) -> [usize; 5] {
    DRC_KINDS.map(|(kind, _)| report.count(kind))
}

/// Where a traced design comes from.
pub enum Input<'a> {
    /// Structural Verilog text.
    Verilog(&'a str),
    /// A built-in benchmark name.
    Named(&'a str),
}

/// One `drc_iteration` callback.
#[derive(Debug, Clone)]
pub struct Iteration {
    pub at: Instant,
    pub counts: [usize; 5],
    /// The channels the iteration reroutes; `None` for a full reroute.
    pub dirty: Option<Vec<usize>>,
}

/// What the observer saw of one check stage.
#[derive(Debug, Default)]
pub struct CheckLog {
    pub started: Option<Instant>,
    pub finished: Option<Instant>,
    pub iterations: Vec<Iteration>,
}

struct Recorder(Rc<RefCell<CheckLog>>);

impl FlowObserver for Recorder {
    fn stage_started(&mut self, stage: FlowStage) {
        if stage == FlowStage::Check {
            *self.0.borrow_mut() =
                CheckLog { started: Some(Instant::now()), ..CheckLog::default() };
        }
    }

    fn stage_finished(&mut self, stage: FlowStage, _elapsed_s: f64) {
        if stage == FlowStage::Check {
            self.0.borrow_mut().finished = Some(Instant::now());
        }
    }

    fn drc_iteration(&mut self, _iteration: usize, report: &DrcReport, scope: RepairScope<'_>) {
        let dirty = match scope {
            RepairScope::Full => None,
            RepairScope::Channels(rows) => Some(rows.to_vec()),
            RepairScope::Unchanged => Some(Vec::new()),
        };
        self.0.borrow_mut().iterations.push(Iteration {
            at: Instant::now(),
            counts: violation_counts(report),
            dirty,
        });
    }
}

/// Runs traced flows on one session.
pub struct Tracer {
    session: FlowSession,
    log: Rc<RefCell<CheckLog>>,
}

fn chain(error: FlowError) -> String {
    error_chain(&error)
}

impl Tracer {
    pub fn new(mut session: FlowSession) -> Self {
        let log = Rc::new(RefCell::new(CheckLog::default()));
        session.add_observer(Box::new(Recorder(Rc::clone(&log))));
        Tracer { session, log }
    }

    /// Runs one design through the traced flow, adding its layer metrics to
    /// `out` and replay-guard failures to `out.errors`; returns the GDS.
    pub fn run(&mut self, input: Input<'_>, out: &mut Output) -> Result<Vec<u8>, String> {
        let technology = Arc::clone(self.session.technology());
        let config = self.session.config().clone();

        let start = Instant::now();
        let netlist = match input {
            Input::Verilog(text) => parse_verilog(text).map_err(|e| e.to_string())?,
            Input::Named(name) => load_netlist(name).map_err(chain)?,
        };
        let mut flow_s = secs(start);
        out.add("netlist.parse_s", flow_s);
        self.preflight(&netlist, &technology, out);

        let start = Instant::now();
        let synthesized = self.session.synthesize(&netlist).map_err(chain)?;
        flow_s += self.stage_done(FlowStage::Synthesis, start, out);
        self.guard(
            replay::synthesis(&netlist, &technology, config.synthesis, &synthesized, out),
            out,
        );

        let start = Instant::now();
        let placed = self.session.place(synthesized).map_err(chain)?;
        flow_s += self.stage_done(FlowStage::Placement, start, out);
        out.add("place.cells", placed.design().cell_count() as f64);
        out.add("place.hpwl_mm", placed.placement.hpwl_um / 1000.0);
        self.guard(replay::placement(&placed, &technology, &config, out), out);

        let start = Instant::now();
        let routed = self.session.route(placed).map_err(chain)?;
        flow_s += self.stage_done(FlowStage::Routing, start, out);
        let stats = &routed.routing.stats;
        out.add("route.nets_routed", stats.nets_routed as f64);
        out.add("route.space_expansions", stats.space_expansions as f64);
        out.add("route.vias", stats.total_vias as f64);
        self.guard(replay::routing(&routed, &technology, &config, out), out);
        let repair = replay::first_repair(&routed, &technology, &config, out);

        let start = Instant::now();
        let checked = self.session.check(routed).map_err(chain)?;
        flow_s += self.stage_done(FlowStage::Check, start, out);
        let log = std::mem::take(&mut *self.log.borrow_mut());
        self.guard(repair.and_then(|repair| repair.matches(&log, &checked)), out);
        record_check(&log, &checked, out);

        let start = Instant::now();
        let gds = checked.layout.to_gds_bytes();
        let gds_s = secs(start);
        out.add("layout.gds_s", gds_s);
        out.add("layout.gds_mb", mb(gds.len()));
        out.add("trace.flow_s", flow_s + gds_s);

        self.verify(&netlist, &checked, &gds, &technology, out);
        out.add_qor(&checked.routed.routing, &checked.routed.placed.placement.timing, &checked.drc);
        Ok(gds)
    }

    /// The pre-flight layers `FlowSession::synthesize` gates on, timed one
    /// by one, and the forecast the predictor makes for this design.
    fn preflight(&self, netlist: &Netlist, technology: &Technology, out: &mut Output) {
        let config = self.session.config();
        let start = Instant::now();
        let lint = superflow::lint::lint(
            netlist.name(),
            netlist,
            technology,
            &config.lint_settings(),
            &config.lint,
        );
        out.add("lint.lint_s", secs(start));
        std::hint::black_box(lint);
        let start = Instant::now();
        let prediction = superflow::predict::predict(
            netlist.name(),
            netlist,
            technology,
            &config.predict_options(),
        );
        out.add("predict.predict_s", secs(start));
        if let Some(bounds) = &prediction.bounds {
            let cost = &bounds.cost;
            out.add("predict.forecast.synthesis_s", cost.synthesis_s);
            out.add("predict.forecast.placement_s", cost.placement_s);
            out.add("predict.forecast.routing_s", cost.routing_s);
            out.add("predict.forecast.check_s", cost.check_s);
            out.add("predict.forecast_rss_mb", cost.peak_rss_kb / 1024.0);
        }
    }

    /// Records a finished stage call: its time from outside and the RSS
    /// right after it. Returns the stage time.
    fn stage_done(&self, stage: FlowStage, start: Instant, out: &mut Output) -> f64 {
        let elapsed = secs(start);
        out.add(&format!("session.{}_s", stage_call(stage)), elapsed);
        let rss = rss_mb();
        out.max(&format!("rss.after_{}_mb", stage.name()), rss);
        if stage == FlowStage::Check {
            out.add("predict.measured_rss_mb", rss);
        }
        elapsed
    }

    fn guard(&self, result: Result<(), String>, out: &mut Output) {
        if let Err(error) = result {
            out.errors.push(format!("replay guard: {error}"));
        }
    }

    /// LEC of the synthesized netlist, phase legality of the routed design
    /// and LVS of the emitted GDS, each timed; any error-severity finding
    /// marks the design verify-dirty.
    fn verify(
        &self,
        netlist: &Netlist,
        checked: &Checked,
        gds: &[u8],
        technology: &Technology,
        out: &mut Output,
    ) {
        let start = Instant::now();
        let lec = self.session.verify_synthesized(netlist, &checked.routed.placed.synthesized);
        out.add("verify.lec_s", secs(start));
        let start = Instant::now();
        let phase = self.session.verify_routed(&checked.routed);
        out.add("verify.phase_s", secs(start));
        let start = Instant::now();
        let mut lvs = VerifyReport::clean(checked.routed.placed.synthesized.design_name.clone());
        lvs.extend(superflow::verify::check_gds(
            gds,
            checked.routed.design(),
            &checked.routed.routing,
            technology,
        ));
        out.add("verify.lvs_s", secs(start));
        for report in [lec, phase, lvs] {
            out.add("verify.diagnostics", report.diagnostics.len() as f64);
            if report.has_errors() {
                out.errors.push(format!("verify-dirty:\n{}", report.render()));
            }
        }
    }
}

/// The check stage as the observer saw it: callback-to-callback iteration
/// times, violations per kind before the first repair and after the last,
/// and the channels each iteration rerouted.
fn record_check(log: &CheckLog, checked: &Checked, out: &mut Output) {
    out.add("check.iterations", checked.drc_iterations as f64);
    let (Some(started), Some(finished)) = (log.started, log.finished) else {
        return out.errors.push("the check stage did not notify its observer".to_owned());
    };
    let mut marks: Vec<Instant> = vec![started];
    marks.extend(log.iterations.iter().map(|iteration| iteration.at));
    marks.push(finished);
    for (k, pair) in marks.windows(2).enumerate() {
        out.add(&format!("check.iter{k}_s"), pair[1].duration_since(pair[0]).as_secs_f64());
    }
    for k in marks.len() - 1..=ITERATIONS {
        out.add(&format!("check.iter{k}_s"), 0.0);
    }
    let first = log.iterations.first().map_or(violation_counts(&checked.drc), |it| it.counts);
    let last = violation_counts(&checked.drc);
    for (index, (_, kind)) in DRC_KINDS.iter().enumerate() {
        out.add(&format!("check.violations.{kind}.first"), first[index] as f64);
        out.add(&format!("check.violations.{kind}.final"), last[index] as f64);
    }
    let channels = checked.routed.design().rows.len();
    out.add("check.channels", channels as f64);
    for k in 1..=ITERATIONS {
        let dirty = log
            .iterations
            .get(k - 1)
            .map_or(0, |iteration| iteration.dirty.as_ref().map_or(channels, Vec::len));
        out.add(&format!("check.dirty_channels.iter{k}"), dirty as f64);
    }
}
