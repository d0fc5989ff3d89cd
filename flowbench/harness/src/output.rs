//! The one JSON line a harness invocation prints, and the probes and unit
//! conversions its metrics share. Metrics are raw sums and counts; the
//! driver derives every ratio from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use superflow::layout::DrcReport;
use superflow::route::RoutingResult;
use superflow::timing::TimingReport;
use superflow::FlowStage;

/// Metrics (summed when a name is added twice), correctness errors and
/// per-design statuses of one invocation.
#[derive(Debug, Default)]
pub struct Output {
    pub metrics: BTreeMap<String, f64>,
    pub errors: Vec<String>,
    pub statuses: BTreeMap<String, String>,
}

impl Output {
    /// Adds `value` to metric `name` (so per-design values sum).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.metrics.entry(name.to_owned()).or_default() += value;
    }

    /// Raises metric `name` to at least `value`.
    pub fn max(&mut self, name: &str, value: f64) {
        let slot = self.metrics.entry(name.to_owned()).or_insert(value);
        *slot = slot.max(value);
    }

    /// The quality-of-results metrics of one finished design: wirelength,
    /// JJs, DRC residual and failed nets summed, negative slack the worst.
    pub fn add_qor(&mut self, routing: &RoutingResult, timing: &TimingReport, drc: &DrcReport) {
        self.add("routed_wl_mm", routing.stats.total_wirelength_um / 1000.0);
        self.max("neg_slack_ps", (-timing.wns_ps).max(0.0));
        self.add("jj_count", routing.jj_count as f64);
        self.add("drc_residual", drc.violations.len() as f64);
        self.add("route.failed_nets", routing.stats.failed_nets as f64);
    }

    /// Prints the invocation's JSON line.
    pub fn print(&self) {
        let mut line = String::from("{\"metrics\": {");
        for (index, (name, value)) in self.metrics.iter().enumerate() {
            let separator = if index == 0 { "" } else { ", " };
            let value = if value.is_finite() { value.to_string() } else { "null".to_owned() };
            let _ = write!(line, "{separator}{}: {value}", quote(name));
        }
        line.push_str("}, \"errors\": [");
        let errors: Vec<String> = self.errors.iter().map(|e| quote(e)).collect();
        line.push_str(&errors.join(", "));
        line.push_str("], \"statuses\": {");
        let statuses: Vec<String> =
            self.statuses.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
        line.push_str(&statuses.join(", "));
        line.push_str("}}");
        println!("{line}");
    }
}

/// The `FlowSession` method that runs `stage`, as used in metric names.
pub fn stage_call(stage: FlowStage) -> &'static str {
    match stage {
        FlowStage::Synthesis => "synthesize",
        FlowStage::Placement => "place",
        FlowStage::Routing => "route",
        FlowStage::Check => "check",
    }
}

/// A JSON string literal.
fn quote(text: &str) -> String {
    let mut quoted = String::with_capacity(text.len() + 2);
    quoted.push('"');
    for c in text.chars() {
        match c {
            '"' => quoted.push_str("\\\""),
            '\\' => quoted.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(quoted, "\\u{:04x}", u32::from(c));
            }
            c => quoted.push(c),
        }
    }
    quoted.push('"');
    quoted
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Bytes in MiB (2^20 bytes), the unit of every `_mb` metric.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// A `kB` field of `/proc/self/status`, in MiB; 0 where the file is absent.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}
