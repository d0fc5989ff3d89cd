//! Table III harness: placement comparison between the GORDIAN-based
//! baseline, TAAS and SuperFlow.

use aqfp_cells::Technology;
use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
use aqfp_place::{PlacementEngine, PlacementResult, PlacerKind};
use aqfp_synth::Synthesizer;

use crate::reference;

/// The measured columns of one placer on one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerColumns {
    /// Half-perimeter wirelength in µm.
    pub hpwl: f64,
    /// Inserted buffer lines.
    pub buffers: usize,
    /// Worst negative slack in ps (`None` when timing is met).
    pub wns: Option<f64>,
    /// Placement runtime in seconds.
    pub runtime_s: f64,
}

impl PlacerColumns {
    fn from_result(result: &PlacementResult) -> Self {
        Self {
            hpwl: result.hpwl_um,
            buffers: result.buffer_lines,
            wns: if result.timing.meets_timing() { None } else { Some(result.timing.wns_ps) },
            runtime_s: result.runtime_s,
        }
    }

    /// Formats the WNS the way the paper prints it.
    pub fn wns_display(&self) -> String {
        match self.wns {
            None => "-".to_owned(),
            Some(wns) => format!("{wns:.1}"),
        }
    }
}

/// One measured row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// The circuit.
    pub circuit: Benchmark,
    /// GORDIAN-based baseline columns.
    pub gordian: PlacerColumns,
    /// TAAS baseline columns.
    pub taas: PlacerColumns,
    /// SuperFlow columns.
    pub superflow: PlacerColumns,
}

/// Synthesizes and places every requested circuit with all three placers.
///
/// Circuits are processed in parallel (one scoped worker thread per
/// circuit) because the nine Table III rows are independent; results are
/// returned in the requested order.
pub fn table3_rows(circuits: &[Benchmark]) -> Vec<Table3Row> {
    let library = Technology::mit_ll_sqf5ee();
    std::thread::scope(|scope| {
        let workers: Vec<_> = circuits
            .iter()
            .map(|&circuit| {
                let library = library.clone();
                scope.spawn(move || {
                    let synthesizer = Synthesizer::new(library.clone());
                    let engine = PlacementEngine::new(library);
                    let synthesized = synthesizer
                        .run(&benchmark_circuit(circuit))
                        .expect("benchmark circuits are valid by construction");
                    let gordian = engine.place(&synthesized, PlacerKind::GordianBased);
                    let taas = engine.place(&synthesized, PlacerKind::Taas);
                    let superflow = engine.place(&synthesized, PlacerKind::SuperFlow);
                    Table3Row {
                        circuit,
                        gordian: PlacerColumns::from_result(&gordian),
                        taas: PlacerColumns::from_result(&taas),
                        superflow: PlacerColumns::from_result(&superflow),
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("placement workers do not panic"))
            .collect()
    })
}

/// Geometric-mean ratio of a metric between two placers across all rows,
/// mirroring the normalized "Average" row of Table III.
pub fn geo_mean_ratio<F: Fn(&Table3Row) -> (f64, f64)>(rows: &[Table3Row], metric: F) -> f64 {
    if rows.is_empty() {
        return 1.0;
    }
    let sum: f64 = rows
        .iter()
        .map(|row| {
            let (numerator, denominator) = metric(row);
            (numerator / denominator).max(1e-9).ln()
        })
        .sum();
    (sum / rows.len() as f64).exp()
}

/// Formats the measured rows next to the paper's values.
pub fn format_table3(rows: &[Table3Row]) -> String {
    let header = [
        "Circuit",
        "GORDIAN HPWL",
        "GORDIAN Buf",
        "GORDIAN WNS",
        "TAAS HPWL",
        "TAAS Buf",
        "TAAS WNS",
        "SF HPWL",
        "SF Buf",
        "SF WNS",
        "SF runtime(s)",
        "paper SF HPWL",
        "paper SF Buf",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let paper = reference::paper_table3(row.circuit);
            vec![
                row.circuit.to_string(),
                format!("{:.0}", row.gordian.hpwl),
                row.gordian.buffers.to_string(),
                row.gordian.wns_display(),
                format!("{:.0}", row.taas.hpwl),
                row.taas.buffers.to_string(),
                row.taas.wns_display(),
                format!("{:.0}", row.superflow.hpwl),
                row.superflow.buffers.to_string(),
                row.superflow.wns_display(),
                format!("{:.1}", row.superflow.runtime_s),
                paper.map_or("-".into(), |p| format!("{:.0}", p.superflow.hpwl)),
                paper.map_or("-".into(), |p| p.superflow.buffers.to_string()),
            ]
        })
        .collect();
    let mut out = crate::format_table(&header, &body);
    if !rows.is_empty() {
        out.push_str(&format!(
            "\nNormalized averages (ratio vs SuperFlow, geometric mean):\n\
             GORDIAN/SuperFlow HPWL: {:.3}   TAAS/SuperFlow HPWL: {:.3}\n\
             GORDIAN/SuperFlow buffers: {:.3}   TAAS/SuperFlow buffers: {:.3}\n",
            geo_mean_ratio(rows, |r| (r.gordian.hpwl, r.superflow.hpwl)),
            geo_mean_ratio(rows, |r| (r.taas.hpwl, r.superflow.hpwl)),
            geo_mean_ratio(rows, |r| (
                r.gordian.buffers.max(1) as f64,
                r.superflow.buffers.max(1) as f64
            )),
            geo_mean_ratio(rows, |r| (
                r.taas.buffers.max(1) as f64,
                r.superflow.buffers.max(1) as f64
            )),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superflow_wins_wirelength_on_the_quick_set() {
        let rows = table3_rows(&[Benchmark::Adder8, Benchmark::Apc32]);
        let taas_ratio = geo_mean_ratio(&rows, |r| (r.taas.hpwl, r.superflow.hpwl));
        assert!(
            taas_ratio > 1.0,
            "SuperFlow should beat TAAS on HPWL on average (ratio {taas_ratio:.3})"
        );
        let gordian_ratio = geo_mean_ratio(&rows, |r| (r.gordian.hpwl, r.superflow.hpwl));
        assert!(
            gordian_ratio > 1.0,
            "SuperFlow should beat GORDIAN on HPWL on average (ratio {gordian_ratio:.3})"
        );
        let buffer_ratio = geo_mean_ratio(&rows, |r| {
            (r.taas.buffers.max(1) as f64, r.superflow.buffers.max(1) as f64)
        });
        assert!(
            buffer_ratio >= 1.0,
            "SuperFlow should insert no more buffers than TAAS (ratio {buffer_ratio:.3})"
        );
    }

    #[test]
    fn formatting_mentions_every_placer() {
        let rows = table3_rows(&[Benchmark::Adder8]);
        let text = format_table3(&rows);
        assert!(text.contains("GORDIAN"));
        assert!(text.contains("TAAS"));
        assert!(text.contains("SF HPWL"));
        assert!(text.contains("Normalized averages"));
    }

    #[test]
    fn geo_mean_of_equal_metrics_is_one() {
        let rows = table3_rows(&[Benchmark::Adder8]);
        let ratio = geo_mean_ratio(&rows, |r| (r.superflow.hpwl, r.superflow.hpwl));
        assert!((ratio - 1.0).abs() < 1e-9);
        assert_eq!(geo_mean_ratio(&[], |_| (1.0, 1.0)), 1.0);
    }
}
