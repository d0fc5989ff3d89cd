//! Table IV harness: routing results of the complete SuperFlow pipeline.

use aqfp_cells::Technology;
use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
use aqfp_place::{PlacementEngine, PlacerKind};
use aqfp_route::Router;
use aqfp_synth::Synthesizer;

use crate::reference;

/// One measured row of Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// The circuit.
    pub circuit: Benchmark,
    /// Josephson junctions after routing (all placed cells, including
    /// buffers added by synthesis and placement).
    pub jjs_after_routing: usize,
    /// Number of nets in the routed design.
    pub nets: usize,
    /// Total routed wirelength in µm.
    pub routed_wirelength: f64,
    /// Total via count.
    pub vias: usize,
    /// Space expansions the router needed.
    pub space_expansions: usize,
    /// Nets that failed to route (0 in a healthy run).
    pub failed_nets: usize,
}

/// Runs synthesis → SuperFlow placement → routing for every circuit and
/// collects the Table IV columns.
///
/// Circuits are processed in parallel (scoped worker threads), since each
/// Table IV row is independent of the others.
pub fn table4_rows(circuits: &[Benchmark]) -> Vec<Table4Row> {
    let library = Technology::mit_ll_sqf5ee();
    std::thread::scope(|scope| {
        let workers: Vec<_> = circuits
            .iter()
            .map(|&circuit| {
                let library = library.clone();
                scope.spawn(move || {
                    let synthesizer = Synthesizer::new(library.clone());
                    let engine = PlacementEngine::new(library.clone());
                    let router = Router::new(library);
                    let synthesized = synthesizer
                        .run(&benchmark_circuit(circuit))
                        .expect("benchmark circuits are valid by construction");
                    let placed = engine.place(&synthesized, PlacerKind::SuperFlow);
                    let routing = router.route(&placed.design);
                    Table4Row {
                        circuit,
                        jjs_after_routing: routing.jj_count,
                        nets: placed.design.net_count(),
                        routed_wirelength: routing.stats.total_wirelength_um,
                        vias: routing.stats.total_vias,
                        space_expansions: routing.stats.space_expansions,
                        failed_nets: routing.stats.failed_nets,
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("routing workers do not panic"))
            .collect()
    })
}

/// Formats the measured rows next to the paper's values.
pub fn format_table4(rows: &[Table4Row]) -> String {
    let header = [
        "Circuit",
        "#JJs after routing",
        "#Nets",
        "Routed WL (um)",
        "Vias",
        "Expansions",
        "paper #JJs",
        "paper #Nets",
        "paper WL (um)",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let paper = reference::paper_table4(row.circuit);
            vec![
                row.circuit.to_string(),
                row.jjs_after_routing.to_string(),
                row.nets.to_string(),
                format!("{:.0}", row.routed_wirelength),
                row.vias.to_string(),
                row.space_expansions.to_string(),
                paper.map_or("-".into(), |p| p.jjs_after_routing.to_string()),
                paper.map_or("-".into(), |p| p.nets.to_string()),
                paper.map_or("-".into(), |p| format!("{:.0}", p.routed_wirelength)),
            ]
        })
        .collect();
    crate::format_table(&header, &body)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn quick_rows_route_everything() {
        let rows = table4_rows(&[Benchmark::Adder8]);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.failed_nets, 0);
        assert!(row.jjs_after_routing > 0);
        assert!(row.routed_wirelength > 0.0);
        // Routed wirelength must exceed the synthesis JJ count trivially and
        // stay within a couple of orders of magnitude of the paper.
        let paper = reference::paper_table4(row.circuit).unwrap();
        let ratio = row.routed_wirelength / paper.routed_wirelength;
        assert!(
            (0.05..=50.0).contains(&ratio),
            "routed wirelength {:.0} wildly off paper {:.0}",
            row.routed_wirelength,
            paper.routed_wirelength
        );
    }

    #[test]
    fn formatting_contains_reference_columns() {
        let rows = table4_rows(&[Benchmark::Adder8]);
        let text = format_table4(&rows);
        assert!(text.contains("paper WL"));
        assert!(text.contains("adder8"));
    }
}
