//! Soundness of the predictive bounds (`aqfp-predict`).
//!
//! The predictor's `min` fields are *claims about every possible flow
//! outcome*: whatever the synthesis engine does, the realized design can
//! never come in under them. These tests drive generated designs from all
//! three generator families through the real engines and check every lower
//! bound against the measured result, then pin the point estimates to a
//! stated tolerance band on three committed benchmark circuits.

use proptest::prelude::*;

use aqfp_cells::CellKind;
use aqfp_netlist::generators::{random_dag, Benchmark, LargeFamily, RandomDagConfig};
use aqfp_netlist::Netlist;
use aqfp_synth::{SynthesizedNetlist, Synthesizer};
use superflow::{FlowConfig, FlowSession, PredictReport};

/// Predicts a netlist under the paper-default flow configuration.
fn predict_default(netlist: &Netlist) -> PredictReport {
    let flow = FlowConfig::paper_default();
    let technology = flow.resolve_technology().expect("builtin technology resolves");
    superflow::predict::predict(netlist.name(), netlist, &technology, &flow.predict_options())
}

/// Runs the real synthesis engine under the same technology.
fn synthesize(netlist: &Netlist) -> SynthesizedNetlist {
    Synthesizer::new(aqfp_cells::Technology::mit_ll_sqf5ee())
        .run(netlist)
        .expect("synthesis succeeds")
}

/// Measured post-synthesis quantities the bounds speak about.
struct Actual {
    total_cells: usize,
    balancing_buffers: usize,
    splitters: usize,
    rows: usize,
    nets: usize,
}

fn measure(result: &SynthesizedNetlist) -> Actual {
    let splitters = result
        .netlist
        .iter()
        .filter(|(_, g)| {
            matches!(g.kind, CellKind::Splitter2 | CellKind::Splitter3 | CellKind::Splitter4)
        })
        .count();
    Actual {
        total_cells: result.netlist.gate_count(),
        balancing_buffers: result.balance_report.buffers_inserted
            + result.balance_report.output_buffers,
        splitters,
        rows: result.levels.iter().max().map(|l| l + 1).unwrap_or(0),
        nets: result.stats.net_count,
    }
}

/// Every lower bound must hold against the measured synthesis result.
fn assert_lower_bounds_sound(report: &PredictReport, actual: &Actual) {
    let bounds = report.bounds.as_ref().expect("acyclic design has bounds");
    let s = &bounds.structure;
    prop_assert!(
        s.cells.min <= actual.total_cells,
        "cell lower bound {} exceeds actual {}",
        s.cells.min,
        actual.total_cells
    );
    prop_assert!(
        s.buffers.min <= actual.balancing_buffers,
        "buffer lower bound {} exceeds actual {}",
        s.buffers.min,
        actual.balancing_buffers
    );
    prop_assert!(
        s.splitters.min <= actual.splitters,
        "splitter lower bound {} exceeds actual {}",
        s.splitters.min,
        actual.splitters
    );
    prop_assert!(
        s.rows.min <= actual.rows,
        "row lower bound {} exceeds actual {}",
        s.rows.min,
        actual.rows
    );
    prop_assert!(
        bounds.congestion.min_nets <= actual.nets,
        "net lower bound {} exceeds actual {}",
        bounds.congestion.min_nets,
        actual.nets
    );
}

/// A strategy over random-DAG configurations spanning shallow/deep and
/// narrow/wide shapes.
fn dag_config() -> impl Strategy<Value = RandomDagConfig> {
    (2usize..12, 1usize..8, 20usize..160, 2usize..12, any::<u64>()).prop_map(
        |(inputs, outputs, gates, depth, seed)| RandomDagConfig {
            name: format!("soundness_{seed}"),
            inputs,
            outputs,
            gates,
            depth,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random DAGs: every predicted lower bound holds for the real
    /// synthesis outcome.
    #[test]
    fn random_dag_lower_bounds_are_sound(config in dag_config()) {
        let netlist = random_dag(&config);
        prop_assume!(netlist.validate().is_ok());
        let report = predict_default(&netlist);
        let actual = measure(&synthesize(&netlist));
        assert_lower_bounds_sound(&report, &actual);
    }

    /// Structured generators (the scale-test families): same soundness
    /// claim for tiled multipliers and APC adder arrays.
    #[test]
    fn structured_generator_lower_bounds_are_sound(pick in (60usize..400, 0usize..2)) {
        let (cells, family_pick) = pick;
        let family = [LargeFamily::TiledMultiplier, LargeFamily::ApcArray][family_pick];
        let netlist = family.by_cells(cells, 0);
        prop_assume!(netlist.validate().is_ok());
        let report = predict_default(&netlist);
        let actual = measure(&synthesize(&netlist));
        assert_lower_bounds_sound(&report, &actual);
    }
}

/// The full pipeline (synthesis through DRC-checked layout) on one design
/// per generator family: the bounds predicted before any engine ran must
/// bracket the realized design from below.
#[test]
fn full_flow_respects_predicted_lower_bounds() {
    for spec in ["gen:random_dag:150:5", "gen:tiled_mul:180", "gen:apc_array:120"] {
        let netlist = superflow::load_netlist(spec).expect("generator spec resolves");
        let report = predict_default(&netlist);
        let bounds = report.bounds.as_ref().expect("generated design has bounds");

        let finished =
            FlowSession::new(FlowConfig::fast()).unwrap().run(&netlist).expect("flow runs");
        let synthesis = &finished.synthesis;
        let actual = measure(synthesis);

        assert!(bounds.structure.cells.min <= actual.total_cells, "{spec}");
        assert!(bounds.structure.buffers.min <= actual.balancing_buffers, "{spec}");
        assert!(bounds.structure.splitters.min <= actual.splitters, "{spec}");
        assert!(bounds.structure.rows.min <= actual.rows, "{spec}");
        // Each routed net lives in exactly one channel, so the predicted
        // net floor also bounds what the router actually carried.
        assert!(
            bounds.congestion.min_nets <= finished.routing.stats.nets_routed,
            "{spec}: net floor {} vs {} routed",
            bounds.congestion.min_nets,
            finished.routing.stats.nets_routed
        );
    }
}

/// Point estimates on the committed benchmarks: within the interval they
/// quote, and within a stated tolerance of the realized design —
/// a factor of 3 for cell counts (majority conversion and splitter sizing
/// are heuristic) and a factor of 2 for the row count.
#[test]
fn benchmark_estimates_stay_within_tolerance() {
    for benchmark in [Benchmark::Adder8, Benchmark::Decoder, Benchmark::C432] {
        let netlist = aqfp_netlist::generators::benchmark_circuit(benchmark);
        let report = predict_default(&netlist);
        let bounds = report.bounds.as_ref().expect("benchmarks have bounds");
        let actual = measure(&synthesize(&netlist));
        let name = netlist.name();

        let s = &bounds.structure;
        for (label, interval) in [
            ("cells", s.cells),
            ("logic", s.logic_cells),
            ("splitters", s.splitters),
            ("buffers", s.buffers),
            ("rows", s.rows),
        ] {
            assert!(
                interval.min <= interval.est && interval.est <= interval.max,
                "{name}: {label} estimate {} outside its own interval [{}, {}]",
                interval.est,
                interval.min,
                interval.max
            );
        }

        let cells_ratio = s.cells.est as f64 / actual.total_cells as f64;
        assert!(
            (1.0 / 3.0..=3.0).contains(&cells_ratio),
            "{name}: estimated {} cells vs {} actual (ratio {cells_ratio:.2})",
            s.cells.est,
            actual.total_cells
        );
        let rows_ratio = s.rows.est as f64 / actual.rows as f64;
        assert!(
            (0.5..=2.0).contains(&rows_ratio),
            "{name}: estimated {} rows vs {} actual (ratio {rows_ratio:.2})",
            s.rows.est,
            actual.rows
        );
    }
}
