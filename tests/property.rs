//! Property-based tests over the core data structures and flow invariants.
//!
//! These use random AOI netlists (generated through the same
//! `RandomDagConfig` machinery as the synthetic ISCAS benchmarks) to check
//! that the synthesis and placement stages uphold their invariants for
//! arbitrary — not just benchmark — circuits.

use proptest::prelude::*;

use aqfp_cells::{LayerMap, Technology};
use aqfp_layout::DrcViolationKind;
use aqfp_netlist::generators::{random_dag, RandomDagConfig};
use aqfp_netlist::simulate;
use aqfp_place::buffer_rows::required_buffer_lines;
use aqfp_place::design::{NetIncidence, PlacedDesign};
use aqfp_place::detailed::{detailed_place, DetailedPlacementConfig};
use aqfp_place::global::{global_place, global_place_reference, GlobalPlacementConfig};
use aqfp_place::legalize::legalize;
use aqfp_synth::{SynthesisOptions, Synthesizer};
use aqfp_timing::{TimingAnalyzer, TimingBatch, TimingConfig};
use superflow::{FlowConfig, FlowSession, VerifyConfig};

/// A strategy over small random netlist configurations.
fn dag_config() -> impl Strategy<Value = RandomDagConfig> {
    (2usize..10, 1usize..6, 5usize..80, 2usize..10, any::<u64>()).prop_map(
        |(inputs, outputs, gates, depth, seed)| RandomDagConfig {
            name: format!("prop_{seed}"),
            inputs,
            outputs,
            gates,
            depth,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Synthesis output is always fan-out legal, path balanced and
    /// functionally equivalent to its input.
    #[test]
    fn synthesis_invariants_hold_for_random_netlists(config in dag_config()) {
        let netlist = random_dag(&config);
        prop_assume!(netlist.validate().is_ok());
        let library = Technology::mit_ll_sqf5ee();
        let result = Synthesizer::new(library).run(&netlist).expect("synthesis succeeds");

        prop_assert!(result.respects_fanout_limit());
        prop_assert!(result.is_path_balanced());
        prop_assert!(result.netlist.validate().is_ok());
        prop_assert!(
            simulate::equivalent_sampled(&netlist, &result.netlist, 32, config.seed).unwrap(),
            "synthesis must preserve the circuit function"
        );
    }

    /// Majority conversion never increases the JJ count.
    #[test]
    fn majority_conversion_never_increases_jj_cost(config in dag_config()) {
        let netlist = random_dag(&config);
        prop_assume!(netlist.validate().is_ok());
        let library = Technology::mit_ll_sqf5ee();

        let with = Synthesizer::new(library.clone()).run(&netlist).expect("ok");
        let without = Synthesizer::with_options(
            library,
            SynthesisOptions { majority_conversion: false, ..Default::default() },
        )
        .run(&netlist)
        .expect("ok");

        prop_assert!(
            with.maj_report.jj_after <= with.maj_report.jj_before,
            "conversion must not add JJs"
        );
        prop_assert!(
            with.maj_report.jj_after <= without.maj_report.jj_after,
            "conversion must not be worse than skipping it"
        );
    }

    /// Placement always produces a legal, grid-aligned arrangement whose
    /// rows match the synthesized clock phases.
    #[test]
    fn placement_pipeline_is_always_legal(config in dag_config()) {
        let netlist = random_dag(&config);
        prop_assume!(netlist.validate().is_ok());
        let library = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(library.clone()).run(&netlist).expect("ok");

        let mut design = PlacedDesign::from_synthesized(&synthesized, &library);
        let gp = GlobalPlacementConfig { iterations: 60, ..Default::default() };
        global_place(&mut design, &gp);
        legalize(&mut design);
        detailed_place(&mut design, &DetailedPlacementConfig { passes: 1, ..Default::default() });

        prop_assert_eq!(design.overlap_count(), 0);
        prop_assert_eq!(design.spacing_violations(), 0);
        for cell in &design.cells {
            let gate = cell.gate.expect("no buffer rows inserted in this test");
            prop_assert_eq!(cell.row, synthesized.levels[gate.index()]);
            let grid = design.rules.grid;
            let remainder = (cell.x / grid).fract().abs();
            prop_assert!(remainder < 1e-6 || (1.0 - remainder) < 1e-6, "off-grid cell");
        }
    }

    /// Every net of a path-balanced design spans exactly one clock phase.
    #[test]
    fn placed_nets_always_span_adjacent_phases(config in dag_config()) {
        let netlist = random_dag(&config);
        prop_assume!(netlist.validate().is_ok());
        let library = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(library.clone()).run(&netlist).expect("ok");
        let design = PlacedDesign::from_synthesized(&synthesized, &library);
        for net in &design.nets {
            prop_assert_eq!(design.cells[net.sink].row, design.cells[net.driver].row + 1);
        }
    }

    /// Batched SoA timing analysis is bit-for-bit identical to the scalar
    /// path on arbitrary random designs.
    #[test]
    fn batched_sta_matches_scalar_on_random_designs(config in dag_config()) {
        let netlist = random_dag(&config);
        prop_assume!(netlist.validate().is_ok());
        let library = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(library.clone()).run(&netlist).expect("ok");
        let mut design = PlacedDesign::from_synthesized(&synthesized, &library);
        global_place(&mut design, &GlobalPlacementConfig { iterations: 40, ..Default::default() });
        legalize(&mut design);

        let analyzer = TimingAnalyzer::new(TimingConfig::paper_default());
        let layer_width = design.layer_width().max(1.0);
        let scalar = analyzer.analyze(&design.to_placed_nets(), layer_width);
        let mut batch = TimingBatch::new();
        design.fill_timing_batch(&mut batch);
        let batched = analyzer.analyze_batch(&batch, layer_width);
        prop_assert_eq!(scalar.wns_ps.to_bits(), batched.wns_ps.to_bits());
        prop_assert_eq!(scalar.tns_ps.to_bits(), batched.tns_ps.to_bits());
        prop_assert_eq!(scalar, batched);
    }

    /// Incrementally refreshing the timing batch after cell moves equals a
    /// full rebuild, bit for bit.
    #[test]
    fn incremental_batch_refresh_equals_rebuild(input in (dag_config(), any::<u64>())) {
        let (config, seed) = input;
        let netlist = random_dag(&config);
        prop_assume!(netlist.validate().is_ok());
        let library = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(library.clone()).run(&netlist).expect("ok");
        let mut design = PlacedDesign::from_synthesized(&synthesized, &library);

        let incidence = NetIncidence::build(&design);
        let mut batch = TimingBatch::new();
        design.fill_timing_batch(&mut batch);

        // Nudge a handful of seed-chosen cells by whole grid steps.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut moved = Vec::new();
        for _ in 0..(1 + next() % 7) {
            let cell = (next() as usize) % design.cell_count();
            let steps = (next() % 11) as i64 - 5;
            design.cells[cell].x += design.rules.grid * steps as f64;
            moved.push(cell);
        }
        design.refresh_timing_batch(&mut batch, &incidence, &moved);

        let mut rebuilt = TimingBatch::new();
        design.fill_timing_batch(&mut rebuilt);
        prop_assert_eq!(batch, rebuilt);
    }

    /// The DRC-repair loop converges on randomized stretched placements:
    /// after `FlowSession::check` repairs a connection stretched far past
    /// the maximum wirelength, no `MaxWirelength` violation remains and the
    /// row count has converged (another buffer-row pass would insert
    /// nothing).
    #[test]
    fn repair_loop_clears_stretched_placements(input in (dag_config(), any::<u64>())) {
        let (config, pick) = input;
        let netlist = random_dag(&config);
        prop_assume!(netlist.validate().is_ok());

        let mut flow_config = FlowConfig::fast();
        // Give pathological random designs room to converge; typical runs
        // need one or two iterations.
        flow_config.max_drc_iterations = 8;
        let mut session = FlowSession::new(flow_config).expect("session opens");
        let synthesized = session.synthesize(&netlist).expect("synthesis succeeds");
        let placed = session.place(synthesized).expect("placement succeeds");
        let mut routed = session.route(placed).expect("routing succeeds");

        // Stretch a seed-chosen driver far past the maximum wirelength.
        let moved = {
            let design = &mut routed.placed.placement.design;
            prop_assume!(design.net_count() > 0);
            let net = design.nets[(pick as usize) % design.net_count()];
            design.cells[net.driver].x += design.rules.max_wirelength * 2.0;
            design.sort_rows_by_x();
            net.driver
        };
        routed.mark_cell_moved(moved);
        prop_assert!(
            !routed.placed.placement.design.max_wirelength_violations().is_empty(),
            "the stretch must create a violation"
        );

        let checked = session.check(routed).expect("check succeeds");
        let design = &checked.routed.placed.placement.design;
        prop_assert_eq!(
            checked.drc.count(DrcViolationKind::MaxWirelength),
            0,
            "the repair loop must clear every max-wirelength violation"
        );
        prop_assert_eq!(
            required_buffer_lines(design),
            0,
            "the row count must have converged (no further buffer lines needed)"
        );
        prop_assert!(design.max_wirelength_violations().is_empty());
    }

    /// Pre-flight lint accepts every random DAG the validator accepts (no
    /// false-positive errors from the graph rules), and the synthesize gate
    /// agrees with a direct lint run: lint-clean designs enter the flow.
    /// (The repair-loop property above drives such designs through every
    /// stage, so "lint-clean completes the flow" is covered end to end.)
    #[test]
    fn lint_clean_designs_enter_the_flow(config in dag_config()) {
        let netlist = random_dag(&config);
        prop_assume!(netlist.validate().is_ok());
        let mut session = FlowSession::new(FlowConfig::fast()).expect("session opens");
        let report = session.lint(&netlist);
        prop_assert!(
            !report.has_errors(),
            "validated random DAGs must be lint-error-free:\n{}",
            report.render()
        );
        prop_assert!(session.synthesize(&netlist).is_ok());
    }

    /// Detailed placement is byte-identical for every worker-thread count on
    /// arbitrary random designs.
    #[test]
    fn detailed_placement_is_thread_count_invariant(config in dag_config()) {
        let netlist = random_dag(&config);
        prop_assume!(netlist.validate().is_ok());
        let library = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(library.clone()).run(&netlist).expect("ok");
        let mut base = PlacedDesign::from_synthesized(&synthesized, &library);
        global_place(&mut base, &GlobalPlacementConfig { iterations: 40, ..Default::default() });
        legalize(&mut base);

        let mut serial = base.clone();
        detailed_place(
            &mut serial,
            &DetailedPlacementConfig { passes: 2, threads: 1, ..Default::default() },
        );
        let mut parallel = base;
        detailed_place(
            &mut parallel,
            &DetailedPlacementConfig { passes: 2, threads: 2, ..Default::default() },
        );
        let serial_bits: Vec<u64> = serial.cells.iter().map(|c| c.x.to_bits()).collect();
        let parallel_bits: Vec<u64> = parallel.cells.iter().map(|c| c.x.to_bits()).collect();
        prop_assert_eq!(serial_bits, parallel_bits);
    }

    /// Sharded global placement is bit-identical to the single-threaded
    /// reference implementation at every thread count (including the
    /// auto-detect `0`) on arbitrary random designs.
    #[test]
    fn sharded_global_placement_matches_the_reference(config in dag_config()) {
        let netlist = random_dag(&config);
        prop_assume!(netlist.validate().is_ok());
        let library = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(library.clone()).run(&netlist).expect("ok");
        let base = PlacedDesign::from_synthesized(&synthesized, &library);

        let mut oracle = base.clone();
        let oracle_report = global_place_reference(
            &mut oracle,
            &GlobalPlacementConfig { iterations: 40, ..Default::default() },
        );
        let oracle_bits: Vec<u64> = oracle.cells.iter().map(|c| c.x.to_bits()).collect();

        for threads in [1usize, 2, 4, 0] {
            let mut sharded = base.clone();
            let report = global_place(
                &mut sharded,
                &GlobalPlacementConfig { iterations: 40, threads, ..Default::default() },
            );
            let sharded_bits: Vec<u64> =
                sharded.cells.iter().map(|c| c.x.to_bits()).collect();
            prop_assert_eq!(&sharded_bits, &oracle_bits, "threads = {}", threads);
            prop_assert_eq!(report.iterations, oracle_report.iterations);
            prop_assert_eq!(report.hpwl_after.to_bits(), oracle_report.hpwl_after.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Random `gen:random_dag` designs run the full flow with the
    /// per-stage verification gates enabled, at every worker count
    /// (including the auto-detect `0`): the LEC, phase-legality and
    /// LVS-lite verifiers all come back clean, independent of threading.
    #[test]
    fn generated_designs_verify_clean_at_every_thread_count(
        params in (60usize..240, any::<u64>())
    ) {
        let (cells, seed) = params;
        let spec = format!("gen:random_dag:{cells}:{seed}");
        let netlist = superflow::load_netlist(&spec).expect("gen spec resolves");
        for threads in [1usize, 2, 4, 0] {
            let config = FlowConfig::fast()
                .with_threads(threads)
                .with_verify(VerifyConfig { enabled: true, ..VerifyConfig::default() });
            let mut session = FlowSession::new(config).expect("session starts");
            // Each stage gate rejects its artifact on verifier findings,
            // so reaching the end means every gate passed.
            let synthesized = session.synthesize(&netlist).expect("synthesis + LEC gate");
            let placed = session.place(synthesized).expect("placement + phase gate");
            let routed = session.route(placed).expect("routing + phase gate");
            let checked = session.check(routed).expect("check + LVS gate");
            let mut report = session.verify_checked(&checked);
            report.merge(session.verify_synthesized(&netlist, &checked.routed.placed.synthesized));
            prop_assert!(
                report.ran("lec") && report.ran("phase") && report.ran("lvs"),
                "checks that ran: {:?}", report.checks
            );
            prop_assert!(!report.has_errors(), "threads = {}:\n{}", threads, report.render());
        }
    }
}

/// A randomized — but always valid — technology derived from the MIT-LL
/// built-in: every scalar field of the rules, timing model and layer map is
/// perturbed from a seed (the cell table keeps its standard geometry, with
/// the grid restricted to divisors of 10 µm so the dimensions stay
/// grid-multiples).
fn perturbed_technology(seed: u64) -> Technology {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut tech = Technology::mit_ll_sqf5ee();
    tech.name = format!("prop-tech-{:x}", next() % 0x1000);
    tech.description = format!("randomized process {:x}", next() % 0x1000);

    tech.rules.name = format!("rules {:x}", next() % 0x1000);
    tech.rules.min_spacing = (next() % 400 + 1) as f64 / 10.0;
    tech.rules.zigzag_spacing = (next() % 400 + 1) as f64 / 10.0;
    tech.rules.max_wirelength = tech.rules.min_spacing + (next() % 8000) as f64 / 10.0;
    tech.rules.grid = [1.0, 2.0, 5.0, 10.0][(next() % 4) as usize];
    tech.rules.routing_layers = (next() % 4 + 1) as usize;
    tech.rules.wire_width = (next() % 50 + 1) as f64 / 10.0;
    tech.rules.via_size = (next() % 80 + 1) as f64 / 10.0;
    tech.rules.min_metal_density = (next() % 50) as f64 / 100.0;
    tech.rules.max_metal_density = tech.rules.min_metal_density + (next() % 50 + 1) as f64 / 100.0;
    tech.rules.row_pitch = (next() % 30 + 1) as f64 * 10.0;

    tech.timing.clock.frequency_ghz = (next() % 200 + 1) as f64 / 10.0;
    tech.timing.gate_delay_ps = (next() % 300) as f64 / 10.0;
    tech.timing.wire_delay_ps_per_um = (next() % 1000 + 1) as f64 / 10000.0;
    tech.timing.clock_skew_ps_per_um = (next() % 100) as f64 / 10000.0;
    tech.timing.alpha = (next() % 40 + 1) as f64 / 10.0;

    let base = (next() % 250) as i16;
    tech.layers = LayerMap {
        outline: base,
        jj: (base + 1) % 256,
        pin: (base + 2) % 256,
        metal1: (base + 3) % 256,
        metal2: (base + 4) % 256,
        label: (base + 5) % 256,
    };
    tech
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any technology that survives `validate()` round-trips through its
    /// TOML (and JSON) file form bit-identically: same struct, same
    /// fingerprint.
    #[test]
    fn valid_technologies_round_trip_through_toml_bit_identically(seed in any::<u64>()) {
        let tech = perturbed_technology(seed);
        prop_assert!(tech.validate().is_ok(), "perturbation must stay valid: {:?}", tech.validate());

        let toml = tech.to_toml().expect("serializes to TOML");
        let from_toml = Technology::from_toml(&toml).expect("TOML loads");
        prop_assert_eq!(&from_toml, &tech, "TOML round trip must be exact");
        prop_assert_eq!(from_toml.fingerprint(), tech.fingerprint());

        let json = tech.to_json().expect("serializes to JSON");
        let from_json = Technology::from_json(&json).expect("JSON loads");
        prop_assert_eq!(&from_json, &tech, "JSON round trip must be exact");

        // Bit-exactness of the float fields specifically (PartialEq would
        // also pass for -0.0 vs 0.0; the file form must not even do that).
        prop_assert_eq!(
            from_toml.rules.max_wirelength.to_bits(),
            tech.rules.max_wirelength.to_bits()
        );
        prop_assert_eq!(
            from_toml.timing.wire_delay_ps_per_um.to_bits(),
            tech.timing.wire_delay_ps_per_um.to_bits()
        );
    }
}
