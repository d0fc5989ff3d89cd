//! Integration tests for the data-driven `Technology` (PDK) API: a dumped
//! technology file drives the flow to byte-identical results, session
//! checkpoints refuse to resume under a different technology, and the
//! technology records round-trip through JSON.

use superflow_suite::prelude::*;

fn run_adder8(config: FlowConfig) -> Result<FlowReport, FlowError> {
    FlowSession::new(config)?.run(&benchmark_circuit(Benchmark::Adder8))
}

fn temp_path(file: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("superflow_technology_api");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(file)
}

/// Satellite guarantee: a built-in technology dumped to a file and loaded
/// back produces byte-identical GDS *and* timing to the registry entry, for
/// every built-in.
#[test]
fn dumped_technology_files_reproduce_builtin_gds_and_timing() {
    for technology in [Technology::mit_ll_sqf5ee(), Technology::aist_stp2()] {
        let name = technology.name.clone();
        let builtin_config = FlowConfig::fast().with_tech(TechSpec::builtin(name.clone()));
        let builtin = run_adder8(builtin_config).expect("builtin flow runs");

        let path = temp_path(&format!("{name}.toml"));
        std::fs::write(&path, technology.to_toml().expect("dumps")).expect("writes");
        let file_config =
            FlowConfig::fast().with_tech(TechSpec::file(path.to_str().expect("utf-8")));
        let from_file = run_adder8(file_config).expect("file-driven flow runs");

        assert_eq!(
            builtin.layout.to_gds_bytes(),
            from_file.layout.to_gds_bytes(),
            "{name}: GDS bytes must match the registry entry"
        );
        assert_eq!(
            builtin.placement.timing.wns_ps.to_bits(),
            from_file.placement.timing.wns_ps.to_bits(),
            "{name}: WNS must match bit for bit"
        );
        assert_eq!(builtin.placement.timing, from_file.placement.timing, "{name}: timing report");
        assert_eq!(builtin.drc, from_file.drc, "{name}: DRC report");
        assert_eq!(builtin.routing, from_file.routing, "{name}: routing result");
    }
}

/// An edited dump is a *different* process: the flow runs, and the edit has
/// the physically expected effect (tighter W_max ⇒ at least as many buffer
/// lines).
#[test]
fn edited_dump_changes_the_flow_like_a_new_process() {
    let dumped = Technology::mit_ll_sqf5ee().to_toml().expect("dumps");
    let edited = dumped
        .replace("max_wirelength = 400.0", "max_wirelength = 250.0")
        .replace("name = \"mit-ll-sqf5ee\"", "name = \"mit-ll-tight\"");
    assert_ne!(edited, dumped);
    let path = temp_path("tight.toml");
    std::fs::write(&path, &edited).expect("writes");

    let stock = run_adder8(FlowConfig::fast()).expect("stock flow runs");
    let tight =
        run_adder8(FlowConfig::fast().with_tech(TechSpec::file(path.to_str().expect("utf-8"))))
            .expect("edited flow runs");

    assert!(
        tight.placement.buffer_lines >= stock.placement.buffer_lines,
        "a tighter W_max cannot need fewer buffer lines ({} < {})",
        tight.placement.buffer_lines,
        stock.placement.buffer_lines
    );
    assert_ne!(
        tight.layout.to_gds_bytes(),
        stock.layout.to_gds_bytes(),
        "the edited process must actually change the layout"
    );
}

/// Checkpoints embed the technology fingerprint: resuming any stage
/// artifact into a session with a different technology fails loudly with
/// `TechnologyMismatch` instead of silently mixing process data.
#[test]
fn checkpoints_refuse_to_resume_under_a_different_technology() {
    let netlist = benchmark_circuit(Benchmark::Adder8);
    let mut mit_session = FlowSession::new(FlowConfig::fast()).expect("session opens");
    let synthesized = mit_session.synthesize(&netlist).expect("synthesis succeeds");
    let synth_json = synthesized.to_json().expect("serializes");
    let placed = mit_session.place(synthesized).expect("placement succeeds");
    let placed_json = placed.to_json().expect("serializes");
    let routed = mit_session.route(placed).expect("routing succeeds");
    let routed_json = routed.to_json().expect("serializes");

    let stp2_config = FlowConfig::fast().with_tech(TechSpec::builtin("aist-stp2"));
    let mut stp2_session = FlowSession::new(stp2_config).expect("session opens");
    assert_ne!(mit_session.tech_fingerprint(), stp2_session.tech_fingerprint());

    let synthesized = Synthesized::from_json(&synth_json).expect("checkpoint parses");
    let err = stp2_session.place(synthesized).expect_err("cross-technology resume must fail");
    let message = err.to_string();
    assert!(message.contains("technology mismatch"), "{message}");
    assert!(message.contains("mit-ll-sqf5ee"), "names the artifact's technology: {message}");

    let placed = Placed::from_json(&placed_json).expect("checkpoint parses");
    assert!(stp2_session.route(placed).is_err(), "route refuses foreign placements");

    let routed = Routed::from_json(&routed_json).expect("checkpoint parses");
    assert!(stp2_session.check(routed).is_err(), "check refuses foreign routings");

    // The same checkpoints resume fine under the original technology.
    let mut resumed = FlowSession::new(FlowConfig::fast()).expect("session opens");
    let routed = Routed::from_json(&routed_json).expect("checkpoint parses");
    resumed.check(routed).expect("same-technology resume succeeds");
}

/// `TechSpec::Inline` round-trips through a serialized `FlowConfig`, so a
/// config file can carry a complete custom process.
#[test]
fn inline_technology_survives_config_serde_and_drives_the_flow() {
    let mut technology = Technology::mit_ll_sqf5ee();
    technology.name = "inline-custom".to_owned();
    let config = FlowConfig::fast().with_technology(technology);
    let json = serde_json::to_string(&config).expect("config serializes");
    let parsed: FlowConfig = serde_json::from_str(&json).expect("config parses");
    let report = run_adder8(parsed).expect("flow runs");

    // Identical data under a different name ⇒ identical physical result.
    let stock = run_adder8(FlowConfig::fast()).expect("runs");
    assert_eq!(report.layout.to_gds_bytes(), stock.layout.to_gds_bytes());
}

/// The technology's component records round-trip through serde JSON, so a
/// rule or timing table edited by an external tool can be fed back in.
#[test]
fn process_rules_round_trip_and_stay_valid() {
    for rules in [ProcessRules::mit_ll(), ProcessRules::stp2()] {
        let json = serde_json::to_string(&rules).expect("serialize");
        let back: ProcessRules = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(rules, back);
        back.validate().expect("still valid");
    }
}

#[test]
fn timing_and_energy_configs_round_trip() {
    let timing = aqfp_timing::TimingConfig::paper_default();
    let back: aqfp_timing::TimingConfig =
        serde_json::from_str(&serde_json::to_string(&timing).expect("serialize"))
            .expect("deserialize");
    assert_eq!(timing, back);

    let energy = aqfp_cells::EnergyModel::aqfp_5ghz();
    let back: aqfp_cells::EnergyModel =
        serde_json::from_str(&serde_json::to_string(&energy).expect("serialize"))
            .expect("deserialize");
    assert_eq!(energy, back);

    let clock = aqfp_cells::FourPhaseClock::new(6.5);
    let back: aqfp_cells::FourPhaseClock =
        serde_json::from_str(&serde_json::to_string(&clock).expect("serialize"))
            .expect("deserialize");
    assert_eq!(clock, back);
}
