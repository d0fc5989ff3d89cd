//! Integration tests for the JSON checkpoint codec: any input bytes decode
//! to an artifact or a typed `FlowError::Checkpoint`, never a panic; and
//! indented checkpoints, the format older journals hold, still load and
//! resume to byte-identical GDS.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use superflow_suite::prelude::*;

type Decoder = fn(&str) -> Result<(), FlowError>;

/// Every stage's checkpoint decoder, by stage name.
const DECODERS: [(&str, Decoder); 4] = [
    ("synthesis", |text| Synthesized::from_json(text).map(drop)),
    ("placement", |text| Placed::from_json(text).map(drop)),
    ("routing", |text| Routed::from_json(text).map(drop)),
    ("check", |text| Checked::from_json(text).map(drop)),
];

/// The four compact checkpoints of a half adder: small real artifacts.
fn small_checkpoints() -> [String; 4] {
    let netlist = superflow::load_netlist("designs/half_adder.v").expect("fixture loads");
    let mut session = FlowSession::new(FlowConfig::fast()).expect("session opens");
    let synthesized = session.synthesize(&netlist).expect("synthesis succeeds");
    let synthesis = synthesized.to_json().expect("serializes");
    let placed = session.place(synthesized).expect("placement succeeds");
    let placement = placed.to_json().expect("serializes");
    let routed = session.route(placed).expect("routing succeeds");
    let routing = routed.to_json().expect("serializes");
    let checked = session.check(routed).expect("check succeeds");
    [synthesis, placement, routing, checked.to_json().expect("serializes")]
}

/// Runs `decoder` on `text`; a panic or an error other than
/// [`FlowError::Checkpoint`] fails the test, naming `input`.
fn decode(stage: &str, decoder: Decoder, text: &str, input: &str) -> Result<(), FlowError> {
    let outcome = std::panic::catch_unwind(|| decoder(text))
        .unwrap_or_else(|_| panic!("{stage} decoder panicked on {input}"));
    match outcome {
        Ok(()) | Err(FlowError::Checkpoint(_)) => outcome,
        Err(other) => panic!("{stage} decoder: untyped error {other:?} on {input}"),
    }
}

#[test]
fn checkpoints_decode_only_as_their_own_stage() {
    // `superflow verify` tries the stages newest first and takes the first
    // that decodes, so a checkpoint must decode under its own stage alone.
    for (own, text) in FlowStage::ALL.into_iter().zip(small_checkpoints()) {
        for stage in FlowStage::ALL {
            let decoded = Artifact::from_json(stage, &text);
            if stage == own {
                let artifact = decoded.expect("a checkpoint decodes as its own stage");
                assert_eq!(artifact.stage(), own);
                assert_eq!(artifact.to_json().expect("re-encodes"), text, "{own} bytes");
            } else {
                assert!(
                    matches!(decoded, Err(FlowError::Checkpoint(_))),
                    "a {own} checkpoint decoded as {stage}: {:?}",
                    decoded.map(|artifact| artifact.stage())
                );
            }
        }
    }
}

#[test]
fn arbitrary_bytes_decode_to_typed_errors() {
    // Raw bytes, and JSON-shaped token soup that gets past the first byte.
    const TOKENS: [&str; 16] = [
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"",
        "\"design_name\"",
        "\"netlist\"",
        "null",
        "true",
        "-0",
        "1e999",
        "18446744073709551616",
        "\\u00",
        " ",
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..3000 {
        let length = rng.gen_range(0usize..160);
        let bytes: Vec<u8> = if case % 2 == 0 {
            (0..length).map(|_| rng.gen_range(0u8..255)).collect()
        } else {
            (0..length).flat_map(|_| TOKENS[rng.gen_range(0..TOKENS.len())].bytes()).collect()
        };
        let text = String::from_utf8_lossy(&bytes);
        for (stage, decoder) in DECODERS {
            let _ = decode(stage, decoder, &text, &format!("case {case}: {text:?}"));
        }
    }
}

#[test]
fn every_truncation_of_a_real_checkpoint_is_a_typed_error() {
    for ((stage, decoder), text) in DECODERS.into_iter().zip(small_checkpoints()) {
        decode(stage, decoder, &text, "the whole checkpoint").expect("the whole checkpoint loads");
        for length in (0..text.len()).filter(|&length| text.is_char_boundary(length)) {
            let input = format!("the {length}-byte prefix of {}", text.len());
            let result = decode(stage, decoder, &text[..length], &input);
            assert!(result.is_err(), "{stage}: {input} decoded");
        }
    }
}

#[test]
fn single_byte_mutations_of_a_real_checkpoint_never_panic() {
    const BYTES: &[u8] = b"{}[],:\"\\-.0123456789eE+ ntfxz\x00\xff";
    let mut rng = StdRng::seed_from_u64(0xb17f11b);
    for ((stage, decoder), text) in DECODERS.into_iter().zip(small_checkpoints()) {
        for _ in 0..600 {
            let mut bytes = text.clone().into_bytes();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = BYTES[rng.gen_range(0..BYTES.len())];
            let mutated = String::from_utf8_lossy(&bytes);
            let input = format!("byte {at} set to {:#04x}", bytes[at]);
            let _ = decode(stage, decoder, &mutated, &input);
        }
    }
}

#[test]
fn a_nesting_bomb_under_an_unknown_field_is_rejected() {
    let bomb = format!("{{\"unknown\":{}}}", "[".repeat(100_000));
    for (stage, decoder) in DECODERS {
        match decode(stage, decoder, &bomb, "a nesting bomb") {
            Err(FlowError::Checkpoint(message)) => {
                assert!(message.contains("nesting"), "{stage}: {message}")
            }
            other => panic!("{stage}: nesting bomb gave {other:?}"),
        }
    }
}

#[test]
fn pretty_checkpoints_still_resume_to_identical_gds() {
    // Journals written before checkpoints were compact hold indented JSON.
    let netlist = benchmark_circuit(Benchmark::Adder8);
    let mut session = FlowSession::new(FlowConfig::fast()).expect("session opens");
    let synthesized = session.synthesize(&netlist).expect("synthesis succeeds");
    let synth_json = serde_json::to_string_pretty(&synthesized).expect("serializes");
    let placed = session.place(synthesized.clone()).expect("placement succeeds");
    let placed_json = serde_json::to_string_pretty(&placed).expect("serializes");
    let routed = session.route(placed.clone()).expect("routing succeeds");
    let routed_json = serde_json::to_string_pretty(&routed).expect("serializes");
    let checked = session.check(routed.clone()).expect("check succeeds");
    let checked_json = serde_json::to_string_pretty(&checked).expect("serializes");
    assert!(checked_json.contains("\n  "), "the old format is indented");
    let reference = session.finish(checked.clone()).layout.to_gds_bytes();

    // Each indented checkpoint restores the artifact, whose re-encoding is
    // the compact checkpoint of the original.
    let restored = Synthesized::from_json(&synth_json).expect("loads");
    assert_eq!(restored.to_json().ok(), synthesized.to_json().ok());
    assert!(restored == synthesized);
    let restored = Placed::from_json(&placed_json).expect("loads");
    assert_eq!(restored.to_json().ok(), placed.to_json().ok());
    let restored = Routed::from_json(&routed_json).expect("loads");
    assert_eq!(restored.to_json().ok(), routed.to_json().ok());
    let restored = Checked::from_json(&checked_json).expect("loads");
    assert_eq!(restored.to_json().ok(), checked.to_json().ok());

    let fresh = || FlowSession::new(FlowConfig::fast()).expect("session opens");
    let from_synthesis = {
        let mut s = fresh();
        let placed = s.place(Synthesized::from_json(&synth_json).unwrap()).unwrap();
        let routed = s.route(placed).unwrap();
        let checked = s.check(routed).unwrap();
        s.finish(checked).layout.to_gds_bytes()
    };
    let from_placement = {
        let mut s = fresh();
        let routed = s.route(Placed::from_json(&placed_json).unwrap()).unwrap();
        let checked = s.check(routed).unwrap();
        s.finish(checked).layout.to_gds_bytes()
    };
    let from_routing = {
        let mut s = fresh();
        let checked = s.check(Routed::from_json(&routed_json).unwrap()).unwrap();
        s.finish(checked).layout.to_gds_bytes()
    };
    let from_check =
        fresh().finish(Checked::from_json(&checked_json).unwrap()).layout.to_gds_bytes();
    assert!(from_synthesis == reference, "resume from synthesis");
    assert!(from_placement == reference, "resume from placement");
    assert!(from_routing == reference, "resume from routing");
    assert!(from_check == reference, "resume from check");
}

/// A fresh per-test scratch directory under the system temp dir.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("superflow_checkpoint_codec_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Rewrites the journaled checkpoint of `stage` in indented JSON.
fn indent_checkpoint(dir: &Path, stage: &str) {
    let path = dir.join(format!("{stage}.json"));
    let compact = std::fs::read_to_string(&path).expect("journaled checkpoint");
    let pretty = match stage {
        "synthesis" => serde_json::to_string_pretty(&Synthesized::from_json(&compact).unwrap()),
        "placement" => serde_json::to_string_pretty(&Placed::from_json(&compact).unwrap()),
        "routing" => serde_json::to_string_pretty(&Routed::from_json(&compact).unwrap()),
        _ => serde_json::to_string_pretty(&Checked::from_json(&compact).unwrap()),
    };
    std::fs::write(&path, pretty.expect("serializes")).expect("rewrites");
}

#[test]
fn a_journal_of_indented_checkpoints_resumes_through_the_batch_runner() {
    let root = temp_dir("pretty_journal");
    let journal = root.join("journal");
    let config = |out: &str| {
        BatchConfig::new(FlowConfig::fast())
            .with_workers(1)
            .with_journal_dir(&journal)
            .with_output_dir(root.join(out))
    };
    let jobs = [BatchJob::from_input("adder8")];
    BatchRunner::new(config("cold")).run(&jobs).expect("batch runs");
    for stage in ["synthesis", "placement", "routing", "check"] {
        indent_checkpoint(&journal.join("adder8"), stage);
    }

    let report = BatchRunner::new(config("resumed")).run(&jobs).expect("batch runs");
    let adder8 = &report.designs[0];
    assert_eq!(adder8.status, DesignStatus::Succeeded);
    assert_eq!(adder8.checkpoint_hits, 4, "all four indented checkpoints load");
    let gds = |out: &str| std::fs::read(root.join(out).join("adder8.gds")).expect("GDS written");
    assert!(gds("resumed") == gds("cold"), "resumed GDS differs from the cold run");

    let _ = std::fs::remove_dir_all(&root);
}
