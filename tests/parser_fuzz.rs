//! Byte-level fuzz properties for every reader of user-supplied bytes: the
//! Verilog and BLIF netlist parsers, the technology TOML loader, the GDS
//! record reader and LVS-lite over a GDS stream. Arbitrary bytes, token
//! soup built from real inputs, and random mutations of real inputs
//! (`designs/*.v`, `to_blif` output, `to_toml` output, `adder8.gds`) must
//! each give `Ok` or a typed error, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aqfp_layout::gds::parse_records;
use aqfp_netlist::parsers::{parse_blif, parse_verilog};
use aqfp_netlist::writers::to_blif;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use superflow_suite::prelude::*;

/// Runs `parse` on one input; a panic fails the test, naming `what` and
/// the input case.
fn no_panic<T>(what: &str, case: &str, parse: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(parse)).unwrap_or_else(|_| panic!("{what} panicked on {case}"))
}

/// Applies one to three random edits to `seed`: overwrite, insert or
/// delete a byte, duplicate a short run elsewhere, or truncate.
fn mutate(rng: &mut StdRng, seed: &[u8], alphabet: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..rng.gen_range(1..4) {
        let at = rng.gen_range(0..bytes.len().max(1));
        let byte = if rng.gen_range(0..4) == 0 {
            rng.gen_range(0u8..255)
        } else {
            alphabet[rng.gen_range(0..alphabet.len())]
        };
        match rng.gen_range(0..10) {
            0..=3 if at < bytes.len() => bytes[at] = byte,
            4 | 5 => bytes.insert(at, byte),
            6 | 7 if at < bytes.len() => {
                let end = (at + rng.gen_range(1..16)).min(bytes.len());
                bytes.drain(at..end);
            }
            8 if at < bytes.len() => {
                let end = (at + rng.gen_range(1..64)).min(bytes.len());
                let run = bytes[at..end].to_vec();
                let to = rng.gen_range(0..bytes.len() + 1);
                bytes.splice(to..to, run);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

/// Random bytes, or (every other case) a random sequence of the
/// whitespace-separated tokens of `seeds`.
fn arbitrary(rng: &mut StdRng, case: usize, seeds: &[String]) -> Vec<u8> {
    let length = rng.gen_range(0usize..200);
    if case.is_multiple_of(2) {
        return (0..length).map(|_| rng.gen_range(0u8..255)).collect();
    }
    let tokens: Vec<&str> = seeds.iter().flat_map(|seed| seed.split_whitespace()).collect();
    let mut text = String::new();
    for _ in 0..length / 4 {
        text.push_str(tokens[rng.gen_range(0..tokens.len())]);
        text.push(if rng.gen_range(0..4) == 0 { '\n' } else { ' ' });
    }
    text.into_bytes()
}

/// Drives one text parser over arbitrary bytes, token soup and mutations
/// of every seed.
fn fuzz_text(what: &str, seeds: &[String], cases: usize, parse: impl Fn(&str)) {
    const SYNTAX: &[u8] = b" \n\t;,.()[]{}=\"'\\#/*-+0123456789eE_abnxz~&|^:\x00\xff";
    let mut rng = StdRng::seed_from_u64(0xf022);
    for case in 0..cases {
        let bytes = if case.is_multiple_of(3) {
            arbitrary(&mut rng, case / 3, seeds)
        } else {
            mutate(&mut rng, seeds[case % seeds.len()].as_bytes(), SYNTAX)
        };
        let text = String::from_utf8_lossy(&bytes);
        no_panic(what, &format!("case {case}: {text:?}"), || parse(&text));
    }
}

fn verilog_seeds() -> Vec<String> {
    let mut paths: Vec<_> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/designs"))
        .expect("designs/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "v"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "designs/ holds Verilog fixtures");
    paths.iter().map(|path| std::fs::read_to_string(path).expect("fixture reads")).collect()
}

#[test]
fn verilog_parser_never_panics() {
    fuzz_text("parse_verilog", &verilog_seeds(), 3000, |text| drop(parse_verilog(text)));
}

#[test]
fn blif_parser_never_panics() {
    let seeds: Vec<String> = [Benchmark::Adder8, Benchmark::Decoder]
        .into_iter()
        .map(|circuit| to_blif(&benchmark_circuit(circuit)))
        .chain(verilog_seeds().iter().filter_map(|v| parse_verilog(v).ok()).map(|n| to_blif(&n)))
        .collect();
    fuzz_text("parse_blif", &seeds, 3000, |text| drop(parse_blif(text)));
}

#[test]
fn technology_toml_loader_never_panics() {
    let seeds = vec![Technology::mit_ll_sqf5ee().to_toml().expect("the shipped technology dumps")];
    fuzz_text("Technology::from_toml", &seeds, 3000, |text| drop(Technology::from_toml(text)));
}

#[test]
fn gds_reader_and_lvs_never_panic() {
    const GDS_BYTES: &[u8] = &[0x00, 0x01, 0x02, 0x04, 0x06, 0x08, 0x10, 0x11, 0x7f, 0x80, 0xff];
    let golden = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/adder8.gds"))
        .expect("the committed golden reads");
    let report = FlowSession::new(FlowConfig::paper_default())
        .and_then(|mut session| session.run(&benchmark_circuit(Benchmark::Adder8)))
        .expect("flow succeeds");
    let technology = Technology::mit_ll_sqf5ee();
    let lvs = |bytes: &[u8]| {
        aqfp_verify::check_gds(bytes, &report.placement.design, &report.routing, &technology)
    };
    assert!(parse_records(&golden).is_ok(), "the golden parses");
    assert_eq!(lvs(&golden), vec![], "the golden matches its own design");

    let mut rng = StdRng::seed_from_u64(0x6d5);
    for case in 0..3000usize {
        let bytes = if case.is_multiple_of(2) {
            let length = rng.gen_range(0usize..200);
            (0..length).map(|_| GDS_BYTES[rng.gen_range(0..GDS_BYTES.len())]).collect()
        } else {
            mutate(&mut rng, &golden, GDS_BYTES)
        };
        let input = format!("case {case} ({} bytes)", bytes.len());
        let _ = no_panic("parse_records", &input, || parse_records(&bytes));
        // LVS-lite re-parses the whole stream, so it runs on every fifth
        // case only, to keep the test fast.
        if case.is_multiple_of(5) {
            no_panic("check_gds", &input, || lvs(&bytes));
        }
    }
}
