//! The `superflow` command-line surface, driven through the real binary.
//!
//! `every_command_accepts_its_flags_and_rejects_the_rest` pins which flags
//! each command accepts: every accepted flag must parse, and every other
//! flag any command knows must be rejected as a usage error (exit 2), so a
//! shared flag parser cannot quietly widen a command. Flags are checked
//! without running a flow: a trailing `--help` ends parsing with exit 0
//! once everything before it parsed.
//!
//! `synthesis_is_repeatable_across_processes` pins that the output is a
//! pure function of the input in every process, not only within one.

use std::io::Read;
use std::process::{Command, Output, Stdio};

/// Exit code for usage errors.
const EXIT_USAGE: i32 = 2;

/// Every flag any command accepts, each with a value it accepts (`None` for
/// switches).
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--placer", Some("taas")),
    ("--tech", Some("aist-stp2")),
    ("--process", Some("stp2")),
    ("--threads", Some("2")),
    ("--stop-after", Some("place")),
    ("--report", Some("out.json")),
    ("--output", Some("out.gds")),
    ("--svg", Some("out.svg")),
    ("--fast", None),
    ("--verify", None),
    ("--fanout-threshold", Some("5")),
    ("--quiet", None),
    ("--workers", Some("2")),
    ("--stage-timeout", Some("30")),
    ("--no-predict", None),
    ("--no-retry", None),
    ("--journal", Some("journal")),
    ("--output-dir", Some("gds")),
    ("--fault", Some("panic:adder8:placement")),
    ("--format", Some("json")),
    ("--deny", Some("AQFP-W009")),
    ("--warn", Some("AQFP-W009")),
    ("--allow", Some("AQFP-W009")),
    ("--rules", None),
    ("--against", Some("adder8")),
    ("--inject-defect", Some("cell")),
    ("--cells", Some("100")),
    ("--seed", Some("3")),
];

/// Each command (its leading words; `""` is the plain flow run) and the
/// flags it accepts. `-o` is generate's short `--output`; every other
/// command reads `-o` as an input, so it is not part of the rejection
/// sweep.
const COMMANDS: &[(&str, &[&str])] = &[
    (
        "",
        &[
            "--placer",
            "--tech",
            "--process",
            "--threads",
            "--stop-after",
            "--report",
            "--output",
            "--svg",
            "--fast",
            "--verify",
            "--fanout-threshold",
            "--quiet",
        ],
    ),
    (
        "batch",
        &[
            "--placer",
            "--tech",
            "--process",
            "--threads",
            "--workers",
            "--stage-timeout",
            "--no-predict",
            "--no-retry",
            "--journal",
            "--output-dir",
            "--report",
            "--fault",
            "--fast",
            "--verify",
            "--fanout-threshold",
            "--quiet",
        ],
    ),
    (
        "lint",
        &[
            "--tech",
            "--process",
            "--format",
            "--deny",
            "--warn",
            "--allow",
            "--fanout-threshold",
            "--rules",
        ],
    ),
    ("predict", &["--tech", "--process", "--format", "--deny", "--warn", "--allow", "--rules"]),
    (
        "verify",
        &[
            "--tech",
            "--process",
            "--threads",
            "--fast",
            "--format",
            "--against",
            "--inject-defect",
            "--rules",
        ],
    ),
    ("generate", &["--cells", "--seed", "--output", "-o"]),
    ("tech list", &["--quiet"]),
    ("tech show mit-ll-sqf5ee", &[]),
    ("tech dump mit-ll-sqf5ee", &["--output"]),
];

fn superflow(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_superflow"))
        .args(args)
        .current_dir(scratch_dir())
        .output()
        .expect("the superflow binary runs")
}

/// A private working directory, so accepted commands that do run (the
/// `tech` actions) never write into the source tree.
fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("superflow_cli_surface_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn describe(args: &[&str], output: &Output) -> String {
    format!(
        "`superflow {}` exited {:?}\nstdout: {}\nstderr: {}",
        args.join(" "),
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    )
}

fn assert_usage_error(args: &[&str]) {
    let output = superflow(args);
    assert_eq!(output.status.code(), Some(EXIT_USAGE), "{}", describe(args, &output));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage: superflow"), "{}", describe(args, &output));
}

#[test]
fn every_command_accepts_its_flags_and_rejects_the_rest() {
    for &(command, accepted) in COMMANDS {
        let words: Vec<&str> = command.split_whitespace().collect();
        // `tech` actions run for real: they are instant.
        let is_tech = words.first() == Some(&"tech");
        // Alone, each command runs (`tech`) or prints the usage text.
        let mut args = words.clone();
        if !is_tech {
            args.push("--help");
        }
        let output = superflow(&args);
        assert_eq!(output.status.code(), Some(0), "{}", describe(&args, &output));
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(is_tech || stdout.starts_with("usage: superflow"), "{}", describe(&args, &output));
        for &flag in accepted {
            let value = match flag {
                "-o" => Some("out.v"),
                "--output" if is_tech => Some("dumped.toml"),
                _ => FLAGS.iter().find(|(name, _)| *name == flag).expect("known flag").1,
            };
            let mut args = words.clone();
            args.push(flag);
            args.extend(value);
            if !is_tech {
                args.push("--help");
            }
            let output = superflow(&args);
            assert_eq!(output.status.code(), Some(0), "{}", describe(&args, &output));
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                is_tech || stdout.starts_with("usage: superflow"),
                "{}",
                describe(&args, &output)
            );
        }
        for &(flag, value) in FLAGS.iter().filter(|(flag, _)| !accepted.contains(flag)) {
            let mut args = words.clone();
            args.push(flag);
            args.extend(value);
            if !is_tech {
                args.push("--help");
            }
            assert_usage_error(&args);
        }
        let mut args = words.clone();
        args.push("--frobnicate");
        assert_usage_error(&args);
    }
    // `tech` usage errors exit 2 like every other command's.
    assert_usage_error(&["tech"]);
    assert_usage_error(&["tech", "bogus"]);
    assert_usage_error(&["tech", "list", "--frobnicate"]);
    assert_usage_error(&["tech", "list", "extra"]);
    assert_usage_error(&["tech", "show"]);
    assert_usage_error(&["tech", "show", "mit-ll-sqf5ee", "extra"]);
    assert_usage_error(&["tech", "dump"]);
    assert_usage_error(&["tech", "dump", "mit-ll-sqf5ee", "extra"]);
    std::fs::remove_dir_all(scratch_dir()).ok();
}

/// A reader that goes away early (`superflow generate … | head -1`) ends
/// the output quietly: no panic, no backtrace, nothing on stderr.
#[test]
fn a_closed_stdout_pipe_is_not_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_superflow"))
        .args(["generate", "random_dag", "--cells", "20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the superflow binary runs");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut first = [0u8; 64];
    stdout.read_exact(&mut first).expect("the netlist starts streaming");
    // Far more than a pipe buffer is still unwritten; closing the read end
    // makes the next write fail with a broken pipe.
    drop(stdout);
    let output = child.wait_with_output().expect("the process exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert_ne!(output.status.code(), Some(101), "stderr: {stderr}");
}

/// Two processes synthesizing the same netlist write the same bytes. Each
/// process builds its own majority mapping table, so an equal-cost tie
/// broken in hash order would show up here. A single random DAG often hits
/// only one or two such ties, which two processes break the same way by
/// chance, so the test checks several DAGs.
#[test]
fn synthesis_is_repeatable_across_processes() {
    let dir = std::env::temp_dir().join(format!("superflow_cli_repeat_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for design in ["gen:random_dag:2000:5", "gen:random_dag:4000:5", "gen:random_dag:6000:1"] {
        let runs: Vec<_> = (0..2)
            .map(|run| {
                let checkpoint = dir.join(format!("synthesized_{run}.json"));
                let child = Command::new(env!("CARGO_BIN_EXE_superflow"))
                    .args(["--fast", "--quiet", "--stop-after", "synthesis", "--report"])
                    .arg(&checkpoint)
                    .arg(design)
                    .stdout(Stdio::null())
                    .spawn()
                    .expect("the superflow binary runs");
                (child, checkpoint)
            })
            .collect();
        let outputs: Vec<Vec<u8>> = runs
            .into_iter()
            .map(|(mut child, checkpoint)| {
                assert!(child.wait().expect("the process exits").success(), "{design}");
                std::fs::read(checkpoint).expect("the checkpoint was written")
            })
            .collect();
        assert!(
            outputs[0] == outputs[1],
            "{design}: two processes wrote different synthesis checkpoints"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
