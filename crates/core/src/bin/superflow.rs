//! `superflow` command-line interface.
//!
//! Runs the RTL-to-GDS flow on a structural-Verilog or BLIF file, or on one
//! of the built-in benchmark circuits, and writes the resulting GDSII (and
//! optionally an SVG rendering, a JSON report, or a resumable stage
//! checkpoint). The `tech` subcommand inspects and dumps the technology
//! (PDK) descriptions the flow can target.
//!
//! ```text
//! superflow [OPTIONS] <input>
//!
//!   <input>                 path to a .v / .sv / .blif file, or a benchmark
//!                           name (adder8, apc32, apc128, decoder, sorter32,
//!                            c432, c499, c1355, c1908)
//!   --placer <name>         superflow | gordian | taas        [superflow]
//!   --tech <name|file>      technology to target: a built-in name
//!                           (mit-ll-sqf5ee, aist-stp2) or a technology
//!                           file (.toml, or .json)            [mit-ll-sqf5ee]
//!   --process <name>        mit-ll | stp2 — legacy alias for the built-in
//!                           technologies
//!   --threads <n>           worker threads for parallel stages; 0 = all
//!                           cores                             [0]
//!   --stop-after <stage>    stop after synthesis | placement | routing |
//!                           check and (with --report) write that stage's
//!                           resumable JSON checkpoint instead of a GDS
//!   --report <file.json>    write the full flow report — or, with
//!                           --stop-after, the stage checkpoint — as JSON
//!   --output <file.gds>     GDSII output path                 [<design>.gds]
//!   --svg <file.svg>        also write an SVG rendering
//!   --fast                  use the reduced-effort placement configuration
//!   --verify                gate every stage boundary with the post-stage
//!                           verifiers (LEC, phase-legality, LVS-lite)
//!   --fanout-threshold <n>  fan-out above which the pre-flight lint rule
//!                           AQFP-W009 fires
//!   --quiet                 print only the one-line summary
//!
//! superflow batch [OPTIONS] <input>...
//!
//!   runs many designs through the flow on a pool of worker threads with a
//!   fault boundary around each design (panic isolation, per-stage
//!   deadlines, degraded retry, crash-safe journaling — see the
//!   superflow::batch module docs).
//!
//!   --workers <n>           designs in flight at once; 0 = all cores [0]
//!   --stage-timeout <s>     per-stage wall-clock ceiling in seconds. When
//!                           the predictive cost model has a forecast for a
//!                           design, each stage's deadline is scaled from
//!                           its predicted cost, clamped between 10% of
//!                           this value (floor) and this value (ceiling);
//!                           designs without a forecast get the flat value
//!   --no-predict            skip the predictive pass: submission order and
//!                           flat per-stage deadlines
//!   --no-retry              skip the degraded retry of failed designs
//!   --journal <dir>         stage-checkpoint directory; re-running with the
//!                           same journal resumes each design from its last
//!                           completed stage
//!   --output-dir <dir>      write each design's final GDS here
//!   --report <file.json>    write the structured batch report as JSON
//!   --fault <k:d:s>         inject a deterministic fault (testing):
//!                           panic|deadline|truncate|corrupt : design : stage
//!   plus --placer/--tech/--process/--threads/--fast/--verify/
//!   --fanout-threshold/--quiet as above
//!
//! superflow lint [OPTIONS] <input>...
//!
//!   runs the pre-flight static-analysis rules (the same gate the flow and
//!   the batch driver apply before any stage engine) over one or more
//!   designs without running the flow. Inputs parse leniently, so every
//!   undriven net is reported with its source span instead of failing at
//!   the first.
//!
//!   --tech/--process        technology to lint against, as above
//!   --format <text|json>    output format                     [text]
//!   --deny <rule>           treat a rule (or `all`) as an error; repeatable
//!   --warn <rule>           demote a rule (or `all`) to a warning; repeatable
//!   --allow <rule>          suppress a rule (or `all`); repeatable
//!   --fanout-threshold <n>  fan-out above which AQFP-W009 fires
//!   --rules                 print the rule catalog and exit
//!
//!   exits 0 when every design is clean or has only warnings, 1 when any
//!   design has error-severity findings or fails to load, 2 on usage
//!   errors.
//!
//! superflow predict [OPTIONS] <input>...
//!
//!   runs the predictive feasibility analysis over one or more designs
//!   without running any stage engine: phase-depth intervals, splitter and
//!   buffer bounds, a die-size and row estimate, a channel-congestion
//!   forecast and a calibrated per-stage cost model. Findings carry stable
//!   AQFP-P0xx rule ids and also fire inside `superflow lint` and the
//!   flow/batch pre-flight gate.
//!
//!   --tech/--process        technology to predict against, as above
//!   --format <text|json>    output format; json includes the numeric
//!                           bounds and the cost forecast         [text]
//!   --deny <rule>           treat a rule (or `all`) as an error; repeatable
//!   --warn <rule>           demote a rule (or `all`) to a warning; repeatable
//!   --allow <rule>          suppress a rule (or `all`); repeatable
//!   --rules                 print the prediction rule catalog and exit
//!
//!   exits 0 when every design is predicted feasible (warnings allowed),
//!   1 when any design has error-severity findings or fails to load, 2 on
//!   usage errors.
//!
//! superflow verify [OPTIONS] <artifact>...
//!
//!   re-checks finished flow outputs from first principles: logic
//!   equivalence between input and synthesized netlists (LEC),
//!   phase-legality of the placed/routed design, and LVS-lite extraction
//!   of the GDS byte stream against the routed netlist. Each artifact is
//!   either a `.gds` layout (the flow is re-run on the matching input and
//!   the committed bytes are checked against the re-derived design) or a
//!   `.json` stage checkpoint written by `--stop-after`/`--journal` (the
//!   verifiers applicable to that stage run directly on it).
//!
//!   --tech/--process        technology to verify under, as above
//!   --fast                  re-derive with the reduced-effort placement
//!                           configuration (must match how the artifact
//!                           was produced)
//!   --threads <n>           worker threads for the re-derivation     [0]
//!   --against <input>       the original design input (file, benchmark
//!                           name or gen: spec) for LEC; defaults to the
//!                           artifact's design name / file stem
//!   --format <text|json>    output format                         [text]
//!   --inject-defect <kind>  corrupt one wire | cell | phase before
//!                           verifying, to prove the defect is caught
//!   --rules                 print the verification rule catalog and exit
//!
//!   exits 0 when every artifact verifies clean, 1 when any artifact has
//!   findings or fails to load, 2 on usage errors.
//!
//! superflow generate <family> [OPTIONS]
//!
//!   emits a parameterized large design (tiled_mul, apc_array, random_dag)
//!   as a netlist file — the same generators the flow reaches directly via
//!   `gen:<family>:<cells>[:<seed>]` input specs — for scale testing with
//!   external tools or committed fixtures.
//!
//!   --cells <n>             requested gate count (the generator rounds to
//!                           its tiling)                        [10000]
//!   --seed <n>              PRNG seed (random_dag only)        [0]
//!   --output <file>, -o     output path; `.blif` selects BLIF, anything
//!                           else structural Verilog        [stdout, Verilog]
//!
//! superflow tech list [--quiet]     list known technologies (--quiet:
//!                                   names only, one per line)
//! superflow tech show <name|file>   validate a technology and print its
//!                                   summary
//! superflow tech dump <name> [--output <file>]
//!                                   write a built-in technology as an
//!                                   editable TOML file (stdout by default)
//! ```
//!
//! Exit codes: 0 success, 1 flow error, 2 usage error, 3 partial batch
//! failure (the batch completed, but at least one design failed — including
//! designs rejected by the pre-flight lint stage, which the batch report
//! distinguishes from runtime failures). A usage error — an unknown flag, a
//! missing or extra argument — exits 2 with the usage text for every
//! command, `tech` included.

#![warn(clippy::unwrap_used)]

use std::fmt;
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use aqfp_cells::{EnergyModel, Technology, TechnologyRegistry};
use aqfp_layout::{render_svg, DrcReport, SvgOptions};
use aqfp_netlist::generators::LargeFamily;
use aqfp_netlist::Netlist;
use aqfp_place::PlacerKind;
use superflow::lint::RuleInfo;
use superflow::verify::{mutate, Defect};
use superflow::{
    error_chain, Artifact, BatchConfig, BatchJob, BatchRunner, Fault, FaultPlan, FlowConfig,
    FlowObserver, FlowReport, FlowSession, FlowStage, LintConfig, LintReport, PredictReport,
    RepairScope, Routed, Synthesized, TechSpec, VerifyConfig, VerifyReport,
};

/// Exit code for usage errors (bad flags, malformed specs).
const EXIT_USAGE: u8 = 2;
/// Exit code for a batch that completed but classified at least one design
/// as failed.
const EXIT_PARTIAL_FAILURE: u8 = 3;

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// The one path all CLI stdout takes. When the reader has gone away
/// (`superflow generate … | head -1`), the rest of the output is dropped
/// without a word and the command finishes with its own exit code; any other
/// write failure ends the process with exit 1.
fn write_stdout(args: fmt::Arguments<'_>) {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
        CLOSED.store(true, Ordering::Relaxed);
    }
}

fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write `{path}`: {e}"))
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

/// How a flag reads its value: the one parse rule each flag has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Takes {
    /// A switch without a value.
    Nothing,
    /// One value; a repeated flag overrides the earlier value.
    Value,
    /// One non-negative integer; a repeated flag overrides.
    Number,
    /// One value per occurrence, all kept in order.
    Each,
    /// One value, given at most once.
    Once,
}

/// Every flag of every command with its parse rule. `--process` is the
/// legacy alias of `--tech` and shares its once-only slot; `-o` is
/// generate's short `--output`.
const FLAGS: &[(&str, Takes)] = &[
    ("--placer", Takes::Value),
    ("--tech", Takes::Once),
    ("--process", Takes::Once),
    ("--threads", Takes::Number),
    ("--stop-after", Takes::Value),
    ("--report", Takes::Value),
    ("--output", Takes::Value),
    ("-o", Takes::Value),
    ("--svg", Takes::Value),
    ("--fast", Takes::Nothing),
    ("--verify", Takes::Nothing),
    ("--fanout-threshold", Takes::Number),
    ("--quiet", Takes::Nothing),
    ("--workers", Takes::Number),
    ("--stage-timeout", Takes::Value),
    ("--no-predict", Takes::Nothing),
    ("--no-retry", Takes::Nothing),
    ("--journal", Takes::Value),
    ("--output-dir", Takes::Value),
    ("--fault", Takes::Each),
    ("--format", Takes::Value),
    ("--deny", Takes::Each),
    ("--warn", Takes::Each),
    ("--allow", Takes::Each),
    ("--rules", Takes::Nothing),
    ("--against", Takes::Once),
    ("--inject-defect", Takes::Value),
    ("--cells", Takes::Number),
    ("--seed", Takes::Number),
];

/// Every command (its leading words; `""` is the plain flow run) and the
/// flags it accepts besides `--help`/`-h`.
const COMMANDS: &[(&str, &str)] = &[
    (
        "",
        "--placer --tech --process --threads --stop-after --report --output --svg --fast --verify \
         --fanout-threshold --quiet",
    ),
    (
        "batch",
        "--placer --tech --process --threads --workers --stage-timeout --no-predict --no-retry \
         --journal --output-dir --report --fault --fast --verify --fanout-threshold --quiet",
    ),
    ("lint", "--tech --process --format --deny --warn --allow --fanout-threshold --rules"),
    ("predict", "--tech --process --format --deny --warn --allow --rules"),
    ("verify", "--tech --process --threads --fast --format --against --inject-defect --rules"),
    ("generate", "--cells --seed --output -o"),
    ("tech list", "--quiet"),
    ("tech show", ""),
    ("tech dump", "--output"),
];

/// A scanned command line.
#[derive(Debug, Default)]
struct Args {
    /// `(flag, value)` in command-line order under each flag's canonical
    /// spelling; switches carry an empty value.
    flags: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Args {
    /// Walks `args` once, accepting only the flags in `accepted`. Anything
    /// else starting with `--` is a usage error; other words are
    /// positional. Returns `None` when `--help`/`-h` is reached.
    fn scan(args: &[String], accepted: &str) -> Result<Option<Args>, String> {
        let accepts = |flag: &str| accepted.split_whitespace().any(|a| a == flag);
        let mut scanned = Args::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            if !arg.starts_with("--") && !accepts(arg) {
                scanned.positionals.push(arg.clone());
                continue;
            }
            let Some(&(flag, takes)) = FLAGS.iter().find(|(flag, _)| flag == arg && accepts(flag))
            else {
                return Err(format!("unknown option `{arg}`"));
            };
            let mut value = String::new();
            if takes != Takes::Nothing {
                value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?.clone();
            }
            let flag = match flag {
                "-o" => "--output",
                "--process" => {
                    value = match value.as_str() {
                        "mit-ll" | "mitll" => aqfp_cells::MIT_LL_SQF5EE,
                        "stp2" => aqfp_cells::AIST_STP2,
                        other => return Err(format!("unknown process `{other}`")),
                    }
                    .to_owned();
                    "--tech"
                }
                flag => flag,
            };
            if takes == Takes::Number && value.parse::<usize>().is_err() {
                return Err(format!("{flag} needs a number, got `{value}`"));
            }
            if takes == Takes::Once && scanned.has(flag) {
                let flag = if flag == "--tech" { "--tech/--process" } else { flag };
                return Err(format!("{flag} given more than once"));
            }
            scanned.flags.push((flag, value));
        }
        Ok(Some(scanned))
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<String> {
        self.flags.iter().rev().find(|(f, _)| *f == flag).map(|(_, value)| value.clone())
    }

    /// Every value given for `flag`, in order.
    fn values(&self, flag: &str) -> Vec<String> {
        self.flags.iter().filter(|(f, _)| *f == flag).map(|(_, value)| value.clone()).collect()
    }

    /// The last value of a [`Takes::Number`] flag (validated by the scan).
    fn number<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).and_then(|value| value.parse().ok())
    }

    /// The last value of `flag` through `parse`; a value it rejects is a
    /// usage error.
    fn parsed<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|value| parse(&value).ok_or_else(|| format!("invalid {flag} value `{value}`")))
            .transpose()
    }

    /// The one positional argument, called `what` in errors.
    fn single(&self, what: &str) -> Result<String, String> {
        match self.positionals.as_slice() {
            [one] => Ok(one.clone()),
            [] => Err(format!("no {what} given")),
            _ => Err(format!("more than one {what} given")),
        }
    }
}

/// A parsed command line.
#[derive(Debug)]
enum Command {
    Help,
    Run(FlowOptions),
    Batch(Box<BatchOptions>),
    Lint(ReportOptions),
    Predict(ReportOptions),
    Verify(ReportOptions),
    Generate(GenerateOptions),
    Tech(TechCommand),
}

/// The flags that select a [`FlowConfig`]; every command that builds one
/// reads the ones it accepts.
#[derive(Debug)]
struct FlowArgs {
    fast: bool,
    tech: Option<String>,
    placer: PlacerKind,
    threads: Option<usize>,
    verify: bool,
    lint: LintConfig,
}

impl FlowArgs {
    fn parse(args: &Args) -> Result<Self, String> {
        let placer = args.parsed("--placer", |value| match value {
            "superflow" => Some(PlacerKind::SuperFlow),
            "gordian" => Some(PlacerKind::GordianBased),
            "taas" => Some(PlacerKind::Taas),
            _ => None,
        })?;
        Ok(Self {
            fast: args.has("--fast"),
            tech: args.value("--tech"),
            placer: placer.unwrap_or(PlacerKind::SuperFlow),
            threads: args.number("--threads"),
            verify: args.has("--verify"),
            lint: LintConfig {
                deny: args.values("--deny"),
                warn: args.values("--warn"),
                allow: args.values("--allow"),
                fanout_threshold: args.number("--fanout-threshold"),
            },
        })
    }

    /// The flow configuration these flags select.
    fn config(&self) -> FlowConfig {
        let config = if self.fast { FlowConfig::fast() } else { FlowConfig::paper_default() };
        let config = config.with_placer(self.placer).with_lint(self.lint.clone());
        let config = match &self.tech {
            Some(value) => config.with_tech(tech_spec(value)),
            None => config,
        };
        let config = match self.threads {
            Some(threads) => config.with_threads(threads),
            None => config,
        };
        if self.verify {
            config.with_verify(VerifyConfig { enabled: true, ..VerifyConfig::default() })
        } else {
            config
        }
    }
}

#[derive(Debug)]
struct FlowOptions {
    input: String,
    flow: FlowArgs,
    stop_after: Option<FlowStage>,
    report: Option<String>,
    output: Option<String>,
    svg: Option<String>,
    quiet: bool,
}

#[derive(Debug)]
struct BatchOptions {
    inputs: Vec<String>,
    config: BatchConfig,
    report: Option<String>,
    quiet: bool,
}

/// The options of the report commands: lint, predict and verify.
#[derive(Debug)]
struct ReportOptions {
    inputs: Vec<String>,
    flow: FlowArgs,
    json: bool,
    rules: bool,
    against: Option<String>,
    inject: Option<Defect>,
}

#[derive(Debug)]
struct GenerateOptions {
    family: LargeFamily,
    cells: usize,
    seed: u64,
    output: Option<String>,
}

#[derive(Debug)]
enum TechCommand {
    List { quiet: bool },
    Show(String),
    Dump { name: String, output: Option<String> },
}

impl FlowOptions {
    fn parse(args: &Args) -> Result<Self, String> {
        let options = Self {
            input: args.single("input")?,
            flow: FlowArgs::parse(args)?,
            stop_after: args.parsed("--stop-after", |value| {
                FlowStage::parse(value).or(match value {
                    "synth" => Some(FlowStage::Synthesis),
                    "place" => Some(FlowStage::Placement),
                    "route" => Some(FlowStage::Routing),
                    "drc" => Some(FlowStage::Check),
                    _ => None,
                })
            })?,
            report: args.value("--report"),
            output: args.value("--output"),
            svg: args.value("--svg"),
            quiet: args.has("--quiet"),
        };
        if options.stop_after.is_some() && (options.output.is_some() || options.svg.is_some()) {
            return Err("--output/--svg write final layout artifacts, which --stop-after skips; \
                        drop --stop-after (or use --report to keep that stage's checkpoint)"
                .to_owned());
        }
        Ok(options)
    }
}

impl BatchOptions {
    fn parse(args: &Args) -> Result<Self, String> {
        let inputs = args.positionals.clone();
        if inputs.is_empty() {
            return Err("batch needs at least one input".to_owned());
        }
        let mut names: Vec<String> = Vec::new();
        for input in &inputs {
            let name = BatchJob::from_input(input).name;
            if names.contains(&name) {
                return Err(format!(
                    "two batch inputs reduce to the design name `{name}`; journals and GDS \
                     outputs are keyed by name, so each design needs a distinct one"
                ));
            }
            names.push(name);
        }
        let faults: Result<Vec<Fault>, String> =
            args.values("--fault").iter().map(|f| Fault::parse(f)).collect();
        let mut config = BatchConfig::new(FlowArgs::parse(args)?.config())
            .with_workers(args.number("--workers").unwrap_or(0))
            .with_retry_degraded(!args.has("--no-retry"))
            .with_predict(!args.has("--no-predict"))
            .with_faults(FaultPlan { faults: faults? });
        let timeout = args.parsed("--stage-timeout", |value| {
            value.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0)
        })?;
        if let Some(seconds) = timeout {
            config = config.with_stage_timeout_s(seconds);
        }
        if let Some(dir) = args.value("--journal") {
            config = config.with_journal_dir(dir);
        }
        if let Some(dir) = args.value("--output-dir") {
            config = config.with_output_dir(dir);
        }
        Ok(Self { inputs, config, report: args.value("--report"), quiet: args.has("--quiet") })
    }
}

impl ReportOptions {
    fn parse(args: &Args, command: &str) -> Result<Self, String> {
        if args.positionals.is_empty() && !args.has("--rules") {
            return Err(format!("{command} needs at least one input (or --rules)"));
        }
        let json = args.parsed("--format", |value| match value {
            "json" => Some(true),
            "text" => Some(false),
            _ => None,
        })?;
        Ok(Self {
            inputs: args.positionals.clone(),
            flow: FlowArgs::parse(args)?,
            json: json.unwrap_or(false),
            rules: args.has("--rules"),
            against: args.value("--against"),
            inject: args.parsed("--inject-defect", Defect::parse)?,
        })
    }
}

impl GenerateOptions {
    fn parse(args: &Args) -> Result<Self, String> {
        if args.values("--output").len() > 1 {
            return Err("--output given more than once".to_owned());
        }
        let family = args.single("generator family")?;
        let family = LargeFamily::parse(&family).ok_or_else(|| {
            format!(
                "unknown generator family `{family}` (available: {})",
                LargeFamily::ALL.map(|f| f.name()).join(", ")
            )
        })?;
        Ok(Self {
            family,
            cells: args.number("--cells").unwrap_or(10_000),
            seed: args.number("--seed").unwrap_or(0),
            output: args.value("--output"),
        })
    }
}

/// Parses a whole command line: picks the command from its leading words,
/// scans the rest against that command's flags, and builds its options.
fn parse_cli(args: &[String]) -> Result<Command, String> {
    let (command, accepted) = COMMANDS
        .iter()
        .rev()
        .find(|(name, _)| {
            name.split_whitespace()
                .enumerate()
                .all(|(i, word)| args.get(i).is_some_and(|a| a == word))
        })
        .copied()
        .unwrap_or(COMMANDS[0]);
    if command.is_empty() && args.first().is_some_and(|a| a == "tech") {
        return Err(match args.get(1) {
            Some(action) => format!("unknown tech subcommand `{action}`"),
            None => "tech subcommand needs an action: list, show or dump".to_owned(),
        });
    }
    let rest = &args[command.split_whitespace().count()..];
    let Some(args) = Args::scan(rest, accepted)? else { return Ok(Command::Help) };
    Ok(match command {
        "" => Command::Run(FlowOptions::parse(&args)?),
        "batch" => Command::Batch(Box::new(BatchOptions::parse(&args)?)),
        "lint" => Command::Lint(ReportOptions::parse(&args, command)?),
        "predict" => Command::Predict(ReportOptions::parse(&args, command)?),
        "verify" => Command::Verify(ReportOptions::parse(&args, command)?),
        "generate" => Command::Generate(GenerateOptions::parse(&args)?),
        "tech list" => match args.positionals.first() {
            Some(extra) => return Err(format!("unexpected argument `{extra}`")),
            None => Command::Tech(TechCommand::List { quiet: args.has("--quiet") }),
        },
        "tech show" => Command::Tech(TechCommand::Show(args.single("technology name or file")?)),
        _ => Command::Tech(TechCommand::Dump {
            name: args.single("technology name")?,
            output: args.value("--output"),
        }),
    })
}

fn usage() -> &'static str {
    "usage: superflow [--placer superflow|gordian|taas] [--tech name|file.toml] \
     [--process mit-ll|stp2] [--threads n] \
     [--stop-after synthesis|placement|routing|check] [--report out.json] \
     [--output out.gds] [--svg out.svg] [--fast] [--verify] \
     [--fanout-threshold n] [--quiet] \
     <input.v|input.sv|input.blif|benchmark>\n\
     \x20      superflow batch [--workers n] [--stage-timeout seconds] [--no-predict] \
     [--no-retry] [--journal dir] [--output-dir dir] [--report out.json] \
     [--fault panic|deadline|truncate|corrupt:design:stage] [flow options] <input>...\n\
     \x20      superflow lint [--tech name|file.toml] [--process mit-ll|stp2] \
     [--format text|json] [--deny rule] [--warn rule] [--allow rule] \
     [--fanout-threshold n] [--rules] <input>...\n\
     \x20      superflow predict [--tech name|file.toml] [--process mit-ll|stp2] \
     [--format text|json] [--deny rule] [--warn rule] [--allow rule] \
     [--rules] <input>...\n\
     \x20      superflow verify [--tech name|file.toml] [--process mit-ll|stp2] \
     [--fast] [--threads n] [--against input] [--format text|json] \
     [--inject-defect wire|cell|phase] [--rules] <artifact.gds|checkpoint.json>...\n\
     \x20      superflow generate tiled_mul|apc_array|random_dag [--cells n] \
     [--seed n] [--output file.v|-o file.v]\n\
     \x20      superflow tech list [--quiet]\n\
     \x20      superflow tech show <name|file>\n\
     \x20      superflow tech dump <name> [--output file.toml]"
}

/// Interprets a `--tech` value: a known registry name (or one of the
/// legacy `--process` aliases) resolves to the built-in; anything that
/// looks like a path — it contains a separator or an extension dot — is a
/// technology file. A bare name that matches nothing still resolves as
/// `Builtin`, so the error lists the available registry names instead of a
/// confusing missing-file message.
fn tech_spec(value: &str) -> TechSpec {
    if TechnologyRegistry::global().get(value).is_some() {
        return TechSpec::builtin(value);
    }
    match value {
        "mit-ll" | "mitll" => TechSpec::builtin(aqfp_cells::MIT_LL_SQF5EE),
        "stp2" => TechSpec::builtin(aqfp_cells::AIST_STP2),
        _ if !value.contains(['/', '\\', '.']) => TechSpec::builtin(value),
        _ => TechSpec::file(value),
    }
}

/// Loads the input netlist through the shared [`superflow::input`] loader
/// (benchmark names resolve to generated circuits, file paths dispatch on
/// their extension), rendering errors with their full source chain.
fn load_netlist(input: &str) -> Result<Netlist, String> {
    superflow::load_netlist(input).map_err(|e| error_chain(&e))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_cli(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let result = match &command {
        Command::Help => {
            outln!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        Command::Run(options) => run_flow_cli(options),
        Command::Batch(options) => run_batch_cli(options),
        Command::Lint(options) => run_reports(options, superflow::lint::catalog, || {
            let flow = options.flow.config();
            let technology = flow.resolve_technology().map_err(|e| error_chain(&e))?;
            Ok(move |input: &str| lint_one(input, &technology, &flow))
        }),
        Command::Predict(options) => run_reports(options, superflow::predict::catalog, || {
            let flow = options.flow.config();
            let technology = flow.resolve_technology().map_err(|e| error_chain(&e))?;
            Ok(move |input: &str| predict_one(input, &technology, &flow))
        }),
        Command::Verify(options) => run_reports(options, superflow::verify::catalog, || {
            let config = options.flow.config();
            Ok(move |input: &str| verify_one(input, options, &config))
        }),
        Command::Generate(options) => run_generate_cli(options),
        Command::Tech(tech) => run_tech(tech).map(|text| {
            outln!("{text}");
            ExitCode::SUCCESS
        }),
    };
    result.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------------
// The flow run
// ---------------------------------------------------------------------------

/// Prints stage progress unless `--quiet` is given.
struct StageLog;

impl FlowObserver for StageLog {
    fn stage_finished(&mut self, stage: FlowStage, elapsed_s: f64) {
        outln!("[{:<9}] finished in {elapsed_s:.2}s", stage.name());
    }

    fn drc_iteration(&mut self, iteration: usize, report: &DrcReport, scope: RepairScope<'_>) {
        outln!(
            "[{:<9}] repair iteration {iteration}: {} violation(s), {scope}",
            "check",
            report.violations.len(),
        );
    }
}

/// What a CLI invocation produced.
enum Outcome {
    /// The whole pipeline ran.
    Complete(Box<FlowReport>),
    /// `--stop-after` ended the run early, at this artifact.
    Stopped(Box<Artifact>),
}

fn run(options: &FlowOptions) -> Result<Outcome, String> {
    let netlist = load_netlist(&options.input)?;
    let mut session = FlowSession::new(options.flow.config()).map_err(|e| error_chain(&e))?;
    if !options.quiet {
        outln!(
            "[{:<9}] technology {} ({})",
            "tech",
            session.technology().name,
            session.config().tech.describe()
        );
        session.add_observer(Box::new(StageLog));
    }
    let last = options.stop_after.unwrap_or(FlowStage::Check);
    Ok(match run_until(&mut session, &netlist, last)? {
        Artifact::Checked(checked) if options.stop_after.is_none() => {
            Outcome::Complete(Box::new(session.finish(checked)))
        }
        artifact => Outcome::Stopped(Box::new(artifact)),
    })
}

/// Runs the flow on `netlist` through the `last` stage and returns that
/// stage's artifact.
fn run_until(
    session: &mut FlowSession,
    netlist: &Netlist,
    last: FlowStage,
) -> Result<Artifact, String> {
    let chain = |e: superflow::FlowError| error_chain(&e);
    let mut artifact = Artifact::Synthesized(session.synthesize(netlist).map_err(chain)?);
    while artifact.stage() != last {
        artifact = session.advance(artifact).map_err(chain)?;
    }
    Ok(artifact)
}

/// The line `--stop-after` prints about the artifact it stopped at.
fn stage_summary(artifact: &Artifact) -> String {
    match artifact {
        Artifact::Synthesized(synthesized) => {
            let stats = synthesized.stats();
            format!(
                "{}: {} JJs / {} nets / {} phases after synthesis",
                synthesized.design_name, stats.jj_count, stats.net_count, stats.delay
            )
        }
        Artifact::Placed(placed) => format!(
            "{}: HPWL {:.0} µm, {} buffer lines, WNS {}",
            placed.synthesized.design_name,
            placed.placement.hpwl_um,
            placed.placement.buffer_lines,
            placed.placement.wns_display()
        ),
        Artifact::Routed(routed) => {
            let stats = &routed.routing.stats;
            format!(
                "{}: routed {} nets, {:.0} µm, {} vias",
                routed.placed.synthesized.design_name,
                stats.nets_routed,
                stats.total_wirelength_um,
                stats.total_vias
            )
        }
        Artifact::Checked(checked) => {
            let drc = if checked.drc.is_clean() {
                "clean".to_owned()
            } else {
                format!("{} violations", checked.drc.violations.len())
            };
            format!(
                "{}: DRC {drc} after {} repair iteration(s)",
                checked.routed.placed.synthesized.design_name, checked.drc_iterations
            )
        }
    }
}

fn run_flow_cli(options: &FlowOptions) -> Result<ExitCode, String> {
    let report = match run(options)? {
        Outcome::Complete(report) => report,
        Outcome::Stopped(artifact) => {
            outln!("{}", stage_summary(&artifact));
            let stage = artifact.stage();
            match &options.report {
                Some(path) => {
                    write_file(path, artifact.to_json().map_err(|e| error_chain(&e))?)?;
                    outln!("stopped after {stage}; checkpoint written to {path}");
                }
                None => outln!("stopped after {stage} (pass --report to keep a checkpoint)"),
            }
            return Ok(ExitCode::SUCCESS);
        }
    };

    if let Some(path) = &options.report {
        let json = serde_json::to_string_pretty(&*report)
            .map_err(|e| format!("cannot serialize report: {e}"))?;
        write_file(path, json)?;
    }

    let gds_path = options.output.clone().unwrap_or_else(|| format!("{}.gds", report.design_name));
    // Stream record by record through a BufWriter instead of materializing
    // the byte image — at a million cells the image alone is tens of MB.
    std::fs::File::create(&gds_path)
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            report.layout.gds.write_to(&mut out)?;
            out.flush()
        })
        .map_err(|e| format!("cannot write `{gds_path}`: {e}"))?;
    if let Some(svg_path) = &options.svg {
        write_file(
            svg_path,
            render_svg(&report.placement.design, &report.routing, &SvgOptions::default()),
        )?;
    }

    outln!("{}", report.summary());
    if !options.quiet {
        let energy = EnergyModel::default();
        let timings = report.stage_timings;
        outln!("placer            : {}", report.placement.placer);
        outln!("clock phases      : {}", report.synthesis_stats.delay);
        outln!("JJs after routing : {}", report.jj_after_routing());
        outln!(
            "energy estimate   : {:.1} aJ/cycle ({:.2} nW at 5 GHz)",
            report.cycle_energy_aj(&energy),
            report.average_power_nw(&energy, aqfp_cells::FourPhaseClock::PAPER_DEFAULT),
        );
        outln!(
            "stage timings     : synth {:.2}s / place {:.2}s / route {:.2}s / check {:.2}s",
            timings.synthesis_s,
            timings.placement_s,
            timings.routing_s,
            timings.check_s,
        );
        if let Some(path) = &options.report {
            outln!("report written to : {path}");
        }
        outln!("GDS written to    : {gds_path}");
        if let Some(svg_path) = &options.svg {
            outln!("SVG written to    : {svg_path}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// `superflow batch` and `superflow generate`
// ---------------------------------------------------------------------------

fn run_batch_cli(options: &BatchOptions) -> Result<ExitCode, String> {
    let jobs: Vec<BatchJob> = options.inputs.iter().map(BatchJob::from_input).collect();
    let runner = BatchRunner::new(options.config.clone());
    let report = runner.run(&jobs).map_err(|e| error_chain(&e))?;
    if options.quiet {
        // First line of the render is the one-line summary.
        outln!("{}", report.render().lines().next().unwrap_or_default());
    } else {
        out!("{}", report.render());
    }
    if let Some(path) = &options.report {
        write_file(path, report.to_json().map_err(|e| error_chain(&e))?)?;
        if !options.quiet {
            outln!("batch report written to {path}");
        }
    }
    Ok(if report.failed() > 0 { ExitCode::from(EXIT_PARTIAL_FAILURE) } else { ExitCode::SUCCESS })
}

fn run_generate_cli(options: &GenerateOptions) -> Result<ExitCode, String> {
    let netlist = options.family.by_cells(options.cells, options.seed);
    match &options.output {
        Some(path) => {
            let text = if path.ends_with(".blif") {
                aqfp_netlist::writers::to_blif(&netlist)
            } else {
                aqfp_netlist::writers::to_verilog(&netlist)
            };
            write_file(path, text)?;
            outln!(
                "generated {}: {} gates / {} inputs / {} outputs, written to {path}",
                netlist.name(),
                netlist.cell_count(),
                netlist.primary_inputs().len(),
                netlist.primary_outputs().len(),
            );
        }
        None => out!("{}", aqfp_netlist::writers::to_verilog(&netlist)),
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// The report commands: `superflow lint`, `predict` and `verify`
// ---------------------------------------------------------------------------

/// What the report runner needs from a lint, predict or verify report.
trait CliReport: serde::Serialize {
    fn render(&self) -> String;
    fn has_errors(&self) -> bool;
}

macro_rules! cli_report {
    ($($report:ty),*) => {$(
        impl CliReport for $report {
            fn render(&self) -> String {
                <$report>::render(self)
            }
            fn has_errors(&self) -> bool {
                <$report>::has_errors(self)
            }
        }
    )*};
}

cli_report!(LintReport, PredictReport, VerifyReport);

/// The rule catalog table `--rules` prints.
fn render_catalog(catalog: &[RuleInfo]) -> String {
    let mut out = String::from("rule       default  summary\n");
    for info in catalog {
        out.push_str(&format!("{:<10} {:<8} {}\n", info.id, info.severity.keyword(), info.summary));
    }
    out.trim_end().to_owned()
}

/// The runner behind lint, predict and verify. `--rules` prints `catalog`;
/// otherwise `setup` yields the per-input check, each input's report is
/// printed as text or JSON, and the command exits 1 when any input has
/// error-severity findings or fails to load.
fn run_reports<R: CliReport, F: FnMut(&str) -> Result<R, String>>(
    options: &ReportOptions,
    catalog: fn() -> Vec<RuleInfo>,
    setup: impl FnOnce() -> Result<F, String>,
) -> Result<ExitCode, String> {
    if options.rules {
        outln!("{}", render_catalog(&catalog()));
        return Ok(ExitCode::SUCCESS);
    }
    let mut check = setup()?;
    let mut reports = Vec::new();
    let mut failed = false;
    for input in &options.inputs {
        match check(input) {
            Ok(report) => {
                failed |= report.has_errors();
                reports.push(report);
            }
            Err(message) => {
                failed = true;
                eprintln!("error: `{input}`: {message}");
            }
        }
    }
    if options.json {
        let json = serde_json::to_string_pretty(&reports)
            .map_err(|e| format!("cannot serialize reports: {e}"))?;
        outln!("{json}");
    } else {
        for report in &reports {
            out!("{}", report.render());
        }
    }
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Lints one input: the design loads leniently (undriven nets become
/// AQFP-E002 findings with their source spans instead of a parse error at
/// the first one) and goes through the shared pre-flight gate — the
/// structural lint rules plus the predictive AQFP-P0xx feasibility rules.
fn lint_one(input: &str, technology: &Technology, flow: &FlowConfig) -> Result<LintReport, String> {
    let design = superflow::load_design(input).map_err(|e| error_chain(&e))?;
    let name = superflow::input::design_name(input);
    Ok(superflow::lint_design(&name, &design.netlist, technology, flow))
}

/// Runs the predictive analysis on one input: the design loads leniently
/// (so a netlist with undriven nets still gets its feasibility forecast),
/// and the prediction itself never runs a stage engine.
fn predict_one(
    input: &str,
    technology: &Technology,
    flow: &FlowConfig,
) -> Result<PredictReport, String> {
    let design = superflow::load_design(input).map_err(|e| error_chain(&e))?;
    let name = superflow::input::design_name(input);
    Ok(superflow::predict::predict(&name, &design.netlist, technology, &flow.predict_options()))
}

/// Fails verification up front when an artifact was produced under a
/// different technology than the session targets — comparing across
/// processes would produce nonsense findings, not a useful report.
fn ensure_artifact_technology(
    session: &FlowSession,
    found: &str,
    input: &str,
) -> Result<(), String> {
    if session.tech_fingerprint() == found {
        Ok(())
    } else {
        Err(format!(
            "technology mismatch: the session targets `{}`, but `{input}` was produced under \
             `{found}`; pass the matching --tech/--process",
            session.tech_fingerprint()
        ))
    }
}

/// Applies `--inject-defect` (when given) to a routed (or later) artifact,
/// so the verification run that follows must report it, and notes on
/// stderr what was damaged.
fn inject_routed_defect(
    options: &ReportOptions,
    routed: &mut Routed,
    input: &str,
) -> Result<(), String> {
    let Some(defect) = options.inject else { return Ok(()) };
    let note = match defect {
        Defect::Phase => mutate::corrupt_design_phase(&mut routed.placed.placement.design)
            .map(|net| format!("repointed a sink of net n{net} two phases past its driver")),
        Defect::Cell => mutate::corrupt_design_cell(&mut routed.placed.placement.design)
            .map(|cell| format!("nudged cell `{cell}` half a micron off its placement site")),
        Defect::Wire => mutate::corrupt_routing(&mut routed.routing)
            .map(|net| format!("dropped one routed segment of net n{net}")),
    };
    let note = note
        .ok_or_else(|| format!("the design is too small to inject a {} defect", defect.name()))?;
    eprintln!("note: injected {} defect into `{input}`: {note}", defect.name());
    Ok(())
}

/// Resolves the original input netlist for LEC: `--against` when given,
/// otherwise the design name (which resolves for benchmark circuits but not
/// for generated or file-based designs). `required` turns an unresolvable
/// input into an error instead of a skipped check.
fn lec_input(
    options: &ReportOptions,
    design_name: &str,
    required: bool,
) -> Result<Option<Netlist>, String> {
    match &options.against {
        Some(spec) => load_netlist(spec).map(Some).map_err(|e| format!("--against `{spec}`: {e}")),
        None => match superflow::load_netlist(design_name) {
            Ok(netlist) => Ok(Some(netlist)),
            Err(_) if !required => Ok(None),
            Err(_) => Err(format!(
                "cannot resolve the original input for `{design_name}` to run logic \
                 equivalence; pass --against <input>"
            )),
        },
    }
}

/// Verifies a committed `.gds` layout: re-runs the flow on the matching
/// input, then checks logic equivalence, phase-legality and an LVS-lite
/// comparison of the committed bytes against the re-derived design.
fn verify_gds_input(
    input: &str,
    options: &ReportOptions,
    config: &FlowConfig,
) -> Result<VerifyReport, String> {
    let bytes = std::fs::read(input).map_err(|e| format!("cannot read `{input}`: {e}"))?;
    let spec = match &options.against {
        Some(spec) => spec.clone(),
        None => std::path::Path::new(input)
            .file_stem()
            .and_then(|stem| stem.to_str())
            .map(str::to_owned)
            .ok_or_else(|| format!("cannot infer a design name from `{input}`"))?,
    };
    let netlist = load_netlist(&spec)?;
    let mut session = FlowSession::new(config.clone()).map_err(|e| error_chain(&e))?;
    let Artifact::Checked(mut checked) = run_until(&mut session, &netlist, FlowStage::Check)?
    else {
        unreachable!("the run stops at the check stage")
    };
    inject_routed_defect(options, &mut checked.routed, input)?;
    let mut report = session.verify_synthesized(&netlist, &checked.routed.placed.synthesized);
    report.merge(session.verify_routed(&checked.routed));
    report.record_check("lvs");
    report.extend(superflow::verify::check_gds(
        &bytes,
        &checked.routed.placed.placement.design,
        &checked.routed.routing,
        session.technology().as_ref(),
    ));
    report.normalize();
    Ok(report)
}

/// Verifies a `.json` stage checkpoint with the verifiers applicable to its
/// stage: LEC for synthesis artifacts (and any later stage whose input
/// resolves), phase-legality from placement on, LVS-lite for checked
/// artifacts (which embed their layout).
fn verify_checkpoint_input(
    input: &str,
    options: &ReportOptions,
    config: &FlowConfig,
) -> Result<VerifyReport, String> {
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read `{input}`: {e}"))?;
    let session = FlowSession::new(config.clone()).map_err(|e| error_chain(&e))?;
    // Adds LEC against the original input when it resolves.
    let with_lec = |mut report: VerifyReport, synthesized: &Synthesized| {
        if let Some(netlist) = lec_input(options, &synthesized.design_name, false)? {
            report.merge(session.verify_synthesized(&netlist, synthesized));
        }
        Ok::<_, String>(report)
    };

    // Newest stage first: each stage's decoder rejects the others'
    // checkpoints.
    let artifact = FlowStage::ALL
        .into_iter()
        .rev()
        .find_map(|stage| Artifact::from_json(stage, &text).ok())
        .ok_or_else(|| {
            format!(
                "`{input}` is not a stage checkpoint this version can read (expected the JSON \
                 written by --stop-after/--journal for the synthesis, placement, routing or \
                 check stage)"
            )
        })?;
    ensure_artifact_technology(&session, artifact.tech_fingerprint(), input)?;
    let mut report = match artifact {
        Artifact::Checked(mut checked) => {
            inject_routed_defect(options, &mut checked.routed, input)?;
            with_lec(session.verify_checked(&checked), &checked.routed.placed.synthesized)?
        }
        Artifact::Routed(mut routed) => {
            inject_routed_defect(options, &mut routed, input)?;
            with_lec(session.verify_routed(&routed), &routed.placed.synthesized)?
        }
        Artifact::Placed(mut placed) => {
            if let Some(defect) = options.inject {
                if defect != Defect::Phase {
                    return Err(format!(
                        "--inject-defect {} needs a routed artifact; `{input}` stops at placement",
                        defect.name()
                    ));
                }
                let net = mutate::corrupt_design_phase(&mut placed.placement.design)
                    .ok_or_else(|| "the design is too small to inject a phase defect".to_owned())?;
                eprintln!(
                    "note: injected phase defect into `{input}`: repointed a sink of net n{net} \
                     two phases past its driver"
                );
            }
            with_lec(session.verify_placed(&placed), &placed.synthesized)?
        }
        Artifact::Synthesized(synthesized) => {
            if let Some(defect) = options.inject {
                return Err(format!(
                    "--inject-defect {} needs a placed artifact; `{input}` stops at synthesis",
                    defect.name()
                ));
            }
            // LEC is the only verifier that applies at this stage, so an
            // unresolvable input is an error: a report with no checks run
            // would read as a pass.
            let Some(netlist) = lec_input(options, &synthesized.design_name, true)? else {
                unreachable!("required lec_input returns Some or errors")
            };
            session.verify_synthesized(&netlist, &synthesized)
        }
    };
    report.normalize();
    Ok(report)
}

/// Dispatches one verify input on its extension.
fn verify_one(
    input: &str,
    options: &ReportOptions,
    config: &FlowConfig,
) -> Result<VerifyReport, String> {
    if input.ends_with(".gds") {
        verify_gds_input(input, options, config)
    } else if input.ends_with(".json") {
        verify_checkpoint_input(input, options, config)
    } else {
        Err(format!("verify inputs are .gds layouts or .json stage checkpoints, got `{input}`"))
    }
}

// ---------------------------------------------------------------------------
// `superflow tech …` subcommands
// ---------------------------------------------------------------------------

/// The header `tech dump` prepends to the pure-TOML body; the parser treats
/// it as comments, so a dumped file loads back unchanged.
fn dump_header(technology: &Technology) -> String {
    format!(
        "# SuperFlow technology description — dumped from `{}`.\n\
         # Edit any value and pass the file back with `superflow --tech <file>`;\n\
         # loading re-validates every field.\n",
        technology.name
    )
}

/// A multi-line human-readable summary of a technology.
fn tech_summary(technology: &Technology) -> String {
    let rules = technology.rules();
    let layers = technology.layers();
    let cell_count = technology.iter().count();
    format!(
        "technology    : {}\n\
         description   : {}\n\
         fingerprint   : {}\n\
         rules         : {} (grid {} µm, spacing {} µm, W_max {} µm, {} routing layers)\n\
         clock         : {} GHz ({} ps phase budget)\n\
         timing        : gate {} ps, wire {} ps/µm, skew {} ps/µm, α = {}\n\
         layers        : outline {} / jj {} / pin {} / metal1 {} / metal2 {} / label {}\n\
         cells         : {} kinds, {} total JJs in the table",
        technology.name,
        technology.description,
        technology.fingerprint(),
        rules.name,
        rules.grid,
        rules.min_spacing,
        rules.max_wirelength,
        rules.routing_layers,
        technology.clock().frequency_ghz,
        technology.clock().phase_budget_ps(),
        technology.timing.gate_delay_ps,
        technology.timing.wire_delay_ps_per_um,
        technology.timing.clock_skew_ps_per_um,
        technology.timing.alpha,
        layers.outline,
        layers.jj,
        layers.pin,
        layers.metal1,
        layers.metal2,
        layers.label,
        cell_count,
        technology.iter().map(|c| c.jj_count).sum::<usize>(),
    )
}

/// Runs a `tech` action, returning the text to print.
fn run_tech(command: &TechCommand) -> Result<String, String> {
    match command {
        TechCommand::List { quiet } => {
            let mut out = String::new();
            for technology in TechnologyRegistry::global().iter() {
                if *quiet {
                    out.push_str(&technology.name);
                    out.push('\n');
                } else {
                    out.push_str(&format!("{:<16} {}\n", technology.name, technology.description));
                }
            }
            Ok(out.trim_end().to_owned())
        }
        TechCommand::Show(target) => {
            // The same dispatch `--tech` uses, so the two never diverge.
            let technology = tech_spec(target).resolve().map_err(|e| e.to_string())?;
            // Files were validated by the loader; re-validate registry
            // entries too so `tech show` is always a full check.
            technology.validate().map_err(|e| format!("technology `{target}` invalid: {e}"))?;
            Ok(tech_summary(&technology))
        }
        TechCommand::Dump { name, output } => {
            let technology = TechnologyRegistry::global().get(name).ok_or_else(|| {
                format!(
                    "no built-in technology named `{name}` (available: {})",
                    TechnologyRegistry::global().names().collect::<Vec<_>>().join(", ")
                )
            })?;
            let body = technology.to_toml().map_err(|e| format!("cannot dump `{name}`: {e}"))?;
            let text = format!("{}{body}", dump_header(&technology));
            match output {
                Some(path) => {
                    write_file(path, &text)?;
                    Ok(format!("technology `{name}` written to {path}"))
                }
                None => Ok(text.trim_end().to_owned()),
            }
        }
    }
}

#[cfg(test)]
mod parse_helpers {
    //! One test entry point per command, each parsing its command line
    //! through [`parse_cli`] exactly as `main` does.
    use super::*;

    fn parse(command: &[&str], list: &[&str]) -> Result<Command, String> {
        let args: Vec<String> = command.iter().chain(list).map(|s| s.to_string()).collect();
        parse_cli(&args)
    }

    macro_rules! entry_point {
        ($name:ident, [$($word:literal),*], $variant:ident, $options:ty) => {
            pub(super) fn $name(list: &[&str]) -> Result<$options, String> {
                match parse(&[$($word),*], list)? {
                    Command::$variant(options) => Ok(options),
                    other => panic!("parsed as {other:?}"),
                }
            }
        };
    }

    entry_point!(parse_flow, [], Run, FlowOptions);
    entry_point!(parse_batch, ["batch"], Batch, Box<BatchOptions>);
    entry_point!(parse_lint, ["lint"], Lint, ReportOptions);
    entry_point!(parse_predict, ["predict"], Predict, ReportOptions);
    entry_point!(parse_verify, ["verify"], Verify, ReportOptions);
    entry_point!(parse_generate, ["generate"], Generate, GenerateOptions);

    /// Parses and runs a `tech` action.
    pub(super) fn run_tech_command(list: &[&str]) -> Result<String, String> {
        match parse(&["tech"], list)? {
            Command::Tech(command) => run_tech(&command),
            other => panic!("parsed as {other:?}"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::parse_helpers::*;
    use super::*;
    use aqfp_cells::{AIST_STP2, MIT_LL_SQF5EE};

    #[test]
    fn parses_a_full_command_line() {
        let options = parse_flow(&[
            "--placer",
            "taas",
            "--tech",
            "aist-stp2",
            "--threads",
            "3",
            "--report",
            "out.json",
            "--output",
            "out.gds",
            "--svg",
            "out.svg",
            "--fast",
            "--quiet",
            "adder8",
        ])
        .expect("parses");
        assert_eq!(options.flow.placer, PlacerKind::Taas);
        assert_eq!(options.flow.tech.as_deref(), Some("aist-stp2"));
        assert_eq!(options.flow.threads, Some(3));
        assert_eq!(options.report.as_deref(), Some("out.json"));
        assert_eq!(options.output.as_deref(), Some("out.gds"));
        assert_eq!(options.svg.as_deref(), Some("out.svg"));
        assert!(options.flow.fast && options.quiet);
        assert_eq!(options.input, "adder8");
        // --stop-after composes with --report (the checkpoint sink).
        let stopped =
            parse_flow(&["--stop-after", "routing", "--report", "r.json", "a.v"]).expect("parses");
        assert_eq!(stopped.stop_after, Some(FlowStage::Routing));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_flow(&[]).is_err());
        assert!(parse_flow(&["--placer"]).is_err());
        assert!(parse_flow(&["--placer", "magic", "adder8"]).is_err());
        assert!(parse_flow(&["--threads", "many", "adder8"]).is_err());
        assert!(parse_flow(&["--stop-after", "teardown", "adder8"]).is_err());
        assert!(parse_flow(&["--frobnicate", "adder8"]).is_err());
        assert!(parse_flow(&["a.v", "b.v"]).is_err());
        // --tech and --process both name the technology; passing both is a
        // contradiction.
        assert!(parse_flow(&["--tech", "x.toml", "--process", "stp2", "adder8"]).is_err());
        assert!(parse_flow(&["--process", "vaporware", "adder8"]).is_err());
        // --stop-after skips the layout outputs, so combining it with
        // --output/--svg is a contradiction, not a silent no-op.
        let error = parse_flow(&["--stop-after", "route", "--output", "o.gds", "adder8"])
            .expect_err("contradictory flags");
        assert!(error.contains("--stop-after"), "unhelpful message: {error}");
        assert!(parse_flow(&["--stop-after", "route", "--svg", "o.svg", "adder8"]).is_err());
    }

    #[test]
    fn config_builders_reflect_the_flags() {
        let options = parse_flow(&["--tech", "aist-stp2", "--threads", "2", "--fast", "adder8"])
            .expect("parses");
        let config = options.flow.config();
        assert_eq!(config.tech, TechSpec::builtin(AIST_STP2));
        assert_eq!(config.threads(), 2);
        // --fast lowers the placement effort.
        assert!(
            config.placement.global.iterations
                < FlowConfig::paper_default().placement.global.iterations
        );
        // The legacy --process alias reaches the same registry entries.
        let legacy = parse_flow(&["--process", "stp2", "adder8"]).expect("parses");
        assert_eq!(legacy.flow.config().tech, TechSpec::builtin(AIST_STP2));
        // A non-registry value with an extension is treated as a file path.
        let file = parse_flow(&["--tech", "custom.toml", "adder8"]).expect("parses");
        assert_eq!(file.flow.config().tech, TechSpec::file("custom.toml"));
        // The legacy --process names also work directly as --tech values...
        assert_eq!(tech_spec("mit-ll"), TechSpec::builtin(MIT_LL_SQF5EE));
        assert_eq!(tech_spec("stp2"), TechSpec::builtin(AIST_STP2));
        // ...and a bare unknown name resolves as Builtin, so its error
        // lists the registry instead of complaining about a missing file.
        let err = tech_spec("mit-ll-sqfee").resolve().expect_err("unknown name");
        assert!(err.to_string().contains(MIT_LL_SQF5EE), "{err}");
    }

    #[test]
    fn benchmark_names_resolve_without_touching_the_filesystem() {
        let options = parse_flow(&["--fast", "--quiet", "adder8"]).expect("parses");
        match run(&options).expect("flow runs") {
            Outcome::Complete(report) => assert_eq!(report.design_name, "adder8"),
            Outcome::Stopped(_) => panic!("no --stop-after given"),
        }
    }

    #[test]
    fn stop_after_produces_a_resumable_checkpoint() {
        let options = parse_flow(&[
            "--fast",
            "--quiet",
            "--stop-after",
            "place",
            "--report",
            "unused.json",
            "adder8",
        ])
        .expect("parses");
        match run(&options).expect("flow runs") {
            Outcome::Stopped(artifact) => {
                assert_eq!(artifact.stage(), FlowStage::Placement);
                let json = artifact.to_json().expect("the checkpoint serializes");
                let placed = superflow::Placed::from_json(&json).expect("checkpoint parses");
                assert_eq!(placed.synthesized.design_name, "adder8");
            }
            Outcome::Complete(_) => panic!("--stop-after placement must stop early"),
        }
    }

    #[test]
    fn unknown_extensions_get_a_clear_error() {
        let error = load_netlist("design.vhdl").expect_err("vhdl is unsupported");
        assert!(error.contains("extension"), "unhelpful message: {error}");
        assert!(error.contains(".blif"), "should name the supported formats: {error}");
        // Benchmark names keep working without a file.
        assert!(load_netlist("adder8").is_ok());
        // A supported extension on a missing file reports the I/O problem,
        // not a parse failure.
        let missing = load_netlist("no_such_file.v").expect_err("missing file");
        assert!(missing.contains("io error"), "unhelpful message: {missing}");
        assert!(missing.contains("no_such_file.v"), "names the path: {missing}");
    }

    #[test]
    fn batch_args_parse_into_a_batch_config() {
        let options = parse_batch(&[
            "--workers",
            "2",
            "--stage-timeout",
            "30",
            "--no-retry",
            "--journal",
            "runs/j",
            "--output-dir",
            "runs/gds",
            "--report",
            "batch.json",
            "--fault",
            "panic:adder8:placement",
            "--fast",
            "adder8",
            "c432",
        ])
        .expect("parses");
        assert_eq!(options.inputs, vec!["adder8".to_owned(), "c432".to_owned()]);
        let config = options.config;
        assert_eq!(config.workers, 2);
        assert_eq!(config.stage_timeout, Some(std::time::Duration::from_secs(30)));
        assert!(!config.retry_degraded);
        assert_eq!(config.journal_dir.as_deref(), Some(std::path::Path::new("runs/j")));
        assert_eq!(config.output_dir.as_deref(), Some(std::path::Path::new("runs/gds")));
        assert!(config.faults.matches("adder8", FlowStage::Placement, superflow::FaultKind::Panic));
        // --fast flows through to the per-design flow configuration.
        assert!(
            config.flow.placement.global.iterations
                < FlowConfig::paper_default().placement.global.iterations
        );
    }

    #[test]
    fn batch_args_reject_bad_input() {
        assert!(parse_batch(&[]).is_err());
        assert!(parse_batch(&["--workers", "two", "adder8"]).is_err());
        assert!(parse_batch(&["--stage-timeout", "-5", "adder8"]).is_err());
        assert!(parse_batch(&["--fault", "panic:adder8", "adder8"]).is_err());
        assert!(parse_batch(&["--frobnicate", "adder8"]).is_err());
        // Two inputs reducing to one design name would share a journal.
        let error = parse_batch(&["adder8", "designs/adder8.v"]).expect_err("colliding names");
        assert!(error.contains("adder8"), "{error}");
    }

    #[test]
    fn tech_list_names_every_registry_entry() {
        let listing = run_tech_command(&["list"]).expect("lists");
        assert!(listing.contains(MIT_LL_SQF5EE) && listing.contains(AIST_STP2), "{listing}");
        let quiet = run_tech_command(&["list", "--quiet"]).expect("lists");
        assert_eq!(quiet.lines().collect::<Vec<_>>(), vec![MIT_LL_SQF5EE, AIST_STP2]);
    }

    #[test]
    fn tech_show_summarizes_builtins_and_files() {
        let shown = run_tech_command(&["show", MIT_LL_SQF5EE]).expect("shows");
        assert!(shown.contains("MIT-LL SQF5ee"), "{shown}");
        assert!(shown.contains("fingerprint"), "{shown}");

        let dir = std::env::temp_dir().join("superflow_cli_tech_show");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("dumped.toml");
        let technology = Technology::aist_stp2();
        std::fs::write(
            &path,
            format!("{}{}", dump_header(&technology), technology.to_toml().unwrap()),
        )
        .expect("writes");
        let shown = run_tech_command(&["show", path.to_str().unwrap()]).expect("shows file");
        assert!(shown.contains("AIST STP2"), "{shown}");

        assert!(run_tech_command(&["show", "missing.toml"]).is_err());
        assert!(run_tech_command(&["bogus"]).is_err());
        assert!(run_tech_command(&[]).is_err());
    }

    #[test]
    fn tech_dump_round_trips_through_the_loader() {
        let dumped = run_tech_command(&["dump", MIT_LL_SQF5EE]).expect("dumps");
        let loaded = Technology::from_toml(&dumped).expect("dump parses (header is comments)");
        assert_eq!(loaded, Technology::mit_ll_sqf5ee());
        assert!(run_tech_command(&["dump", "no-such-tech"]).is_err());
    }

    /// The acceptance path: dump a built-in, edit one number, run the full
    /// flow on the edited file via `--tech`.
    #[test]
    fn edited_tech_dump_drives_the_full_flow() {
        let dir = std::env::temp_dir().join("superflow_cli_tech_flow");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tight.toml");
        let dumped = run_tech_command(&["dump", MIT_LL_SQF5EE]).expect("dumps");
        let edited = dumped
            .replace("max_wirelength = 400.0", "max_wirelength = 300.0")
            .replace("name = \"mit-ll-sqf5ee\"", "name = \"mit-ll-tight\"");
        assert_ne!(edited, dumped);
        std::fs::write(&path, &edited).expect("writes");

        let options =
            parse_flow(&["--fast", "--quiet", "--tech", path.to_str().unwrap(), "adder8"])
                .expect("parses");
        match run(&options).expect("flow runs on the edited technology") {
            Outcome::Complete(report) => {
                assert_eq!(report.design_name, "adder8");
                // The tighter W_max forces at least as many buffer lines as
                // the stock process.
                let stock = run(&parse_flow(&["--fast", "--quiet", "adder8"]).unwrap())
                    .expect("stock flow runs");
                let Outcome::Complete(stock) = stock else { panic!("no --stop-after") };
                assert!(
                    report.placement.buffer_lines >= stock.placement.buffer_lines,
                    "tighter W_max cannot need fewer buffer lines ({} < {})",
                    report.placement.buffer_lines,
                    stock.placement.buffer_lines
                );
            }
            Outcome::Stopped(_) => panic!("no --stop-after given"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod lint_cli_tests {
    use super::parse_helpers::*;
    use super::*;

    #[test]
    fn parses_a_full_lint_command_line() {
        let options = parse_lint(&[
            "--tech",
            "aist-stp2",
            "--format",
            "json",
            "--deny",
            "AQFP-W009",
            "--deny",
            "AQFP-W006",
            "--warn",
            "AQFP-E005",
            "--allow",
            "AQFP-W007",
            "--fanout-threshold",
            "8",
            "a.v",
            "b.blif",
        ])
        .expect("parses");
        assert_eq!(options.inputs, vec!["a.v".to_owned(), "b.blif".to_owned()]);
        assert_eq!(options.flow.tech.as_deref(), Some("aist-stp2"));
        assert!(options.json);
        assert_eq!(options.flow.lint.deny, vec!["AQFP-W009".to_owned(), "AQFP-W006".to_owned()]);
        assert_eq!(options.flow.lint.warn, vec!["AQFP-E005".to_owned()]);
        assert_eq!(options.flow.lint.allow, vec!["AQFP-W007".to_owned()]);
        assert_eq!(options.flow.lint.fanout_threshold, Some(8));
        assert!(!options.rules);
    }

    #[test]
    fn lint_defaults_are_text_format_and_empty_policy() {
        let options = parse_lint(&["adder8"]).expect("parses");
        assert!(!options.json);
        assert_eq!(options.flow.lint, LintConfig::default());
        assert!(options.flow.tech.is_none());
    }

    #[test]
    fn lint_usage_errors_are_rejected() {
        assert!(parse_lint(&[]).is_err(), "no input");
        assert!(parse_lint(&["--format", "xml", "a.v"]).is_err(), "bad format");
        assert!(parse_lint(&["--deny"]).is_err(), "missing rule id");
        assert!(
            parse_lint(&["--fanout-threshold", "lots", "a.v"]).is_err(),
            "non-numeric threshold"
        );
        assert!(parse_lint(&["--frobnicate", "a.v"]).is_err(), "unknown flag");
        assert!(
            parse_lint(&["--tech", "a", "--process", "stp2", "a.v"]).is_err(),
            "tech and process conflict"
        );
    }

    #[test]
    fn generate_args_parse_with_defaults_and_overrides() {
        let options = parse_generate(&["random_dag"]).expect("parses");
        assert_eq!(options.family, LargeFamily::RandomDag);
        assert_eq!(options.cells, 10_000);
        assert_eq!(options.seed, 0);
        assert!(options.output.is_none());

        let options =
            parse_generate(&["tiled-mul", "--cells", "50000", "--seed", "9", "-o", "big.v"])
                .expect("parses");
        assert_eq!(options.family, LargeFamily::TiledMultiplier);
        assert_eq!(options.cells, 50_000);
        assert_eq!(options.seed, 9);
        assert_eq!(options.output.as_deref(), Some("big.v"));
    }

    #[test]
    fn generate_usage_errors_are_rejected() {
        assert!(parse_generate(&[]).is_err(), "no family");
        assert!(parse_generate(&["no_such_family"]).is_err(), "unknown family");
        assert!(parse_generate(&["random_dag", "apc_array"]).is_err(), "two families");
        assert!(parse_generate(&["random_dag", "--cells", "lots"]).is_err());
        assert!(parse_generate(&["random_dag", "--seed"]).is_err(), "missing value");
        assert!(parse_generate(&["random_dag", "--frobnicate"]).is_err());
    }

    #[test]
    fn rules_flag_needs_no_input_and_catalog_renders_every_rule() {
        let options = parse_lint(&["--rules"]).expect("parses");
        assert!(options.rules);
        let catalog = render_catalog(&superflow::lint::catalog());
        for info in superflow::lint::catalog() {
            assert!(catalog.contains(info.id), "{} missing from:\n{catalog}", info.id);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod predict_cli_tests {
    use super::parse_helpers::*;
    use super::*;

    #[test]
    fn parses_a_full_predict_command_line() {
        let options = parse_predict(&[
            "--tech",
            "aist-stp2",
            "--format",
            "json",
            "--deny",
            "AQFP-P002",
            "--warn",
            "AQFP-P001",
            "--allow",
            "AQFP-P005",
            "a.v",
            "b.blif",
        ])
        .expect("parses");
        assert_eq!(options.inputs, vec!["a.v".to_owned(), "b.blif".to_owned()]);
        assert_eq!(options.flow.tech.as_deref(), Some("aist-stp2"));
        assert!(options.json);
        assert_eq!(options.flow.lint.deny, vec!["AQFP-P002".to_owned()]);
        assert_eq!(options.flow.lint.warn, vec!["AQFP-P001".to_owned()]);
        assert_eq!(options.flow.lint.allow, vec!["AQFP-P005".to_owned()]);
        assert!(!options.rules);
    }

    #[test]
    fn predict_usage_errors_are_rejected() {
        assert!(parse_predict(&[]).is_err(), "no input");
        assert!(parse_predict(&["--format", "xml", "a.v"]).is_err(), "bad format");
        assert!(parse_predict(&["--deny"]).is_err(), "missing rule id");
        assert!(parse_predict(&["--frobnicate", "a.v"]).is_err(), "unknown flag");
        assert!(
            parse_predict(&["--tech", "a", "--process", "stp2", "a.v"]).is_err(),
            "tech and process conflict"
        );
    }

    #[test]
    fn predict_rules_catalog_names_every_predict_rule() {
        let options = parse_predict(&["--rules"]).expect("parses");
        assert!(options.rules);
        let catalog = render_catalog(&superflow::predict::catalog());
        for info in superflow::predict::catalog() {
            assert!(catalog.contains(info.id), "{} missing from:\n{catalog}", info.id);
        }
    }

    /// The acceptance path: a committed benchmark predicts feasible, with
    /// numeric bounds, without running any stage engine.
    #[test]
    fn a_benchmark_predicts_feasible_with_bounds() {
        let flow = FlowConfig::paper_default();
        let technology = flow.resolve_technology().expect("resolves");
        let report = predict_one("adder8", &technology, &flow).expect("predicts");
        assert_eq!(report.design, "adder8");
        assert!(!report.has_errors(), "{}", report.render());
        let bounds = report.bounds.as_ref().expect("a clean benchmark has bounds");
        assert!(bounds.structure.cells.min >= 1);
        assert!(bounds.cost.total_s() > 0.0);
    }

    /// `--fanout-threshold` reaches the lint gate through `FlowConfig` on
    /// both the main command and the batch driver (the lint subcommand
    /// already wires it through `LintConfig`).
    #[test]
    fn fanout_threshold_flows_into_the_flow_and_batch_configs() {
        let options = parse_flow(&["--fanout-threshold", "5", "--fast", "adder8"]).expect("parses");
        assert_eq!(options.flow.config().lint.fanout_threshold, Some(5));
        let plain = parse_flow(&["adder8"]).expect("parses");
        assert_eq!(plain.flow.config().lint.fanout_threshold, None);

        let batch = parse_batch(&["--fanout-threshold", "7", "adder8"]).expect("parses");
        assert_eq!(batch.config.flow.lint.fanout_threshold, Some(7));
        assert!(parse_flow(&["--fanout-threshold", "lots", "adder8"]).is_err());
        assert!(parse_batch(&["--fanout-threshold", "lots", "adder8"]).is_err());
    }

    /// `--no-predict` turns the batch prediction pass off; it is on by
    /// default.
    #[test]
    fn no_predict_disables_the_batch_prediction_pass() {
        let default = parse_batch(&["adder8"]).expect("parses");
        assert!(default.config.predict);
        let off = parse_batch(&["--no-predict", "adder8"]).expect("parses");
        assert!(!off.config.predict);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod verify_cli_tests {
    use super::parse_helpers::*;
    use super::*;

    #[test]
    fn parses_a_full_verify_command_line() {
        let options = parse_verify(&[
            "--tech",
            "aist-stp2",
            "--fast",
            "--threads",
            "2",
            "--against",
            "gen:random_dag:1000:7",
            "--format",
            "json",
            "--inject-defect",
            "phase",
            "a.gds",
            "b.json",
        ])
        .expect("parses");
        assert_eq!(options.inputs, vec!["a.gds".to_owned(), "b.json".to_owned()]);
        assert_eq!(options.flow.tech.as_deref(), Some("aist-stp2"));
        assert_eq!(options.flow.threads, Some(2));
        assert!(options.flow.fast && options.json);
        assert_eq!(options.against.as_deref(), Some("gen:random_dag:1000:7"));
        assert_eq!(options.inject, Some(Defect::Phase));
        assert!(!options.rules);
        // The re-derivation config reflects the flags.
        let config = options.flow.config();
        assert_eq!(config.tech, TechSpec::builtin(aqfp_cells::AIST_STP2));
        assert_eq!(config.threads(), 2);
        // The subcommand drives the verifiers itself; the per-stage gates
        // stay off so the re-derivation cannot double-report.
        assert!(!config.verify.enabled);
    }

    #[test]
    fn verify_usage_errors_are_rejected() {
        assert!(parse_verify(&[]).is_err(), "no input");
        assert!(parse_verify(&["--format", "xml", "a.gds"]).is_err(), "bad format");
        assert!(parse_verify(&["--inject-defect", "bitflip", "a.gds"]).is_err(), "unknown defect");
        assert!(parse_verify(&["--against", "a", "--against", "b", "x.gds"]).is_err());
        assert!(parse_verify(&["--frobnicate", "a.gds"]).is_err(), "unknown flag");
        assert!(
            parse_verify(&["--tech", "a", "--process", "stp2", "a.gds"]).is_err(),
            "tech and process conflict"
        );
        // Inputs that are neither GDS nor checkpoints are rejected at
        // dispatch, with the supported kinds named.
        let options = parse_verify(&["design.v"]).expect("parses");
        let error =
            verify_one("design.v", &options, &options.flow.config()).expect_err("not an artifact");
        assert!(error.contains(".gds") && error.contains(".json"), "{error}");
    }

    #[test]
    fn verify_rules_catalog_names_every_verify_rule() {
        let options = parse_verify(&["--rules"]).expect("parses");
        assert!(options.rules);
        let catalog = render_catalog(&superflow::verify::catalog());
        for info in superflow::verify::catalog() {
            assert!(catalog.contains(info.id), "{} missing from:\n{catalog}", info.id);
        }
    }

    #[test]
    fn verify_flag_gates_the_flow_and_batch_configs() {
        let options = parse_flow(&["--verify", "--fast", "adder8"]).expect("parses");
        assert!(options.flow.config().verify.enabled);
        let plain = parse_flow(&["adder8"]).expect("parses");
        assert!(!plain.flow.config().verify.enabled);
        let batch = parse_batch(&["--verify", "adder8"]).expect("parses");
        assert!(batch.config.flow.verify.enabled);
    }

    /// The acceptance path: write a GDS with the flow, verify it clean,
    /// then prove an injected defect is caught with its catalogued rule.
    #[test]
    fn a_fresh_gds_verifies_clean_and_an_injected_defect_is_caught() {
        let dir = std::env::temp_dir().join("superflow_cli_verify_gds");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("adder8.gds");
        let report = FlowSession::new(FlowConfig::fast())
            .and_then(|mut session| session.run(&load_netlist("adder8").unwrap()))
            .expect("flow runs");
        std::fs::write(&path, report.layout.to_gds_bytes()).expect("writes");
        let path = path.to_str().expect("utf-8 path");

        let options = parse_verify(&["--fast", path]).expect("parses");
        let config = options.flow.config();
        let clean = verify_one(path, &options, &config).expect("verifies");
        assert!(clean.ran("lec") && clean.ran("phase") && clean.ran("lvs"), "{:?}", clean.checks);
        assert!(!clean.has_errors(), "{}", clean.render());

        for defect in [Defect::Wire, Defect::Cell, Defect::Phase] {
            let injected =
                parse_verify(&["--fast", "--inject-defect", defect.name(), path]).expect("parses");
            let report = verify_one(path, &injected, &config).expect("verifies");
            assert!(
                report.mentions(defect.expected_rule()),
                "{} defect must trip {}:\n{}",
                defect.name(),
                defect.expected_rule(),
                report.render()
            );
            assert!(report.has_errors());
        }
    }

    /// Stage checkpoints verify with the checks applicable to their stage.
    #[test]
    fn a_placement_checkpoint_verifies_with_phase_and_lec() {
        let dir = std::env::temp_dir().join("superflow_cli_verify_ckpt");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("adder8_placed.json");
        let options = parse_flow(&[
            "--fast",
            "--quiet",
            "--stop-after",
            "place",
            "--report",
            "unused.json",
            "adder8",
        ])
        .expect("parses");
        let Outcome::Stopped(artifact) = run(&options).expect("flow runs") else {
            panic!("--stop-after placement must yield a checkpoint")
        };
        std::fs::write(&path, artifact.to_json().expect("serializes")).expect("writes");
        let path = path.to_str().expect("utf-8 path");

        let options = parse_verify(&["--fast", "--against", "adder8", path]).expect("parses");
        let config = options.flow.config();
        let report = verify_one(path, &options, &config).expect("verifies");
        assert!(report.ran("phase") && report.ran("lec"), "{:?}", report.checks);
        assert!(!report.ran("lvs"), "no layout exists before the check stage");
        assert!(!report.has_errors(), "{}", report.render());
    }
}
