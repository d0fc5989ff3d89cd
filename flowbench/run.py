#!/usr/bin/env python3
"""The flow benchmark: end-to-end and per-layer numbers of the SuperFlow flow.

Run from the root of a checkout:

    python3 flowbench/run.py --workload dag_flow --seed 1 --seconds 30 --trace 0

It builds the child-process harness in `flowbench/harness` (release, into
`$CARGO_TARGET_DIR`, default `.bench_build`), generates the workload's
inputs from the seed, runs each timed unit of work in a fresh child process,
one at a time, checks the outputs, prints one row per metric (median,
quartiles, tail and sample count) and, as the last line of standard output,
one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones from one traced run. `--workload all` runs every workload in
turn and ends with one line mapping each to its result. `--smoke` shrinks
every workload to a few hundred cells or two designs.

Workloads:

- `dag_flow`: `random_dag` designs of 6000 cells, a new one per flow drawn
  from the run's seed, written out as Verilog, through `FlowConfig::fast()`
  on 2 threads. Irregular; the only workload where synthesis matters. A run
  medians over at least three designs because one design's QoR moves by a
  tenth or more from seed to seed.
- `suite_journal`: the paper's nine circuits through `BatchRunner` with 2
  workers, `FlowConfig::paper_default()`, the verify gates on and a fresh
  journal, then a second run that resumes from that journal. A run medians
  over at least two such rounds.

A run fails its correctness check (`correct` false, exit code 1) when a
child errors or times out, a GDS stream is not GDSII, a design is not
`succeeded`, a resumed GDS differs from the cold one, the suite's `adder8`
differs from the committed `adder8.gds`, a traced design comes out
verify-dirty, or a replayed pass chain does not reproduce its stage.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS = HERE / "harness"

SUITE = ["adder8", "apc32", "apc128", "decoder", "sorter32", "c432", "c499", "c1355", "c1908"]
WORKLOADS = {
    "dag_flow": {"family": "random_dag", "cells": 6000, "smoke_cells": 300},
    "suite_journal": {"designs": SUITE, "smoke_designs": ["adder8", "c432"]},
}
# Stage threads of a single-design flow and batch workers: 2, or fewer on a
# smaller host, so no run uses more threads than there are cores.
THREADS = WORKERS = min(2, os.cpu_count() or 1)
SETUP_SAMPLES = 5
# A dag_flow run flows at least this many designs: one random DAG's QoR moves
# by a tenth or more from seed to seed, so a run medians over several.
MIN_DESIGNS = 3
# A suite_journal run makes at least this many cold + resume rounds: one
# round is a single sample of a two-worker batch, which a burst of load on
# the host moves by a fifth.
MIN_ROUNDS = 2
# Every run must end within 180 s; children share what is left of this.
RUN_BUDGET_S = 170.0

# End-to-end metrics, emitted by every workload (`--trace 0`). On
# suite_journal `flow_s` is the cold batch plus its resume.
END_TO_END = [
    ("flow_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("routed_wl_mm", "mm"),
    ("jj_count", "count"),
    ("drc_residual", "count"),
    ("gds_mb", "MiB"),
]
# End-to-end numbers printed as rows but kept out of the result line: the
# suite-only ones are zero on the single-design workloads, fail_frac is zero
# whenever the run is correct (it is `failed / attempted`), and on dag_flow
# the worst slack of a random DAG swings by half between designs and, through
# the nondeterministic MappingTable, between processes on one design.
REPORTED = [
    ("neg_slack_ps", "ps"),
    ("batch_s", "s"),
    ("resume_s", "s"),
    ("journal_mb", "MiB"),
    ("fail_frac", "ratio"),
]
# What one flow child reports that a run samples.
FLOW_METRICS = [name for name, _ in END_TO_END] + ["neg_slack_ps"]

STAGES = ["synthesis", "placement", "routing", "check"]
DRC_KINDS = ["cell_spacing", "zigzag_spacing", "max_wirelength", "metal_density", "unrouted"]
PER_LAYER = (
    [(f"session.{call}_s", "s") for call in ["synthesize", "place", "route", "check"]]
    + [("netlist.parse_s", "s"), ("lint.lint_s", "s"), ("predict.predict_s", "s")]
    + [("synth.mapping_table_s", "s"), ("synth.maj_s", "s"), ("synth.cones_examined", "count")]
    + [("synth.cones_converted", "count"), ("synth.converted_frac", "ratio")]
    + [("synth.split_s", "s"), ("synth.splitters_inserted", "count"), ("synth.balance_s", "s")]
    + [("synth.buffers_inserted", "count"), ("synth.gates_out", "count")]
    + [("place.build_s", "s"), ("place.global_s", "s"), ("place.legalize_s", "s")]
    + [("place.detailed_s", "s"), ("place.detailed_moves", "count")]
    + [("place.buffer_rows_s", "s"), ("place.buffer_cells", "count"), ("place.cells", "count")]
    + [("place.hpwl_mm", "mm"), ("timing.sta_s", "s")]
    + [("route.route_s", "s"), ("route.nets_routed", "count"), ("route.failed_nets", "count")]
    + [("route.space_expansions", "count"), ("route.vias", "count")]
    + [("layout.generate_s", "s"), ("layout.drc_s", "s")]
    + [("place.repair_buffer_rows_s", "s"), ("place.repair_buffer_cells", "count")]
    + [("route.partial_s", "s"), ("route.partial_dirty_frac", "ratio")]
    + [("check.iterations", "count")]
    + [(f"check.iter{k}_s", "s") for k in range(4)]
    + [(f"check.violations.{kind}.{when}", "count") for kind in DRC_KINDS for when in ["first", "final"]]
    + [(f"check.dirty_frac.iter{k}", "ratio") for k in range(1, 4)]
    + [("layout.gds_s", "s"), ("layout.gds_mb", "MiB")]
    + [("verify.lec_s", "s"), ("verify.phase_s", "s"), ("verify.lvs_s", "s")]
    + [("verify.diagnostics", "count")]
    + [(f"ckpt.{stage}.{way}_json_s", "s") for stage in STAGES for way in ["to", "from"]]
    + [(f"ckpt.{stage}_mb", "MiB") for stage in STAGES]
    + [(f"rss.after_{stage}_mb", "MiB") for stage in STAGES]
    + [("batch.checkpoint_hits", "count")]
    + [(f"batch.pred_over_meas.{stage}", "ratio") for stage in STAGES]
    + [("predict.cost_ratio", "ratio"), ("predict.rss_ratio", "ratio")]
    + [("trace.overhead_frac", "ratio")]
    + [("batch_s", "s"), ("resume_s", "s"), ("journal_mb", "MiB"), ("neg_slack_ps", "ps")]
)
# Metrics of the journal, which the single-design workloads do not keep.
JOURNAL_ONLY = [name for name, _ in PER_LAYER if name.startswith("ckpt.")] + [
    "batch.checkpoint_hits",
    "batch_s",
    "resume_s",
    "journal_mb",
]


CALLS = {"synthesis": "synthesize", "placement": "place", "routing": "route", "check": "check"}
# Ratio metrics, derived from the raw sums the harness children report:
# (name, numerator, denominator).
RATIOS = (
    [("synth.converted_frac", "synth.cones_converted", "synth.cones_examined")]
    + [("route.partial_dirty_frac", "route.partial_dirty", "route.partial_channels")]
    + [("predict.rss_ratio", "predict.measured_rss_mb", "predict.forecast_rss_mb")]
    + [(f"check.dirty_frac.iter{k}", f"check.dirty_channels.iter{k}", "check.channels") for k in range(1, 4)]
    + [(f"batch.pred_over_meas.{s}", f"predict.forecast.{s}_s", f"session.{c}_s") for s, c in CALLS.items()]
)


def ratio(metrics, numerator, denominator):
    return metrics[numerator] / metrics[denominator] if metrics[denominator] else 0.0


def derive(metrics):
    """Adds the ratio metrics to a traced run's raw sums."""
    for name, numerator, denominator in RATIOS:
        metrics[name] = ratio(metrics, numerator, denominator)
    measured = sum(metrics[f"session.{call}_s"] for call in CALLS.values())
    forecast = sum(metrics[f"predict.forecast.{stage}_s"] for stage in CALLS)
    metrics["predict.cost_ratio"] = measured / forecast if forecast else 0.0
    return metrics


def merge(results):
    """Sums per-design metrics. RSS probes, slack and the once-per-process
    mapping table take the largest."""
    merged = {}
    for metrics in results:
        for name, value in metrics.items():
            if name.startswith("rss.") or name in ("neg_slack_ps", "synth.mapping_table_s"):
                merged[name] = max(merged.get(name, value), value)
            else:
                merged[name] = merged.get(name, 0.0) + value
    return merged


class ChildError(Exception):
    """A harness child that failed, timed out or printed no result."""


class Run:
    """The state of one benchmark invocation."""

    def __init__(self, args, exe, workdir):
        self.args = args
        self.exe = exe
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.samples = {}
        self.attempted = 0
        self.failures = []
        self.hashes = {}
        self.layers = {}

    def child(self, *argv):
        """Runs one harness child to completion; returns its JSON result."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildError("the run's time budget is spent")
        command = [str(self.exe)] + [str(a) for a in argv]
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildError(f"timed out: {' '.join(command[1:3])}") from None
        if done.returncode != 0:
            raise ChildError(f"`{' '.join(command[1:3])}` exited {done.returncode}: {done.stderr.strip()}")
        try:
            return json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise ChildError(f"`{' '.join(command[1:3])}` printed no result") from None

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def check(self, what, problems):
        """Records one attempt's correctness problems as one failure."""
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    def gds(self, path, design, problems, golden=None):
        """Hashes one emitted GDS stream of `design` after checking it is
        GDSII (and, given `golden` bytes, that it equals them byte for byte);
        returns (digest, bytes)."""
        data = path.read_bytes()
        path.unlink()
        if not data.startswith(b"\x00\x06\x00\x02"):
            problems.append("the GDS stream has no GDSII header")
        if golden is not None and data != golden:
            problems.append("GDS differs from the committed golden")
        digest = hashlib.sha256(data).hexdigest()
        self.hashes.setdefault(design, set()).add(digest)
        return digest, len(data)

    def setup_samples(self, kind):
        for _ in range(SETUP_SAMPLES):
            self.sample("setup_s", self.child("setup", kind, THREADS)["metrics"]["setup_s"])


def large_design(run, spec, index):
    """Writes the run's `index`-th design as Verilog: design `index` of run
    seed `s` has generator seed `1000 * s + index`."""
    cells = spec["smoke_cells"] if run.args.smoke else spec["cells"]
    seed = 1000 * run.args.seed + index
    design = run.workdir / f"{spec['family']}-{cells}-{seed}.v"
    if not design.exists():
        run.child("gen", spec["family"], cells, seed, design)
    return design


def flow_once(run, design, subcommand="flow"):
    """One flow in a fresh child; returns its metrics."""
    run.attempted += 1
    gds = run.workdir / "flow.gds"
    result = run.child(subcommand, design, gds, THREADS)
    problems = list(result["errors"])
    run.gds(gds, design.stem, problems)
    run.check(f"{subcommand} {design.stem}", problems)
    return result["metrics"]


def run_large(run, spec):
    if run.args.trace:
        # The same design untraced, then traced: the overhead reference, and
        # a second process whose GDS shows whether the output repeats (timed
        # runs flow each design once).
        design = large_design(run, spec, 0)
        untraced = flow_once(run, design)
        layers = derive(flow_once(run, design, "trace-flow"))
        layers["trace.overhead_frac"] = layers["trace.flow_s"] / untraced["flow_s"] - 1.0
        for name in JOURNAL_ONLY:
            layers[name] = 0.0
        run.layers = layers
        return
    # Set-up first: it also warms the harness binary before the timed flows.
    run.setup_samples("large")
    start = time.monotonic()
    index = 0
    while True:
        metrics = flow_once(run, large_design(run, spec, index))
        for name in FLOW_METRICS:
            run.sample(name, metrics[name])
        index += 1
        if index >= MIN_DESIGNS and time.monotonic() - start >= run.args.seconds:
            break


def journal_size(path):
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / float(1 << 20)


def suite_round(run, designs, golden):
    """One cold batch and its resume, each in a fresh child, with every
    design checked; returns the two children's results."""
    journal = run.workdir / "journal"
    shutil.rmtree(journal, ignore_errors=True)
    results = {}
    digests = {}
    for phase in ["cold", "resume"]:
        out_dir = run.workdir / phase
        shutil.rmtree(out_dir, ignore_errors=True)
        result = run.child("batch", journal, out_dir, WORKERS, *designs)
        results[phase] = result
        run.attempted += len(designs)
        problems = {name: [] for name in designs}
        for error in result["errors"]:
            problems.setdefault(error.split(":", 1)[0], []).append(error)
        gds_bytes = 0
        for name in designs:
            status = result["statuses"].get(name, "missing")
            if status != "succeeded":
                problems[name].append(status)
            if phase == "resume" and result["metrics"].get(f"hits.{name}") != 4:
                problems[name].append("did not resume all four stages from the journal")
            path = out_dir / f"{name}.gds"
            if not path.exists():
                problems[name].append("wrote no GDS")
                continue
            expected = golden if phase == "cold" and name == "adder8" else None
            digest, size = run.gds(path, name, problems[name], expected)
            digests[(phase, name)] = digest
            gds_bytes += size
            if phase == "resume" and digest != digests.get(("cold", name)):
                problems[name].append("resumed GDS differs from the cold run")
        for name, found in problems.items():
            run.check(f"{phase} batch {name}", found)
        result["gds_mb"] = gds_bytes / float(1 << 20)
        if phase == "cold":
            result["journal_mb"] = journal_size(journal)
    return results["cold"], results["resume"]


def run_suite(run, spec):
    designs = spec["smoke_designs"] if run.args.smoke else spec["designs"]
    golden = (ROOT / "adder8.gds").read_bytes()
    if run.args.trace:
        cold, resume = suite_round(run, designs, golden)
        traced = []
        for name in designs:
            run.attempted += 1
            result = run.child("trace-suite", max(1, THREADS // WORKERS), name)
            run.check(f"traced {name}", result["errors"])
            traced.append(result["metrics"])
        layers = derive(merge(traced))
        checkpoints = run.child("ckpt", run.workdir / "journal", *designs)
        run.check("journal checkpoints", checkpoints["errors"])
        layers.update(checkpoints["metrics"])
        drift = derive({**layers, **cold["metrics"]})
        for stage in STAGES:
            key = f"batch.pred_over_meas.{stage}"
            layers[key] = drift[key]
        calls = [f"session.{call}_s" for call in CALLS.values()]
        untraced = sum(cold["metrics"][name] for name in calls)
        layers["trace.overhead_frac"] = sum(layers[name] for name in calls) / untraced - 1.0
        layers["batch.checkpoint_hits"] = resume["metrics"]["batch.checkpoint_hits"]
        layers["batch_s"] = cold["metrics"]["wall_s"]
        layers["resume_s"] = resume["metrics"]["wall_s"]
        layers["journal_mb"] = cold["journal_mb"]
        run.layers = layers
        return
    run.setup_samples("suite")
    measured = 0.0
    rounds = 0
    qor = None
    while True:
        start = time.monotonic()
        cold, resume = suite_round(run, designs, golden)
        measured += time.monotonic() - start
        rounds += 1
        if qor is None:
            qor = run.child("suite-qor", run.workdir / "journal", *designs)["metrics"]
        run.sample("flow_s", cold["metrics"]["wall_s"] + resume["metrics"]["wall_s"])
        run.sample("batch_s", cold["metrics"]["wall_s"])
        run.sample("resume_s", resume["metrics"]["wall_s"])
        run.sample("journal_mb", cold["journal_mb"])
        run.sample("gds_mb", cold["gds_mb"])
        run.sample("peak_rss_mb", max(cold["metrics"]["peak_rss_mb"], resume["metrics"]["peak_rss_mb"]))
        for phase in [cold, resume]:
            run.sample("setup_s", phase["metrics"]["setup_s"])
        for name in ["routed_wl_mm", "neg_slack_ps", "jj_count", "drc_residual"]:
            run.sample(name, qor[name])
        if rounds >= MIN_ROUNDS and measured >= run.args.seconds:
            break


def tail(values):
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for one."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    q = int(100 * (1 - 10 / n))
    ordered = sorted(values)
    return f"p{q}", ordered[min(n - 1, int(q / 100 * n))]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def commit():
    """The checkout's commit when it is a git work tree, else `unknown`."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def report(run):
    """Prints the per-metric rows; returns the result line's metrics."""
    args = run.args
    print(
        f"# workload {args.workload} seed {args.seed} trace {args.trace}"
        f"{' smoke' if args.smoke else ''}: nproc {os.cpu_count()}, threads {THREADS}, "
        f"workers {WORKERS}, commit {commit()}"
    )
    for name, digests in sorted(run.hashes.items()):
        print(f"# GDS sha256 of {name}: {len(digests)} distinct: {' '.join(sorted(digests))}")
    if args.trace:
        layers = run.layers
        if "trace.flow_s" in layers:
            print(
                f"# accounting: parse + session.* + GDS = {layers['trace.flow_s']:.4f} s traced; "
                f"overhead against the untraced flow {layers['trace.overhead_frac']:+.4f}"
            )
        metrics = {}
        for name, unit in PER_LAYER:
            if name not in run.layers:
                continue
            value = float(run.layers[name])
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:40s} {value:16.6f} {unit}")
        return metrics
    print(f"{'metric':16s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'tail':>20s}  n")
    fail_frac = len(run.failures) / max(1, run.attempted)
    run.samples.setdefault("fail_frac", [fail_frac])
    metrics = {}
    for name, unit in END_TO_END + REPORTED:
        values = run.samples.get(name)
        if not values:
            print(f"{name:16s} {unit:6s} {'-':>14s}  (not measured on this workload)")
            continue
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        label, high = tail(values)
        print(
            f"{name:16s} {unit:6s} {median:14.6f} {q1:14.6f} {q3:14.6f} "
            f"{label:>5s} {high:14.6f}  {len(values)}"
        )
        if (name, unit) in END_TO_END:
            metrics[name] = {"value": median, "unit": unit}
    return metrics


def build():
    """Builds the harness; returns the executable, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    manifest = HARNESS / "Cargo.toml"
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return target.resolve() / "release" / "flowbench"


def run_workload(args, exe):
    """Runs one workload; prints its rows and returns its result line."""
    workdir = Path(".bench_runs") / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(args, exe, workdir.resolve())
    try:
        spec = WORKLOADS[args.workload]
        if "designs" in spec:
            run_suite(run, spec)
        else:
            run_large(run, spec)
    except ChildError as error:
        run.attempted += 1
        run.failures.append(str(error))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics = report(run)
    for failure in run.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    correct = not run.failures
    return {"correct": correct, "attempted": run.attempted, "failed": len(run.failures), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny designs, for the smoke test")
    args = parser.parse_args()

    exe = build()
    if exe is None:
        print("flowbench: the harness does not build", file=sys.stderr)
        return 1
    if args.workload != "all":
        result = run_workload(args, exe)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    # Every workload in turn; the last line maps each to its result.
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(argparse.Namespace(**dict(vars(args), workload=name)), exe)
    print(json.dumps(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
