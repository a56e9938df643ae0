"""Run one workload through the real CLI, check its output, and report metrics.

Load comes from this one process running the CLI commands one after another,
with no threads.  Each iteration repeats the same inputs; the first writes
into an empty directory and is checked in full, and every later one rewrites
those files, which must come out byte-identical.  With tracing on, each
iteration also runs the CLI's ``main`` in process, once untraced and once
traced, and that output must match the CLI's byte for byte as well.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from scatternet.cli import EXIT_VALIDATION

from hostspeed import at_reference_speed, gauge
from checks import check_run, combined_digest, file_digests, run_of, sha256_file
from inprocess import run_main, traced_library
from spans import NullTracer, Tracer, library_time, nested_time, self_times_by_layer, totals_by_name
from workloads import WORKLOADS, deploy_argv, make_plan, prepare_plan, validate_argv

OUT_DIR = "perfbench-out"
SETUP_STARTS = 5
GAUGE_FILE = "gauge.csv"
WATCHDOG_S = 170
LAYERS = ("fileio", "planned", "stats", "automatic", "rng")
SAME_CODE_KEYS = ("src_sha256", "python", "numpy", "scipy")


class Watchdog(Exception):
    pass


def _on_alarm(signum, frame):
    raise Watchdog(f"workload exceeded {WATCHDOG_S} s")


@dataclass
class Child:
    seconds: float
    code: int
    peak_rss_mb: float


class Runner:
    """Starts the program's processes one at a time and waits for each."""

    def __init__(self, root: Path, logs: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.logs = logs

    def run(self, argv, cwd: Path, log_name: str) -> Child:
        """Wall time, exit code and peak RSS of one child.

        ``wait4`` returns the child's own resource usage, the figure that
        ``getrusage(RUSAGE_CHILDREN)`` accumulates, so each command's peak is
        read alone and cannot carry into the next.
        """
        with open(self.logs / log_name, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, EXIT_VALIDATION):
            print(f"{' '.join(argv[:4])}: exit {proc.returncode}\n{self.log_tail(log_name)}", file=sys.stderr)
        return Child(seconds, proc.returncode, usage.ru_maxrss / 1024)

    def scatternet(self, argv, cwd: Path, log_name: str) -> Child:
        return self.run([sys.executable, "-m", "scatternet", *argv], cwd, log_name)

    def log_tail(self, log_name: str, lines: int = 5) -> str:
        return "\n".join((self.logs / log_name).read_text(errors="replace").splitlines()[-lines:])


def measure_setup(runner: Runner, cwd: Path) -> tuple:
    """Median time to start the interpreter and import ``scatternet.cli``,
    at the reference speed and as measured."""
    argv = [sys.executable, "-c", "import scatternet.cli"]
    runner.run(argv, cwd, "setup.log")  # compiles bytecode on a fresh checkout
    before = gauge(cwd / GAUGE_FILE)
    times = []
    for _ in range(SETUP_STARTS):
        child = runner.run(argv, cwd, "setup.log")
        if child.code != 0:
            raise RuntimeError("importing scatternet.cli failed")
        times.append(child.seconds)
    measured = statistics.median(times)
    return at_reference_speed(measured, before, gauge(cwd / GAUGE_FILE)), measured


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return int(out) if out.isdigit() else None


def environment(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": combined_digest(
            {str(p.relative_to(root)): sha256_file(p) for p in (root / "src").rglob("*.py")}
        ),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "page_cache": "warm: files are read back right after they are written; caches are not dropped",
    }


class Outcome:
    """Attempted, failed and falsely alarmed runs, and the reference digests."""

    def __init__(self, wl, seed: int, plan, plan_objs):
        self.wl, self.seed, self.plan, self.plan_objs = wl, seed, plan, plan_objs
        self.attempted = 0
        self.failed = 0
        self.cli_runs = 0
        self.false_alarms = 0
        self.digests = None  # of the first checked output
        self.validate_code = None
        self.failed_first = set()
        self.alarm_runs = set()

    def _verify_first(self, out: Path, validate_code: int) -> None:
        failed = set()
        for run in range(self.wl.runs):
            problems, all_passed = check_run(self.wl, self.seed, run, out, self.plan, self.plan_objs)
            if problems:
                failed.add(run)
                if len(failed) <= 5:
                    print(f"run {run:03d}: {'; '.join(problems)}", file=sys.stderr)
            elif not all_passed:
                self.alarm_runs.add(run)
        expected = EXIT_VALIDATION if self.alarm_runs or failed else 0
        if validate_code != expected:
            print(f"validate exited {validate_code}, the reports call for {expected}", file=sys.stderr)
            failed = set(range(self.wl.runs))
            self.alarm_runs.clear()
        self.digests = file_digests(out)
        self.validate_code = validate_code
        self.failed_first = failed

    def _mismatched_runs(self, out: Path) -> set:
        digests = file_digests(out)
        names = set(digests) | set(self.digests)
        return {run_of(n) for n in names if digests.get(n) != self.digests.get(n)}

    def record_cli(self, out: Path, deploy_code: int, validate_code) -> float:
        """Count one CLI iteration; returns the seconds spent on the full check."""
        runs = self.wl.runs
        self.attempted += runs
        self.cli_runs += runs
        if deploy_code != 0 or validate_code not in (0, EXIT_VALIDATION):
            self.failed += runs
            return 0.0
        start = time.perf_counter()
        first = self.digests is None
        if first:
            self._verify_first(out, validate_code)
            bad = self.failed_first
        elif validate_code != self.validate_code:
            bad = set(range(runs))
        else:
            bad = self._mismatched_runs(out) | self.failed_first
        self.failed += len(bad)
        self.false_alarms += len(self.alarm_runs - bad)
        return time.perf_counter() - start if first else 0.0

    def record_in_process(self, out: Path, deploy_code: int, validate_code: int) -> None:
        self.attempted += self.wl.runs
        if self.digests is None:
            self.failed += self.wl.runs
            return
        if deploy_code != 0 or validate_code != self.validate_code:
            print(f"in-process exit codes {deploy_code}, {validate_code} differ from the CLI's", file=sys.stderr)
            self.failed += self.wl.runs
            return
        mismatched = self._mismatched_runs(out)
        for run in sorted(mismatched)[:5]:
            print(f"in-process run {run:03d}: output differs from the CLI's", file=sys.stderr)
        self.failed += len(mismatched | self.failed_first)


def emptied(out: Path) -> Path:
    """``out`` as an empty directory the first time, then with every file in it
    truncated to 0 bytes, so that each iteration rewrites the first one's files.

    Rewriting keeps inode creation out of the timed commands: on a shared VM
    it costs 0.02 to 0.45 ms per file depending on the host's phase, which
    alone moves small_batch's 6000 creates per iteration by two seconds.  A
    file that a command failed to rewrite stays empty and fails the digest
    check.
    """
    if out.exists():
        for entry in os.scandir(out):
            os.truncate(entry.path, 0)
    else:
        out.mkdir()
    return out


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def in_process_pass(wl, seed, plan_path, out: Path, log: Path, tracer):
    """Deploy and validate through ``scatternet.cli.main`` in this process.

    With a recording tracer, the library calls are wrapped in spans under one
    ``cli.deploy`` and one ``cli.validate`` span.  Returns the wall time,
    the two exit codes and the work counts.
    """
    counts = Counter()
    tracing = traced_library(tracer, counts) if isinstance(tracer, Tracer) else nullcontext()
    with open(log, "w") as log_file, tracing:
        start = time.perf_counter()
        with tracer.span("cli.deploy"):
            deploy_code = run_main(deploy_argv(wl, seed, plan_path), out, log_file)
        with tracer.span("cli.validate"):
            validate_code = run_main(validate_argv(wl), out, log_file)
        seconds = time.perf_counter() - start
    return seconds, (deploy_code, validate_code), counts


def layer_metrics(tracer, counts, out: Path, cli_seconds: float, setup_s: float) -> dict:
    spans = tracer.spans
    total = totals_by_name(spans)
    selfs = self_times_by_layer(spans)
    lib = library_time(spans)
    files = list(out.iterdir())
    written = sum(p.stat().st_size for p in files)
    write_s = sum(total[n] for n in (
        "fileio.write_points", "fileio.write_plot_data", "fileio.automatic_metadata", "fileio.planned_metadata",
        "fileio.write_metadata", "fileio.write_report"))
    read_s = total["fileio.deployment_from_files"] + total["fileio.load_plan"]
    auto_s = total["automatic.deploy_automatic"]
    m = {
        "fileio.write_points_s": total["fileio.write_points"],
        "fileio.write_s": write_s,
        "fileio.write_plot_s": total["fileio.write_plot_data"],
        "fileio.read_s": total["fileio.deployment_from_files"],
        "fileio.write_meta_s": total["fileio.automatic_metadata"] + total["fileio.planned_metadata"]
        + total["fileio.write_metadata"],
        "fileio.write_report_s": total["fileio.write_report"],
        "fileio.load_plan_s": total["fileio.load_plan"],
        "fileio.bytes_written": written,
        "fileio.bytes_read": counts["fileio.bytes_read"],
        "fileio.files_written": len(files),
        "fileio.write_MBps": written / write_s / 1e6,
        "fileio.read_MBps": counts["fileio.bytes_read"] / read_s / 1e6,
        "planned.overlap_s": total["planned.check_non_overlap"],
        "planned.deploy_s": total["planned.deploy_planned"],
        "planned.pair_checks": counts["planned.pair_checks"],
        "planned.sectors": counts["planned.sectors"],
        "stats.count_s": total["stats.count_per_sector"],
        "stats.membership_s": total["stats.check_membership"],
        "stats.evaluate_s": total["stats.evaluate_deployment"],
        "stats.mask_elements": counts["stats.mask_elements"],
        "stats.gof_tests": counts["stats.gof_tests"],
        "stats.gof_failed": counts["stats.gof_failed"],
        "stats.gof_skipped": counts["stats.gof_skipped"],
        # The scans deploy_planned repeats count as overlap time, not sampling.
        "stage.sample_s": auto_s + total["planned.deploy_planned"] + total["rng.stream"]
        - nested_time(spans, "planned.deploy_planned", "planned.check_non_overlap"),
        "automatic.deploy_s": auto_s,
        "automatic.points_per_s": counts["automatic.points"] / auto_s if auto_s else 0.0,
        "automatic.layers": counts["automatic.layers"],
        "rng.streams": counts["rng.streams"],
        "rng.variates": counts["rng.variates"],
        # What the CLI spends outside the library: argparse, printing, process exit.
        "cli.unaccounted_s": cli_seconds - 2 * setup_s - lib["cli.deploy"] - lib["cli.validate"],
        "cli.wall_s": cli_seconds,
    }
    m.update({f"{layer}.self_s": selfs[layer] for layer in LAYERS})
    return m


def traced_iteration(wl, seed, plan_path, work: Path, outcome: Outcome, tracer: Tracer, cli_s, setup_s) -> dict:
    """Untraced and traced in-process passes; per-layer metrics of the traced one."""
    timings = {}
    # Alternate which pass goes first, so drift does not read as overhead.
    for kind in ("untraced", "traced")[:: 1 if tracer.trace_id % 2 == 0 else -1]:
        out = emptied(work / kind)
        seconds, codes, counts = in_process_pass(
            wl, seed, plan_path, out, work / "logs" / f"{kind}.log", tracer if kind == "traced" else NullTracer())
        outcome.record_in_process(out, *codes)
        timings[kind] = seconds, counts
    plain_s, _ = timings["untraced"]
    traced_s, counts = timings["traced"]
    row = layer_metrics(tracer, counts, work / "traced", cli_s, setup_s)
    row["trace.overhead_frac"] = traced_s / plain_s - 1.0
    row["trace.traced_s"] = traced_s
    return row


def trimmed_mean(values) -> float:
    """Mean of the values left after dropping the lowest and the highest.

    With four values it equals the median; with five or more it uses more of
    them than the median does, so one slow host phase moves it less.
    """
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) > 2 else values)


def summarize(rows) -> dict:
    return {key: trimmed_mean(row[key] for row in rows) for key in rows[0]} if rows else {}


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    out_root = root / OUT_DIR
    work = fresh(out_root / "work" / f"{name}-{os.getpid()}")
    try:
        return _run(root, out_root, work, wl, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(root, out_root, work, wl, seed, seconds, trace):
    runner = Runner(root, fresh(work / "logs"))
    setup_s, measured_setup_s = measure_setup(runner, work)

    # Plan generation and its checks stay outside every metric.
    plan_path = work / "plan.json"
    plan = plan_objs = None
    if wl.planned:
        plan_objs = make_plan(seed)
        plan = prepare_plan(plan_objs, plan_path)
    points = wl.runs * (sum(o["n"] for o in plan_objs) if wl.planned else wl.nodes)

    outcome = Outcome(wl, seed, plan, plan_objs)
    rows, layer_rows, tracers = [], [], []
    spent = longest = 0.0
    # Iterations stop before one that would run past ``seconds``.  The full
    # check of the first iteration's output is outside that budget.
    while not rows or spent + longest <= seconds:
        start = time.perf_counter()
        out = emptied(work / "cli")
        gauges = [gauge(work / GAUGE_FILE)]
        deploy = runner.scatternet(deploy_argv(wl, seed, plan_path), out, "deploy.log")
        gauges.append(gauge(work / GAUGE_FILE))
        validate = runner.scatternet(validate_argv(wl), out, "validate.log") if deploy.code == 0 else None
        gauges.append(gauge(work / GAUGE_FILE))
        checking_s = outcome.record_cli(out, deploy.code, validate.code if validate else None)
        if validate is None:
            break
        wall = deploy.seconds + validate.seconds
        deploy_s = at_reference_speed(deploy.seconds, *gauges[:2])
        validate_s = at_reference_speed(validate.seconds, *gauges[1:])
        rows.append({
            "deploy_s": deploy_s,
            "validate_s": validate_s,
            "wall_s": deploy_s + validate_s,
            "points_per_s": points / (deploy_s + validate_s),
            "peak_rss_mb": max(deploy.peak_rss_mb, validate.peak_rss_mb),
            "measured.deploy_s": deploy.seconds,
            "measured.validate_s": validate.seconds,
            "measured.wall_s": wall,
            "gauge_s": statistics.median(gauges),
        })
        if trace:
            tracers.append(Tracer(len(tracers)))
            layer_rows.append(traced_iteration(wl, seed, plan_path, work, outcome, tracers[-1], wall, measured_setup_s))
        took = time.perf_counter() - start - checking_s
        spent += took
        longest = max(longest, took)

    env = environment(root)
    output_sha256 = combined_digest(outcome.digests) if outcome.digests else None
    results_dir = out_root / "results"
    for earlier in sorted(results_dir.glob(f"{wl.name}-seed{seed}-trace*.json")):
        record = json.loads(earlier.read_text())
        same_code = all(record["environment"][k] == env[k] for k in SAME_CODE_KEYS)
        if same_code and None not in (record["output_sha256"], output_sha256) and record["output_sha256"] != output_sha256:
            print(f"output differs from {earlier.name}, an earlier run of the same code", file=sys.stderr)
            outcome.failed = outcome.attempted
    false_alarm_frac = outcome.false_alarms / outcome.cli_runs
    result = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "iterations": len(rows),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / outcome.attempted,
        "false_alarm_frac": false_alarm_frac,
        "measured_setup_s": measured_setup_s,
        "end_to_end": dict(summarize(rows), setup_s=setup_s, **{"measured.setup_s": measured_setup_s}) if rows else {},
        "per_layer": dict(summarize(layer_rows), **{"cli.false_alarm_frac": false_alarm_frac}) if layer_rows else {},
        "environment": env,
        "output_files": len(outcome.digests or {}),
        "output_sha256": output_sha256,
        "file_sha256": outcome.digests,
        "iteration_rows": rows,
        "layer_rows": layer_rows,
    }
    if trace:
        spans_path = out_root / "spans" / f"{wl.name}-seed{seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(
            {"workload": wl.name, "seed": seed, "spans": [s for t in tracers for s in t.as_dicts()]}))
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


# Printed and recorded, but not in BENCHMARK.json: the times as measured and
# the host speed gauge (BENCHMARK.json has the times at the reference speed),
# the two fractions, which can read 0 on every run, and the layer times, each
# of which reads exactly 0 on the workloads that do not use its layer.
EXTRA_UNITS = {
    "measured.deploy_s": "s", "measured.validate_s": "s", "measured.wall_s": "s", "measured.setup_s": "s",
    "gauge_s": "s",
    "failed_frac": "ratio", "false_alarm_frac": "ratio",
    "fileio.write_plot_s": "s", "fileio.load_plan_s": "s",
    "planned.overlap_s": "s", "planned.deploy_s": "s", "planned.self_s": "s",
    "automatic.deploy_s": "s", "automatic.points_per_s": "1/s", "automatic.self_s": "s",
}


def summary_lines(result: dict, units: dict) -> list:
    lines = [
        f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{result['iterations']} iterations, {result['attempted']} runs attempted, {result['failed']} failed"
    ]
    metrics = dict(result["end_to_end"], failed_frac=result["failed_frac"], false_alarm_frac=result["false_alarm_frac"])
    metrics.update(result["per_layer"])
    units = dict(units, **EXTRA_UNITS)
    lines += [f"  {name:<28} {value:.6g} {units[name]}" for name, value in metrics.items() if name in units]
    pl = result["per_layer"]
    if pl:
        setup_s = result["measured_setup_s"]
        spans = pl["cli.wall_s"] - 2 * setup_s - pl["cli.unaccounted_s"]
        lines.append(f"  CLI wall {pl['cli.wall_s']:.4f} s = 2 x setup {setup_s:.4f} s"
                     f" + library spans {spans:.4f} s + unaccounted {pl['cli.unaccounted_s']:.4f} s;"
                     f" traced in-process wall {pl['trace.traced_s']:.4f} s")
    lines.append(f"  output sha256 {result['output_sha256']} over {result['output_files']} files")
    lines.append("  environment " + json.dumps(result["environment"], sort_keys=True))
    return lines


def result_line(result: dict, spec: dict) -> dict:
    """The last output line: ``correct``, ``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` lists."""
    key = "per_layer" if result["trace"] else "end_to_end"
    wanted = spec[key]
    source = result[key]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in source}
    return {
        "correct": result["failed"] == 0 and len(metrics) == len(wanted),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(root: Path, argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark scatternet's deploy -> validate pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    lines = {}
    for name in names:
        signal.alarm(WATCHDOG_S)
        try:
            result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        finally:
            signal.alarm(0)
        print("\n".join(summary_lines(result, units)), flush=True)
        lines[name] = result_line(result, spec)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0
