"""The CLI's own ``main`` run in process, with optional spans around the
library calls it makes.

Tracing wraps the names ``scatternet.cli`` imports, the
``check_non_overlap`` that ``deploy_planned`` calls, and the
``RandomStream`` methods the samplers draw from.  Each wrapper opens one span
per call and adds what the call's inputs say about its work to a counter; the
counts marked "computed" in README.md come from there, not from the program.
No CLI code is copied, so the traced run makes the CLI's calls in the CLI's
order.
"""
from __future__ import annotations

from contextlib import chdir, contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import scatternet.cli as cli
import scatternet.planned as planned
from scatternet.rng import RandomStream


def _sector_count(deployment) -> int:
    return deployment.layer_set.layer_count if deployment.plan is None else len(deployment.plan.sectors)


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _count_overlap(counts, result, sectors):
    k = len(sectors)
    counts["planned.pair_checks"] += k * (k - 1) // 2


def _count_plan(counts, plan, path):
    counts["fileio.bytes_read"] += _file_bytes(path)
    counts["planned.sectors"] = len(plan.sectors)


def _count_automatic(counts, deployment, *args, **kwargs):
    counts["automatic.layers"] += deployment.layer_set.layer_count
    counts["automatic.points"] += len(deployment)


def _count_read(counts, deployment, points_path, meta_path):
    counts["fileio.bytes_read"] += _file_bytes(points_path, meta_path)


def _count_masks(counts, result, deployment, *args, **kwargs):
    counts["stats.mask_elements"] += len(deployment) * _sector_count(deployment)  # one mask per sector


def _count_report(counts, report, deployment, *args, **kwargs):
    _count_masks(counts, report, deployment)
    counts["stats.gof_tests"] += len(report.radial) + len(report.areal) + (report.angular is not None)
    counts["stats.gof_failed"] += len(report.failures())
    counts["stats.gof_skipped"] += len(report.skipped)


def _count_stream(counts, stream, *args):
    counts["rng.streams"] += 1


def _count_block(counts, block, stream, n):
    counts["rng.variates"] += n


def _count_fill(counts, out, stream, buffer):
    counts["rng.variates"] += buffer.size


def _count_scalar(counts, value, stream):
    counts["rng.variates"] += 1


# (owner, attribute, span name, counter or None)
TRACED = (
    (cli, "load_plan", "fileio.load_plan", _count_plan),
    (cli, "check_non_overlap", "planned.check_non_overlap", _count_overlap),
    (planned, "check_non_overlap", "planned.check_non_overlap", _count_overlap),
    (cli, "RandomStream", "rng.stream", _count_stream),
    (cli, "deploy_planned", "planned.deploy_planned", None),
    (cli, "deploy_automatic", "automatic.deploy_automatic", _count_automatic),
    (cli, "automatic_metadata", "fileio.automatic_metadata", None),
    (cli, "planned_metadata", "fileio.planned_metadata", None),
    (cli, "write_points", "fileio.write_points", None),
    (cli, "write_metadata", "fileio.write_metadata", None),
    (cli, "write_plot_data", "fileio.write_plot_data", None),
    (cli, "deployment_from_files", "fileio.deployment_from_files", _count_read),
    (cli, "count_per_sector", "stats.count_per_sector", None),
    (cli, "check_membership", "stats.check_membership", _count_masks),
    (cli, "evaluate_deployment", "stats.evaluate_deployment", _count_report),
    (cli, "write_report", "fileio.write_report", None),
    (RandomStream, "substream", "rng.substream", _count_stream),
    (RandomStream, "uniform_block", "rng.uniform_block", _count_block),
    (RandomStream, "uniform_fill", "rng.uniform_fill", _count_fill),
    (RandomStream, "uniform01", "rng.uniform01", _count_scalar),
)


def _traced(fn, name, tracer, counts, count):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(counts, result, *args, **kwargs)
        return result

    return wrapper


@contextmanager
def traced_library(tracer, counts):
    """Wrap every name in ``TRACED`` for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TRACED]
    try:
        for (owner, attr, name, count), (_, _, fn) in zip(TRACED, saved):
            setattr(owner, attr, _traced(fn, name, tracer, counts, count))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def run_main(argv, cwd: Path, log) -> int:
    """``scatternet.cli.main(argv)`` in ``cwd``, its output going to ``log``."""
    with chdir(cwd), redirect_stdout(log), redirect_stderr(log):
        return cli.main(argv)
