"""Command-line front end: batch generation (``deploy``, ``plan``) and
``validate``.

Exit codes are a total function of outcome class: 0 success, 2 invalid
configuration or plan, 3 I/O or parse error, 4 statistical validation
failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .automatic import deploy_automatic
from .core import MAX_UINT64, ConfigError, NetworkConfig, validate_config
from .fileio import (
    FormatError,
    automatic_metadata,
    deployment_from_files,
    load_plan,
    planned_metadata,
    read_ahead,
    write_metadata,
    write_plot_data,
    write_points,
    write_report,
)
from .planned import OverlapError, check_non_overlap, deploy_planned
from .rng import RandomStream
from .stats import (
    DEFAULT_CHI2_ALPHA,
    DEFAULT_KS_ALPHA,
    check_membership,
    count_per_sector,
    evaluate_deployment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

POINT_BYTES = 24  # per point: x and y as float64 and an int64 sector tag


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _invalid(exc: ConfigError) -> int:
    for violation in exc.violations:
        _err(f"invalid configuration: {violation}")
    return EXIT_CONFIG


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(points: int) -> None:
    """Refuse a run whose point arrays alone would not fit in physical memory,
    before anything is allocated."""
    need = points * POINT_BYTES
    have = _physical_memory()
    if need > have:
        raise ConfigError(
            [f"{points} points need {need} bytes, more than the {have} bytes of physical memory"]
        )


def _write_run(out_dir: Path, run: int, deployment, meta: dict, fmt: str, plot_data: bool) -> Path:
    stem = out_dir / f"run_{run:03d}"
    points_path = stem.with_suffix(f".{fmt}")
    write_points(points_path, deployment, fmt=fmt, xy_path=stem.with_suffix(".xy") if plot_data else None)
    write_metadata(stem.with_suffix(".meta.json"), meta)
    if plot_data:
        write_plot_data(stem.with_suffix(".rings"), deployment)
    return points_path


def _automatic(args):
    """``deploy``: validate the three designer inputs."""
    config = validate_config(
        NetworkConfig(radius=args.size, max_layers=args.max_layers, nodes=args.nodes, seed=args.seed)
    )
    _require_memory(config.nodes)
    return (
        lambda stream: deploy_automatic(config, stream),
        lambda deployment, run: automatic_metadata(deployment, run),
        lambda meta: f"layers={meta['n_L']} inner={meta['n_in']} outer={meta['n_out']}",
    )


def _planned(args):
    """``plan``: load the plan file and check it, then the seed."""
    plan = load_plan(args.plan)
    check = check_non_overlap(plan.sectors)
    if not check.ok:
        raise OverlapError(check.message)
    if not 0 <= args.seed <= MAX_UINT64:
        raise ConfigError([f"seed must fit in an unsigned 64-bit integer, got {args.seed}"])
    _require_memory(plan.total_nodes)
    return (
        lambda stream: deploy_planned(plan, stream),
        lambda deployment, run: planned_metadata(deployment, run, args.seed),
        lambda meta: f"sectors={len(plan.sectors)}",
    )


def cmd_generate(args) -> int:
    """``deploy`` and ``plan``.  ``args.resolve`` turns the mode's input into a
    deploy call, a metadata call and a run summary; run k draws from stream k."""
    if args.runs < 1:
        _err(f"invalid configuration: runs must be at least 1, got {args.runs}")
        return EXIT_CONFIG
    try:
        deploy, metadata, summary = args.resolve(args)
    except OSError as exc:
        _err(f"I/O error: {exc}")
        return EXIT_IO
    except (FormatError, OverlapError) as exc:
        _err(f"invalid plan: {exc}")
        return EXIT_CONFIG
    except ConfigError as exc:
        return _invalid(exc)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for run in range(args.runs):
            deployment = deploy(RandomStream(args.seed, run))
            meta = metadata(deployment, run)
            points_path = _write_run(out_dir, run, deployment, meta, args.format, args.plot_data)
            print(f"run {run:03d}: {summary(meta)} points={len(deployment)} -> {points_path}")
    except OSError as exc:
        _err(f"I/O error: {exc}")
        return EXIT_IO
    return EXIT_OK


def _sibling(points_path: Path, kind: str) -> Path:
    """The run's ``<stem>.<kind>.json`` file beside its points file: its
    ``meta`` or its ``report``."""
    return points_path.with_name(f"{points_path.stem}.{kind}.json")


def _validate_one(points_path: Path, ks_alpha: float) -> int:
    meta_path = _sibling(points_path, "meta")
    if not meta_path.exists():
        _err(f"{points_path}: metadata file {meta_path} not found")
        return EXIT_IO
    if not points_path.exists():
        _err(f"{points_path}: points file not found")
        return EXIT_IO
    try:
        deployment = deployment_from_files(points_path, meta_path)
    except FormatError as exc:  # its message starts with the faulty file's path
        _err(str(exc))
        return EXIT_IO
    except (OSError, ValueError) as exc:
        _err(f"{points_path}: {exc}")
        return EXIT_IO

    code = EXIT_OK
    for sec, (index, count) in zip(deployment.plan.sectors, count_per_sector(deployment)):
        if count != sec.count:
            _err(f"{points_path}: sector {index} has {count} points, expected {sec.count}")
            code = EXIT_VALIDATION

    outside = check_membership(deployment)
    if outside.size:
        for idx in outside[:10]:
            _err(f"{points_path}: point {int(idx)} lies outside sector {int(deployment.sector[idx])}")
        if outside.size > 10:
            _err(f"{points_path}: ... and {outside.size - 10} more membership violations")
        code = EXIT_VALIDATION

    report = evaluate_deployment(deployment, ks_alpha=ks_alpha)
    write_report(_sibling(points_path, "report"), report)
    for test, sector, result in report.failures():
        where = f"sector {sector}" if sector is not None else "all points"
        _err(f"{points_path}: {test} failed for {where}: statistic {result.statistic:.6g}, "
             f"p-value {result.p_value:.6g} <= alpha {report.alpha(test):.6g}")
        code = EXIT_VALIDATION
    if code == EXIT_OK:
        print(f"{points_path}: ok ({len(deployment)} points, {len(report.per_sector)} sectors)")
    return code


def cmd_validate(args) -> int:
    if not 0 < args.alpha < 1:  # also rejects nan
        _err(f"invalid configuration: alpha must lie strictly between 0 and 1, got {args.alpha}")
        return EXIT_CONFIG
    paths = [Path(name) for name in args.files]
    codes = []
    # the next files' points are parsed while this one is tested; a file without metadata
    # is never read, and one that an earlier file's report may overwrite is read at its turn;
    # os.path.exists is False where a stat fails, which _validate_one then reports
    listed = [path for path in paths if os.path.exists(_sibling(path, "meta"))]
    with read_ahead(listed, [_sibling(path, "report") for path in listed]):
        for name, path in zip(args.files, paths):
            try:
                codes.append(_validate_one(path, args.alpha))
            except OSError as exc:
                _err(f"{name}: I/O error: {exc}")
                codes.append(EXIT_IO)
    if EXIT_IO in codes:
        return EXIT_IO
    if EXIT_VALIDATION in codes:
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatternet",
        description="Seeded generator of inhomogeneous spatial node deployments over a disk.",
    )
    sub = parser.add_subparsers(dest="command")

    deploy = sub.add_parser("deploy", help="generate automatic layered deployments")
    deploy.add_argument("--size", type=float, required=True, help="network radius")
    deploy.add_argument("--max-layers", type=int, required=True, help="upper bound on the sampled layer count")
    deploy.add_argument("--nodes", type=int, required=True, help="total node count")
    deploy.set_defaults(func=cmd_generate, resolve=_automatic)

    plan = sub.add_parser("plan", help="generate deployments from a sector plan file")
    plan.add_argument("--plan", required=True, help="path to a JSON plan (array of sector objects)")
    plan.set_defaults(func=cmd_generate, resolve=_planned)

    for cmd, plot_help in ((deploy, "also write scatter and ring-boundary files"), (plan, "also write scatter files")):
        cmd.add_argument("--seed", type=int, default=0, help="unsigned 64-bit RNG seed")
        cmd.add_argument("--runs", type=int, default=1, help="number of independent runs")
        cmd.add_argument("--out-dir", default=".", help="output directory")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv", help="points file format")
        cmd.add_argument("--plot-data", action="store_true", help=plot_help)

    validate = sub.add_parser("validate", help="statistically validate generated runs")
    validate.add_argument("files", nargs="+", help="points files (each needs its .meta.json sibling)")
    validate.add_argument(
        "--alpha", type=float, default=DEFAULT_KS_ALPHA,
        help=f"significance level for the radial KS test (default {DEFAULT_KS_ALPHA}; "
        f"chi-square tests stay at {DEFAULT_CHI2_ALPHA})",
    )
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_CONFIG
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
