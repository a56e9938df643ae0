"""Correctness gate that does not go through ``scatternet.fileio``.

Points files are read with ``np.loadtxt`` or ``json`` and compared bitwise
with an in-memory deployment of the same ``(seed, run)``.  Per-sector counts
must equal the quotas in the metadata, and every point must lie in its
sector, tested closed on both ends as ``scatternet.core`` does.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import reference_deployment


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def file_digests(directory: Path) -> dict:
    """SHA-256 of every file in ``directory``, keyed by file name."""
    return {p.name: sha256_file(p) for p in sorted(directory.iterdir())}


def combined_digest(digests: dict) -> str:
    lines = "".join(f"{name} {digest}\n" for name, digest in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def run_of(file_name: str) -> int:
    """Run number of an output file name such as ``run_007.meta.json``."""
    return int(file_name.split(".", 1)[0].removeprefix("run_"))


def read_points(path: Path, fmt: str):
    if fmt == "csv":
        table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    else:
        payload = json.loads(path.read_text())
        if payload["columns"] != ["x", "y", "sector"]:
            raise ValueError(f"{path}: unexpected columns {payload['columns']}")
        table = np.array(payload["points"], dtype=np.float64).reshape(-1, 3)
    tags = table[:, 2].astype(np.int64)
    if not np.array_equal(tags, table[:, 2]):
        raise ValueError(f"{path}: sector tags are not integers")
    return table[:, 0].copy(), table[:, 1].copy(), tags


def sector_bounds(meta: dict):
    """Per-sector quotas and closed bounds from the metadata.

    Returns ``(quotas, circle, lo, hi)``: ``circle[i]`` tells whether sector
    ``i + 1`` is origin-centred, with radii ``lo[i], hi[i]``; for a rectangle
    ``lo[i]`` and ``hi[i]`` are its ``(x0, y0)`` and ``(x1, y1)`` corners.
    """
    if "n_L" in meta:
        edges = [0.0] + list(meta["radii"]) + [meta["L"]]
        n_l = meta["n_L"]
        if len(edges) != n_l + 1:
            raise ValueError(f"metadata has {len(edges) - 2} radii for {n_l} layers")
        quotas = [meta["n_in"]] + [meta["n_out"]] * (n_l - 1)
        lo = [(edges[i], 0.0) for i in range(n_l)]
        hi = [(edges[i + 1], 0.0) for i in range(n_l)]
        return np.array(quotas), np.ones(n_l, dtype=bool), np.array(lo), np.array(hi)
    quotas, circle, lo, hi = [], [], [], []
    for obj in meta["plan"]:
        quotas.append(obj["n"])
        circle.append(obj["shape"] != "rect")
        if obj["shape"] == "disk":
            lo.append((0.0, 0.0))
            hi.append((obj["r"], 0.0))
        elif obj["shape"] == "annulus":
            lo.append((obj["r_inner"], 0.0))
            hi.append((obj["r_outer"], 0.0))
        else:
            lo.append((obj["x0"], obj["y0"]))
            hi.append((obj["x1"], obj["y1"]))
    return np.array(quotas), np.array(circle), np.array(lo), np.array(hi)


def points_outside(x, y, tags, circle, lo, hi) -> int:
    idx = tags - 1
    r2 = x**2 + y**2
    in_circle = (r2 >= lo[idx, 0] ** 2) & (r2 <= hi[idx, 0] ** 2)
    in_rect = (x >= lo[idx, 0]) & (x <= hi[idx, 0]) & (y >= lo[idx, 1]) & (y <= hi[idx, 1])
    return int(np.count_nonzero(~np.where(circle[idx], in_circle, in_rect)))


def expected_meta(wl, seed: int, run: int, deployment, plan_objs):
    if wl.planned:
        return {"seed": seed, "run": run, "plan": plan_objs}
    ls = deployment.layer_set
    return {
        "L": 1.0, "n_Lmax": wl.max_layers, "n_S": wl.nodes, "seed": seed, "run": run,
        "n_L": ls.layer_count, "radii": list(ls.boundaries),
        "n_in": deployment.inner_count, "n_out": deployment.outer_count,
    }


def check_run(wl, seed: int, run: int, out: Path, plan, plan_objs):
    """Problems found with run ``run`` in ``out``, and its report's verdict.

    An empty problem list means the run is correct; the verdict is the
    report's ``all_passed``.
    """
    stem = out / f"run_{run:03d}"
    ref = reference_deployment(wl, seed, run, plan)
    try:
        x, y, tags = read_points(stem.with_suffix(f".{wl.fmt}"), wl.fmt)
        meta = json.loads(stem.with_suffix(".meta.json").read_text())
        report = json.loads(stem.with_suffix(".report.json").read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"], None
    problems = []
    if not (
        np.array_equal(x.view(np.uint64), ref.x.view(np.uint64))
        and np.array_equal(y.view(np.uint64), ref.y.view(np.uint64))
        and np.array_equal(tags, ref.sector)
    ):
        problems.append("points differ from the in-memory deployment")
    if meta != expected_meta(wl, seed, run, ref, plan_objs):
        problems.append("metadata differs from the in-memory deployment")
        return problems, None
    quotas, circle, lo, hi = sector_bounds(meta)
    if tags.size and (tags.min() < 1 or tags.max() > quotas.size):
        problems.append("sector tags out of range")
        return problems, None
    counts = np.bincount(tags, minlength=quotas.size + 1)[1:]
    if not np.array_equal(counts, quotas):
        problems.append("per-sector counts differ from the metadata quotas")
    outside = points_outside(x, y, tags, circle, lo, hi)
    if outside:
        problems.append(f"{outside} points lie outside their sector")
    verdict = report.get("all_passed")
    if not isinstance(verdict, bool):
        problems.append("report has no all_passed verdict")
    return problems, verdict
