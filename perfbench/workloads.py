"""The three workloads: inputs made from the workload seed, the CLI command
lines that run them, and the in-memory deployments their output must equal."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scatternet.automatic import deploy_automatic
from scatternet.core import Annulus, Disk, NetworkConfig, Rect, Sector, validate_config
from scatternet.fileio import load_plan
from scatternet.planned import DeploymentPlan, check_non_overlap, deploy_planned
from scatternet.rng import RandomStream

# many_sectors: a disk, then annuli at sorted uniform radii out to 1, then a
# strip of abutting rectangles outside the unit disk.  Fixed sector counts keep
# the O(k^2) overlap scan and the O(n*k) per-sector masks the same size for
# every seed; only positions and quotas vary.
PLAN_CIRCULAR = 1000
PLAN_RECTS = 200
PLAN_QUOTA = (20, 400)
PLAN_STRIP_X0 = 1.5
PLAN_RECT_WIDTH = (0.01, 0.05)
PLAN_TAG = 0x5EC7095  # mixed into the seed so plan draws differ from the CLI's streams


@dataclass(frozen=True)
class Workload:
    name: str
    runs: int
    fmt: str
    plot_data: bool
    nodes: int = 0
    max_layers: int = 0
    planned: bool = False

    def points_names(self):
        return [f"run_{run:03d}.{self.fmt}" for run in range(self.runs)]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("bulk_auto", runs=1, fmt="csv", plot_data=True, nodes=1_000_000, max_layers=10),
        Workload("many_sectors", runs=2, fmt="json", plot_data=False, planned=True),
        Workload("small_batch", runs=1000, fmt="csv", plot_data=True, nodes=100, max_layers=5),
    )
}


def make_plan(seed: int) -> list:
    """The many_sectors plan for ``seed``, as the JSON objects of a plan file."""
    rng = np.random.default_rng([seed, PLAN_TAG])
    radii = np.sort(rng.random(PLAN_CIRCULAR - 1))
    quotas = rng.integers(PLAN_QUOTA[0], PLAN_QUOTA[1] + 1, size=PLAN_CIRCULAR + PLAN_RECTS)
    widths = rng.uniform(*PLAN_RECT_WIDTH, size=PLAN_RECTS)
    edges = np.concatenate(([0.0], radii, [1.0]))
    if not np.all(np.diff(edges) > 0):
        raise RuntimeError(f"seed {seed}: plan radii collide")
    plan = [{"shape": "disk", "r": float(edges[1]), "n": int(quotas[0])}]
    for i in range(1, PLAN_CIRCULAR):
        plan.append(
            {"shape": "annulus", "r_inner": float(edges[i]), "r_outer": float(edges[i + 1]), "n": int(quotas[i])}
        )
    xs = PLAN_STRIP_X0 + np.concatenate(([0.0], np.cumsum(widths)))
    for j in range(PLAN_RECTS):
        plan.append(
            {"shape": "rect", "x0": float(xs[j]), "y0": -0.5, "x1": float(xs[j + 1]), "y1": 0.5,
             "n": int(quotas[PLAN_CIRCULAR + j])}
        )
    return plan


def plan_from_objects(objs) -> DeploymentPlan:
    """Build the plan from its JSON objects without going through ``fileio``."""
    sectors = []
    for obj in objs:
        if obj["shape"] == "disk":
            shape = Disk(obj["r"])
        elif obj["shape"] == "annulus":
            shape = Annulus(obj["r_inner"], obj["r_outer"])
        else:
            shape = Rect(obj["x0"], obj["y0"], obj["x1"], obj["y1"])
        sectors.append(Sector(shape=shape, count=obj["n"]))
    return DeploymentPlan(sectors=tuple(sectors))


def prepare_plan(objs, path: Path) -> DeploymentPlan:
    """Write the plan file and check it the way ``scatternet plan`` will."""
    path.write_text(json.dumps(objs) + "\n")
    plan = plan_from_objects(objs)
    if load_plan(path) != plan:
        raise RuntimeError(f"{path}: load_plan does not return the generated plan")
    check = check_non_overlap(plan.sectors)
    if not check.ok:
        raise RuntimeError(f"{path}: generated plan is invalid: {check.message}")
    return plan


def config_for(wl: Workload, seed: int) -> NetworkConfig:
    return validate_config(NetworkConfig(radius=1.0, max_layers=wl.max_layers, nodes=wl.nodes, seed=seed))


def reference_deployment(wl: Workload, seed: int, run: int, plan):
    """In-memory deployment that run ``run`` of the CLI must have written."""
    stream = RandomStream(seed, run)
    if wl.planned:
        return deploy_planned(plan, stream)
    return deploy_automatic(config_for(wl, seed), stream)


def deploy_argv(wl: Workload, seed: int, plan_path: Path) -> list:
    """Generation command line, run with the output directory as working directory."""
    common = ["--runs", str(wl.runs), "--seed", str(seed), "--format", wl.fmt, "--out-dir", "."]
    if wl.planned:
        argv = ["plan", "--plan", str(plan_path)] + common
    else:
        argv = ["deploy", "--size", "1", "--max-layers", str(wl.max_layers), "--nodes", str(wl.nodes)] + common
    if wl.plot_data:
        argv.append("--plot-data")
    return argv


def validate_argv(wl: Workload) -> list:
    return ["validate"] + wl.points_names()
