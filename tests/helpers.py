import json
import math
import multiprocessing.pool
import os
import time

import numpy as np

from scatternet.automatic import deploy_automatic, split_nodes
from scatternet.core import NetworkConfig, Rect, validate_config
from scatternet.planned import OverlapCheck
from scatternet.rng import RandomStream
from scatternet.sampling import fill_annulus, fill_sector


class SequenceStream:
    """Stream stub that replays a preset variate sequence.

    Lets tests inject exact uniforms into any sampler while still honoring
    the scalar/block draw protocol.
    """

    def __init__(self, values):
        self._values = [float(v) for v in values]
        self._next = 0

    def uniform01(self):
        if self._next >= len(self._values):
            raise AssertionError("SequenceStream exhausted")
        value = self._values[self._next]
        self._next += 1
        return value

    def uniform_block(self, n):
        return np.array([self.uniform01() for _ in range(int(n))], dtype=np.float64)

    def uniform_fill(self, out):
        out[...] = self.uniform_block(out.size)
        return out

    @property
    def consumed(self):
        return self._next


class TopLayerCount(RandomStream):
    """A :class:`RandomStream` whose scalar draw is the largest double below
    1.  An automatic run's one scalar draw is its layer count, which is then
    ``max_layers``; the radii and points still come from Philox, as in any
    run of that count."""

    def uniform01(self):
        return 1.0 - 2.0**-53


def sample_annulus(inner, outer, n, stream):
    """``n`` points drawn by the annulus fill into fresh arrays."""
    x = np.empty(n, dtype=np.float64)
    y = np.empty(n, dtype=np.float64)
    fill_annulus(x, y, inner, outer, stream)
    return x, y


def sample_sector(shape, n, stream):
    """``n`` points drawn by the fill for ``shape`` into fresh arrays."""
    x = np.empty(n, dtype=np.float64)
    y = np.empty(n, dtype=np.float64)
    fill_sector(x, y, shape, stream)
    return x, y


def _forced_run_time(config, seed: int, attempt: int) -> float:
    """CPU time of this thread for one worst-case run (layer count pinned to
    its maximum).  Thread CPU time leaves out time spent descheduled on a
    loaded host, and CPU that idle pool threads of earlier numerical calls
    burn; the run itself is single-threaded numpy."""
    stream = TopLayerCount(seed, attempt)
    start = time.thread_time()
    deploy_automatic(config, stream)
    return time.thread_time() - start


def time_forced_run(radius: float, max_layers: int, nodes: int, seed: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` CPU time of one worst-case run."""
    config = validate_config(NetworkConfig(radius=radius, max_layers=max_layers, nodes=nodes, seed=seed))
    return min(_forced_run_time(config, seed, attempt) for attempt in range(repeats))


def forced_run_ratio(radius: float, max_layers: int, small: int, large: int, seed: int, pairs: int = 9) -> float:
    """Median over ``pairs`` back-to-back worst-case runs of the time at
    ``large`` nodes divided by the time at ``small`` nodes.  Each ratio is
    taken from two runs made one after the other, so a host whose speed
    drifts between them moves both; the median drops the odd pair that one
    load spike hit."""
    configs = [validate_config(NetworkConfig(radius=radius, max_layers=max_layers, nodes=n, seed=seed))
               for n in (small, large)]
    ratios = []
    for attempt in range(pairs):
        t_small, t_large = (_forced_run_time(config, seed, attempt) for config in configs)
        ratios.append(t_large / t_small)
    return float(np.median(ratios))


def fit_exponent(sizes, times) -> float:
    """Slope of log(time) against log(size): the apparent scaling exponent."""
    return float(np.polyfit(np.log(np.asarray(sizes, float)), np.log(np.asarray(times, float)), 1)[0])


# Plan sector objects (as JSON text) that parse but must be rejected.
BAD_SECTORS = [
    '{"shape": "disk", "r": 1.0, "n": 2.7}',
    '{"shape": "disk", "r": 1.0, "n": true}',
    '{"shape": "disk", "r": 1.0, "n": "5"}',
    '{"shape": "disk", "r": Infinity, "n": 5}',
    '{"shape": "disk", "r": 1e200, "n": 5}',
    '{"shape": "annulus", "r_inner": 0.0, "r_outer": NaN, "n": 5}',
    '{"shape": "annulus", "r_inner": "0", "r_outer": 1.0, "n": 5}',
    '{"shape": "rect", "x0": 0, "y0": 0, "x1": 1e200, "y1": 1e200, "n": 5}',
    '{"shape": ["disk"], "r": 1.0, "n": 5}',
    '{"shape": "disk", "r": 1e-160, "n": 5}',
]

# (key, value) replacements that make automatic run metadata invalid.
BAD_AUTOMATIC_METADATA = [
    ("radii", 5),
    ("radii", "0.5"),
    ("n_L", "layers + 1"),
    ("n_in", 2.7),
    ("n_in", "inner + 1"),
    ("n_S", True),
    ("L", float("inf")),
    ("L", 1e200),
    ("L", 1e-200),
    ("L", 1e-160),
    ("n_L", "n_Lmax + 1"),
    ("n_in", "inner + layers - 1"),
]


def corrupt_metadata(meta, key, value):
    """``meta`` with ``key`` set to ``value``.  The strings ``layers + 1`` and
    ``inner + 1`` stand for the run's own n_L or n_in plus one;
    ``inner + layers - 1`` also lowers n_out by one, which moves a node of
    every outer layer inward and keeps the total n_S; ``n_Lmax + 1`` is a run
    of one layer more than n_Lmax, with radii and quotas to match.  A new
    ``L`` scales the radii with it, so that only the rule on ``L`` can
    reject it."""
    too_many = meta["n_Lmax"] + 1
    extra = [meta["L"] / 2] * (too_many - 1 - len(meta["radii"]))
    inner, outer = split_nodes(meta["n_S"], too_many)
    relative = {
        "layers + 1": {key: meta["n_L"] + 1},
        "inner + 1": {key: meta["n_in"] + 1},
        "n_Lmax + 1": {"n_L": too_many, "radii": sorted(meta["radii"] + extra), "n_in": inner, "n_out": outer},
        "inner + layers - 1": {key: meta["n_in"] + meta["n_L"] - 1, "n_out": meta["n_out"] - 1},
    }
    changes = relative.get(value, {key: value})
    if key == "L":
        changes["radii"] = [r * (value / meta["L"]) for r in meta["radii"]]
    return {**meta, **changes}


# Points rows (as JSON text) that a strict points reader must reject.
BAD_JSON_POINTS = [
    "[0.5, 0.5, 2.7]",
    "[0.5, 0.5, true]",
    '[0.5, 0.5, "3"]',
    "[0.5, 0.5, null]",
    "[0.5, 0.5, 1e400]",
    "[0.5, 0.5, 99999999999999999999]",
    '["0.5", 0.5, 1]',
    "[0.5, false, 1]",
    "[NaN, 0.5, 1]",
    "[0.5, -Infinity, 1]",
    "[1e400, 0.5, 1]",
    "[0.5, 0.5, 1, 7]",
    "[0.5, 0.5]",
    '{"x": 0.5, "y": 0.5, "sector": 1}',
    '"0.5,0.5,1"',
    "1",
]


def with_json_point(text, row):
    """Points JSON ``text`` with ``row`` inserted as its first point."""
    return text.replace('"points": [', f'"points": [{row}, ', 1)


# Points rows (as CSV text) that the CSV points reader must reject.
BAD_CSV_POINTS = [
    "0.5,0.5,99999999999999999999",
    "0.5,0.5,-99999999999999999999",
    "0.5,0.5,2.7",
    "0.5,0.5,",
    "nan,0.5,1",
    "0.5,NaN,1",
    "inf,0.5,1",
    "0.5,-inf,1",
    "1e400,0.5,1",
    "zzz,0.5,1",
    "0.5,0.5",
    "0.5,0.5,1,7",
]


def with_csv_point(text, row):
    """Points CSV ``text`` with a blank line and then ``row`` after its first
    point, so that ``row`` is line 4."""
    lines = text.split("\n")
    return "\n".join(lines[:2] + ["", row] + lines[2:])


# The one-shot points formatters the streamed writer replaced: the oracle
# for its bytes.
def csv_text(d):
    lines = ["x,y,sector"]
    lines.extend(f"{repr(float(x))},{repr(float(y))},{int(s)}" for x, y, s in zip(d.x, d.y, d.sector))
    return "\n".join(lines) + "\n"


def json_text(d):
    payload = {
        "columns": ["x", "y", "sector"],
        "points": [[float(x), float(y), int(s)] for x, y, s in zip(d.x, d.y, d.sector)],
    }
    return json.dumps(payload) + "\n"


def xy_text(d):
    lines = [f"{repr(float(x))} {repr(float(y))} {int(s)}" for x, y, s in zip(d.x, d.y, d.sector)]
    return "\n".join(lines) + "\n"


ORACLES = {"csv": csv_text, "json": json_text, "xy": xy_text}


def pretend_cpus(monkeypatch, cpus: int) -> list:
    """Make the points writer see ``cpus`` CPUs.  Returns the list to which
    the worker count of every pool it creates from then on is appended."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    pools = []

    class RecordedPool(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            pools.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", RecordedPool)
    return pools


# The scalar pair scan the array overlap scan replaced: the oracle for its
# result.
def _radial_range(shape):
    """Distances from the origin that ``shape`` spans."""
    if not isinstance(shape, Rect):
        return shape.inner, shape.outer
    dx = max(shape.x0, -shape.x1, 0.0)
    dy = max(shape.y0, -shape.y1, 0.0)
    corners = [math.hypot(cx, cy) for cx in (shape.x0, shape.x1) for cy in (shape.y0, shape.y1)]
    return math.hypot(dx, dy), max(corners)


def _shapes_overlap(a, b) -> bool:
    if isinstance(a, Rect) and isinstance(b, Rect):
        return a.x0 < b.x1 and b.x0 < a.x1 and a.y0 < b.y1 and b.y0 < a.y1
    (a_lo, a_hi), (b_lo, b_hi) = _radial_range(a), _radial_range(b)
    return a_lo < b_hi and b_lo < a_hi


def pair_scan(sectors) -> OverlapCheck:
    for i in range(len(sectors)):
        for j in range(i + 1, len(sectors)):
            if _shapes_overlap(sectors[i].shape, sectors[j].shape):
                return OverlapCheck(ok=False, pair=(i + 1, j + 1))
    return OverlapCheck(ok=True)
