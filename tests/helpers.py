import errno
import json
import math
import multiprocessing.pool
import os
import time

import numpy as np

from scatternet.automatic import deploy_automatic, split_nodes
from scatternet.core import Annulus, NetworkConfig, Rect, fill_sector, validate_config
from scatternet.planned import OverlapCheck
from scatternet.rng import RandomStream
from scatternet.stats import (
    ANGULAR_BINS,
    AREAL_SHELLS,
    AREAL_WEDGES,
    DEFAULT_CHI2_ALPHA,
    DEFAULT_KS_ALPHA,
    MIN_EXPECTED_PER_BIN,
    MIN_KS_POINTS,
    GofResult,
    SectorStat,
    StatReport,
    _chi2_sf,
    _kolmogorov,
    angular_chi2,
)


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


def sample_sector(shape, n, stream):
    """``n`` points drawn by the fill for ``shape`` into fresh arrays."""
    x = np.empty(n, dtype=np.float64)
    y = np.empty(n, dtype=np.float64)
    fill_sector(x, y, shape, stream)
    return x, y


def sample_annulus(inner, outer, n, stream):
    """``n`` points drawn by the annulus fill into fresh arrays."""
    return sample_sector(Annulus(inner, outer), n, stream)


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
    ("radii", "last = L"),
    ("radii", "first negated"),
]


def corrupt_metadata(meta, key, value):
    """``meta`` with ``key`` set to ``value``.  The strings ``layers + 1`` and
    ``inner + 1`` stand for the run's own n_L or n_in plus one;
    ``inner + layers - 1`` also lowers n_out by one, which moves a node of
    every outer layer inward and keeps the total n_S; ``n_Lmax + 1`` is a run
    of one layer more than n_Lmax, with radii and quotas to match;
    ``last = L`` sets the outermost radius to ``L`` and ``first negated``
    flips the sign of the innermost one, each breaking one rule of the radii
    alone.  A new ``L`` scales the radii with it, so that only the rule on
    ``L`` can reject it."""
    too_many = meta["n_Lmax"] + 1
    extra = [meta["L"] / 2] * (too_many - 1 - len(meta["radii"]))
    inner, outer = split_nodes(meta["n_S"], too_many)
    relative = {
        "layers + 1": {key: meta["n_L"] + 1},
        "inner + 1": {key: meta["n_in"] + 1},
        "n_Lmax + 1": {"n_L": too_many, "radii": sorted(meta["radii"] + extra), "n_in": inner, "n_out": outer},
        "inner + layers - 1": {key: meta["n_in"] + meta["n_L"] - 1, "n_out": meta["n_out"] - 1},
        "last = L": {key: meta["radii"][:-1] + [meta["L"]]},
        "first negated": {key: [-meta["radii"][0]] + meta["radii"][1:]},
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
    # text that Python's float() and int() would read, but the format refuses
    "1_0,0.5,1",
    "\u0661.5,0.5,1",
    "\uff10.5,0.5,1",
    "0.5\xa0,0.5,1",
    "0.5,0.5,1\r",
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
    """Make the points writer and reader see ``cpus`` CPUs.  Returns the list
    to which the worker count of every pool they create from then on is
    appended."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    pools = []

    class RecordedPool(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            pools.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", RecordedPool)
    return pools


def pools_cannot_start(monkeypatch) -> list:
    """Make every pool that the points writer and reader create from then on
    fail to fork its workers, as at the process limit.  Returns the list to
    which the worker count of every such attempt is appended."""
    attempts = []

    def pool_cannot_start(processes=None, *args, **kwargs):
        attempts.append(processes)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(multiprocessing.pool, "Pool", pool_cannot_start)
    return attempts


def read_range_fails(path, *args):
    """A ``fileio._read_range``, or a ``fileio._load_json``, whose read
    fails, as a device error would."""
    raise OSError(errno.EIO, os.strerror(errno.EIO))


def read_range_fails_for(failing, read_range):
    """A ``fileio._read_range``, or a ``fileio._load_json``, that fails as
    :func:`read_range_fails` does for the file ``failing`` only, and reads
    other files with ``read_range``."""
    def read(path, *args):
        return (read_range_fails if os.path.samefile(path, failing) else read_range)(path, *args)
    return read


def truncated_after(ranges):
    """``ranges``, or ``fileio._jobs``, that cuts 6 bytes off the end of the
    file once it has cut the file into ranges or jobs: the last range of a
    CSV file loses the end of its last tag, and a points JSON file its
    tail."""
    def cut_then_truncate(path, *args):
        cut = ranges(path, *args)
        os.truncate(path, os.path.getsize(path) - 6)
        return cut
    return cut_then_truncate


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


# The per-shape binning and radial CDF that the shapes' ``unit`` replaced:
# the oracle for every point's areal cell and for the KS statistic.
def equal_area_boundaries(inner, outer):
    """Radii splitting an annulus into ``AREAL_SHELLS`` annuli of identical area."""
    fractions = np.arange(AREAL_SHELLS + 1, dtype=np.float64) / AREAL_SHELLS
    return np.sqrt(inner * inner + fractions * (outer * outer - inner * inner))


def _bin(offset, width, bins):
    return np.clip((offset * (bins / width)).astype(np.int64), 0, bins - 1)


def areal_cells(x, y, shape):
    """Each point's cell of the 8 x 8 areal grid, shell (or row) first."""
    if isinstance(shape, Rect):
        band = _bin(y - shape.y0, shape.y1 - shape.y0, AREAL_SHELLS)
        slot = _bin(x - shape.x0, shape.x1 - shape.x0, AREAL_WEDGES)
    else:
        edges = equal_area_boundaries(shape.inner, shape.outer)
        band = np.clip(np.searchsorted(edges[1:-1], np.hypot(x, y), side="right"), 0, AREAL_SHELLS - 1)
        slot = _bin(np.mod(np.arctan2(y, x), 2.0 * math.pi), 2.0 * math.pi, AREAL_WEDGES)
    return band * AREAL_WEDGES + slot


def radial_ks_statistic(x, y, inner, outer):
    """The KS distance of the radii from the annulus area CDF, sorted by radius."""
    r = np.sort(np.hypot(x, y))
    n = r.size
    cdf = (r * r - inner * inner) / (outer * outer - inner * inner)
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    return max(float(np.max(steps - cdf)), float(np.max(cdf - (steps - 1.0 / n))))


# The per-sector membership check and tests that the run-wide passes
# replaced: the oracle for their violation array and report.
def _members(deployment):
    """Indices of each plan sector's points, in point order."""
    tags = deployment.sector
    order = np.argsort(tags, kind="stable")
    indices = np.arange(1, len(deployment.plan.sectors) + 1)
    lo = np.searchsorted(tags[order], indices, side="left")
    hi = np.searchsorted(tags[order], indices, side="right")
    return [order[a:b] for a, b in zip(lo, hi)]


def membership_per_sector(deployment):
    violations = [
        members[~np.asarray(sec.shape.contains(deployment.x[members], deployment.y[members]))]
        for sec, members in zip(deployment.plan.sectors, _members(deployment))
    ]
    return np.sort(np.concatenate(violations))


def _uniform_ks(u, alpha):
    n = u.size
    cdf = np.sort(np.clip(u, 0.0, 1.0))  # the uniform CDF
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / n)))
    stat = max(d_plus, d_minus)
    p_value = _kolmogorov(math.sqrt(n) * stat)
    return GofResult(statistic=stat, p_value=p_value, passed=p_value > alpha)


def _cells_chi2(u1, u2, alpha):
    cells = AREAL_SHELLS * AREAL_WEDGES
    band = np.clip(u1 * AREAL_SHELLS, 0, AREAL_SHELLS - 1).astype(np.int64)
    slot = np.clip(u2 * AREAL_WEDGES, 0, AREAL_WEDGES - 1).astype(np.int64)
    observed = np.bincount(band * AREAL_WEDGES + slot, minlength=cells).astype(np.float64)
    expected = np.full(cells, u1.size / cells)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    p_value = _chi2_sf(cells - 1, stat)
    return GofResult(statistic=stat, p_value=p_value, passed=p_value > alpha, dof=cells - 1)


def evaluate_per_sector(deployment, ks_alpha=DEFAULT_KS_ALPHA):
    per_sector, radial, areal, skipped = [], [], [], []
    all_circular = True
    min_areal = MIN_EXPECTED_PER_BIN * AREAL_SHELLS * AREAL_WEDGES
    for index, (sec, members) in enumerate(zip(deployment.plan.sectors, _members(deployment)), start=1):
        shape = sec.shape
        count = members.size
        area = shape.area()
        density = count / area if area > 0 else math.inf
        per_sector.append(SectorStat(index=index, count=count, area=area, density=density))
        if area == 0:
            skipped.append((index, "radial_ks", "zero-width layer"))
            skipped.append((index, "areal_chi2", "zero-width layer"))
            continue
        u1, u2 = shape.unit(deployment.x[members], deployment.y[members])
        if not isinstance(shape, Rect):
            if count >= MIN_KS_POINTS:
                radial.append((index, _uniform_ks(u1, ks_alpha)))
            else:
                skipped.append((index, "radial_ks", f"{count} < {MIN_KS_POINTS} points"))
        if count < min_areal:
            skipped.append((index, "areal_chi2", f"{count} < {min_areal} points"))
        else:
            areal.append((index, _cells_chi2(u1, u2, DEFAULT_CHI2_ALPHA)))
        if isinstance(shape, Rect):
            all_circular = False
            skipped.append((index, "radial_ks", "not applicable to rectangular sectors"))
    angular = None
    if all_circular:
        if len(deployment) >= MIN_EXPECTED_PER_BIN * ANGULAR_BINS:
            angular = angular_chi2(deployment.x, deployment.y)
        else:
            skipped.append((None, "angular_chi2", f"{len(deployment)} points < {MIN_EXPECTED_PER_BIN * ANGULAR_BINS}"))
    else:
        skipped.append((None, "angular_chi2", "plan contains non-circular sectors"))
    tests = [("radial_ks", index, result) for index, result in radial]
    tests += [("areal_chi2", index, result) for index, result in areal]
    tests += [("angular_chi2", None, angular)] * (angular is not None)
    return StatReport(per_sector=tuple(per_sector), tests=tuple(tests), ks_alpha=ks_alpha, skipped=tuple(skipped))
