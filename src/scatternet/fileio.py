"""On-disk formats for deployments, metadata, plans, plot data and reports.

Coordinates are serialized with Python's shortest round-trip decimal
representation, so points written and re-read compare bitwise equal and
identical runs produce byte-identical files on every platform.
"""
from __future__ import annotations

import json
import math
import os
import sys
import warnings
from collections import deque
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from .automatic import layer_plan, split_nodes
from .core import Annulus, Deployment, Disk, LayerSet, NetworkConfig, Rect, Sector, normal_area, validate_config
from .planned import DeploymentPlan

__all__ = [
    "FormatError",
    "write_points",
    "read_points",
    "automatic_metadata",
    "planned_metadata",
    "write_metadata",
    "read_metadata",
    "deployment_from_files",
    "load_plan",
    "write_plot_data",
    "write_report",
]

POINTS_HEADER = "x,y,sector"


class FormatError(ValueError):
    """A file does not conform to its declared schema."""


def _number(value, what: str) -> float:
    """``value`` as a float, if it is a finite JSON number (not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise FormatError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """``value`` itself if it is a JSON integer (not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _load_json(path):
    try:
        return json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # also undecodable bytes and too deep nesting
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


# Points layouts.  Each chunk of rows is formatted once, as ``x,y,sector``
# rows joined by newlines: floats by ``repr`` (shortest round-trip, what
# ``json.dumps`` writes for finite floats), tags as integers.  Every layout is
# derived from that text by ``replacements``, applied in order; a float
# ``repr`` never holds ",", " ", "[" or a newline, so they touch only the
# separators.  A file is ``head + sep.join(chunk.format(text)) + tail``.
_ROW = "{!r},{!r},{}"
_LAYOUTS = {
    # layout: (head, chunk, sep, tail, replacements)
    "csv": (POINTS_HEADER, "\n{}", "", "\n", ()),
    "json": ('{"columns": ["x", "y", "sector"], "points": [', "[{}]", ", ", "]}\n", ((",", ", "), ("\n", "], ["))),
    "xy": ("", "{}", "\n", "\n", ((",", " "),)),
}
_ROW_CHUNK = 1 << 14


def _format_rows(chunk) -> str:
    """The ``x,y,sector`` rows of one chunk of the point arrays, joined by newlines."""
    x, y, sector = chunk
    return "\n".join(map(_ROW.format, x.tolist(), y.tolist(), sector.tolist()))


def _in_order(pool, chunks, window: int):
    """``map(_format_rows, chunks)`` on ``pool``, with at most ``window``
    chunks sent and not yet taken back."""
    pending = deque()
    for chunk in chunks:
        pending.append(pool.apply_async(_format_rows, (chunk,)))
        if len(pending) == window:
            yield pending.popleft().get()
    while pending:
        yield pending.popleft().get()


def _chunk_texts(stack: ExitStack, chunks: list):
    """The text of each chunk, in order.

    With one chunk, or one CPU available to the process, this is the
    builtin ``map``.  Otherwise a pool of one worker per CPU (at most one
    per chunk), which ``stack`` tears down, formats them, two chunks per
    worker in flight.  Where the OS does not report the process's CPU set
    (``os.sched_getaffinity``, Linux), chunks are formatted here.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(chunks))
    if workers < 2:
        return map(_format_rows, chunks)
    import multiprocessing  # deferred, so that one-chunk runs never load it

    pool = stack.enter_context(multiprocessing.get_context("fork").Pool(workers))
    return _in_order(pool, chunks, 2 * workers)


def _stream_points(deployment: Deployment, targets) -> None:
    """Write the point set to every ``(path, layout)`` of ``targets``.

    Rows are formatted ``_ROW_CHUNK`` at a time, once for all targets, on
    every CPU available to the process (see :func:`_chunk_texts`); chunks
    are written in order, so the bytes depend on neither the chunk size
    nor the CPU count, and memory beyond the point arrays stays bounded by
    the chunks in flight.  The pool lives only for this call.

    Workers are forked: they only turn the arrays they are sent into
    strings, so they call no BLAS and take no lock that the parent holds
    (the parent's other threads do not exist in them).  They are forked
    before the output files are opened, so none holds a copy of a file's
    buffer, and they are joined before this call returns or raises.
    """
    x, y, sector = deployment.x, deployment.y, deployment.sector
    chunks = [
        (x[start:start + _ROW_CHUNK], y[start:start + _ROW_CHUNK], sector[start:start + _ROW_CHUNK])
        for start in range(0, x.size, _ROW_CHUNK)
    ]
    with ExitStack() as stack:
        texts = _chunk_texts(stack, chunks)
        files = [(stack.enter_context(Path(path).open("w")), _LAYOUTS[layout]) for path, layout in targets]
        for handle, (head, *_) in files:
            handle.write(head)
        for index, rows in enumerate(texts):
            for handle, (_, chunk, sep, _, replacements) in files:
                text = rows
                for old, new in replacements:
                    text = text.replace(old, new)
                if index:
                    handle.write(sep)
                handle.write(chunk.format(text))
        for handle, (*_, tail, _) in files:
            handle.write(tail)


def write_points(path, deployment: Deployment, fmt: str = "csv", xy_path=None) -> None:
    """Write the point set as CSV (``x,y,sector`` rows) or JSON.

    With ``xy_path``, the same pass also writes the scatter data for
    external plotting there: the rows separated by whitespace, so each
    coordinate is turned into text once.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown points format {fmt!r}")
    _stream_points(deployment, [(path, fmt)] + ([(xy_path, "xy")] if xy_path is not None else []))


# (accepted Python types, array dtype) of the three points JSON columns
_JSON_COLUMNS = (({int, float}, np.float64), ({int, float}, np.float64), ({int}, np.int64))


def _json_column(rows, column: int, types: set, dtype):
    """Column ``column`` of the rows as a finite ``dtype`` array, or None if
    any value has another type or does not fit.  Type sets over whole
    columns keep the check cheap at a million points."""
    values = [row[column] for row in rows]
    if not set(map(type, values)) <= types:
        return None
    try:
        array = np.fromiter(values, dtype=dtype, count=len(values))
    except OverflowError:
        return None
    return array if np.isfinite(array).all() else None


def _json_points(path):
    """Arrays of a points JSON file whose ``columns`` are exactly
    ``["x", "y", "sector"]`` and whose every point is ``[x, y, sector]``:
    two finite JSON numbers and a JSON integer (not a boolean)."""
    payload = _load_json(path)
    if not isinstance(payload, dict) or payload.get("columns") != ["x", "y", "sector"]:
        raise FormatError(f"{path}: expected \"columns\": [\"x\", \"y\", \"sector\"]")
    rows = payload.get("points")
    if isinstance(rows, list) and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}:
        columns = [_json_column(rows, i, types, dtype) for i, (types, dtype) in enumerate(_JSON_COLUMNS)]
        if not any(column is None for column in columns):
            return tuple(columns)
    raise FormatError(
        f"{path}: expected a \"points\" array of [x, y, sector] rows: "
        f"two finite numbers and an integer"
    )


def _data_line(lines, row: int) -> int:
    """1-based line number of data row ``row`` (0-based); blank lines hold no row."""
    return [lineno for lineno, line in enumerate(lines[1:], start=2) if line.strip()][row]


def _csv_points_by_line(path):
    """Arrays of a points CSV file: a header, then ``x,y,sector`` rows of two
    finite numbers and a 64-bit integer; blank lines are skipped.

    This parser defines the format and names ``path:line`` in every error.
    """
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid text ({exc})") from exc
    if not lines or lines[0].strip() != POINTS_HEADER:
        raise FormatError(f"{path}: expected header {POINTS_HEADER!r}")
    xs, ys, tags = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 comma-separated fields")
        try:
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
            tags.append(int(parts[2]))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    x = np.array(xs, dtype=np.float64)
    y = np.array(ys, dtype=np.float64)
    try:
        sector = np.array(tags, dtype=np.int64)
    except OverflowError:
        row = next(i for i, tag in enumerate(tags) if not -(2**63) <= tag < 2**63)
        where = f"{path}:{_data_line(lines, row)}"
        raise FormatError(f"{where}: sector tag {tags[row]} does not fit in 64 bits") from None
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        row = int(np.argmin(finite))
        where = f"{path}:{_data_line(lines, row)}"
        raise FormatError(f"{where}: coordinates must be finite, got ({x[row]}, {y[row]})")
    return x, y, sector


# Bytes of a points CSV file that ``np.loadtxt`` reads exactly as
# ``_csv_points_by_line`` does: ASCII digits, signs, points, exponent marks,
# commas, spaces and line ends.  Others (underscores, non-ASCII digits, the
# control characters that ``str.splitlines`` breaks lines at but ``loadtxt``
# strips as whitespace) are left to the line parser.
_LOADTXT_BYTES = b"0123456789+-.eE, \n\r"
_CSV_ROW = np.dtype([("x", "f8"), ("y", "f8"), ("s", "i8")])


def _csv_points(path):
    """Arrays of a points CSV file, as ``_csv_points_by_line`` reads it.

    A file of nothing but the header and ``_LOADTXT_BYTES`` is parsed by
    ``np.loadtxt``; if that fails or reads a non-finite coordinate, and for
    any other file, the line parser reads it and names the faulty line.
    """
    header = POINTS_HEADER.encode()
    data = path.read_bytes()
    simple = (
        data.startswith(header) and data[len(header):len(header) + 1] in (b"", b"\n", b"\r")
        and data.translate(None, _LOADTXT_BYTES) == header.translate(None, _LOADTXT_BYTES)
    )
    del data
    if simple:
        try:
            with warnings.catch_warnings():
                # "input contained no data", and integers read via float on older numpy
                warnings.simplefilter("error")
                rows = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=1, dtype=_CSV_ROW)
        except (ValueError, Warning):
            pass
        else:
            x, y = rows["x"], rows["y"]
            if np.isfinite(x).all() and np.isfinite(y).all():
                return x.copy(), y.copy(), rows["s"].copy()
    return _csv_points_by_line(path)


def read_points(path):
    """Read a points file (CSV or JSON, judged by suffix) back into arrays.

    Both formats hold finite coordinates and 64-bit integer tags; anything
    else raises :class:`FormatError`.
    """
    path = Path(path)
    return _json_points(path) if path.suffix == ".json" else _csv_points(path)


def automatic_metadata(deployment: Deployment, run: int) -> dict:
    """Metadata record for an automatic run; key names are part of the format."""
    cfg = deployment.config
    ls = deployment.layer_set
    return {
        "L": float(cfg.radius),
        "n_Lmax": int(cfg.max_layers),
        "n_S": int(cfg.nodes),
        "seed": int(cfg.seed),
        "run": int(run),
        "n_L": int(ls.layer_count),
        "radii": [float(r) for r in ls.boundaries],
        "n_in": int(deployment.inner_count),
        "n_out": int(deployment.outer_count),
    }


def planned_metadata(deployment: Deployment, run: int, seed: int) -> dict:
    return {
        "seed": int(seed),
        "run": int(run),
        "plan": [_sector_to_obj(sec) for sec in deployment.plan.sectors],
    }


def write_metadata(path, meta: dict) -> None:
    Path(path).write_text(json.dumps(meta) + "\n")


def read_metadata(path) -> dict:
    path = Path(path)
    meta = _load_json(path)
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: metadata must be a JSON object")
    return meta


_AUTOMATIC_INTEGERS = ("n_Lmax", "n_S", "seed", "run", "n_L", "n_in", "n_out")


def _automatic_from_meta(meta):
    """The configuration and layer plan that automatic-run metadata records."""
    missing = {"L", "radii", *_AUTOMATIC_INTEGERS} - meta.keys()
    if missing:
        raise FormatError(f"missing metadata keys {sorted(missing)}")
    ints = {key: _integer(meta[key], key) for key in _AUTOMATIC_INTEGERS}
    radius = _number(meta["L"], "L")
    if not isinstance(meta["radii"], list):
        raise FormatError(f"radii must be a list, got {meta['radii']!r}")
    if ints["n_L"] != len(meta["radii"]) + 1:
        raise FormatError(f"n_L is {ints['n_L']} but radii lists {len(meta['radii'])} boundaries")
    config = validate_config(
        NetworkConfig(radius=radius, max_layers=ints["n_Lmax"], nodes=ints["n_S"], seed=ints["seed"])
    )
    layers = ints["n_L"]
    if not 2 <= layers <= config.max_layers:
        raise FormatError(f"n_L is {layers} but must lie in 2..n_Lmax = {config.max_layers}")
    split = split_nodes(config.nodes, layers)
    if (ints["n_in"], ints["n_out"]) != split:
        raise FormatError(
            f"(n_in, n_out) is ({ints['n_in']}, {ints['n_out']}) but n_S = {config.nodes} "
            f"split over n_L = {layers} layers is {split}"
        )
    layer_set = LayerSet(radius=radius, boundaries=tuple(_number(r, "radii entry") for r in meta["radii"]))
    return config, layer_plan(layer_set, *split)


def deployment_from_files(points_path, meta_path) -> Deployment:
    """Rebuild a Deployment (including its geometry) from a run's two files.

    Metadata must carry JSON integers where integers are written and agree
    with itself for automatic runs: ``n_L == len(radii) + 1``,
    ``2 <= n_L <= n_Lmax`` and ``(n_in, n_out) == split_nodes(n_S, n_L)``,
    the split the run drew its quotas from.  Every sector
    tag must name a sector of the plan, 1..k.  Any violation raises
    :class:`FormatError`, whose message starts with the faulty file's path.
    """
    x, y, sector = read_points(points_path)
    meta = read_metadata(meta_path)
    config = None
    if "n_L" in meta:
        try:
            config, plan = _automatic_from_meta(meta)
        except ValueError as exc:  # FormatError, ConfigError and the geometry checks
            raise FormatError(f"{meta_path}: {exc}") from exc
    elif "plan" in meta:
        plan = _plan_from_objects(meta["plan"], meta_path)
    else:
        raise FormatError(f"{meta_path}: metadata carries neither 'n_L' nor 'plan'")
    try:
        return Deployment(x=x, y=y, sector=sector, config=config, plan=plan)
    except ValueError as exc:  # a tag outside the plan
        raise FormatError(f"{points_path}: {exc}") from exc


# plan "shape" name -> (class, {JSON field: attribute}), fields in file order
_SHAPES = {
    "annulus": (Annulus, {"r_inner": "inner", "r_outer": "outer"}),
    "disk": (Disk, {"r": "radius"}),
    "rect": (Rect, {name: name for name in ("x0", "y0", "x1", "y1")}),
}


def _sector_to_obj(sector: Sector) -> dict:
    kind = next(kind for kind, (cls, _) in _SHAPES.items() if isinstance(sector.shape, cls))
    fields = {key: getattr(sector.shape, attr) for key, attr in _SHAPES[kind][1].items()}
    return {"shape": kind, **fields, "n": sector.count}


def _obj_to_sector(obj, index: int) -> Sector:
    """A sector from its plan object: finite coordinates, a normal positive
    finite area and a non-boolean integer ``n``."""
    where = f"sector {index}"
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: must be a JSON object")
    kind = obj.get("shape")
    if not isinstance(kind, str) or kind not in _SHAPES:
        raise FormatError(f"{where}: unknown shape {kind!r}")
    cls, fields = _SHAPES[kind]
    try:
        shape = cls(*(_number(obj[name], name) for name in fields))
        sector = Sector(shape=shape, count=_integer(obj["n"], "n"))
        area = shape.area()
    except KeyError as exc:
        raise FormatError(f"{where}: missing field {exc.args[0]!r}") from exc
    except OverflowError:
        area = math.inf
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    if not normal_area(area):
        raise FormatError(f"{where}: area {area} is not a normal positive finite number")
    return sector


def _plan_from_objects(data, where) -> DeploymentPlan:
    """The plan of a JSON array of sector objects; every error names ``where``."""
    try:
        if not isinstance(data, list) or not data:
            raise FormatError("plan must be a non-empty JSON array of sector objects")
        return DeploymentPlan(sectors=tuple(_obj_to_sector(obj, i) for i, obj in enumerate(data, start=1)))
    except FormatError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def load_plan(path) -> DeploymentPlan:
    """Parse a plan file: a JSON array of sector objects."""
    path = Path(path)
    return _plan_from_objects(_load_json(path), path)


def write_plot_data(rings_path, deployment: Deployment) -> None:
    """Ring boundaries for external plotting, beside the scatter data that
    :func:`write_points` writes with ``xy_path``.

    The rings file lists the interior layer radii followed by the outer
    radius; it is only written for automatic deployments.
    """
    if deployment.layer_set is not None:
        ls = deployment.layer_set
        radii = list(ls.boundaries) + [ls.radius]
        Path(rings_path).write_text("\n".join(repr(float(r)) for r in radii) + "\n")


def write_report(path, report) -> None:
    # streamed, so a report with a line per sector is never held as one string
    with Path(path).open("w") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")
