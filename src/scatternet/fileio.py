"""On-disk formats for deployments, metadata, plans, plot data and reports.

Coordinates are serialized with Python's shortest round-trip decimal
representation, so points written and re-read compare bitwise equal and
identical runs produce byte-identical files on every platform.
"""
from __future__ import annotations

import functools
import gc
import io
import itertools
import json
import math
import operator
import os
import sys
import warnings
from collections import deque
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path

import numpy as np

from .automatic import layer_plan, split_nodes
from .core import Annulus, Deployment, Disk, NetworkConfig, Rect, Sector, normal_area, validate_config
from .planned import DeploymentPlan

__all__ = [
    "FormatError",
    "write_points",
    "read_points",
    "read_ahead",
    "automatic_metadata",
    "planned_metadata",
    "write_metadata",
    "read_metadata",
    "deployment_from_files",
    "load_plan",
    "write_plot_data",
    "write_report",
]

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


# Points layouts: (head, open, field, close, sep, tail), as bytes.  A file is
# ``head``, its rows, then ``tail``; a row is ``open``, its fields joined by
# ``field``, then ``close``; rows are separated by ``sep``.  The writer formats
# each chunk once, as bytes of ``x,y,sector`` rows joined by newlines (floats
# by ``repr``, what ``json.dumps`` writes for finite floats; tags as integers),
# then turns "," into ``field`` and newlines into ``close + sep + open``: a
# float ``repr`` holds neither.  :func:`_ranges` cuts files at the same bytes.
_LAYOUTS = {
    "csv": (b"x,y,sector", b"\n", b",", b"", b"", b"\n"),
    "json": (b'{"columns": ["x", "y", "sector"], "points": [', b"[", b", ", b"]", b", ", b"]}\n"),
    "xy": (b"", b"", b" ", b"", b"\n", b"\n"),
}
_ROW_CHUNK = 1 << 14


def _format_rows(x, y, sector) -> bytes:
    """The ``x,y,sector`` rows of one chunk of the point arrays, joined by
    newlines, from one ``%`` of a bytes template over the interleaved values.

    Bytes ``%r`` is ``ascii(repr(value))``, which for a float is its
    ``repr``; ``%d`` of an int is ``str(int)``.  A ``Deployment`` holds
    integer tags only."""
    values = [None] * (3 * x.size)
    values[0::3], values[1::3], values[2::3] = x.tolist(), y.tolist(), sector.tolist()
    return (b"%r,%r,%d\n" * x.size % tuple(values))[:-1]


def _cpus() -> int:
    """CPUs the process may run on; 1 where the OS does not report its CPU
    set (``os.sched_getaffinity``, Linux)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextmanager
def _in_order(fn, jobs: list):
    """``fn(*job)`` for each of ``jobs``, in order, on every CPU available,
    for the life of one ``with`` block.

    With one job, or one CPU available to the process, this yields
    ``itertools.starmap`` and ``multiprocessing`` is not imported.
    Otherwise a fork pool of one worker per CPU (at most one per job) runs
    the jobs, two per worker in flight, so memory beyond the jobs stays
    bounded by the results not yet taken.  If that pool cannot start (an
    ``OSError``, such as no process left to fork), the jobs run
    in-process, as on one CPU.  A job that raises raises where its result
    is taken.

    Left normally or by an ``Exception``, the pool finishes the jobs it was
    sent and its workers are joined: a worker terminated while it sends a
    result leaves the pool's result queue locked, and terminating the pool
    then hangs.  Left by KeyboardInterrupt or another exception that is not
    an ``Exception``, the pool is terminated at once.

    Workers are forked: ``fn`` must call no BLAS and take no lock that the
    parent holds (the parent's other threads do not exist in them).
    """
    workers = min(_cpus(), len(jobs))
    pool = None
    if workers > 1:
        import multiprocessing  # deferred, so that one-job calls never load it

        with suppress(OSError):
            pool = multiprocessing.get_context("fork").Pool(workers)
    if pool is None:
        yield itertools.starmap(fn, jobs)
        return
    with pool:  # its exit terminates the pool
        try:
            yield _taken_in_order(pool, fn, jobs, 2 * workers)
        except Exception:
            pool.close()
            pool.join()
            raise
        pool.close()
        pool.join()


def _taken_in_order(pool, fn, jobs, window: int):
    """``fn(*job)`` for each of ``jobs`` on ``pool``, with at most ``window``
    jobs sent and not yet taken back."""
    pending = deque()
    for job in jobs:
        pending.append(pool.apply_async(fn, job))
        if len(pending) == window:
            yield pending.popleft().get()
    while pending:
        yield pending.popleft().get()


def _stream_points(deployment: Deployment, targets) -> None:
    """Write the point set to every ``(path, layout)`` of ``targets``.

    Rows are formatted ``_ROW_CHUNK`` at a time, once for all targets, on
    every CPU available to the process (see :func:`_in_order`); chunks
    are written in order, so the bytes depend on neither the chunk size
    nor the CPU count, and memory beyond the point arrays stays bounded by
    the chunks in flight.  The pool lives only for this call.

    Each target lays a chunk out as its ``_LAYOUTS`` entry states, skipping
    a replace whose strings are equal, and writes it in pieces (``sep``
    after the first chunk, ``open``, the text, ``close``), never joined.

    Workers only turn the arrays they are sent into bytes; files are opened
    in binary mode, so the parent only unpickles and writes.  Workers are
    forked before the output files are opened, so none holds a copy of a
    file's buffer, and they are joined before this call returns or raises.
    """
    x, y, sector = deployment.x, deployment.y, deployment.sector
    chunks = [
        (x[start:start + _ROW_CHUNK], y[start:start + _ROW_CHUNK], sector[start:start + _ROW_CHUNK])
        for start in range(0, x.size, _ROW_CHUNK)
    ]
    with _in_order(_format_rows, chunks) as texts, ExitStack() as stack:
        files = [(stack.enter_context(Path(path).open("wb")), _LAYOUTS[layout]) for path, layout in targets]
        for handle, (head, *_) in files:
            handle.write(head)
        for index, rows in enumerate(texts):
            for handle, (_, opening, field, closing, sep, _) in files:
                text = rows
                for old, new in ((b",", field), (b"\n", closing + sep + opening)):
                    if old != new:
                        text = text.replace(old, new)
                handle.writelines((sep if index else b"", opening, text, closing))
        for handle, (*_, tail) in files:
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


@contextmanager
def _gc_paused():
    """The cyclic garbage collector paused for one ``with`` block, then left
    enabled or disabled as it was found.  Parsing JSON points builds one list
    per row, whose allocations would set off collections that free nothing;
    free the rows inside the block, or the first collection after it walks
    them all."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _json_rows(rows):
    """The three columns of ``rows``, a list of ``[x, y, sector]`` lists, or
    None if it is anything else."""
    if isinstance(rows, list) and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}:
        columns = [_json_column(rows, i, types, dtype) for i, (types, dtype) in enumerate(_JSON_COLUMNS)]
        if not any(column is None for column in columns):
            return tuple(columns)
    return None


def _json_points(path):
    """Arrays of a points JSON file whose ``columns`` are exactly
    ``["x", "y", "sector"]`` and whose every point is ``[x, y, sector]``:
    two finite JSON numbers and a JSON integer (not a boolean).

    This parser defines the format and gives every error message.
    """
    with _gc_paused():
        payload = _load_json(path)
        if not isinstance(payload, dict) or payload.get("columns") != ["x", "y", "sector"]:
            raise FormatError(f"{path}: expected \"columns\": [\"x\", \"y\", \"sector\"]")
        columns = _json_rows(payload.pop("points", None))  # popped: the rows are freed while paused
    if columns is not None:
        return columns
    raise FormatError(
        f"{path}: expected a \"points\" array of [x, y, sector] rows: "
        f"two finite numbers and an integer"
    )


# Bytes of a points CSV body: ASCII digits, signs, points, exponent marks,
# commas, spaces and newlines.  Anything else (``\r``, tabs, underscores,
# non-ASCII digits or spaces) is refused before ``np.loadtxt`` sees it.
_LOADTXT_BYTES = b"0123456789+-.eE, \n"
_CSV_HEAD = b"".join(_LAYOUTS["csv"][:2])  # head and the first row's open
_CSV_ROW = np.dtype([("x", "f8"), ("y", "f8"), ("s", "i8")])


def _read_range(path, begin: int, end: int):
    """Bytes ``begin`` to ``end`` of the file, or None if it ends sooner."""
    with open(path, "rb") as handle:
        handle.seek(begin)
        data = handle.read(end - begin)
    return data if len(data) == end - begin else None


def _csv_range(path, begin: int, end: int):
    """Arrays of the CSV rows in bytes ``begin`` to ``end``, or None.

    This parser defines the points CSV body.  Only ``_LOADTXT_BYTES`` are
    read; empty lines are skipped; every other line must be a row that
    ``np.loadtxt`` reads as two finite float64 coordinates and an int64
    tag.  Acceptance is per line, so a range is accepted exactly when each
    of its lines is.  A range of newlines only holds no rows.

    A range that is the whole body, from the end of the header line to the
    end of the file, ``loadtxt`` reads from the path, about a sixth
    faster; any other range it reads from memory.  With no ``\r`` in the
    bytes, the two reads cannot differ.
    """
    data = _read_range(path, begin, end)
    if data is None or data.translate(None, _LOADTXT_BYTES):
        return None
    if not data.lstrip(b"\n"):
        rows = np.empty(0, dtype=_CSV_ROW)
    else:
        whole = begin == len(_CSV_HEAD) and end == os.path.getsize(path)
        source = path if whole else io.BytesIO(data)
        del data
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # integers read via float on older numpy
                rows = np.loadtxt(source, delimiter=",", skiprows=int(whole), comments=None, ndmin=1,
                                  dtype=_CSV_ROW)
        except (ValueError, Warning):
            return None
    x, y = rows["x"], rows["y"]
    return (x, y, rows["s"]) if np.isfinite(x).all() and np.isfinite(y).all() else None


def _csv_points(path):
    """Arrays of a points CSV file: the header line ``x,y,sector``, then a
    body that :func:`_csv_range` accepts as one range.

    A refused body is bisected by its lines with :func:`_csv_range` itself,
    which accepts a range exactly when it accepts each of its lines: about
    log2(n) calls, over about one more parse of the body, find the first
    refused line, which the :class:`FormatError` names as ``path:line``.
    """
    with open(path, "rb") as handle:
        if handle.read(len(_CSV_HEAD)) != _CSV_HEAD:
            raise FormatError(f"{path}:1: expected the header line {_CSV_HEAD.decode()!r}")
        begin = handle.tell()
        end = os.fstat(handle.fileno()).st_size
    rows = _csv_range(path, begin, end)
    if rows is not None:
        return rows
    with open(path, "rb") as handle:
        handle.seek(begin - 1)
        data = handle.read()
    # offsets in ``data`` of the header's newline, every body newline and the end
    cuts = np.append(np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")), len(data))
    lo, hi = 0, len(cuts) - 1  # body lines lo..hi-1, 0-based, hold the first refused line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _csv_range(path, begin + int(cuts[lo]), begin - 1 + int(cuts[mid])) is None:
            hi = mid
        else:
            lo = mid
    line = data[cuts[lo] + 1:cuts[lo + 1]]
    shown = repr(line[:80].decode(errors="replace")) + ("..." if len(line) > 80 else "")
    raise FormatError(f"{path}:{lo + 2}: expected x,y,sector, two finite numbers and a 64-bit integer, "
                      f"got {shown}")


def _json_range(path, begin: int, end: int):
    """Arrays of the JSON points in bytes ``begin`` to ``end``, or None.

    The bytes are the text between the ``[`` of a first row and the ``]`` of
    a last one, as ASCII.  ``[[`` + text + ``]]`` must be one JSON array of
    rows that ``_json_rows`` accepts, so the text holds whole rows and
    brackets that close no more than it opens.
    """
    data = _read_range(path, begin, end)
    if data is None:
        return None
    with _gc_paused():
        try:
            rows = json.loads("[[" + data.decode("ascii") + "]]")
        except (ValueError, RecursionError):  # also non-ASCII bytes and too deep nesting
            return None
        columns = _json_rows(rows)
        del rows  # freed while paused, or the next collection would walk every row
    return columns


# Points layouts as read: (range parser, strict parser).  The strict parser
# reads a whole file and words every error.
_READ_LAYOUTS = {"csv": (_csv_range, _csv_points), "json": (_json_range, _json_points)}
# Bytes per range, at least: a file of fewer than two ranges is read whole by
# its strict parser; a larger one is cut into up to one range per CPU.  On a
# 2-CPU host two ranges beat one from about 4 MB, in both formats.
_RANGE_BYTES = 2 << 20
_SCAN_BYTES = 1 << 16


def _ranges(path, layout: str):
    """``(path, begin, end)`` of each byte range of a points file in
    ``layout``, or None if the file does not start and end as the writer's
    files do: with ``head + open`` and ``close + tail`` of its ``_LAYOUTS``
    entry (so a CSV without its final newline is not cut).  Ranges are cut
    at row separators, ``close + sep + open``, which belong to no range.
    There is at most one range per CPU, each of at least ``_RANGE_BYTES``.
    Each range but the last ends at the first row separator within
    ``_SCAN_BYTES`` of its share's nominal end; where there is none, the
    rest of the file is the last range."""
    head, opening, _, closing, sep, tail = _LAYOUTS[layout]
    head, separator, tail = head + opening, closing + sep + opening, closing + tail
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        begin, stop = len(head), size - len(tail)
        if handle.read(begin) != head or begin > stop:
            return None
        handle.seek(stop)
        if handle.read() != tail:
            return None
        count = max(1, min(_cpus(), (stop - begin) // _RANGE_BYTES))
        ranges, start = [], begin
        for index in range(1, count):
            at = max(start, begin + index * (stop - begin) // count)
            handle.seek(at)
            found = handle.read(min(_SCAN_BYTES, stop - at)).find(separator)
            if found < 0:
                break
            ranges.append((path, start, at + found))
            start = at + found + len(separator)
    return ranges + [(path, start, stop)]


def _layout_of(path: Path) -> str:
    return "json" if path.suffix == ".json" else "csv"


def read_points(path):
    """Read a points file (CSV or JSON, judged by suffix) back into arrays.

    Both formats hold finite coordinates and 64-bit integer tags; anything
    else raises :class:`FormatError`.  Every read is one of a
    :func:`read_ahead` block; a read outside one reads as a block of its
    one file.  A file that the block cut into two or more byte ranges
    (see :func:`_ranges`) takes its parsed ranges from the block's
    stream; workers read their own ranges, so in a parallel read no
    process holds the whole file.  Every other file, and one whose ranges
    are refused, is read whole, in-process, by the strict parser of its
    format, which words every error: :func:`_csv_points` names
    ``path:line``, :func:`_json_points` the path.  The range parsers read
    exactly what the strict parsers read, so the outcome depends on
    neither the CPU count nor the range size.
    """
    path = Path(path)
    with ExitStack() as stack:
        if _ahead is None:
            stack.enter_context(read_ahead([path], [path]))  # one entry: no later one to overwrite
        parts = _taken_ahead(path)
    if parts and all(part is not None for part in parts):
        return tuple(np.concatenate(column) for column in zip(*parts))
    return _READ_LAYOUTS[_layout_of(path)][1](path)


# The read-ahead block in progress, if any: its entries that no read has
# taken, as ``(path, range count)`` in order, and the stream of their
# parsed ranges (see :func:`read_ahead`).  It is the module's, as reads
# reach :func:`read_points` through ``deployment_from_files(points, meta)``.
_ahead = None


def _file_id(path):
    stat = os.stat(path)
    return stat.st_dev, stat.st_ino


def _parse_ahead(layout: str, path, begin: int, end: int):
    """The range parser of ``layout`` on one range, or the exception it
    raised: its file raises it at its read, and the stream goes on."""
    try:
        return _READ_LAYOUTS[layout][0](path, begin, end)
    except Exception as exc:
        return exc


@contextmanager
def read_ahead(paths, writes):
    """Parse the points files ``paths`` ahead of their reads, in order, for
    one ``with`` block; ``writes[i]`` is a file that the caller may write
    after it reads ``paths[i]``.

    One :func:`_in_order` stream parses the ranges of every file that
    :func:`_ranges` cuts into two or more, so one pool serves the block,
    and parses the next files while the caller works on this one.
    :func:`read_points` of ``paths[i]`` takes the ranges of the first
    entry of that path that no read has taken, and drops those of the
    entries before it, whose files the caller did not read.  Every other
    file is read whole at its read, by its strict parser: a file of one
    range, one that ``_ranges`` refuses or raises on, one that is the
    same file as an earlier entry's ``writes``, and a path not listed.

    At entry, only a file that one ``os.stat`` shows long enough for two
    ranges is opened, and only on two or more CPUs.

    A range that raises raises at its file's read, and later files are
    still read.  On one CPU no file is cut; if the pool cannot start, the
    stream parses each file's ranges in-process, at its read.  The block
    is left as :func:`_in_order`'s is, with no entry left.
    """
    global _ahead
    entries, jobs, written = deque(), [], set()
    cpus = _cpus()
    for path, write in zip(map(Path, paths), writes):
        layout = _layout_of(path)
        head, opening, _, closing, _, tail = _LAYOUTS[layout]
        try:
            stat = os.stat(path)
            # too small for two ranges of _RANGE_BYTES past the head and before the tail
            short = stat.st_size < 2 * _RANGE_BYTES + len(head + opening) + len(closing + tail)
            cut = cpus > 1 and not short and (stat.st_dev, stat.st_ino) not in written
            ranges = _ranges(path, layout) if cut else None
        except (OSError, ValueError):
            ranges = None
        ranges = ranges if ranges is not None and len(ranges) > 1 else []
        entries.append((path, len(ranges)))
        jobs += [(layout, *cut) for cut in ranges]
        with suppress(OSError, ValueError):  # a file it creates is none of ``paths``
            written.add(_file_id(write))
    with _in_order(_parse_ahead, jobs) as parsed:
        _ahead = entries, parsed
        try:
            yield
        finally:
            _ahead = None


def _taken_ahead(path: Path):
    """The parsed ranges of ``path`` from the read-ahead block in progress,
    or an empty list if it has none."""
    entries, parsed = _ahead
    index = next((i for i, (entry, _) in enumerate(entries) if entry == path), None)
    if index is None:
        return []
    for _ in range(index):  # entries whose files were not read: their ranges are dropped
        deque(itertools.islice(parsed, entries.popleft()[1]), maxlen=0)
    parts = list(itertools.islice(parsed, entries.popleft()[1]))
    for part in parts:
        if isinstance(part, Exception):
            raise part
    return parts


def automatic_metadata(deployment: Deployment, run: int) -> dict:
    """Metadata record for an automatic run; key names are part of the format."""
    cfg = deployment.config
    layers = deployment.plan.sectors
    return {
        "L": float(cfg.radius),
        "n_Lmax": int(cfg.max_layers),
        "n_S": int(cfg.nodes),
        "seed": int(cfg.seed),
        "run": int(run),
        "n_L": len(layers),
        "radii": [float(sec.shape.outer) for sec in layers[:-1]],
        "n_in": int(layers[0].count),
        "n_out": int(layers[1].count),
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
    return config, layer_plan(radius, [_number(r, "radii entry") for r in meta["radii"]], *split)


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
    if deployment.config is not None:
        radii = [sec.shape.outer for sec in deployment.plan.sectors]
        Path(rings_path).write_text("\n".join(repr(float(r)) for r in radii) + "\n")


# Records of a report list encoded per call of json's C encoder, which
# separates a batch's values by a newline: no encoded value holds one.
_REPORT_BATCH = 1024
_VALUES = json.JSONEncoder(separators=(",\n", ": "))


@functools.lru_cache(maxsize=16)
def _record_layout(keys: tuple) -> str:
    """The ``%`` template of a record with ``keys`` in a report list, as
    ``json.dumps(..., indent=2)`` lays it out at the report's second level."""
    return "{" + ",".join("\n      " + json.dumps(key).replace("%", "%%") + ": %s" for key in keys) + "\n    }"


def _report_records(records):
    """The records of a report list, in pieces of ``_REPORT_BATCH`` records.

    Every record is a flat JSON object with the keys of the first, in its
    order.  Each batch's values are encoded in one call of the C encoder,
    as one flat array, and fill one ``%`` template of the batch's records."""
    keys = tuple(records[0])
    record = _record_layout(keys)
    for start in range(0, len(records), _REPORT_BATCH):
        batch = records[start:start + _REPORT_BATCH]
        if set(map(len, batch)) != {len(keys)}:
            raise ValueError(f"report records must share their keys, {list(keys)}")
        rows = map(operator.itemgetter(*keys), batch)  # a tuple per record, or one value for one key
        text = _VALUES.encode(list(itertools.chain.from_iterable(rows) if len(keys) > 1 else rows))
        yield ",\n    " if start else "\n    "
        yield ",\n    ".join([record] * len(batch)) % tuple(text[1:-1].split(",\n"))


def write_report(path, report) -> None:
    """Write the report as ``json.dump(report.to_dict(), indent=2)`` does,
    and a final newline.  Its lists of records are encoded in batches, so a
    report with a line per sector is never held as one string."""
    payload = report.to_dict()
    with Path(path).open("w") as handle:
        for number, (key, value) in enumerate(payload.items()):
            handle.write(("{\n  " if number == 0 else ",\n  ") + json.dumps(key) + ": ")
            if isinstance(value, list) and value:
                handle.write("[")
                handle.writelines(_report_records(value))
                handle.write("\n  ]")
            elif isinstance(value, dict):
                handle.write(json.dumps(value, indent=2).replace("\n", "\n  "))
            else:  # a number, a boolean, null or an empty list: no layout
                handle.write(json.dumps(value))
        handle.write("\n}\n")
