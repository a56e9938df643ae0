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
import os
import sys
import warnings
from collections import deque
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path

import numpy as np

from .automatic import layer_plan, split_nodes
from .core import Annulus, Deployment, DeploymentPlan, Disk, NetworkConfig, Rect, Sector, normal_area, validate_config

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
# float ``repr`` holds neither.  :func:`_ranges` cuts CSV files at the same bytes.
_LAYOUTS = {
    "csv": (b"x,y,sector", b"\n", b",", b"", b"", b"\n"),
    "json": (b'{"columns": ["x", "y", "sector"], "points": [', b"[", b", ", b"]", b", ", b"]}\n"),
    "xy": (b"", b"", b" ", b"", b"\n", b"\n"),
}
_ROW_CHUNK = 1 << 14
# Rows from which a chunk is formatted by the numpy kernel: below it the
# bytes template's lower fixed cost wins.  On a 2-vCPU VM the two broke even
# between 200 and 400 rows; at 100 rows the kernel took 2-4 times as long.
_KERNEL_ROWS = 400
# Bytes of a row in any layout, at most: two 24-byte float reprs, a 20-byte tag
# (-2.2250738585072014e-308, -9223372036854775808) and JSON's 8 of layout.
_ROW_BYTES = 80
_IN_FLIGHT = 2  # jobs per pool worker sent and not yet taken back


def _format_rows(x, y, sector) -> bytes:
    """The ``x,y,sector`` rows of one chunk of the point arrays, joined by
    newlines: the bytes of ``b"%r,%r,%d\\n" % row`` for each row.

    Bytes ``%r`` is ``ascii(repr(value))``, which for a float is its
    ``repr``; ``%d`` of an int is ``str(int)``.  A ``Deployment`` holds
    integer tags only.  Float64 coordinates of ``_KERNEL_ROWS`` rows or
    more are formatted by :mod:`scatternet._rowtext`, which computes the
    same bytes in numpy arrays; a smaller chunk, or coordinates of another
    dtype, by one ``%`` of the template over the interleaved values."""
    if x.size >= _KERNEL_ROWS and x.dtype == y.dtype == np.float64:
        from . import _rowtext  # deferred, so that importing the CLI does not load it

        return _rowtext.format_rows(x, y, sector)
    values = [None] * (3 * x.size)
    values[0::3], values[1::3], values[2::3] = x.tolist(), y.tolist(), sector.tolist()
    return (b"%r,%r,%d\n" * x.size % tuple(values))[:-1]


def _cpus() -> int:
    """CPUs the process may run on; 1 where the OS does not report its CPU
    set (``os.sched_getaffinity``, Linux)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextmanager
def _in_order(fn, jobs: list, workers: int):
    """``fn(*job)`` for each of ``jobs``, in order, on ``workers`` CPUs, for
    the life of one ``with`` block.

    Callers pass ``min(_cpus(), len(jobs))``, computed once, so that what
    they sized for the pool is the pool they get.  With ``workers`` below
    2 this yields ``itertools.starmap`` and ``multiprocessing`` is not
    imported.  Otherwise a fork pool of ``workers`` runs the jobs,
    ``_IN_FLIGHT`` per worker in flight, so memory beyond the jobs stays
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
            yield _taken_in_order(pool, fn, jobs, _IN_FLIGHT * workers)
        except Exception:
            pool.close()
            pool.join()
            raise
        pool.close()
        pool.join()


def _taken_in_order(pool, fn, jobs, window: int):
    """``fn(*job)`` for each of ``jobs`` on ``pool``, with at most ``window``
    jobs sent and not yet taken back: job k is sent only when the caller
    asks for the result after job k - ``window``'s."""
    pending = deque()
    for job in jobs:
        pending.append(pool.apply_async(fn, job))
        if len(pending) == window:
            yield pending.popleft().get()
    while pending:
        yield pending.popleft().get()


_slots = None  # the write in progress: point arrays, buffer, slot count, bytes per target and slot, layouts


def _lay_out(index: int) -> list:
    """Format chunk ``index`` of the write in progress and lay it out for
    each target, as ``sep`` (after the first chunk), ``open``, the rows and
    ``close``, into its share of slot ``index % slots``; the ``(offset,
    length)`` of each target's text in the buffer."""
    arrays, buffer, slots, share, layouts = _slots
    start, spans = index * _ROW_CHUNK, []
    rows = _format_rows(*(array[start:start + _ROW_CHUNK] for array in arrays))
    for number, (_, opening, field, closing, sep, _) in enumerate(layouts):
        text = rows
        for old, new in ((b",", field), (b"\n", closing + sep + opening)):
            if old != new:
                text = text.replace(old, new)
        pieces = (sep if index else b"", opening, text, closing)
        length = sum(map(len, pieces))
        if length > share:
            raise ValueError(f"chunk {index}: {length} bytes of text overflow a slot of {share}")
        at = end = (index % slots * len(layouts) + number) * share
        for piece in pieces:  # copied into the slot as they are, not joined first
            buffer[end:end + len(piece)] = piece
            end += len(piece)
        spans.append((at, length))
    return spans


def _stream_points(deployment: Deployment, targets) -> None:
    """Write the point set to every ``(path, layout)`` of ``targets``.

    :func:`_lay_out` formats rows ``_ROW_CHUNK`` at a time, on every CPU
    (see :func:`_in_order`), into ``_IN_FLIGHT`` slots per worker of a
    buffer mapped before the fork (anonymous shared ``mmap``; ``bytearray``
    if no pool is tried), each of ``_ROW_BYTES`` per target and row of the
    largest chunk, and reused only once written (:func:`_taken_in_order`);
    one worker count sizes both the slots and the pool.  A job is a chunk's
    index and returns where its texts lie: workers slice the arrays they
    forked with.  The parent writes ``memoryview`` slices of the slots in
    order, to files opened in binary mode after the fork, so the bytes
    depend on neither the chunk size nor the CPU count.  Workers are
    joined, and the buffer freed, before this call returns or raises.
    """
    global _slots
    x, y, sector = deployment.x, deployment.y, deployment.sector
    if x.size >= _KERNEL_ROWS:
        from . import _rowtext

        _rowtext.tables()  # built once, before the workers fork, so that they share them
    chunks = [(index,) for index in range(-(-x.size // _ROW_CHUNK))]
    layouts = [_LAYOUTS[layout] for _, layout in targets]
    workers = min(_cpus(), len(chunks))
    slots, share = _IN_FLIGHT * workers, min(x.size, _ROW_CHUNK) * _ROW_BYTES
    size = slots * share * len(layouts)
    try:
        with ExitStack() as stack:
            if workers > 1:
                import mmap  # deferred, so that a write in-process never loads it

                buffer = stack.enter_context(mmap.mmap(-1, size))
            else:
                buffer = bytearray(size)
            _slots = (x, y, sector), buffer, slots, share, layouts
            laid_out = stack.enter_context(_in_order(_lay_out, chunks, workers))
            view = stack.enter_context(memoryview(buffer))
            handles = [stack.enter_context(Path(path).open("wb")) for path, _ in targets]
            for handle, (head, *_) in zip(handles, layouts):
                handle.write(head)
            for spans in laid_out:
                for handle, (at, length) in zip(handles, spans):
                    handle.write(view[at:at + length])
            for handle, (*_, tail) in zip(handles, layouts):
                handle.write(tail)
    finally:
        _slots = None


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


# Points layouts as read: (the parser of a read-ahead job, the strict parser).
# The strict parser reads a whole file and words every error.  A CSV job parses
# one byte range; a JSON file is never cut, and its job is its strict parser.
_READ_LAYOUTS = {"csv": (_csv_range, _csv_points), "json": (_json_points, _json_points)}
# Bytes per range, at least.  A file too short for two ranges is read at its
# turn by its strict parser; a longer one is read ahead, a JSON file whole and
# a CSV file in up to one range per CPU.  On a 2-CPU host two ranges of a CSV
# file beat one from about 4 MB.
_RANGE_BYTES = 2 << 20
_SCAN_BYTES = 1 << 16


def _ranges(path, cpus: int) -> list:
    """``(path, begin, end)`` of each byte range of a points CSV file on
    ``cpus`` CPUs, or none if it is not cut.  It is cut by the size it has
    once open, and not at all if it does not start with ``_CSV_HEAD`` and
    end with a newline, as the writer's files do.  Ranges are cut at
    newlines, which belong to no range.  There is at most one range per
    CPU, each of at least ``_RANGE_BYTES``.  Each range but the last ends
    at the first newline within ``_SCAN_BYTES`` of its share's nominal end;
    where there is none, the rest of the file is the last range, and a file
    of one range is not cut."""
    with open(path, "rb") as handle:
        begin, stop = len(_CSV_HEAD), os.fstat(handle.fileno()).st_size - 1
        if handle.read(begin) != _CSV_HEAD or begin > stop:
            return []
        handle.seek(stop)
        if handle.read() != b"\n":
            return []
        count = max(1, min(cpus, (stop - begin) // _RANGE_BYTES))
        ranges, start = [], begin
        for index in range(1, count):
            at = max(start, begin + index * (stop - begin) // count)
            handle.seek(at)
            found = handle.read(min(_SCAN_BYTES, stop - at)).find(b"\n")
            if found < 0:
                break
            ranges.append((path, start, at + found))
            start = at + found + 1
    return ranges + [(path, start, stop)] if ranges else []


def _jobs(path, layout: str, cpus: int, size: int) -> list:
    """The read-ahead jobs of a points file in ``layout`` on ``cpus`` CPUs,
    as ``(layout, path, *range)``, or none if it is read at its turn.

    A file is read ahead only on two or more CPUs, and only if ``size``,
    its size as last seen, is long enough for two ranges of ``_RANGE_BYTES``
    past the head and before the tail of its ``_LAYOUTS`` entry; a shorter
    one is not opened.  A JSON file is then one job, which parses it whole;
    a CSV file is one job per range that :func:`_ranges` cuts."""
    head, opening, _, closing, _, tail = _LAYOUTS[layout]
    if cpus < 2 or size < 2 * _RANGE_BYTES + len(head + opening) + len(closing + tail):
        return []
    return [(layout, *cut) for cut in (_ranges(path, cpus) if layout == "csv" else [(path,)])]


def _layout_of(path: Path) -> str:
    return "json" if path.suffix == ".json" else "csv"


def read_points(path):
    """Read a points file (CSV or JSON, judged by suffix) back into arrays.

    Both formats hold finite coordinates and 64-bit integer tags; anything
    else raises :class:`FormatError`.  Every read is one of a
    :func:`read_ahead` block; a read outside one reads as a block of its
    one file.  A file that the block read ahead (see :func:`_jobs`) takes
    its parsed jobs from the block's stream: a JSON file's one job is its
    strict parser's outcome; a CSV file's jobs are its byte ranges, which
    workers read themselves, so in a parallel read no process holds the
    whole file.  Every other file, and a CSV file whose ranges are
    refused, is read whole, in-process, by the strict parser of its
    format, which words every error: :func:`_csv_points` names
    ``path:line``, :func:`_json_points` the path.  The range parser reads
    exactly what the strict parser reads, so the outcome depends on
    neither the CPU count nor the range size.
    """
    path = Path(path)
    with ExitStack() as stack:
        if _ahead is None:
            stack.enter_context(read_ahead([path], [path]))  # one entry: no later one to overwrite
        parts = _taken_ahead(path)
    if parts and all(part is not None for part in parts):
        return parts[0] if len(parts) == 1 else tuple(np.concatenate(column) for column in zip(*parts))
    return _READ_LAYOUTS[_layout_of(path)][1](path)


# The read-ahead block in progress, if any: its entries that no read has
# taken, as ``(path, job count)`` in order, and the stream of their
# parsed jobs (see :func:`read_ahead`).  It is the module's, as reads
# reach :func:`read_points` through ``deployment_from_files(points, meta)``.
_ahead = None


def _file_id(path):
    stat = os.stat(path)
    return stat.st_dev, stat.st_ino


def _parse_ahead(layout: str, path, *cut):
    """The job parser of ``layout`` on one job, or the exception it raised:
    its file raises it at its read, and the stream goes on."""
    try:
        return _READ_LAYOUTS[layout][0](path, *cut)
    except Exception as exc:
        return exc


@contextmanager
def read_ahead(paths, writes):
    """Parse the points files ``paths`` ahead of their reads, in order, for
    one ``with`` block; ``writes[i]`` is a file that the caller may write
    after it reads ``paths[i]``.

    One :func:`_in_order` stream runs the jobs of every file that
    :func:`_jobs` reads ahead: each JSON file whole, each CSV file in its
    byte ranges.  So one pool serves the block, with at most one worker per
    job, and parses the next files while the caller works on this one; a
    lone file of one job is parsed in-process, at its read.
    :func:`read_points` of ``paths[i]`` takes the jobs of the first entry
    of that path that no read has taken, and drops those of the entries
    before it, whose files the caller did not read.  Every other file is
    read whole at its read, by its strict parser: a file too short, a CSV
    file that ``_ranges`` does not cut, one whose jobs raise at entry, one
    that is the same file as an earlier entry's ``writes``, and a path not
    listed.

    At entry, the CPU set is read once, every listed file is stat'ed once,
    and only a CSV file long enough for two ranges is opened, and only on
    two or more CPUs (see :func:`_jobs`).

    A job that raises raises at its file's read, and later files are still
    read.  On one CPU no file is read ahead; if the pool cannot start, the
    stream runs each file's jobs in-process, at its read.  The block is
    left as :func:`_in_order`'s is, with no entry left.
    """
    global _ahead
    entries, jobs, written = deque(), [], set()
    cpus = _cpus()
    for path, write in zip(map(Path, paths), writes):
        layout = _layout_of(path)
        try:
            stat = os.stat(path)
            ahead = [] if (stat.st_dev, stat.st_ino) in written else _jobs(path, layout, cpus, stat.st_size)
        except (OSError, ValueError):
            ahead = []
        entries.append((path, len(ahead)))
        jobs += ahead
        with suppress(OSError, ValueError):  # a file it creates is none of ``paths``
            written.add(_file_id(write))
    with _in_order(_parse_ahead, jobs, min(cpus, len(jobs))) as parsed:
        _ahead = entries, parsed
        try:
            yield
        finally:
            _ahead = None


def _taken_ahead(path: Path):
    """The parsed jobs of ``path`` from the read-ahead block in progress,
    or an empty list if it has none."""
    entries, parsed = _ahead
    index = next((i for i, (entry, _) in enumerate(entries) if entry == path), None)
    if index is None:
        return []
    for _ in range(index):  # entries whose files were not read: their jobs are dropped
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


def _report_list(keys: tuple, rows):
    """A report list of records, from one tuple of values per record, in
    pieces of up to ``_REPORT_BATCH`` records.

    Every record has as many values as the first, named by as many of
    ``keys``.  Each batch's values are encoded in one call of the C encoder,
    as one flat array, and fill one ``%`` template of the batch's records."""
    if not rows:
        yield "[]"
        return
    width = len(rows[0])
    record = _record_layout(keys[:width])
    for start in range(0, len(rows), _REPORT_BATCH):
        batch = rows[start:start + _REPORT_BATCH]
        if set(map(len, batch)) != {width}:
            raise ValueError(f"report records must share their keys, {list(keys[:width])}")
        text = _VALUES.encode(list(itertools.chain.from_iterable(batch)))
        yield ",\n    " if start else "[\n    "
        yield ",\n    ".join([record] * len(batch)) % tuple(text[1:-1].split(",\n"))
    yield "\n  ]"


def write_report(path, report) -> None:
    """Write the report as ``json.dump(report.to_dict(), indent=2)`` does,
    and a final newline.  Its lists of records are encoded in batches from
    the report's tuples, so a report with a line per sector is never held
    as one string, nor as one dict per record."""
    with Path(path).open("w") as handle:
        for number, (key, value) in enumerate(report.sections()):
            handle.write(("{\n  " if number == 0 else ",\n  ") + json.dumps(key) + ": ")
            if isinstance(value, tuple):  # a list of records, as (keys, rows)
                handle.writelines(_report_list(*value))
            elif isinstance(value, dict):
                handle.write(json.dumps(value, indent=2).replace("\n", "\n  "))
            else:  # a number, a boolean or null: no layout
                handle.write(json.dumps(value))
        handle.write("\n}\n")
