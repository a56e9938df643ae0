"""Host speed gauge, and command times converted to a reference host speed.

The shared VM these figures come from drifts in speed by a fifth or more
over minutes, which moves whole runs.  A fixed kernel, timed right before
and right after each command, gauges the speed the command ran at.  It does
what the CLI spends most of its time on: it formats floats as CSV text with
``repr``, writes the file and reads it back with ``np.loadtxt``.  It uses
nothing from ``scatternet``, so its time moves with the host and not with
the program.
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np

# About the gauge's median time on the host the bounds were set on (2-vCPU
# Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4).  It only sets the scale
# of the converted times.
REFERENCE_S = 0.3

_ROWS = np.random.default_rng(0x5CA7).random((100_000, 2)).tolist()


def gauge(path: Path) -> float:
    """Seconds one pass of the fixed kernel takes, using ``path`` as scratch."""
    start = time.perf_counter()
    path.write_text("".join(f"{x!r},{y!r},{i % 9}\n" for i, (x, y) in enumerate(_ROWS)))
    back = np.loadtxt(path, delimiter=",")
    seconds = time.perf_counter() - start
    if back.shape != (len(_ROWS), 3) or back[-1, 1] != _ROWS[-1][1]:
        raise RuntimeError("host speed gauge read back other values than it wrote")
    return seconds


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two gauges, scaled to the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
