"""Machine-drift correction for host timings.

On a shared VM the same code can run up to 2x slower for minutes at a time.
To take that out of a measurement, a fixed pure-Python reference loop is
timed next to every slice of the measured work, and the slice's wall time
is divided by it.  One constant, the loop's nominal duration, scales the
ratio back to seconds, so corrected figures read as host time at the
nominal machine speed.

The loop calls no repository code, runs with the garbage collector off,
and allocates only ints, which the collector does not track, so no
change to the program can move it.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

# The loop has two phases, timed separately and combined by their
# geometric mean.  The arithmetic phase tracks CPU frequency and steal
# time; the table phase (dict and list probes, attribute stores, calls
# over a working set of a few MiB) also tracks cache and memory
# contention.  Workloads sit between the two: over 80 drives of
# fleet_echo and 28 of logproc_fanout on a shared 2-vCPU VM, the
# per-drive spread (coefficient of variation) was 11% and 18% raw, 3.7%
# and 5.0% corrected by the arithmetic phase alone, 9.4% and 3.0% by the
# table phase alone, and 3.8% and 3.6% by their geometric mean (measured
# with twice the iteration counts below and 100-120 slices a drive; the
# shorter loop and 200-360 shorter slices cut fleet_echo's spread further).
ARITHMETIC_ITERATIONS = 3000
TABLE_ITERATIONS = 1000
# Median of the combined reference on the machine the figures in
# perfbench/README.md were taken on (2-vCPU x86-64 VM, CPython 3.11).
REFERENCE_NOMINAL_S = 0.37e-3


def _arithmetic_phase(n):
    x = 0
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


_TABLE = {i: i * 7 for i in range(1 << 14)}
_ROW = list(range(1 << 16))
_CELL = _Cell()


def _probe(table, key, cell):
    value = table.get(key, 0)
    cell.value = (cell.value + value) & 0xFFFF
    return cell.value


def _table_phase(n):
    table, row, cell, probe = _TABLE, _ROW, _CELL, _probe
    x = 1
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 0x3FFF
        table[key] = probe(table, key, cell)
        x ^= row[(x >> 3) & 0xFFFF]
    return x


def reference_seconds():
    """Wall time of one reference loop, taken with the collector off.

    Only ints are created, which the collector does not track, and
    the tables are built once at import, so nothing the program does can
    change what the loop costs except the machine itself.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _arithmetic_phase(ARITHMETIC_ITERATIONS)
        middle = time.perf_counter()
        _table_phase(TABLE_ITERATIONS)
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return math.sqrt((middle - start) * (end - middle))


def reference_median(count=9):
    return statistics.median(reference_seconds() for _ in range(count))


class Slicer:
    """Times consecutive slices of a drive, each next to a reference loop.

    ``begin`` starts the first slice; each ``cut(n)`` closes the current
    slice, which ``n`` invocations were due in, and starts the next one.
    """

    def __init__(self):
        self.walls = []
        self.refs = []
        self.counts = []
        self._started = 0.0

    def begin(self):
        self.refs.append(reference_seconds())
        self._started = time.perf_counter()

    def cut(self, due):
        now = time.perf_counter()
        self.walls.append(now - self._started)
        self.counts.append(due)
        self.refs.append(reference_seconds())
        self._started = time.perf_counter()

    def corrected(self):
        """Per-slice corrected seconds.

        Each slice is scaled by the mean of the reference loops just before
        and just after it: the machine's speed drifts within tens of
        milliseconds, so nearer references correct better than wider
        windows do.
        """
        refs = self.refs
        return [
            wall * REFERENCE_NOMINAL_S / ((refs[i] + refs[i + 1]) / 2.0)
            for i, wall in enumerate(self.walls)
        ]

    @property
    def raw_seconds(self):
        return sum(self.walls)


class NullSlicer:
    """A slicer that times nothing, for drives that are not measured."""

    def begin(self):
        pass

    def cut(self, due):
        pass
