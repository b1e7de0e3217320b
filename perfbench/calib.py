"""Host-speed calibration slices interleaved with the simulations.

The benchmark host is a shared VM whose CPU speed drifts by tens of
percent over seconds to minutes (neighbours on the physical core), and
user CPU time drifts with it.  A campaign's time is the sum of its
points' times, so it moves by the host's average slow-down over the
campaign.  :func:`install` wraps ``run_simulation`` in the process that
simulates; after every point it runs one fixed slice of pure-Python
work (about a millisecond, a few percent of a point) and adds up the
slice's wall and CPU time.  The summed slices sample the host at the
same moments and in the same proportion as the points, so

    slow-down = mean slice time / REFERENCE_SLICE_S

tracks the campaign's average slow-down, and ``run.py`` reports each
time with the slices subtracted and divided by that slow-down.  The
slice is fixed code of this directory; a change to ``src/`` moves only
the numerator.  Nothing here lives in ``src/``.
"""

from __future__ import annotations

import time

__all__ = ["Calibrator", "REFERENCE_SLICE_S", "install"]

#: Mean slice time (wall and CPU) that counts as a slow-down of 1, so
#: calibrated times are those of a host running one slice per
#: millisecond.  The 2-vCPU reference host (Python 3.11) measured
#: 0.75-1.17 ms.
REFERENCE_SLICE_S = 1.0e-3
#: Rounds of the slice's scan.  Fixed: changing it changes every figure.
SLICE_ROUNDS = 32


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = nxt


class Calibrator:
    """Runs slices and sums their wall and CPU time."""

    def __init__(self) -> None:
        # Built once, so a slice allocates nothing: a linked list scanned
        # by key and a dict probed by the same keys, the simulator's
        # two kinds of lookups.
        head = None
        for key in range(64):
            head = _Node(key, key * 7, head)
        self._head = head
        self._table = {key: key * 7 for key in range(0, 256, 2)}
        self.slices = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def slice(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        table = self._table
        total = 0
        for _ in range(SLICE_ROUNDS):
            for key in range(0, 64, 3):
                node = self._head
                while node is not None and node.key != key:
                    node = node.next
                total += node.value + table.get(key, 1)
        self.cpu_s += time.process_time() - cpu
        self.wall_s += time.perf_counter() - wall
        self.slices += 1

    def summary(self) -> dict:
        return {"slices": self.slices, "wall_s": self.wall_s, "cpu_s": self.cpu_s}


def install(calibrator: Calibrator) -> None:
    """Run one slice after every ``run_simulation`` of this process.

    Wraps whatever ``run_simulation`` the modules hold, so installed
    after the tracer the slices stay outside the ``simulate`` spans.
    """
    from repro.core import broker, engine, simulate, taskgraph, transport

    inner = taskgraph.run_simulation

    def run_simulation(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        finally:
            calibrator.slice()

    for module in (simulate, taskgraph, engine, broker, transport):
        module.run_simulation = run_simulation
