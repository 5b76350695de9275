"""Host speed, measured with fixed reference computations.

The benchmark runs on shared virtual machines whose speed is not
constant: other tenants on the same physical cores slow every
computation, by up to about 2x, in stretches that last from seconds to
minutes, and each virtual CPU on its own — on a 2-vCPU host one CPU
often ran 1.3 times slower than the other for several seconds.  Raw
times therefore move by more than any useful regression bound from one
run to the next.

:class:`HostSpeed` times fixed work that does not depend on the program
under test, on each CPU it is given, and reports slowdowns against the
nominal times in :data:`NOMINAL_S` (1.0 is the reference speed, 1.5 a
CPU running 1.5 times slower).  A slowing host does not slow all work
alike, so there are three, one per kind of work the benchmark times:

- ``bulk``: the mean over a pure-Python loop, a small matrix product and
  a memory-bound NumPy pass.  It tracks explains, whose time goes to
  NumPy on large arrays;
- ``calls``: many NumPy calls on ten-element arrays, where the cost of
  each call, not the arithmetic, dominates.  It tracks the surrogate's
  evaluation on a few rows, which is made of such calls and slows about
  twice as much as ``bulk`` when the host slows;
- ``mixed``: the geometric mean of the two.  It tracks the CPU time a
  served request costs: JSON, small NumPy calls and thread hand-offs.

Over ten 20 s runs per workload, the time of each kind of work grew with
its own slowdown to the power 0.84–1.01 (explains against ``bulk``) and
1.02–1.09 (surrogate calls against ``calls``); served requests grew with
``bulk`` to the power 1.6–2.2 and with ``calls`` to the power 0.7–0.84.

The workloads measure before and after each timed operation, or segment
of operations, on the CPUs it ran on, and divide its time by the mean
slowdown (:func:`slowdown`), which gives its time at the reference
speed.  Divided so, the spread (interquartile range over median) of ten
runs fell from 0.17–0.24 to 0.03–0.04 for explains and from 0.45–0.51
to 0.04 for surrogate predictions.

The nominal times are constants, so a change to the program moves the
scaled times exactly as it moves the raw ones.  They were taken as
medians on the 2-vCPU Xeon host of ``bench/README.md``.  One measurement
costs about 15 ms per CPU at the reference speed.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Median seconds of each reference kernel at the reference speed.
NOMINAL_S = {
    "python": 0.0042,
    "matmul": 0.0022,
    "memory": 0.0040,
    "calls": 0.0058,
}

#: Which kernels each slowdown averages.
SLOWDOWNS = {"bulk": ("python", "matmul", "memory"), "calls": ("calls",)}


class HostSpeed:
    """Times the reference kernels; see the module docstring."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((256, 256))
        self._vector = rng.random(300_000)
        self._small = rng.random(10)
        self._knots = np.linspace(0.0, 1.0, 20)

    @staticmethod
    def _python() -> int:
        total = 0
        for i in range(30_000):
            total += i * i
        counts: dict[int, int] = {}
        for i in range(10_000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        return total + len(counts)

    def _matmul(self) -> float:
        out = self._matrix
        for _ in range(2):
            out = self._matrix @ out
            out /= out[0, 0]
        return float(out[0, 0])

    def _memory(self) -> float:
        v = self._vector
        return float(np.sort(v)[0] + (v * 2.0 + 1.0).sum())

    def _calls(self) -> float:
        total = 0.0
        for i in range(400):
            a = self._small * 1.5 + i
            total += float(np.searchsorted(self._knots, a[3] / 20.0))
            total += a.sum() + np.clip(a, 2.0, 8.0)[0]
        return total

    def kernel_times(self) -> dict[str, float]:
        """Seconds of one run of each reference kernel, on this CPU."""
        out = {}
        for name, kernel in (
            ("python", self._python),
            ("matmul", self._matmul),
            ("memory", self._memory),
            ("calls", self._calls),
        ):
            start = time.perf_counter()
            kernel()
            out[name] = time.perf_counter() - start
        return out

    def measure(self, cpus) -> dict[int, dict[str, float]]:
        """``{cpu: {"bulk": .., "calls": .., "mixed": ..}}`` for ``cpus``.

        The calling thread runs the kernels pinned to each CPU in turn,
        then gets its former CPU set back.
        """
        former = os.sched_getaffinity(0)
        out = {}
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times = self.kernel_times()
                out[cpu] = {
                    key: sum(times[k] / NOMINAL_S[k] for k in kernels)
                    / len(kernels)
                    for key, kernels in SLOWDOWNS.items()
                }
                out[cpu]["mixed"] = (
                    out[cpu]["bulk"] * out[cpu]["calls"]
                ) ** 0.5
        finally:
            os.sched_setaffinity(0, former)
        return out


def slowdown(key: str, *measurements: dict, cpus=None) -> float:
    """Mean ``key`` slowdown over ``measurements`` and ``cpus`` (all the
    CPUs measured when ``cpus`` is None)."""
    values = [
        m[cpu][key] for m in measurements for cpu in (cpus or m)
    ]
    return sum(values) / len(values)
