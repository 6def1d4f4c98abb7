"""Host time scaled to a fixed reference speed.

The host this benchmark is tuned on changes speed by about 1.5x, in
regimes of seconds to minutes, as other guests come and go.  A fixed
work unit, :func:`kernel`, is timed every ``interval`` seconds between
the workload's own steps; each host interval the workload measures is
then rescaled by how fast the kernel ran around it, and the probes'
own time is cut out:

    reference_s = host_s * KERNEL_NOMINAL_S / kernel_s(local)

so a program change that takes a fixed share of the work off a frame
moves the scaled figure by that share, while a host slowdown that
slows the kernel and the program alike cancels.  The kernel is timed in
thread CPU time, which neither hypervisor steal nor a wait for the GIL
(the gateway's step runs on a worker thread) inflates.  Timed phases
end after ``--seconds`` of reference time too (:meth:`ReferenceClock.now`),
so a run does about the same work however fast the host is.  The raw
host figures are printed beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Thread CPU time the kernel takes on the reference host at its usual
#: speed (s).  Only the unit matters: scaled times read as host times
#: at that speed.
KERNEL_NOMINAL_S = 0.0025
#: Probes whose median cost sets the running speed estimate of
#: :meth:`ReferenceClock.now`.
RECENT = 16
#: Half-width (s) of the window of probes whose median cost gives the
#: host speed at a probe.  Narrower windows follow the host closer but
#: let single noisy probes through; 5 s gave the steadiest figures.
WINDOW_S = 5.0

_RNG = np.random.default_rng(0)
_VEC = _RNG.random(20_000)
#: 16 MB, read at random: the program's large Python heaps wait on
#: memory, which other guests slow down more than arithmetic.
_BIG = _RNG.random(4_000_000, dtype=np.float32)
_IDX = _RNG.integers(0, len(_BIG), 20_000)


def kernel() -> float:
    """A fixed mix of vectorised float work (the exact render path) and
    scattered reads from a heap larger than the caches (the per-session
    state of the digest, gateway and fleet paths)."""
    total = 0.0
    for _ in range(10):
        v = np.exp(-_VEC) * _VEC
        total += float(np.sum(np.sqrt(v + 1.0)))
    for _ in range(15):
        total += float(np.take(_BIG, _IDX).sum())
    return total


class ReferenceClock:
    """Probe log of one run and the host-to-reference time map."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.costs: list[float] = []
        self._last = -float("inf")
        #: Running estimate: reference seconds at the last probe's end,
        #: and the current speed (reference per host second).
        self._ref = 0.0
        self._speed = 1.0

    def tick(self) -> None:
        """Probe if ``interval`` has passed since the last probe."""
        if time.perf_counter() - self._last >= self.interval:
            self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        kernel()
        cost = time.thread_time() - cpu
        end = time.perf_counter()
        if self.ends:
            self._ref += (start - self.ends[-1]) * self._speed
        self._speed = KERNEL_NOMINAL_S / float(
            np.median(self.costs[-RECENT:] + [cost])
        )
        self.starts.append(start)
        self.ends.append(end)
        self.costs.append(cost)
        self._last = end

    def now(self) -> float:
        """Reference seconds since the first probe, estimated as the run
        goes (the figures use the exact map of :meth:`reference`)."""
        if not self.ends:
            return 0.0
        return self._ref + (time.perf_counter() - self.ends[-1]) * self._speed

    def _inside(self, a: float, b: float) -> np.ndarray:
        return (np.asarray(self.starts) >= a) & (np.asarray(self.ends) <= b)

    def probe_seconds(self, a: float, b: float) -> float:
        """Host seconds the probes took inside [a, b]."""
        spans = np.asarray(self.ends) - np.asarray(self.starts)
        return float(np.sum(spans[self._inside(a, b)]))

    def scale(self, host_s: float) -> float:
        """Host seconds as reference seconds at the median probe speed."""
        return host_s * KERNEL_NOMINAL_S / float(np.median(self.costs))

    def _map(self):
        """Breakpoints of the piecewise-linear host-to-reference map."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        costs = np.asarray(self.costs)
        n = len(costs)
        # Local speed: median kernel cost over the surrounding probes.
        lo = np.searchsorted(starts, starts - WINDOW_S)
        hi = np.searchsorted(starts, starts + WINDOW_S, side="right")
        local = np.array([np.median(costs[a:b]) for a, b in zip(lo, hi)])
        speed = KERNEL_NOMINAL_S / local
        # Between probe i and i+1 the host runs at the mean of their
        # speeds; inside a probe no reference time passes.
        gaps = starts[1:] - ends[:-1]
        gained = gaps * (speed[1:] + speed[:-1]) / 2.0
        at_start = np.concatenate([[0.0], np.cumsum(gained)])
        x = np.empty(2 * n)
        y = np.empty(2 * n)
        x[0::2], x[1::2] = starts, ends
        y[0::2], y[1::2] = at_start, at_start
        return x, y, speed

    def reference(self, t) -> np.ndarray:
        """Reference seconds since the first probe at host times ``t``."""
        if len(self.costs) < 2:
            raise RuntimeError("the reference clock needs at least two probes")
        x, y, speed = self._map()
        t = np.asarray(t, dtype=np.float64)
        out = np.interp(t, x, y)
        out = np.where(t < x[0], (t - x[0]) * speed[0], out)
        return np.where(t > x[-1], y[-1] + (t - x[-1]) * speed[-1], out)

    def elapsed(self, a, b) -> np.ndarray:
        """Reference seconds between host times ``a`` and ``b``."""
        return self.reference(b) - self.reference(a)

    def summary(self, a: float, b: float) -> dict:
        """Probe statistics over the host interval [a, b]."""
        inside = self._inside(a, b)
        costs = np.asarray(self.costs)[inside]
        p10, p50, p90 = (
            (np.percentile(costs, [10, 50, 90]) * 1e3).tolist()
            if len(costs)
            else [None] * 3
        )
        return {
            "probes": int(inside.sum()),
            "kernel_ms_p10": p10,
            "kernel_ms_p50": p50,
            "kernel_ms_p90": p90,
            "probe_share": self.probe_seconds(a, b) / (b - a) if b > a else 0.0,
        }
