"""Operation timing at a fixed reference host speed, and per-step latency.

On a shared 2-core host the same operation runs 25-60% slower for minutes at
a time, and CPU time slows with wall time, so raw medians of runs made a few
minutes apart disagree by more than any useful bound. The benchmark
therefore runs a fixed yardstick kernel before and after every operation,
and every READ_EVERY_S seconds inside it (between two steps). The kernel
mixes the same kinds of work as msrnn: small numpy calls on (64,)- and
(4, 65, 16)-shaped float32 arrays, array concatenation and deletion, and
plain Python lists and dicts. An operation's time, less the yardstick's own
time, is cut into segments at the readings, and each segment is scaled by
REFERENCE_S over the mean of the readings on either side of it. The
yardstick does not touch msrnn, so a change to the program moves the scaled
times while a change in host speed cancels out.
"""

from __future__ import annotations

import time

import numpy as np

# Yardstick time that defines reference speed (the development host, numpy
# 2.4 with OpenBLAS 0.3.31). A constant: changing it rescales every time.
REFERENCE_S = 0.004
READ_EVERY_S = 0.05
ROUNDS = 6
STEPS = 20


class Yardstick:
    """Fixed decode-like kernel; `measure` returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((64, 64)).astype(np.float32)
        self.keys = rng.standard_normal((4, 65, 16)).astype(np.float32)
        self.x0 = rng.standard_normal(64).astype(np.float32)
        self.last: float | None = None

    def _kernel(self) -> None:
        w, keys = self.w, self.keys
        for r in range(ROUNDS):
            x = self.x0
            cache = np.zeros((0, 16), dtype=np.float32)
            metas = []
            for j in range(STEPS):
                h = x / np.sqrt(np.mean(np.square(x)) + np.float32(1e-5))
                y = h @ w
                s = np.einsum("hsd,hd->hs", keys, y.reshape(4, 16))
                e = np.exp(s - s.max(axis=-1, keepdims=True))
                p = e / e.sum(axis=-1, keepdims=True)
                cache = np.concatenate([cache, y[None, :16]])
                if len(cache) > 8:
                    cache = np.delete(cache, int(np.argmin(p[0, :8])), axis=0)
                metas.append({"position": j, "round": r})
                x = x + np.float32(1e-3) * p[0, 0]

    def measure(self) -> float:
        start = time.perf_counter()
        self._kernel()
        self.last = time.perf_counter() - start
        return self.last

    def scaled(self, fn, clock: "StepClock | None" = None):
        """Run fn; return (result, raw s, s at reference speed, segment scales).

        The run of fn is cut into segments by the step clock's readings. Each
        segment is scaled by REFERENCE_S over the mean of the two readings
        around it; the first uses the reading taken before fn (shared with the
        previous operation), the last the reading taken after it.
        """
        before = self.last if self.last is not None else self.measure()
        if clock is not None:
            clock.start()
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        cuts = clock.cuts if clock is not None else []
        readings = [before] + (clock.readings if clock is not None else []) + [self.measure()]
        edges = [start] + [t for cut in cuts for t in cut] + [end]
        lengths = [b - a for a, b in zip(edges[::2], edges[1::2])]
        scales = [2 * REFERENCE_S / (a + b) for a, b in zip(readings, readings[1:])]
        return result, sum(lengths), sum(n * k for n, k in zip(lengths, scales)), scales


class StepClock:
    """Times the gaps between returns of one harness function, step by step.

    Installed on the function the workload's step loop calls once per step
    (`decode_step`, or `apply_policy` in the simulator). Between two steps,
    at most every READ_EVERY_S seconds, it takes a yardstick reading; the
    time that takes is cut out of the gap and of the operation. `gaps` holds
    (seconds, index of the segment between readings it fell in, whether it
    is the first gap after a reading). That first gap may run slower than
    the rest, in caches the reading has just used, so it is marked and left
    out of the latency samples.
    """

    def __init__(self, owner, attr: str, yardstick: Yardstick):
        self.gaps: list[tuple[float, int]] = []
        self.readings: list[float] = []
        self.cuts: list[tuple[float, float]] = []   # (reading began, reading ended)
        self._prev: float | None = None
        self._after_read = False
        self._next_read = 0.0
        inner = getattr(owner, attr)
        clock = time.perf_counter

        def stamped(*args, **kwargs):
            result = inner(*args, **kwargs)
            now = clock()
            if self._prev is not None:
                self.gaps.append((now - self._prev, len(self.cuts), self._after_read))
            self._prev = now
            self._after_read = now >= self._next_read
            if self._after_read:
                self.readings.append(yardstick.measure())
                self._prev = clock()
                self.cuts.append((now, self._prev))
                self._next_read = self._prev + READ_EVERY_S
            return result

        self._undo = (owner, attr, inner)
        setattr(owner, attr, stamped)

    def start(self) -> None:
        """Forget the previous operation's gaps and readings."""
        self.gaps.clear()
        self.readings.clear()
        self.cuts.clear()
        self._prev = None
        self._after_read = False
        self._next_read = time.perf_counter() + READ_EVERY_S

    def close(self) -> None:
        owner, attr, inner = self._undo
        setattr(owner, attr, inner)
