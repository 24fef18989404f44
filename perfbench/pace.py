"""Machine-speed calibration of the timed end-to-end metrics.

The benchmark runs on a few cores of a shared host whose speed drifts: a fixed
numpy kernel takes anywhere from 0.6x to 1.8x its median time, for seconds to
minutes at a time, with CPU time equal to wall time (the cores get slower; the
process is not descheduled).  A raw pass time therefore measures the host as
much as the program.

A ``Pacer`` times a fixed calibration kernel, built from numpy alone and never
from ``conecond``, at the start and end of every pass and, while a pass runs,
every ``interval`` seconds from a one-shot ``SIGALRM`` timer.  Python runs the
handler in the main thread between bytecodes, so a sample never splits a numpy
call and needs no second thread.  ``reference_seconds`` turns a stretch of wall
time into the time the program itself took (sample time removed), with each
piece between two samples scaled by ``KERNEL_REF_S`` over the mean of those two
samples: seconds at the host speed at which the kernel takes ``KERNEL_REF_S``.

The kernel mixes what ``conecond`` spends its time on: phase factors and an
``np.add.at`` scatter into a stack of 2x2 Hermitian matrices, a batched
``eigh``, an elementwise pair sum, and a loop of single-point calls that is
mostly interpreter overhead.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

import numpy as np

# median kernel time on the reference host (2 shared cores, Python 3.11,
# numpy 2.4, OpenBLAS with one thread); only the scale of the reported
# seconds depends on it
KERNEL_REF_S = 0.026
INTERVAL_S = 0.4


class Kernel:
    """A fixed piece of numpy work with inputs built once."""

    def __init__(self, points: int = 4096, singles: int = 400):
        rng = np.random.default_rng(12345)
        self.ks = rng.uniform(-np.pi, np.pi, (points, 2))
        self.disp = rng.integers(-2, 3, (9, 2)).astype(float)
        self.vals = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        self.rows = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0])
        self.cols = np.array([1, 0, 0, 1, 1, 0, 1, 1, 0])
        self.singles = self.ks[:singles]

    def _assemble(self, ks, factor):
        phases = np.exp(1j * (ks @ self.disp.T)) * (self.vals * factor)
        out = np.zeros((ks.shape[0], 2, 2), dtype=complex)
        np.add.at(out, (slice(None), self.rows, self.cols), phases)
        return out + out.conj().transpose(0, 2, 1)

    def __call__(self) -> float:
        h = self._assemble(self.ks, 1.0)
        dh = self._assemble(self.ks, 1j * self.disp[:, 0])
        w, v = np.linalg.eigh(h)
        m = np.einsum("kai,kab,kbj->kij", v.conj(), dh, v)
        gap = w[:, 1] - w[:, 0]
        total = float(np.sum(np.abs(m[:, 0, 1]) ** 2 / (gap ** 2 + 0.01)))
        for k in self.singles:
            total += float(np.linalg.eigvalsh(self._assemble(k[None, :], 1.0))[0, 0])
        return total


class Pacer:
    """Calibration samples ``(start, end)`` over one run."""

    def __init__(self, interval: float = INTERVAL_S):
        self.kernel = Kernel()
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        for _ in range(3):   # warm the kernel's code paths and caches
            self.kernel()

    def sample(self) -> None:
        start = perf_counter()
        self.kernel()
        self.samples.append((start, perf_counter()))

    @contextlib.contextmanager
    def ticking(self):
        """Take a sample every ``interval`` seconds while the block runs."""
        def on_alarm(signum, frame):
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, self.interval)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def reference_seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(program seconds in [t0, t1] with samples removed, the same scaled
        to the reference speed).  A sample must end at or before ``t0`` and
        one start at or after ``t1``."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        before = max((s for s in self.samples if s[1] <= t0), key=lambda s: s[1])
        after = min((s for s in self.samples if s[0] >= t1), key=lambda s: s[0])
        bounds = [before] + inside + [after]
        raw = scaled = 0.0
        for left, right in zip(bounds, bounds[1:]):
            length = min(right[0], t1) - max(left[1], t0)
            if length <= 0:
                continue
            mean_kernel = 0.5 * ((left[1] - left[0]) + (right[1] - right[0]))
            raw += length
            scaled += length * KERNEL_REF_S / mean_kernel
        return raw, scaled

    def kernel_times(self) -> list[float]:
        return [end - start for start, end in self.samples]
