"""Fixed reference kernel that measures how fast the machine is right now.

On a shared virtual machine the CPU throughput a process gets drifts by tens
of percent over minutes, and the program's wall and CPU times drift with it.
The benchmark runs this kernel before and after every timed operation and
set-up probe, divides each of their times by the kernel's time measured
around it, so that a drift that slows both cancels out, and multiplies by
``REFERENCE_S`` to report the result in reference seconds: seconds on a
machine as fast as the reference machine was.

The kernel uses no code of the program, so a change to the program does not
change it.  It mixes the kinds of work the program does: batched products of
small complex matrices (``einsum``), batched 4x4 Hermitian eigensolves,
element-wise transcendental functions over cache-sized arrays, a weighted
``bincount`` scatter over arrays larger than the cache, and Python loops,
with and without small NumPy calls.
"""

from __future__ import annotations

import math
import time

import numpy as np

BATCH = 4096
ELEMENTS = 200_000
STREAM = 1_000_000
BINS = 100_000
LOOP_ITEMS = 2_000

# Median wall time of one pass on the reference machine, a 2-vCPU Intel Xeon
# VM at 2.0 GHz with Python 3.11 and numpy 2.4 (719 passes over 60 runs).
REFERENCE_S = 0.43


class Calibration:
    """Builds its inputs once; ``run()`` times one pass of the kernel."""

    def __init__(self, rounds: int = 4) -> None:
        rng = np.random.default_rng(20150223)
        self.rounds = rounds
        a = rng.standard_normal((BATCH, 4, 4)) + 1j * rng.standard_normal((BATCH, 4, 4))
        self.u = a
        self.rho = np.eye(4, dtype=complex) / 4
        self.h = a + a.conj().transpose(0, 2, 1)
        self.x = rng.standard_normal(ELEMENTS)
        self.kets = rng.standard_normal((LOOP_ITEMS, 4))
        self.stream = rng.standard_normal(STREAM)
        self.bins = rng.integers(0, BINS, STREAM)
        self.checksum: float | None = None

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(self.rounds):
            rho = np.einsum("nip,ij,njq->npq", self.u.conj(), self.rho, self.u)
            total += float(np.abs(rho).sum())
            values = np.linalg.eigvalsh(self.h[: BATCH // 4])
            total += float(values[:, -1].sum())
            y = np.sin(self.x) * np.exp(-0.5 * self.x * self.x)
            total += float(y.sum())
            for ket in self.kets:
                total += float(np.linalg.norm(ket))
            total += float(sum(i * i for i in range(40 * LOOP_ITEMS)))
            z = self.stream * np.exp(-1j * self.stream)
            re = np.bincount(self.bins, weights=z.real, minlength=BINS)
            im = np.bincount(self.bins, weights=z.imag, minlength=BINS)
            total += float(np.abs(re + 1j * im).sum())
        return total

    def run(self) -> tuple[float, float]:
        """(wall seconds, CPU seconds) of one pass.

        Raises RuntimeError if the pass computes another result than the
        first one did, which would mean it did not do the same work.  The
        comparison allows for rounding, since a vectorised sum may add in
        another order when a temporary array lands at another alignment.
        """
        w0, c0 = time.perf_counter(), time.process_time()
        total = self._kernel()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if self.checksum is None:
            self.checksum = total
        elif not math.isclose(total, self.checksum, rel_tol=1e-9):
            raise RuntimeError(f"calibration kernel result changed: {total!r} != {self.checksum!r}")
        return wall, cpu


def in_reference_s(times: list[float], passes: list[float]) -> list[float]:
    """``times[i]``, measured between ``passes[i]`` and ``passes[i + 1]``,
    in reference seconds."""
    return [t * REFERENCE_S / (0.5 * (before + after)) for t, before, after in zip(times, passes, passes[1:])]
