"""How fast the host runs right now, from a fixed reference kernel.

The host's speed swings by up to 2x, in regimes lasting seconds to minutes,
with CPU time equal to wall time (see run.py).  Medians within one run cannot
remove a regime that covers the whole run, so every time the benchmark
reports is scaled to a reference speed:

    scaled = measured * nominal / kernel

where `kernel` is the time of the workload's reference kernel, sampled just
before and just after the measured interval (geometric mean), and `nominal`
the kernel's time in the host's fast regime.  A scaled time reads as seconds
on a host running at that speed; the raw times are printed too.  The kernel
is the benchmark's own code and calls nothing in hopfdesign, so a change to
the package moves scaled times exactly as it moves raw ones.

Kinds of work slow down by different amounts in the slow regime, so each
workload's kernel is made of the parts that resemble its own work:
`construct` is interpreter-bound (scalar Python, small numpy calls) and
`certify` gathers strided columns of a power table larger than L2 and takes
dot products.  In six 35 s windows of one process running `construct`, the
interquartile range of `wall_s` as a share of its median was 0.15 raw, 0.03
scaled by its parts and 0.06 scaled by the `certify` parts; on `certify` the
`construct` parts did worse than no scaling.  Ten runs of each workload
(seeds 101-110, 35 s) gave 0.03 on `construct` and 0.04 on `certify`.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Each part's time on a 2-core KVM guest (Intel Xeon, 48K L1d, 2 MiB L2,
# Python 3.11, numpy 2.4) in the host's fast regime; about 1.6x as long in
# its slow one.
NOMINAL_S = {"python": 0.0044, "small_numpy": 0.0087, "stream": 0.0036, "power_table": 0.0175}
PARTS = {
    "construct": ("python", "small_numpy", "stream"),
    "certify": ("small_numpy", "power_table"),
}


class HostSpeed:
    def __init__(self, workload: str):
        names = PARTS[workload]
        self.nominal = sum(NOMINAL_S[name] for name in names)
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal(4096)
        self._matrix = rng.standard_normal((48, 48))
        if "stream" in names:
            self._stream_in = rng.standard_normal(1 << 18)
            self._stream_out = np.empty_like(self._stream_in)
        if "power_table" in names:
            # 7 MB, laid out like verify's (coordinate, point, power) table.
            self._table = rng.standard_normal((4, 20000, 11))
            self._weights = rng.standard_normal(20000)
            self._exponents = rng.integers(0, 11, size=(50, 4)).tolist()
        self._parts = [getattr(self, "_" + name) for name in names]
        self.sample()  # first calls pay for ufunc lookup and page faults

    def sample(self) -> float:
        """Seconds the reference kernel takes now."""
        start = time.perf_counter()
        acc = sum(part() for part in self._parts)
        elapsed = time.perf_counter() - start
        if not math.isfinite(acc):
            raise RuntimeError("reference kernel produced a non-finite value")
        return elapsed

    def settled(self, samples: int = 3) -> float:
        """Median of a few kernel samples."""
        return sorted(self.sample() for _ in range(samples))[samples // 2]

    def scaled(self, seconds: float, before: float, after: float) -> float:
        """A measured time at the nominal speed, given kernel samples around it."""
        return seconds * self.nominal / math.sqrt(before * after)

    def _python(self) -> float:
        x, acc = 0.3, 0.0
        for i in range(24000):
            x = math.sin(x) * 0.9 + 0.1 * math.cos(i * 1e-3)
            acc += x * x
        return acc

    def _small_numpy(self) -> float:
        acc = 0.0
        for i in range(200):
            acc += float((np.cos(self._small * (i * 1e-3)) * self._small).sum())
            acc += float((self._matrix @ self._matrix)[0, 0])
        return acc

    def _stream(self) -> float:
        for _ in range(8):
            np.multiply(self._stream_in, 1.0001, out=self._stream_out)
            np.add(self._stream_out, self._stream_in, out=self._stream_out)
        return float(self._stream_out[0])

    def _power_table(self) -> float:
        acc = 0.0
        for a in self._exponents:
            values = self._table[0, :, a[0]].copy()
            for i in range(1, 4):
                values *= self._table[i, :, a[i]]
            acc += float(np.dot(self._weights, values))
        return acc
