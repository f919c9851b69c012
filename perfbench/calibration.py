"""Machine-speed calibration for a shared host.

On a shared host the speed of this kind of code drifts: the same job can
take twice as long for seconds at a time, and whole minutes can run 30%
slow, because of load outside this machine's control. While a measured run
is in progress, a SIGALRM timer runs a fixed kernel every PERIOD_S seconds.
The kernel touches no kcontract code, so no change to the package can move
it. Each workload uses the kernel whose mix of work resembles its own,
since the host slows scalar Python, LAPACK and vectorised numpy code by
different amounts. Each timed interval is reported at reference speed: the
kernel time that fell inside it is subtracted, and the rest is divided by
the speed factor around it, the local mean kernel time over the kernel's
reference time. A reported time is thus the time at the speed at which the
kernel takes its reference time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.25
MIN_SAMPLES = 5


_A = np.random.default_rng(1).standard_normal((16, 16))
_X = np.random.default_rng(0).standard_normal((1024, 3))


def _field(x):
    return np.array([x[1] - 2.0 * x[2], -x[0] - x[2], 0.5 * ((x[0] - x[0] ** 3) - x[2])])


def scalar_kernel(steps: int = 100, h: float = 1e-3):
    """Scalar RK4 steps on 3-element arrays built from Python floats: the
    kind of work the reproduction bundles do."""
    x = np.array([0.2, 0.5, 0.0])
    for _ in range(steps):
        k1 = _field(x)
        k2 = _field(x + 0.5 * h * k1)
        k3 = _field(x + 0.5 * h * k2)
        k4 = _field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def mixed_kernel(h: float = 1e-3):
    """Half the scalar steps, dense LAPACK calls on a 16 x 16 matrix and a
    vectorised field on a 1024-row batch: the mix the CLI workloads do."""
    scalar_kernel(50, h)
    for _ in range(4):
        np.linalg.eigvals(_A)
        np.linalg.eigvalsh(_A + _A.T)
        np.linalg.solve(_A + 20.0 * np.eye(16), _A)
    X = _X
    for _ in range(3):
        X = X + h * np.stack([X[:, 1] - 2.0 * X[:, 2], -X[:, 0] - X[:, 2],
                              0.5 * ((X[:, 0] - X[:, 0] ** 3) - X[:, 2])], axis=1)
    return X


# kernel and its reference time, by the kind of work a workload does
KERNELS = {"scalar": (scalar_kernel, 1.5e-3), "mixed": (mixed_kernel, 2.0e-3)}


class Calibration:
    """Samples the kernel on a timer while the block runs."""

    def __init__(self, kind: str):
        self.kernel, self.reference_s = KERNELS[kind]
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame):
        if len(self.starts) != len(self.durations):
            return  # a tick is still running; keep the samples ordered
        t0 = time.perf_counter()
        self.starts.append(t0)
        self.kernel()
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _cumulative(self):
        n = len(self.durations)
        return np.asarray(self.starts[:n]), np.concatenate([[0.0], np.cumsum(self.durations)])

    def spent(self, starts, ends) -> np.ndarray:
        """Kernel time that ran inside each interval [starts[i], ends[i]]."""
        t, c = self._cumulative()
        return c[np.searchsorted(t, ends, "right")] - c[np.searchsorted(t, starts)]

    def normalized(self, starts, ends) -> np.ndarray:
        """Each interval's length, less the kernel time inside it, at reference
        speed: divided by the mean kernel time over the samples within
        WINDOW_S of the interval (widened until it holds MIN_SAMPLES), over
        the reference time. Without samples the lengths are returned as
        measured."""
        starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
        t, c = self._cumulative()
        if not len(t):
            return ends - starts
        window = np.full(len(starts), WINDOW_S)
        while True:
            lo = np.searchsorted(t, starts - window)
            hi = np.searchsorted(t, ends + window, "right")
            short = (hi - lo < MIN_SAMPLES) & (hi - lo < len(t))
            if not short.any():
                break
            window[short] *= 2
        factor = (c[hi] - c[lo]) / (hi - lo) / self.reference_s
        return (ends - starts - self.spent(starts, ends)) / factor
