"""Machine-speed calibration and the machine record.

The shared cores this benchmark runs on change speed by up to a factor of
two for seconds at a time, and CPU time tracks wall time, so the change is
the core's speed, not scheduling. A fixed kernel owned by the benchmark is
therefore timed at a steady wall-clock interval *while* the operations run:
a SIGALRM handler runs it between interpreter steps, so even a multi-second
operation is sampled many times. Each operation's time, net of the handler,
is then rescaled by the reference kernel time over the kernel time measured
around it. The kernel is not sliceproj code.

Two kernels exist because set-up is timed in a child process before numpy
is imported: `NumpyKernel` mimics one ADMM iteration at d = 25 (a
Cholesky solve, small matrix-vector products and elementwise ops on a
(23, 3) array), and `python_kernel` is plain interpreter arithmetic.

The same handler enforces OP_TIMEOUT_S: an op still running past its
deadline gets `OpTimeout` raised inside it and counts as failed, so one
pathological input (dense Dykstra has no stall exit and may run to its
200000-iteration cap) cannot push a run past its time limit.
"""

from __future__ import annotations

import os
import platform
import signal
import sys
import time

PERIOD_S = 0.05
OP_TIMEOUT_S = 30.0
NUMPY_REPS = 30
PYTHON_REPS = 10_000
# kernel times on the fast state of a shared 2-core x86-64 VM (Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31); they only fix the unit of calibrated times
NUMPY_REF_S = 0.00093
PYTHON_REF_S = 0.0011


def python_kernel(reps: int = PYTHON_REPS) -> float:
    acc = 0.0
    for i in range(reps):
        acc += (i * 0.5) % 7.0
    return acc


class NumpyKernel:
    """ADMM-shaped loop on fixed data; construction is not timed."""

    def __init__(self):
        import numpy as np
        from scipy.linalg import cho_factor, cho_solve
        rng = np.random.default_rng(20250903)
        self.np = np
        self.cho_solve = cho_solve
        self.W = rng.standard_normal((69, 25))
        self.factor = cho_factor(np.eye(25) + self.W.T @ self.W)
        self.x0 = rng.standard_normal(25)

    def __call__(self, reps: int = NUMPY_REPS) -> float:
        np, W, x0 = self.np, self.W, self.x0
        z = np.zeros(W.shape[0])
        s = 0.0
        for _ in range(reps):
            p = self.cho_solve(self.factor, x0 + W.T @ z)
            r = (W @ p).reshape(-1, 3)
            h = np.hypot(0.5 * (r[:, 0] - r[:, 2]), r[:, 1])
            e = 0.5 * (r[:, 0] + r[:, 2]) + h
            z = np.repeat(np.maximum(e, 0.0), 3) * 1e-3
            s = float(np.linalg.norm(z))
        return s


class OpTimeout(Exception):
    """Raised inside an op that is still running past its deadline."""


class Sampler:
    """Runs `kernel` every PERIOD_S seconds of wall time from a SIGALRM
    handler and records (start, end) of each run.

    `on_sample(t0, t1)` lets a tracer book the handler as a child span of
    whatever span it interrupted, so no layer is charged for it. While
    `deadline` (a perf_counter time) is set and passed, the handler raises
    OpTimeout once.
    """

    def __init__(self, kernel, ref_s: float, on_sample=None):
        self.kernel = kernel
        self.ref_s = ref_s
        self.on_sample = on_sample
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.deadline = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        if self.on_sample is not None:
            self.on_sample(t0, t1)
        if self.deadline is not None and t1 > self.deadline:
            self.deadline = None
            raise OpTimeout(f"op still running after {OP_TIMEOUT_S:g} s")

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def kernel_times(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def factors(self, spans):
        """Speed factor ref / kernel time for each (start, end) interval:
        the mean over samples taken inside it, else the value interpolated
        at its midpoint from the samples around it."""
        import numpy as np
        ts = 0.5 * (np.array(self.starts) + np.array(self.ends))
        fs = self.ref_s / (np.array(self.ends) - np.array(self.starts))
        if len(ts) == 0:
            return np.ones(len(spans))
        csum = np.concatenate([[0.0], np.cumsum(fs)])
        out = np.empty(len(spans))
        for i, (s, e) in enumerate(spans):
            lo, hi = np.searchsorted(ts, s), np.searchsorted(ts, e)
            if hi > lo:
                out[i] = (csum[hi] - csum[lo]) / (hi - lo)
            else:
                out[i] = np.interp(0.5 * (s + e), ts, fs)
        return out


def machine_record() -> dict:
    import numpy as np
    import scipy

    def blas_version(config):
        try:
            return config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError, AttributeError):
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(np.show_config),
        "scipy_openblas": blas_version(scipy.show_config),
        "blas_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
    }
