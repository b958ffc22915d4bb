"""Host-speed reference for normalising timings.

On a shared host the same pass can take twice as long while another
tenant loads the sibling hardware thread; the host's speed flips within
seconds and drifts over minutes, so raw pass times of the same code
spread wider than any useful bound.  A fixed kernel of the same kind of
work as the workloads (a Python loop of small matrix-vector products,
10x10 SVDs and 8x3 QRs) runs in short slices interleaved with the
workload: one before each call of the workload's interleave target (one
grid run, one escape or corridor run) and a longer one between passes.
Pass times exclude the slices.  The scale factor NOMINAL_ITERATION_S
times the kernel iterations run over the kernel seconds they took turns
seconds measured during the run into seconds on a host where one kernel
iteration takes NOMINAL_ITERATION_S.

Fine interleaving, and totals rather than medians: a single pass or
slice does not say how fast the host was, while slices spread through
every pass see the same mix of fast and slow periods as the pass.  The
slices take about a quarter of the run.  The kernel is benchmark code, so
a change to rankmin does not move it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

# kernel seconds per iteration on an unloaded 2-vCPU Xeon VM
# (numpy 2.4, OpenBLAS 0.3.31)
NOMINAL_ITERATION_S = 62.5e-6
SLICE_ITERATIONS = 800        # before each call of the interleave target
BOUNDARY_ITERATIONS = 8000    # before each pass and after the last


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((120, 100)) / 10.0
        self.b = rng.standard_normal(120)
        self.z = rng.standard_normal((8, 3))
        self._kernel(50)   # warm-up
        self.iterations = 0
        self.seconds = 0.0

    def _kernel(self, iterations: int) -> float:
        a, b, z = self.a, self.b, self.z
        x = np.zeros((10, 10))
        t0 = time.perf_counter()
        for _ in range(iterations):
            g = (a.T @ (a @ x.ravel() - b)).reshape(10, 10)
            u, s, vt = np.linalg.svd(x - 0.1 * g, full_matrices=False)
            x = (u[:, :4] * s[:4]) @ vt[:4]
            q, _ = np.linalg.qr(z + 1e-3 * x[:8, :3])
        seconds = time.perf_counter() - t0
        if not (np.isfinite(x).all() and np.isfinite(q).all()):
            raise RuntimeError("reference kernel produced non-finite values")
        return seconds

    def run(self, iterations: int = BOUNDARY_ITERATIONS) -> float:
        """Run one slice; adds to the run's totals and returns its seconds."""
        seconds = self._kernel(iterations)
        self.iterations += iterations
        self.seconds += seconds
        return seconds

    @contextmanager
    def interleaved(self, module, name: str):
        """Run a slice before every call of module.name while active.  A
        target the package no longer has leaves only the boundary slices."""
        original = getattr(module, name, None)
        if original is None:
            yield
            return

        def with_slice(*args, **kwargs):
            self.run(SLICE_ITERATIONS)
            return original(*args, **kwargs)

        setattr(module, name, with_slice)
        try:
            yield
        finally:
            setattr(module, name, original)

    def scale(self) -> float:
        """Factor from seconds measured so far in this run to seconds on
        the nominal host."""
        return NOMINAL_ITERATION_S * self.iterations / self.seconds
