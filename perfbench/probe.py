"""Spans and counters recorded from outside the package.

Each probe replaces a function of the package with a wrapper at every
module that binds it by name (``solve_filter`` is bound in ``rre``,
``spectral`` and ``cli``; ``bump_weights`` in five modules), so no call
is missed, and ``uninstall`` puts the originals back.  Spans are held in
memory as ``[name, start, end, parent, seed]`` and written out by the
caller once the run ends.
"""

import sys
import time

import numpy as np

from birkhoff_rre import cli, fourier, maps, numerics, rre, spectral
from birkhoff_rre import birkhoff as birkhoff_mod

SEED_SPAN = "cli.seed"

# span name -> (module defining the function, attribute name)
LAYER_FUNCTIONS = {
    "maps.sample": (maps, "sample_trajectory"),
    "rre.build": (rre, "build_problem"),
    "rre.solve": (rre, "solve_filter"),
    "numerics.lstsq": (numerics, "least_squares_solve"),
    "numerics.clstsq": (numerics, "complex_least_squares_solve"),
    "numerics.eig": (numerics, "real_eigenvalues"),
    "spectral.roots": (spectral, "palindromic_roots"),
    "spectral.rank": (spectral, "mode_prominence"),
    "fourier.fit": (fourier, "fit_circle"),
    "fourier.validate": (fourier, "validation_residual"),
    "birkhoff.bump": (birkhoff_mod, "bump_weights"),
    "birkhoff.average": (birkhoff_mod, "weighted_average"),
}
# numpy calls made only by one layer each, looked up through np.linalg
NUMPY_FUNCTIONS = {
    "spectral.rank_svd": "matrix_rank",
    "fourier.cond": "cond",
}
# the package function that handles one seed, per subcommand
SEED_FUNCTIONS = {"classify": "classify_seed", "average": "sample_trajectory"}


def lstsq_flops_x3(a):
    """Three times the Householder QR cost 2mn^2 - 2n^3/3 of an m-by-n
    least-squares solve, an integer, so that sums do not depend on order."""
    m, n = np.shape(a)
    return 6 * m * n * n - 2 * n ** 3


class Tracer:
    """In-memory span recorder with per-seed ids and plain counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.seed = None
        self.next_seed = 0
        self.counts = {"maps.step_calls": 0, "numerics.lstsq_flops_x3": 0}
        self._restore = []

    def wrap(self, name, fn, seed_root=False, flops=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if seed_root:
                self.seed = self.next_seed
                self.next_seed += 1
            if flops is not None:
                self.counts["numerics.lstsq_flops_x3"] += flops(args[0])
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.seed]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
                if seed_root:
                    self.seed = None

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "birkhoff_rre" or key.startswith("birkhoff_rre.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self, command, layers):
        """Wrap the per-seed entry point and, if ``layers``, every stage."""
        if layers:
            for name, (module, attr) in LAYER_FUNCTIONS.items():
                original = getattr(module, attr)
                flops = lstsq_flops_x3 if name == "numerics.lstsq" else None
                self._rebind_everywhere(original, self.wrap(name, original, flops=flops))
            for name, attr in NUMPY_FUNCTIONS.items():
                self._set(np.linalg, attr, self.wrap(name, getattr(np.linalg, attr)))
            take = rre.TrajectorySource.take
            self._set(rre.TrajectorySource, "take", self.wrap("rre.take", take))
            step = maps.StandardMap.step
            counts = self.counts

            def counted_step(map_self, point):
                counts["maps.step_calls"] += 1
                return step(map_self, point)

            self._set(maps.StandardMap, "step", counted_step)
        attr = SEED_FUNCTIONS[command]
        self._set(cli, attr, self.wrap(SEED_SPAN, getattr(cli, attr), seed_root=True))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def summarize(spans):
    """Self time and call count per span name, and per-seed coverage.

    Self time is a span's duration minus that of its direct children.
    Coverage of a seed is the share of its span that child stages cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, calls, coverage = {}, {}, []
    for index, (name, start, end, parent, _) in enumerate(spans):
        own = end - start - child[index]
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if name == SEED_SPAN and end > start:
            coverage.append(child[index] / (end - start))
    return self_s, calls, coverage
