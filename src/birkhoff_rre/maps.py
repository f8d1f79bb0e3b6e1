"""Dynamical maps, observables, and trajectory sampling.

A map is anything with a ``state_dimension`` and a deterministic
``step``; users plug in their own (e.g. numerically integrated return
maps) without this package shipping an integrator.  The Chirikov
standard map is built in.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, OrbitEscape

TWO_PI = 2.0 * math.pi

DEFAULT_ESCAPE_BOUND = 1e6


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered observable samples along an orbit, shape (length, D)."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise ContractViolation(f"trajectory needs shape (n, D), got {samples.shape}")
        object.__setattr__(self, "samples", samples)

    @property
    def length(self):
        return self.samples.shape[0]

    @property
    def dimension(self):
        return self.samples.shape[1]

    def __len__(self):
        return self.samples.shape[0]


class DynamicalMap:
    """Interface: a deterministic discrete-time map on R^n."""

    state_dimension = None

    def step(self, point):
        raise NotImplementedError


class Observable:
    """Interface: a smooth function of the map state with values in R^D."""

    output_dimension = None

    def evaluate(self, point):
        raise NotImplementedError

    def invert(self, value):
        """Map an observable value back to state space, when well defined."""
        raise NotImplementedError(f"{type(self).__name__} is not invertible")


def standard_map_step(x, y, k):
    """One step of the Chirikov standard map on the cylinder.

    y' = y - (k / 2pi) sin(2pi x);  x' = x + y' reduced into [0, 1).
    """
    y_next = y - k / TWO_PI * math.sin(TWO_PI * x)
    x_next = (x + y_next) % 1.0
    return x_next, y_next


class StandardMap(DynamicalMap):
    """Chirikov standard map with stochasticity parameter ``k``."""

    state_dimension = 2

    def __init__(self, k):
        self.k = float(k)

    def step(self, point):
        x, y = standard_map_step(point[0], point[1], self.k)
        return np.array((x, y))


class IdentityObservable(Observable):
    """Return the state itself."""

    def __init__(self, state_dimension=2):
        self.output_dimension = state_dimension

    def evaluate(self, point):
        return np.asarray(point, dtype=float).copy()

    def invert(self, value):
        return np.asarray(value, dtype=float).copy()


class EmbeddingObservable(Observable):
    """Smooth embedding of the cylinder T x R into the plane.

    (x, y) -> (y + 0.5) (cos 2pi x, sin 2pi x).  Invertible for
    y > -0.5, which covers the regions of interest of the standard map.
    """

    output_dimension = 2

    def evaluate(self, point):
        x, y = point[0], point[1]
        r = y + 0.5
        ang = TWO_PI * x
        return np.array((r * math.cos(ang), r * math.sin(ang)))

    def invert(self, value):
        u, v = value[0], value[1]
        r = math.hypot(u, v)
        if r <= 0.0:
            raise ContractViolation("embedding not invertible at the origin")
        x = (math.atan2(v, u) / TWO_PI) % 1.0
        return np.array((x, r - 0.5))


class CoordinateObservable(Observable):
    """Project out a single state coordinate (D = 1)."""

    output_dimension = 1

    def __init__(self, index):
        self.index = int(index)

    def evaluate(self, point):
        return np.array((float(point[self.index]),))


class TrajectorySource:
    """One seed's orbit a_t = observable(F^t(x0)): the one loop that steps a map.

    ``take(n)`` returns the first n samples, stepping the map only past
    those already drawn, so ``samples_drawn`` - 1 map evaluations were
    made.  The samples live in one buffer that doubles when a take
    outgrows it; a returned trajectory views rows no later take writes.
    ``take`` raises OrbitEscape (with the offending step index) if the
    state becomes non-finite or any coordinate exceeds ``escape_bound``,
    or if the observable is non-finite; unbounded drift otherwise
    poisons the downstream linear algebra.
    """

    def __init__(self, dynamical_map, observable, x0, escape_bound=DEFAULT_ESCAPE_BOUND):
        self.dynamical_map = dynamical_map
        self.observable = observable
        self.escape_bound = escape_bound
        self.samples_drawn = 0
        self._state = np.asarray(x0, dtype=float)  # at sample max(samples_drawn - 1, 0)
        self._buffer = None

    def take(self, n):
        if n < 1:
            raise ContractViolation(f"need n >= 1, got {n}")
        if n <= self.samples_drawn:
            return Trajectory(self._buffer[:n])
        have, point = self.samples_drawn, self._state
        if have == 0:
            first = np.array(self.observable.evaluate(point), dtype=float, ndmin=2)
            if not np.all(np.isfinite(first)):
                raise OrbitEscape("observable non-finite at step 0", step=0)
            self._buffer, have = first, 1
        if n > self._buffer.shape[0]:
            grown = np.empty((max(n, 2 * self._buffer.shape[0]), self._buffer.shape[1]))
            grown[:have] = self._buffer[:have]
            self._buffer = grown
        out, bound = self._buffer, self.escape_bound
        step, evaluate = self.dynamical_map.step, self.observable.evaluate
        for i in range(have, n):
            point = step(point)
            # scalar checks on the coordinates: numpy reductions on a 2-vector
            # cost more than the map step itself
            coords = point.tolist() if isinstance(point, np.ndarray) else point
            for c in coords:
                if not (math.isfinite(c) and abs(c) <= bound):
                    raise OrbitEscape(f"orbit escaped at step {i}", step=i)
            out[i] = evaluate(point)
        bad = np.flatnonzero(~np.all(np.isfinite(out[have:n]), axis=1))
        if bad.size:
            first_bad = have + int(bad[0])
            raise OrbitEscape(f"observable non-finite at step {first_bad}", step=first_bad)
        self._state, self.samples_drawn = point, n
        return Trajectory(out[:n])


def sample_trajectory(dynamical_map, observable, x0, n, escape_bound=DEFAULT_ESCAPE_BOUND):
    """Sample a_t = observable(F^t(x0)) for t = 0 .. n-1.

    Uses exactly n - 1 map evaluations, and raises OrbitEscape as
    TrajectorySource.take does.
    """
    return TrajectorySource(dynamical_map, observable, x0, escape_bound).take(n)
