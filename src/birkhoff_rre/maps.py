"""Dynamical maps, observables, and trajectory sampling.

A map is a ``DynamicalMap`` with a deterministic ``step``; users plug in
their own (e.g. numerically integrated return maps) without this package
shipping an integrator.  The Chirikov standard map is built in.
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


class DynamicalMap:
    """Interface: a deterministic discrete-time map on R^n."""

    def step(self, point):
        raise NotImplementedError

    def orbit(self, point, count, bound):
        """The states F(point), F^2(point), ... up to F^count(point), in order.

        Stops before the first state with a coordinate that is non-finite
        or above ``bound`` in magnitude, so fewer than ``count`` states
        mean the orbit escaped at the next step.  This default loops over
        ``step``; a map may override it with a faster loop giving the same
        states.
        """
        states = []
        for _ in range(count):
            point = self.step(point)
            # scalar checks on the coordinates: numpy reductions on a 2-vector
            # cost more than the map step itself
            coords = point.tolist() if isinstance(point, np.ndarray) else point
            if not all(math.isfinite(c) and abs(c) <= bound for c in coords):
                break
            states.append(point)
        return states


class Observable:
    """Interface: a smooth function of the map state with values in R^D."""

    output_dimension = None

    def evaluate(self, point):
        raise NotImplementedError

    def evaluate_many(self, points):
        """Rows ``evaluate(point)`` for a nonempty sequence of states, shape (m, D).

        This default loops over ``evaluate``; an observable may override
        it with a faster loop giving the same values.
        """
        values = np.array([self.evaluate(point) for point in points], dtype=float)
        return values.reshape(len(points), -1)

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

    def __init__(self, k):
        self.k = float(k)

    def step(self, point):
        x, y = standard_map_step(point[0], point[1], self.k)
        return np.array((x, y))

    def orbit(self, point, count, bound):
        """DynamicalMap.orbit for the standard map, as an (m, 2) array.

        One loop over floats steps the orbit with ``standard_map_step``'s
        arithmetic, so the states are bitwise those of ``step``; the escape
        checks then run on the whole block.  Past an escape x is nan or in
        [0, 1), so the loop cannot fail there, and its steps are dropped.
        A subclass that overrides ``step`` gets the default loop over its
        own ``step``.
        """
        if type(self).step is not StandardMap.step:
            return super().orbit(point, count, bound)
        x, y = float(point[0]), float(point[1])
        scale, sin, two_pi = self.k / TWO_PI, math.sin, TWO_PI
        xs, ys = [0.0] * count, [0.0] * count
        for i in range(count):
            y -= scale * sin(two_pi * x)
            x = (x + y) % 1.0
            xs[i] = x
            ys[i] = y
        states = np.array((xs, ys)).T
        inside = np.isfinite(states).all(axis=1) & (np.abs(states) <= bound).all(axis=1)
        return states if inside.all() else states[:np.argmin(inside)]


def _libm(fn, *arrays):
    """``fn`` of the math module applied elementwise, as an array.

    numpy's own sin, cos and hypot may round differently from the C
    library that the scalar methods call through ``math``.
    """
    return np.array(list(map(fn, *(a.tolist() for a in arrays))), dtype=float)


def _embed(x, y):
    """EmbeddingObservable.evaluate of the states (x, y), one row each, bitwise."""
    angle = TWO_PI * x
    r = y + 0.5
    return np.stack((r * _libm(math.cos, angle), r * _libm(math.sin, angle)), axis=1)


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

    def evaluate_many(self, points):
        """Observable.evaluate_many on whole arrays, bitwise ``evaluate``'s."""
        if type(self).evaluate is not EmbeddingObservable.evaluate:
            return super().evaluate_many(points)
        points = np.asarray(points, dtype=float)  # or a list of states from a map's step
        return _embed(points[:, 0], points[:, 1])

    def invert(self, value):
        u, v = value[0], value[1]
        r = math.hypot(u, v)
        if r <= 0.0:
            raise ContractViolation("embedding not invertible at the origin")
        x = (math.atan2(v, u) / TWO_PI) % 1.0
        return np.array((x, r - 0.5))


def standard_embedding_advance(k, values):
    """EmbeddingObservable.invert, one StandardMap(k) step and evaluate, per row.

    ``values`` is a (J, 2) block of observable values; returns the (J, 2)
    block of their images, each row bitwise the composition of the three
    methods: the same operations on whole arrays, with ``math`` for the
    transcendental ones.
    """
    u, v = values[:, 0], values[:, 1]
    r = _libm(math.hypot, u, v)
    if np.any(r <= 0.0):
        raise ContractViolation("embedding not invertible at the origin")
    x = (_libm(math.atan2, v, u) / TWO_PI) % 1.0
    y = r - 0.5
    y = y - k / TWO_PI * _libm(math.sin, TWO_PI * x)
    return _embed((x + y) % 1.0, y)


class CoordinateObservable(Observable):
    """Project out a single state coordinate (D = 1)."""

    output_dimension = 1

    def __init__(self, index):
        self.index = int(index)

    def evaluate(self, point):
        return np.array((float(point[self.index]),))


class TrajectorySource:
    """One seed's orbit a_t = observable(F^t(x0)), drawn in bulk.

    ``take(n)`` returns the first n samples, stepping the map only past
    those already drawn, so ``samples_drawn`` - 1 map evaluations were
    made.  Each take makes one ``orbit`` call on the map and one
    ``evaluate_many`` call on the observable.  The samples live in one
    buffer that doubles when a take outgrows it; a returned trajectory
    views rows no later take writes.
    ``take`` raises OrbitEscape (with the offending step index and the
    map evaluations made) if the state becomes non-finite or any
    coordinate exceeds ``escape_bound``, or if the observable is
    non-finite; unbounded drift otherwise poisons the downstream linear
    algebra.
    """

    def __init__(self, dynamical_map, observable, x0, escape_bound=DEFAULT_ESCAPE_BOUND):
        self.dynamical_map = dynamical_map
        self.observable = observable
        self.escape_bound = escape_bound
        self.samples_drawn = 0
        self._state = np.asarray(x0, dtype=float)  # at sample max(samples_drawn - 1, 0)
        self._buffer = None

    @property
    def dimension(self):
        """D of the observable, read off the first sample, which it draws if needed."""
        if self._buffer is None:
            self.take(1)
        return self._buffer.shape[1]

    def take(self, n):
        if n < 1:
            raise ContractViolation(f"need n >= 1, got {n}")
        have, point = self.samples_drawn, self._state
        if n <= have:
            return Trajectory(self._buffer[:n])
        if have == 0:
            self._buffer = np.array(self.observable.evaluate(point), dtype=float, ndmin=2)
        filled = max(have, 1)  # buffer rows holding samples
        if n > self._buffer.shape[0]:
            grown = np.empty((max(n, 2 * self._buffer.shape[0]), self._buffer.shape[1]))
            grown[:filled] = self._buffer[:filled]
            self._buffer = grown
        states = self.dynamical_map.orbit(point, n - filled, self.escape_bound)
        stop = filled + len(states)  # first step not drawn: n, or the escaping step
        if stop > filled:
            self._buffer[filled:stop] = self.observable.evaluate_many(states)
            point = states[-1]
        if stop < n:
            # an earlier non-finite observable in this take escaped first
            _raise_observable_escape(self._buffer, have, stop, evaluations=stop)
            raise OrbitEscape(f"orbit escaped at step {stop}", step=stop, evaluations=stop)
        # one scan of the rows this take drew, the first sample among them;
        # the whole extension was stepped, so n - 1 map evaluations were made
        _raise_observable_escape(self._buffer, have, n, evaluations=n - 1)
        self._state, self.samples_drawn = point, n
        return Trajectory(self._buffer[:n])


def _raise_observable_escape(samples, start, stop, evaluations):
    """Raise OrbitEscape at the first non-finite row of ``samples[start:stop]``, if any."""
    bad = np.flatnonzero(~np.all(np.isfinite(samples[start:stop]), axis=1))
    if bad.size:
        first_bad = start + int(bad[0])
        raise OrbitEscape(f"observable non-finite at step {first_bad}", step=first_bad,
                          evaluations=evaluations)


def sample_trajectory(dynamical_map, observable, x0, n, escape_bound=DEFAULT_ESCAPE_BOUND):
    """Sample a_t = observable(F^t(x0)) for t = 0 .. n-1.

    Uses exactly n - 1 map evaluations, and raises OrbitEscape as
    TrajectorySource.take does.
    """
    return TrajectorySource(dynamical_map, observable, x0, escape_bound).take(n)
