"""Dynamical maps, observables, and trajectory sampling.

A map is a ``DynamicalMap`` with a deterministic ``step``; users plug in
their own (e.g. numerically integrated return maps) without this package
shipping an integrator.  The Chirikov standard map is built in.  Maps and
observables work on blocks, one state or value per row, so each operation
is written once: the orbit buffer and the validation grid call the same
``step``, ``evaluate`` and ``invert`` as everything else.
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
    """Interface: a deterministic discrete-time map on R^n, stepped by blocks.

    ``step`` takes an (m, n) array of states, one per row, and returns the
    (m, n) array of their images.
    """

    def step(self, states):
        raise NotImplementedError

    def orbit(self, point, count, bound):
        """The states F(point), F^2(point), ... up to F^count(point), as an (m, n) array.

        Stops before the first state with a coordinate that is non-finite
        or above ``bound`` in magnitude, so fewer than ``count`` rows mean
        the orbit escaped at the next step: (0, n) when the first step
        escapes.  This default steps a one-row block ``count`` times, which
        costs numpy's per-call overhead on each step; a map whose step is
        cheap may override it with a faster loop giving the same states.
        """
        state = np.asarray(point, dtype=float).reshape(1, -1)
        states = np.empty((count, state.shape[1]))
        for i in range(count):
            state = np.asarray(self.step(state), dtype=float)
            # scalar checks on the coordinates: numpy reductions on one row
            # cost more than a cheap map step itself
            if not all(math.isfinite(c) and abs(c) <= bound for c in state.ravel().tolist()):
                return states[:i]
            states[i] = state
        return states


class Observable:
    """Interface: a smooth function of the map state with values in R^D, by blocks.

    ``evaluate`` takes an (m, n) array of states and returns the (m, D)
    array of their values; ``invert``, where defined, takes an (m, D)
    array of values back to the (m, n) array of states.
    """

    def evaluate(self, states):
        raise NotImplementedError

    def invert(self, values):
        """Map observable values back to state space, when well defined."""
        raise NotImplementedError(f"{type(self).__name__} is not invertible")


def _libm(fn, *arrays):
    """``fn`` of the math module applied elementwise, as an array.

    numpy's own sin, cos and hypot may round differently from the C
    library, which ``StandardMap.orbit``'s scalar loop calls through
    ``math``.
    """
    return np.array(list(map(fn, *(a.tolist() for a in arrays))), dtype=float)


class StandardMap(DynamicalMap):
    """Chirikov standard map with stochasticity parameter ``k``.

    y' = y - (k / 2pi) sin(2pi x);  x' = x + y' reduced into [0, 1).
    """

    def __init__(self, k):
        self.k = float(k)

    def step(self, states):
        x = states[:, 0]
        y = states[:, 1] - self.k / TWO_PI * _libm(math.sin, TWO_PI * x)
        return np.stack(((x + y) % 1.0, y), axis=1)

    def orbit(self, point, count, bound):
        """DynamicalMap.orbit for the standard map, in one loop over floats.

        The loop does ``step``'s arithmetic on one state at a time, so the
        states are bitwise those of ``step``, and it avoids the per-call
        overhead of stepping one-row blocks; the escape checks then run on
        the whole block.  Past an escape x is nan or in [0, 1), so the loop
        cannot fail there, and its steps are dropped.  A subclass that
        overrides ``step`` gets the default loop over its own ``step``.
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


class EmbeddingObservable(Observable):
    """Smooth embedding of the cylinder T x R into the plane.

    (x, y) -> (y + 0.5) (cos 2pi x, sin 2pi x).  Invertible for
    y > -0.5, which covers the regions of interest of the standard map.
    """

    def evaluate(self, states):
        angle = TWO_PI * states[:, 0]
        r = states[:, 1] + 0.5
        return np.stack((r * _libm(math.cos, angle), r * _libm(math.sin, angle)), axis=1)

    def invert(self, values):
        u, v = values[:, 0], values[:, 1]
        r = _libm(math.hypot, u, v)
        if np.any(r <= 0.0):
            raise ContractViolation("embedding not invertible at the origin")
        x = (_libm(math.atan2, v, u) / TWO_PI) % 1.0
        return np.stack((x, r - 0.5), axis=1)


class CoordinateObservable(Observable):
    """Project out a single state coordinate (D = 1)."""

    def __init__(self, index):
        self.index = int(index)

    def evaluate(self, states):
        return states[:, [self.index]]


class TrajectorySource:
    """One seed's orbit a_t = observable(F^t(x0)), drawn in bulk.

    ``take(n)`` returns the first n samples, stepping the map only past
    those already drawn, so ``samples_drawn`` - 1 map evaluations were
    made.  Each take makes one ``orbit`` call on the map and one
    ``evaluate`` call on the observable, and the first take one more
    ``evaluate`` call, for the first sample.  The samples live in one
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
            self._buffer = np.array(self.observable.evaluate(point.reshape(1, -1)), dtype=float)
        filled = max(have, 1)  # buffer rows holding samples
        if n > self._buffer.shape[0]:
            grown = np.empty((max(n, 2 * self._buffer.shape[0]), self._buffer.shape[1]))
            grown[:filled] = self._buffer[:filled]
            self._buffer = grown
        states = self.dynamical_map.orbit(point, n - filled, self.escape_bound)
        stop = filled + len(states)  # first step not drawn: n, or the escaping step
        if stop > filled:
            self._buffer[filled:stop] = self.observable.evaluate(states)
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
