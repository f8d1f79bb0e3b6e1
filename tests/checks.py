"""Shared helpers and independent reference constructions for the test suite.

The references are built from their definitions (polynomial products
expanded by convolution, explicit sums over the orbit), never through
the package's least-squares machinery, so they can serve as oracles
for it.
"""

import math
import tracemalloc

import numpy as np
import scipy.optimize

from birkhoff_rre.birkhoff import bump_weights
from birkhoff_rre.errors import ContractViolation, OrbitEscape, ValidationFailure
from birkhoff_rre.fourier import VALIDATION_GRID, eval_circle
from birkhoff_rre.maps import DynamicalMap, Observable, Trajectory
from birkhoff_rre.numerics import complex_least_squares_solve
from birkhoff_rre.oracle import _conjugate_pair_factor
from birkhoff_rre.spectral import CRITICAL_X_TOL

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
TWO_PI = 2.0 * math.pi


def pair_distance(a, b):
    """Largest matched distance between two complex multisets."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape, f"multiset sizes differ: {a.shape} vs {b.shape}"
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def traced_peak(run):
    """Peak bytes that tracemalloc sees allocated during run(), above what
    was held when it started.  numpy reports its arrays to tracemalloc;
    LAPACK's working copy inside np.linalg.qr is allocated outside it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def figure2_signal(n):
    """exp(cos 2 pi theta) sampled at theta = golden * t."""
    t = np.arange(n)
    return np.exp(np.cos(2.0 * math.pi * GOLDEN * t))


def wba_feasible_objective(u, k, t, eps):
    """Objective value of the symmetrized-window feasible filter.

    Assembled directly from the difference signal with explicit loops
    over the sliding windows; independent of the solver's Hankel and
    folding machinery.
    """
    w_row = bump_weights(t)
    w_tap = bump_weights(2 * k + 1)
    w_tap = 0.5 * (w_tap + w_tap[::-1])
    total = 0.0
    for row in range(t):
        window = u[row:row + 2 * k + 1]          # (2K+1, D)
        filtered = w_tap @ window                # (D,)
        total += w_row[row] * float(filtered @ filtered)
    # regularization term of the feasible filter: eps * sum w~_k^2 / w~_k
    return total + eps * float(w_tap.sum())


def complex_mode_fit(nodes, samples):
    """(V, rank) minimizing ||W^{1/2} (Phi V - A)||, Phi_{mj} = nodes_j^m.

    The complex Vandermonde fit, one column per node: the reference for
    ``fourier.project_circle``, which fits the real Fourier basis.  A is
    ``samples`` (N rows) and W the bump weights of length N.
    """
    n = samples.shape[0]
    powers = nodes[None, :] ** np.arange(n)[:, None]
    sqrt_w = np.sqrt(bump_weights(n))[:, None]
    return complex_least_squares_solve(sqrt_w * powers, sqrt_w * samples)


def projection_prominences(nodes, samples):
    """Weighted projection amplitude of ``samples`` at each node, by a loop.

    The reference for ``spectral.mode_prominence``: the mean m = sum_t w_t
    a_t, then for each node z the sum S_z = sum_t w_t (a_t - m) conj(z)^t
    accumulated one sample at a time, with conj(z)^t carried by repeated
    multiplication.  A node within 1e-9 of 1 gets |m|, a node on the real
    axis |S_z| and any other 2 |S_z|.
    """
    w = bump_weights(samples.shape[0])
    mean = np.zeros(samples.shape[1])
    for w_t, a_t in zip(w, samples):
        mean += w_t * a_t
    step = np.conj(nodes)
    power = np.ones(nodes.shape[0], dtype=complex)
    sums = np.zeros((nodes.shape[0], samples.shape[1]), dtype=complex)
    for w_t, a_t in zip(w, samples):
        sums += w_t * power[:, None] * (a_t - mean)[None, :]
        power *= step
    amplitudes = np.where(nodes.imag == 0, 1.0, 2.0) * np.linalg.norm(sums, axis=1)
    return np.where(np.abs(nodes - 1.0) <= 1e-9, np.linalg.norm(mean), amplitudes)


class CounterMap(DynamicalMap):
    """(x, y) -> (x + 1, y + 1): sample t of the orbit of (0, 0) is (t, t)."""

    def step(self, point):
        return np.asarray(point, dtype=float) + 1.0


class IdentityObservable(Observable):
    """The state itself, to read raw orbits (the package offers only smooth
    observables, and the angle x jumps where it wraps)."""

    def __init__(self, dimension=2):
        self.output_dimension = dimension

    def evaluate(self, point):
        return np.asarray(point, dtype=float).copy()


class NanFromObservable(Observable):
    """x, or nan once x >= ``threshold`` (D = 1)."""

    output_dimension = 1

    def __init__(self, threshold):
        self.threshold = threshold

    def evaluate(self, point):
        return np.array((point[0] if point[0] < self.threshold else math.nan,))


def standard_map_inverse_step(x, y, k):
    """Inverse of ``maps.standard_map_step``."""
    x_prev = (x - y) % 1.0
    y_prev = y + k / TWO_PI * math.sin(TWO_PI * x_prev)
    return x_prev, y_prev


def continued_fraction_convergents(omega, count):
    """First ``count`` convergents N_j / L_j of omega in (0, 1).

    Each convergent satisfies |omega - N/L| < 1/L^2.  A rational omega
    terminates the expansion early, returning a shorter list.
    """
    if not 0.0 < omega < 1.0:
        raise ContractViolation(f"need omega in (0, 1), got {omega}")
    if count < 1:
        raise ContractViolation(f"need count >= 1, got {count}")
    convergents = []
    h_prev, h_curr = 1, 0   # numerators
    k_prev, k_curr = 0, 1   # denominators
    x = omega
    for _ in range(count):
        recip = 1.0 / x
        if recip > 1e15:
            break
        a = int(math.floor(recip))
        h_prev, h_curr = h_curr, a * h_curr + h_prev
        k_prev, k_curr = k_curr, a * k_curr + k_prev
        if abs(omega - h_curr / k_curr) >= 1.0 / k_curr ** 2:
            break  # floating-point exhausted; drop the degraded tail
        convergents.append((h_curr, k_curr))
        x = recip - a
        if x <= 1e-15:
            break  # rational within double precision; expansion terminates
    return convergents


def reference_polynomial(omega, period, alpha, convergent_index):
    """Convergent-based reference filter for frequency omega, period p.

    Exact roots at the conjugate pairs lambda_{+-j} for
    j <= floor(alpha p L_n), root-of-unity surrogates mu_{+-j} beyond,
    up to j = floor(p L_n / 2); L_n is the ``convergent_index``-th
    continued-fraction denominator of omega.  Returns the coefficients,
    ascending, normalized to value one at z = 1.
    """
    if not 0.0 < alpha < 0.25:
        raise ContractViolation(f"need alpha in (0, 1/4), got {alpha}")
    if period < 1:
        raise ContractViolation(f"need period >= 1, got {period}")
    convergents = continued_fraction_convergents(omega, convergent_index)
    if len(convergents) < convergent_index:
        raise ContractViolation(
            f"omega has only {len(convergents)} convergents, need {convergent_index}"
        )
    num, den = convergents[convergent_index - 1]
    exact_pairs = int(math.floor(alpha * period * den))
    total_pairs = int(math.floor(period * den / 2))

    def lam(j):
        # signal frequency ladder (j omega + residue class) / p
        quotient, residue = divmod(j, period)
        angle = TWO_PI * (quotient * omega + residue) / period
        return complex(math.cos(angle), math.sin(angle))

    def mu(j):
        quotient, residue = divmod(j, period)
        angle = TWO_PI * (quotient * num / den + residue) / period
        return complex(math.cos(angle), math.sin(angle))

    coeffs = np.array([1.0])
    for j in range(1, exact_pairs + 1):
        coeffs = np.convolve(coeffs, _conjugate_pair_factor(lam(j)))
    for j in range(exact_pairs + 1, total_pairs + 1):
        coeffs = np.convolve(coeffs, _conjugate_pair_factor(mu(j)))
    return coeffs / coeffs.sum()


def brute_force_fourier_coefficient(samples, omega, mode, n=None):
    """Weighted Birkhoff estimate of one Fourier coefficient.

    Averages a_t e^{-2 pi i mode omega t} over ``n`` samples (default:
    all supplied).  This is the independent oracle for circle
    coefficients; it never touches the projection machinery.
    """
    if isinstance(samples, Trajectory):
        samples = samples.samples
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if n is None:
        n = samples.shape[0]
    if n < 1000:
        raise ContractViolation(f"need at least 1000 samples, got {n}")
    if samples.shape[0] < n:
        raise ContractViolation(f"only {samples.shape[0]} samples supplied, need {n}")
    w = bump_weights(n)
    phases = np.exp(-2j * math.pi * mode * omega * np.arange(n))
    return (w * phases) @ samples[:n]


def unfold_root(x):
    """Both solutions z of (z + 1/z)/2 = x, stable branch first: the scalar
    reference for ``spectral.palindromic_roots``' vectorized unfolding."""
    if abs(x.imag) < 1e-14 and abs(x.real) <= 1.0 + CRITICAL_X_TOL:
        # exact unit modulus for the dominant case
        xr = x.real if abs(x.real) <= 1.0 else math.copysign(2.0 - abs(x.real), x.real)
        z = complex(xr, math.sqrt(max(1.0 - xr * xr, 0.0)))
        return z, z.conjugate()
    s = np.sqrt(x * x - 1.0)
    if (np.conj(x) * s).real < 0.0:
        s = -s
    z = x + s
    return complex(z), complex(1.0 / z)


def reference_samples(dynamical_map, observable, x0, n, escape_bound):
    """The first n samples of the orbit, one ``step`` and ``evaluate`` per sample.

    The reference for ``TrajectorySource.take`` from an empty source: a
    coordinate that is non-finite or above ``escape_bound`` at step i raises
    OrbitEscape at i with i evaluations, unless a non-finite observable came
    earlier; that raises at its own step, with i evaluations, or n - 1 when
    the coordinates never escaped.
    """
    point = np.asarray(x0, dtype=float)
    rows = [np.atleast_1d(np.asarray(observable.evaluate(point), dtype=float))]
    evaluations = n - 1
    for i in range(1, n):
        point = dynamical_map.step(point)
        coords = np.asarray(point, dtype=float)
        if not (np.all(np.isfinite(coords)) and np.all(np.abs(coords) <= escape_bound)):
            evaluations = i
            break
        rows.append(np.atleast_1d(np.asarray(observable.evaluate(point), dtype=float)))
    for step, row in enumerate(rows):
        if not np.all(np.isfinite(row)):
            raise OrbitEscape(f"observable non-finite at step {step}", step=step,
                              evaluations=evaluations)
    if len(rows) < n:
        raise OrbitEscape(f"orbit escaped at step {evaluations}", step=evaluations,
                          evaluations=evaluations)
    return np.array(rows)


def point_advance(dynamical_map, observable):
    """One map step in observable space for a single value (D,)."""
    def advance(value):
        state = observable.invert(value)
        return np.atleast_1d(
            np.asarray(observable.evaluate(dynamical_map.step(state)), dtype=float))

    return advance


def reference_validation_residual(circle, advance):
    """``fourier.validation_residual`` as one ``advance`` call per grid point
    and component, with a per-point finiteness check and sum."""
    p = circle.period
    thetas = np.arange(VALIDATION_GRID) / VALIDATION_GRID
    values = [eval_circle(circle, j + 1, thetas) for j in range(p)]
    targets = values[1:] + [eval_circle(circle, 1, (thetas + circle.rotation) % 1.0)]
    total = 0.0
    for idx in range(VALIDATION_GRID):
        for source, target in zip(values, targets):
            img = advance(source[idx])
            if not np.all(np.isfinite(img)):
                raise ValidationFailure(f"map escaped at grid point {idx}")
            diff = target[idx] - img
            total += float(diff @ diff)
    return math.sqrt(total / (p * VALIDATION_GRID))
