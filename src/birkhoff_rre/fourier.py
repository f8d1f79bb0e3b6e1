"""Fourier parameterization of classified circles and island chains.

Once the rotation number is known, the circle is recovered by a
weighted projection of the trajectory onto the modes e^{2 pi i l omega t},
|l| <= L.  The truncation L is chosen so a Gershgorin bound keeps the
projection well conditioned.  A fitted chain is validated by measuring
how well one application of the map carries each component onto the
next (and the last onto the rotated first) on a uniform grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .birkhoff import bump_weights
from .errors import ContractViolation, ValidationFailure
from .numerics import least_squares_solve

GAMMA_MAX = 0.5        # choose_num_modes keeps gamma_L below this
VALIDATION_GRID = 128  # J, the validation_residual grid size


@dataclass
class FourierCircle:
    """Truncated Fourier model of a period-p chain of circles.

    ``coefficients`` has shape (2L+1, p*D); row l+L holds mode l, and
    the D columns starting at (j-1)*D hold island component j.  The
    rows are exactly conjugate symmetric, V_{-l} = conj(V_l), so the
    model is real.  ``condition_estimate`` is the
    Gershgorin upper bound on the weighted basis' condition number (see
    condition_bound), inf when that bound fails.
    """

    period: int
    rotation: float
    num_modes: int          # L
    coefficients: np.ndarray
    dimension: int          # observable dimension D of one component
    condition_estimate: float = 0.0


def _gamma_sums(window, omega, terms):
    """Yield gamma_m = sum_{n=1}^{m} |eta_n| for m = 1 .. terms.

    eta_n = sum_{t=0}^{window} w_{t,window+1} e^{2 pi i omega n t} are the
    off-diagonal entries of the projection's Toeplitz normal matrix; the
    phases advance by repeated multiplication.
    """
    w = bump_weights(window + 1)
    base = np.exp(2j * math.pi * omega * np.arange(window + 1))
    phase = np.ones(window + 1, dtype=complex)
    acc = 0.0
    for _ in range(terms):
        phase = phase * base
        acc += abs(np.dot(w, phase))
        yield acc


def choose_num_modes(window, omega):
    """Largest L whose projection stays provably well conditioned.

    The normal matrix of the mode projection is Toeplitz with entries
    eta_n = sum_{t=0}^{window} w_{t,window+1} e^{2 pi i omega n t}, so
    gamma_L = sum_{n=1}^{2L} |eta_n| < GAMMA_MAX bounds its condition
    number by sqrt((1+2 gamma_L)/(1-2 gamma_L)).  Returns L >= 0
    (L = 0 is a mean-only fit), capped so 2L+1 never exceeds the
    sample count.
    """
    if window < 2:
        raise ContractViolation(f"need window >= 2, got {window}")
    best = 0
    for n, gamma in enumerate(_gamma_sums(window, omega, 2 * ((window - 1) // 2)), 1):
        if gamma >= GAMMA_MAX:
            break
        if n % 2 == 0:
            best = n // 2
    return best


def condition_bound(window, omega, num_modes):
    """Gershgorin bound sqrt((1+2g)/(1-2g)) for the projection at L.

    Returns inf when 2g >= 1, where the bound says nothing.
    """
    gamma = max(_gamma_sums(window, omega, 2 * num_modes), default=0.0)  # sums only grow
    if 2.0 * gamma >= 1.0:
        return math.inf
    return math.sqrt((1.0 + 2.0 * gamma) / (1.0 - 2.0 * gamma))


def weighted_mode_fit(nodes, samples):
    """V minimizing ||W^{1/2} (Re(Phi V) - A)||, Phi_{mj} = nodes_j^m.

    A is ``samples`` (N rows), W the bump weights of length N, and V has
    one row per node.  The fit runs in real arithmetic: for a node
    r e^{i theta}, Re(r^m e^{i m theta} V_j) = r^m (C cos(m theta) +
    S sin(m theta)) with V_j = C - iS, so each node gets the column
    r^m cos(m theta), and a node off the real axis also r^m sin(m theta).
    A node on the real axis gets a real V_j.  For a real signal, one
    node z stands for the conjugate pair z, conj(z): their complex
    coefficients are V_j / 2 and conj(V_j) / 2.
    """
    n = samples.shape[0]
    m = np.arange(n)[:, None]
    off_axis = nodes.imag != 0
    phase = m * np.angle(nodes)
    sqrt_w = np.sqrt(bump_weights(n))[:, None]
    scale = sqrt_w * np.abs(nodes) ** m
    basis = np.hstack([scale * np.cos(phase), scale[:, off_axis] * np.sin(phase[:, off_axis])])
    x, _ = least_squares_solve(basis, sqrt_w * samples, strict_rank=True)
    v = x[:nodes.shape[0]].astype(complex)
    v[off_axis] -= 1j * x[nodes.shape[0]:]
    return v


def project_circle(trajectory, omega, num_modes, period=1):
    """Weighted least-squares Fourier coefficients of the trajectory.

    The modes are lambda_l^m with lambda_l = e^{2 pi i omega l} for
    |l| <= L, and rows carry the bump weights of the full sample length.
    The fit is real (weighted_mode_fit on l = 0..L), and V_{-l} =
    conj(V_l) is set from it.  For period > 1 the trajectory must already
    be the stacked signal (dimension period * D).
    """
    a = trajectory.samples
    n = a.shape[0]
    l = int(num_modes)
    if l < 0:
        raise ContractViolation(f"need num_modes >= 0, got {l}")
    if 2 * l + 1 > n:
        raise ContractViolation(f"2L+1 = {2 * l + 1} exceeds trajectory length {n}")
    if period < 1 or a.shape[1] % period != 0:
        raise ContractViolation(
            f"dimension {a.shape[1]} is not a multiple of period {period}"
        )
    v = weighted_mode_fit(np.exp(2j * math.pi * omega * np.arange(l + 1)), a)
    coeffs = np.concatenate([v[:0:-1].conj() / 2, v[:1], v[1:] / 2])
    return FourierCircle(
        period=period,
        rotation=float(omega),
        num_modes=l,
        coefficients=coeffs,
        dimension=a.shape[1] // period,
        condition_estimate=condition_bound(n - 1, omega, l),
    )


def eval_circle(circle, component, theta):
    """Real value of island component j at angle theta in [0, 1).

    Components are 1-indexed (1 <= j <= period).  ``theta`` is a scalar,
    giving one value of shape (D,), or an array of angles, giving one
    row per angle.
    """
    if not 1 <= component <= circle.period:
        raise ContractViolation(
            f"component {component} out of range 1..{circle.period}"
        )
    l = circle.num_modes
    d = circle.dimension
    block = circle.coefficients[:, (component - 1) * d:component * d]
    thetas = np.asarray(theta, dtype=float)
    phases = np.exp(2j * math.pi * np.multiply.outer(thetas, np.arange(2 * l + 1) - l))
    return (phases @ block).real


def make_observable_advance(dynamical_map, observable):
    """One map application expressed in observable space.

    Returns (advance, substituted): ``advance`` sends an observable
    value through observable^{-1}, the map, and the observable again.
    ``substituted`` is True when the observable is a genuine change of
    coordinates rather than the identity, which is flagged in output
    because the conjugacy is then checked in observable space.
    """
    from .maps import IdentityObservable

    def advance(value):
        state = observable.invert(value)
        return np.atleast_1d(
            np.asarray(observable.evaluate(dynamical_map.step(state)), dtype=float)
        )

    return advance, not isinstance(observable, IdentityObservable)


def validation_residual(circle, advance):
    """Root-mean-square defect of the chain conjugacy on a uniform grid.

    R_p^2 = (1/(pJ)) sum_j [ |z_1(jh + omega) - F(z_p(jh))|^2
                             + sum_i |z_{i+1}(jh) - F(z_i(jh))|^2 ]
    with h = 1/J, J = VALIDATION_GRID.  ``advance`` must apply one step
    of the map in the space the circle lives in (see
    make_observable_advance).
    """
    p = circle.period
    thetas = np.arange(VALIDATION_GRID) / VALIDATION_GRID
    values = [eval_circle(circle, j + 1, thetas) for j in range(p)]
    # component i is carried onto i + 1, and the last onto the rotated first
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


def fit_circle(classification):
    """Choose L and project the classified trajectory onto its modes."""
    traj = classification.fit_trajectory
    if traj is None:
        raise ContractViolation("classification carries no trajectory to fit")
    num_modes = choose_num_modes(traj.length - 1, classification.rotation)
    return project_circle(
        traj, classification.rotation, num_modes, classification.period
    )
