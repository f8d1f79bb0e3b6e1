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
from .maps import Observable
from .numerics import least_squares_solve

GAMMA_MAX = 0.5        # choose_num_modes keeps gamma_L below this
VALIDATION_GRID = 128  # J, the validation_residual grid size
MODE_BLOCK = 32        # modes whose phases project_circle holds at once


@dataclass
class FourierCircle:
    """Truncated Fourier model of a period-p chain of circles.

    ``coefficients`` has shape (2L+1, p*D); row l+L holds mode l, and
    the D columns starting at (j-1)*D hold island component j.  The
    rows are exactly conjugate symmetric, V_{-l} = conj(V_l), so the
    model is real.
    """

    period: int
    rotation: float
    num_modes: int          # L
    coefficients: np.ndarray
    dimension: int          # observable dimension D of one component


def choose_num_modes(window, omega):
    """Largest L whose projection stays provably well conditioned.

    The normal matrix of the mode projection is Toeplitz with entries
    eta_n = sum_{t=0}^{window} w_{t,window+1} e^{2 pi i omega n t}, so
    gamma_L = sum_{n=1}^{2L} |eta_n| < GAMMA_MAX bounds its condition
    number by sqrt((1+2 gamma_L)/(1-2 gamma_L)).  The phases advance by
    repeated multiplication.  Returns L >= 0 (L = 0 is a mean-only fit),
    capped so 2L+1 never exceeds the sample count.
    """
    if window < 2:
        raise ContractViolation(f"need window >= 2, got {window}")
    w = bump_weights(window + 1)
    base = np.exp(2j * math.pi * omega * np.arange(window + 1))
    phase = np.ones(window + 1, dtype=complex)
    best, gamma = 0, 0.0
    for n in range(1, 2 * ((window - 1) // 2) + 1):
        phase = phase * base
        gamma += abs(np.dot(w, phase))
        if gamma >= GAMMA_MAX:
            break
        if n % 2 == 0:
            best = n // 2
    return best


def project_circle(trajectory, omega, num_modes, period=1):
    """Weighted least-squares Fourier coefficients of the trajectory.

    The modes are e^{2 pi i l omega m}, |l| <= L, and rows carry the bump
    weights w of the full sample length.  For a real signal the fit runs
    on the real basis [1, cos(2 pi omega l m), sin(2 pi omega l m)],
    l = 1..L; coefficients C_0, C_l, S_l give V_0 = C_0, V_l =
    (C_l - i S_l) / 2 and V_{-l} = conj(V_l).  For period > 1 the
    trajectory must already be the stacked signal (dimension period * D).
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
    sqrt_w = np.sqrt(bump_weights(n))
    # [1, cos, sin | a], each column times sqrt(w), written straight into the
    # buffer the solve factors, a block of modes at a time
    augmented = np.empty((n, 2 * l + 1 + a.shape[1]), order="F")
    augmented[:, 0] = sqrt_w
    step = 2 * math.pi * omega
    for start in range(1, l + 1, MODE_BLOCK):
        stop = min(start + MODE_BLOCK, l + 1)
        # transposed, so the phases run down each column as the buffer does
        phase = (step * np.multiply.outer(np.arange(start, stop), np.arange(n))).T
        for offset, wave in ((0, np.cos), (l, np.sin)):
            block = augmented[:, offset + start:offset + stop]
            wave(phase, out=block)
            block *= sqrt_w[:, None]
    np.multiply(sqrt_w[:, None], a, out=augmented[:, 2 * l + 1:])
    x, _ = least_squares_solve(augmented, 2 * l + 1, strict_rank=True)
    v = (x[1:l + 1] - 1j * x[l + 1:]) / 2
    coeffs = np.concatenate([v[::-1].conj(), x[:1], v])
    return FourierCircle(
        period=period,
        rotation=float(omega),
        num_modes=l,
        coefficients=coeffs,
        dimension=a.shape[1] // period,
    )


def _mode_phases(num_modes, theta):
    """e^{2 pi i l theta} for |l| <= L, one row per angle of ``theta``."""
    thetas = np.asarray(theta, dtype=float)
    return np.exp(2j * math.pi * np.multiply.outer(thetas, np.arange(2 * num_modes + 1)
                                                   - num_modes))


def _component_value(circle, component, phases):
    """Real values of island component j at the angles whose ``phases`` are given."""
    if not 1 <= component <= circle.period:
        raise ContractViolation(
            f"component {component} out of range 1..{circle.period}"
        )
    d = circle.dimension
    return (phases @ circle.coefficients[:, (component - 1) * d:component * d]).real


def eval_circle(circle, component, theta):
    """Real value of island component j at angle theta in [0, 1).

    Components are 1-indexed (1 <= j <= period).  ``theta`` is a scalar,
    giving one value of shape (D,), or an array of angles, giving one
    row per angle.
    """
    return _component_value(circle, component, _mode_phases(circle.num_modes, theta))


def make_observable_advance(dynamical_map, observable):
    """One map application expressed in observable space, on a block of values.

    Returns ``advance``, which sends a (J, D) block of observable values,
    one per row, through ``observable.invert``, ``dynamical_map.step`` and
    ``observable.evaluate``, one call each, and returns the (J, D) block
    of images, so the conjugacy is checked in observable space.  Raises
    NotImplementedError here, before any circle is fitted, for an
    observable that does not override ``Observable.invert``.
    """
    if type(observable).invert is Observable.invert:
        raise NotImplementedError(f"{type(observable).__name__} is not invertible")
    return lambda values: observable.evaluate(dynamical_map.step(observable.invert(values)))


def validation_residual(circle, advance):
    """Root-mean-square defect of the chain conjugacy on a uniform grid.

    R_p^2 = (1/(pJ)) sum_j [ |z_1(jh + omega) - F(z_p(jh))|^2
                             + sum_i |z_{i+1}(jh) - F(z_i(jh))|^2 ]
    with h = 1/J, J = VALIDATION_GRID.  ``advance`` must apply one step
    of the map to each row of a (J, D) block, in the space the circle
    lives in (see make_observable_advance); it is called once per
    component.  Raises ValidationFailure at the first grid point whose
    image is non-finite.
    """
    p = circle.period
    thetas = np.arange(VALIDATION_GRID) / VALIDATION_GRID
    phases = _mode_phases(circle.num_modes, thetas)  # shared by every component
    values = [_component_value(circle, j + 1, phases) for j in range(p)]
    # component i is carried onto i + 1, and the last onto the rotated first
    targets = values[1:] + [eval_circle(circle, 1, (thetas + circle.rotation) % 1.0)]
    images = np.stack([advance(block) for block in values], axis=1)  # (J, p, D)
    bad = np.flatnonzero(~np.isfinite(images).all(axis=(1, 2)))
    if bad.size:
        raise ValidationFailure(f"map escaped at grid point {bad[0]}")
    diff = np.stack(targets, axis=1) - images
    # one dot product per (grid point, component), summed in that order:
    # a stacked matmul runs the same dot kernel as diff_j @ diff_j, which
    # an einsum or a sum of squares does not match bit for bit
    squares = np.matmul(diff[..., None, :], diff[..., :, None]).ravel()
    total = float(np.cumsum(squares)[-1])  # sequential, not pairwise
    return math.sqrt(total / (p * VALIDATION_GRID))


def fit_circle(classification):
    """Choose L and project the classified trajectory onto its modes."""
    traj = classification.fit_trajectory
    if traj is None:
        raise ContractViolation("classification carries no trajectory to fit")
    num_modes = choose_num_modes(traj.length - 1, classification.rotation)
    return project_circle(traj, classification.rotation, num_modes, classification.period)
