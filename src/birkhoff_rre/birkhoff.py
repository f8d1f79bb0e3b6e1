"""Smooth-bump weights, weighted Birkhoff averages and the doubling residual.

The window is the classic exponential bump w(s) = exp(-1/(s(1-s))) on
(0, 1), sampled strictly inside the interval so the essential
singularity at the endpoints is never hit.  Weighted averages with
these weights converge super-polynomially on smooth invariant circles,
which is what makes the convergence *rate* usable as a chaos
classifier.
"""

import numpy as np

from .errors import ContractViolation

_TINY = 5e-324  # smallest positive double; see bump_weights


def window_exponent(s):
    """Exponent of the bump window, -1/(s(1-s)), for s in (0, 1)."""
    s = np.asarray(s, dtype=float)
    return -1.0 / (s * (1.0 - s))


def bump_weights(n):
    """Normalized bump-window weights of length ``n``.

    Weight t is proportional to w((t+1)/(n+1)), normalized to sum to
    one.  All weights are positive and symmetric.  For very long
    windows the extreme raw values underflow double precision; those
    entries are clamped to the smallest positive double so positivity
    survives (they are below 1e-300 relative and never matter).
    """
    if n < 1:
        raise ContractViolation(f"need n >= 1, got {n}")
    s = (np.arange(n) + 1.0) / (n + 1.0)
    phi = window_exponent(s)
    w = np.exp(phi - phi.max())
    w /= w.sum()
    return np.maximum(w, _TINY)


def weighted_average(trajectory, weights):
    """Componentwise weighted average sum_t w_t a_t."""
    a = trajectory.samples
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.shape[0] != a.shape[0]:
        raise ContractViolation(
            f"weight length {weights.shape} does not match trajectory length {a.shape[0]}"
        )
    return weights @ a


def wba_doubling_residual_at(samples, half):
    """Distance between weighted averages over two halves of an orbit.

    Returns ||sum_t w_{t,T} a_t - sum_t w_{t,T} a_{t+T}|| with T =
    ``half``, from the first 2T rows of ``samples``.  Converges to zero
    super-polynomially on invariant circles and islands, and stalls on
    chaos, so it serves as the budget-matched comparison baseline.
    """
    if half < 1 or samples.shape[0] < 2 * half:
        raise ContractViolation("samples too short for the requested half-length")
    w = bump_weights(half)
    diff = w @ (samples[:half] - samples[half:2 * half])
    return float(np.linalg.norm(diff))
