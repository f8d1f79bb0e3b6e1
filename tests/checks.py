"""Shared helpers for the test suite."""

import math

import numpy as np
import scipy.optimize

from birkhoff_rre.birkhoff import bump_weights
from birkhoff_rre.numerics import complex_least_squares_solve

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def pair_distance(a, b):
    """Largest matched distance between two complex multisets."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape, f"multiset sizes differ: {a.shape} vs {b.shape}"
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


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
    the package's real-basis ``weighted_mode_fit``.  A is ``samples``
    (N rows) and W the bump weights of length N.
    """
    n = samples.shape[0]
    powers = nodes[None, :] ** np.arange(n)[:, None]
    sqrt_w = np.sqrt(bump_weights(n))[:, None]
    return complex_least_squares_solve(sqrt_w * powers, sqrt_w * samples)
