"""The three averaging filters that ``birkhoff-rre figure2`` compares.

Each filter is built directly from its definition (the tuned filter from
its defining polynomial product, expanded by convolution), never
through the least-squares machinery, and is returned as its coefficient
array, normalized to sum to one.
"""

import math

import numpy as np

from .birkhoff import window_exponent
from .errors import ContractViolation, DegenerateFrequency

TWO_PI = 2.0 * math.pi


def all_ones_filter(n):
    """The plain-average filter of length n."""
    if n < 1:
        raise ContractViolation(f"need n >= 1, got {n}")
    return np.full(n, 1.0 / n)


def wba_window_filter(n):
    """Bump-window filter with endpoint-anchored sampling w(t/(n-1)).

    This samples the window on the closed grid including both endpoint
    zeros, the convention behind the reported three-filter comparison
    numbers; the library's ``bump_weights`` uses the strictly interior
    grid instead (see the weighted-average module).
    """
    if n < 3:
        raise ContractViolation(f"need n >= 3, got {n}")
    s = np.arange(n) / (n - 1.0)
    w = np.zeros(n)
    interior = (s > 0) & (s < 1)
    w[interior] = np.exp(window_exponent(s[interior]))
    return w / w.sum()


def _conjugate_pair_factor(lam):
    """Real quadratic (z - lam)(z - conj lam) / |1 - lam|^2, ascending."""
    denom = abs(1.0 - lam) ** 2
    if denom < 1e-12:
        raise DegenerateFrequency(
            f"filter root at {lam} coincides with z = 1; frequency is degenerate"
        )
    return np.array([1.0, -2.0 * lam.real, 1.0]) / denom


def tuned_filter(omega, length):
    """Filter annihilating the first floor(length/2) frequency pairs.

    Expands prod_k (z - e^{2 pi i omega k})(z - e^{-2 pi i omega k})
    normalized so the value at z = 1 is one; the expansion is a
    convolution of real quadratics with one exact renormalization at
    the end to absorb drift.
    """
    if length < 3 or length % 2 == 0:
        raise ContractViolation(f"need an odd length >= 3, got {length}")
    pairs = length // 2
    coeffs = np.array([1.0])
    for k in range(1, pairs + 1):
        lam = complex(math.cos(TWO_PI * omega * k), math.sin(TWO_PI * omega * k))
        coeffs = np.convolve(coeffs, _conjugate_pair_factor(lam))
    return coeffs / coeffs.sum()
