"""Dense linear-algebra kernels with explicit contracts.

Every solver decision used elsewhere in the package is isolated here.
Least squares go through one orthogonal-factorization routine,
``least_squares_solve`` (never normal equations, which square the
condition number and destroy the near-machine-precision residuals the
rest of the pipeline relies on): the filter solve and the circle fit's
real Fourier basis both call it, each with its own rank cutoff.
Eigenvalues go through the standard Hessenberg + shifted-QR path.  All
functions are pure and validate their inputs eagerly.
"""

import numpy as np
import scipy.linalg

from .errors import ContractViolation, SolverFailure


def _as_matrix(a, name, dtype):
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ContractViolation(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractViolation(f"{name} contains non-finite entries")
    return a


def least_squares_solve(a, b, strict_rank=False, dtype=float):
    """Columnwise minimum-norm least squares for ``a @ X = b``.

    ``a`` is m-by-n with m >= n; ``b`` is a vector of length m or an
    m-row matrix of stacked right-hand sides, and the solution has as
    many dimensions as ``b``.  Uses a complete orthogonal factorization
    (LAPACK gelsy), which returns the minimum-norm minimizer when ``a``
    is rank deficient.  Returns ``(solution, rank)``: ``rank`` is the
    effective rank that gelsy's pivoted QR settles on.  Singular values
    estimated below eps times the largest count as zero -- gelsy's
    default, which the filter solve needs near convergence -- or, with
    ``strict_rank``, below max(m, n) * eps, the tolerance of
    ``np.linalg.matrix_rank``: eps alone can call a Vandermonde matrix
    with a repeated node full rank.
    """
    a = _as_matrix(a, "a", dtype)
    b = np.asarray(b, dtype=dtype)
    if b.ndim not in (1, 2):
        raise ContractViolation(f"b must be a vector or matrix, got shape {b.shape}")
    m, n = a.shape
    if m < n:
        raise ContractViolation(f"need m >= n, got {m} x {n}")
    if b.shape[0] != m:
        raise ContractViolation(f"b has {b.shape[0]} rows, expected {m}")
    if not np.all(np.isfinite(b)):
        raise ContractViolation("b contains non-finite entries")
    cond = max(m, n) * np.finfo(float).eps if strict_rank else None
    x, _, rank, _ = scipy.linalg.lstsq(a, b, cond=cond, lapack_driver="gelsy",
                                       check_finite=False)
    return x, int(rank)


def complex_least_squares_solve(a, b):
    """``least_squares_solve`` in complex arithmetic with ``strict_rank``.

    The package fits its circles in real arithmetic; this complex form
    of the same solve is the reference that fit is tested against.
    """
    return least_squares_solve(a, b, strict_rank=True, dtype=complex)


def real_eigenvalues(m):
    """All eigenvalues of a real square matrix, with multiplicity.

    Complex eigenvalues come in conjugate pairs.  Order is unspecified.
    Raises SolverFailure if the QR iteration does not converge.
    """
    m = _as_matrix(m, "m", float)
    if m.shape[0] != m.shape[1]:
        raise ContractViolation(f"m must be square, got {m.shape}")
    try:
        return scipy.linalg.eigvals(m, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise SolverFailure(f"eigenvalue iteration failed: {exc}") from exc
