"""Dense linear-algebra kernels with explicit contracts.

Every solver decision used elsewhere in the package is isolated here:
least squares go through an orthogonal factorization (never normal
equations, which square the condition number and destroy the
near-machine-precision residuals the rest of the pipeline relies on),
and eigenvalues go through the standard Hessenberg + shifted-QR path.
All functions are pure and validate their inputs eagerly.
"""

import numpy as np
import scipy.linalg

from .errors import ContractViolation, SolverFailure


def _as_matrix(a, name, dtype):
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ContractViolation(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
        raise ContractViolation(f"{name} contains non-finite entries")
    return a


def least_squares_solve(a, b):
    """Minimum-norm least-squares solution of ``a @ x = b`` for real data.

    ``a`` is m-by-n with m >= n; ``b`` has length m.  Uses a complete
    orthogonal factorization (LAPACK gelsy), which returns the
    minimum-norm minimizer when ``a`` is rank deficient.
    """
    a = _as_matrix(a, "a", float)
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ContractViolation(f"b must be a vector, got shape {b.shape}")
    m, n = a.shape
    if m < n:
        raise ContractViolation(f"need m >= n, got {m} x {n}")
    if b.shape[0] != m:
        raise ContractViolation(f"b has length {b.shape[0]}, expected {m}")
    if not np.all(np.isfinite(b)):
        raise ContractViolation("b contains non-finite entries")
    x, _, _, _ = scipy.linalg.lstsq(a, b, lapack_driver="gelsy", check_finite=False)
    return x


def complex_least_squares_solve(a, b):
    """Columnwise minimum-norm least squares for complex ``a @ X = b``.

    ``b`` may be a vector or a matrix of stacked right-hand sides; the
    solution has one column per column of ``b``.  Returns
    ``(solution, rank)``: ``rank`` is the effective rank that gelsy's
    pivoted QR settles on, with singular values estimated below
    max(m, n) * eps times the largest treated as zero -- the tolerance
    of ``np.linalg.matrix_rank``.  (gelsy's default cutoff, eps alone,
    can call a Vandermonde matrix with a repeated node full rank.)
    """
    a = _as_matrix(a, "a", complex)
    b = np.asarray(b, dtype=complex)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    if b.ndim != 2:
        raise ContractViolation(f"b must be a vector or matrix, got shape {b.shape}")
    m, n = a.shape
    if m < n:
        raise ContractViolation(f"need m >= n, got {m} x {n}")
    if b.shape[0] != m:
        raise ContractViolation(f"b has {b.shape[0]} rows, expected {m}")
    if not np.all(np.isfinite(b.view(float))):
        raise ContractViolation("b contains non-finite entries")
    x, _, rank, _ = scipy.linalg.lstsq(a, b, cond=max(m, n) * np.finfo(float).eps,
                                       lapack_driver="gelsy", check_finite=False)
    return (x[:, 0] if squeeze else x), int(rank)


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
        raise SolverFailure(f"eigenvalue iteration failed: {exc}", detail=str(exc)) from exc
