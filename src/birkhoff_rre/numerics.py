"""Dense linear-algebra kernels with explicit contracts.

Every solver decision used elsewhere in the package is isolated here.
Least squares go through one orthogonal-factorization routine,
``least_squares_solve`` (never normal equations, which square the
condition number and destroy the near-machine-precision residuals the
rest of the pipeline relies on): the filter solve and the circle fit's
real Fourier basis both call it, each with its own rank cutoff.  Each
caller writes its system and right-hand sides straight into one
column-major buffer [a | b], and the solve factors that buffer as it
is: with the two working copies ``np.linalg.qr`` makes, three arrays of
the system's size are alive while LAPACK factors.  It makes one
unpivoted QR factorization, back-substitutes on its triangle and falls
back to an SVD of that triangle only when a condition estimate, driven
by a fixed counter-based Gaussian draw (``gaussian_probes``, so
numpy.random is never loaded), says the triangle may be rank deficient.
Eigenvalues go through the standard Hessenberg + shifted-QR path.  All
functions are pure and validate their inputs eagerly.
"""

import numpy as np

from .errors import ContractViolation, SolverFailure

EPS = np.finfo(float).eps
# The filter solve's rank cutoff.  At eps itself the truncated SVD kept
# singular values within rounding of the cutoff (1.35 eps on a converged
# K = 50 filter of k = 2.0, (0.5, 0.4923)), which put that period-2
# chain's z = -1 root 1.2e-7 from 1/2, outside the island test's window.
FILTER_CUTOFF = 2.0 * EPS
BLOCK = 64   # rows per back-substitution step
PROBES = 2   # Gaussian columns of the condition estimate


def _all_finite(a):
    # One pass: a sum is finite only if every entry is.  It can also
    # overflow on finite entries, so that case is checked entry by entry.
    return bool(np.isfinite(a.sum()) or np.isfinite(a).all())


def _as_matrix(a, name, dtype):
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ContractViolation(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if not _all_finite(a):
        raise ContractViolation(f"{name} contains non-finite entries")
    return a


def _back_substitute(r, y):
    """R^-1 y for an upper-triangular R, BLOCK rows at a time from the bottom."""
    x = np.empty_like(y)
    stop = r.shape[0]
    for start in range((stop - 1) // BLOCK * BLOCK, -1, -BLOCK):
        x[start:stop] = np.linalg.solve(
            r[start:stop, start:stop], y[start:stop] - r[start:stop, stop:] @ x[stop:])
        stop = start
    return x


def _splitmix64(z):
    """The splitmix64 finalizer on a uint64 array (Steele, Lea & Flood, 2014)."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def gaussian_probes(size):
    """A (size, PROBES) array of standard normal draws, a fixed function of size.

    Counter-based, in numpy integer arithmetic: the size is hashed into a
    key, splitmix64 turns key + i * golden-ratio increment into the i-th
    64-bit word, the top 53 bits of each word give a uniform in (0, 1],
    and Box-Muller turns each pair of uniforms into two normals.  Every
    call and every process gets the same draw for the same size, and
    numpy.random is never imported.
    """
    pairs = -(-size * PROBES // 2)
    key = _splitmix64(np.array([size], dtype=np.uint64))
    counters = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    uniform = ((_splitmix64(counters + key) >> 11) + 1).astype(float) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(uniform[0::2]))
    angle = 2.0 * np.pi * uniform[1::2]
    normals = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=1)
    return normals.ravel()[:size * PROBES].reshape(size, PROBES)


def _solve_triangle(r, y, cutoff):
    """R^-1 y, or None when R may have a condition number of 1 / cutoff or more.

    The condition estimate rides along the back-substitution as the
    PROBES Gaussian columns g of ``gaussian_probes``, a fixed draw for
    each size, so the solve is deterministic.  |R^-1 g| is at least
    |u . g| |R^-1|_2, with u . g standard normal, so the larger of the
    two falls below |R^-1|_2 / 10 with probability under 0.01; and it is
    rarely much above |R^-1|_F <= sqrt(n) |R^-1|_2.  |R|_F lies between
    |R|_2 and sqrt(n) |R|_2.  The triangle is turned away when the
    product of the two reaches a tenth of 1 / cutoff, so a rank-deficient
    triangle gets through with probability under 0.01, and a full-rank
    one is turned away only when its condition number is within about
    10 n of 1 / cutoff.
    """
    columns = y.shape[1]
    with np.errstate(all="ignore"):
        try:
            z = _back_substitute(r, np.column_stack((y, gaussian_probes(r.shape[0]))))
        except np.linalg.LinAlgError:  # an exactly singular block
            return None
        estimate = np.linalg.norm(r) * np.linalg.norm(z[:, columns:], axis=0).max()
    if not (10.0 * estimate * cutoff < 1.0 and np.isfinite(z).all()):
        return None
    return z[:, :columns]


def _truncated_svd_solve(r, y, cutoff):
    """Minimum-norm solution over the singular values above cutoff times the largest.

    Formed from the SVD itself: LAPACK's gelsd (``np.linalg.lstsq``)
    chooses the same rank, but on converged filter triangles its solution
    left a residual up to ten times larger.  Returns (solution, rank).
    """
    try:
        u, s, vt = np.linalg.svd(r)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise SolverFailure(f"SVD did not converge: {exc}") from exc
    rank = int(np.count_nonzero(s > cutoff * s[0]))
    x = vt[:rank].conj().T @ ((u[:, :rank].conj().T @ y) / s[:rank, None])
    return x, rank


def augment(a, b, dtype=float):
    """The column-major m-by-(n + c) matrix [a | b] that least_squares_solve takes.

    ``a`` is m-by-n; ``b`` is a vector of length m or an m-by-c matrix of
    stacked right-hand sides.  For callers that hold a and b apart; the
    package's own stages write their systems into such a buffer directly.
    """
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    if a.ndim != 2:
        raise ContractViolation(f"a must be a 2-d matrix, got shape {a.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ContractViolation(f"b of shape {b.shape} does not match a of shape {a.shape}")
    b = b.reshape(a.shape[0], -1)
    augmented = np.empty((a.shape[0], a.shape[1] + b.shape[1]), dtype, order="F")
    augmented[:, :a.shape[1]] = a
    augmented[:, a.shape[1]:] = b
    return augmented


def least_squares_solve(augmented, unknowns, strict_rank=False):
    """Columnwise minimum-norm least squares for ``a @ X = B``, given ``[a | B]``.

    ``augmented`` is the m-by-(n + c) matrix whose first n = ``unknowns``
    columns are ``a`` and whose other c >= 1 columns are the right-hand
    sides, with m >= n, real or complex.  The caller builds it in the
    column-major layout LAPACK factors (``augment`` does, for an a and B
    held apart); it is read, never written, and this function makes no
    copy of it.  ``np.linalg.qr`` makes its own two working copies, so a
    solve holds three arrays of its size while LAPACK factors.  One
    unpivoted QR factorization gives the triangle R of ``a`` and the
    rotated right-hand sides Y, with |a x - b|^2 = |R x - y|^2 plus a
    constant, so both problems have the same minimizers.  The solution is
    R^-1 Y, by back-substitution, unless a condition estimate says R may
    be rank deficient; then it is the minimum-norm minimizer from an SVD
    of R.  Returns ``(X, rank)``, X n-by-c.  Singular values below
    FILTER_CUTOFF (2 eps) times the largest count as zero, the cutoff the
    filter solve needs near convergence, or, with ``strict_rank``, below
    max(m, n) * eps, the tolerance of ``np.linalg.matrix_rank``: eps
    alone can call a Vandermonde matrix with a repeated node full rank.
    """
    dtype = complex if np.iscomplexobj(augmented) else float
    augmented = _as_matrix(augmented, "augmented", dtype)
    m, n = augmented.shape[0], int(unknowns)
    if not 1 <= n < augmented.shape[1]:
        raise ContractViolation(
            f"need 1 <= unknowns < {augmented.shape[1]} columns, got {unknowns}")
    if m < n:
        raise ContractViolation(f"need m >= n, got {m} x {n}")
    tri = np.linalg.qr(augmented, mode="r")
    r, y = tri[:n, :n], tri[:n, n:]
    cutoff = max(m, n) * EPS if strict_rank else FILTER_CUTOFF
    x, rank = _solve_triangle(r, y, cutoff), n
    if x is None:
        x, rank = _truncated_svd_solve(r, y, cutoff)
    return x, rank


def complex_least_squares_solve(a, b):
    """``least_squares_solve`` of ``a @ x = b`` in complex arithmetic with ``strict_rank``.

    The package fits its circles in real arithmetic; this complex form
    of the same solve is the reference that fit is tested against.  The
    solution has as many dimensions as ``b``.
    """
    x, rank = least_squares_solve(augment(a, b, complex), np.shape(a)[1], strict_rank=True)
    return (x[:, 0] if np.ndim(b) == 1 else x), rank


def real_eigenvalues(m):
    """All eigenvalues of a real square matrix, with multiplicity.

    Complex eigenvalues come in conjugate pairs.  Order is unspecified.
    Raises SolverFailure if the QR iteration does not converge.
    """
    m = _as_matrix(m, "m", float)
    if m.shape[0] != m.shape[1]:
        raise ContractViolation(f"m must be square, got {m.shape}")
    try:
        # numpy returns a real array when every eigenvalue is real
        return np.linalg.eigvals(m).astype(complex)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise SolverFailure(f"eigenvalue iteration failed: {exc}") from exc
