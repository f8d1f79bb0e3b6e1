"""Filtered-average least squares on trajectory differences.

Given a trajectory a_t, the difference signal u_t = a_{t+1} - a_t has
zero mean on an invariant set, so a good averaging filter c should
annihilate it.  We find c of length 2K+1 minimizing

    || W_T^{1/2} U c ||^2  +  epsilon c^T W_K^{-1} c

subject to sum_k c_k = 1 and the palindromic symmetry
c_{K+k} = c_{K-k}, where U is the block-Hankel matrix of sliding
windows of u, W_T holds bump weights over the T windows, and W_K holds
symmetrized bump weights over the filter taps.  The attained value R^2
(and its scale-free form R_G) is the classification statistic: it
reaches machine precision on circles and islands and stalls on chaos.

The constraints are eliminated exactly: folding c to its K+1 distinct
entries turns the palindromic constraint into a change of basis that
preserves Euclidean norms, and the mean constraint is removed by
parameterizing its affine solution set with an orthonormal null-space
basis, the last K columns of a Householder reflector.  The reflector is
kept as its vector and applied in O(mK) work, never formed.  With
epsilon > 0 the variables are additionally scaled so the regularization
block becomes sqrt(epsilon) I; otherwise the wildly varying window
weights make the stacked system numerically unsolvable.  Either way the
minimizer is identical to the stated problem's.

The weighted, folded data matrix A, T*D rows tall (about 3(K+1) at the
defaults), is first replaced by the triangle R of its unpivoted QR
factorization, at most K+1 rows.  |A y| = |R y| for every y, so the
objective, the set of minimizers and the minimum-norm minimizer do not
change, and the rank-revealing least-squares solve runs on a
(K+1)-by-K matrix instead of a (T*D)-by-K one.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .birkhoff import bump_weights
from .errors import ContractViolation
from .maps import TrajectorySource  # kept here: perfbench/probe.py wraps rre.TrajectorySource
from .numerics import least_squares_solve

SQRT2 = math.sqrt(2.0)


def difference_signal(trajectory):
    """u_t = a_{t+1} - a_t as an (N-1, D) array."""
    if trajectory.length < 2:
        raise ContractViolation("difference signal needs at least 2 samples")
    a = trajectory.samples
    return a[1:] - a[:-1]


def symmetrized_tap_weights(k):
    """Bump weights of length 2K+1 symmetrized about the center tap."""
    w = bump_weights(2 * k + 1)
    return 0.5 * (w + w[::-1])


@dataclass
class RreProblem:
    """Assembled least-squares data for one (K, T, epsilon) solve."""

    half_length: int          # K
    window_count: int         # T
    dimension: int            # D
    epsilon: float
    hankel: np.ndarray        # U, (T*D, 2K+1); a read-only view of the signal
    row_weights: np.ndarray   # w_{t,T}, length T
    tap_weights: np.ndarray   # symmetrized w-tilde, length 2K+1


@dataclass
class FilterSolution:
    """Palindromic mean-one filter with its residuals."""

    coefficients: np.ndarray  # length 2K+1
    residual: float           # R
    scale_free_residual: float  # R_G
    signal_scale: float       # G
    half_length: int          # K
    window_count: int         # T
    epsilon: float
    fixed_point: bool = False


def build_problem(u, half_length, window_count, epsilon=0.0):
    """Assemble the block-Hankel system for a difference signal.

    ``u`` must supply at least T + 2K difference vectors, and T*D >= K
    is required for the system to be genuinely overdetermined (without
    it, chaotic trajectories would fit too).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    k, t = int(half_length), int(window_count)
    if k < 1 or t < 1:
        raise ContractViolation(f"need K >= 1 and T >= 1, got K={k}, T={t}")
    d = u.shape[1]
    needed = t + 2 * k
    if u.shape[0] < needed:
        raise ContractViolation(
            f"difference signal has {u.shape[0]} vectors, need {needed} "
            f"(trajectory of {needed + 1} samples)"
        )
    if t * d < k:
        raise ContractViolation(f"rank requirement T*D >= K fails: {t}*{d} < {k}")
    if epsilon < 0:
        raise ContractViolation(f"epsilon must be >= 0, got {epsilon}")
    # row r*D + i holds u[r:r + 2K+1, i]; for a C-contiguous u the first two
    # axes merge, so this stays a view of u, read-only so u cannot be written
    hankel = sliding_window_view(u, 2 * k + 1, axis=0)[:t].reshape(t * d, 2 * k + 1)
    return RreProblem(
        half_length=k,
        window_count=t,
        dimension=d,
        epsilon=float(epsilon),
        hankel=hankel,
        row_weights=bump_weights(t),
        tap_weights=symmetrized_tap_weights(k),
    )


def _fold(hankel, k):
    """Fold the Hankel columns onto the K+1 palindromic coordinates.

    The fold d_0 = c_K, d_j = (c_{K+j} + c_{K-j}) / sqrt(2) is an
    isometry on palindromic vectors, so |W^(1/2) U c| = |A d|.
    """
    folded = np.empty((hankel.shape[0], k + 1))
    folded[:, 0] = hankel[:, k]
    folded[:, 1:] = (hankel[:, k + 1:] + hankel[:, k - 1::-1]) / SQRT2
    return folded


def _unfold(d, k):
    c = np.empty(2 * k + 1)
    c[k] = d[0]
    c[k + 1:] = d[1:] / SQRT2
    c[:k] = c[k + 1:][::-1]
    # The null-space reconstruction satisfies the mean constraint only to
    # norm(d) * eps, which matters when the minimizer has large norm.
    # Repair the sum exactly on the smallest-magnitude tap (whose ulp is
    # smallest), mirroring so the palindromic symmetry stays bit-exact.
    defect = 1.0 - math.fsum(c)
    if defect != 0.0:
        j = int(np.argmin(np.abs(c[k:])))
        if j == 0:
            c[k] += defect
        else:
            c[k + j] += 0.5 * defect
            c[k - j] = c[k + j]
    return c


def _householder(v):
    """Vector h and beta with H = I - beta h h^T mapping v onto the e_1 axis.

    H is symmetric and orthogonal, so its last n-1 columns are an
    orthonormal basis of v-perp.  H itself is never formed:
    a @ H[:, 1:] = a[:, 1:] - beta (a @ h) h[1:]^T, and
    H[:, 1:] @ x = (0, x) - beta (h[1:] . x) h.
    """
    h = np.array(v, dtype=float)
    h[0] += math.copysign(np.linalg.norm(v), v[0] if v[0] != 0 else 1.0)
    return h, 2.0 / (h @ h)


def scale_free_residual(residual, epsilon, signal_scale):
    """R_G = sqrt(R^2 - epsilon) / G, with tiny negatives clamped.

    Returns 0 for a fixed point (G = 0); callers carry the flag.
    """
    if signal_scale == 0.0:
        return 0.0
    return math.sqrt(max(residual * residual - epsilon, 0.0)) / signal_scale


def solve_filter(problem):
    """Solve for the optimal palindromic mean-one filter.

    The weighted, folded data matrix A is replaced by the triangle R of
    its QR factorization (|A y| = |R y|), and the mean-one constraint
    v . d = 1 is eliminated with the particular solution v / |v|^2 plus
    K coordinates x along the Householder basis of v-perp.  The
    particular solution is orthogonal to that basis, so the
    regularization block on x is sqrt(epsilon) I_K (absent when epsilon
    is 0) and the rest of the penalty is the constant epsilon / |v|^2.
    The (K+1)-by-K system goes to the rank-revealing solver, which keeps
    the minimum-norm minimizer near convergence.

    Returns a FilterSolution whose ``residual`` is the square root of
    the attained objective (data misfit plus regularization), measured
    on the uncompressed data, and whose ``scale_free_residual`` divides
    out the weighted energy G of the difference signal.
    """
    k, t, d = problem.half_length, problem.window_count, problem.dimension
    eps = problem.epsilon
    sqrt_row = np.repeat(np.sqrt(problem.row_weights), d)
    top = sqrt_row[:, None] * _fold(problem.hankel, k)
    # min(T*D, K+1) rows, and |top y| = |tri y| for every y
    tri = scipy.linalg.qr(top, mode="raw", check_finite=False)[1]
    scale = np.sqrt(problem.tap_weights[k:]) if eps > 0.0 else np.ones(k + 1)
    scaled_tri = tri * scale[None, :]
    constraint = np.full(k + 1, SQRT2)
    constraint[0] = 1.0
    v = scale * constraint
    h, beta = _householder(v)
    particular = v / (v @ v)
    system = scaled_tri[:, 1:] - np.outer(scaled_tri @ h, beta * h[1:])
    rhs = -(scaled_tri @ particular)
    if eps > 0.0:
        system = np.vstack([system, math.sqrt(eps) * np.eye(k)])
        rhs = np.concatenate([rhs, np.zeros(k)])
    x, _ = least_squares_solve(system, rhs)
    scaled = particular - (beta * (h[1:] @ x)) * h
    scaled[1:] += x
    d_vec = scale * scaled
    # einsum, not BLAS gemv: right after the threaded QR, OpenBLAS's gemv
    # on this tall matrix took 8 ms against 0.7 ms, and the whole solve
    # 0.20 s against 0.11 s at K = 600 (2-core host, default threads)
    misfit = np.einsum("ij,j->i", top, d_vec)
    r_squared = float(misfit @ misfit) + eps * float(scaled @ scaled)
    # weighted energy of the first T difference vectors (Hankel column 0)
    u_rows = problem.hankel[:, 0].reshape(t, d)
    g_squared = float(problem.row_weights @ (u_rows ** 2).sum(axis=1))
    signal_scale = math.sqrt(g_squared)
    residual = math.sqrt(max(r_squared, 0.0))
    return FilterSolution(
        coefficients=_unfold(d_vec, k),
        residual=residual,
        scale_free_residual=scale_free_residual(residual, eps, signal_scale),
        signal_scale=signal_scale,
        half_length=k,
        window_count=t,
        epsilon=eps,
        fixed_point=(signal_scale == 0.0),
    )


def solve_from_trajectory(trajectory, half_length, window_count, epsilon=0.0):
    """Difference, assemble, and solve: every filter solve goes through here."""
    u = difference_signal(trajectory)
    return solve_filter(build_problem(u, half_length, window_count, epsilon))


def solve_at(source, half_length, params):
    """One step of the filter-length ladder: the solve at K = ``half_length``.

    Uses T = ceil(gamma K / D) windows, so the first N = T + 2K + 1
    samples of the orbit in ``source``.  Returns (trajectory, solution).
    """
    dimension = source.take(1).dimension
    t = max(1, math.ceil(params.gamma * half_length / dimension))
    trajectory = source.take(t + 2 * half_length + 1)
    return trajectory, solve_from_trajectory(trajectory, half_length, t, params.epsilon)


def stacked_shape(length, dimension, half_length):
    """(K, T) for the solve on all N = T + 2K + 1 samples of a stacked signal.

    K = max(1, ``half_length``), lowered if needed to keep T*D >= K.
    None when no window is left: the signal is too short to solve.
    """
    k = max(1, half_length)
    t = length - 2 * k - 1
    min_t = max(1, math.ceil(k / dimension))
    if t < min_t:
        k = max(1, (length - min_t - 1) // 2)
        t = length - 2 * k - 1
    return (k, t) if t >= 1 else None


@dataclass
class AdaptiveResult:
    """Outcome of the adaptive filter-length sweep."""

    solution: FilterSolution
    converged: bool
    history: list = field(default_factory=list)  # (K, n_samples, R, R_G)

    @property
    def n_samples(self):
        return self.history[-1][1] if self.history else 0


def adaptive_solve(source, params):
    """Grow the filter length until the scale-free residual R_G crosses ``delta_adapt``.

    Runs ``solve_at`` for K = k_init, k_init + delta_k, ... while K <=
    k_max, reusing previously sampled orbit points (each step extends,
    never restarts, the trajectory).  ``params`` is a ClassifyParams,
    whose construction has range-checked every value used here.  Returns
    the last solution with the per-step history.
    """
    history = []
    for k in range(params.k_init, params.k_max + 1, params.delta_k):
        traj, solution = solve_at(source, k, params)
        r_g = solution.scale_free_residual
        history.append((k, traj.length, solution.residual, r_g))
        if r_g <= params.delta_adapt:
            return AdaptiveResult(solution=solution, converged=True, history=history)
    return AdaptiveResult(solution=solution, converged=False, history=history)
