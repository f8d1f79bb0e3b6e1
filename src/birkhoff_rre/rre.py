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

The eliminated system, T*D rows tall (about 3(K+1) at the defaults)
and K columns, is written with its right-hand side straight into the
one column-major buffer that ``numerics.least_squares_solve`` factors
with one unpivoted QR: the folded data is weighted in place there, and
its rows move up by one as the reflector is applied, so no other array
of the system's size is alive while LAPACK factors.  The folded data is
formed again, bit for bit, for the residual.  The triangle is at most
K+1 rows and gives the same minimizers, so the rest of the solve is
O(K^2) back-substitution, and an SVD of that K-by-K triangle when it is
rank deficient, as it is near convergence.  There the minimum-norm
minimizer keeps the filter roots clean.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .birkhoff import bump_weights
from .errors import ContractViolation
from .maps import TrajectorySource  # kept here: perfbench/probe.py wraps rre.TrajectorySource
from .numerics import least_squares_solve

SQRT2 = math.sqrt(2.0)

# The ladder's exits on chaos, as (K, tau) pairs: a rung at or above K whose
# R_G is still above tau ends the sweep unconverged.  K grows and tau does
# not, so the last pair a rung has reached sets its bound: exit_pair, which
# the ladder and scripts/exit_margins.py both read.  That script replays the
# ladder with no exit on 1910 seeds (the 610 rows of both full lines and a
# 480-seed grid, a held-out 400 and three drawn sets of 300), each under
# both observables.  On the rungs a pair governs, the largest R_G of a row
# that later converged is 2.0e-4 (K = 50), 1.7e-5 (100), 1.1e-6 (150),
# 5.3e-7 (250) and 1.3e-8 (400): margins of 5.96x, 5.9x, 8.8x, 1.9x and
# 7.5x.  The K = 50 bound was set from the 610 rows, where its margin is
# 5.96x (grid row k = 0.5, x = 0.5, y = 5 * 0.6/39 under y); it keeps 50x
# on the held-out 400 and 16x on the set drawn for it (drawn300).  The
# K = 250 bound's 1.9x is drawn300's row k = 1.0191, x = 0.0415,
# y = 0.2109 under the embedding: R_G 5.3e-7 at K = 300, converged at 500.
EXIT_SCHEDULE = ((50, 1.2e-3), (100, 1e-4), (150, 1e-5), (250, 1e-6), (400, 1e-7))
SHIFT_ROWS = 32  # rows of the eliminated system moved per step (_eliminated_system)


def exit_pair(k, schedule):
    """The (K_i, tau_i) of ``schedule`` in force at rung K: the last with K_i <= K.

    None below the first K_i, where the ladder never stops early.
    """
    in_force = None
    for pair in schedule:
        if pair[0] <= k:
            in_force = pair
    return in_force


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
    half_length: int          # K
    fixed_point: bool = False  # the signal's weighted energy G is 0


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


def _fold(hankel, k, out=None):
    """Fold the Hankel columns onto the K+1 palindromic coordinates.

    The fold d_0 = c_K, d_j = (c_{K+j} + c_{K-j}) / sqrt(2) is an
    isometry on palindromic vectors, so |W^(1/2) U c| = |A d|.  Returns
    A transposed, (K+1, T*D), written into ``out`` when given: each
    Hankel column is a contiguous run of the signal, so the sums read
    and write memory in order.
    """
    columns = hankel.T
    folded = np.empty((k + 1, hankel.shape[0])) if out is None else out
    folded[0] = columns[k]
    np.add(columns[k + 1:], columns[k - 1::-1], out=folded[1:])
    folded[1:] /= SQRT2
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


def _eliminated_system(problem, sqrt_row, scale, h, beta, particular):
    """The column-major buffer [system | rhs] of the eliminated least squares.

    The system is the scaled, folded data A (times ``scale`` when
    epsilon > 0) with the Householder basis of v-perp applied, T*D rows
    and K columns, over the K-by-K block sqrt(epsilon) I when epsilon > 0;
    the right-hand side is -A times the particular solution, over zeros.
    Everything is written in place into the one buffer LAPACK factors,
    held transposed so that each of its columns is a contiguous row here.
    """
    k, eps = problem.half_length, problem.epsilon
    data_rows = problem.hankel.shape[0]
    columns = np.empty((k + 1, data_rows + (k if eps > 0.0 else 0)))
    top = _fold(problem.hankel, k, out=columns[:, :data_rows])
    top *= sqrt_row
    if eps > 0.0:
        top *= scale[:, None]
    projected = h @ top
    rhs = particular @ top
    # column j of the system is row j + 1 of A less beta h_{j+1} (h @ A): the
    # rows move up by one, SHIFT_ROWS at a time, so the one temporary is a block
    for start in range(0, k, SHIFT_ROWS):
        stop = min(start + SHIFT_ROWS, k)
        block = np.outer(beta * h[start + 1:stop + 1], projected)
        np.subtract(top[start + 1:stop + 1], block, out=block)
        top[start:stop] = block
    np.negative(rhs, out=top[k])
    if eps > 0.0:
        columns[:, data_rows:] = 0.0
        np.fill_diagonal(columns[:k, data_rows:], math.sqrt(eps))
    return columns.T


def solve_filter(problem):
    """Solve for the optimal palindromic mean-one filter.

    The mean-one constraint v . d = 1 on the weighted, folded data
    matrix A is eliminated with the particular solution v / |v|^2 plus
    K coordinates x along the Householder basis of v-perp.  The
    particular solution is orthogonal to that basis, so the
    regularization block on x is sqrt(epsilon) I_K (absent when epsilon
    is 0) and the rest of the penalty is the constant epsilon / |v|^2.
    The (T*D)-by-K system goes to the rank-revealing solver, one QR
    factorization, which keeps the minimum-norm minimizer near
    convergence.

    Returns a FilterSolution whose ``residual`` is the square root of
    the attained objective (data misfit plus regularization), measured
    on the data itself, and whose ``scale_free_residual`` divides
    out the weighted energy G of the difference signal.
    """
    k, t, d = problem.half_length, problem.window_count, problem.dimension
    eps = problem.epsilon
    sqrt_row = np.repeat(np.sqrt(problem.row_weights), d)
    scale = np.sqrt(problem.tap_weights[k:]) if eps > 0.0 else np.ones(k + 1)
    constraint = np.full(k + 1, SQRT2)
    constraint[0] = 1.0
    v = scale * constraint
    h, beta = _householder(v)
    particular = v / (v @ v)
    x, _ = least_squares_solve(_eliminated_system(problem, sqrt_row, scale, h, beta,
                                                  particular), k)
    x = x[:, 0]
    scaled = particular - (beta * (h[1:] @ x)) * h
    scaled[1:] += x
    d_vec = scale * scaled
    # A again, bit for bit: the buffer that held it is gone, and a copy kept
    # through the solve would be one more array of the system's size
    top = _fold(problem.hankel, k)
    top *= sqrt_row
    # einsum, not a BLAS gemv, which sums in another order and would move
    # the residual's trailing digits.  With two BLAS threads the gemv right
    # after the threaded QR also stalled, 8 ms against 0.7 ms at K = 600 on
    # a 2-core host; the package's default is one thread per process
    misfit = np.einsum("ji,j->i", top, d_vec)
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
        half_length=k,
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
    t = max(1, math.ceil(params.gamma * half_length / source.dimension))
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
    history: list = field(default_factory=list)  # (K, N map evaluations, R, R_G)
    stalled: bool = False  # stopped by a rung of the exit schedule


def adaptive_solve(source, params, schedule=None):
    """Grow the filter length until the scale-free residual R_G crosses ``delta_adapt``.

    Runs ``solve_at`` for K = k_init, k_init + delta_k, ... while K <=
    k_max, reusing previously sampled orbit points (each step extends,
    never restarts, the trajectory).  The sweep stops unconverged and
    ``stalled`` at the first rung whose R_G is above the tau of the
    ``schedule`` pair in force there (exit_pair): the residual has
    stalled, as it does on chaos.  ``schedule`` is EXIT_SCHEDULE, read at
    call time, when None; ``()`` climbs to k_max with no exit.  A nan R_G
    meets neither test and climbs on.
    ``params`` is a ClassifyParams, whose construction has range-checked
    every value used here.  Returns the last solution with the per-rung
    history of (K, N map evaluations, R, R_G).
    """
    if schedule is None:
        schedule = EXIT_SCHEDULE
    history = []
    for k in range(params.k_init, params.k_max + 1, params.delta_k):
        traj, solution = solve_at(source, k, params)
        r_g = solution.scale_free_residual
        history.append((k, traj.length - 1, solution.residual, r_g))
        if r_g <= params.delta_adapt:
            return AdaptiveResult(solution=solution, converged=True, history=history)
        pair = exit_pair(k, schedule)
        if pair is not None and r_g > pair[1]:
            return AdaptiveResult(solution=solution, converged=False, history=history,
                                  stalled=True)
    return AdaptiveResult(solution=solution, converged=False, history=history)
