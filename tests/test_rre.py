import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_rre.birkhoff import wba_doubling_residual_at
from birkhoff_rre.errors import ContractViolation, OrbitEscape
from birkhoff_rre.maps import (
    CoordinateObservable,
    DynamicalMap,
    EmbeddingObservable,
    Observable,
    StandardMap,
    Trajectory,
    TrajectorySource,
    sample_trajectory,
)
from birkhoff_rre.rre import (
    adaptive_solve,
    build_problem,
    difference_signal,
    scale_free_residual,
    solve_filter,
    solve_from_trajectory,
    stacked_shape,
    symmetrized_tap_weights,
)
from birkhoff_rre.spectral import ClassifyParams, palindromic_roots
from checks import wba_feasible_objective


def central_circle_trajectory(n, seed=(0.1, 0.0), k=0.7):
    return sample_trajectory(StandardMap(k), EmbeddingObservable(), seed, n)


class TestDifferenceSignal:
    def test_constant(self):
        u = difference_signal(Trajectory(np.ones((6, 2))))
        assert np.array_equal(u, np.zeros((5, 2)))

    def test_ramp(self):
        u = difference_signal(Trajectory(np.arange(5.0)))
        assert np.array_equal(u[:, 0], np.ones(4))

    def test_cosine_spot_checks(self):
        omega = 0.23
        t = np.arange(8)
        traj = Trajectory(np.cos(2 * np.pi * omega * t))
        u = difference_signal(traj)
        for i in (0, 1, 2):
            expected = math.cos(2 * np.pi * omega * (i + 1)) - math.cos(2 * np.pi * omega * i)
            assert abs(u[i, 0] - expected) < 1e-15

    def test_too_short(self):
        with pytest.raises(ContractViolation):
            difference_signal(Trajectory(np.ones((1, 1))))


class TestBuildProblem:
    def test_single_window(self):
        problem = build_problem(np.array([1.0, 2.0, 3.0]), 1, 1)
        assert np.array_equal(problem.hankel, [[1.0, 2.0, 3.0]])
        assert np.array_equal(problem.row_weights, [1.0])

    def test_hankel_shift(self):
        problem = build_problem(np.array([1.0, 2.0, 3.0, 4.0]), 1, 2)
        assert np.array_equal(problem.hankel, [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])

    def test_vector_signal_rows_interleave_components(self):
        u = np.arange(20.0).reshape(10, 2)
        problem = build_problem(u, 2, 3)
        for row in range(3):
            for i in range(2):
                assert np.array_equal(problem.hankel[2 * row + i], u[row:row + 5, i])
        assert not problem.hankel.flags.writeable
        assert np.shares_memory(problem.hankel, u)

    def test_tap_weights_symmetric(self):
        w = symmetrized_tap_weights(5)
        assert np.array_equal(w, w[::-1])
        assert abs(w.sum() - 1.0) < 1e-14

    def test_insufficient_data_reports_requirement(self):
        with pytest.raises(ContractViolation, match="need 12"):
            build_problem(np.zeros((5, 1)), 5, 2)

    def test_rank_requirement(self):
        with pytest.raises(ContractViolation, match="T\\*D >= K"):
            build_problem(np.zeros((30, 1)), 10, 5)


class TestSolveFilter:
    def test_zero_signal_returns_window_weights(self):
        eps = 1e-6
        problem = build_problem(np.zeros((70, 1)), 20, 30, eps)
        solution = solve_filter(problem)
        assert np.abs(solution.coefficients - symmetrized_tap_weights(20)).max() < 1e-12
        assert abs(solution.residual**2 - eps) < 1e-14
        assert solution.fixed_point
        assert solution.scale_free_residual == 0.0

    def test_single_frequency_annihilated(self):
        omega = 0.30901
        t = np.arange(30)
        u = difference_signal(Trajectory(np.cos(2 * np.pi * omega * t)))
        solution = solve_filter(build_problem(u, 2, 25, 0.0))
        assert solution.residual < 1e-12
        roots = palindromic_roots(solution.coefficients).roots
        lam = np.exp(2j * np.pi * omega)
        assert np.min(np.abs(roots - lam)) < 1e-6
        assert np.min(np.abs(roots - lam.conjugate())) < 1e-6

    def test_integrable_orbit_converges_within_thousand_samples(self):
        # K = 200, T = 300: 901 samples
        traj = central_circle_trajectory(901)
        solution = solve_from_trajectory(traj, 200, 300)
        assert traj.length <= 1000
        assert solution.residual < 1e-11

    def test_monotone_residual_sweep(self):
        residuals = []
        for k in (25, 50, 100, 200):
            t = math.ceil(3 * k / 2)
            traj = central_circle_trajectory(t + 2 * k + 1)
            residuals.append(solve_from_trajectory(traj, k, t).residual)
        floor = 1e-13
        for previous, current in zip(residuals, residuals[1:]):
            if max(previous, current) > floor:
                assert current <= 2.0 * previous

    @given(st.floats(0.05, 0.3), st.sampled_from([0.0, 1e-8]),
           st.integers(20, 45))
    @settings(max_examples=25, deadline=None)
    def test_residual_bounds_and_constraints(self, x0, eps, k):
        t = 2 * k
        traj = central_circle_trajectory(t + 2 * k + 1, seed=(x0, 0.0))
        u = difference_signal(traj)
        solution = solve_filter(build_problem(u, k, t, eps))
        c = solution.coefficients
        assert np.abs(c - c[::-1]).max() < 1e-12
        assert abs(math.fsum(c) - 1.0) < 1e-12
        r_squared = solution.residual**2
        assert r_squared >= eps - 1e-14
        feasible = wba_feasible_objective(u, k, t, eps)
        assert r_squared <= feasible * (1.0 + 1e-12)


def dense_reference(problem):
    """The filter solve written out densely: explicit fold matrix, explicit
    Householder null-space basis, and gelsy on the full-height system."""
    k, d, eps = problem.half_length, problem.dimension, problem.epsilon
    fold = np.zeros((2 * k + 1, k + 1))
    fold[k, 0] = 1.0
    for j in range(1, k + 1):
        fold[k + j, j] = fold[k - j, j] = 1.0 / math.sqrt(2.0)
    sqrt_row = np.repeat(np.sqrt(problem.row_weights), d)
    top = sqrt_row[:, None] * (problem.hankel @ fold)
    scale = np.sqrt(problem.tap_weights[k:]) if eps > 0 else np.ones(k + 1)
    v = scale * np.concatenate([[1.0], np.full(k, math.sqrt(2.0))])
    a = top * scale[None, :]
    if eps > 0:
        a = np.vstack([a, math.sqrt(eps) * np.eye(k + 1)])
    h = v.copy()
    h[0] += math.copysign(np.linalg.norm(v), v[0])
    basis = (np.eye(k + 1) - 2.0 * np.outer(h, h) / (h @ h))[:, 1:]
    particular = v / (v @ v)
    x = scipy.linalg.lstsq(a @ basis, -(a @ particular), lapack_driver="gelsy")[0]
    scaled = particular + basis @ x
    d_vec = scale * scaled
    r_squared = float(np.sum((top @ d_vec) ** 2)) + eps * float(scaled @ scaled)
    u0 = problem.hankel[:, 0].reshape(problem.window_count, d)
    g = math.sqrt(float(problem.row_weights @ (u0 ** 2).sum(axis=1)))
    return fold @ d_vec, math.sqrt(r_squared), math.sqrt(max(r_squared - eps, 0.0)) / g


class TestCompressedSolve:
    """solve_filter works on the QR triangle of its data with an implicit
    reflector; the dense full-height solve must give the same filter."""

    @staticmethod
    def assert_matches_dense(problem, tol=1e-10):
        solution = solve_filter(problem)
        c, r, r_g = dense_reference(problem)
        assert abs(solution.residual - r) <= tol * r
        assert abs(solution.scale_free_residual - r_g) <= tol * r_g
        assert np.abs(solution.coefficients - c).max() <= tol * np.abs(c).max()

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_chaotic_seed(self, eps):
        # K = 100, T = 150, D = 2: 300 rows compress to 101
        traj = sample_trajectory(StandardMap(2.0), EmbeddingObservable(), (0.3, 0.2), 351)
        problem = build_problem(difference_signal(traj), 100, 150, eps)
        self.assert_matches_dense(problem)

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_short_system(self, eps):
        # T * D = K + 1 rows: the triangle is as tall as the data
        traj = sample_trajectory(StandardMap(2.0), EmbeddingObservable(), (0.3, 0.2), 55)
        problem = build_problem(difference_signal(traj), 21, 11, eps)
        assert problem.hankel.shape[0] == 22
        self.assert_matches_dense(problem)


class TestScaleFreeResidual:
    def test_exact_regularization_level(self):
        assert scale_free_residual(math.sqrt(1e-6), 1e-6, 2.0) == 0.0

    def test_arithmetic(self):
        assert scale_free_residual(2.0, 0.0, 4.0) == 0.5

    def test_clamps_roundoff(self):
        value = scale_free_residual(math.sqrt(1e-6 + 1e-20), 1e-6, 2.0)
        assert value <= math.sqrt(2e-20) / 2.0

    def test_fixed_point_zero(self):
        assert scale_free_residual(0.5, 0.0, 0.0) == 0.0


class TestAdaptiveSolve:
    def test_fixed_point_stops_immediately(self):
        source = TrajectorySource(StandardMap(0.7), EmbeddingObservable(), (0.0, 0.0))
        result = adaptive_solve(source, ClassifyParams(gamma=2, k_init=10, k_max=100,
                                                       delta_k=10))
        assert result.converged
        assert result.solution.fixed_point
        assert result.solution.half_length == 10
        assert len(result.history) == 1

    def test_chaotic_seed_runs_to_k_max(self):
        source = TrajectorySource(StandardMap(0.7), EmbeddingObservable(), (0.5, 0.05))
        result = adaptive_solve(source, ClassifyParams(gamma=2, delta_adapt=1e-10,
                                                       k_init=50, k_max=200, delta_k=50))
        assert not result.converged
        assert result.solution.scale_free_residual > 1e-10
        # cross-check with the long doubling residual: genuinely chaotic
        long = sample_trajectory(StandardMap(0.7), EmbeddingObservable(),
                                 (0.5, 0.05), 20_000)
        assert wba_doubling_residual_at(long.samples, 10_000) > 1e-5

    def test_budget_accounting_scalar_observable(self):
        # D = 1, integer gamma: the final trajectory has (2+gamma)K+1 samples
        gamma = 2
        source = TrajectorySource(StandardMap(0.7), CoordinateObservable(1), (0.1, 0.0))
        result = adaptive_solve(source, ClassifyParams(gamma=gamma, delta_adapt=1e-11,
                                                       k_init=20, k_max=200, delta_k=20))
        k = result.solution.half_length
        assert source.samples_drawn == (2 + gamma) * k + 1
        assert result.n_samples == (2 + gamma) * k + 1

    def test_orbit_reuse_is_exact(self):
        source = TrajectorySource(StandardMap(0.7), EmbeddingObservable(), (0.1, 0.0))
        short = source.take(50).samples.copy()
        longer = source.take(120)
        assert np.array_equal(longer.samples[:50], short)
        fresh = sample_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.1, 0.0), 120)
        assert np.allclose(longer.samples, fresh.samples, atol=0)

    def test_extension_checks_observable(self):
        class Counter(DynamicalMap):
            state_dimension = 1

            def step(self, point):
                return point + 1.0

        class NanFromStep(Observable):
            output_dimension = 1

            def evaluate(self, point):
                return np.array((np.nan if point[0] >= 30 else point[0],))

        source = TrajectorySource(Counter(), NanFromStep(), (0.0,))
        assert np.array_equal(source.take(10).samples[:, 0], np.arange(10.0))
        with pytest.raises(OrbitEscape) as info:
            source.take(100)
        assert info.value.step == 30

    def test_gate_stops_at_first_entry_below_delta(self):
        # the gate is R_G: at K = 100, R is below delta_adapt and R_G is not
        params = ClassifyParams()
        source = TrajectorySource(StandardMap(0.7), CoordinateObservable(1), (0.05, 0.2))
        result = adaptive_solve(source, params)
        gate_values = [entry[3] for entry in result.history]
        assert result.converged
        assert result.solution.half_length == 150
        assert result.history[1][0] == 100 and result.history[1][2] <= params.delta_adapt
        assert gate_values[-1] <= params.delta_adapt
        assert all(value > params.delta_adapt for value in gate_values[:-1])

    def test_default_run_configuration(self):
        params = ClassifyParams()
        assert params.epsilon == 0.0
        assert params.gamma == 3.0
        assert params.delta_adapt == 1e-10
        assert params.k_init == 50
        assert params.k_max == 600
        assert params.delta_k == 50


class TestStackedShape:
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_too_short_to_solve(self, length):
        # a period-49 chain found at K = 50 stacks 176 samples into 3
        assert stacked_shape(length, 98, 50 // 49) is None

    def test_uses_every_sample(self):
        assert stacked_shape(4, 98, 1) == (1, 1)
        assert stacked_shape(60, 4, 10) == (10, 39)

    def test_shrinks_k_to_keep_enough_windows(self):
        # K = 20 leaves T = 9 < ceil(20 / 2) = 10 windows; K = 19 leaves 11
        assert stacked_shape(50, 2, 20) == (19, 11)
        k, t = stacked_shape(50, 2, 20)
        assert t * 2 >= k and t + 2 * k + 1 == 50
