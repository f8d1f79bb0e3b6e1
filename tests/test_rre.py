import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_rre import fourier, numerics, rre
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
    EXIT_SCHEDULE,
    adaptive_solve,
    exit_pair,
    build_problem,
    difference_signal,
    scale_free_residual,
    solve_filter,
    solve_from_trajectory,
    stacked_shape,
    symmetrized_tap_weights,
)
from birkhoff_rre.spectral import ClassifyParams, classify_trajectory, palindromic_roots
from checks import traced_peak, wba_feasible_objective


def exit_tau(k):
    """The stall bound EXIT_SCHEDULE sets at rung K, or None below its first K."""
    taus = [tau for k_exit, tau in EXIT_SCHEDULE if k >= k_exit]
    return min(taus) if taus else None


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


class TestWorkingMemory:
    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_filter_solve_holds_three_systems(self, eps):
        # a K = 300 rung of k = 2.0: T = 450 and D = 2 give 900 data rows,
        # and K more with epsilon > 0, by K + 1 columns with the right-hand
        # side.  tracemalloc sees the buffer, np.linalg.qr's copy of it and
        # its R; a copy of the fold kept through the solve, or a system
        # built apart from the buffer, would take the peak past three (it
        # was 4.4 and 4.8 systems before the one-buffer build)
        traj = sample_trajectory(StandardMap(2.0), EmbeddingObservable(), (0.3, 0.2), 1051)
        problem = build_problem(difference_signal(traj), 300, 450, eps)
        system = (900 + (300 if eps > 0.0 else 0)) * 301 * 8
        assert traced_peak(lambda: solve_filter(problem)) <= 3.0 * system


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
    """solve_filter eliminates the mean constraint with an implicit
    reflector and factors the system once; the dense full-height solve
    must give the same filter."""

    @staticmethod
    def assert_matches_dense(problem, tol=1e-10):
        solution = solve_filter(problem)
        c, r, r_g = dense_reference(problem)
        assert abs(solution.residual - r) <= tol * r
        assert abs(solution.scale_free_residual - r_g) <= tol * r_g
        assert np.abs(solution.coefficients - c).max() <= tol * np.abs(c).max()

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_chaotic_seed(self, eps):
        # K = 100, T = 150, D = 2: 300 rows, whose triangle has 101
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


def last_solve(monkeypatch, run):
    """(a, b, keyword arguments) of the last least_squares_solve call of run().

    The package passes the buffer [a | b] and the column count of a; b is
    returned as a vector when it is one column.  For the rest of the test,
    numerics.least_squares_solve takes a and b apart, as it did before the
    buffer, and returns a solution with as many dimensions as b.
    """
    calls = []
    solve = numerics.least_squares_solve

    def record(augmented, unknowns, **kwargs):
        b = augmented[:, unknowns:]
        calls.append((np.array(augmented[:, :unknowns]),
                      np.array(b[:, 0] if b.shape[1] == 1 else b), kwargs))
        return solve(augmented, unknowns, **kwargs)

    def solve_apart(a, b, **kwargs):
        x, rank = solve(numerics.augment(a, b), a.shape[1], **kwargs)
        return (x[:, 0] if b.ndim == 1 else x), rank

    monkeypatch.setattr(rre, "least_squares_solve", record)
    monkeypatch.setattr(fourier, "least_squares_solve", record)
    run()
    monkeypatch.setattr(numerics, "least_squares_solve", solve_apart)
    return calls[-1]


def gelsy_reference(a, b, strict_rank=False):
    """LAPACK gelsy on the full-height system, at its default cutoff eps,
    or at max(m, n) * eps with strict_rank."""
    cond = max(a.shape) * np.finfo(float).eps if strict_rank else None
    x, _, rank, _ = scipy.linalg.lstsq(a, b, cond=cond, lapack_driver="gelsy")
    return x, rank


class TestSolvePaths:
    """least_squares_solve back-substitutes on a full-rank triangle and
    takes a truncated SVD of a rank-deficient one; both are checked
    against gelsy on the system the package really solves."""

    @staticmethod
    def residual(a, b, x):
        return np.linalg.norm(a @ x - b)

    def assert_full_rank_matches_gelsy(self, a, b, kwargs):
        x, rank = numerics.least_squares_solve(a, b, **kwargs)
        reference, reference_rank = gelsy_reference(a, b, **kwargs)
        assert rank == reference_rank == a.shape[1]
        # a full-rank solve is unique: the two agree to rounding, and the
        # residuals, down at 1e-10 |b| on a circle fit, to the data's rounding
        residual_gap = abs(self.residual(a, b, x) - self.residual(a, b, reference))
        assert residual_gap <= 1e-12 * np.linalg.norm(b)
        assert abs(np.linalg.norm(x) / np.linalg.norm(reference) - 1.0) <= 1e-10
        assert np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)

    def test_full_rank_filter_rung(self, monkeypatch):
        traj = sample_trajectory(StandardMap(2.0), EmbeddingObservable(), (0.3, 0.2), 351)
        problem = build_problem(difference_signal(traj), 100, 150)
        a, b, kwargs = last_solve(monkeypatch, lambda: solve_filter(problem))
        assert a.shape == (300, 100)
        self.assert_full_rank_matches_gelsy(a, b, kwargs)

    def test_full_rank_circle_fit(self, monkeypatch):
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.05, 0.3))
        a, b, kwargs = last_solve(monkeypatch, lambda: fourier.fit_circle(cls))
        assert kwargs == {"strict_rank": True} and b.ndim == 2
        self.assert_full_rank_matches_gelsy(a, b, kwargs)

    @pytest.mark.parametrize("seed", [(0.05, 0.0), (0.05, 0.1)])
    def test_rank_deficient_circle_rung(self, monkeypatch, seed):
        # a circle's filter annihilates its signal at K = 50, and the triangle
        # keeps about half its rank.  The minimum-norm solution over the
        # singular values above 2 eps drops more directions than gelsy at
        # eps, so its residual is larger, by 1.5x and 1.9x here, and its norm
        # smaller, by 0.79x and 0.84x.  Back-substituting the same triangle
        # gives a norm 2.5x and 2.2x gelsy's instead.
        traj = sample_trajectory(StandardMap(0.7), EmbeddingObservable(), seed, 176)
        problem = build_problem(difference_signal(traj), 50, 75)
        a, b, kwargs = last_solve(monkeypatch, lambda: solve_filter(problem))
        x, rank = numerics.least_squares_solve(a, b, **kwargs)
        reference, reference_rank = gelsy_reference(a, b, **kwargs)
        assert self.residual(a, b, x) <= 4.0 * self.residual(a, b, reference)
        assert np.linalg.norm(x) <= 1.2 * np.linalg.norm(reference)
        assert rank <= reference_rank < a.shape[1]


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

    def test_chaotic_seed_stops_stalled_before_k_max(self):
        # R_G is 7.0e-8 at K = 100 and 2.6e-5 at K = 150, above the schedule's
        # 1e-5 there, so the ladder stops at K = 150
        source = TrajectorySource(StandardMap(0.7), EmbeddingObservable(), (0.5, 0.05))
        result = adaptive_solve(source, ClassifyParams(gamma=2, delta_adapt=1e-10,
                                                       k_init=50, k_max=200, delta_k=50))
        assert not result.converged
        assert result.stalled
        assert [rung[0] for rung in result.history] == [50, 100, 150]
        assert result.solution.half_length == 150
        assert result.solution.scale_free_residual > exit_tau(150)
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

    def test_orbit_reuse_is_exact(self):
        source = TrajectorySource(StandardMap(0.7), EmbeddingObservable(), (0.1, 0.0))
        short = source.take(50).samples.copy()
        longer = source.take(120)
        assert np.array_equal(longer.samples[:50], short)
        fresh = sample_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.1, 0.0), 120)
        assert np.allclose(longer.samples, fresh.samples, atol=0)

    def test_extension_checks_observable(self):
        class Counter(DynamicalMap):
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

    def test_chaos_seed_stops_at_k_exit(self):
        # the first point of the k = 2.0 chaos line: R_G is 1.8e-3 at K = 50,
        # the schedule's first rung
        source = TrajectorySource(StandardMap(2.0), EmbeddingObservable(), (0.5, 0.0))
        result = adaptive_solve(source, ClassifyParams())
        assert not result.converged and result.stalled
        assert EXIT_SCHEDULE[0][0] == 50
        assert [entry[0] for entry in result.history] == [50]
        assert result.history[-1][3] > exit_tau(50)
        assert result.solution.half_length == 50
        assert source.samples_drawn == 176  # T = 75, N = T + 2K + 1

    def test_first_rung_spares_the_largest_converging_residual(self):
        # grid row (k = 0.5, x = 0.5, y = 5 * 0.6/39) under the y observable
        # has R_G 2.01e-4 at K = 50, the largest of any converging row of the
        # 610 rows there, and converges at K = 300: the K = 50 bound keeps a
        # margin of at least 5.9x over it (scripts/exit_margins.py)
        cls = classify_trajectory(StandardMap(0.5), CoordinateObservable(1),
                                  (0.5, 5 * (0.6 / 39)))
        assert (cls.tag, cls.period, cls.ladder.solution.half_length) == ("integrable", 1, 300)
        first_k, _, _, first_r_g = cls.ladder.history[0]
        assert first_k == EXIT_SCHEDULE[0][0] == 50
        assert 5.9 * first_r_g <= exit_tau(50)

    def test_k250_bound_spares_a_circle_whose_residual_rises(self):
        # drawn300 row (scripts/exit_margins.py) under the embedding: R_G rises
        # to 5.29e-7 at K = 300, the largest of any converging row on the rungs
        # the K = 250 bound governs, and the row converges at K = 500
        cls = classify_trajectory(StandardMap(1.0190782090247277), EmbeddingObservable(),
                                  (0.04153634780292492, 0.21087998674763814))
        assert (cls.tag, cls.period, cls.ladder.solution.half_length) == ("integrable", 1, 500)
        governed = [r_g for k, _, _, r_g in cls.ladder.history[:-1] if k >= 250]
        assert max(governed) > 5e-7
        assert 1.85 * max(governed) <= exit_tau(250)

    def test_empty_schedule_climbs_past_every_exit(self):
        # the first point of the k = 2.0 chaos line stops at K = 50 under
        # EXIT_SCHEDULE; with no schedule it climbs to k_max, every rung over
        # the tau the schedule would have in force there
        params = ClassifyParams()
        source = TrajectorySource(StandardMap(2.0), EmbeddingObservable(), (0.5, 0.0))
        result = adaptive_solve(source, params, schedule=())
        assert not result.converged and not result.stalled
        assert [entry[0] for entry in result.history] == list(range(50, 601, 50))
        assert all(r_g > exit_tau(k) for k, _, _, r_g in result.history)
        assert result.history[-1][1] == source.samples_drawn - 1 == 2100

    def test_default_run_configuration(self):
        params = ClassifyParams()
        assert params.epsilon == 0.0
        assert params.gamma == 3.0
        assert params.delta_adapt == 1e-10
        assert params.k_init == 50
        assert params.k_max == 600
        assert params.delta_k == 50


class TestExitSchedule:
    """The ladder's exits, fed R_G sequences through a stand-in ``solve_at``."""

    PARAMS = ClassifyParams(k_init=10, delta_k=10, k_max=600)

    def run(self, monkeypatch, gate, params=PARAMS):
        def fake_solve_at(source, half_length, params):
            solution = gate_only_solution(half_length, gate(half_length))
            return Trajectory(np.zeros((3 * half_length + 1, 1))), solution

        monkeypatch.setattr(rre, "solve_at", fake_solve_at)
        return adaptive_solve(None, params)

    def test_schedule_is_sorted_and_tightens(self):
        ks = [k for k, _ in EXIT_SCHEDULE]
        taus = [tau for _, tau in EXIT_SCHEDULE]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)
        assert all(later <= earlier for earlier, later in zip(taus, taus[1:]))
        assert all(k % self.PARAMS.delta_k == 0 for k in ks)

    @pytest.mark.parametrize("k_exit, tau", EXIT_SCHEDULE)
    def test_residual_at_the_bound_climbs_and_the_next_double_stops(self, monkeypatch,
                                                                    k_exit, tau):
        # every other rung sits exactly on its own bound, 1 below the first K
        def gate(k, at_rung):
            return at_rung if k == k_exit else (exit_tau(k) or 1.0)

        result = self.run(monkeypatch, lambda k: gate(k, tau))
        assert not result.converged and not result.stalled
        assert result.history[-1][0] == self.PARAMS.k_max
        result = self.run(monkeypatch, lambda k: gate(k, np.nextafter(tau, np.inf)))
        assert not result.converged and result.stalled
        assert result.history[-1][0] == result.solution.half_length == k_exit

    def test_a_first_rung_past_several_ks_takes_the_last_bound(self, monkeypatch):
        k_exit, tau = EXIT_SCHEDULE[-2]
        params = ClassifyParams(k_init=k_exit + 10, delta_k=10, k_max=600)
        result = self.run(monkeypatch, lambda k: np.nextafter(tau, np.inf), params)
        assert result.stalled and len(result.history) == 1

    def test_exit_pair_is_the_last_pair_reached(self):
        schedule = ((100, 1e-4), (300, 1e-6))
        assert exit_pair(99, schedule) is None
        assert exit_pair(100, schedule) == exit_pair(299, schedule) == (100, 1e-4)
        assert exit_pair(300, schedule) == exit_pair(10**6, schedule) == (300, 1e-6)
        assert exit_pair(50, ()) is None

    def test_ladder_reads_the_schedule_at_call_time(self, monkeypatch):
        monkeypatch.setattr(rre, "EXIT_SCHEDULE", ((30, 1e-9),))
        result = self.run(monkeypatch, lambda k: 1e-8)
        assert result.stalled
        assert [entry[0] for entry in result.history] == [10, 20, 30]

    def test_no_exit_below_the_first_rung(self, monkeypatch):
        result = self.run(monkeypatch, lambda k: 1.0)
        first = EXIT_SCHEDULE[0][0]
        assert result.stalled
        assert [entry[0] for entry in result.history] == list(range(10, first + 1, 10))

    def test_nan_residual_runs_to_k_max_unflagged(self, monkeypatch):
        result = self.run(monkeypatch, lambda k: math.nan)
        assert not result.converged and not result.stalled
        assert [entry[0] for entry in result.history] == list(range(10, 601, 10))


def gate_only_solution(half_length, r_g):
    """A FilterSolution carrying only what adaptive_solve reads."""
    return rre.FilterSolution(coefficients=np.ones(1), residual=r_g, scale_free_residual=r_g,
                              half_length=half_length)


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
