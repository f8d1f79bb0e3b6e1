import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_rre import rre, spectral
from birkhoff_rre.errors import ContractViolation, OrbitEscape
from birkhoff_rre.maps import (
    EmbeddingObservable,
    StandardMap,
    Trajectory,
    TrajectorySource,
    sample_trajectory,
)
from birkhoff_rre.numerics import real_eigenvalues
from birkhoff_rre.rre import adaptive_solve, solve_from_trajectory
from birkhoff_rre.spectral import (
    CRITICAL_X_TOL,
    NODE_BLOCK,
    ClassifyParams,
    ModeEntry,
    RootSet,
    canonical_frequency,
    chebyshev_coefficients,
    classify_trajectory,
    colleague_matrix,
    island_period,
    mode_prominence,
    palindromic_roots,
    rational_detect,
    stack_signal,
    unit_circle_filter,
)
from checks import (
    GOLDEN,
    continued_fraction_convergents,
    pair_distance,
    projection_prominences,
    traced_peak,
    unfold_root,
)
from test_cli import BAD_VALUES

# the BAD_VALUES rows that set a ClassifyParams field, as (key, raw value)
PARAM_TYPES = {f.name: f.type for f in fields(ClassifyParams)}
BAD_PARAMS = [tuple(new.split("\n")[-1].split(" = ")) for _, new in BAD_VALUES]
BAD_PARAMS = [(key, raw) for key, raw in BAD_PARAMS if key in PARAM_TYPES]


def conjugate_pair_filter(omega):
    """Coefficients of (z - lam)(z - conj lam) / |1 - lam|^2."""
    lam = np.exp(2j * np.pi * omega)
    return np.array([1.0, -2.0 * lam.real, 1.0]) / abs(1.0 - lam) ** 2


class TestChebyshevReduction:
    def test_center_tap(self):
        assert np.array_equal(chebyshev_coefficients([0.0, 1.0, 0.0]), [1.0, 0.0])

    def test_pure_pair(self):
        # T_1((z + 1/z)/2) = (z + 1/z)/2, matching (z^2 + 1)/(2z)
        assert np.array_equal(chebyshev_coefficients([0.5, 0.0, 0.5]), [0.0, 1.0])

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=30)
    def test_k2_formula(self, a, b, d):
        got = chebyshev_coefficients([a, b, d, b, a])
        assert np.array_equal(got, [d, 2 * b, 2 * a])

    def test_rejects_non_palindromic(self):
        with pytest.raises(ContractViolation):
            chebyshev_coefficients([1.0, 0.0, 0.0])


class TestColleagueRoots:
    @staticmethod
    def roots(b):
        return real_eigenvalues(colleague_matrix(np.array(b)))

    def test_pure_t1(self):
        assert pair_distance(self.roots([0.0, 1.0]), [0.0]) < 1e-15

    def test_linear_shift(self):
        omega = 0.2
        roots = self.roots([-math.cos(2 * np.pi * omega), 1.0])
        assert pair_distance(roots, [math.cos(2 * np.pi * omega)]) < 1e-15

    def test_t2_zeros(self):
        roots = self.roots([0.0, 0.0, 1.0])
        assert pair_distance(roots, [1 / math.sqrt(2), -1 / math.sqrt(2)]) < 1e-14


class TestPalindromicRoots:
    def test_constructed_pair(self):
        omega = 0.3
        roots = palindromic_roots(conjugate_pair_filter(omega)).roots
        lam = np.exp(2j * np.pi * omega)
        assert pair_distance(roots, [lam, lam.conjugate()]) < 1e-12

    def test_all_ones_filter_gives_roots_of_unity(self):
        k = 6
        n = 2 * k + 1
        roots = palindromic_roots(np.full(n, 1.0 / n)).roots
        expected = np.exp(2j * np.pi * np.arange(1, n) / n)
        assert pair_distance(np.sort_complex(roots), np.sort_complex(expected)) < 1e-10

    def test_tuned_filter_roots(self):
        from birkhoff_rre.oracle import tuned_filter

        roots = palindromic_roots(tuned_filter(GOLDEN, 11)).roots
        for k in range(1, 6):
            lam = np.exp(2j * np.pi * GOLDEN * k)
            assert np.min(np.abs(roots - lam)) < 1e-9
            assert np.min(np.abs(roots - lam.conjugate())) < 1e-9

    def test_solved_filter_roots_closed_under_conjugation(self):
        traj = sample_trajectory(StandardMap(0.7), EmbeddingObservable(),
                                 (0.12, 0.0), 181)
        solution = solve_from_trajectory(traj, 40, 60)
        roots = palindromic_roots(solution.coefficients).roots
        for z in roots:
            if abs(z.imag) > 1e-12:
                assert np.min(np.abs(roots - z.conjugate())) < 1e-10

    def test_low_confidence_tagging_near_minus_one(self):
        # double root at z = -1: the x-plane root sits at the edge
        roots = palindromic_roots(np.array([0.25, 0.5, 0.25]))
        assert np.all(roots.low_confidence)
        assert np.min(np.abs(roots.roots + 1.0)) < 1e-6

    @pytest.mark.parametrize("edge", [-1.0, 1.0])
    def test_root_just_outside_edge_unfolds_onto_circle(self, edge):
        # (x - x0)(x - 0.3) with x0 5e-14 beyond +-1: unfolded directly,
        # x0 gives a real pair 3e-7 off the circle, which the filter drops
        x0 = edge * (1.0 + 5e-14)
        b = np.array([0.5 + 0.3 * x0, -(x0 + 0.3), 0.5])
        c = np.concatenate([b[:0:-1] / 2.0, [b[0]], b[1:] / 2.0])
        roots = palindromic_roots(c)
        kept = unit_circle_filter(roots)
        assert len(kept) == 4
        near = kept.roots[np.abs(kept.roots - edge) < 1e-6]
        assert len(near) == 2 and np.all(kept.low_confidence[np.abs(kept.roots - edge) < 1e-6])
        assert np.all(np.abs(np.abs(near) - 1.0) < 1e-15)


    @pytest.mark.parametrize("seed, half_length", [((0.12, 0.0), 40), ((0.05, 0.2606), 150),
                                                    ((0.05, 0.37575757575757573), 50)])
    def test_unfolding_equals_scalar_reference(self, seed, half_length):
        # every branch of the vectorized unfolding, bit for bit against the
        # per-root reference: on-axis roots (some mirrored back inside
        # [-1, 1] in the edge filters below), complex x and the low-confidence mask
        traj = sample_trajectory(StandardMap(0.7), EmbeddingObservable(), seed,
                                 3 * half_length + 2 * half_length + 1)
        filters = [solve_from_trajectory(traj, half_length, 3 * half_length // 2).coefficients,
                   np.array([0.25, 0.5, 0.25])]
        for x0 in (1.0 + 5e-14, -1.0 - 5e-14, 1.0 - 5e-8):
            b = np.array([0.5 + 0.3 * x0, -(x0 + 0.3), 0.5])
            filters.append(np.concatenate([b[:0:-1] / 2.0, [b[0]], b[1:] / 2.0]))
        for c in filters:
            xs = real_eigenvalues(colleague_matrix(chebyshev_coefficients(c)))
            expected = np.array([z for x in xs for z in unfold_root(x)])
            shaky = np.repeat([min(abs(x - 1.0), abs(x + 1.0)) <= CRITICAL_X_TOL for x in xs], 2)
            roots = palindromic_roots(c)
            assert np.array_equal(roots.roots.view(float), expected.view(float))
            assert np.array_equal(roots.low_confidence, shaky)


class TestUnitCircleFilter:
    def test_drops_off_circle_roots(self):
        roots = RootSet(np.array([2.0 + 0j, np.exp(0.4j)]), np.zeros(2, dtype=bool))
        kept = unit_circle_filter(roots)
        assert len(kept) == 1
        assert abs(kept.roots[0] - np.exp(0.4j)) < 1e-15

    def test_empty_survivors_allowed(self):
        roots = RootSet(np.array([2.0 + 0j, 3.0 + 0j]), np.zeros(2, dtype=bool))
        assert len(unit_circle_filter(roots)) == 0

    def test_inside_tolerance_kept(self):
        z = (1.0 + 1e-9) * np.exp(1j)
        kept = unit_circle_filter(RootSet(np.array([z]), np.zeros(1, dtype=bool)))
        assert len(kept) == 1


class TestModeProminence:
    def test_two_mode_ranking(self):
        w1, w2 = 0.31, 0.11
        t = np.arange(200)
        signal = 3.0 * np.cos(2 * np.pi * w1 * t) + 0.1 * np.cos(2 * np.pi * w2 * t)
        roots = np.exp(2j * np.pi * np.array([w1, -w1, w2, -w2]))
        ranking = mode_prominence(RootSet(roots, np.zeros(4, dtype=bool)),
                                  Trajectory(signal))
        assert abs(ranking[0].frequency - w1) < 1e-12
        assert abs(ranking[0].prominence - 3.0) < 1e-9
        assert abs(ranking[1].prominence - 0.1) < 1e-9

    def test_constant_signal_mean_prominence(self):
        traj = Trajectory(np.full(64, -1.75))
        roots = RootSet(np.array([1.0 + 0j]), np.zeros(1, dtype=bool))
        ranking = mode_prominence(roots, traj)
        assert abs(ranking[0].prominence - 1.75) < 1e-12

    def test_conjugate_pair_prominences_equal_and_merged(self):
        omega = 0.27
        t = np.arange(150)
        traj = Trajectory(np.cos(2 * np.pi * omega * t))
        roots = np.exp(2j * np.pi * np.array([omega, -omega]))
        ranking = mode_prominence(RootSet(roots, np.zeros(2, dtype=bool)), traj)
        assert len(ranking) == 1
        assert abs(ranking[0].prominence - 1.0) < 1e-9

    def test_pair_at_minus_one_is_full_rank(self):
        # (z + 1)^2 unfolds to the conjugate pair -1 + 0j, -1 - 0j: one mode
        roots = palindromic_roots(np.array([1.0, 2.0, 1.0]))
        assert sorted(np.signbit(roots.roots.imag)) == [False, True]
        traj = Trajectory(2.0 + 0.5 * np.cos(np.pi * np.arange(60)))
        ranking = mode_prominence(roots, traj)
        assert [e.frequency for e in ranking] == [0.5]
        assert abs(ranking[0].prominence - 0.5) < 1e-12

    # a circle at K = 50 and the period-3 chain at K = 300 on the k = 0.7 line
    @pytest.mark.parametrize("y", [10 * (0.6 / 99), 60 * (0.6 / 99)])
    def test_matches_projection_reference(self, y):
        source = TrajectorySource(StandardMap(0.7), EmbeddingObservable(), (0.05, y))
        result = adaptive_solve(source, ClassifyParams())
        roots = unit_circle_filter(palindromic_roots(result.solution.coefficients)).roots
        traj = source.take(source.samples_drawn)
        ranking = mode_prominence(RootSet(roots, np.zeros(len(roots), dtype=bool)), traj)
        # one node per conjugate pair, prominences summed per frequency
        nodes = roots[~np.signbit(roots.imag)]
        summed = {}
        for z, p in zip(nodes, projection_prominences(nodes, traj.samples)):
            key = round(canonical_frequency(z) / 1e-9)
            summed[key] = summed.get(key, 0.0) + p
        expected = sorted(summed, key=lambda key: -summed[key])
        top = summed[expected[0]]
        keys = [round(e.frequency / 1e-9) for e in ranking]
        assert sorted(keys) == sorted(expected)
        # modes at roundoff level (below 1e-9 of the top) may swap places
        significant = [key for key in expected if summed[key] > 1e-9 * top]
        assert keys[:len(significant)] == significant
        for key, entry in zip(keys, ranking):
            assert abs(entry.prominence - summed[key]) <= 1e-9 * top


    def test_working_memory_is_one_block_of_nodes(self):
        # the powers conj(z)^t are n x NODE_BLOCK complex at most, a few MB
        # on the longest ladder orbits: eight blocks of nodes cost what one
        # does, where all the powers at once grew the peak eightfold
        n = 2000
        traj = Trajectory(np.random.default_rng(1).standard_normal((n, 2)))
        block = n * NODE_BLOCK * 16
        assert block <= 4 * 2 ** 20

        def peak(count):
            z = np.exp(1j * np.linspace(0.01, 3.1, count))
            roots = RootSet(np.concatenate([z, z.conj()]), np.zeros(2 * count, dtype=bool))
            return traced_peak(lambda: mode_prominence(roots, traj))

        one = peak(NODE_BLOCK)
        assert one <= 1.25 * block
        for count in (3 * NODE_BLOCK + 1, 8 * NODE_BLOCK):
            assert peak(count) <= one + 0.1 * block


class TestRationalDetect:
    def test_half(self):
        assert rational_detect(0.5, 10, 1e-6) == (1, 2)

    def test_two_sevenths_with_noise(self):
        assert rational_detect(2.0 / 7.0 + 1e-12, 20, 1e-8) == (2, 7)

    def test_golden_not_rational(self):
        assert rational_detect(GOLDEN, 100, 1e-8) is None

    def test_exact_fractions_up_to_twelve(self):
        for p in range(1, 13):
            for m in range(p):
                if math.gcd(m, p) != 1:
                    continue
                assert rational_detect(m / p, 12, 1e-9) == (m, p)

    def test_zero(self):
        assert rational_detect(0.0, 5, 1e-9) == (0, 1)


class TestIslandPeriod:
    @staticmethod
    def mode(frequency, low_confidence):
        return ModeEntry(frequency=frequency, prominence=1.0, low_confidence=low_confidence)

    def test_low_confidence_half_is_period_two(self):
        # a root near z = -1 is accurate only to about sqrt(eps), so a mode
        # 1.03e-8 from 1/2 (outside eps_rat = 1e-8) still reads as 1/2
        params = ClassifyParams()
        assert island_period([self.mode(0.5 - 1.03e-8, True)], params) == 2
        assert island_period([self.mode(0.5 - 1.03e-8, False)], params) == 1

    def test_low_confidence_tolerance_never_below_eps_rat(self):
        params = ClassifyParams(eps_rat=1e-6)
        assert island_period([self.mode(0.5 - 5e-7, True)], params) == 2

    def test_constant_mode_ignored(self):
        assert island_period([self.mode(0.0, True)], ClassifyParams()) == 1

    def test_pair_tagged_if_either_root_is(self):
        z = complex(np.exp(2j * np.pi * 0.3))
        roots = RootSet(roots=np.array([z, z.conjugate()]),
                        low_confidence=np.array([False, True]))
        traj = sample_trajectory(StandardMap(0.0), EmbeddingObservable(), (0.0, 0.3), 200)
        entries = mode_prominence(roots, traj)
        assert len(entries) == 1 and entries[0].low_confidence


class TestContinuedFractions:
    def test_golden_denominators_are_fibonacci(self):
        convergents = continued_fraction_convergents(GOLDEN, 6)
        assert [den for _, den in convergents] == [1, 2, 3, 5, 8, 13]

    def test_quarter_terminates(self):
        assert continued_fraction_convergents(0.25, 10) == [(1, 4)]

    @given(st.floats(1e-3, 1.0 - 1e-3), st.integers(1, 12))
    @settings(max_examples=80)
    def test_best_approximation_bound(self, omega, count):
        for num, den in continued_fraction_convergents(omega, count):
            assert abs(omega - num / den) < 1.0 / den**2


class TestStacking:
    def test_identity_for_period_one(self):
        traj = Trajectory(np.arange(6.0))
        assert stack_signal(traj, 1) is traj

    def test_scalar_pairs(self):
        traj = Trajectory(np.arange(6.0))
        stacked = stack_signal(traj, 2)
        assert np.array_equal(stacked.samples, [[0, 1], [2, 3], [4, 5]])

    def test_period_two_orbit_becomes_constant(self):
        traj = Trajectory(np.array([1.0, -1.0] * 5))
        stacked = stack_signal(traj, 2)
        assert np.ptp(stacked.samples, axis=0).max() == 0.0

    @given(st.integers(1, 5), st.integers(6, 40))
    @settings(max_examples=40)
    def test_stacked_layout(self, period, n):
        # row r, block j of the stacked signal holds sample r * period + j
        rng = np.random.default_rng(n)
        traj = Trajectory(rng.standard_normal((n, 2)))
        stacked = stack_signal(traj, period).samples
        assert stacked.shape == (n // period, 2 * period)
        for r in range(n // period):
            for j in range(period):
                block = stacked[r, 2 * j:2 * j + 2]
                assert np.array_equal(block, traj.samples[r * period + j])


class TestClassify:
    def test_exact_twist_circle(self):
        cls = classify_trajectory(StandardMap(0.0), EmbeddingObservable(),
                                  (0.1, GOLDEN))
        assert cls.tag == "integrable"
        assert cls.period == 1
        assert abs(cls.rotation - (1.0 - GOLDEN)) < 1e-10

    def test_stochastic_layer_is_chaotic(self):
        params = ClassifyParams(k_max=200)
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(),
                                  (0.5, 0.05), params)
        assert cls.tag == "chaotic"

    def test_island_period_two(self):
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(),
                                  (0.02, 0.5))
        assert cls.tag == "integrable"
        assert cls.period == 2
        assert 0.0 < cls.rotation < 0.5

    def test_island_period_two_from_root_near_minus_one(self):
        # line seed 80 of the k = 0.7 headline line: its top mode lands
        # farther than eps_rat = 1e-8 from 1/2
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(),
                                  (0.05, 80 * 0.6 / 99))
        assert cls.tag == "integrable"
        assert cls.period == 2

    def test_periodic_orbit(self):
        # (0, 1/2) and (1/2, 1/2) swap: the stacked signal is constant
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.0, 0.5))
        assert cls.tag == "integrable"
        assert cls.period == 2
        assert cls.rotation == 0.0
        assert "periodic_orbit" in cls.flags

    def test_stacked_signal_too_short(self, monkeypatch):
        # line seed 7 of the k = 0.7 headline line: at eps_rat = 1e-4 a mode
        # reads as period 49 at K = 50, and the 176 samples stack into 3
        stacked_solves = []
        monkeypatch.setattr(spectral, "solve_from_trajectory",
                            lambda *args: stacked_solves.append(args))
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(),
                                  (0.05, 0.042424242424242427), ClassifyParams(eps_rat=1e-4))
        assert cls.tag == "indeterminate"
        assert cls.period == 49
        assert cls.flags[-1] == "stacked_signal_too_short"
        solution = cls.ladder.solution
        assert solution.half_length == 50 and cls.evaluations == 175
        assert solution.scale_free_residual <= ClassifyParams().delta_adapt
        assert stacked_solves == []

    def test_nan_tolerance_rejected(self):
        # once classified integrable: `<= nan` never converged and
        # `> nan` never tripped the chaos gate
        with pytest.raises(ContractViolation, match="delta_adapt"):
            classify_trajectory(StandardMap(2.0), EmbeddingObservable(), (0.5, 0.0),
                                ClassifyParams(delta_adapt=math.nan, k_max=100))

    def test_orbit_is_read_once_per_rung(self, monkeypatch):
        # one take for the observable's dimension, then one per rung; a
        # chaotic row never reads its orbit back
        take = TrajectorySource.take
        counts = []

        def counted_take(source, n):
            counts.append(n)
            return take(source, n)

        monkeypatch.setattr(TrajectorySource, "take", counted_take)
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.5, 0.05),
                                  ClassifyParams(gamma=2, k_max=200))
        assert (cls.tag, cls.flags) == ("chaotic", ["stalled"])
        ks = [entry[0] for entry in cls.ladder.history]
        assert ks == [50, 100, 150]
        assert counts == [1] + [entry[1] + 1 for entry in cls.ladder.history]

    def test_nan_gate_fails_closed(self):
        # bypasses the constructor's check, as a caller mutating params could
        params = ClassifyParams(k_max=100)
        params.delta_adapt = math.nan
        cls = classify_trajectory(StandardMap(2.0), EmbeddingObservable(), (0.5, 0.0), params)
        assert cls.tag == "chaotic"

    def test_nan_gate_fails_closed_on_a_fixed_point(self):
        # R_G = 0 is not <= nan either, so the fixed point never converges
        params = ClassifyParams(k_max=100)
        params.delta_adapt = math.nan
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.0, 0.0), params)
        assert (cls.tag, cls.flags) == ("chaotic", [])

    def test_nan_residual_climbs_the_ladder_and_fails_closed(self, monkeypatch):
        # a nan R_G is never above a bound of rre.EXIT_SCHEDULE either: the
        # ladder runs to k_max, past its rungs, and the row is chaotic without
        # the stalled flag
        solve_at = rre.solve_at

        def nan_solve_at(source, half_length, params):
            trajectory, solution = solve_at(source, half_length, params)
            return trajectory, replace(solution, scale_free_residual=math.nan)

        monkeypatch.setattr(rre, "solve_at", nan_solve_at)
        params = ClassifyParams(k_max=200)
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.05, 0.1), params)
        assert cls.tag == "chaotic"
        assert cls.flags == []
        assert [entry[0] for entry in cls.ladder.history] == [50, 100, 150, 200]

    def test_slow_converger_climbs_past_k_exit(self):
        # R_G stays below 1.3e-8 on every rung until it converges at K = 500
        # (default BLAS threads) or 550 (one thread)
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.05, 0.2))
        assert (cls.tag, cls.period, cls.flags) == ("integrable", 1, [])
        assert cls.ladder.solution.half_length >= 500
        for k, _, _, r_g in cls.ladder.history:
            assert all(r_g <= tau for k_exit, tau in rre.EXIT_SCHEDULE if k >= k_exit)

    @pytest.mark.parametrize("name", ["delta_adapt", "eps_rat"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-8])
    def test_bad_tolerance_rejected(self, name, value):
        with pytest.raises(ContractViolation, match=name):
            ClassifyParams(**{name: value})

    @pytest.mark.parametrize("key, raw", BAD_PARAMS,
                             ids=[f"{key} = {raw}" for key, raw in BAD_PARAMS])
    def test_bad_config_value_rejected(self, key, raw):
        # the library fails closed on every value the config loader rejects
        with pytest.raises(ContractViolation, match=key):
            ClassifyParams(**{key: PARAM_TYPES[key](raw)})

    @pytest.mark.parametrize("key, value", [
        ("k_init", 50.0), ("k_max", np.float64(600.0)), ("delta_k", True), ("p_max", "50"),
        ("epsilon", True), ("gamma", "3"), ("delta_adapt", None), ("escape_bound", 1e6 + 0j),
    ])
    def test_wrong_type_rejected(self, key, value):
        # a float K would fail later inside range(), a bool epsilon would
        # regularize with 1.0, and a string gamma would raise a bare TypeError
        with pytest.raises(ContractViolation, match=key):
            ClassifyParams(**{key: value})

    def test_numpy_int_and_int_for_float_accepted(self):
        params = ClassifyParams(k_init=np.int64(50), k_max=np.int64(100), gamma=2)
        seed = (0.05, 0.1)
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(), seed, params)
        expected = classify_trajectory(StandardMap(0.7), EmbeddingObservable(), seed,
                                       ClassifyParams(k_max=100, gamma=2.0))
        assert (cls.tag, cls.rotation, cls.evaluations) == (
            expected.tag, expected.rotation, expected.evaluations)

    def test_fixed_point(self):
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(),
                                  (0.0, 0.0))
        assert cls.tag == "integrable"
        assert cls.period == 1
        assert cls.rotation == 0.0
        assert "fixed_point" in cls.flags

    def test_escape_flagged_chaotic(self):
        params = ClassifyParams(escape_bound=1.2, k_init=10, k_max=20, delta_k=10)
        cls = classify_trajectory(StandardMap(4.5), EmbeddingObservable(),
                                  (0.3, 0.9), params)
        assert cls.tag == "chaotic"
        assert "escape" in cls.flags
        assert cls.ladder is None
        # the orbit escapes inside the first rung's take: K = 10, T = 15
        with pytest.raises(OrbitEscape) as info:
            TrajectorySource(StandardMap(4.5), EmbeddingObservable(), (0.3, 0.9),
                             params.escape_bound).take(36)
        assert cls.evaluations == info.value.evaluations

    def test_time_reversal_same_rotation(self):
        def rotation_of(trajectory):
            solution = solve_from_trajectory(trajectory, 60, 90)
            roots = unit_circle_filter(palindromic_roots(solution.coefficients))
            ranking = mode_prominence(roots, trajectory)
            for entry in ranking:
                if entry.frequency > 1e-9:
                    return entry.frequency
            return None

        traj = sample_trajectory(StandardMap(0.7), EmbeddingObservable(),
                                 (0.1, 0.0), 271)
        forward = rotation_of(traj)
        backward = rotation_of(Trajectory(traj.samples[::-1]))
        assert forward is not None
        assert abs(forward - backward) < 1e-9

    def test_root_convergence_to_rotation_frequency(self):
        # twist map with golden rotation: some filter root must sit on
        # e^{2 pi i omega} once K is moderately large
        traj = sample_trajectory(StandardMap(0.0), EmbeddingObservable(),
                                 (0.1, GOLDEN), 71)
        solution = solve_from_trajectory(traj, 20, 30)
        roots = palindromic_roots(solution.coefficients).roots
        lam = np.exp(2j * np.pi * GOLDEN)
        assert np.min(np.abs(roots - lam)) <= 1e-8


class TestCanonicalFrequency:
    @given(st.floats(-0.5, 0.5))
    @settings(max_examples=50)
    def test_conjugates_match_exactly(self, w):
        z = np.exp(2j * np.pi * w)
        assert canonical_frequency(z) == canonical_frequency(np.conj(z))

    def test_array_equals_per_root(self):
        traj = sample_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.05, 0.2), 351)
        roots = palindromic_roots(solve_from_trajectory(traj, 100, 150).coefficients).roots
        assert np.array_equal(canonical_frequency(roots),
                              [float(abs(np.angle(z)) / (2.0 * math.pi)) for z in roots.tolist()])
