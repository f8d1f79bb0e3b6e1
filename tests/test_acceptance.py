"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with the measured numbers (run pytest with
-s to see them) and enforces the stated tolerance and runtime budget.
"""

import io
import math
import statistics
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_rre.birkhoff import bump_weights, wba_doubling_residual_at
from birkhoff_rre.cli import figure2_errors, run_figure2
from birkhoff_rre.fourier import fit_circle, make_observable_advance, validation_residual
from birkhoff_rre.maps import (
    EmbeddingObservable,
    StandardMap,
    Trajectory,
    sample_trajectory,
)
from birkhoff_rre.rre import build_problem, difference_signal, solve_filter, solve_from_trajectory
from birkhoff_rre.spectral import (
    ClassifyParams,
    classify_trajectory,
    mode_prominence,
    palindromic_roots,
    unit_circle_filter,
)
from checks import GOLDEN, brute_force_fourier_coefficient, pair_distance, wba_feasible_objective

MAP_K = 0.7


def extract_rotation(trajectory, half_length, window_count):
    solution = solve_from_trajectory(trajectory, half_length, window_count)
    roots = unit_circle_filter(palindromic_roots(solution.coefficients))
    ranking = mode_prominence(roots, trajectory)
    for entry in ranking:
        if entry.frequency > 1e-9:
            return entry.frequency
    return None


def test_criterion_1_figure2_reproduction():
    start = time.perf_counter()
    report = io.StringIO()
    status = run_figure2(out=report)
    errors = figure2_errors()
    elapsed = time.perf_counter() - start
    expected = {"all-ones": 7.11e-2, "wba": 7.38e-3, "tuned": 2.72e-5}
    for name, reference in expected.items():
        assert abs(errors[name] - reference) <= 0.05 * reference, (name, errors[name])
    assert status == 0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 figure2: PASS "
          f"(errors {errors['all-ones']:.3e}/{errors['wba']:.3e}/{errors['tuned']:.3e}, "
          f"{elapsed:.2f}s)")


_criterion2_clock = []


@given(x0=st.floats(0.05, 0.3), seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_criterion_2_residual_bounds(x0, seed):
    if not _criterion2_clock:
        _criterion2_clock.append(time.perf_counter())
    k = 50
    t = 75
    traj = sample_trajectory(StandardMap(MAP_K), EmbeddingObservable(),
                             (x0, 0.0), t + 2 * k + 1)
    u = difference_signal(traj)
    for eps in (0.0, 1e-8):
        solution = solve_filter(build_problem(u, k, t, eps))
        r_squared = solution.residual ** 2
        assert r_squared >= eps - 1e-14
        feasible = wba_feasible_objective(u, k, t, eps)
        assert r_squared <= feasible * (1.0 + 1e-12)
    elapsed = time.perf_counter() - _criterion2_clock[0]
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 residual bounds: PASS (x0={x0:.4f}, {elapsed:.1f}s cumulative)")


def test_criterion_3_classification_line():
    start = time.perf_counter()
    seeds = [(0.05, y) for y in np.linspace(0.0, 0.6, 100)]
    smap, obs = StandardMap(MAP_K), EmbeddingObservable()
    ladder = list(range(50, 701, 50))  # N = 3K+1 <= 2101 <= 2801 for gamma = 2
    agree = 0
    considered = 0
    rre_budgets = []
    wba_budgets = []
    for seed in seeds:
        samples = sample_trajectory(smap, obs, seed, 100_000).samples
        ground = wba_doubling_residual_at(samples, 50_000)
        if ground < 1e-11:
            truth = "integrable"
        elif ground > 1e-5:
            truth = "chaotic"
        else:
            continue  # indeterminate band: excluded from scoring
        considered += 1
        verdict = "chaotic"
        budget = None
        for k in ladder:
            n = 3 * k + 1
            solution = solve_from_trajectory(Trajectory(samples[:n]), k, k)
            if solution.residual < 1e-11:
                verdict = "integrable"
                budget = n
                break
        if verdict == truth:
            agree += 1
        if truth == "integrable":
            if budget is not None:
                rre_budgets.append(budget)
            for half in range(50, 50_001, 50):
                if wba_doubling_residual_at(samples, half) < 1e-11:
                    wba_budgets.append(2 * half)
                    break
    elapsed = time.perf_counter() - start
    agreement = agree / considered
    median_rre = statistics.median(rre_budgets)
    median_wba = statistics.median(wba_budgets)
    assert agreement >= 0.90, f"agreement {agreement:.2%} on {considered} seeds"
    assert median_rre < median_wba, (median_rre, median_wba)
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 3 classification line: PASS "
          f"(agreement {agree}/{considered}, median N {median_rre:.0f} vs "
          f"{median_wba:.0f}, {elapsed:.0f}s)")


def test_criterion_4_rotation_recovery():
    start = time.perf_counter()
    # (a) exact twist map at the golden rotation, filter length K = 50
    cls = classify_trajectory(StandardMap(0.0), EmbeddingObservable(), (0.1, GOLDEN))
    assert cls.tag == "integrable"
    assert cls.ladder.solution.half_length == 50
    twist_error = abs(cls.rotation - (1.0 - GOLDEN))  # representative in [0, 1/2]
    assert twist_error <= 1e-10
    # (b) central circle: rotation stable between K = 100 and K = 200
    values = {}
    for k in (100, 200):
        t = math.ceil(3 * k / 2)
        traj = sample_trajectory(StandardMap(MAP_K), EmbeddingObservable(),
                                 (0.1, 0.0), t + 2 * k + 1)
        values[k] = extract_rotation(traj, k, t)
    drift = abs(values[100] - values[200])
    assert drift <= 1e-9, values
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 rotation recovery: PASS "
          f"(twist err {twist_error:.1e}, drift {drift:.1e}, {elapsed:.1f}s)")


def test_criterion_5_island_detection():
    start = time.perf_counter()
    smap, obs = StandardMap(MAP_K), EmbeddingObservable()
    cls = classify_trajectory(smap, obs, (0.02, 0.5))
    assert cls.tag == "integrable"
    assert cls.period == 2
    circle = fit_circle(cls)
    assert circle.period == 2
    assert circle.coefficients.shape[1] == 4  # two island blocks, D = 2
    advance = make_observable_advance(smap, obs)
    r_p = validation_residual(circle, advance)
    assert r_p < 1e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 island detection: PASS "
          f"(p=2, rotation {cls.rotation:.6f}, R_p {r_p:.1e}, {elapsed:.1f}s)")


def test_criterion_6_root_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 31))
        half = rng.standard_normal(k + 1)
        c = np.concatenate([half[:-1], [half[-1]], half[:-1][::-1]])
        assert abs(c[-1]) > 1e-12 * np.linalg.norm(c)
        mine = palindromic_roots(c).roots
        companion = np.roots(c[::-1])
        assert mine.shape == companion.shape
        worst = max(worst, pair_distance(mine, companion))
    assert worst <= 1e-8, worst
    # all-ones filter: exact roots of unity
    k = 10
    n = 2 * k + 1
    roots = palindromic_roots(np.full(n, 1.0 / n)).roots
    expected = np.exp(2j * np.pi * np.arange(1, n) / n)
    unity_error = pair_distance(roots, expected)
    assert unity_error <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 6 root oracle: PASS "
          f"(worst pairing {worst:.1e}, roots-of-unity {unity_error:.1e}, {elapsed:.1f}s)")


def test_criterion_7_parameterization_consistency():
    start = time.perf_counter()
    smap, obs = StandardMap(MAP_K), EmbeddingObservable()
    worst = 0.0
    for index in range(10):
        seed = (0.05 + 0.01 * index, 0.0)
        cls = classify_trajectory(smap, obs, seed)
        assert cls.tag == "integrable", seed
        assert cls.period == 1, seed  # plain circles, no resonance chains
        circle = fit_circle(cls)
        level = circle.num_modes
        assert level >= 3, (seed, level)
        # condition control: recompute gamma_L independently
        n_rows = cls.fit_trajectory.length
        w = bump_weights(n_rows)
        t = np.arange(n_rows)
        gamma_level = sum(
            abs(np.dot(w, np.exp(2j * np.pi * cls.rotation * n * t)))
            for n in range(1, 2 * level + 1)
        )
        assert gamma_level < 0.5
        long = sample_trajectory(smap, obs, seed, 10_000).samples
        for mode in range(-3, 4):
            oracle = brute_force_fourier_coefficient(long, cls.rotation, mode)
            got = circle.coefficients[mode + level]
            worst = max(worst, float(np.abs(got - oracle).max()))
    assert worst <= 1e-6, worst
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 7 parameterization: PASS "
          f"(worst coefficient deviation {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_8_large_scale_runs_documented():
    readme = open("README.md").read()
    assert "large-scale" in readme.lower()
    print("\nACCEPTANCE 8 large-scale figures: documented as optional runs, "
          "not reproduced here (field-line data not bundled)")
