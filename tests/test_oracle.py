import math

import numpy as np
import pytest

from birkhoff_rre.birkhoff import bump_weights, weighted_average
from birkhoff_rre.errors import ContractViolation, DegenerateFrequency
from birkhoff_rre.maps import Trajectory
from birkhoff_rre.oracle import all_ones_filter, tuned_filter, wba_window_filter
from birkhoff_rre.rre import build_problem, difference_signal, solve_filter
from checks import (
    GOLDEN,
    brute_force_fourier_coefficient,
    figure2_signal,
    reference_polynomial,
)


def polynomial_value(coefficients, z):
    """sum_k c_k z^k for ascending coefficients."""
    return np.polyval(coefficients[::-1], z)


def figure2_error(coefficients):
    """|filtered average of the figure-2 signal - its true mean|."""
    signal = Trajectory(figure2_signal(coefficients.shape[0]))
    return abs(float(weighted_average(signal, coefficients)[0]) - 1.266066)


class TestTunedFilter:
    def test_single_pair_expansion(self):
        omega = 0.3
        lam = np.exp(2j * np.pi * omega)
        expected = np.array([1.0, -2 * lam.real, 1.0]) / abs(1 - lam) ** 2
        got = tuned_filter(omega, 3)
        assert np.abs(got - expected).max() < 1e-14

    def test_roots_by_construction(self):
        filt = tuned_filter(GOLDEN, 11)
        for k in range(1, 6):
            lam = np.exp(2j * np.pi * GOLDEN * k)
            assert abs(polynomial_value(filt, lam)) < 1e-10
            assert abs(polynomial_value(filt, lam.conjugate())) < 1e-10
        assert abs(polynomial_value(filt, 1.0) - 1.0) < 1e-12

    def test_figure2_error(self):
        err = figure2_error(tuned_filter(GOLDEN, 11))
        assert abs(err - 2.72e-5) <= 0.05 * 2.72e-5

    def test_degenerate_frequency(self):
        # omega = 1/2 and k = 2 puts a root at z = 1
        with pytest.raises(DegenerateFrequency):
            tuned_filter(0.5, 5)

    def test_even_length_rejected(self):
        with pytest.raises(ContractViolation):
            tuned_filter(0.3, 10)


class TestWindowFilters:
    def test_wba_window_figure2_error(self):
        err = figure2_error(wba_window_filter(11))
        assert abs(err - 7.38e-3) <= 0.05 * 7.38e-3

    def test_all_ones_figure2_error(self):
        err = figure2_error(all_ones_filter(11))
        assert abs(err - 7.11e-2) <= 0.05 * 7.11e-2

    def test_normalization(self):
        for filt in (wba_window_filter(21), all_ones_filter(8)):
            assert abs(math.fsum(filt) - 1.0) < 1e-12


class TestReferencePolynomial:
    def test_degenerates_to_roots_of_unity(self):
        # golden mean, second convergent 1/2: no exact pairs survive
        # alpha, leaving the single root-of-unity pair at -1
        filt = reference_polynomial(GOLDEN, 1, 0.2, 2)
        assert np.abs(filt - [0.25, 0.5, 0.25]).max() < 1e-14

    def test_exact_roots_annihilated(self):
        filt = reference_polynomial(GOLDEN, 1, 0.2, 5)  # L_5 = 8, one exact pair
        lam = np.exp(2j * np.pi * GOLDEN)
        assert abs(polynomial_value(filt, lam)) < 1e-9
        assert abs(polynomial_value(filt, lam.conjugate())) < 1e-9
        assert abs(polynomial_value(filt, 1.0) - 1.0) < 1e-12

    def test_bounded_on_unit_circle(self):
        filt = reference_polynomial(GOLDEN, 1, 0.2, 5)
        z = np.exp(2j * np.pi * np.linspace(0, 1, 4096, endpoint=False))
        assert np.abs(polynomial_value(filt, z)).max() <= 10.0

    def test_residual_decay_across_convergents(self):
        t_windows = 100
        theta = GOLDEN * np.arange(400)
        signal = np.exp(np.cos(2 * np.pi * theta))
        u = np.diff(signal)
        w = bump_weights(t_windows)
        residuals = []
        for n in (3, 4, 5):
            c = reference_polynomial(GOLDEN, 1, 0.2, n)
            windowed = np.convolve(u, c[::-1], mode="valid")[:t_windows]
            residuals.append(math.sqrt(float(w @ windowed**2)))
        assert residuals[0] >= residuals[1] >= residuals[2]

    def test_alpha_range(self):
        with pytest.raises(ContractViolation):
            reference_polynomial(GOLDEN, 1, 0.3, 3)


class TestBruteForceFourier:
    def test_mode_zero_is_weighted_average(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((2000, 2))
        got = brute_force_fourier_coefficient(samples, 0.37, 0)
        expected = weighted_average(Trajectory(samples), bump_weights(2000))
        assert np.abs(got - expected).max() < 1e-14

    def test_single_mode_orthogonality(self):
        omega = GOLDEN
        t = np.arange(10_000)
        samples = np.stack([np.cos(2 * np.pi * omega * t),
                            np.sin(2 * np.pi * omega * t)], axis=1)
        coeff = brute_force_fourier_coefficient(samples, omega, 1)
        # the complex signal cos + i sin has coefficient 1 at mode one
        value = coeff[0] + 1j * coeff[1]
        assert abs(value - 1.0) < 1e-6

    def test_figure2_mean(self):
        coeff = brute_force_fourier_coefficient(figure2_signal(10_000), GOLDEN, 0)
        assert abs(coeff[0].real - 1.266066) < 5e-7

    def test_needs_enough_samples(self):
        with pytest.raises(ContractViolation):
            brute_force_fourier_coefficient(np.zeros((500, 1)), 0.3, 0)


class TestOptimalityAgainstReferenceFilters:
    def test_solver_beats_tuned_filter_objective(self):
        # multi-harmonic integrable signal: the least-squares filter must
        # attain at most the tuned filter's objective at equal length
        k = 12
        t_windows = 60
        theta = GOLDEN * np.arange(t_windows + 2 * k + 1)
        signal = np.exp(np.cos(2 * np.pi * theta))
        u = difference_signal(Trajectory(signal))
        problem = build_problem(u, k, t_windows, 0.0)
        solution = solve_filter(problem)
        tuned = tuned_filter(GOLDEN, 2 * k + 1)
        w = bump_weights(t_windows)
        windowed = np.convolve(u[:, 0], tuned[::-1], mode="valid")[:t_windows]
        tuned_objective = float(w @ windowed**2)
        assert solution.residual**2 <= tuned_objective * (1 + 1e-12)
