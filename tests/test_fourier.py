import math

import numpy as np
import pytest

from birkhoff_rre.birkhoff import bump_weights
from birkhoff_rre.errors import ContractViolation
from birkhoff_rre.fourier import (
    choose_num_modes,
    condition_bound,
    eval_circle,
    fit_circle,
    make_observable_advance,
    project_circle,
    validation_residual,
)
from birkhoff_rre.maps import (
    EmbeddingObservable,
    IdentityObservable,
    StandardMap,
    Trajectory,
    sample_trajectory,
)
from birkhoff_rre.spectral import classify_trajectory
from checks import GOLDEN, complex_mode_fit


def toeplitz_gamma(window, omega, num_modes):
    """Independent evaluation of gamma_L = sum_{n=1}^{2L} |eta_n|."""
    w = bump_weights(window + 1)
    t = np.arange(window + 1)
    return sum(
        abs(np.dot(w, np.exp(2j * math.pi * omega * n * t)))
        for n in range(1, 2 * num_modes + 1)
    )


class TestChooseNumModes:
    def test_eta_zero_is_one(self):
        w = bump_weights(101)
        assert abs(np.dot(w, np.ones(101)) - 1.0) < 1e-14

    def test_half_frequency_forces_mean_only(self):
        # e^{2 pi i * (1/2) * 2 t} = 1, so |eta_2| = 1 kills L >= 1
        assert choose_num_modes(500, 0.5) == 0

    def test_gamma_below_threshold(self):
        for omega in (GOLDEN, 0.1330925, 0.271):
            level = choose_num_modes(300, omega)
            assert toeplitz_gamma(300, omega, level) < 0.5


class TestProjectCircle:
    def test_constant_mean_only(self):
        circle = project_circle(Trajectory(np.full((40, 2), 3.0)), 0.3, 0)
        assert np.allclose(circle.coefficients, 3.0, atol=1e-12)

    def test_single_complex_mode(self):
        omega = 0.2917
        t = np.arange(120)
        samples = np.stack([np.cos(2 * np.pi * omega * t),
                            np.sin(2 * np.pi * omega * t)], axis=1)
        circle = project_circle(Trajectory(samples), omega, 1)
        v = circle.coefficients
        # cosine column: 1/2 at both modes; sine column: -i/2 and +i/2
        assert abs(v[2, 0] - 0.5) < 1e-10
        assert abs(v[0, 0] - 0.5) < 1e-10
        assert abs(v[2, 1] - (-0.5j)) < 1e-10
        assert abs(v[0, 1] - 0.5j) < 1e-10
        assert abs(v[1, 0]) < 1e-10 and abs(v[1, 1]) < 1e-10

    def test_twist_circle_y_component_is_flat(self):
        traj = sample_trajectory(StandardMap(0.0), IdentityObservable(),
                                 (0.0, GOLDEN), 200)
        circle = project_circle(traj, GOLDEN, 12)
        values = eval_circle(circle, 1, np.linspace(0, 1, 64, endpoint=False))
        assert np.abs(values[:, 1] - GOLDEN).max() < 1e-10

    def test_reality_condition(self):
        traj = sample_trajectory(StandardMap(0.7), EmbeddingObservable(),
                                 (0.1, 0.0), 200)
        circle = project_circle(traj, 0.1330925079753239, 6)
        v = circle.coefficients
        assert np.array_equal(v[::-1].conj(), v)

    # a circle and the period-3 chain on the k = 0.7 line
    @pytest.mark.parametrize("y", [10 * (0.6 / 99), 60 * (0.6 / 99)])
    def test_matches_complex_reference(self, y):
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.05, y))
        circle = fit_circle(cls)
        l = circle.num_modes
        assert l > 0
        modes = np.exp(2j * np.pi * cls.rotation * (np.arange(2 * l + 1) - l))
        v, _ = complex_mode_fit(modes, cls.fit_trajectory.samples)
        assert np.abs(circle.coefficients - v).max() <= 1e-10

    def test_near_zero_frequency_condition_bound_fails(self):
        # all 2L+1 modes nearly coincide: the Gershgorin bound fails
        omega = 1e-4
        t = np.arange(60)
        circle = project_circle(Trajectory(np.cos(2 * np.pi * omega * t)), omega, 3)
        assert circle.condition_estimate == math.inf

    def test_too_many_modes_rejected(self):
        with pytest.raises(ContractViolation):
            project_circle(Trajectory(np.zeros((10, 1))), 0.3, 6)


class TestEvalCircle:
    def test_mean_only_constant(self):
        circle = project_circle(Trajectory(np.full((20, 1), 1.5)), 0.4, 0)
        assert abs(eval_circle(circle, 1, 0.37)[0] - 1.5) < 1e-12

    def test_single_mode_sign_flip(self):
        omega = 0.21
        t = np.arange(80)
        circle = project_circle(Trajectory(np.cos(2 * np.pi * omega * t)), omega, 1)
        at_zero = eval_circle(circle, 1, 0.0)[0]
        at_half = eval_circle(circle, 1, 0.5)[0]
        mean = circle.coefficients[1, 0].real
        assert abs((at_zero - mean) + (at_half - mean)) < 1e-9

    def test_matches_fft_synthesis(self):
        rng = np.random.default_rng(7)
        num_modes = 5
        half = rng.standard_normal(num_modes) + 1j * rng.standard_normal(num_modes)
        coeffs = np.concatenate([half[::-1].conj(), rng.standard_normal(1), half])
        circle_like = project_circle(Trajectory(np.zeros((32, 1))), 0.3, num_modes)
        circle_like.coefficients[:, 0] = coeffs
        grid = 64
        spectrum = np.zeros(grid, dtype=complex)
        for ell in range(-num_modes, num_modes + 1):
            spectrum[ell % grid] = coeffs[ell + num_modes]
        via_fft = np.fft.ifft(spectrum).real * grid
        thetas = np.arange(grid) / grid
        direct = eval_circle(circle_like, 1, thetas)[:, 0]
        assert np.abs(direct - via_fft).max() < 1e-10

    def test_component_out_of_range(self):
        circle = project_circle(Trajectory(np.zeros((20, 1))), 0.3, 0)
        with pytest.raises(ContractViolation):
            eval_circle(circle, 2, 0.0)


class TestValidation:
    def test_exact_twist_circle(self):
        cls = classify_trajectory(StandardMap(0.0), EmbeddingObservable(),
                                  (0.1, GOLDEN))
        circle = fit_circle(cls)
        advance, substituted = make_observable_advance(
            StandardMap(0.0), EmbeddingObservable()
        )
        assert substituted
        assert validation_residual(circle, advance) <= 1e-10

    def test_perturbation_sensitivity(self):
        cls = classify_trajectory(StandardMap(0.0), EmbeddingObservable(),
                                  (0.1, GOLDEN))
        circle = fit_circle(cls)
        advance, _ = make_observable_advance(StandardMap(0.0), EmbeddingObservable())
        circle.coefficients[circle.num_modes + 1, 0] += 1e-3
        bumped = validation_residual(circle, advance)
        assert 1e-4 <= bumped <= 1e-2

    def test_projection_self_consistency(self):
        traj = sample_trajectory(StandardMap(0.7), EmbeddingObservable(),
                                 (0.12, 0.0), 240)
        omega = 0.133
        circle = project_circle(traj, omega, 6)
        n = traj.length
        modes = np.exp(2j * np.pi * omega * (np.arange(13) - 6))
        basis = modes[None, :] ** np.arange(n)[:, None]
        fitted = (basis @ circle.coefficients).real
        w = bump_weights(n)
        weighted_rms = math.sqrt(float(w @ ((fitted - traj.samples) ** 2).sum(axis=1)))
        # any other coefficient choice can only do worse
        worse = circle.coefficients.copy()
        worse[0] += 0.01
        fitted_worse = (basis @ worse).real
        rms_worse = math.sqrt(float(w @ ((fitted_worse - traj.samples) ** 2).sum(axis=1)))
        assert weighted_rms <= rms_worse

    def test_condition_bound_dominates_empirical(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            omega = rng.uniform(0.05, 0.45)
            window = int(rng.integers(60, 300))
            level = choose_num_modes(window, omega)
            if level == 0:
                continue
            bound = condition_bound(window, omega, level)
            n = window + 1
            modes = np.exp(2j * np.pi * omega * (np.arange(2 * level + 1) - level))
            basis = modes[None, :] ** np.arange(n)[:, None]
            weighted = np.sqrt(bump_weights(n))[:, None] * basis
            assert bound >= np.linalg.cond(weighted) * (1 - 1e-10)
