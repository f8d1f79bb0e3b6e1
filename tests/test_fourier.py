import math

import numpy as np
import pytest

from birkhoff_rre import fourier
from birkhoff_rre.birkhoff import bump_weights
from birkhoff_rre.errors import ContractViolation, ValidationFailure
from birkhoff_rre.fourier import (
    VALIDATION_GRID,
    FourierCircle,
    choose_num_modes,
    eval_circle,
    fit_circle,
    make_observable_advance,
    project_circle,
    validation_residual,
)
from birkhoff_rre.maps import (
    CoordinateObservable,
    EmbeddingObservable,
    StandardMap,
    Trajectory,
    sample_trajectory,
)
from birkhoff_rre.spectral import classify_trajectory
from checks import (GOLDEN, IdentityObservable, complex_mode_fit, point_advance,
                    reference_validation_residual, traced_peak)


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

    def test_fit_circle_uses_the_chosen_num_modes(self):
        cls = classify_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.05, 0.1))
        circle = fit_circle(cls)
        window = cls.fit_trajectory.length - 1
        assert circle.num_modes == choose_num_modes(window, cls.rotation)


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

    def test_matches_complex_reference_on_random_draws(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            omega = rng.uniform(0.05, 0.45)
            n = int(rng.integers(61, 401))
            samples = rng.standard_normal((n, int(rng.choice([1, 2, 4]))))
            l = choose_num_modes(n - 1, omega)
            circle = project_circle(Trajectory(samples), omega, l)
            modes = np.exp(2j * np.pi * omega * (np.arange(2 * l + 1) - l))
            v, rank = complex_mode_fit(modes, samples)
            assert rank == 2 * l + 1
            assert np.abs(circle.coefficients - v).max() <= 1e-10 * np.abs(v).max()

    def test_near_zero_frequency_condition_bound_fails(self):
        # all 2L+1 modes nearly coincide: the Gershgorin bound fails at
        # L = 3, and already at L = 1, so the chooser keeps the mean alone
        omega = 1e-4
        assert toeplitz_gamma(59, omega, 3) >= 0.5
        assert choose_num_modes(59, omega) == 0

    def test_too_many_modes_rejected(self):
        with pytest.raises(ContractViolation):
            project_circle(Trajectory(np.zeros((10, 1))), 0.3, 6)

    def test_fit_holds_three_systems(self):
        # 2L+1 = 201 modes on 1200 samples of a D = 2 circle: the system is
        # 1200 x 203 with the right-hand sides.  tracemalloc sees the buffer,
        # np.linalg.qr's copy of it and its R; phases, cos and sin held apart
        # from the buffer took the peak to 3.7 systems
        n, l = 1200, 100
        t = np.arange(n)
        samples = np.stack([np.cos(2 * np.pi * GOLDEN * t), np.sin(2 * np.pi * GOLDEN * t)], 1)
        system = n * (2 * l + 1 + 2) * 8
        assert traced_peak(lambda: project_circle(Trajectory(samples), GOLDEN, l)) <= 3.0 * system


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
    def test_advance_refuses_an_observable_without_inverse(self):
        # raised when the advance is built, so no circle is fitted for nothing
        with pytest.raises(NotImplementedError, match="CoordinateObservable"):
            make_observable_advance(StandardMap(0.7), CoordinateObservable(1))

    def test_exact_twist_circle(self):
        cls = classify_trajectory(StandardMap(0.0), EmbeddingObservable(),
                                  (0.1, GOLDEN))
        circle = fit_circle(cls)
        advance = make_observable_advance(StandardMap(0.0), EmbeddingObservable())
        assert validation_residual(circle, advance) <= 1e-10

    def test_perturbation_sensitivity(self):
        cls = classify_trajectory(StandardMap(0.0), EmbeddingObservable(),
                                  (0.1, GOLDEN))
        circle = fit_circle(cls)
        advance = make_observable_advance(StandardMap(0.0), EmbeddingObservable())
        circle.coefficients[circle.num_modes + 1, 0] += 1e-3
        bumped = validation_residual(circle, advance)
        assert 1e-4 <= bumped <= 1e-2

    @pytest.mark.parametrize("seed, period", [((0.05, 0.1), 1), ((0.05, 0.37575757575757573), 3)])
    def test_batch_equals_per_point_reference(self, seed, period):
        smap, obs = StandardMap(0.7), EmbeddingObservable()
        cls = classify_trajectory(smap, obs, seed)
        assert cls.period == period
        circle = fit_circle(cls)
        advance = make_observable_advance(smap, obs)
        reference = reference_validation_residual(circle, point_advance(smap, obs))
        assert validation_residual(circle, advance) == reference

    def test_phases_built_once_per_set_of_angles(self, monkeypatch):
        # a period-3 chain needs the phases of the grid and of the rotated grid
        rng = np.random.default_rng(3)
        circle = FourierCircle(period=3, rotation=0.3, num_modes=4, dimension=2,
                               coefficients=rng.standard_normal((9, 6)) + 0j)

        def advance(values):
            return np.sin(values) + values

        expected = reference_validation_residual(circle, advance)
        calls = []
        phases = fourier._mode_phases
        monkeypatch.setattr(fourier, "_mode_phases",
                            lambda *args: calls.append(args) or phases(*args))
        assert validation_residual(circle, advance) == expected
        assert len(calls) == 2

    def test_sum_equals_per_point_reference(self):
        # the zero circle is its own target, so an advance that moves one
        # grid point by d leaves R_p^2 = d @ d / J: a term that two dot
        # kernels round apart shows in R_p
        rng = np.random.default_rng(7)
        circle = FourierCircle(period=1, rotation=0.0, num_modes=0, dimension=2,
                               coefficients=np.zeros((1, 2), dtype=complex))
        for grid_point in range(0, 120, 3):
            moved = np.zeros((VALIDATION_GRID, 2))
            moved[grid_point] = rng.standard_normal(2)

            def advance(values, moved=moved):
                return values + moved

            def point(value, moved=moved, rows=iter(range(VALIDATION_GRID))):
                return value + moved[next(rows)]

            assert validation_residual(circle, advance) == reference_validation_residual(
                circle, point)

    def test_default_advance_equals_per_point_reference(self):
        # a map's own step is what the advance calls, once per component
        class PlainStandardMap(StandardMap):
            calls = 0

            def step(self, states):
                self.calls += 1
                return super().step(states)

        smap, obs = PlainStandardMap(0.7), EmbeddingObservable()
        circle = fit_circle(classify_trajectory(smap, obs, (0.05, 0.37575757575757573)))
        advance = make_observable_advance(smap, obs)
        smap.calls = 0
        residual = validation_residual(circle, advance)
        assert smap.calls == circle.period == 3
        assert residual == reference_validation_residual(circle, point_advance(smap, obs))

    def test_escape_reports_first_grid_point(self):
        # components 1 and 3 of a period-3 chain escape from grid points 70
        # and 40 on: grid point 40 is reported, as the per-point loop over
        # (grid point, component) reports it
        smap, obs = StandardMap(0.7), EmbeddingObservable()
        circle = fit_circle(classify_trajectory(smap, obs, (0.05, 0.37575757575757573)))
        first_bad = {0: 70, 2: 40}  # component -> first escaping grid point
        good = make_observable_advance(smap, obs)
        blocks = []

        def advance(values):
            images = good(values)
            images[first_bad.get(len(blocks), 128):] = np.nan
            blocks.append(len(values))
            return images

        with pytest.raises(ValidationFailure, match="grid point 40$"):
            validation_residual(circle, advance)
        assert blocks == [128, 128, 128]  # one call per component
        point, calls = point_advance(smap, obs), iter(range(3 * 128))

        def reference_advance(value):
            idx, component = divmod(next(calls), 3)
            image = point(value)
            return image * np.nan if idx >= first_bad.get(component, 128) else image

        with pytest.raises(ValidationFailure, match="grid point 40$"):
            reference_validation_residual(circle, reference_advance)

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
            gamma = toeplitz_gamma(window, omega, level)
            bound = math.sqrt((1 + 2 * gamma) / (1 - 2 * gamma))
            n = window + 1
            modes = np.exp(2j * np.pi * omega * (np.arange(2 * level + 1) - level))
            basis = modes[None, :] ** np.arange(n)[:, None]
            weighted = np.sqrt(bump_weights(n))[:, None] * basis
            assert bound >= np.linalg.cond(weighted) * (1 - 1e-10)
