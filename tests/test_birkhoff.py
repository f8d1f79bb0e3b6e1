import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_rre.birkhoff import bump_weights, wba_doubling_residual_at, weighted_average
from birkhoff_rre.errors import ContractViolation
from birkhoff_rre.maps import EmbeddingObservable, StandardMap, Trajectory, sample_trajectory
from checks import GOLDEN, figure2_signal


class TestBumpWeights:
    def test_single_sample(self):
        assert np.array_equal(bump_weights(1), [1.0])

    def test_three_samples_match_formula(self):
        # raw window values at s = 1/4, 1/2, 3/4; the center one is e^{-4}
        edge = math.exp(-16.0 / 3.0)
        center = math.exp(-4.0)
        expected = np.array([edge, center, edge]) / (2 * edge + center)
        assert np.allclose(bump_weights(3), expected, rtol=1e-14)

    def test_unimodal_symmetric_eleven(self):
        w = bump_weights(11)
        assert np.argmax(w) == 5
        assert np.allclose(w, w[::-1], atol=1e-17)
        assert np.all(np.diff(w[:6]) > 0)

    @given(st.integers(1, 2000))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, n):
        w = bump_weights(n)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-14
        assert np.abs(w - w[::-1]).max() < 1e-14


class TestWeightedAverage:
    @given(st.floats(-5, 5, allow_nan=False), st.integers(1, 50))
    @settings(max_examples=40)
    def test_constant(self, c, n):
        traj = Trajectory(np.full((n, 1), c))
        assert abs(weighted_average(traj, bump_weights(n))[0] - c) < 1e-13 * max(1, abs(c))

    def test_converged_reference_mean(self):
        # the exp(cos) signal's true mean; the quoted value is the
        # converged weighted average over 1e4 samples
        traj = Trajectory(figure2_signal(10_000))
        avg = weighted_average(traj, bump_weights(10_000))[0]
        assert abs(avg - 1.266066) < 5e-7

    @given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 1000))
    @settings(max_examples=40)
    def test_affine_equivariance(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        n = 37
        a = rng.standard_normal((n, 2))
        w = bump_weights(n)
        direct = weighted_average(Trajectory(alpha * a + beta), w)
        composed = alpha * weighted_average(Trajectory(a), w) + beta
        assert np.abs(direct - composed).max() < 1e-13

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            weighted_average(Trajectory(np.zeros((5, 1))), bump_weights(4))

    def test_pure_mode_suppression_improves_with_length(self):
        # a zero-mean oscillation with Diophantine frequency: the
        # weighted average must fall as the window doubles
        values = []
        for n in (128, 256, 512, 1024, 2048, 4096):
            t = np.arange(n)
            traj = Trajectory(np.cos(2 * np.pi * GOLDEN * t))
            values.append(abs(weighted_average(traj, bump_weights(n))[0]))
        for shorter, longer in zip(values, values[1:]):
            assert longer <= 2.0 * shorter
        assert values[-1] < values[0]


class TestDoublingResidual:
    def test_constant_is_zero(self):
        assert wba_doubling_residual_at(np.ones((10, 2)), 5) == 0.0

    def test_period_two_even_half(self):
        # both halves see the same aligned pattern when T is even
        traj = Trajectory(np.array([1.0, -1.0] * 6))
        assert wba_doubling_residual_at(traj.samples, 6) < 1e-16

    def test_integrable_standard_map_converges(self):
        traj = sample_trajectory(StandardMap(0.7), EmbeddingObservable(),
                                 (0.1, 0.0), 100_000)
        assert wba_doubling_residual_at(traj.samples, 50_000) < 1e-11
