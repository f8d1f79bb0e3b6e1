import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_rre.errors import ContractViolation, OrbitEscape
from birkhoff_rre.maps import (
    DynamicalMap,
    EmbeddingObservable,
    IdentityObservable,
    StandardMap,
    Trajectory,
    TrajectorySource,
    sample_trajectory,
    standard_map_step,
)
from checks import standard_map_inverse_step

finite_coords = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


class TestStandardMapStep:
    def test_origin_fixed_point(self):
        assert standard_map_step(0.0, 0.0, 0.7) == (0.0, 0.0)

    def test_half_fixed_point(self):
        x, y = standard_map_step(0.5, 0.0, 0.7)
        assert x == 0.5
        assert abs(y) < 1e-16

    def test_zero_k_twist(self):
        x, y = standard_map_step(0.1, 0.25, 0.0)
        assert math.isclose(x, 0.35, abs_tol=1e-15)
        assert y == 0.25

    def test_wraps_into_unit_interval(self):
        x, _ = standard_map_step(0.9, 0.8, 0.3)
        assert 0.0 <= x < 1.0
        x, _ = standard_map_step(0.1, -0.9, 0.3)
        assert 0.0 <= x < 1.0

    @given(st.floats(0.0, 1.0, exclude_max=True), finite_coords,
           st.floats(0.0, 2.0))
    @settings(max_examples=200)
    def test_inverse_recovers(self, x, y, k):
        xn, yn = standard_map_step(x, y, k)
        xb, yb = standard_map_inverse_step(xn, yn, k)
        # compare on the circle: 0 and 1 - eps are neighbours
        dx = min(abs(xb - x), 1.0 - abs(xb - x))
        assert dx < 1e-14
        assert abs(yb - y) < 1e-13 * max(1.0, abs(y))


class TestEmbeddingObservable:
    def test_basic_points(self):
        obs = EmbeddingObservable()
        assert np.allclose(obs.evaluate((0.0, 0.0)), [0.5, 0.0], atol=1e-15)
        assert np.allclose(obs.evaluate((0.25, 0.5)), [0.0, 1.0], atol=1e-15)
        assert np.allclose(obs.evaluate((0.5, -0.5)), [0.0, 0.0], atol=1e-15)

    def test_invert_roundtrip(self):
        obs = EmbeddingObservable()
        point = np.array((0.37, 0.21))
        back = obs.invert(obs.evaluate(point))
        assert np.allclose(back, point, atol=1e-14)

    def test_invert_origin_rejected(self):
        with pytest.raises(ContractViolation):
            EmbeddingObservable().invert((0.0, 0.0))


class TestSampleTrajectory:
    def test_fixed_point_constant(self):
        traj = sample_trajectory(StandardMap(0.7), IdentityObservable(), (0.0, 0.0), 5)
        assert traj.length == 5
        assert np.allclose(traj.samples, traj.samples[0], atol=0)

    def test_twist_progression(self):
        traj = sample_trajectory(StandardMap(0.0), IdentityObservable(), (0.0, 0.25), 5)
        assert np.allclose(traj.samples[:, 0], [0.0, 0.25, 0.5, 0.75, 0.0], atol=1e-15)

    def test_matches_direct_composition(self):
        traj = sample_trajectory(StandardMap(0.7), IdentityObservable(), (0.1, 0.0), 3)
        x1, y1 = standard_map_step(0.1, 0.0, 0.7)
        x2, y2 = standard_map_step(x1, y1, 0.7)
        assert np.allclose(traj.samples[1], [x1, y1], atol=1e-15)
        assert np.allclose(traj.samples[2], [x2, y2], atol=1e-15)

    def test_first_sample_is_observable_of_seed(self):
        obs = EmbeddingObservable()
        traj = sample_trajectory(StandardMap(0.9), obs, (0.3, 0.4), 2)
        assert np.array_equal(traj.samples[0], obs.evaluate((0.3, 0.4)))

    @given(st.floats(0.0, 1.0, exclude_max=True),
           st.floats(-0.8, 0.8), st.integers(2, 40))
    @settings(max_examples=50)
    def test_zero_k_conserves_y(self, x0, y0, n):
        traj = sample_trajectory(StandardMap(0.0), IdentityObservable(), (x0, y0), n)
        assert np.all(traj.samples[:, 1] == y0)

    def test_uses_exactly_n_minus_one_steps(self):
        class CountingMap(DynamicalMap):
            state_dimension = 2

            def __init__(self):
                self.calls = 0

            def step(self, point):
                self.calls += 1
                return point

        counting = CountingMap()
        sample_trajectory(counting, IdentityObservable(), (0.0, 0.0), 7)
        assert counting.calls == 6

    def test_escape_reports_step(self):
        class Doubling(DynamicalMap):
            state_dimension = 1

            def step(self, point):
                return 2.0 * point

        with pytest.raises(OrbitEscape) as info:
            sample_trajectory(Doubling(), IdentityObservable(1), (1.0,), 100,
                              escape_bound=16.0)
        assert info.value.step == 5  # 2^5 = 32 > 16

    def test_tuple_and_list_states(self):
        class TupleStandardMap(StandardMap):
            def step(self, point):
                return standard_map_step(point[0], point[1], self.k)

        class ListStandardMap(StandardMap):
            def step(self, point):
                return list(standard_map_step(point[0], point[1], self.k))

        expected = sample_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.1, 0.2), 50)
        for dmap in (TupleStandardMap(0.7), ListStandardMap(0.7)):
            traj = sample_trajectory(dmap, EmbeddingObservable(), (0.1, 0.2), 50)
            assert np.array_equal(traj.samples, expected.samples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bound", [1e6, math.inf])
    def test_non_finite_tuple_state_escapes(self, bad, bound):
        class Blowup(DynamicalMap):
            state_dimension = 2

            def step(self, point):
                return (0.0, bad)

        with pytest.raises(OrbitEscape) as info:
            sample_trajectory(Blowup(), IdentityObservable(), (0.0, 0.0), 10,
                              escape_bound=bound)
        assert info.value.step == 1

    def test_bad_length(self):
        with pytest.raises(ContractViolation):
            sample_trajectory(StandardMap(0.1), IdentityObservable(), (0.0, 0.0), 0)


class TestTrajectorySource:
    def test_earlier_take_survives_extension(self):
        # 60 and 5000 outgrow the buffer, 80 fills it in place: the first
        # view keeps the rows it was given either way
        source = TrajectorySource(StandardMap(0.7), EmbeddingObservable(), (0.1, 0.2))
        t = source.take(50)
        for n in (60, 80, 5000):
            source.take(n)
        expected = sample_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.1, 0.2), 50)
        assert np.array_equal(t.samples, expected.samples)
        assert source.samples_drawn == 5000


class TestTrajectory:
    def test_scalar_samples_get_column_shape(self):
        traj = Trajectory(np.arange(4.0))
        assert traj.dimension == 1
        assert traj.length == 4
