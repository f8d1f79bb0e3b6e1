import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_rre.errors import ContractViolation, OrbitEscape
from birkhoff_rre.maps import (
    DynamicalMap,
    EmbeddingObservable,
    StandardMap,
    Trajectory,
    TrajectorySource,
    sample_trajectory,
)
from checks import (CounterMap, IdentityObservable, NanFromObservable, reference_samples,
                    standard_map_inverse_step)

finite_coords = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


def one_step(x, y, k):
    """StandardMap(k).step of the one-row block (x, y), as a pair of floats."""
    x_next, y_next = StandardMap(k).step(np.array([[x, y]]))[0].tolist()
    return x_next, y_next


class TestStandardMapStep:
    def test_origin_fixed_point(self):
        assert one_step(0.0, 0.0, 0.7) == (0.0, 0.0)

    def test_half_fixed_point(self):
        x, y = one_step(0.5, 0.0, 0.7)
        assert x == 0.5
        assert abs(y) < 1e-16

    def test_zero_k_twist(self):
        x, y = one_step(0.1, 0.25, 0.0)
        assert math.isclose(x, 0.35, abs_tol=1e-15)
        assert y == 0.25

    def test_wraps_into_unit_interval(self):
        x, _ = one_step(0.9, 0.8, 0.3)
        assert 0.0 <= x < 1.0
        x, _ = one_step(0.1, -0.9, 0.3)
        assert 0.0 <= x < 1.0

    @given(st.floats(0.0, 1.0, exclude_max=True), finite_coords,
           st.floats(0.0, 2.0))
    @settings(max_examples=200)
    def test_inverse_recovers(self, x, y, k):
        xn, yn = one_step(x, y, k)
        xb, yb = standard_map_inverse_step(xn, yn, k)
        # compare on the circle: 0 and 1 - eps are neighbours
        dx = min(abs(xb - x), 1.0 - abs(xb - x))
        assert dx < 1e-14
        assert abs(yb - y) < 1e-13 * max(1.0, abs(y))


class TestEmbeddingObservable:
    def test_basic_points(self):
        values = EmbeddingObservable().evaluate(np.array([[0.0, 0.0], [0.25, 0.5], [0.5, -0.5]]))
        assert np.allclose(values, [[0.5, 0.0], [0.0, 1.0], [0.0, 0.0]], atol=1e-15)

    def test_invert_roundtrip(self):
        obs = EmbeddingObservable()
        points = np.array([[0.37, 0.21]])
        back = obs.invert(obs.evaluate(points))
        assert np.allclose(back, points, atol=1e-14)

    def test_invert_origin_rejected(self):
        with pytest.raises(ContractViolation):
            EmbeddingObservable().invert(np.array([[0.3, 0.2], [0.0, 0.0]]))


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
        x1, y1 = one_step(0.1, 0.0, 0.7)
        x2, y2 = one_step(x1, y1, 0.7)
        assert np.allclose(traj.samples[1], [x1, y1], atol=1e-15)
        assert np.allclose(traj.samples[2], [x2, y2], atol=1e-15)

    def test_first_sample_is_observable_of_seed(self):
        obs = EmbeddingObservable()
        traj = sample_trajectory(StandardMap(0.9), obs, (0.3, 0.4), 2)
        assert np.array_equal(traj.samples[0], obs.evaluate(np.array([[0.3, 0.4]]))[0])

    @given(st.floats(0.0, 1.0, exclude_max=True),
           st.floats(-0.8, 0.8), st.integers(2, 40))
    @settings(max_examples=50)
    def test_zero_k_conserves_y(self, x0, y0, n):
        traj = sample_trajectory(StandardMap(0.0), IdentityObservable(), (x0, y0), n)
        assert np.all(traj.samples[:, 1] == y0)

    def test_uses_exactly_n_minus_one_steps(self):
        class CountingMap(DynamicalMap):
            def __init__(self):
                self.calls = 0

            def step(self, states):
                self.calls += 1
                return states

        counting = CountingMap()
        sample_trajectory(counting, IdentityObservable(), (0.0, 0.0), 7)
        assert counting.calls == 6

    def test_escape_reports_step(self):
        class Doubling(DynamicalMap):
            def step(self, states):
                return 2.0 * states

        with pytest.raises(OrbitEscape) as info:
            sample_trajectory(Doubling(), IdentityObservable(), (1.0,), 100,
                              escape_bound=16.0)
        assert info.value.step == 5  # 2^5 = 32 > 16

    def test_tuple_and_list_states(self):
        class TupleStandardMap(StandardMap):
            def step(self, states):
                return tuple(map(tuple, super().step(states)))

        class ListStandardMap(StandardMap):
            def step(self, states):
                return super().step(states).tolist()

        expected = sample_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.1, 0.2), 50)
        for dmap in (TupleStandardMap(0.7), ListStandardMap(0.7)):
            traj = sample_trajectory(dmap, EmbeddingObservable(), (0.1, 0.2), 50)
            assert np.array_equal(traj.samples, expected.samples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bound", [1e6, math.inf])
    def test_non_finite_tuple_state_escapes(self, bad, bound):
        class Blowup(DynamicalMap):
            def step(self, states):
                return ((0.0, bad),)

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

    def test_escape_at_first_sample(self):
        # the observable is already nan at x0: step 0, and no sample is kept
        source = TrajectorySource(CounterMap(), NanFromObservable(0.0), (0.0, 0.0))
        with pytest.raises(OrbitEscape) as info:
            source.take(5)
        assert info.value.step == 0
        assert source.samples_drawn == 0

    def test_observable_escape_before_coordinate_escape(self):
        # the observable is nan from x = 100 and the coordinates leave the
        # bound at step 151, in the same take: the earlier escape is reported,
        # after the 151 map evaluations made
        source = TrajectorySource(CounterMap(), NanFromObservable(100.0), (0.0, 0.0),
                                  escape_bound=150.0)
        with pytest.raises(OrbitEscape) as info:
            source.take(251)
        assert (info.value.step, info.value.evaluations) == (100, 151)

    def test_nan_first_sample_before_coordinate_escape(self):
        # nan at x0, coordinates past the bound at step 4: step 0 is reported
        source = TrajectorySource(CounterMap(), NanFromObservable(0.0), (0.0, 0.0),
                                  escape_bound=3.0)
        with pytest.raises(OrbitEscape) as info:
            source.take(10)
        assert (info.value.step, info.value.evaluations) == (0, 4)
        assert source.samples_drawn == 0


class TestBulkOrbit:
    """TrajectorySource draws through DynamicalMap.orbit and one
    Observable.evaluate per take; the result must be the per-step loop's."""

    @pytest.mark.parametrize("y0", [0.0, 0.1, 0.2606, 0.3758, 0.5576])
    def test_take_equals_per_step_loop(self, y0):
        # k = 0.7 line seeds: a fixed-point neighbour, circles, a chaotic
        # seed and a period-3 chain; takes that extend the buffer in place
        # and ones that outgrow it
        smap, obs = StandardMap(0.7), EmbeddingObservable()
        expected = reference_samples(smap, obs, (0.05, y0), 1401, 1e6)
        source = TrajectorySource(smap, obs, (0.05, y0))
        for n in (1, 2, 176, 200, 351, 1401):
            assert np.array_equal(source.take(n).samples, expected[:n])
        assert source.samples_drawn == 1401

    def test_orbit_states_equal_step(self):
        # one step of the block of all 500 previous states gives the orbit
        smap = StandardMap(0.9716)
        point = np.array((0.3, 0.45))
        states = smap.orbit(point, 500, 1e6)
        assert states.shape == (500, 2)
        assert np.array_equal(smap.step(np.vstack([point, states[:-1]])), states)

    def test_standard_map_escape_matches_reference(self):
        # at k = 2.0 the orbit of (0.5, 0.0) leaves |y| <= 2 at step 215
        smap, obs = StandardMap(2.0), EmbeddingObservable()
        with pytest.raises(OrbitEscape) as ref:
            reference_samples(smap, obs, (0.5, 0.0), 400, 2.0)
        source = TrajectorySource(smap, obs, (0.5, 0.0), escape_bound=2.0)
        source.take(100)
        with pytest.raises(OrbitEscape) as info:
            source.take(400)
        assert (info.value.step, info.value.evaluations) == (215, 215)
        assert (ref.value.step, ref.value.evaluations) == (215, 215)
        assert source.samples_drawn == 100

    @pytest.mark.parametrize("threshold, bound, n", [
        (math.inf, 150.0, 251),   # coordinate escape at step 151
        (100.0, 1e6, 251),        # observable escape at step 100, whole take stepped
        (100.0, 150.0, 251),      # observable escape before the coordinate escape
        (0.0, 3.0, 10),           # nan at x0, coordinates out at step 4
    ])
    def test_escape_matches_reference(self, threshold, bound, n):
        with pytest.raises(OrbitEscape) as ref:
            reference_samples(CounterMap(), NanFromObservable(threshold), (0.0, 0.0), n, bound)
        source = TrajectorySource(CounterMap(), NanFromObservable(threshold), (0.0, 0.0),
                                  escape_bound=bound)
        with pytest.raises(OrbitEscape) as info:
            source.take(n)
        assert (info.value.step, info.value.evaluations) == (ref.value.step,
                                                             ref.value.evaluations)

    def test_user_map_runs_through_default_orbit(self):
        assert "orbit" not in vars(CounterMap)
        source = TrajectorySource(CounterMap(), NanFromObservable(math.inf), (0.0, 0.0))
        assert np.array_equal(source.take(7).samples[:, 0], np.arange(7.0))

    def test_subclass_overrides_are_used(self):
        # a subclass of the standard map with its own step gets the default
        # orbit loop, which calls that step once per sample
        class CountingStandardMap(StandardMap):
            calls = 0

            def step(self, states):
                self.calls += 1
                return super().step(states)

        counting = CountingStandardMap(0.7)
        traj = sample_trajectory(counting, EmbeddingObservable(), (0.1, 0.2), 40)
        assert counting.calls == 39
        expected = sample_trajectory(StandardMap(0.7), EmbeddingObservable(), (0.1, 0.2), 40)
        assert np.array_equal(traj.samples, expected.samples)


class TestTrajectory:
    def test_scalar_samples_get_column_shape(self):
        traj = Trajectory(np.arange(4.0))
        assert traj.dimension == 1
        assert traj.length == 4
