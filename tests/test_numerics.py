import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_rre.errors import ContractViolation
from birkhoff_rre.numerics import (
    PROBES,
    augment,
    complex_least_squares_solve,
    gaussian_probes,
    least_squares_solve,
    real_eigenvalues,
)
from checks import pair_distance


def solve(a, b, **kwargs):
    """least_squares_solve of a @ X = b, with a and b held apart."""
    return least_squares_solve(augment(a, b), np.shape(a)[1], **kwargs)


class TestLeastSquares:
    def test_consistent_column(self):
        x, _ = solve(np.array([[1.0], [1.0]]), np.array([1.0, 1.0]))
        assert np.allclose(x, [[1.0]], atol=1e-14)

    def test_identity(self):
        x, _ = solve(np.eye(2), np.array([3.0, 4.0]))
        assert np.allclose(x, [[3.0], [4.0]], atol=1e-14)
        x, _ = solve(np.eye(2), np.array([[3.0, 1.0], [4.0, 2.0]]))
        assert np.allclose(x, [[3.0, 1.0], [4.0, 2.0]], atol=1e-14)

    def test_line_fit(self):
        # Vandermonde on nodes 0, 1, 2 fitting b = (0, 1, 2): slope one,
        # intercept zero by the normal equations worked by hand
        a = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        x, rank = solve(a, np.array([0.0, 1.0, 2.0]))
        assert x.shape == (2, 1)
        assert np.allclose(x[:, 0], [0.0, 1.0], atol=1e-13)
        assert rank == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            solve(np.eye(2), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ContractViolation):
            solve(np.ones((2, 3)), np.array([1.0, 2.0]))
        # the split must leave a column on each side
        for unknowns in (0, 3):
            with pytest.raises(ContractViolation):
                least_squares_solve(np.ones((4, 3), order="F"), unknowns)

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolation):
            solve(np.array([[np.nan], [1.0]]), np.array([1.0, 2.0]))
        with pytest.raises(ContractViolation):
            solve(np.array([[1.0], [1.0]]), np.array([np.inf, 2.0]))

    def test_buffer_is_not_written(self):
        augmented = augment(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]),
                            np.array([0.0, 1.0, 3.0]))
        before = augmented.copy()
        least_squares_solve(augmented, 2)
        assert augmented.flags.f_contiguous
        assert np.array_equal(augmented, before)

    @given(st.integers(2, 12), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_residual_orthogonality(self, n, seed):
        # a matrix right-hand side is solved column by column
        rng = np.random.default_rng(seed)
        m = n + rng.integers(1, 8)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((m, 3))
        x, rank = solve(a, b)
        assert x.shape == (n, 3) and rank == n
        for j in range(3):
            column = solve(a, b[:, j])[0][:, 0]
            assert np.abs(x[:, j] - column).max() <= 1e-12 * np.abs(column).max()
            residual = a @ column - b[:, j]
            bound = 1e-10 * np.linalg.norm(a, 2) * np.linalg.norm(b[:, j])
            assert np.linalg.norm(a.T @ residual) <= bound


class TestGaussianProbes:
    """The condition estimate's probe columns: a fixed Gaussian draw per size."""

    @staticmethod
    def digest(values):
        return hashlib.sha256(values.tobytes()).hexdigest()

    def test_same_across_calls_and_processes(self):
        draw = gaussian_probes(300)
        assert draw.shape == (300, PROBES) and draw.dtype == float
        assert np.array_equal(draw, gaussian_probes(300))
        code = ("import hashlib; from birkhoff_rre.numerics import gaussian_probes; "
                "print(hashlib.sha256(gaussian_probes(300).tobytes()).hexdigest())")
        src = str(Path(__file__).parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == self.digest(draw)

    def test_sizes_draw_apart(self):
        # a key per size: no size's draw is a prefix or a shift of another's
        draws = [gaussian_probes(size) for size in (1, 2, 100, 101, 102)]
        for i, first in enumerate(draws):
            for second in draws[i + 1:]:
                assert np.intersect1d(first, second).size == 0

    def test_moments_of_a_large_draw(self):
        # 1e5 draws a column: the standard errors of a column's mean, its
        # standard deviation and the columns' correlation are at most
        # 0.0032, so 0.015 is over four of them
        draw = gaussian_probes(100_000)
        assert np.isfinite(draw).all()
        for values in (draw.ravel(), draw[:, 0], draw[:, 1]):
            assert abs(values.mean()) <= 0.015
            assert abs(values.std() - 1.0) <= 0.015
        assert abs(np.corrcoef(draw.T)[0, 1]) <= 0.015


class TestComplexLeastSquares:
    def test_scalar_division(self):
        x, _ = complex_least_squares_solve(np.array([[1j]]), np.array([[1.0 + 0j]]))
        assert np.allclose(x, [[-1j]], atol=1e-14)

    def test_unitary(self):
        theta = 0.7
        a = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]], dtype=complex)
        x, _ = complex_least_squares_solve(a, a)
        assert np.allclose(x, np.eye(2), atol=1e-13)

    def test_exact_interpolation(self):
        lam = np.exp(2j * np.pi * 0.3)
        a = np.array([[1.0, 1.0], [lam, lam.conj()], [lam**2, lam.conj()**2]])
        b = a @ np.array([2.0, 2.0])
        x, _ = complex_least_squares_solve(a, b)
        assert np.allclose(x, [2.0, 2.0], atol=1e-12)

    def test_rank_matches_matrix_rank(self):
        t = np.arange(30)[:, None]
        z = np.exp(2j * np.pi * np.array([0.0, 0.21, -0.21, 0.37]))
        full = z[None, :] ** t
        repeated = z[[0, 1, 1, 2]][None, :] ** t  # one node twice
        for a in (full, repeated):
            _, rank = complex_least_squares_solve(a, a[:, 0])
            assert rank == np.linalg.matrix_rank(a)
        assert np.linalg.matrix_rank(repeated) == 3

    def test_mismatch(self):
        with pytest.raises(ContractViolation):
            complex_least_squares_solve(np.eye(2, dtype=complex), np.ones((3, 1)))


class TestEigenvalues:
    def test_identity(self):
        values = real_eigenvalues(np.eye(3))
        assert pair_distance(values, [1.0, 1.0, 1.0]) < 1e-13

    def test_rotation_spectrum(self):
        theta = np.pi / 3
        m = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        expected = [np.exp(1j * theta), np.exp(-1j * theta)]
        assert pair_distance(real_eigenvalues(m), expected) < 1e-14

    def test_companion_factorization(self):
        # z^2 - 3z + 2 = (z - 1)(z - 2)
        m = np.array([[3.0, -2.0], [1.0, 0.0]])
        assert pair_distance(real_eigenvalues(m), [1.0, 2.0]) < 1e-13

    def test_non_square(self):
        with pytest.raises(ContractViolation):
            real_eigenvalues(np.ones((2, 3)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_transpose_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((20, 20))
        forward = real_eigenvalues(m)
        backward = real_eigenvalues(m.T)
        scale = max(np.abs(forward).max(), 1.0)
        assert pair_distance(forward, backward) <= 1e-10 * scale

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_conjugation_closure(self, seed):
        rng = np.random.default_rng(seed)
        values = real_eigenvalues(rng.standard_normal((12, 12)))
        for lam in values:
            if abs(lam.imag) > 1e-12:
                assert np.min(np.abs(values - lam.conjugate())) < 1e-10
