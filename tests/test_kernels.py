"""Kernel-level checks: Bessel sequences against scipy, the tridiagonal
matvec against a dense product, and block calls against row-by-row calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from wavewalk import kernels


def rng(seed=0):
    return np.random.default_rng(seed)


# --- Bessel sequences -------------------------------------------------------


@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1e-8, 0.05, 0.3, 0.5, 0.999, 1.0, 2.404826,
                               6.0, 20.0, 50.0, 500.0])
def test_bessel_sequence_matches_scipy(x):
    nmax = int(x) + 60
    ours = kernels.bessel_j_sequence(x, nmax)
    theirs = jv(np.arange(nmax + 1), x)
    # relative accuracy everywhere except right at a zero of J_n, where the
    # value is ill-conditioned in x and only absolute accuracy is meaningful
    abs_err = np.abs(ours - theirs)
    rel_err = abs_err / np.maximum(np.abs(theirs), 1e-300)
    assert np.all((rel_err < 1e-12) | (abs_err < 1e-14))


def test_bessel_sequence_at_zero_is_delta():
    out = kernels.bessel_j_sequence(0.0, 10)
    assert out[0] == 1.0
    assert np.all(out[1:] == 0.0)


def test_bessel_j0_below_one_is_accurate():
    # Miller's recurrence serves small arguments too
    assert abs(kernels.bessel_j_sequence(0.5, 10)[0] - jv(0, 0.5)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=120.0, allow_nan=False))
def test_bessel_probability_identity(x):
    # sum over all orders of J_n(x)^2 equals 1 (n=0 counted once, |n|>0 twice)
    nmax = int(x) + 50
    j = kernels.bessel_j_sequence(x, nmax)
    total = j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2)
    assert abs(total - 1.0) < 1e-10


# --- tridiagonal matvec and Chebyshev recurrence -----------------------------


def _random_problem(n, seed):
    r = rng(seed)
    diag = r.normal(size=n)
    off = r.uniform(0.5, 1.5, size=n - 1)
    x = r.normal(size=n) + 1j * r.normal(size=n)
    x /= np.linalg.norm(x)
    return diag, off, x


@pytest.mark.parametrize("corner", [0.0, 0.7])
def test_matvec_against_dense(corner):
    diag, off, x = _random_problem(50, 2)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    dense[0, -1] = dense[-1, 0] = corner
    expected = dense @ x
    got = kernels.tridiag_matvec(diag, off, corner, x)
    assert np.max(np.abs(got - expected)) < 1e-13


@pytest.mark.parametrize("corner", [0.0, 0.7])
def test_numpy_kernels_act_row_by_row_on_a_block(corner):
    # a block of states with one diagonal row each equals the 1-d calls, bit for bit
    n, rows = 40, 6
    r = rng(7)
    diag = r.normal(size=(rows, n))
    off = r.uniform(0.5, 1.5, size=n - 1)
    x = r.normal(size=(rows, n)) + 1j * r.normal(size=(rows, n))
    coeffs = r.normal(size=12) + 1j * r.normal(size=12)
    y = kernels.tridiag_matvec(diag, off, corner, x)
    acc = kernels.chebyshev_apply(diag, off, corner, 0.3, 5.0, coeffs, x)
    for i in range(rows):
        assert np.array_equal(y[i], kernels.tridiag_matvec(diag[i], off, corner, x[i]))
        assert np.array_equal(
            acc[i], kernels.chebyshev_apply(diag[i], off, corner, 0.3, 5.0, coeffs, x[i])
        )


def test_numpy_kernels_take_couplings_and_corners_row_by_row():
    # a block of Hamiltonians, each with its own couplings and ring corner
    # (0 for an open chain among rings), equals the 1-d calls, bit for bit
    n, rows = 40, 5
    r = rng(8)
    diag = r.normal(size=(rows, n))
    off = r.uniform(0.5, 1.5, size=(rows, n - 1))
    corner = np.array([0.7, 0.0, 1.2, 0.4, 0.9])
    x = r.normal(size=(rows, n)) + 1j * r.normal(size=(rows, n))
    coeffs = r.normal(size=12) + 1j * r.normal(size=12)
    y = kernels.tridiag_matvec(diag, off, corner, x)
    acc = kernels.chebyshev_apply(diag, off, corner, 0.3, 5.0, coeffs, x)
    for i in range(rows):
        assert np.array_equal(y[i], kernels.tridiag_matvec(diag[i], off[i], corner[i], x[i]))
        assert np.array_equal(
            acc[i], kernels.chebyshev_apply(diag[i], off[i], corner[i], 0.3, 5.0, coeffs, x[i])
        )


def test_active_backend_reported():
    assert kernels.backend() == "numpy"
