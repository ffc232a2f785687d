"""Kernel-level checks: Bessel sequences against scipy, the tridiagonal
matvec against a dense product, and block calls against row-by-row calls."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from wavewalk import kernels
from wavewalk.propagators import _order_cap


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


def _miller_one_x(x, nmax):
    """The loop form of Miller's recurrence for one x, as the vectorized
    kernel must reproduce it bit for bit."""
    if x == 0.0:
        return np.eye(1, nmax + 1).ravel()
    n_top = max(nmax, int(x) + 40 + int(2.0 * math.sqrt(x)))
    m_start = n_top + 40 + int(2.0 * math.sqrt(n_top))
    ratios = np.empty(n_top + 1)
    rn = 0.0
    for n in range(m_start, 0, -1):
        den = 2.0 * n / x - rn
        if den == 0.0:
            den = 1e-290
        rn = 1.0 / den
        if n <= n_top:
            ratios[n] = rn
    f = np.empty(n_top + 1)
    f[0] = 1.0
    norm = 1.0
    for n in range(1, n_top + 1):
        f[n] = f[n - 1] * ratios[n]
        if n % 2 == 0:
            norm += 2.0 * f[n]
    return f[: nmax + 1] / norm


# (half-width, grid points, largest z): the arguments of four coefficient tables
BESSEL_GRIDS = [(2.0, 100, 10.0), (2.0, 80, 8.0), (2.0, 80, 1000.0), (3.0, 60, 30.0)]


@pytest.mark.parametrize("halfwidth,nz,zmax", BESSEL_GRIDS)
def test_bessel_sequences_of_a_grid_have_the_bits_of_one_call_per_x(halfwidth, nz, zmax):
    # one recurrence over every x of a table, each from its own starting order
    xs = halfwidth * np.linspace(0.0, zmax, nz)
    nmax = np.array([_order_cap(x) + 2 for x in xs])
    seq = kernels.bessel_j_sequence(xs, nmax)
    assert seq.shape == (nmax.max() + 1, nz)
    for j, (x, m) in enumerate(zip(xs, nmax)):
        assert np.array_equal(seq[: m + 1, j], _miller_one_x(float(x), int(m))), j
        assert np.array_equal(kernels.bessel_j_sequence(x, m), seq[: m + 1, j]), j
        assert not np.any(seq[m + 1 :, j])


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


def _apply(diag, off, corner, coeffs, x, terms):
    """chebyshev_apply about centre 0.3 with half-width 5, into a fresh array;
    column j keeps its first terms[j] coefficients and is zero past them."""
    coeffs = np.where(np.arange(coeffs.shape[0])[:, None] < terms, coeffs, 0.0)
    out = np.empty((len(terms),) + x.shape, dtype=np.complex128)
    kernels.chebyshev_apply(diag, off, corner, 0.3, 5.0, coeffs, x, out)
    return out


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
    acc = _apply(diag, off, corner, coeffs[:, None], x, [12])[0]
    for i in range(rows):
        assert np.array_equal(y[i], kernels.tridiag_matvec(diag[i], off, corner, x[i]))
        assert np.array_equal(
            acc[i], _apply(diag[i], off, corner, coeffs[:, None], x[i], [12])[0]
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
    acc = _apply(diag, off, corner, coeffs[:, None], x, [12])[0]
    for i in range(rows):
        assert np.array_equal(y[i], kernels.tridiag_matvec(diag[i], off[i], corner[i], x[i]))
        assert np.array_equal(
            acc[i], _apply(diag[i], off[i], corner[i], coeffs[:, None], x[i], [12])[0]
        )


# (sites, states, terms of each column): a chunk of 16 stored terms, then
# many columns on a small lattice, where one product over the whole block
# would give other bits than a product per state
BLOCK_SHAPES = {"chunks": (60, 7, [1, 9, 17, 18, 33, 40]),
                "many_columns": (10, 32, list(range(150, 251)))}


@pytest.mark.parametrize("shape", list(BLOCK_SHAPES))
@pytest.mark.parametrize("corner", [0.0, 0.7])
def test_a_state_has_the_same_bits_alone_as_inside_a_block(corner, shape):
    # each state of a 2-d call forms its columns as a product of its own, of
    # a shape set by K, nz and the window only: its bits do not depend on the
    # other states of the block, each with its own H
    n, rows, terms = BLOCK_SHAPES[shape]
    r = rng(9)
    diag = r.normal(size=(rows, n))
    off = r.uniform(0.5, 1.5, size=(rows, n - 1))
    corners = np.full(rows, corner)
    x = r.normal(size=(rows, n)) + 1j * r.normal(size=(rows, n))
    terms = np.array(terms)
    coeffs = r.normal(size=(terms[-1], terms.size)) / terms[-1]
    block = _apply(diag, off, corners, coeffs, x, terms)
    for i in range(rows):
        alone = _apply(diag[i], off[i], corner, coeffs, x[i], terms)
        assert np.array_equal(block[:, i].view(np.uint64), alone.view(np.uint64)), i
        one = _apply(diag[i:i + 1], off[i:i + 1], corners[i:i + 1], coeffs, x[i:i + 1], terms)
        assert np.array_equal(block[:, i:i + 1].view(np.uint64), one.view(np.uint64)), i


def test_active_backend_reported():
    assert kernels.backend() == "numpy"
