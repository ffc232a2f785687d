"""Closed-form references, each validated against an independent route
before its values are trusted anywhere else."""

import numpy as np
import pytest

from wavewalk import (
    ProbabilityDist,
    SingleSite,
    WindowTooSmallError,
    ZGrid,
    bessel_free_state,
    bessel_window_for,
    build_hamiltonian,
    classical_ctrw_distribution,
    cqw_variance_law,
    ctrw_variance_law,
    evolve_eigen,
    image_boundary_state,
    make_initial_state,
    uniform_lattice,
)
from wavewalk.kernels import bessel_j_sequence


# --- free-lattice Bessel state -----------------------------------------------


def test_free_state_at_z0_is_delta():
    wf = bessel_free_state(10, 1.0, 0.0, 21)
    assert wf.amps[10] == 1.0
    assert np.sum(np.abs(wf.amps)) == 1.0


def _bisect_j0_zero(lo, hi):
    # first zero of J_0, located on our own series (independent of scipy)
    f = lambda x: bessel_j_sequence(x, 0)[0]
    assert f(lo) > 0 > f(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_origin_revival_vanishes_at_first_bessel_zero():
    x0 = _bisect_j0_zero(2.0, 3.0)  # oracle first: x0 ~ 2.404826
    assert abs(x0 - 2.404826) < 1e-5
    c = 1.0
    z = x0 / (2.0 * c)
    wf = bessel_free_state(60, c, z, 121)
    assert np.abs(wf.amps[60]) ** 2 < 1e-10


def test_free_state_matches_eigen_at_cz10():
    n, z = 201, 10.0
    wf = bessel_free_state(100, 1.0, z, n)
    h = build_hamiltonian(uniform_lattice(n))
    snap = evolve_eigen(h, make_initial_state(SingleSite(100), n), ZGrid(np.array([z])))
    assert np.max(np.abs(wf.amps - snap.amps[0])) < 1e-8


def test_free_state_window_too_small():
    with pytest.raises(WindowTooSmallError):
        bessel_free_state(10, 1.0, 10.0, 21)  # wavefront at |j-j0| ~ 20 >> window


def test_free_state_intensity_symmetric():
    wf = bessel_free_state(40, 1.0, 3.0, 81)
    for k in range(1, 41):
        assert np.abs(wf.amps[40 + k]) == np.abs(wf.amps[40 - k])


def test_free_state_input_validation():
    for bad in (dict(j0=-1), dict(c=0.0), dict(c=-1.0), dict(z=-0.1), dict(n_sites=1)):
        kwargs = dict(j0=5, c=1.0, z=1.0, n_sites=11)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            bessel_free_state(**kwargs)


def test_window_helper_is_sufficient():
    c, z = 1.0, 12.0
    half = bessel_window_for(c, z)
    bessel_free_state(half, c, z, 2 * half + 1)  # must not raise


# --- method of images ---------------------------------------------------------


def test_image_equals_free_before_wavefront_reaches_wall():
    n = 241
    j0 = n // 2
    wf_free = bessel_free_state(j0, 1.0, 2.0, n)
    wf_wall = image_boundary_state(j0, 1.0, 2.0, n)
    assert np.max(np.abs(wf_wall.amps - wf_free.amps)) < 1e-10


@pytest.mark.parametrize("j0", [0, 3, 10])
def test_image_matches_eigen_near_wall(j0):
    n_big, z = 400, 2.0
    h = build_hamiltonian(uniform_lattice(n_big))
    snap = evolve_eigen(h, make_initial_state(SingleSite(j0), n_big), ZGrid(np.array([z])))
    wf = image_boundary_state(j0, 1.0, z, n_big)
    assert np.max(np.abs(wf.amps[:60] - snap.amps[0, :60])) < 1e-8


def test_image_no_flux_past_wall():
    wf = image_boundary_state(2, 1.0, 5.0, 200)
    assert abs(np.sum(np.abs(wf.amps) ** 2) - 1.0) < 1e-9


def test_image_satisfies_wall_site_equation():
    # at j=0 the equation has no left neighbor: i dpsi_0/dz = C psi_1
    c, z, n = 1.0, 3.0, 300
    h = 1e-5
    up = image_boundary_state(0, c, z + h, n).amps[0]
    dn = image_boundary_state(0, c, z - h, n).amps[0]
    dpsi0 = (up - dn) / (2.0 * h)
    psi1 = image_boundary_state(0, c, z, n).amps[1]
    residual = abs(1j * dpsi0 - c * psi1)
    assert residual < 1e-9


def test_image_window_too_small():
    with pytest.raises(WindowTooSmallError):
        image_boundary_state(0, 1.0, 20.0, 25)


# --- classical random walk -----------------------------------------------------


def _master_equation_rk4(j0, gamma, t, n_sites, dt=2e-4):
    # independent oracle: integrate dp/dt = gamma (p_{j+1} + p_{j-1} - 2 p_j)
    p = np.zeros(n_sites)
    p[j0] = 1.0

    def rhs(q):
        out = -2.0 * q.copy()
        out[:-1] += q[1:]
        out[1:] += q[:-1]
        return gamma * out

    steps = int(round(t / dt))
    for _ in range(steps):
        k1 = rhs(p)
        k2 = rhs(p + 0.5 * dt * k1)
        k3 = rhs(p + 0.5 * dt * k2)
        k4 = rhs(p + dt * k3)
        p = p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


def test_ctrw_at_t0_is_delta():
    p = classical_ctrw_distribution(7, 1.0, 0.0, 15)
    assert p.probs[7] == 1.0


def test_ctrw_closed_form_vs_master_equation():
    j0, gamma, t, n = 30, 1.0, 2.0, 61
    direct = _master_equation_rk4(j0, gamma, t, n)  # oracle first
    closed = classical_ctrw_distribution(j0, gamma, t, n)
    assert np.max(np.abs(closed.probs - direct)) < 1e-8


@pytest.mark.parametrize("t", [1.0, 5.0, 10.0])
def test_ctrw_variance_linear_in_time(t):
    gamma = 1.0
    n = 2 * int(6 * np.sqrt(2 * gamma * t) + 40) + 1
    p = classical_ctrw_distribution(n // 2, gamma, t, n)
    sites = np.arange(n, dtype=float)
    mu = sites @ p.probs
    var = (sites - mu) ** 2 @ p.probs
    assert abs(var - ctrw_variance_law(gamma, t)) < 1e-8 * ctrw_variance_law(gamma, t)


def test_ctrw_total_probability():
    for t in (0.5, 3.0, 8.0):
        p = classical_ctrw_distribution(60, 1.0, t, 121)
        assert abs(np.sum(p.probs) - 1.0) < 1e-10


def test_ctrw_window_too_small():
    with pytest.raises(WindowTooSmallError):
        classical_ctrw_distribution(5, 1.0, 10.0, 11)


# --- variance laws --------------------------------------------------------------


def test_cqw_variance_law_prefactor_from_bessel_sum():
    # sum_n n^2 J_n(x)^2 = x^2/2 confirmed on our own Bessel values
    c, z = 1.0, 3.0
    x = 2.0 * c * z
    j = bessel_j_sequence(x, int(x) + 60)
    n = np.arange(j.size)
    series = 2.0 * np.sum(n**2 * j**2)  # both flanks
    assert abs(series - cqw_variance_law(c, z)) < 1e-8
    assert cqw_variance_law(c, z) == 18.0


def test_cqw_variance_law_edges():
    assert cqw_variance_law(1.0, 0.0) == 0.0
    assert cqw_variance_law(0.7, 4.0) == 4.0 * cqw_variance_law(0.7, 2.0)
    with pytest.raises(ValueError):
        cqw_variance_law(0.0, 1.0)


def test_probability_dist_validation():
    with pytest.raises(ValueError):
        ProbabilityDist(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        ProbabilityDist(np.array([-0.1, 1.1]))


@pytest.mark.parametrize("probs", [[np.nan, 1.0], [np.nan, np.nan]])
def test_probability_dist_rejects_nan(probs):
    with pytest.raises(ValueError):
        ProbabilityDist(np.array(probs))
