"""Intensity-derived observables."""

import numpy as np
import pytest

from wavewalk import (
    ProbabilityDist,
    SingleSite,
    WaveFunction,
    ZGrid,
    bessel_free_state,
    bessel_window_for,
    build_hamiltonian,
    cqw_variance_law,
    evolve_eigen,
    fit_localization_length,
    fit_loglog_exponent,
    intensity,
    make_initial_state,
    participation_ratio,
    spread_variance,
    total_variation_distance,
    uniform_lattice,
)


def test_intensity_of_delta():
    p = intensity(make_initial_state(SingleSite(4), 9))
    assert p.probs[4] == 1.0 and np.sum(p.probs) == 1.0


def test_intensity_drops_phase():
    wf = WaveFunction(np.array([1.0, 1j]) / np.sqrt(2.0))
    assert np.allclose(intensity(wf).probs, [0.5, 0.5], atol=1e-15)


def test_intensity_of_bessel_state():
    from wavewalk.kernels import bessel_j_sequence

    wf = bessel_free_state(50, 1.0, 5.0, 101)
    j = bessel_j_sequence(10.0, 50)
    expected = j[np.abs(np.arange(101) - 50)] ** 2
    assert np.max(np.abs(intensity(wf).probs - expected)) < 1e-15


def test_variance_of_delta_and_symmetric_pair():
    assert spread_variance(intensity(make_initial_state(SingleSite(3), 7))) == pytest.approx(0.0, abs=1e-20)
    assert spread_variance(np.array([0.5, 0.0, 0.5])) == pytest.approx(1.0, abs=1e-15)


def test_variance_of_clean_walk_matches_law():
    c, z = 1.0, 3.0
    half = bessel_window_for(c, z)
    n = 2 * half + 1
    p = intensity(bessel_free_state(half, c, z, n))
    assert spread_variance(p) == pytest.approx(cqw_variance_law(c, z), rel=1e-6)


def test_participation_ratio_limits():
    assert participation_ratio(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)
    n = 17
    assert participation_ratio(np.full(n, 1.0 / n)) == pytest.approx(float(n))


def test_participation_ratio_permutation_invariant():
    r = np.random.default_rng(3)
    p = r.uniform(0.1, 1.0, 12)
    p /= p.sum()
    assert participation_ratio(p) == pytest.approx(participation_ratio(p[r.permutation(12)]), abs=1e-12)


def test_traces_of_a_stack_equal_row_by_row_calls():
    # a (R, nz, n) stack gives, bit for bit, the 1-d result of every row
    r = np.random.default_rng(4)
    stack = r.uniform(0.0, 1.0, size=(5, 3, 57))
    stack /= stack.sum(axis=-1, keepdims=True)
    var = spread_variance(stack)
    pr = participation_ratio(stack)
    assert var.shape == pr.shape == (5, 3)
    for idx in np.ndindex(5, 3):
        v1, p1 = spread_variance(stack[idx]), participation_ratio(stack[idx])
        assert type(v1) is float and type(p1) is float
        assert var[idx] == v1 and pr[idx] == p1


def test_clean_pr_grows_with_z():
    n = 301
    h = build_hamiltonian(uniform_lattice(n))
    snap = evolve_eigen(h, make_initial_state(SingleSite(n // 2), n), ZGrid(np.array([2.0, 6.0, 12.0])))
    prs = [participation_ratio(snap.intensities()[i]) for i in range(3)]
    assert prs[0] < prs[1] < prs[2]


# --- localization fits ----------------------------------------------------------


def test_fit_recovers_synthetic_exponential():
    n = 101
    j0 = 50
    p = np.exp(-np.abs(np.arange(n) - j0) / 4.0)
    p /= p.sum()
    fit = fit_localization_length(p, window=(10, 30), origin=j0)
    assert fit.xi == pytest.approx(4.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.slope < 0


def test_fit_flat_distribution_signals_no_length():
    n = 101
    fit = fit_localization_length(np.full(n, 1.0 / n), window=(10, 30), origin=50)
    assert abs(fit.slope) < 1e-12
    assert fit.xi is None


def test_fit_rejects_degenerate_window():
    p = np.full(101, 1.0 / 101)
    with pytest.raises(ValueError):
        fit_localization_length(p, window=(10, 10), origin=50)  # two points only


def test_fit_rejects_window_outside_lattice():
    p = np.full(41, 1.0 / 41)
    with pytest.raises(ValueError):
        fit_localization_length(p, window=(10, 30), origin=20)


def test_fit_origin_defaults_to_peak():
    n = 101
    p = np.exp(-np.abs(np.arange(n) - 42) / 6.0)
    p /= p.sum()
    fit = fit_localization_length(p, window=(10, 30))
    assert fit.xi == pytest.approx(6.0, abs=1e-6)


# --- distances -------------------------------------------------------------------


def test_tvd_identical_and_disjoint():
    p = np.zeros(9)
    p[2] = 1.0
    q = np.zeros(9)
    q[6] = 1.0
    assert total_variation_distance(p, p) == 0.0
    assert total_variation_distance(p, q) == 1.0


def test_tvd_length_mismatch():
    with pytest.raises(ValueError):
        total_variation_distance(np.ones(3) / 3, np.ones(4) / 4)


def test_tvd_clean_adjacent_inputs_two_routes():
    # closed-form route vs diagonalization route must give the same distance
    n, z = 201, 10.0
    p_closed = intensity(bessel_free_state(100, 1.0, z, n))
    q_closed = intensity(bessel_free_state(101, 1.0, z, n))
    d_closed = total_variation_distance(p_closed, q_closed)
    h = build_hamiltonian(uniform_lattice(n))
    grid = ZGrid(np.array([z]))
    p_num = intensity(evolve_eigen(h, make_initial_state(SingleSite(100), n), grid).state(0))
    q_num = intensity(evolve_eigen(h, make_initial_state(SingleSite(101), n), grid).state(0))
    d_num = total_variation_distance(p_num, q_num)
    assert d_num == pytest.approx(d_closed, abs=1e-8)


def test_translation_covariance_clean_lattice():
    # shifting the input shifts the output identically (away from edges)
    n, s, z = 241, 3, 6.0
    h = build_hamiltonian(uniform_lattice(n))
    grid = ZGrid(np.array([z]))
    a = intensity(evolve_eigen(h, make_initial_state(SingleSite(n // 2), n), grid).state(0)).probs
    b = intensity(evolve_eigen(h, make_initial_state(SingleSite(n // 2 + s), n), grid).state(0)).probs
    assert np.max(np.abs(b[s:] - a[:-s])) < 1e-10


# --- exponent fits ---------------------------------------------------------------


def test_loglog_exponent_exact_power_laws():
    z = np.linspace(1.0, 10.0, 30)
    assert fit_loglog_exponent(z, 2.0 * z**2) == pytest.approx(2.0, abs=1e-12)
    assert fit_loglog_exponent(z, 0.5 * z) == pytest.approx(1.0, abs=1e-12)


def test_loglog_exponent_validation():
    with pytest.raises(ValueError):
        fit_loglog_exponent(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_loglog_exponent(np.array([1.0, 2.0]), np.array([1.0]))


def test_probability_conserved_through_evolution():
    n = 151
    h = build_hamiltonian(uniform_lattice(n))
    snap = evolve_eigen(h, make_initial_state(SingleSite(75), n), ZGrid(np.linspace(0, 8, 9)))
    sums = snap.intensities().sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-10
