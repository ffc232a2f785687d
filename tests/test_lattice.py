"""Hamiltonian construction and initial states."""

import numpy as np
import pytest

from wavewalk import (
    Boundary,
    DiagConvention,
    GaussianBeam,
    LatticeSpec,
    SingleSite,
    TwoSite,
    WaveFunction,
    apply_hamiltonian,
    build_hamiltonian,
    make_initial_state,
    uniform_lattice,
)


def test_n3_open_dense_form():
    h = build_hamiltonian(uniform_lattice(3))
    expected = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.array_equal(h.dense(), expected)


def test_minus_degree_gamma_diagonal():
    spec = uniform_lattice(3, diag_convention=DiagConvention.MINUS_DEGREE_GAMMA)
    h = build_hamiltonian(spec)
    assert np.array_equal(h.diag, np.array([-1.0, -2.0, -1.0]))


def test_minus_degree_gamma_matches_explicit_betas():
    # open chain: the degree convention equals beta_as_given with beta_j = -d_j*gamma
    n = 7
    gamma = 1.3
    a = build_hamiltonian(uniform_lattice(n, gamma, diag_convention=DiagConvention.MINUS_DEGREE_GAMMA))
    degree = np.full(n, 2.0)
    degree[0] = degree[-1] = 1.0
    b = build_hamiltonian(
        LatticeSpec(n_sites=n, coupling=np.full(n - 1, gamma), beta=-degree * gamma)
    )
    assert np.array_equal(a.dense(), b.dense())


def test_periodic_corner_entries():
    h = build_hamiltonian(uniform_lattice(4, boundary=Boundary.PERIODIC))
    dense = h.dense()
    assert dense[0, 3] == 1.0 and dense[3, 0] == 1.0


def test_hermitian_by_construction():
    r = np.random.default_rng(0)
    spec = LatticeSpec(
        n_sites=20,
        coupling=r.uniform(0.5, 1.5, 19),
        beta=r.normal(size=20),
    )
    dense = build_hamiltonian(spec).dense()
    assert np.max(np.abs(dense - dense.T)) == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_sites=1, coupling=np.array([]), beta=np.array([0.0])),
        dict(n_sites=3, coupling=np.array([1.0, -1.0]), beta=np.zeros(3)),
        dict(n_sites=3, coupling=np.array([1.0, 0.0]), beta=np.zeros(3)),
        dict(n_sites=3, coupling=np.array([1.0]), beta=np.zeros(3)),  # length mismatch
        dict(n_sites=4, coupling=np.ones(3), beta=np.zeros(4), boundary=Boundary.PERIODIC),
        dict(n_sites=2, coupling=np.ones(2), beta=np.zeros(2), boundary=Boundary.PERIODIC),
        dict(n_sites=3, coupling=np.ones(2), beta=np.array([0.0, np.inf, 0.0])),
    ],
)
def test_invalid_lattice_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        LatticeSpec(**kwargs)


def test_apply_hamiltonian_swap():
    h = build_hamiltonian(uniform_lattice(2))
    psi = WaveFunction(np.array([1.0 + 0j, 0.0]))
    assert np.array_equal(apply_hamiltonian(h, psi), np.array([0.0 + 0j, 1.0]))


def test_apply_hamiltonian_zero_eigenpair():
    # (1, 0, -1)/sqrt(2) is the zero-eigenvalue mode of the open 3-chain
    h = build_hamiltonian(uniform_lattice(3))
    psi = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    assert np.max(np.abs(apply_hamiltonian(h, psi))) < 1e-15


def test_apply_hamiltonian_dense_oracle():
    r = np.random.default_rng(7)
    spec = LatticeSpec(n_sites=50, coupling=r.uniform(0.5, 2.0, 49), beta=r.normal(size=50))
    h = build_hamiltonian(spec)
    psi = r.normal(size=50) + 1j * r.normal(size=50)
    psi /= np.linalg.norm(psi)
    expected = h.dense() @ psi  # oracle: dense matrix product
    assert np.max(np.abs(apply_hamiltonian(h, psi) - expected)) < 1e-13


def test_apply_hamiltonian_conjugate_symmetry():
    r = np.random.default_rng(8)
    h = build_hamiltonian(uniform_lattice(33, 1.2))
    phi = r.normal(size=33) + 1j * r.normal(size=33)
    psi = r.normal(size=33) + 1j * r.normal(size=33)
    lhs = np.vdot(phi, apply_hamiltonian(h, psi))
    rhs = np.vdot(apply_hamiltonian(h, phi), psi)
    assert abs(lhs - rhs) < 1e-13


def test_apply_hamiltonian_dimension_mismatch():
    h = build_hamiltonian(uniform_lattice(5))
    with pytest.raises(ValueError):
        apply_hamiltonian(h, np.zeros(4, dtype=complex))


def test_single_site_state():
    wf = make_initial_state(SingleSite(5), 11)
    assert wf.amps[5] == 1.0
    assert np.sum(np.abs(wf.amps)) == 1.0


def test_two_site_state_adjacent_pair():
    wf = make_initial_state(TwoSite(42, 43, 0.0), 100)
    assert wf.amps[42] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert wf.amps[43] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert np.sum(np.abs(wf.amps) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_two_site_relative_phase():
    wf = make_initial_state(TwoSite(0, 1, np.pi / 2), 4)
    assert wf.amps[1] == pytest.approx(1j / np.sqrt(2), abs=1e-15)


def test_gaussian_beam_symmetric_and_normalized():
    wf = make_initial_state(GaussianBeam(center=50, width_sites=3), 101)
    assert abs(np.linalg.norm(wf.amps) - 1.0) < 1e-12
    assert np.max(np.abs(wf.amps[50 + np.arange(1, 40)] - wf.amps[50 - np.arange(1, 40)])) < 1e-15


def test_gaussian_tilt_is_pure_phase():
    flat = make_initial_state(GaussianBeam(30, 4.0, 0.0), 61)
    tilted = make_initial_state(GaussianBeam(30, 4.0, 0.8), 61)
    assert np.max(np.abs(np.abs(tilted.amps) - np.abs(flat.amps))) < 1e-15


@pytest.mark.parametrize(
    "state,n",
    [
        (SingleSite(11), 11),
        (SingleSite(-1), 11),
        (TwoSite(3, 3, 0.0), 11),
        (TwoSite(3, 99, 0.0), 11),
        (GaussianBeam(5.0, 0.0, 0.0), 11),
        (GaussianBeam(200.0, 3.0, 0.0), 11),
    ],
)
def test_invalid_initial_states_rejected(state, n):
    with pytest.raises(ValueError):
        make_initial_state(state, n)


def test_wavefunction_rejects_bad_norm():
    with pytest.raises(ValueError):
        WaveFunction(np.array([1.0, 1.0], dtype=complex))


def test_wavefunction_rejects_nan():
    with pytest.raises(ValueError):
        WaveFunction(np.array([np.nan, 0.0], dtype=complex))
