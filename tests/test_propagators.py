"""Propagator cross-checks: spectral reference, Chebyshev fast path, RK4 oracle."""

import tracemalloc

import numpy as np
import pytest

from wavewalk import (
    Boundary,
    ChebyshevConvergenceError,
    GaussianBeam,
    LatticeSpec,
    SingleSite,
    TwoSite,
    Snapshots,
    WaveFunction,
    ZGrid,
    bessel_free_state,
    build_hamiltonian,
    decompose,
    evolve_chebyshev,
    evolve_eigen,
    evolve_ode_oracle,
    make_initial_state,
    spectral_bounds,
    uniform_lattice,
)
from wavewalk import kernels
from wavewalk.propagators import (
    _chebyshev_enclosure,
    _chebyshev_table,
    _light_cone_window,
    chebyshev_rows,
)


def _random_spec(n, seed, diag_w=1.0):
    r = np.random.default_rng(seed)
    return LatticeSpec(
        n_sites=n,
        coupling=r.uniform(0.5, 1.5, n - 1),
        beta=r.uniform(-0.5 * diag_w, 0.5 * diag_w, n),
    )


def _random_state(n, seed):
    r = np.random.default_rng(seed)
    v = r.normal(size=n) + 1j * r.normal(size=n)
    return WaveFunction(v / np.linalg.norm(v))


# --- decompose ---------------------------------------------------------------


def test_snapshots_reject_nan():
    with pytest.raises(ValueError):
        Snapshots(ZGrid(np.array([0.0])), np.array([[np.nan, 0]], complex), "eigen")



def test_decompose_two_site():
    dec = decompose(build_hamiltonian(uniform_lattice(2)))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_decompose_three_site_open():
    dec = decompose(build_hamiltonian(uniform_lattice(3)))
    assert np.allclose(dec.eigenvalues, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-14)


def test_decompose_uniform_chain_closed_form():
    # open-chain spectrum is 2C cos(k pi/(N+1)), k=1..N — computed first as oracle
    n, c = 100, 1.0
    k = np.arange(1, n + 1)
    expected = np.sort(2.0 * c * np.cos(k * np.pi / (n + 1)))
    dec = decompose(build_hamiltonian(uniform_lattice(n, c)))
    assert np.max(np.abs(dec.eigenvalues - expected)) < 1e-12
    assert np.all(np.abs(dec.eigenvalues) <= 2.0 * c + 1e-12)


def test_decompose_invariants():
    h = build_hamiltonian(_random_spec(60, 3))
    dec = decompose(h)
    v, lam = dec.eigenvectors, dec.eigenvalues + dec.center
    assert np.all(np.diff(lam) >= 0)
    assert np.max(np.abs(h.dense() @ v - v * lam)) < 1e-10 * np.max(np.abs(lam))
    assert np.max(np.abs(v.T @ v - np.eye(60))) < 1e-10


def test_decompose_periodic_uses_corner():
    from wavewalk import Boundary

    h = build_hamiltonian(uniform_lattice(6, boundary=Boundary.PERIODIC))
    dec = decompose(h)
    # ring spectrum: 2C cos(2 pi k / N)
    expected = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(6) / 6.0))
    assert np.max(np.abs(dec.eigenvalues - expected)) < 1e-12


def _uniform_chain(n, beta, boundary):
    n_bonds = n if boundary is Boundary.PERIODIC else n - 1
    return build_hamiltonian(LatticeSpec(n, np.ones(n_bonds), np.full(n, beta), boundary))


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC], ids=["open", "ring"])
@pytest.mark.parametrize("beta", [0.0, 1e17])
def test_centred_decomposition_rebuilds_h(beta, boundary):
    # V diag(lambda) V^T is H - center; the band width is 4 for unit couplings
    h = _uniform_chain(21, beta, boundary)
    dec = decompose(h)
    assert dec.center == beta
    v = dec.eigenvectors
    rebuilt = (v * dec.eigenvalues) @ v.T + dec.center * np.eye(21)
    assert np.max(np.abs(rebuilt - h.dense())) <= 1e-12 * 4.0


@pytest.mark.parametrize("h", [
    build_hamiltonian(uniform_lattice(30)),
    build_hamiltonian(uniform_lattice(30, boundary=Boundary.PERIODIC)),
    # off-diagonal disorder: the Gershgorin edges are symmetric about 0
    build_hamiltonian(LatticeSpec(30, np.random.default_rng(5).uniform(0.5, 1.5, 29), 0.0)),
], ids=["open", "ring", "offdiag_disorder"])
def test_uncentred_decomposition_keeps_its_bits(h):
    from scipy.linalg import eigh_tridiagonal

    dec = decompose(h)
    assert dec.center == 0.0
    w, v = np.linalg.eigh(h.dense()) if h.is_periodic else eigh_tridiagonal(h.diag, h.offdiag)
    assert np.array_equal(dec.eigenvalues, w) and np.array_equal(dec.eigenvectors, v)


# --- evolve_eigen ------------------------------------------------------------


def test_eigen_identity_at_z0():
    h = build_hamiltonian(uniform_lattice(11))
    psi0 = make_initial_state(SingleSite(5), 11)
    snap = evolve_eigen(h, psi0, ZGrid(np.array([0.0])))
    assert np.max(np.abs(snap.amps[0] - psi0.amps)) < 1e-14


def test_eigen_two_site_rabi():
    # closed form for the 2x2 swap: |psi_1(z)|^2 = sin^2(Cz), full transfer at z=pi/2
    h = build_hamiltonian(uniform_lattice(2))
    psi0 = make_initial_state(SingleSite(0), 2)
    snap = evolve_eigen(h, psi0, ZGrid(np.array([np.pi / 2.0])))
    assert abs(np.abs(snap.amps[0, 1]) ** 2 - 1.0) < 1e-10


def test_eigen_matches_bessel_oracle():
    n, z = 101, 5.0
    ref = bessel_free_state(50, 1.0, z, n)  # oracle first
    h = build_hamiltonian(uniform_lattice(n))
    snap = evolve_eigen(h, make_initial_state(SingleSite(50), n), ZGrid(np.array([z])))
    assert np.max(np.abs(snap.amps[0] - ref.amps)) < 1e-8


def test_eigen_real_products_match_complex_products():
    # evolve_eigen forms V^T psi0 and (phases * coeffs) V^T as pairs of real
    # products; the complex products they replace are the reference, equal up
    # to summation order (40 terms of magnitude <= 1)
    n = 40
    h = build_hamiltonian(_random_spec(n, 3))
    psi0 = _random_state(n, 4)
    grid = ZGrid(np.linspace(0.0, 6.0, 7))
    dec = decompose(h)
    v = dec.eigenvectors.astype(np.complex128)
    ref = (np.exp(-1j * np.outer(grid.values, dec.eigenvalues)) * (v.T @ psi0.amps)) @ v.T
    ref *= np.exp(-1j * dec.center * grid.values)[:, None]
    snap = evolve_eigen(h, psi0, grid, decomp=dec)
    assert np.max(np.abs(snap.amps - ref)) < 1e-13


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC], ids=["open", "ring"])
def test_eigen_with_a_huge_uniform_beta_is_a_phase(boundary):
    # ulp(1e17) = 16 exceeds the band width; outside the centred frame the
    # eigenvectors were arbitrary and the intensities off by up to 0.99
    grid = ZGrid(np.linspace(0.0, 5.0, 11))
    psi0 = make_initial_state(SingleSite(10), 21)
    a, b = (evolve_eigen(_uniform_chain(21, beta, boundary), psi0, grid).intensities()
            for beta in (0.0, 1e17))
    assert np.max(np.abs(a - b)) <= 1e-14


def test_eigen_dimension_mismatch():
    h = build_hamiltonian(uniform_lattice(5))
    with pytest.raises(ValueError):
        evolve_eigen(h, make_initial_state(SingleSite(0), 4), ZGrid(np.array([1.0])))


# --- spectral bounds ---------------------------------------------------------


def test_bounds_uniform_chain():
    emin, emax = spectral_bounds(build_hamiltonian(uniform_lattice(50)))
    assert emin <= -2.0 and emax >= 2.0


def test_bounds_with_diagonal_disorder():
    spec = _random_spec(80, 5, diag_w=4.0)
    h = build_hamiltonian(spec)
    emin, emax = spectral_bounds(h)
    dec = decompose(h)
    lam = dec.eigenvalues + dec.center
    assert emin <= lam[0] and lam[-1] <= emax


def test_bounds_contain_exact_spectrum_n3():
    h = build_hamiltonian(uniform_lattice(3))
    lam = decompose(h).eigenvalues  # oracle: exact spectrum
    emin, emax = spectral_bounds(h)
    assert emin <= lam[0] and lam[-1] <= emax


# --- evolve_chebyshev --------------------------------------------------------


def test_chebyshev_identity_at_z0():
    h = build_hamiltonian(uniform_lattice(9))
    psi0 = make_initial_state(SingleSite(4), 9)
    snap = evolve_chebyshev(h, psi0, ZGrid(np.array([0.0])), tol=1e-12)
    assert np.array_equal(snap.amps[0], psi0.amps)


def test_chebyshev_matches_eigen_uniform():
    n = 101
    h = build_hamiltonian(uniform_lattice(n))
    psi0 = make_initial_state(SingleSite(50), n)
    grid = ZGrid(np.array([10.0]))
    ref = evolve_eigen(h, psi0, grid)
    got = evolve_chebyshev(h, psi0, grid, tol=1e-12)
    assert np.max(np.abs(got.amps - ref.amps)) < 1e-10


def test_chebyshev_matches_eigen_disordered():
    spec = _random_spec(100, 11)
    h = build_hamiltonian(spec)
    psi0 = _random_state(100, 12)
    grid = ZGrid(np.array([20.0]))
    ref = evolve_eigen(h, psi0, grid)
    got = evolve_chebyshev(h, psi0, grid, tol=1e-12)
    assert np.max(np.abs(got.amps - ref.amps)) < 1e-9


def test_chebyshev_tol_validation():
    h = build_hamiltonian(uniform_lattice(5))
    psi0 = make_initial_state(SingleSite(2), 5)
    for bad in (0.0, -1e-9, 1e-3):
        with pytest.raises(ValueError):
            evolve_chebyshev(h, psi0, ZGrid(np.array([1.0])), tol=bad)


def test_chebyshev_order_cap_signals():
    # an impossible tail request must hit the hard cap, not loop forever
    h = build_hamiltonian(uniform_lattice(31))
    psi0 = make_initial_state(SingleSite(15), 31)
    with pytest.raises(ChebyshevConvergenceError):
        evolve_chebyshev(h, psi0, ZGrid(np.array([10.0])), tol=1e-300)


def test_chebyshev_order_ceiling_raises_before_allocating(monkeypatch):
    def no_bessel(x, nmax):
        raise AssertionError(f"bessel_j_sequence({x}, {nmax}) called")

    monkeypatch.setattr(kernels, "bessel_j_sequence", no_bessel)
    for x in (np.inf, np.nan, 1e7, 2.5e299):
        with pytest.raises(ChebyshevConvergenceError):
            _chebyshev_table(np.array([x]), 1e-12)


_WINDOW_N = 201
_WINDOW_LAUNCHES = {
    "site_0": SingleSite(0),
    "centre": SingleSite(_WINDOW_N // 2),
    "site_last": SingleSite(_WINDOW_N - 1),
    "two_site": TwoSite(90, 93, 0.7),
    "gaussian": GaussianBeam(100.3, 1.2, 0.4),  # underflows to 0 about 46 sites out
}


def _window_lattice(boundary, disordered):
    n = _WINDOW_N
    n_bonds = n if boundary is Boundary.PERIODIC else n - 1
    if not disordered:
        return uniform_lattice(n, boundary=boundary)
    r = np.random.default_rng(5)
    return LatticeSpec(n_sites=n, coupling=r.uniform(0.5, 1.5, n_bonds),
                       beta=r.uniform(-1.0, 1.0, n), boundary=boundary)


def _full_lattice_chebyshev(h, psi0, zgrid, tol):
    """The recurrence on every site, the way evolve_chebyshev ran it before
    it was windowed."""
    emin, emax = spectral_bounds(h)
    center, halfwidth = 0.5 * (emax + emin), 0.5 * (emax - emin)
    states = np.empty((len(zgrid), h.n_sites), dtype=np.complex128)
    for i, z in enumerate(zgrid.values):
        if z == 0.0:
            states[i] = psi0.amps
            continue
        coeffs = _chebyshev_table(np.array([halfwidth * z]), tol)
        acc = np.empty((1, h.n_sites), dtype=np.complex128)
        kernels.chebyshev_apply(
            h.diag, h.offdiag, h.corner, center, halfwidth, coeffs, psi0.amps, acc
        )
        states[i] = np.exp(-1j * center * z) * acc[0]
    return np.abs(states) ** 2


@pytest.mark.parametrize("disordered", [False, True], ids=["uniform", "random"])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC],
                         ids=["open", "ring"])
@pytest.mark.parametrize("launch", list(_WINDOW_LAUNCHES), ids=list(_WINDOW_LAUNCHES))
def test_chebyshev_light_cone_window_is_exact(launch, boundary, disordered):
    # small z keeps the window inside the lattice, the largest makes it reach
    # both ends (clipped on the open chain, wrapping on the ring)
    h = build_hamiltonian(_window_lattice(boundary, disordered))
    psi0 = make_initial_state(_WINDOW_LAUNCHES[launch], _WINDOW_N)
    zgrid = ZGrid(np.array([0.0, 0.5, 3.0, 12.0, 80.0]))
    snaps = evolve_chebyshev(h, psi0, zgrid, tol=1e-12)
    got = snaps.intensities()
    ref = _full_lattice_chebyshev(h, psi0, zgrid, 1e-12)
    # each z's amplitudes are 0 (up to sign) outside its own light cone
    _, halfwidth = _chebyshev_enclosure(h)
    support = np.flatnonzero(psi0.amps)
    for amps, z in zip(snaps.amps, zgrid.values):
        order = _chebyshev_table(np.array([halfwidth * z]), 1e-12).shape[0]
        lo, hi, _ = _light_cone_window(_WINDOW_N, h.is_periodic, int(support[0]),
                                       int(support[-1]), order - 1)
        assert np.all(amps[:lo] == 0.0) and np.all(amps[hi:] == 0.0), z
    # the windowed run forms its z columns as one product, the reference
    # streams each one: they agree to rounding, and vanish on the same sites
    assert np.max(np.abs(got - ref)) <= 1e-15
    assert np.array_equal(got == 0.0, ref == 0.0)
    assert np.count_nonzero(got[1]) < _WINDOW_N  # z = 0.5 did leave sites dark
    assert np.count_nonzero(got[-1]) == _WINDOW_N


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC], ids=["open", "ring"])
@pytest.mark.parametrize("launch", ["centre", "two_site", "gaussian", "block", "noisy_block"])
def test_one_recurrence_equals_one_call_per_column(launch, boundary):
    # every column of a 2-d call, z = 0 among them, agrees to rounding with
    # the 1-d call on its own table (the 2-d call forms its columns as one
    # product, the 1-d call streams its sum); by z = 80 the expansion wraps
    # around the ring
    h = build_hamiltonian(_window_lattice(boundary, True))
    center, halfwidth = _chebyshev_enclosure(h)
    diag = h.diag
    if launch == "block":
        psi = np.eye(5, _WINDOW_N, k=60)
    elif launch == "noisy_block":
        # a dephasing segment: one noisy diagonal per history, in the frame
        # centred on the padded enclosure
        center, halfwidth = _chebyshev_enclosure(h, pad=1.5)
        noise = np.random.default_rng(2).uniform(-1.5, 1.5, size=(5, _WINDOW_N))
        diag, center = h.diag - center + noise, 0.0
        psi = np.eye(5, _WINDOW_N, k=60)
    else:
        psi = make_initial_state(_WINDOW_LAUNCHES[launch], _WINDOW_N).amps
    xs = halfwidth * np.array([0.0, 0.5, 3.0, 12.0, 80.0])
    coeffs = _chebyshev_table(xs, 1e-12)
    assert coeffs.shape[0] > _WINDOW_N  # the light cone passes both ends
    args = (diag, h.offdiag, h.corner, center, halfwidth)
    got = np.empty((xs.size,) + psi.shape, dtype=np.complex128)
    kernels.chebyshev_apply(*args, coeffs, psi, got)
    one = np.empty((1,) + psi.shape, dtype=np.complex128)
    for j, x in enumerate(xs):
        kernels.chebyshev_apply(*args, _chebyshev_table(np.array([x]), 1e-12), psi, one)
        assert np.max(np.abs(got[j] - one[0])) <= 1e-15, j
        assert np.array_equal(got[j] == 0.0, one[0] == 0.0), j


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC], ids=["open", "ring"])
def test_zero_padding_of_a_table_is_inert(boundary):
    # zeros past a column's order add only zeros (== counts -0 as 0): a
    # column cut at its order and padded past it give the same values,
    # streamed alone and among the columns of a stored call, with the padding
    # running past a chunk of stored terms
    h = build_hamiltonian(_window_lattice(boundary, True))
    center, halfwidth = _chebyshev_enclosure(h)
    args = (h.diag, h.offdiag, h.corner, center, halfwidth)
    psi = np.eye(3, _WINDOW_N, k=90)
    table = _chebyshev_table(halfwidth * np.array([0.5, 3.0, 12.0]), 1e-12)
    column = _chebyshev_table(np.array([halfwidth * 3.0]), 1e-12)
    assert column.shape[0] < table.shape[0]  # column 1 of the table is padded

    def apply(coeffs):
        out = np.empty((coeffs.shape[1],) + psi.shape, dtype=np.complex128)
        kernels.chebyshev_apply(*args, coeffs, psi, out)
        return out

    def padded(coeffs):
        return np.vstack([coeffs, np.zeros((20, coeffs.shape[1]))])

    assert np.array_equal(apply(table[: column.shape[0], 1:2]), apply(column))
    assert np.array_equal(apply(padded(column)), apply(column))
    assert np.array_equal(apply(padded(table)), apply(table))


def test_chebyshev_rows_runs_one_recurrence_for_every_z(monkeypatch):
    h = build_hamiltonian(_window_lattice(Boundary.OPEN, True))
    zvals = np.linspace(0.0, 12.0, 25)
    _, halfwidth = _chebyshev_enclosure(h)
    shapes = []
    apply = kernels.chebyshev_apply

    def counting(*args, **kwargs):
        shapes.append(args[5].shape)
        return apply(*args, **kwargs)

    monkeypatch.setattr(kernels, "chebyshev_apply", counting)
    chebyshev_rows(h, make_initial_state(SingleSite(100), _WINDOW_N).amps, zvals)
    assert shapes == [_chebyshev_table(halfwidth * zvals, 1e-12).shape]


def test_stored_vectors_of_a_long_launch_stay_small():
    # a 4 000-site launch to z = 500 at two grid points: the kernel stores
    # its Chebyshev vectors 16 at a time, not all 1 100 or so on the
    # 2 200-site window (36 MiB)
    n = 4000
    h = build_hamiltonian(uniform_lattice(n))
    psi0 = make_initial_state(SingleSite(n // 2), n)
    evolve_chebyshev(h, psi0, ZGrid(np.linspace(0.0, 1.0, 2)))  # first-use imports
    tracemalloc.start()
    try:
        evolve_chebyshev(h, psi0, ZGrid(np.linspace(0.0, 500.0, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC], ids=["open", "ring"])
def test_uniform_beta_is_a_pure_phase(boundary):
    # beta = 1e17 rounds the Gershgorin width away: the enclosure keeps the
    # largest radius, so the run is the beta = 0 run times a phase
    n = 41
    n_bonds = n if boundary is Boundary.PERIODIC else n - 1
    psi0 = make_initial_state(SingleSite(20), n)
    grid = ZGrid(np.linspace(0.0, 6.0, 7))
    runs = [
        evolve_chebyshev(build_hamiltonian(LatticeSpec(n, np.ones(n_bonds), np.full(n, beta),
                                                       boundary=boundary)), psi0, grid)
        for beta in (0.0, 1e17)
    ]
    assert np.max(np.abs(runs[1].intensities() - runs[0].intensities())) <= 1e-12


# --- RK4 oracle --------------------------------------------------------------


def test_ode_oracle_identity_at_z0():
    h = build_hamiltonian(uniform_lattice(7))
    psi0 = make_initial_state(SingleSite(3), 7)
    assert np.array_equal(evolve_ode_oracle(h, psi0, 0.0, 1e-2).amps, psi0.amps)


def test_ode_oracle_rabi():
    h = build_hamiltonian(uniform_lattice(2))
    psi0 = make_initial_state(SingleSite(0), 2)
    wf = evolve_ode_oracle(h, psi0, np.pi / 2.0, 1e-4)
    assert abs(np.abs(wf.amps[1]) ** 2 - 1.0) < 1e-8


def test_ode_oracle_matches_eigen():
    spec = _random_spec(51, 21)
    h = build_hamiltonian(spec)
    psi0 = make_initial_state(SingleSite(25), 51)
    ref = evolve_eigen(h, psi0, ZGrid(np.array([3.0]))).amps[0]
    got = evolve_ode_oracle(h, psi0, 3.0, 1e-3).amps
    assert np.max(np.abs(got - ref)) < 1e-7


def test_ode_oracle_step_size_violation():
    h = build_hamiltonian(uniform_lattice(9))
    psi0 = make_initial_state(SingleSite(4), 9)
    with pytest.raises(ValueError):
        evolve_ode_oracle(h, psi0, 1.0, 1.0)  # dz * radius >= 1


# --- cross-cutting invariants -------------------------------------------------


def test_unitarity_across_grid():
    h = build_hamiltonian(_random_spec(70, 30))
    psi0 = _random_state(70, 31)
    grid = ZGrid(np.linspace(0.0, 15.0, 16))
    for snap, tol in ((evolve_eigen(h, psi0, grid), 1e-10),
                      (evolve_chebyshev(h, psi0, grid, tol=1e-12), 1e-11)):
        norms = np.sqrt(np.sum(np.abs(snap.amps) ** 2, axis=1))
        assert np.max(np.abs(norms - 1.0)) < tol


def test_composition():
    h = build_hamiltonian(_random_spec(40, 33))
    psi0 = _random_state(40, 34)
    z1, z2 = 2.3, 4.1
    direct = evolve_eigen(h, psi0, ZGrid(np.array([z1 + z2]))).amps[0]
    first = evolve_eigen(h, psi0, ZGrid(np.array([z1]))).state(0)
    stepped = evolve_eigen(h, first, ZGrid(np.array([z2]))).amps[0]
    assert np.max(np.abs(direct - stepped)) < 1e-10


def test_inner_product_preserved():
    h = build_hamiltonian(_random_spec(45, 35))
    phi0, psi0 = _random_state(45, 36), _random_state(45, 37)
    grid = ZGrid(np.array([7.7]))
    phi = evolve_eigen(h, phi0, grid).amps[0]
    psi = evolve_eigen(h, psi0, grid).amps[0]
    assert abs(abs(np.vdot(phi, psi)) - abs(np.vdot(phi0.amps, psi0.amps))) < 1e-10


def test_time_reversal_by_conjugation():
    # evolving conj(psi(z)) by z and conjugating again returns psi(0)
    h = build_hamiltonian(_random_spec(40, 38))
    psi0 = _random_state(40, 39)
    z = 5.0
    fwd = evolve_eigen(h, psi0, ZGrid(np.array([z]))).amps[0]
    back = np.conj(evolve_eigen(h, WaveFunction(np.conj(fwd)), ZGrid(np.array([z]))).amps[0])
    assert np.max(np.abs(back - psi0.amps)) < 1e-10


def test_gauge_shift_leaves_intensities():
    # adding a constant to the diagonal is a global phase
    spec = _random_spec(60, 40)
    h = build_hamiltonian(spec)
    from wavewalk import Hamiltonian

    shifted = Hamiltonian(diag=h.diag + 3.7, offdiag=h.offdiag, corner=h.corner)
    psi0 = _random_state(60, 41)
    grid = ZGrid(np.array([2.0, 9.0]))
    a = np.abs(evolve_eigen(h, psi0, grid).amps) ** 2
    b = np.abs(evolve_eigen(shifted, psi0, grid).amps) ** 2
    assert np.max(np.abs(a - b)) < 1e-10


def test_three_way_agreement_spot_check():
    # the full 50-case randomized version runs in the acceptance suite
    for seed in range(5):
        n = int(np.random.default_rng(seed).integers(10, 102))
        spec = _random_spec(n, 100 + seed, diag_w=2.0)
        h = build_hamiltonian(spec)
        psi0 = _random_state(n, 200 + seed)
        z = float(np.random.default_rng(300 + seed).uniform(0.5, 6.0))
        grid = ZGrid(np.array([z]))
        a = evolve_eigen(h, psi0, grid).amps[0]
        b = evolve_chebyshev(h, psi0, grid, tol=1e-12).amps[0]
        c = evolve_ode_oracle(h, psi0, z, 5e-4).amps
        assert np.max(np.abs(a - b)) < 1e-7
        assert np.max(np.abs(a - c)) < 1e-7
        assert np.max(np.abs(b - c)) < 1e-7


def test_zgrid_validation():
    with pytest.raises(ValueError):
        ZGrid(np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        ZGrid(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        ZGrid(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        ZGrid(np.array([]))
    for bad in ([np.nan], [np.inf], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            ZGrid(np.array(bad))
