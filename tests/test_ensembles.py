"""Disorder sampling, deterministic ensembles, dephasing."""

import numpy as np
import pytest

from wavewalk import (
    Boundary,
    DephasingSpec,
    DiagConvention,
    DisorderSpec,
    EnsembleStats,
    GaussianBeam,
    Hamiltonian,
    LatticeSpec,
    SeedPolicy,
    SingleSite,
    ZGrid,
    build_hamiltonian,
    decompose,
    evolve_chebyshev,
    evolve_dephasing,
    evolve_eigen,
    make_initial_state,
    participation_ratio,
    run_ensemble,
    sample_disordered_lattice,
    uniform_lattice,
)
from wavewalk import ensembles, kernels
from wavewalk.ensembles import (
    _BLOCK,
    _BLOCK_CELLS,
    _dephasing_block_rows,
    _disorder_block,
    _disorder_block_rows,
)


BASE = uniform_lattice(99)
POLICY = SeedPolicy(424242)


def test_clean_disorder_is_identity():
    d = DisorderSpec(0.0, 0.0)
    assert sample_disordered_lattice(BASE, d, POLICY, 0) is BASE


def test_disorder_spec_validation():
    with pytest.raises(ValueError):
        DisorderSpec(offdiag_strength=1.0)
    with pytest.raises(ValueError):
        DisorderSpec(offdiag_strength=-0.1)
    with pytest.raises(ValueError):
        DisorderSpec(diag_strength=-1.0)


def test_realization_is_deterministic_and_order_free():
    d = DisorderSpec(0.5, 0.3)
    a = sample_disordered_lattice(BASE, d, POLICY, 17)
    b = sample_disordered_lattice(BASE, d, POLICY, 17)  # no state carried between calls
    sample_disordered_lattice(BASE, d, POLICY, 3)  # interleaved draw must not matter
    c = sample_disordered_lattice(BASE, d, POLICY, 17)
    assert np.array_equal(a.coupling, b.coupling) and np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.coupling, c.coupling)


def test_coupling_moments_and_range():
    # 10^4 samples of one bond: mean near C_bar, range within [C/2, 3C/2] for w=0.5
    d = DisorderSpec(0.5, 0.0)
    samples = np.array(
        [sample_disordered_lattice(BASE, d, POLICY, k).coupling[40] for k in range(10_000)]
    )
    assert abs(samples.mean() - 1.0) < 0.01
    assert samples.min() >= 0.5 and samples.max() <= 1.5


def test_diag_disorder_range():
    d = DisorderSpec(0.0, 2.0)
    betas = sample_disordered_lattice(BASE, d, POLICY, 5).beta
    assert np.all(np.abs(betas) <= 1.0)
    assert np.any(betas != 0.0)


def test_single_clean_realization_equals_direct_evolution():
    grid = ZGrid(np.array([0.0, 5.0, 15.0]))
    stats = run_ensemble(BASE, DisorderSpec(0.0, 0.0), SingleSite(49), grid, 1, 7)
    snap = evolve_chebyshev(build_hamiltonian(BASE), make_initial_state(SingleSite(49), 99), grid)
    assert np.array_equal(stats.mean_intensity, snap.intensities())
    assert np.all(stats.sem_intensity == 0.0)


def test_ensemble_equals_sequential_left_fold():
    # a disorder ensemble adds its realizations to the running sum in order;
    # each realization's rows are the engine's, propagated on their own
    grid = ZGrid(np.array([4.0, 11.0]))
    d = DisorderSpec(0.4, 0.0)
    block_rows = _disorder_block_rows(BASE, d, make_initial_state(SingleSite(49), 99), grid,
                                      SeedPolicy(99))

    def one(k):
        [(rows, inten)] = block_rows(k, k + 1)
        return inten[0]

    for n in (3, 6, 130):
        acc = np.zeros((2, 99))
        for k in range(n):
            acc += one(k)
        stats = run_ensemble(BASE, d, SingleSite(49), grid, n, 99)
        assert np.array_equal(stats.mean_intensity, acc / n)


_RNG_D = np.random.default_rng(21)
DISORDER_CASES = {
    "open_chain": (uniform_lattice(40), DisorderSpec(0.5, 0.0), SingleSite(20)),
    # the ring's corner coupling is disordered too, and the window wraps
    "ring": (uniform_lattice(30, boundary=Boundary.PERIODIC), DisorderSpec(0.5, 0.0),
             SingleSite(3)),
    "random_beta": (LatticeSpec(35, _RNG_D.uniform(0.6, 1.4, size=34),
                                _RNG_D.uniform(-1.0, 1.0, size=35)),
                    DisorderSpec(0.3, 2.0), SingleSite(17)),
    # each realization's diagonal follows its own mean coupling
    "minus_degree_gamma": (uniform_lattice(33, coupling=1.3,
                                           diag_convention=DiagConvention.MINUS_DEGREE_GAMMA),
                           DisorderSpec(0.6, 0.0), SingleSite(0)),
    "gaussian_launch": (uniform_lattice(41), DisorderSpec(0.4, 1.0), GaussianBeam(20.0, 2.5, 0.7)),
}


@pytest.mark.parametrize("case", sorted(DISORDER_CASES))
def test_disorder_block_matches_eigen_per_realization(case):
    lat, d, init = DISORDER_CASES[case]
    grid = ZGrid(np.array([0.0, 0.7, 3.0, 9.0, 25.0]))
    psi0 = make_initial_state(init, lat.n_sites)
    policy = SeedPolicy(31)
    got = list(_disorder_block_rows(lat, d, psi0, grid, policy)(2, 9))
    assert len(got) == 7
    for k, (rows, inten) in zip(range(2, 9), got):
        h = build_hamiltonian(sample_disordered_lattice(lat, d, policy, k))
        ref = evolve_eigen(h, psi0, grid).intensities()
        assert rows == slice(None) and inten.shape == (1,) + ref.shape
        assert np.max(np.abs(inten[0] - ref)) < 1e-12, k


def test_disorder_block_size_does_not_change_statistics(monkeypatch):
    lat, d, init = DISORDER_CASES["random_beta"]
    grid = ZGrid(np.linspace(0.0, 6.0, 7))
    stats = []
    for block in (1, 7, 32):
        monkeypatch.setattr(ensembles, "_DISORDER_BLOCK", block)
        stats.append(run_ensemble(lat, d, init, grid, 45, 3))
    for other in stats[1:]:
        for name in ("mean_intensity", "sem_intensity", "variance_trace", "pr_trace"):
            assert np.array_equal(getattr(other, name), getattr(stats[0], name)), name


def test_disorder_block_shrinks_on_large_lattices():
    # 32 realizations where a block is small, fewer down to one where its
    # (nz + 4) complex cells per site and realization would pass _BLOCK_CELLS
    assert _disorder_block(99, 61) == 32
    assert _disorder_block(4000, 101) == 2
    assert _disorder_block(100_000, 100) == _disorder_block(10_000_000, 1) == 1
    for n, nz in ((99, 61), (4000, 101), (2000, 201), (500, 1)):
        assert _disorder_block(n, nz) * (nz + 4) * n <= _BLOCK_CELLS


def test_dephasing_ensemble_sums_block_by_block():
    # each block of _BLOCK histories is summed, then added to the running sum:
    # at 130 histories (blocks of 64, 64, 2) that is not a left fold
    lat = uniform_lattice(21)
    h = build_hamiltonian(lat)
    psi0 = make_initial_state(SingleSite(10), 21)
    grid = ZGrid(np.array([0.5, 2.0]))
    deph = DephasingSpec(0.5, 3.0)
    n = 130
    inten = _block(h, psi0, grid, deph, 8, 0, n)
    by_block = np.zeros((2, 21))
    for lo in range(0, n, _BLOCK):
        for row in range(2):
            by_block[row] += np.sum(inten[lo : lo + _BLOCK, row], axis=0)
    left_fold = np.zeros((2, 21))
    for k in range(n):
        left_fold += inten[k]
    stats = evolve_dephasing(lat, deph, SingleSite(10), grid, n, 8)
    assert np.array_equal(stats.mean_intensity, by_block / n)
    assert not np.array_equal(stats.mean_intensity, left_fold / n)


def test_ensemble_reproducible_across_worker_counts(monkeypatch):
    grid = ZGrid(np.array([10.0]))
    d = DisorderSpec(0.5, 0.0)
    results = []
    for workers in ("1", "3", "8"):
        monkeypatch.setenv("WAVEWALK_WORKERS", workers)
        results.append(run_ensemble(BASE, d, SingleSite(49), grid, 130, 5))
    assert np.array_equal(results[0].mean_intensity, results[1].mean_intensity)
    assert np.array_equal(results[0].mean_intensity, results[2].mean_intensity)
    assert np.array_equal(results[0].sem_intensity, results[2].sem_intensity)
    assert np.array_equal(results[0].pr_trace, results[2].pr_trace)


def test_ensemble_mean_pr_suppressed_by_disorder():
    grid = ZGrid(np.array([15.0]))
    clean = evolve_eigen(build_hamiltonian(BASE), make_initial_state(SingleSite(49), 99), grid)
    pr_clean = participation_ratio(clean.intensities()[0])
    stats = run_ensemble(BASE, DisorderSpec(0.3, 0.0), SingleSite(49), grid, 500, 11)
    assert stats.pr_trace[0] < pr_clean


def test_ensemble_stats_invariants():
    grid = ZGrid(np.array([3.0, 9.0]))
    stats = run_ensemble(BASE, DisorderSpec(0.5, 0.0), SingleSite(49), grid, 40, 2)
    assert np.max(np.abs(stats.mean_intensity.sum(axis=1) - 1.0)) < 1e-8
    assert np.all(stats.sem_intensity >= 0.0)
    assert stats.n_realizations == 40


def test_ensemble_rejects_bad_inputs():
    grid = ZGrid(np.array([1.0]))
    with pytest.raises(ValueError):
        run_ensemble(BASE, DisorderSpec(0.1, 0.0), SingleSite(49), grid, 0, 1)


# --- dephasing --------------------------------------------------------------


def test_dephasing_spec_validation():
    with pytest.raises(ValueError):
        DephasingSpec(segment_length=0.0, phase_strength=1.0)
    with pytest.raises(ValueError):
        DephasingSpec(segment_length=0.5, phase_strength=-1.0)


def test_zero_dephasing_matches_clean_exactly():
    lat = uniform_lattice(61)
    grid = ZGrid(np.array([0.0, 2.0, 6.0]))
    stats = evolve_dephasing(lat, DephasingSpec(0.5, 0.0), SingleSite(30), grid, 25, 3)
    snap = evolve_chebyshev(build_hamiltonian(lat), make_initial_state(SingleSite(30), 61), grid)
    assert np.array_equal(stats.mean_intensity, snap.intensities())


def test_dephasing_requires_whole_segments():
    lat = uniform_lattice(31)
    grid = ZGrid(np.array([5.3]))
    with pytest.raises(ValueError):
        evolve_dephasing(lat, DephasingSpec(0.5, 4.0), SingleSite(15), grid, 2, 0)


def test_dephasing_with_a_huge_uniform_beta_runs():
    # beta = 1e17 rounds the Gershgorin width of the clean lattice to 0, and its
    # ulp (16) would round the O(1) noise away outside the frame centred on the
    # enclosure; a uniform beta is only a phase, so the ensemble is beta = 0's
    grid = ZGrid(np.linspace(0.0, 2.0, 5))
    deph = DephasingSpec(0.5, 1.0)
    stats = [evolve_dephasing(LatticeSpec(21, np.ones(20), np.full(21, beta)), deph,
                              SingleSite(10), grid, 8, 1) for beta in (0.0, 1e17)]
    assert np.array_equal(stats[1].mean_intensity, stats[0].mean_intensity)
    assert np.array_equal(stats[1].sem_intensity, stats[0].sem_intensity)
    assert np.max(stats[0].sem_intensity) > 1e-3  # the noise is really there


def test_dephasing_control_with_a_huge_uniform_beta_is_a_phase():
    # phase_strength = 0 runs evolve_chebyshev, which expands in the centred frame
    grid = ZGrid(np.linspace(0.0, 2.0, 5))
    stats = [evolve_dephasing(LatticeSpec(21, np.ones(20), np.full(21, beta)),
                              DephasingSpec(0.5, 0.0), SingleSite(10), grid, 3, 1)
             for beta in (0.0, 1e17)]
    assert np.max(np.abs(stats[1].mean_intensity - stats[0].mean_intensity)) <= 1e-14


def test_offdiag_disorder_with_a_huge_uniform_beta_is_a_phase():
    grid = ZGrid(np.linspace(0.0, 5.0, 6))
    stats = [run_ensemble(LatticeSpec(21, np.ones(20), np.full(21, beta)), DisorderSpec(0.5, 0.0),
                          SingleSite(10), grid, 8, 7) for beta in (0.0, 1e17)]
    assert np.max(np.abs(stats[1].mean_intensity - stats[0].mean_intensity)) <= 1e-14
    assert np.max(stats[0].sem_intensity) > 1e-3  # the disorder is really there


def _block(h, psi0, grid, deph, seed, k_lo, k_hi):
    """Intensities (history, z, site) of histories k_lo..k_hi-1, propagated as one block."""
    n_segments = int(round(grid.values[-1] / deph.segment_length))
    block_rows = _dephasing_block_rows(h, psi0, grid, deph, n_segments, SeedPolicy(seed))
    out = np.full((k_hi - k_lo, len(grid), h.n_sites), np.nan)
    for row, inten in block_rows(k_lo, k_hi):
        out[:, row] = inten
    return out


def _eigen_reference(h, psi0, grid, deph, seed, k):
    """One noise history by exact diagonalization of every segment Hamiltonian.

    The noise is drawn as one (n_segments, n_sites) array from the history's
    stream, so this also pins the segment-by-segment draw order."""
    dz = deph.segment_length
    zvals = grid.values
    n_segments = int(round(zvals[-1] / dz))
    half = 0.5 * deph.phase_strength
    noise = SeedPolicy(seed).stream(k).uniform(-half, half, size=(n_segments, h.n_sites))
    out = np.empty((zvals.size, h.n_sites))
    gi = 0
    if zvals[0] == 0.0:
        out[0] = np.abs(psi0.amps) ** 2
        gi = 1
    psi = psi0.amps.copy()
    for s in range(n_segments):
        z_start, z_end = s * dz, (s + 1) * dz
        dec = decompose(Hamiltonian(diag=h.diag + noise[s], offdiag=h.offdiag, corner=h.corner))
        coeff = dec.eigenvectors.T @ psi
        while gi < zvals.size and zvals[gi] <= z_end + 1e-9 * max(1.0, z_end):
            phase = np.exp(-1j * dec.eigenvalues * (zvals[gi] - z_start))
            out[gi] = np.abs(dec.eigenvectors @ (phase * coeff)) ** 2
            gi += 1
        psi = dec.eigenvectors @ (np.exp(-1j * dec.eigenvalues * dz) * coeff)
    assert gi == zvals.size
    return out


_RNG = np.random.default_rng(8)
BLOCK_CASES = {
    # grid points inside segments, on segment ends, and at z = 0
    "open_inside_segments": (uniform_lattice(41), np.array([0.0, 0.3, 1.0, 1.7, 2.2, 3.0]), 1.0),
    # the ring's corner coupling widens the Gershgorin enclosure
    "periodic_ring": (
        uniform_lattice(30, boundary=Boundary.PERIODIC), np.linspace(0.5, 4.0, 8), 0.5,
    ),
    "nonzero_beta": (
        LatticeSpec(35, _RNG.uniform(0.6, 1.4, size=34), _RNG.uniform(-1.0, 1.0, size=35)),
        np.array([0.2, 1.5, 3.0]), 0.75,
    ),
    "minus_degree_gamma": (
        uniform_lattice(33, coupling=1.3, diag_convention=DiagConvention.MINUS_DEGREE_GAMMA),
        np.linspace(0.0, 3.0, 7), 0.5,
    ),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_dephasing_block_matches_per_segment_eigen_reference(case):
    lat, zvals, dz = BLOCK_CASES[case]
    h = build_hamiltonian(lat)
    psi0 = make_initial_state(GaussianBeam(lat.n_sites / 2, 1.5, 0.4), lat.n_sites)
    grid = ZGrid(zvals)
    deph = DephasingSpec(dz, 7.0)
    got = _block(h, psi0, grid, deph, 13, 3, 9)
    for r, k in enumerate(range(3, 9)):
        ref = _eigen_reference(h, psi0, grid, deph, 13, k)
        assert np.max(np.abs(got[r] - ref)) < 1e-10


def test_dephasing_block_makes_one_kernel_call_per_segment(monkeypatch):
    # the grid rows inside a segment ride on its call, as columns beside its end
    lat = uniform_lattice(41)
    h = build_hamiltonian(lat)
    psi0 = make_initial_state(SingleSite(20), 41)
    grid = ZGrid(np.array([0.0, 0.3, 1.0, 1.7, 2.2, 2.5, 3.0]))
    columns = []
    apply = kernels.chebyshev_apply

    def counting(*args, **kwargs):
        columns.append(args[5].shape[1])
        return apply(*args, **kwargs)

    monkeypatch.setattr(kernels, "chebyshev_apply", counting)
    got = _block(h, psi0, grid, DephasingSpec(1.0, 6.0), 4, 0, 5)
    assert columns == [3, 2, 3]  # segment ends 1, 2 and 3 among the offsets
    assert not np.any(np.isnan(got))


def test_dephasing_block_size_does_not_change_histories():
    lat = uniform_lattice(41)
    h = build_hamiltonian(lat)
    psi0 = make_initial_state(SingleSite(20), 41)
    grid = ZGrid(np.array([0.0, 0.6, 2.0, 5.0]))
    deph = DephasingSpec(0.5, 6.0)
    full = _block(h, psi0, grid, deph, 4, 0, 64)
    for k in (0, 17, 63):
        assert np.array_equal(_block(h, psi0, grid, deph, 4, k, k + 1)[0], full[k])


def test_dephasing_ensemble_mean_matches_per_segment_eigen_reference():
    # two reduction blocks; the mean over histories against the reference's
    lat = uniform_lattice(31)
    h = build_hamiltonian(lat)
    psi0 = make_initial_state(SingleSite(15), 31)
    grid = ZGrid(np.linspace(0.0, 3.0, 7))
    deph = DephasingSpec(0.5, 8.0)
    stats = evolve_dephasing(lat, deph, SingleSite(15), grid, 70, 6)
    ref = np.mean([_eigen_reference(h, psi0, grid, deph, 6, k) for k in range(70)], axis=0)
    assert np.max(np.abs(stats.mean_intensity - ref)) < 1e-10


def test_dephasing_realizations_stay_unit_norm():
    lat = uniform_lattice(61)
    h = build_hamiltonian(lat)
    psi0 = make_initial_state(SingleSite(30), 61)
    grid = ZGrid(np.array([0.0, 1.0, 4.0, 8.0]))
    inten = _block(h, psi0, grid, DephasingSpec(0.25, 8.0), 5, 0, 4)
    for k in range(4):
        assert np.max(np.abs(inten[k].sum(axis=1) - 1.0)) < 1e-9


def test_dephasing_grid_points_inside_segments():
    # grid values that do not align with segment ends must still be exact:
    # compare against an explicit piecewise reconstruction of the same noise
    lat = uniform_lattice(41)
    h = build_hamiltonian(lat)
    psi0 = make_initial_state(SingleSite(20), 41)
    deph = DephasingSpec(1.0, 6.0)
    grid = ZGrid(np.array([0.3, 1.7, 2.0]))
    k = 2
    inten = _block(h, psi0, grid, deph, 21, k, k + 1)[0]

    rng = SeedPolicy(21).stream(k)
    noise = rng.uniform(-3.0, 3.0, size=(2, 41))

    def seg_evolve(psi, seg, dz):
        hs = Hamiltonian(diag=h.diag + noise[seg], offdiag=h.offdiag, corner=h.corner)
        return evolve_eigen(hs, psi, ZGrid(np.array([dz]))).state(0)

    p1 = seg_evolve(psi0, 0, 0.3)
    p2 = seg_evolve(seg_evolve(psi0, 0, 1.0), 1, 0.7)
    p3 = seg_evolve(seg_evolve(psi0, 0, 1.0), 1, 1.0)
    for row, wf in zip(inten, (p1, p2, p3)):
        assert np.max(np.abs(row - np.abs(wf.amps) ** 2)) < 1e-12


def test_ensemble_stats_reject_nan():
    nan_mean = np.array([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        EnsembleStats(1, ZGrid(np.array([0.0])), nan_mean, np.zeros((1, 2)), np.zeros(1), np.ones(1))


def test_strong_dephasing_slows_spread():
    # sigma^2 under strong temporal noise must fall well below the ballistic clean value
    lat = uniform_lattice(101)
    grid = ZGrid(np.array([10.0]))
    noisy = evolve_dephasing(lat, DephasingSpec(0.25, 12.0), SingleSite(50), grid, 30, 9)
    clean = evolve_dephasing(lat, DephasingSpec(0.25, 0.0), SingleSite(50), grid, 1, 9)
    assert noisy.variance_trace[0] < 0.25 * clean.variance_trace[0]
