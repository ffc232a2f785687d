"""Disorder ensembles and temporal-disorder (dephasing) evolution.

Seeding contract: realization k draws from a generator seeded by
(master_seed, spawn_key=(k,)) — a pure function of the pair, so any subset
of realizations can be reproduced in isolation. Sums run in the calling
thread in a fixed order, so ensemble statistics are bit-identical across
runs: disorder adds one realization after another (a left fold); dephasing
adds the sum over each block of ``_BLOCK`` consecutive histories, one block
after another, which is not a left fold over histories.

A dephasing block propagates as one (R, n) array: each noise segment is one
Chebyshev recurrence over all R histories, on the clean enclosure padded by
the largest noise amplitude, which holds for every segment Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    Hamiltonian,
    InitialState,
    LatticeSpec,
    WaveFunction,
    _check_near_one,
    build_hamiltonian,
    make_initial_state,
)
from .observables import participation_ratio, spread_variance
from .propagators import (
    _CHEBYSHEV_TOL,
    ZGrid,
    _chebyshev_coefficients,
    _chebyshev_enclosure,
    _chebyshev_step,
    decompose,  # noqa: F401  unused here; bench/tracing.py wraps ensembles.decompose
    evolve_chebyshev,  # noqa: F401  unused here; bench/tracing.py wraps ensembles.evolve_chebyshev
    evolve_eigen,
)

ROW_SUM_TOL = 1e-8  # how far a mean intensity row may sum from 1


def worker_count() -> int:
    """Always 1: ensembles run in the calling thread. ``WAVEWALK_WORKERS`` is
    no longer read; this function stays for one release so callers keep working."""
    return 1


@dataclass(frozen=True)
class DisorderSpec:
    """Static disorder: couplings C_j = C_j * (1 + w u_j) with u ~ U[-1,1]
    (w < 1 keeps them positive), on-site betas shifted by U[-W/2, W/2]."""

    offdiag_strength: float = 0.0
    diag_strength: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.offdiag_strength < 1.0:
            raise ValueError("offdiag_strength must satisfy 0 <= w < 1")
        if self.diag_strength < 0.0:
            raise ValueError("diag_strength must be >= 0")

    @property
    def is_clean(self) -> bool:
        return self.offdiag_strength == 0.0 and self.diag_strength == 0.0


@dataclass(frozen=True)
class DephasingSpec:
    """Temporal disorder: fresh random site diagonals drawn per z-segment of
    length segment_length, uniform on [-phase_strength/2, +phase_strength/2]."""

    segment_length: float
    phase_strength: float

    def __post_init__(self):
        if self.segment_length <= 0.0:
            raise ValueError("segment_length must be > 0")
        if self.phase_strength < 0.0:
            raise ValueError("phase_strength must be >= 0")


@dataclass(frozen=True)
class SeedPolicy:
    """Deterministic per-realization random streams."""

    master_seed: int

    def stream(self, k: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.master_seed, spawn_key=(k,)))


@dataclass(frozen=True)
class EnsembleStats:
    """Ensemble-averaged intensities and observable traces on a z grid."""

    n_realizations: int
    zgrid: ZGrid
    mean_intensity: np.ndarray  # (nz, n_sites)
    sem_intensity: np.ndarray  # (nz, n_sites), unbiased SEM, 0 for n=1
    variance_trace: np.ndarray  # (nz,) mean over realizations of spread variance
    pr_trace: np.ndarray  # (nz,) mean over realizations of participation ratio

    def __post_init__(self):
        for name in ("mean_intensity", "sem_intensity", "variance_trace", "pr_trace"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        _check_near_one(np.sum(self.mean_intensity, axis=1), ROW_SUM_TOL, "mean intensity row sum")
        if not np.all(self.sem_intensity >= 0.0):
            raise ValueError("SEM must be nonnegative")


def sample_disordered_lattice(
    base: LatticeSpec, d: DisorderSpec, policy: SeedPolicy, k: int
) -> LatticeSpec:
    """Disorder realization k. Draw order is frozen (couplings, then betas)
    so a realization is a pure function of (master_seed, k)."""
    if d.is_clean:
        return base
    rng = policy.stream(k)
    u_coupling = rng.uniform(-1.0, 1.0, size=base.coupling.shape[0])
    u_beta = rng.uniform(-1.0, 1.0, size=base.n_sites)
    coupling = base.coupling * (1.0 + d.offdiag_strength * u_coupling)
    beta = base.beta + 0.5 * d.diag_strength * u_beta
    return LatticeSpec(
        n_sites=base.n_sites,
        coupling=coupling,
        beta=beta,
        boundary=base.boundary,
        diag_convention=base.diag_convention,
    )


def _reduce_ensemble(pairs, zgrid: ZGrid, n_realizations: int, n: int) -> EnsembleStats:
    """Sum ``pairs`` of (grid rows, intensities), in the order given, into
    ensemble statistics; intensities carry one realization per leading index,
    and the pairs cover each grid row of all n_realizations exactly once."""
    nz = len(zgrid)
    # s, s^2 per site, variance and PR per row, each one running sum
    s, s2, var_sum, pr_sum = np.zeros((nz, n)), np.zeros((nz, n)), np.zeros(nz), np.zeros(nz)
    for rows, inten in pairs:
        s[rows] += np.sum(inten, axis=0)
        s2[rows] += np.sum(inten * inten, axis=0)
        var_sum[rows] += np.sum(spread_variance(inten), axis=0)
        pr_sum[rows] += np.sum(participation_ratio(inten), axis=0)
    nr = float(n_realizations)
    mean = s / nr
    if n_realizations > 1:
        var_unbiased = np.maximum(s2 - nr * mean * mean, 0.0) / (nr - 1.0)
        sem = np.sqrt(var_unbiased / nr)
    else:
        sem = np.zeros((nz, n))
    return EnsembleStats(
        n_realizations=n_realizations,
        zgrid=zgrid,
        mean_intensity=mean,
        sem_intensity=sem,
        variance_trace=var_sum / nr,
        pr_trace=pr_sum / nr,
    )


def run_ensemble(
    base: LatticeSpec,
    d: DisorderSpec,
    init: InitialState,
    zgrid: ZGrid,
    n_realizations: int,
    master_seed: int,
) -> EnsembleStats:
    """Evolve n_realizations disorder samples by exact diagonalization and
    accumulate statistics."""
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    psi0 = make_initial_state(init, base.n_sites)
    policy = SeedPolicy(master_seed)

    def pairs():
        for k in range(n_realizations):
            h = build_hamiltonian(sample_disordered_lattice(base, d, policy, k))
            yield slice(None), evolve_eigen(h, psi0, zgrid).intensities()[None]

    return _reduce_ensemble(pairs(), zgrid, n_realizations, base.n_sites)


_BLOCK = 64  # histories per dephasing batch; fixed, as a batch adds one sum per grid row


def _dephasing_block_rows(
    h0: Hamiltonian,
    psi0: WaveFunction,
    zgrid: ZGrid,
    deph: DephasingSpec,
    n_segments: int,
    policy: SeedPolicy,
):
    """The block function of a dephasing ensemble: ``block_rows(k_lo, k_hi)``
    propagates noise histories k_lo..k_hi-1 together, each drawing its segment
    noise in order from its own stream, and yields (row, I) one grid row at a
    time, with I of shape (k_hi - k_lo, n_sites).

    What every history shares is set up once: the spectral enclosure, the
    grid rows met in each segment with their offsets from its start, and one
    Chebyshev coefficient set per distinct offset."""
    n = h0.n_sites
    half = 0.5 * deph.phase_strength
    center, halfwidth = _chebyshev_enclosure(h0, pad=half)
    dz = deph.segment_length
    zvals = zgrid.values
    starts_at_zero = zvals[0] == 0.0
    gi = 1 if starts_at_zero else 0
    segments = []
    for s in range(n_segments):
        z_start = s * dz
        z_end = (s + 1) * dz
        met = []
        while gi < zvals.size and zvals[gi] <= z_end + 1e-9 * max(1.0, z_end):
            met.append((gi, float(zvals[gi] - z_start)))
            gi += 1
        segments.append(met)
    if gi < zvals.size:
        raise ValueError("zgrid extends past the final noise segment")
    offsets = {dz} | {dt for met in segments for _, dt in met}
    coeffs = {dt: _chebyshev_coefficients(halfwidth * dt, _CHEBYSHEV_TOL) for dt in offsets}

    def block_rows(k_lo: int, k_hi: int):
        rngs = [policy.stream(k) for k in range(k_lo, k_hi)]
        psi = np.tile(psi0.amps, (len(rngs), 1))
        if starts_at_zero:
            yield 0, np.abs(psi) ** 2
        noise = np.empty((len(rngs), n))

        def advance(diag, dt):
            return _chebyshev_step(diag, h0.offdiag, h0.corner, center, halfwidth, coeffs[dt],
                                   dt, psi)

        for met in segments:
            for r, rng in enumerate(rngs):
                noise[r] = rng.uniform(-half, half, size=n)
            diag = h0.diag + noise
            for row, dt in met:
                if dt != dz:
                    yield row, np.abs(advance(diag, dt)) ** 2
            psi = advance(diag, dz)
            for row, dt in met:
                if dt == dz:
                    yield row, np.abs(psi) ** 2

    return block_rows


def _n_segments(zmax: float, segment_length: float) -> int:
    """Noise segments up to zmax, which must be a whole number of them (relative 1e-9)."""
    ratio = zmax / segment_length
    n = round(ratio) if np.isfinite(ratio) else 0
    if n < 1 or abs(n * segment_length - zmax) > 1e-9 * max(1.0, zmax):
        raise ValueError(f"zgrid.stop={zmax} is not a whole number of segments of "
                         f"length {segment_length}")
    return n


def evolve_dephasing(
    base: LatticeSpec,
    deph: DephasingSpec,
    init: InitialState,
    zgrid: ZGrid,
    n_realizations: int,
    master_seed: int,
) -> EnsembleStats:
    """Ensemble of temporal-disorder histories (piecewise-constant diagonal noise).

    phase_strength = 0 short-circuits to a single clean unitary evolution, so
    the no-noise control matches the clean lattice exactly.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    n_segments = _n_segments(float(zgrid.values[-1]), deph.segment_length)
    h0 = build_hamiltonian(base)
    psi0 = make_initial_state(init, base.n_sites)
    if deph.phase_strength == 0.0:
        inten = evolve_eigen(h0, psi0, zgrid).intensities()
        return EnsembleStats(
            n_realizations=n_realizations,
            zgrid=zgrid,
            mean_intensity=inten,
            sem_intensity=np.zeros_like(inten),
            variance_trace=spread_variance(inten),
            pr_trace=participation_ratio(inten),
        )
    block_rows = _dephasing_block_rows(h0, psi0, zgrid, deph, n_segments, SeedPolicy(master_seed))
    pairs = (pair for lo in range(0, n_realizations, _BLOCK)
             for pair in block_rows(lo, min(lo + _BLOCK, n_realizations)))
    return _reduce_ensemble(pairs, zgrid, n_realizations, base.n_sites)
