"""Disorder ensembles and temporal-disorder (dephasing) evolution.

Seeding contract: realization k draws from a generator seeded by
(master_seed, spawn_key=(k,)) — a pure function of the pair, so any subset
of realizations can be reproduced in isolation. Sums run in the calling
thread in a fixed order, so ensemble statistics are bit-identical across
runs: disorder adds one realization after another (a left fold); dephasing
adds the sum over each block of ``_BLOCK`` consecutive histories, one block
after another, which is not a left fold over histories.

A dephasing block propagates as one (R, n) array: each noise segment is one
light-cone Chebyshev call over all R histories, at the segment's end and at
every grid point it meets, on the clean enclosure padded by the largest
noise amplitude, which holds for every segment Hamiltonian. The no-noise
control is one clean Chebyshev run, so no dephasing run diagonalizes.
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
    _chebyshev_enclosure,
    _chebyshev_table,
    _light_cone_rows,
    decompose,  # noqa: F401  unused here; bench/tracing.py wraps ensembles.decompose
    evolve_chebyshev,
    evolve_eigen,
)

ROW_SUM_TOL = 1e-8  # how far a mean intensity row may sum from 1


def worker_count() -> int:
    """Always 1: ensembles run in the calling thread. Its only caller is
    ``bench/run.py``, which records the value with each benchmark run."""
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
    offsets from its start of the grid rows met in each segment, and one
    Chebyshev coefficient table per distinct tuple of a segment's offsets."""
    n = h0.n_sites
    half = 0.5 * deph.phase_strength
    center, halfwidth = _chebyshev_enclosure(h0, pad=half)
    # histories run in the frame shifted by -center, so a large uniform beta
    # does not round the noise away; the phase exp(-i center z) that this drops
    # is the same on every site and cancels in |psi|^2
    shifted = h0.diag - center
    dz = deph.segment_length
    zvals = zgrid.values
    gi = 0
    segments = []  # per segment: (grid row, column) pairs, offsets, column of dz
    tables = {}
    for s in range(n_segments):
        z_start, z_end = s * dz, (s + 1) * dz
        met = []
        while gi < zvals.size and zvals[gi] <= z_end + 1e-9 * max(1.0, z_end):
            met.append((gi, float(zvals[gi] - z_start)))
            gi += 1
        offsets = tuple(sorted({dz} | {dt for _, dt in met}))
        if offsets not in tables:
            tables[offsets] = _chebyshev_table(halfwidth * np.array(offsets), _CHEBYSHEV_TOL)
        segments.append(([(row, offsets.index(dt)) for row, dt in met], offsets,
                         offsets.index(dz)))
    if gi < zvals.size:
        raise ValueError("zgrid extends past the final noise segment")

    def block_rows(k_lo: int, k_hi: int):
        rngs = [policy.stream(k) for k in range(k_lo, k_hi)]
        psi = np.tile(psi0.amps, (len(rngs), 1))
        for met, offsets, end in segments:
            noisy = shifted + np.array([rng.uniform(-half, half, size=n) for rng in rngs])
            amps = _light_cone_rows(h0, noisy, 0.0, halfwidth, *tables[offsets], psi, offsets)
            for row, j in met:
                yield row, np.abs(amps[j]) ** 2
            psi = amps[end]

    return block_rows


# ceiling on the noise segments of one history, checked before the per-segment
# grid lists are built; the committed dephasing runs use 80
_MAX_SEGMENTS = 100_000


def _n_segments(zmax: float, segment_length: float) -> int:
    """Noise segments up to zmax, which must be a whole number of them (relative
    1e-9), and at most _MAX_SEGMENTS."""
    ratio = zmax / segment_length
    n = round(ratio) if np.isfinite(ratio) else 0
    if n < 1 or abs(n * segment_length - zmax) > 1e-9 * max(1.0, zmax):
        raise ValueError(f"zgrid.stop={zmax} is not a whole number of segments of "
                         f"length {segment_length}")
    if n > _MAX_SEGMENTS:
        raise ValueError(f"zgrid.stop={zmax} needs {n} segments of length {segment_length}, "
                         f"above the ceiling of {_MAX_SEGMENTS}")
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

    phase_strength = 0 short-circuits to a single clean Chebyshev run
    (``evolve_chebyshev``), so the no-noise control matches the clean launch
    exactly.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    n_segments = _n_segments(float(zgrid.values[-1]), deph.segment_length)
    h0 = build_hamiltonian(base)
    psi0 = make_initial_state(init, base.n_sites)
    if deph.phase_strength == 0.0:
        inten = evolve_chebyshev(h0, psi0, zgrid).intensities()
        return EnsembleStats(
            n_realizations=n_realizations, zgrid=zgrid, mean_intensity=inten,
            sem_intensity=np.zeros_like(inten), variance_trace=spread_variance(inten),
            pr_trace=participation_ratio(inten))
    block_rows = _dephasing_block_rows(h0, psi0, zgrid, deph, n_segments, SeedPolicy(master_seed))
    pairs = (pair for lo in range(0, n_realizations, _BLOCK)
             for pair in block_rows(lo, min(lo + _BLOCK, n_realizations)))
    return _reduce_ensemble(pairs, zgrid, n_realizations, base.n_sites)
