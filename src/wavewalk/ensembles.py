"""Disorder ensembles and temporal-disorder (dephasing) evolution.

Seeding contract: realization k draws from a generator seeded by
(master_seed, spawn_key=(k,)) — a pure function of the pair, so any subset
of realizations can be reproduced in isolation. Sums run in the calling
thread in a fixed order, so ensemble statistics are bit-identical across
runs: disorder adds one realization after another (a left fold); dephasing
adds the sum over each block of ``_BLOCK`` consecutive histories, one block
after another, which is not a left fold over histories.

Both ensembles propagate blocks of R realizations as (R, n) arrays on the
light-cone Chebyshev routine, on an enclosure padded to hold every
realization: a disorder block in one call for every grid point, a dephasing
block in one call per noise segment, at its end and at the grid points it
meets. The no-noise dephasing control is one clean Chebyshev run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .lattice import (
    DiagConvention,
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
    evolve_eigen,  # noqa: F401  unused here; bench/tracing.py wraps ensembles.evolve_eigen
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


def _reduce_ensemble(block_rows, block: int, zgrid: ZGrid, n_realizations: int, n: int):
    """Sum into ensemble statistics, in the order given, the pairs of (grid
    rows, intensities) that ``block_rows(lo, hi)`` yields for each run of
    ``block`` consecutive realizations; intensities carry one realization per
    leading index, and the pairs cover each grid row of every realization once."""
    nz = len(zgrid)
    # s, s^2 per site, variance and PR per row, each one running sum
    s, s2, var_sum, pr_sum = np.zeros((nz, n)), np.zeros((nz, n)), np.zeros(nz), np.zeros(nz)
    for lo in range(0, n_realizations, block):
        for rows, inten in block_rows(lo, min(lo + block, n_realizations)):
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


_DISORDER_BLOCK = 32  # most realizations per disorder block; a memory constant only
# most complex cells a disorder block holds (3.7 MB). Per site and
# realization: nz for its states at every z, the chunk of vectors the
# Chebyshev kernel stores at a time, and 8 for its initial rows, lattice,
# Hamiltonian, stacked diagonal and couplings and recurrence temporaries;
# and one realization's worth more for the kernel's per-state product
_BLOCK_CELLS = 230_000


def _disorder_block(n: int, nz: int) -> int:
    """Realizations per disorder block on n sites and nz grid points:
    _DISORDER_BLOCK, fewer where the block would pass _BLOCK_CELLS."""
    cells = (nz + kernels.store_terms(nz) + 8) * n
    return max(1, min(_DISORDER_BLOCK, _BLOCK_CELLS // cells - 1))


def _disorder_pad(coupling, minus_degree: bool, offdiag_strength, diag_strength) -> float:
    """How far past the clean lattice's Gershgorin discs a realization's
    reach: W/2, and w*C per bond (2*w*C on a site), and 2*w*C more under
    minus_degree_gamma, as its diagonal follows its own mean coupling. The
    disorder block's enclosure and the loader's work estimate both pad by it."""
    hop = 2.0 * offdiag_strength * float(np.max(coupling))
    return 0.5 * diag_strength + (2.0 if minus_degree else 1.0) * hop


def _disorder_block_rows(base: LatticeSpec, d: DisorderSpec, psi0: WaveFunction, zgrid: ZGrid,
                         policy: SeedPolicy):
    """The block function of a disorder ensemble: ``block_rows(k_lo, k_hi)``
    propagates realizations k_lo..k_hi-1 in one light-cone call and yields
    (every grid row, I of shape (1, nz, n_sites)) one realization at a time,
    so the sums are a left fold whatever the block size. One enclosure serves
    all: the clean lattice's, padded by ``_disorder_pad``."""
    pad = _disorder_pad(base.coupling, base.diag_convention is DiagConvention.MINUS_DEGREE_GAMMA,
                        d.offdiag_strength, d.diag_strength)
    center, halfwidth = _chebyshev_enclosure(build_hamiltonian(base), pad=pad)
    table, terms = _chebyshev_table(halfwidth * zgrid.values, _CHEBYSHEV_TOL)

    def block_rows(k_lo: int, k_hi: int):
        hs = [build_hamiltonian(sample_disordered_lattice(base, d, policy, k))
              for k in range(k_lo, k_hi)]
        amps = _light_cone_rows(
            np.array([h.diag for h in hs]), np.array([h.offdiag for h in hs]),
            np.array([h.corner for h in hs]), center, halfwidth, table, terms,
            np.tile(psi0.amps, (len(hs), 1)), zgrid.values)
        for r in range(len(hs)):
            yield slice(None), (np.abs(amps[:, r]) ** 2)[None]

    return block_rows


def run_ensemble(
    base: LatticeSpec,
    d: DisorderSpec,
    init: InitialState,
    zgrid: ZGrid,
    n_realizations: int,
    master_seed: int,
) -> EnsembleStats:
    """Evolve n_realizations disorder samples, a block of them at a time on
    the light-cone Chebyshev routine, and accumulate statistics."""
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    block_rows = _disorder_block_rows(base, d, make_initial_state(init, base.n_sites), zgrid,
                                      SeedPolicy(master_seed))
    return _reduce_ensemble(block_rows, _disorder_block(base.n_sites, len(zgrid)), zgrid,
                            n_realizations, base.n_sites)


_BLOCK = 64  # histories per dephasing batch; fixed, as a batch adds one sum per grid row

# ceiling on the noise segments of one history, checked before they are
# planned; the committed dephasing runs use 80
_MAX_SEGMENTS = 100_000


def _segment_count(zmax: float, segment_length: float) -> int:
    """The number of noise segments of a history to ``zmax``, which must be
    a whole number of segments (relative 1e-9), and at most _MAX_SEGMENTS."""
    ratio = zmax / segment_length
    n = round(ratio) if np.isfinite(ratio) else 0
    if n < 1 or abs(n * segment_length - zmax) > 1e-9 * max(1.0, zmax):
        raise ValueError(f"zgrid.stop={zmax} is not a whole number of segments of "
                         f"length {segment_length}")
    if n > _MAX_SEGMENTS:
        raise ValueError(f"zgrid.stop={zmax} needs {n} segments of length {segment_length}, "
                         f"above the ceiling of {_MAX_SEGMENTS}")
    return n


def _plan_segments(zvals, segment_length: float) -> list:
    """The noise segments of a history on the grid ``zvals``, each as (met,
    offsets, end): ``offsets`` are the distinct offsets from the segment's
    start of its end and of the grid rows it meets, ascending; ``met`` pairs
    each such row with the index of its offset, and ``end`` is the end's.

    A block of histories makes one light-cone call per segment, at its
    offsets, and the loader charges one ``_chebyshev_work`` per segment for
    every block, with the segment's table once. ``zvals[-1]`` must be a
    whole number of segments (relative 1e-9), and at most _MAX_SEGMENTS
    (``_segment_count``)."""
    dz = segment_length
    n = _segment_count(float(zvals[-1]), dz)
    gi = 0
    segments = []
    for s in range(n):
        z_start, z_end = s * dz, (s + 1) * dz
        met = []
        while gi < zvals.size and zvals[gi] <= z_end + 1e-9 * max(1.0, z_end):
            met.append((gi, float(zvals[gi] - z_start)))
            gi += 1
        offsets = tuple(sorted({dz} | {dt for _, dt in met}))
        column = {dt: j for j, dt in enumerate(offsets)}
        segments.append(([(row, column[dt]) for row, dt in met], offsets, column[dz]))
    if gi < zvals.size:
        raise ValueError("zgrid extends past the final noise segment")
    return segments


def _dephasing_block_rows(
    h0: Hamiltonian,
    psi0: WaveFunction,
    deph: DephasingSpec,
    segments: list,
    policy: SeedPolicy,
):
    """The block function of a dephasing ensemble: ``block_rows(k_lo, k_hi)``
    propagates noise histories k_lo..k_hi-1 together through ``segments``
    (``_plan_segments``), each history drawing its segment noise in order
    from its own stream, and yields (row, I) one grid row at a time, with I
    of shape (k_hi - k_lo, n_sites).

    What every history shares is set up once: the spectral enclosure and one
    Chebyshev coefficient table per distinct tuple of a segment's offsets."""
    n = h0.n_sites
    half = 0.5 * deph.phase_strength
    center, halfwidth = _chebyshev_enclosure(h0, pad=half)
    # histories run in the frame shifted by -center, so a large uniform beta
    # does not round the noise away; the phase exp(-i center z) that this drops
    # is the same on every site and cancels in |psi|^2
    shifted = h0.diag - center
    tables = {offsets: _chebyshev_table(halfwidth * np.array(offsets), _CHEBYSHEV_TOL)
              for offsets in {offsets for _, offsets, _ in segments}}

    def block_rows(k_lo: int, k_hi: int):
        rngs = [policy.stream(k) for k in range(k_lo, k_hi)]
        psi = np.tile(psi0.amps, (len(rngs), 1))
        for met, offsets, end in segments:
            noisy = shifted + np.array([rng.uniform(-half, half, size=n) for rng in rngs])
            amps = _light_cone_rows(noisy, h0.offdiag, h0.corner, 0.0, halfwidth,
                                    *tables[offsets], psi, offsets)
            for row, j in met:
                yield row, np.abs(amps[j]) ** 2
            psi = amps[end]

    return block_rows


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
    h0 = build_hamiltonian(base)
    psi0 = make_initial_state(init, base.n_sites)
    if deph.phase_strength == 0.0:
        _segment_count(float(zgrid.values[-1]), deph.segment_length)
        inten = evolve_chebyshev(h0, psi0, zgrid).intensities()
        return EnsembleStats(
            n_realizations=n_realizations, zgrid=zgrid, mean_intensity=inten,
            sem_intensity=np.zeros_like(inten), variance_trace=spread_variance(inten),
            pr_trace=participation_ratio(inten))
    segments = _plan_segments(zgrid.values, deph.segment_length)
    block_rows = _dephasing_block_rows(h0, psi0, deph, segments, SeedPolicy(master_seed))
    return _reduce_ensemble(block_rows, _BLOCK, zgrid, n_realizations, base.n_sites)
