"""Disorder ensembles and temporal-disorder (dephasing) evolution.

Seeding contract: realization k draws from a generator seeded by
(master_seed, spawn_key=(k,)) — a pure function of the pair, so any subset
of realizations can be reproduced in isolation. Sums run in the calling
thread as a left fold over realizations in index order, so ensemble
statistics are bit-identical across runs and do not depend on the block size.

Both ensembles run on one engine (``_block_rows``): a block of R
realizations propagates as (R, n) arrays through the segments of a plan, one
light-cone Chebyshev call per segment, on an enclosure padded to hold every
realization. A dephasing history draws fresh site noise for each noise
segment; a disorder realization is a history of one segment, to the last
grid point, with its couplings and betas drawn once, stacked with the rest
of its block. The no-noise dephasing control is one clean Chebyshev run.
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
    _tridiagonal,
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


def _draw(base: LatticeSpec, d: DisorderSpec, policy: SeedPolicy, ks):
    """The couplings and betas of disorder realizations ``ks``, stacked on a
    first axis. Each draws from its own stream in a frozen order (couplings,
    then betas), so a realization is a pure function of (master_seed, k)."""
    n_bonds = base.coupling.shape[0]
    u = np.empty((len(ks), n_bonds + base.n_sites))
    for row, k in zip(u, ks):
        rng = policy.stream(k)
        row[:n_bonds] = rng.uniform(-1.0, 1.0, size=n_bonds)
        row[n_bonds:] = rng.uniform(-1.0, 1.0, size=base.n_sites)
    return (base.coupling * (1.0 + d.offdiag_strength * u[:, :n_bonds]),
            base.beta + 0.5 * d.diag_strength * u[:, n_bonds:])


def sample_disordered_lattice(base: LatticeSpec, d: DisorderSpec, policy: SeedPolicy,
                              k: int) -> LatticeSpec:
    """Disorder realization k: the one-realization case of ``_draw``."""
    if d.is_clean:
        return base
    (coupling,), (beta,) = _draw(base, d, policy, [k])
    return LatticeSpec(n_sites=base.n_sites, coupling=coupling, beta=beta, boundary=base.boundary,
                       diag_convention=base.diag_convention)


def _fold(total: np.ndarray, rows, terms: np.ndarray) -> None:
    """Add the realizations of ``terms`` (its axis 1; axis 0 runs over the
    grid ``rows``) to ``total[rows]`` one after another: a left fold, run in
    place in ``terms``."""
    terms[:, 0] += total[rows]
    np.add.accumulate(terms, axis=1, out=terms)
    total[rows] = terms[:, -1]


def _reduce_ensemble(block_rows, block: int, zgrid: ZGrid, n_realizations: int, n: int):
    """Ensemble statistics from the pairs of (grid rows, I) that
    ``block_rows(lo, hi)`` yields for each run of ``block`` consecutive
    realizations, I of shape (len(rows), hi - lo, n); the pairs cover each
    grid row of every realization once. Every sum is a left fold over the
    realizations in index order, so no bit depends on the block size."""
    nz = len(zgrid)
    # s, s^2 per site, variance and PR per row, each one running sum
    s, s2, var_sum, pr_sum = np.zeros((nz, n)), np.zeros((nz, n)), np.zeros(nz), np.zeros(nz)
    for lo in range(0, n_realizations, block):
        for rows, inten in block_rows(lo, min(lo + block, n_realizations)):
            _fold(s2, rows, inten * inten)
            _fold(var_sum, rows, spread_variance(inten))
            _fold(pr_sum, rows, participation_ratio(inten))
            _fold(s, rows, inten)
    nr = float(n_realizations)
    mean = s / nr
    # unbiased; one realization's s2 - mean^2 is exactly 0, and so is its SEM
    sem = np.sqrt(np.maximum(s2 - nr * mean * mean, 0.0) / max(nr - 1.0, 1.0) / nr)
    return EnsembleStats(n_realizations=n_realizations, zgrid=zgrid, mean_intensity=mean,
                         sem_intensity=sem, variance_trace=var_sum / nr, pr_trace=pr_sum / nr)


_MAX_BLOCK = 64  # most realizations per block; a memory constant only
# most complex cells a block holds (3.7 MB). Per site and realization: the
# widest call's states at each of its cols offsets, the chunk of vectors the
# Chebyshev kernel stores at a time, and 8 for its initial rows, draws,
# diagonal and couplings and recurrence temporaries; and one realization's
# worth more for the kernel's per-state product
_BLOCK_CELLS = 230_000


def _block(n: int, cols: int) -> int:
    """Realizations per block on n sites, for a plan whose widest light-cone
    call has ``cols`` columns: _MAX_BLOCK, fewer where the block would pass
    _BLOCK_CELLS. The loader charges the blocks it picks."""
    cells = (cols + kernels.store_terms(cols) + 8) * n
    return max(1, min(_MAX_BLOCK, _BLOCK_CELLS // cells - 1))


def _disorder_pad(coupling, minus_degree: bool, offdiag_strength, diag_strength) -> float:
    """How far past the clean lattice's Gershgorin discs a realization's
    reach: W/2, and w*C per bond (2*w*C on a site), and 2*w*C more under
    minus_degree_gamma, as its diagonal follows its own mean coupling. The
    disorder ensemble's enclosure and the loader's work estimate both pad by it."""
    hop = 2.0 * offdiag_strength * float(np.max(coupling))
    return 0.5 * diag_strength + (2.0 if minus_degree else 1.0) * hop


# ceiling on the noise segments of one history, checked before they are
# planned; the committed dephasing runs use 80
_MAX_SEGMENTS = 100_000


def _segment_count(zmax: float, segment_length: float) -> int:
    """The number of noise segments of a history to ``zmax``, which must be
    a whole number of segments (relative 1e-9), and at most _MAX_SEGMENTS."""
    # one segment as long as the grid, also a disorder plan to z = 0
    ratio = zmax / segment_length if zmax != segment_length else 1.0
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
    offsets. ``zvals[-1]`` must be a whole number of segments (relative
    1e-9), and at most _MAX_SEGMENTS (``_segment_count``)."""
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


def _block_rows(plan: list, center: float, halfwidth: float, draws, psi0: WaveFunction):
    """The block function of an ensemble: ``block_rows(k_lo, k_hi)``
    propagates realizations k_lo..k_hi-1 together through the segments of
    ``plan``, one light-cone call each, segment s on the s-th H that
    ``draws(k_lo, k_hi)`` yields (its diagonal, couplings and ring corner,
    each shared or one per realization) expanded about ``center``. For each
    segment it yields (the grid rows it meets, I of shape (rows, k_hi - k_lo,
    n_sites)). One coefficient table per distinct tuple of a segment's
    offsets is set up once, for every block."""
    tables = {offsets: _chebyshev_table(halfwidth * np.array(offsets), _CHEBYSHEV_TOL)
              for offsets in {offsets for _, offsets, _ in plan}}

    def block_rows(k_lo: int, k_hi: int):
        psi = np.tile(psi0.amps, (k_hi - k_lo, 1))
        for (met, offsets, end), (diag, off, corner) in zip(plan, draws(k_lo, k_hi)):
            amps = _light_cone_rows(diag, off, corner, center, halfwidth, tables[offsets],
                                    psi, offsets)
            rows, cols = [row for row, _ in met], [j for _, j in met]
            inten = np.abs(amps if len(cols) == len(offsets) else amps[cols])
            # the next segment starts from this one's end; the states go
            # before the block's sums take memory of their own
            psi, amps = amps[end].copy(), None
            yield rows, np.square(inten, out=inten)

    return block_rows


def _disorder(base: LatticeSpec, d: DisorderSpec, zgrid: ZGrid, policy: SeedPolicy):
    """A disorder ensemble as (plan, center, halfwidth, draws) for
    ``_block_rows``: one segment to zgrid.stop, whose offsets are the grid,
    each block's couplings and betas drawn once and stacked (``_draw``), on
    the clean lattice's enclosure padded by ``_disorder_pad``."""
    pad = _disorder_pad(base.coupling, base.diag_convention is DiagConvention.MINUS_DEGREE_GAMMA,
                        d.offdiag_strength, d.diag_strength)
    h = build_hamiltonian(base)
    center, halfwidth = _chebyshev_enclosure(h, pad=pad)

    def draws(k_lo: int, k_hi: int):
        yield ((h.diag, h.offdiag, h.corner) if d.is_clean
               else _tridiagonal(base, *_draw(base, d, policy, range(k_lo, k_hi))))

    return _plan_segments(zgrid.values, zgrid.values[-1]), center, halfwidth, draws


def _dephasing(h0: Hamiltonian, deph: DephasingSpec, zgrid: ZGrid, policy: SeedPolicy):
    """A dephasing ensemble as (plan, center, halfwidth, draws) for
    ``_block_rows``: the noise segments of ``_plan_segments``, each history
    drawing fresh site noise for every segment, in order, from its own
    stream, on the clean lattice's enclosure padded by the noise."""
    n = h0.n_sites
    half = 0.5 * deph.phase_strength
    center, halfwidth = _chebyshev_enclosure(h0, pad=half)
    # histories run in the frame shifted by -center, so a large uniform beta
    # does not round the noise away; the phase exp(-i center z) that this drops
    # is the same on every site and cancels in |psi|^2
    shifted = h0.diag - center

    def draws(k_lo: int, k_hi: int):
        rngs = [policy.stream(k) for k in range(k_lo, k_hi)]
        while True:
            yield (shifted + np.array([rng.uniform(-half, half, size=n) for rng in rngs]),
                   h0.offdiag, h0.corner)

    return _plan_segments(zgrid.values, deph.segment_length), 0.0, halfwidth, draws


def _ensemble_stats(ensemble: tuple, psi0: WaveFunction, zgrid: ZGrid, n_realizations: int):
    """Statistics of ``n_realizations`` of an ensemble from ``_disorder`` or
    ``_dephasing``, propagated in blocks of ``_block`` realizations."""
    n, plan = psi0.n_sites, ensemble[0]
    block = _block(n, max(len(offsets) for _, offsets, _ in plan))
    return _reduce_ensemble(_block_rows(*ensemble, psi0), block, zgrid, n_realizations, n)


def run_ensemble(base: LatticeSpec, d: DisorderSpec, init: InitialState, zgrid: ZGrid,
                 n_realizations: int, master_seed: int) -> EnsembleStats:
    """Evolve n_realizations disorder samples, a block of them at a time on
    the light-cone Chebyshev routine, and accumulate statistics."""
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    return _ensemble_stats(_disorder(base, d, zgrid, SeedPolicy(master_seed)),
                           make_initial_state(init, base.n_sites), zgrid, n_realizations)


def evolve_dephasing(base: LatticeSpec, deph: DephasingSpec, init: InitialState, zgrid: ZGrid,
                     n_realizations: int, master_seed: int) -> EnsembleStats:
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
    return _ensemble_stats(_dephasing(h0, deph, zgrid, SeedPolicy(master_seed)), psi0, zgrid,
                           n_realizations)
