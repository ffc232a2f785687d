"""Lattice model: Hamiltonian construction and initial-state preparation.

The dynamical model is the nearest-neighbor coupled-mode / tight-binding
equation

    i dpsi_j/dz = beta_j psi_j + C_{j,j+1} psi_{j+1} + C_{j,j-1} psi_{j-1}

so the Hamiltonian is real symmetric tridiagonal (plus two corner entries
on a ring). Everything here is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np

from . import kernels

# ceiling on the sites of a lattice or of an oracle window, checked before
# anything is allocated: 80 MB per array of site values
MAX_SITES = 10_000_000


class Boundary(Enum):
    OPEN = "open"
    PERIODIC = "periodic"


class DiagConvention(Enum):
    """How the diagonal of H is filled.

    BETA_AS_GIVEN uses the per-site propagation constants beta_j directly.
    MINUS_DEGREE_GAMMA uses -d_j * gamma_bar where d_j is the site degree
    (1 at open-chain edges, 2 in the bulk and everywhere on a ring) and
    gamma_bar is the mean coupling; betas are ignored in that convention.
    A uniform diagonal is a pure gauge phase, so intensity observables do
    not distinguish the two on a ring or deep in the bulk.
    """

    BETA_AS_GIVEN = "beta_as_given"
    MINUS_DEGREE_GAMMA = "minus_degree_gamma"


def _check_near_one(values, tol: float, what: str) -> None:
    """ValueError unless every value lies within tol of 1 (NaN and inf fail)."""
    worst = float(np.max(np.abs(np.asarray(values, dtype=np.float64) - 1.0)))
    if not worst <= tol:  # written so that NaN fails
        raise ValueError(f"{what} off from 1 by {worst:.3e} (> {tol:g})")


def _as_float_vector(x, n: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class LatticeSpec:
    """Waveguide lattice: couplings C_{j,j+1}, on-site betas, boundary type.

    ``coupling`` has length n_sites-1 for an open chain; a periodic lattice
    carries one extra entry, C_{n-1,0}, stored at index n_sites-1.
    """

    n_sites: int
    coupling: np.ndarray
    beta: np.ndarray
    boundary: Boundary = Boundary.OPEN
    diag_convention: DiagConvention = DiagConvention.BETA_AS_GIVEN

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        n = self.n_sites
        if self.boundary is Boundary.PERIODIC:
            if n < 3:
                raise ValueError("periodic boundary needs n_sites >= 3")
            n_bonds = n
        else:
            n_bonds = n - 1
        coupling = _as_float_vector(self.coupling, n_bonds, "coupling")
        if np.any(coupling <= 0.0):
            raise ValueError("all couplings must be > 0")
        beta = _as_float_vector(self.beta, n, "beta")
        coupling.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "beta", beta)

    @property
    def mean_coupling(self) -> float:
        return float(np.mean(self.coupling))


def uniform_lattice(
    n_sites: int,
    coupling: float = 1.0,
    boundary: Boundary = Boundary.OPEN,
    diag_convention: DiagConvention = DiagConvention.BETA_AS_GIVEN,
) -> LatticeSpec:
    """Clean lattice: identical couplings, beta = 0 everywhere."""
    return LatticeSpec(n_sites=n_sites, coupling=float(coupling), beta=0.0,
                       boundary=boundary, diag_convention=diag_convention)


@dataclass(frozen=True)
class Hamiltonian:
    """Real symmetric tridiagonal operator; ``corner`` is H_{0,n-1} (0 if open)."""

    diag: np.ndarray
    offdiag: np.ndarray
    corner: float = 0.0

    def __post_init__(self):
        n = self.diag.shape[0]
        if self.offdiag.shape != (n - 1,):
            raise ValueError("offdiag must have length n_sites - 1")
        for name in ("diag", "offdiag"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_sites(self) -> int:
        return self.diag.shape[0]

    @property
    def is_periodic(self) -> bool:
        return self.corner != 0.0

    def dense(self) -> np.ndarray:
        h = np.diag(self.diag) + np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        if self.corner != 0.0:
            h[0, -1] = h[-1, 0] = self.corner
        return h


def _tridiagonal(spec: LatticeSpec, coupling: np.ndarray, beta: np.ndarray):
    """H's diagonal, couplings and ring corner (0.0 if open) for the lattice
    ``spec`` with ``coupling`` and ``beta`` in place of its own, along their
    last axis: one lattice, or a stack of them."""
    n = spec.n_sites
    if spec.diag_convention is DiagConvention.MINUS_DEGREE_GAMMA:
        degree = np.full(n, 2.0)
        if spec.boundary is Boundary.OPEN:
            degree[0] = degree[-1] = 1.0
        diag = -degree * np.mean(coupling, axis=-1, keepdims=True)
    else:
        diag = beta
    corner = coupling[..., n - 1] if spec.boundary is Boundary.PERIODIC else 0.0
    return diag, coupling[..., : n - 1], corner


def build_hamiltonian(spec: LatticeSpec) -> Hamiltonian:
    """H realizing the coupled-mode equation for this lattice."""
    diag, offdiag, corner = _tridiagonal(spec, spec.coupling, spec.beta)
    return Hamiltonian(diag=diag, offdiag=offdiag, corner=float(corner))


@dataclass(frozen=True)
class WaveFunction:
    """Complex site amplitudes, unit norm within ``norm_tol`` at construction."""

    amps: np.ndarray
    norm_tol: float = field(default=1e-12, repr=False, compare=False)

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        nrm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
        _check_near_one(nrm, self.norm_tol, "state norm")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def n_sites(self) -> int:
        return self.amps.shape[0]

    def norm_error(self) -> float:
        return abs(float(np.sum(np.abs(self.amps) ** 2)) - 1.0)


# --- initial-state descriptions ---------------------------------------------


@dataclass(frozen=True)
class SingleSite:
    j0: int


@dataclass(frozen=True)
class TwoSite:
    j0: int
    j1: int
    relative_phase: float = 0.0


@dataclass(frozen=True)
class GaussianBeam:
    center: float
    width_sites: float
    tilt_phase_per_site: float = 0.0


InitialState = Union[SingleSite, TwoSite, GaussianBeam]


def _gaussian_envelope(offset, width: float):
    """exp(-offset^2 / 2w^2). The product w*w, not the float power w**2, so a
    huge width gives a flat envelope instead of an OverflowError."""
    with np.errstate(divide="ignore", invalid="ignore"):  # w*w underflowed to 0
        return np.exp(-np.square(offset) / (2.0 * width * width))


def _check_site(j, n_sites: int, name: str) -> None:
    if not 0 <= j < n_sites:
        raise ValueError(f"{name}={j} outside lattice [0, {n_sites})")


def make_initial_state(spec: InitialState, n_sites: int) -> WaveFunction:
    """Normalized launch state: single waveguide, adjacent pair, or a Gaussian beam."""
    amps = np.zeros(n_sites, dtype=np.complex128)
    if isinstance(spec, SingleSite):
        _check_site(spec.j0, n_sites, "j0")
        amps[spec.j0] = 1.0
    elif isinstance(spec, TwoSite):
        _check_site(spec.j0, n_sites, "j0")
        _check_site(spec.j1, n_sites, "j1")
        if spec.j0 == spec.j1:
            raise ValueError("TwoSite needs two distinct sites")
        amps[spec.j0] = 1.0 / math.sqrt(2.0)
        amps[spec.j1] = np.exp(1j * spec.relative_phase) / math.sqrt(2.0)
    elif isinstance(spec, GaussianBeam):
        if not spec.width_sites > 0.0:
            raise ValueError("width_sites must be > 0")
        _check_site(np.round(spec.center), n_sites, "center")  # NaN and inf fail the check
        j = np.arange(n_sites)
        envelope = _gaussian_envelope(j - spec.center, spec.width_sites)
        amps = envelope * np.exp(1j * spec.tilt_phase_per_site * j)
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    else:
        raise TypeError(f"unknown initial-state spec: {spec!r}")
    return WaveFunction(amps)


def apply_hamiltonian(h: Hamiltonian, psi) -> np.ndarray:
    """H @ psi for a WaveFunction or bare complex vector."""
    x = psi.amps if isinstance(psi, WaveFunction) else np.asarray(psi, dtype=np.complex128)
    if x.shape != (h.n_sites,):
        raise ValueError(f"state length {x.shape} does not match lattice size {h.n_sites}")
    return kernels.tridiag_matvec(h.diag, h.offdiag, h.corner, x)
