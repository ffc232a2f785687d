"""Propagators: psi(z) = exp(-iHz) psi(0) by three independent routes.

* evolve_eigen — exact spectral decomposition; the reference method
  (lattices here are small enough to diagonalize outright).
* evolve_chebyshev — Chebyshev polynomial expansion of exp(-iHz) on the
  spectrum rescaled to [-1, 1]; the scalable path for ~10^4 sites (dephasing
  blocks share its enclosure and step).
* evolve_ode_oracle — fixed-step RK4 on i dpsi/dz = H psi; slow, used as an
  independent cross-check in tests only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import kernels
from .errors import ChebyshevConvergenceError
from .lattice import Hamiltonian, WaveFunction, _check_near_one


@dataclass(frozen=True)
class ZGrid:
    """Strictly increasing, nonnegative propagation distances."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("zgrid must be a nonempty 1-d array")
        if v[0] < 0.0:
            raise ValueError("z values must be nonnegative")
        if v.size > 1 and not np.all(np.diff(v) > 0.0):
            raise ValueError("z values must be strictly increasing")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Snapshots:
    """States sampled on a z grid; row i of ``amps`` is psi(zgrid[i])."""

    zgrid: ZGrid
    amps: np.ndarray
    method: str
    norm_tol: float = field(default=1e-9, repr=False, compare=False)

    def __post_init__(self):
        a = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if a.shape[0] != len(self.zgrid):
            raise ValueError("one state per grid point required")
        _check_near_one(np.sqrt(np.sum(np.abs(a) ** 2, axis=1)), self.norm_tol, "snapshot norm")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def n_sites(self) -> int:
        return self.amps.shape[1]

    def state(self, i: int) -> WaveFunction:
        return WaveFunction(self.amps[i], norm_tol=max(1e-12, self.norm_tol))

    def intensities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns; real orthonormal


def decompose(h: Hamiltonian) -> SpectralDecomposition:
    """Full eigensystem, eigenvalues ascending."""
    if h.is_periodic:
        w, v = np.linalg.eigh(h.dense())
    else:
        w, v = eigh_tridiagonal(h.diag, h.offdiag)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def _times_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex ``a @ b`` for real ``b`` as two real products, so that numpy
    does not first copy ``b`` to complex."""
    out = np.empty(a.shape[:-1] + b.shape[1:], dtype=np.complex128)
    out.real = a.real @ b
    out.imag = a.imag @ b
    return out


def evolve_eigen(
    h: Hamiltonian,
    psi0: WaveFunction,
    zgrid: ZGrid,
    decomp: SpectralDecomposition | None = None,
) -> Snapshots:
    """psi(z) = V exp(-i Lambda z) V^T psi0 at every grid point."""
    if psi0.n_sites != h.n_sites:
        raise ValueError("state size does not match Hamiltonian")
    if decomp is None:
        decomp = decompose(h)
    v = decomp.eigenvectors
    coeffs = _times_real(psi0.amps, v)  # = V^T psi0
    phases = np.exp(-1j * np.outer(zgrid.values, decomp.eigenvalues))
    states = _times_real(phases * coeffs, v.T)
    return Snapshots(zgrid=zgrid, amps=states, method="eigen")


def spectral_bounds(h: Hamiltonian) -> tuple[float, float]:
    """Certified spectrum enclosure (Gershgorin discs)."""
    return _gershgorin(h)[:2]


def _gershgorin(h: Hamiltonian) -> tuple[float, float, float]:
    """Lowest and highest Gershgorin disc edges, and the largest radius."""
    radius = np.zeros(h.n_sites)
    radius[:-1] += np.abs(h.offdiag)
    radius[1:] += np.abs(h.offdiag)
    if h.corner != 0.0:
        radius[0] += abs(h.corner)
        radius[-1] += abs(h.corner)
    return (float(np.min(h.diag - radius)), float(np.max(h.diag + radius)),
            float(np.max(radius)))


def _chebyshev_enclosure(h: Hamiltonian, pad: float = 0.0) -> tuple[float, float]:
    """Centre and half-width of an interval holding the spectrum of every
    H + diag(u), |u_j| <= pad. The half-width is floored at the largest radius
    plus pad, as exact arithmetic gives, so a huge uniform beta is a phase."""
    emin, emax, rmax = _gershgorin(h)
    emin, emax = emin - pad, emax + pad
    return 0.5 * (emax + emin), max(0.5 * (emax - emin), rmax + pad)


# Chebyshev coefficient tail: the default, and the loosest tol a run accepts
_CHEBYSHEV_TOL = 1e-12
_MAX_CHEBYSHEV_TOL = 1e-4

# ceiling on the order cap, checked before the Bessel sequence is allocated;
# an expansion that long would already cost a million matvecs per z point
_MAX_ORDER = 1_000_000


def _chebyshev_coefficients(x: float, tol: float) -> np.ndarray:
    """Coefficients c_k = (2 - delta_{k0}) (-i)^k J_k(x), truncated when the
    Bessel tail stays below tol for three consecutive orders."""
    if not np.isfinite(x):
        raise ChebyshevConvergenceError(f"expansion argument halfwidth*z={x:g} is not finite")
    # J_m(x) decays superexponentially once m > x; the cap flags bad bounds
    cap = int(x + 12.0 * (x + 1.0) ** (1.0 / 3.0)) + 64
    if cap > _MAX_ORDER:
        raise ChebyshevConvergenceError(
            f"halfwidth*z={x:g} needs an order cap above the ceiling of {_MAX_ORDER} terms"
        )
    bess = kernels.bessel_j_sequence(x, cap + 2)
    small = np.abs(bess) < tol
    order = None
    for m in range(cap + 1):
        if small[m] and small[m + 1] and small[m + 2]:
            order = m
            break
    if order is None:
        raise ChebyshevConvergenceError(
            f"no truncation order below cap {cap} for x={x:g}, tol={tol:g}"
        )
    k = np.arange(order + 1)
    coeffs = 2.0 * (-1j) ** k * bess[: order + 1]
    coeffs[0] *= 0.5
    return coeffs


def _chebyshev_step(diag, offdiag, corner, center, halfwidth, coeffs, z, psi):
    """exp(-iHz) psi, with ``coeffs`` those of halfwidth*z: the recurrence
    expands exp(-i(H - center)z), and the centre comes back as a phase."""
    amps = kernels.chebyshev_apply(diag, offdiag, corner, center, halfwidth, coeffs, psi)
    return np.exp(-1j * center * z) * amps


def evolve_chebyshev(
    h: Hamiltonian,
    psi0: WaveFunction,
    zgrid: ZGrid,
    tol: float = _CHEBYSHEV_TOL,
) -> Snapshots:
    """Chebyshev expansion of exp(-iHz) psi0 with certified coefficient tail < tol.

    A degree-K polynomial in the tridiagonal H moves amplitude at most K
    sites, so every site farther than K from the launch support stays exactly
    0. The recurrence runs only on that light-cone window, with the whole
    lattice's spectral scaling and coefficients: the same arithmetic as on
    the whole lattice. The window is clipped at open-chain ends; on a ring,
    a window that would wrap is the whole ring."""
    if not 0.0 < tol <= _MAX_CHEBYSHEV_TOL:
        raise ValueError(f"tol must lie in (0, {_MAX_CHEBYSHEV_TOL:g}]")
    if psi0.n_sites != h.n_sites:
        raise ValueError("state size does not match Hamiltonian")
    n = h.n_sites
    center, halfwidth = _chebyshev_enclosure(h)
    support = np.flatnonzero(psi0.amps)
    a, b = int(support[0]), int(support[-1])
    states = np.zeros((len(zgrid), n), dtype=np.complex128)
    for i, z in enumerate(zgrid.values):
        if z == 0.0:
            states[i] = psi0.amps
            continue
        coeffs = _chebyshev_coefficients(halfwidth * z, tol)
        k = coeffs.shape[0] - 1
        lo, hi, corner = max(0, a - k), min(n, b + k + 1), 0.0
        if h.corner != 0.0 and (a - k < 0 or b + k + 1 > n):  # the window wraps the ring
            lo, hi, corner = 0, n, h.corner
        states[i, lo:hi] = _chebyshev_step(
            h.diag[lo:hi], h.offdiag[lo : hi - 1], corner, center, halfwidth, coeffs, z,
            psi0.amps[lo:hi],
        )
    # the coefficient tail bounds the norm drift by about 10 * tol
    return Snapshots(
        zgrid=zgrid, amps=states, method="chebyshev", norm_tol=max(1e-9, 10.0 * tol)
    )


def evolve_ode_oracle(
    h: Hamiltonian, psi0: WaveFunction, z: float, dz_max: float
) -> WaveFunction:
    """Fixed-step RK4 integration to a single z; test oracle, O(dz^4) error."""
    if psi0.n_sites != h.n_sites:
        raise ValueError("state size does not match Hamiltonian")
    if z < 0.0:
        raise ValueError("z must be nonnegative")
    emin, emax = spectral_bounds(h)
    radius = max(abs(emin), abs(emax))
    if dz_max <= 0.0 or dz_max * radius >= 1.0:
        raise ValueError("dz_max must satisfy dz_max * spectral_radius < 1")
    if z == 0.0:
        return WaveFunction(psi0.amps.copy())
    n_steps = max(1, int(np.ceil(z / dz_max)))
    amps = kernels.rk4_evolve(h.diag, h.offdiag, h.corner, psi0.amps, z, n_steps)
    # RK4 is not exactly unitary; admit the O(dz^4) norm drift
    return WaveFunction(amps, norm_tol=1e-6)
