"""Propagators: psi(z) = exp(-iHz) psi(0) by three independent routes.

* evolve_eigen — exact spectral decomposition; the reference method, which
  no ensemble calls.
* evolve_chebyshev — Chebyshev polynomial expansion of exp(-iHz) on the
  spectrum rescaled to [-1, 1]; the scalable path for ~10^4 sites, one call
  of chebyshev_rows, which propagates a state or a block of them (the
  boundary-sweep carpet) on their light-cone window, with one recurrence for
  every z of the call. Each dephasing segment and each block of disorder
  realizations is one call of the same light-cone routine.
* evolve_ode_oracle — fixed-step RK4 on i dpsi/dz = H psi; slow, used as an
  independent cross-check in tests only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    """Eigensystem of H - center: H = V diag(eigenvalues + center) V^T."""

    eigenvalues: np.ndarray  # of H - center, ascending
    eigenvectors: np.ndarray  # columns; real orthonormal
    center: float = 0.0


def decompose(h: Hamiltonian) -> SpectralDecomposition:
    """Full eigensystem of H - center, with center that of the Chebyshev
    enclosure: a huge uniform beta then drops out exactly, instead of leaving
    eigenvalues resolved only to its ulp and eigenvectors that are arbitrary."""
    center = _chebyshev_enclosure(h)[0]
    diag = h.diag - center
    if h.is_periodic:
        w, v = np.linalg.eigh(Hamiltonian(diag, h.offdiag, h.corner).dense())
    else:
        # imported here, so that runs that diagonalize no open chain never load scipy
        from scipy.linalg import eigh_tridiagonal

        w, v = eigh_tridiagonal(diag, h.offdiag)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v, center=center)


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
    """psi(z) = exp(-i center z) V exp(-i Lambda z) V^T psi0 at every grid point."""
    if psi0.n_sites != h.n_sites:
        raise ValueError("state size does not match Hamiltonian")
    if decomp is None:
        decomp = decompose(h)
    v = decomp.eigenvectors
    coeffs = _times_real(psi0.amps, v)  # = V^T psi0
    phases = np.exp(-1j * np.outer(zgrid.values, decomp.eigenvalues))
    states = _times_real(phases * coeffs, v.T)
    # the centre comes back as a phase, as on the Chebyshev path
    states *= np.exp(-1j * decomp.center * zgrid.values)[:, None]
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
    plus pad, as exact arithmetic gives, so a huge uniform beta is a phase, and
    at the smallest normal float, so that its inverse stays finite."""
    emin, emax, rmax = _gershgorin(h)
    emin, emax = emin - pad, emax + pad
    return 0.5 * (emax + emin), max(0.5 * (emax - emin), rmax + pad, np.finfo(float).tiny)


# Chebyshev coefficient tail: the default, and the loosest tol a run accepts
_CHEBYSHEV_TOL = 1e-12
_MAX_CHEBYSHEV_TOL = 1e-4

# ceiling on the order cap, checked before the Bessel sequence is allocated;
# an expansion that long would already cost a million matvecs per z point
_MAX_ORDER = 1_000_000


def _order_cap(x: float) -> int:
    """Ceiling on the expansion order at argument x: J_m(x) decays
    superexponentially once m > x, so an order above it flags bad bounds."""
    return int(x + 12.0 * (x + 1.0) ** (1.0 / 3.0)) + 64


def _chebyshev_coefficients(x: float, tol: float) -> np.ndarray:
    """Coefficients c_k = (2 - delta_{k0}) (-i)^k J_k(x), truncated when the
    Bessel tail stays below tol for three consecutive orders."""
    if not np.isfinite(x):
        raise ChebyshevConvergenceError(f"expansion argument halfwidth*z={x:g} is not finite")
    cap = _order_cap(x)
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


def _chebyshev_table(xs, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients at each argument of ``xs`` as one column of a
    (K, len(xs)) table, zero past the column's own order, and those orders."""
    per_x = [_chebyshev_coefficients(x, tol) for x in xs]
    terms = np.array([c.shape[0] for c in per_x])
    table = np.zeros((terms.max(), len(per_x)), dtype=np.complex128)
    for j, c in enumerate(per_x):
        table[: c.shape[0], j] = c
    return table, terms


def _light_cone_window(n: int, periodic: bool, a: int, b: int, k: int):
    """Sites lo..hi-1 that a degree-k polynomial in the tridiagonal H reaches
    from sites a..b, clipped at open-chain ends; on a ring, a window that would
    wrap is the whole ring, and the third value says so."""
    if periodic and (a - k < 0 or b + k + 1 > n):
        return 0, n, True
    return max(0, a - k), min(n, b + k + 1), False


# a recurrence step on R rows of a W-site window costs R*W site updates, plus
# this many for the fixed cost of its numpy calls (measured on 2 cores: about
# 13 us per step, against 10-18 ns per site update)
_STEP_SITES = 1000
# each z pays this many per order of its expansion for its coefficients,
# whose Bessel recurrence runs in a Python loop (measured: about 2 us per order)
_COEFF_SITES = 150


def _chebyshev_work(n: int, periodic: bool, a: int, b: int, rows: int, halfwidth: float,
                    zvals, limit: int) -> int:
    """Site updates of one light-cone Chebyshev recurrence that serves every z
    in ``zvals`` (ascending) for ``rows`` states that vanish outside sites
    a..b, each order K taken at its ceiling: K_max recurrence steps on the
    window W of K_max, then for each z, K(z) updates of W and K(z)
    coefficients. The sum stops once it passes ``limit``, so that refusing a
    huge grid costs little."""
    k_max = _order_cap(halfwidth * zvals[-1])
    lo, hi, _ = _light_cone_window(n, periodic, a, b, k_max)
    window = rows * (hi - lo)
    work = k_max * (window + _STEP_SITES)
    for z in zvals:
        if work > limit:
            break
        work += _order_cap(halfwidth * z) * (window + _COEFF_SITES)
    return work


def _light_cone_rows(diag, off, corner, center: float, halfwidth: float, table, terms,
                     rows: np.ndarray, zvals) -> np.ndarray:
    """exp(-iHz) ``rows`` (a state of n sites, or a block) at each z of
    ``zvals``, stacked on a new first axis; H's ``diag``, couplings ``off`` and
    ring ``corner`` are each shared or one per state. Column j of ``table``
    holds the terms[j] coefficients at halfwidth*zvals[j]; ``terms`` must not
    fall. One recurrence serves every z, on the light-cone window of the rows'
    joint support at the largest order: sites outside a z's own light cone
    stay exactly 0, and inside it the bits are those of the whole lattice."""
    n, periodic = rows.shape[-1], bool(np.any(corner != 0.0))
    support = np.flatnonzero(np.any(rows.reshape(-1, n) != 0.0, axis=0))
    a, b = int(support[0]), int(support[-1])
    lo, hi, wraps = _light_cone_window(n, periodic, a, b, terms[-1] - 1)
    out = np.zeros((len(zvals),) + rows.shape, dtype=np.complex128)
    kernels.chebyshev_apply(
        diag[..., lo:hi], off[..., lo : hi - 1], corner if wraps else 0.0, center, halfwidth,
        table, rows[..., lo:hi], terms=terms, out=out[..., lo:hi],
    )
    for amps, z, k in zip(out, zvals, terms):
        # outside this z's own window lies exactly 0 up to its sign; inside it
        # the recurrence expanded exp(-i(H - center)z), so the centre returns as a phase
        zlo, zhi, _ = _light_cone_window(n, periodic, a, b, k - 1)
        amps[..., lo:zlo] = 0.0
        amps[..., zhi:hi] = 0.0
        inside = amps[..., zlo:zhi]
        np.multiply(np.exp(-1j * center * z), inside, out=inside)
    return out


def chebyshev_rows(h: Hamiltonian, rows: np.ndarray, zvals,
                   tol: float = _CHEBYSHEV_TOL) -> np.ndarray:
    """exp(-iHz) ``rows`` at each z of ``zvals`` (ascending, so the orders do
    not fall), on the whole lattice's enclosure: one ``_light_cone_rows`` call."""
    center, halfwidth = _chebyshev_enclosure(h)
    table, terms = _chebyshev_table(halfwidth * np.asarray(zvals), tol)
    return _light_cone_rows(h.diag, h.offdiag, h.corner, center, halfwidth, table, terms,
                            rows, zvals)


def evolve_chebyshev(
    h: Hamiltonian,
    psi0: WaveFunction,
    zgrid: ZGrid,
    tol: float = _CHEBYSHEV_TOL,
) -> Snapshots:
    """Chebyshev expansion of exp(-iHz) psi0 with certified coefficient tail
    < tol, on the light-cone window of the launch (``chebyshev_rows``)."""
    if not 0.0 < tol <= _MAX_CHEBYSHEV_TOL:
        raise ValueError(f"tol must lie in (0, {_MAX_CHEBYSHEV_TOL:g}]")
    if psi0.n_sites != h.n_sites:
        raise ValueError("state size does not match Hamiltonian")
    states = chebyshev_rows(h, psi0.amps, zgrid.values, tol)
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
    n_steps = max(1, int(np.ceil(z / dz_max)))
    amps = kernels.rk4_evolve(h.diag, h.offdiag, h.corner, psi0.amps, z, n_steps)
    # RK4 is not exactly unitary; admit the O(dz^4) norm drift
    return WaveFunction(amps, norm_tol=1e-6)
