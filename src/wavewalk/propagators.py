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
    """Strictly increasing, nonnegative, finite propagation distances."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("zgrid must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("z values must be finite")
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


def _chebyshev_table(xs, tol: float) -> np.ndarray:
    """The coefficients at each argument of ``xs`` as one column of a real
    (K, len(xs)) table, zero past the column's own order; K, the largest
    order, is the length of the recurrence that applies it. The Bessel
    sequences of every x come from one ``bessel_j_sequence`` call.
    ``chebyshev_apply`` applies the (-i)^k itself."""
    xs = np.asarray(xs, dtype=np.float64)
    for x in xs:
        if not np.isfinite(x):
            raise ChebyshevConvergenceError(f"expansion argument halfwidth*z={x:g} is not finite")
        if _order_cap(x) > _MAX_ORDER:
            raise ChebyshevConvergenceError(
                f"halfwidth*z={x:g} needs an order cap above the ceiling of {_MAX_ORDER} terms"
            )
    caps = np.array([_order_cap(x) for x in xs])
    bess = kernels.bessel_j_sequence(xs, caps + 2)
    small = np.abs(bess) < tol
    # order m is the first at or below the cap with orders m, m+1, m+2 all small
    runs = small[:-2] & small[1:-1] & small[2:]
    runs[np.arange(runs.shape[0])[:, None] > caps] = False
    found = runs.any(axis=0)
    if not found.all():
        j = int(np.argmin(found))
        raise ChebyshevConvergenceError(
            f"no truncation order below cap {caps[j]} for x={xs[j]:g}, tol={tol:g}"
        )
    orders = np.argmax(runs, axis=0) + 1
    table = 2.0 * bess[: orders.max()]
    table[0] *= 0.5
    table[np.arange(table.shape[0])[:, None] >= orders] = 0.0
    return table


def _light_cone_window(n: int, periodic: bool, a: int, b: int, k: int):
    """Sites lo..hi-1 that a degree-k polynomial in the tridiagonal H reaches
    from sites a..b, clipped at open-chain ends; on a ring, a window that would
    wrap is the whole ring, and the third value says so."""
    if periodic and (a - k < 0 or b + k + 1 > n):
        return 0, n, True
    return max(0, a - k), min(n, b + k + 1), False


# The work model of a light-cone call, in units of about one complex site
# update of the recurrence (4-30 ns on 2 cores, by block shape). A
# recurrence step on R rows of a W-site window costs R*W units, plus this
# many for the fixed cost of its numpy calls (about 13 us a step)
_STEP_SITES = 1000
# the per-state products form the nz columns from the K stored terms at
# 0.11-0.25 ns per term, column and site: 1/_PRODUCT_TERMS of a unit
_PRODUCT_TERMS = 32
# an output cell: its state, intensity and reduction (25-57 ns)
_CELL_SITES = 4
# a coefficient: one order of one z in the table's Bessel recurrence (about
# 2 us per order for one z, 0.2 us per z at 100 z)
_COEFF_SITES = 150
# a disorder realization's fixed cost: its stream, draw and share of its
# block's calls (about 100 us, 2-site runs of 5 000 to 20 000 realizations)
_REALIZATION_WORK = 10_000


def _chebyshev_work(n: int, periodic: bool, a: int, b: int, rows: int, halfwidth: float,
                    zvals, calls: int = 1) -> int:
    """Work of ``calls`` light-cone calls that share one coefficient table,
    each taking ``rows`` states that vanish outside sites a..b to every z of
    ``zvals`` (ascending), every order K taken at its ceiling. Each call pays
    K_max recurrence steps on the window W of K_max, the per-state products
    of its nz columns and its nz*rows*n output cells; the table of at most
    K_max*nz coefficients is paid once. A closed form, so a huge grid costs
    no more to charge than a small one."""
    nz = len(zvals)
    k_max = _order_cap(halfwidth * zvals[-1])
    lo, hi, _ = _light_cone_window(n, periodic, a, b, k_max)
    window = rows * (hi - lo)
    call = (k_max * (window + _STEP_SITES) + k_max * nz * window // _PRODUCT_TERMS
            + _CELL_SITES * nz * rows * n)
    return calls * call + k_max * nz * _COEFF_SITES


def _light_cone_rows(diag, off, corner, center: float, halfwidth: float, table,
                     rows: np.ndarray, zvals) -> np.ndarray:
    """exp(-iHz) ``rows`` (a state of n sites, or a block) at each z of
    ``zvals``, stacked on a new first axis; H's ``diag``, couplings ``off`` and
    ring ``corner`` are each shared or one per state. Column j of ``table``
    holds the coefficients at halfwidth*zvals[j]. One recurrence of K =
    ``table.shape[0]`` terms serves every z, on the light-cone window of the
    rows' joint support at order K - 1: sites outside a z's own light cone
    hold 0 up to sign (the table's zeros past its order meet the recurrence's
    exact zeros), and inside it the result is the whole lattice's to rounding
    (a one-column call keeps its bits)."""
    n, periodic = rows.shape[-1], bool(np.any(corner != 0.0))
    support = np.flatnonzero(np.any(rows.reshape(-1, n) != 0.0, axis=0))
    lo, hi, wraps = _light_cone_window(n, periodic, int(support[0]), int(support[-1]),
                                       table.shape[0] - 1)
    out = np.zeros((len(zvals),) + rows.shape, dtype=np.complex128)
    window = out[..., lo:hi]
    kernels.chebyshev_apply(
        diag[..., lo:hi], off[..., lo : hi - 1], corner if wraps else 0.0, center, halfwidth,
        table, rows[..., lo:hi], window,
    )
    # the recurrence expanded exp(-i(H - center)z), so the centre returns as a
    # phase; the phase goes first, as numpy's complex product is not symmetric in its bits
    phases = np.exp(-1j * center * np.asarray(zvals, dtype=np.float64))
    np.multiply(phases.reshape((-1,) + (1,) * rows.ndim), window, out=window)
    return out


def chebyshev_rows(h: Hamiltonian, rows: np.ndarray, zvals,
                   tol: float = _CHEBYSHEV_TOL) -> np.ndarray:
    """exp(-iHz) ``rows`` at each z of ``zvals``, on the whole lattice's
    enclosure: one ``_light_cone_rows`` call."""
    center, halfwidth = _chebyshev_enclosure(h)
    table = _chebyshev_table(halfwidth * np.asarray(zvals), tol)
    return _light_cone_rows(h.diag, h.offdiag, h.corner, center, halfwidth, table, rows, zvals)


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
