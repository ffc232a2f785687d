"""Closed-form references for the uniform lattice.

* bessel_free_state — infinite uniform lattice, single-site launch:
  psi_j(z) = (-i)^{|j-j0|} J_{|j-j0|}(2cz).
* image_boundary_state — semi-infinite lattice with a hard edge left of
  site 0, built from the free solution plus a mirrored, sign-flipped image
  source that enforces psi = 0 on the virtual site -1.
* classical_ctrw_distribution — continuous-time random walk on the same
  lattice, p_j(t) = exp(-2 gamma t) I_{|j-j0|}(2 gamma t).
* cqw_variance_law — ballistic spread sigma^2(z) = 2 c^2 z^2.

All windows are truncations of infinite-lattice solutions; each routine
refuses (WindowTooSmallError) rather than renormalize when the neglected
tail stops being negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ive

from . import kernels
from .errors import WindowTooSmallError
from .lattice import WaveFunction, _check_near_one

_UNIT_PHASES = np.array([1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j])  # (-i)^k, k mod 4


@dataclass(frozen=True)
class ProbabilityDist:
    """Nonnegative site probabilities summing to 1 within ``tol``."""

    probs: np.ndarray
    tol: float = field(default=1e-10, repr=False, compare=False)

    def __post_init__(self):
        p = np.ascontiguousarray(self.probs, dtype=np.float64)
        if not np.all(p >= 0.0):  # written so that NaN fails
            raise ValueError("probabilities must be nonnegative")
        _check_near_one(np.sum(p), self.tol, "probability sum")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def n_sites(self) -> int:
        return self.probs.shape[0]


def _check_source(j0: int, c: float, z: float, n_sites: int) -> None:
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    if not 0 <= j0 < n_sites:
        raise ValueError(f"j0={j0} outside lattice [0, {n_sites})")
    if c <= 0.0:
        raise ValueError("coupling c must be > 0")
    if z < 0.0:
        raise ValueError("z must be nonnegative")


def bessel_free_state(j0: int, c: float, z: float, n_sites: int) -> WaveFunction:
    """Free single-site evolution truncated to a window of n_sites sites.

    The window must already hold all but <1e-12 of the probability; the
    truncated state is NOT renormalized.
    """
    _check_source(j0, c, z, n_sites)
    x = 2.0 * c * z
    dist = np.abs(np.arange(n_sites) - j0)
    bess = kernels.bessel_j_sequence(x, int(dist.max()))
    amps = _UNIT_PHASES[dist % 4] * bess[dist]
    tail = 1.0 - float(np.sum(bess[dist] ** 2))  # sum_n J_n(x)^2 = 1 over all n
    if not tail <= 1e-12:  # written so that NaN fails
        raise WindowTooSmallError(
            f"window of {n_sites} sites drops probability {tail:.3e} at 2cz={x:g}"
        )
    return WaveFunction(amps)


def image_boundary_state(j0: int, c: float, z: float, n_sites: int) -> WaveFunction:
    """Semi-infinite lattice (hard wall left of site 0), single-site launch at j0.

    Signed image source at virtual site -(j0+2) cancels the amplitude on the
    virtual site -1, which is exactly the missing-neighbor condition of the
    chain termination. The placement and sign were validated against exact
    diagonalization of a long open chain before being frozen here (the
    regression test keeps guarding that agreement).
    """
    _check_source(j0, c, z, n_sites)
    x = 2.0 * c * z
    j = np.arange(n_sites)
    d_real = np.abs(j - j0)
    d_image = j + j0 + 2  # distance from the mirrored source at -(j0+2)
    bess = kernels.bessel_j_sequence(x, int(d_image.max()))
    amps = _UNIT_PHASES[d_real % 4] * bess[d_real] - _UNIT_PHASES[d_image % 4] * bess[d_image]
    mass = float(np.sum(np.abs(amps) ** 2))
    # the half-lattice carries unit probability; a deficit means truncation
    if not abs(mass - 1.0) <= 1e-11:  # written so that NaN fails
        raise WindowTooSmallError(
            f"window of {n_sites} sites keeps probability {mass!r} at 2cz={x:g}"
        )
    return WaveFunction(amps, norm_tol=1e-10)


def classical_ctrw_distribution(
    j0: int, gamma: float, t: float, n_sites: int
) -> ProbabilityDist:
    """Continuous-time random walk: dp_j/dt = gamma (p_{j+1} + p_{j-1} - 2 p_j).

    Closed form on the infinite chain, p_j(t) = e^{-2 gamma t} I_{|j-j0|}(2 gamma t),
    truncated to the window (no renormalization; refuses if the neglected
    boundary mass exceeds 1e-10).
    """
    _check_source(j0, gamma, t, n_sites)
    dist = np.abs(np.arange(n_sites) - j0)
    probs = ive(dist, 2.0 * gamma * t)  # ive(n, x) = exp(-x) I_n(x), exactly our form
    tail = 1.0 - float(np.sum(probs))
    if not tail <= 1e-10:  # written so that NaN fails (ive is NaN at huge 2*gamma*t)
        raise WindowTooSmallError(
            f"window of {n_sites} sites drops probability {tail:.3e} at 2*gamma*t={2*gamma*t:g}"
        )
    return ProbabilityDist(probs)


def cqw_variance_law(c: float, z: float) -> float:
    """Ballistic variance of the clean quantum walk: sigma^2(z) = 2 (c z)^2.

    The prefactor 2 is the Bessel second moment, sum_n n^2 J_n(x)^2 = x^2 / 2
    at x = 2cz (confirmed numerically before freezing; see tests).
    """
    if c <= 0.0:
        raise ValueError("coupling c must be > 0")
    if z < 0.0:
        raise ValueError("z must be nonnegative")
    return 2.0 * (c * z) ** 2


def ctrw_variance_law(gamma: float, t: float) -> float:
    """Diffusive variance of the classical walk: sigma^2(t) = 2 gamma t."""
    if gamma <= 0.0:
        raise ValueError("gamma must be > 0")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    return 2.0 * gamma * t


def bessel_window_for(c: float, z: float, margin: int = 40) -> int:
    """Half-width in sites that comfortably holds the free wavefront at z."""
    x = 2.0 * c * z
    return int(math.ceil(x + margin + 2.0 * math.sqrt(max(x, 1.0))))
