"""Measured quantities: intensity, spread variance, participation ratio,
exponential-tail fits, and distribution distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import WaveFunction
from .oracles import ProbabilityDist


def intensity(psi: WaveFunction) -> ProbabilityDist:
    """Site intensities |psi_j|^2 — what the output facet camera measures."""
    return ProbabilityDist(np.abs(psi.amps) ** 2)


def _probs(p: ProbabilityDist | np.ndarray) -> np.ndarray:
    return p.probs if isinstance(p, ProbabilityDist) else np.asarray(p, dtype=np.float64)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, one BLAS dot per row, so every row of
    a stack gives the bits of the same 1-d call."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scalar_if_1d(x: np.ndarray) -> float | np.ndarray:
    return float(x) if x.ndim == 0 else x


def spread_variance(p: ProbabilityDist | np.ndarray) -> float | np.ndarray:
    """Second central moment of the site index (last axis; one value per row
    of a stack). Two passes: the mean first, then the centered moment."""
    probs = _probs(p)
    sites = np.arange(probs.shape[-1], dtype=np.float64)
    mu = _row_dot(probs, sites)
    return _scalar_if_1d(_row_dot((sites - mu[..., None]) ** 2, probs))


def participation_ratio(p: ProbabilityDist | np.ndarray) -> float | np.ndarray:
    """1 / sum_j p_j^2 — effective number of occupied sites, in [1, n]
    (last axis; one value per row of a stack)."""
    probs = _probs(p)
    return _scalar_if_1d(1.0 / np.sum(probs**2, axis=-1))


def total_variation_distance(p, q) -> float:
    """(1/2) sum_j |p_j - q_j|, in [0, 1]."""
    pa, qa = _probs(p), _probs(q)
    if pa.shape != qa.shape:
        raise ValueError(f"length mismatch: {pa.shape} vs {qa.shape}")
    return float(0.5 * np.sum(np.abs(pa - qa)))


@dataclass(frozen=True)
class LocalizationFit:
    """Log-linear tail fit; xi = -1/slope (sites) when the slope is negative,
    None otherwise (flat or growing tail has no localization length)."""

    xi: float | None
    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]


def fit_localization_length(
    mean_p: ProbabilityDist | np.ndarray,
    window: tuple[int, int] = (10, 30),
    origin: int | None = None,
) -> LocalizationFit:
    """Least-squares fit of ln p_j against |j - origin| over the window of
    distances [window[0], window[1]] (both flanks of the peak).

    The window deliberately starts away from the origin: the near-peak
    region carries its own structure and is excluded from the exponential
    tail. ``origin`` defaults to the most probable site.
    """
    probs = _probs(mean_p)
    n = probs.shape[0]
    lo, hi = int(window[0]), int(window[1])
    if lo < 0 or hi < lo:
        raise ValueError("window must satisfy 0 <= lo <= hi")
    j0 = int(np.argmax(probs)) if origin is None else int(origin)
    if j0 - hi < 0 or j0 + hi > n - 1:
        raise ValueError(
            f"window distance {hi} around origin {j0} leaves the lattice [0, {n})"
        )
    dist = np.abs(np.arange(n) - j0)
    mask = (dist >= lo) & (dist <= hi)
    x = dist[mask].astype(np.float64)
    y = np.log(np.maximum(probs[mask], 1e-300))
    if x.size < 4:
        raise ValueError(f"degenerate window: only {x.size} points, need >= 4")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot > 0.0:
        r_squared = max(0.0, 1.0 - ss_res / ss_tot)
    else:
        # all y equal: the constant fit is exact
        r_squared = 1.0
    # slopes inside float noise (|slope| ~ 1e-16 for a flat tail) signal "no
    # localization length" rather than an absurd xi ~ 1e15 sites
    xi = float(-1.0 / slope) if slope < -1e-12 else None
    return LocalizationFit(
        xi=xi, slope=float(slope), intercept=float(intercept),
        r_squared=float(r_squared), window=(lo, hi),
    )


def fit_loglog_exponent(z: np.ndarray, sigma2: np.ndarray) -> float:
    """Slope of log sigma^2 vs log z — 2 for ballistic, 1 for diffusive spreading."""
    z = np.asarray(z, dtype=np.float64)
    s = np.asarray(sigma2, dtype=np.float64)
    if z.shape != s.shape or z.size < 2:
        raise ValueError("need matching arrays with at least two points")
    if np.any(z <= 0.0) or np.any(s <= 0.0):
        raise ValueError("log-log fit needs strictly positive values")
    slope, _ = np.polyfit(np.log(z), np.log(s), 1)
    return float(slope)
