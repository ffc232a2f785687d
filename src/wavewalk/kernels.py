"""Hot numerical kernels: tridiagonal matvec, Chebyshev recurrence, Bessel sequences, RK4.

Each kernel has a numba-compiled fast path and a vectorized pure-numpy
fallback. The numpy path is forced by setting the environment variable
``WAVEWALK_NO_NUMBA=1`` before import (or whenever numba is not installed).
Both implementations are kept importable (``*_np`` / ``*_nb``) so the
benchmark script can time them against each other; everything else should
use the public aliases, which point at the active backend.
"""

from __future__ import annotations

import math
import os

import numpy as np


def _numba_disabled() -> bool:
    return os.environ.get("WAVEWALK_NO_NUMBA", "").strip().lower() in ("1", "true", "yes")


HAVE_NUMBA = False
if not _numba_disabled():
    try:
        from numba import njit as _njit

        HAVE_NUMBA = True
    except ImportError:
        HAVE_NUMBA = False

if not HAVE_NUMBA:

    def _njit(*args, **kwargs):
        # no-op decorator so the module body below works unchanged
        def wrap(fn):
            return fn

        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]
        return wrap


def backend() -> str:
    """Name of the active kernel backend ("numba" or "numpy")."""
    return "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# tridiagonal matvec  (real symmetric tridiagonal + optional ring corner)
# ---------------------------------------------------------------------------

def tridiag_matvec_np(diag, off, corner, x):
    """y = H x along the last axis of x, for H real symmetric tridiagonal;
    corner couples sites 0 and n-1. ``diag`` may carry one row per leading
    index of x (a block of Hamiltonians sharing off and corner)."""
    y = diag * x
    y[..., :-1] += off * x[..., 1:]
    y[..., 1:] += off * x[..., :-1]
    if corner != 0.0:
        y[..., 0] += corner * x[..., -1]
        y[..., -1] += corner * x[..., 0]
    return y


@_njit(cache=True, nogil=True)
def _shifted_matvec_into(diag, off, corner, shift, x, out):
    n = x.shape[0]
    for j in range(n):
        v = (diag[j] - shift) * x[j]
        if j + 1 < n:
            v += off[j] * x[j + 1]
        if j > 0:
            v += off[j - 1] * x[j - 1]
        out[j] = v
    if corner != 0.0:
        out[0] += corner * x[n - 1]
        out[n - 1] += corner * x[0]


@_njit(cache=True, nogil=True)
def tridiag_matvec_nb(diag, off, corner, x):
    out = np.empty(x.shape[0], np.complex128)
    _shifted_matvec_into(diag, off, corner, 0.0, x, out)
    return out


# ---------------------------------------------------------------------------
# Chebyshev propagator core:  sum_k coeffs[k] T_k(Hs) psi,
# with Hs = (H - center) / halfwidth rescaled to spectrum within [-1, 1].
# The numpy path acts on the last axis of psi, so a block of states (one per
# row, each with its own diagonal row) runs as one recurrence.
# ---------------------------------------------------------------------------

def chebyshev_apply_np(diag, off, corner, center, halfwidth, coeffs, psi):
    inv = 1.0 / halfwidth
    shifted = diag - center
    t0 = psi.astype(np.complex128, copy=True)
    acc = coeffs[0] * t0
    if coeffs.shape[0] == 1:
        return acc
    t1 = inv * (tridiag_matvec_np(shifted, off, corner, t0))
    acc += coeffs[1] * t1
    for k in range(2, coeffs.shape[0]):
        t2 = 2.0 * inv * tridiag_matvec_np(shifted, off, corner, t1) - t0
        acc += coeffs[k] * t2
        t0, t1 = t1, t2
    return acc


@_njit(cache=True, nogil=True)
def chebyshev_apply_nb(diag, off, corner, center, halfwidth, coeffs, psi):
    n = psi.shape[0]
    nc = coeffs.shape[0]
    inv = 1.0 / halfwidth
    t0 = psi.copy()
    acc = np.empty(n, np.complex128)
    for j in range(n):
        acc[j] = coeffs[0] * t0[j]
    if nc == 1:
        return acc
    t1 = np.empty(n, np.complex128)
    _shifted_matvec_into(diag, off, corner, center, t0, t1)
    for j in range(n):
        t1[j] *= inv
        acc[j] += coeffs[1] * t1[j]
    t2 = np.empty(n, np.complex128)
    for k in range(2, nc):
        c = coeffs[k]
        _shifted_matvec_into(diag, off, corner, center, t1, t2)
        for j in range(n):
            w = 2.0 * inv * t2[j] - t0[j]
            t2[j] = w
            acc[j] += c * w
        tmp = t0
        t0 = t1
        t1 = t2
        t2 = tmp
    return acc


# ---------------------------------------------------------------------------
# classic fixed-step 4th order integration of  d psi / dz = -i H psi
# ---------------------------------------------------------------------------

def rk4_evolve_np(diag, off, corner, psi0, z, n_steps):
    dz = z / n_steps
    psi = psi0.astype(np.complex128, copy=True)
    for _ in range(n_steps):
        k1 = -1j * tridiag_matvec_np(diag, off, corner, psi)
        k2 = -1j * tridiag_matvec_np(diag, off, corner, psi + (0.5 * dz) * k1)
        k3 = -1j * tridiag_matvec_np(diag, off, corner, psi + (0.5 * dz) * k2)
        k4 = -1j * tridiag_matvec_np(diag, off, corner, psi + dz * k3)
        psi += (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


@_njit(cache=True, nogil=True)
def rk4_evolve_nb(diag, off, corner, psi0, z, n_steps):
    n = psi0.shape[0]
    dz = z / n_steps
    psi = psi0.copy()
    k1 = np.empty(n, np.complex128)
    k2 = np.empty(n, np.complex128)
    k3 = np.empty(n, np.complex128)
    k4 = np.empty(n, np.complex128)
    stage = np.empty(n, np.complex128)
    for _ in range(n_steps):
        _shifted_matvec_into(diag, off, corner, 0.0, psi, k1)
        for j in range(n):
            k1[j] *= -1j
            stage[j] = psi[j] + 0.5 * dz * k1[j]
        _shifted_matvec_into(diag, off, corner, 0.0, stage, k2)
        for j in range(n):
            k2[j] *= -1j
            stage[j] = psi[j] + 0.5 * dz * k2[j]
        _shifted_matvec_into(diag, off, corner, 0.0, stage, k3)
        for j in range(n):
            k3[j] *= -1j
            stage[j] = psi[j] + dz * k3[j]
        _shifted_matvec_into(diag, off, corner, 0.0, stage, k4)
        for j in range(n):
            k4[j] *= -1j
            psi[j] += (dz / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
    return psi


# ---------------------------------------------------------------------------
# Bessel J_0..J_nmax(x) by backward (Miller) recurrence with normalization.
#
# Ratios r_n = J_n/J_{n-1} come from the downward continued fraction
# r_n = 1 / (2n/x - r_{n+1}); the sequence is then rebuilt forward from
# J_0, which is fixed by the identity J_0 + 2*sum_{k>=1} J_{2k} = 1.
# Products of ratios keep full relative accuracy even deep in the
# exponentially small tail. Small arguments use the power series instead.
# ---------------------------------------------------------------------------

def _bessel_j_sequence_impl(x, nmax):
    out = np.zeros(nmax + 1)
    if x == 0.0:
        out[0] = 1.0
        return out
    if x < 1.0:
        # power series around x=0, a handful of terms suffices
        q = 0.25 * x * x
        # log(x) - log(2), not log(x/2): x/2 underflows to 0 for subnormal x
        lhalf = math.log(x) - math.log(2.0)
        for n in range(nmax + 1):
            lead = n * lhalf - math.lgamma(n + 1.0)
            if lead < -745.0:
                break
            term = math.exp(lead)
            s = term
            for k in range(1, 40):
                term *= -q / (k * (n + k))
                s += term
                if abs(term) <= 1e-17 * abs(s):
                    break
            out[n] = s
        return out
    # the normalization sum needs orders well past the turning point n ~ x
    n_top = max(nmax, int(x) + 40 + int(2.0 * math.sqrt(x)))
    m_start = n_top + 40 + int(2.0 * math.sqrt(n_top))
    ratios = np.empty(n_top + 1)
    rn = 0.0
    for n in range(m_start, 0, -1):
        den = 2.0 * n / x - rn
        if den == 0.0:
            # pole of the continued fraction (x sits on a zero of J_{n-1});
            # the tiny floor self-corrects within two steps, as in Lentz's method
            den = 1e-290
        rn = 1.0 / den
        if n <= n_top:
            ratios[n] = rn
    f = np.empty(n_top + 1)
    f[0] = 1.0
    norm = 1.0
    for n in range(1, n_top + 1):
        f[n] = f[n - 1] * ratios[n]
        if n % 2 == 0:
            norm += 2.0 * f[n]
    for n in range(nmax + 1):
        out[n] = f[n] / norm
    return out


if HAVE_NUMBA:
    bessel_j_sequence = _njit(cache=True, nogil=True)(_bessel_j_sequence_impl)
else:
    bessel_j_sequence = _bessel_j_sequence_impl


# active-backend aliases
if HAVE_NUMBA:
    tridiag_matvec = tridiag_matvec_nb
    rk4_evolve = rk4_evolve_nb

    def chebyshev_apply(diag, off, corner, center, halfwidth, coeffs, psi):
        # the compiled kernel takes one state; a block of states runs on numpy
        impl = chebyshev_apply_nb if psi.ndim == 1 else chebyshev_apply_np
        return impl(diag, off, corner, center, halfwidth, coeffs, psi)
else:
    tridiag_matvec = tridiag_matvec_np
    chebyshev_apply = chebyshev_apply_np
    rk4_evolve = rk4_evolve_np


def warmup() -> None:
    """Trigger JIT compilation of all kernels on a tiny problem (no-op for numpy)."""
    diag = np.zeros(4)
    off = np.ones(3)
    psi = np.zeros(4, np.complex128)
    psi[1] = 1.0
    tridiag_matvec(diag, off, 0.0, psi)
    coeffs = np.array([1.0 + 0j, -1j, -0.5 + 0j])
    chebyshev_apply(diag, off, 0.0, 0.0, 2.0, coeffs, psi)
    rk4_evolve(diag, off, 0.0, psi, 0.1, 4)
    bessel_j_sequence(2.0, 8)
