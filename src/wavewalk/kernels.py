"""Hot numerical kernels: tridiagonal matvec, Chebyshev recurrence, Bessel sequences, RK4.

All kernels are vectorized numpy, one algorithm each for every input (the
Bessel sequence is Miller's recurrence at every x > 0). The matvec and the
Chebyshev recurrence act on the last axis, so a block of states (one per row,
each with its own diagonal row) runs as one call and every row gives the bits
of the 1-d call. One Chebyshev recurrence also serves several coefficient
sets (one per propagation distance, as columns), each with the bits of its
own call.
Callers look the kernels up through this module (``kernels.<name>``), so
they can be swapped at runtime, for instance by a tracer.
"""

from __future__ import annotations

import math

import numpy as np


def backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# tridiagonal matvec  (real symmetric tridiagonal + optional ring corner)
# ---------------------------------------------------------------------------

def tridiag_matvec(diag, off, corner, x):
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


# ---------------------------------------------------------------------------
# Chebyshev propagator core:  sum_k coeffs[k] T_k(Hs) psi,
# with Hs = (H - center) / halfwidth rescaled to spectrum within [-1, 1].
# ---------------------------------------------------------------------------

# the column updates of a 2-d call broadcast over at most this many
# amplitudes at a time, so their temporary stays small (1 MiB)
_UPDATE_CELLS = 1 << 16


def chebyshev_apply(diag, off, corner, center, halfwidth, coeffs, psi, terms=None, out=None):
    """sum_k coeffs[k] T_k(Hs) psi along the last axis of psi.

    ``coeffs`` of shape (K,) gives one sum, one scalar multiply per term.
    Of shape (K, nz) it gives one sum per column from one recurrence, stacked
    on a new first axis (written into ``out`` if given). Column j takes only
    its first ``terms[j]`` terms; ``terms`` must not decrease from column to
    column, so the columns still summing at term k are a suffix. Each column
    has the bits of the 1-d call on its own terms."""
    inv = 1.0 / halfwidth
    shifted = diag - center
    t0 = psi.astype(np.complex128, copy=True)
    if coeffs.ndim == 1:
        acc = coeffs[0] * t0
        n_terms = coeffs.shape[0]

        def add(k, t):
            np.add(acc, coeffs[k] * t, out=acc)
    else:
        n_cols = coeffs.shape[1]
        terms = np.asarray(terms)
        if (terms.shape != (n_cols,) or terms[0] < 1 or terms[-1] > coeffs.shape[0]
                or np.any(np.diff(terms) < 0)):
            raise ValueError("terms must give each column 1 to K terms, in ascending order")
        n_terms = int(terms[-1])
        # coefficient of column j at term k as a scalar broadcast over the state
        cols = coeffs.reshape(coeffs.shape + (1,) * psi.ndim)
        acc = np.empty((n_cols,) + psi.shape, dtype=np.complex128) if out is None else out
        np.multiply(cols[0], t0, out=acc)
        first = np.searchsorted(terms, np.arange(n_terms), side="right")
        step = max(1, _UPDATE_CELLS // t0.size)

        def add(k, t):
            for j in range(first[k], n_cols, step):
                acc[j : j + step] += cols[k, j : j + step] * t
    if n_terms == 1:
        return acc
    t1 = inv * (tridiag_matvec(shifted, off, corner, t0))
    add(1, t1)
    for k in range(2, n_terms):
        t2 = 2.0 * inv * tridiag_matvec(shifted, off, corner, t1) - t0
        add(k, t2)
        t0, t1 = t1, t2
    return acc


# ---------------------------------------------------------------------------
# classic fixed-step 4th order integration of  d psi / dz = -i H psi
# ---------------------------------------------------------------------------

def rk4_evolve(diag, off, corner, psi0, z, n_steps):
    dz = z / n_steps
    psi = psi0.astype(np.complex128, copy=True)
    for _ in range(n_steps):
        k1 = -1j * tridiag_matvec(diag, off, corner, psi)
        k2 = -1j * tridiag_matvec(diag, off, corner, psi + (0.5 * dz) * k1)
        k3 = -1j * tridiag_matvec(diag, off, corner, psi + (0.5 * dz) * k2)
        k4 = -1j * tridiag_matvec(diag, off, corner, psi + dz * k3)
        psi += (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


# ---------------------------------------------------------------------------
# Bessel J_0..J_nmax(x) by backward (Miller) recurrence with normalization.
#
# Ratios r_n = J_n/J_{n-1} come from the downward continued fraction
# r_n = 1 / (2n/x - r_{n+1}); the sequence is then rebuilt forward from
# J_0, which is fixed by the identity J_0 + 2*sum_{k>=1} J_{2k} = 1.
# Products of ratios keep full relative accuracy even deep in the
# exponentially small tail.
# ---------------------------------------------------------------------------

def bessel_j_sequence(x, nmax):
    x = float(x)  # 2n/x overflows to inf without a numpy warning at subnormal x
    if x == 0.0:  # J_n(0) = delta_n0; the recurrence divides by x
        return np.eye(1, nmax + 1).ravel()
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
    return f[: nmax + 1] / norm
