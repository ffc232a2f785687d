"""Hot numerical kernels: tridiagonal matvec, Chebyshev recurrence, Bessel sequences, RK4.

All kernels are vectorized numpy, one algorithm each for every input (the
Bessel sequence is Miller's recurrence at every x > 0, run over an array of
x at once). The matvec and the Chebyshev recurrence act on the last axis, so
a block of states (one per row, each with its own diagonal, couplings and
ring corner, or sharing them) runs as one call and every row gives the bits
of the 1-d call. The Chebyshev kernel has one calling form: a real (K, nz)
coefficient table (one column per propagation distance; its K rows are the
order of the expansion) and an output array that it writes. A one-column
table is streamed term by term; with more columns the recurrence stores its
vectors a chunk at a time and adds every column of a state as one real
product per chunk, so the columns agree with one-column calls to rounding.
Callers look the kernels up through this module (``kernels.<name>``), so
they can be swapped at runtime, for instance by a tracer.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# tridiagonal matvec  (real symmetric tridiagonal + optional ring corner)
# ---------------------------------------------------------------------------

def tridiag_matvec(diag, off, corner, x):
    """y = H x along the last axis of x, for H real symmetric tridiagonal;
    corner couples sites 0 and n-1. ``diag``, ``off`` and ``corner`` may each
    carry one entry per leading index of x (a block of Hamiltonians)."""
    y = diag * x
    y[..., :-1] += off * x[..., 1:]
    y[..., 1:] += off * x[..., :-1]
    if isinstance(corner, np.ndarray) or corner != 0.0:  # a per-row corner always applies
        y[..., 0] += corner * x[..., -1]
        y[..., -1] += corner * x[..., 0]
    return y


# ---------------------------------------------------------------------------
# Chebyshev propagator core:  sum_k a_k (-i)^k T_k(Hs) psi, for real a_k,
# with Hs = (H - center) / halfwidth rescaled to spectrum within [-1, 1].
# ---------------------------------------------------------------------------

# a chunk of stored Chebyshev vectors holds at most max(nz, this) terms, so
# the store of a call with nz columns stays within its output block
_STORE_TERMS = 16


def store_terms(n_cols: int) -> int:
    """Most terms a call with ``n_cols`` coefficient columns stores at a time."""
    return max(n_cols, _STORE_TERMS)


def _scaled_terms(shifted, off, corner, inv, psi, n_terms, store=None):
    """Yield u_k = (-i)^k T_k(Hs) psi for k = 0 .. n_terms-1, from the
    recurrence u_{k+1} = u_{k-1} - 2i Hs u_k, u_1 = -i Hs u_0, which gives
    the bits of T_k times the exact (-i)^k. With ``store``, u_k is written
    to its slot k mod S (S >= 3 on the first axis); else each u_k is a fresh
    array."""
    def slot(k):
        return None if store is None else store[k % store.shape[0]]

    u0 = np.multiply(1.0, psi, out=slot(0), dtype=np.complex128)  # psi as complex
    yield u0
    if n_terms == 1:
        return
    u1 = np.multiply(-1j * inv, tridiag_matvec(shifted, off, corner, u0), out=slot(1))
    yield u1
    for k in range(2, n_terms):
        y = tridiag_matvec(shifted, off, corner, u1)
        np.multiply(-2j * inv, y, out=y)
        u0, u1 = u1, np.add(u0, y, out=y if store is None else slot(k))
        yield u1


def chebyshev_apply(diag, off, corner, center, halfwidth, coeffs, psi, out):
    """Write sum_k coeffs[k, j] (-i)^k T_k(Hs) psi, along the last axis of
    psi, into ``out[j]`` for each column j of the real (K, nz) table
    ``coeffs``, from one recurrence of K terms.

    A column that ends early is zero past its own order; those zeros add
    only zeros. A one-column table is streamed term by term. With more
    columns the vectors (-i)^k T_k psi are stored a chunk of
    ``store_terms(nz)`` terms at a time, and each state (leading index of
    psi) adds every column at once as a real product of the chunk's rows of
    the table with its stored vectors viewed as float64: one product of a
    fixed shape per state and chunk, so a state's bits depend on its own H
    and psi and on K, nz and the window only."""
    n_terms, n_cols = coeffs.shape
    # H's entries as complex once, not cast again at every matvec (same bits)
    shifted, off = (diag - center).astype(np.complex128), off.astype(np.complex128)
    if isinstance(corner, np.ndarray):
        corner = corner.astype(np.complex128)
    args = (shifted, off, corner, 1.0 / halfwidth, psi)
    if n_cols == 1:  # no product to share: the streamed sum
        a, total = coeffs[:, 0], out[0]
        for k, u in enumerate(_scaled_terms(*args, n_terms)):
            if k:
                total += a[k] * u
            else:
                np.multiply(a[0], u, out=total)
        return
    n_slots = min(n_terms, store_terms(n_cols))
    store = np.empty((n_slots,) + psi.shape, dtype=np.complex128)
    # one (chunk, 2W) matrix per state: its stored vectors as float64
    mats, cols = store.view(np.float64), out.view(np.float64)
    cols[...] = 0.0
    for k, _ in enumerate(_scaled_terms(*args, n_terms, store)):
        if (k + 1) % n_slots and k + 1 < n_terms:
            continue  # the chunk is not full yet
        lo = k - k % n_slots  # the chunk holds terms lo..k
        table, mat = np.ascontiguousarray(coeffs[lo : k + 1].T), mats[: k + 1 - lo]
        for state in np.ndindex(psi.shape[:-1]):
            cols[(slice(None),) + state] += table @ mat[(slice(None),) + state]


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
# exponentially small tail. An array of x runs as one recurrence over x,
# each x from its own starting order, so each gets the bits of its own call.
# ---------------------------------------------------------------------------

def bessel_j_sequence(x, nmax):
    """J_0..J_nmax(x): shape (nmax + 1,) for a scalar x. For an array of x
    (and nmax, a scalar or one per x), shape (max nmax + 1, len(x)); column j
    holds x[j]'s sequence, and 0 past its own nmax."""
    xs, nmaxs = np.broadcast_arrays(np.asarray(x, dtype=np.float64).ravel(),
                                    np.asarray(nmax).ravel())
    if not np.all((xs >= 0.0) & (xs < np.inf)):
        raise ValueError("Bessel arguments must be finite and >= 0")
    zero = xs == 0.0  # J_n(0) = delta_n0; the recurrence divides by x
    x_safe = np.where(zero, 1.0, xs)
    # the normalization sum needs orders well past the turning point n ~ x
    n_top = np.maximum(nmaxs, x_safe.astype(np.int64) + 40
                       + (2.0 * np.sqrt(x_safe)).astype(np.int64))
    m_start = n_top + 40 + (2.0 * np.sqrt(n_top)).astype(np.int64)
    top = int(n_top.max())
    # each x starts from r = 0 at its own m_start; until then its column runs
    # idle, and is reset to 0 just before it starts
    starts: dict = {}
    for j, m in enumerate(m_start.tolist()):
        starts.setdefault(m, []).append(j)
    f = np.zeros((top + 1, xs.size))  # the ratios, then the sequence
    rn, den = np.zeros(xs.size), np.empty(xs.size)
    # 2n/x is inf at subnormal x, so r_n = 0; a division by zero raises
    with np.errstate(over="ignore", divide="raise"):
        for n in range(int(m_start.max()), 0, -1):
            if n in starts:
                rn[starts[n]] = 0.0
            np.divide(2.0 * n, x_safe, out=den)
            den -= rn
            try:
                np.divide(1.0, den, out=rn)
            except FloatingPointError:
                # a pole of the continued fraction (x sits on a zero of J_{n-1});
                # the tiny floor self-corrects within two steps, as in Lentz's method
                den[den == 0.0] = 1e-290
                np.divide(1.0, den, out=rn)
            if n <= top:
                f[n] = rn
    f[np.arange(top + 1)[:, None] > n_top] = 0.0  # each x's ratios end at its n_top
    f[0] = 1.0
    np.multiply.accumulate(f, axis=0, out=f)  # f_n = f_{n-1} r_n, in order
    norm = np.ones(xs.size)
    for row in f[2::2]:
        norm += 2.0 * row
    seq = f[: int(nmaxs.max()) + 1] / norm
    seq[np.arange(seq.shape[0])[:, None] > nmaxs] = 0.0
    seq[:, zero] = np.eye(seq.shape[0], 1)
    return seq[:, 0] if np.ndim(x) == 0 else seq
