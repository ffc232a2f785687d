"""Output checks for every workload.

Each check reads the artifact files the program wrote and compares them with
a computation made here, apart from the program (closed forms from
``scipy.special.jv``, a dense ``numpy.linalg.eigh`` solver, a Taylor-series
propagator), or with a property the method must have. Nothing is compared
with a stored copy of earlier output. A method that agrees with the eigen
reference within 1e-10 passes every check.

Each ``check_*`` function returns a list of failure messages; empty means
the output is correct.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.special import jv

TOL = 1e-10  # agreement with an independent reference, per intensity entry
ROW_SUM_TOL = 1e-8


def read_matrix(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """First column and the remaining columns of a wavewalk CSV matrix."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return data[:, 0], data[:, 1:]


def read_observables(path: Path) -> dict[str, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {"z": data[:, 0], "variance": data[:, 1], "pr": data[:, 2]}


def _zvals(p: dict) -> np.ndarray:
    return np.linspace(0.0, p["z_stop"], p["z_steps"])


def _compare(label: str, got: np.ndarray, ref: np.ndarray, tol: float = TOL) -> list[str]:
    if got.shape != ref.shape:
        return [f"{label}: shape {got.shape}, expected {ref.shape}"]
    err = float(np.max(np.abs(got - ref)))
    if not err <= tol:
        return [f"{label}: max deviation {err:.3e} exceeds {tol:g}"]
    return []


def _free_amplitude(n: np.ndarray, x) -> np.ndarray:
    """Free single-site amplitude (-i)^|n| J_|n|(x) on the infinite chain."""
    m = np.abs(n)
    return (-1j) ** (m % 4) * jv(m, x)


# --- ballistic ---------------------------------------------------------------


def check_ballistic(p: dict, art: Path) -> list[str]:
    z, rows = read_matrix(art / "intensity.csv")
    zref = _zvals(p)
    fails = _compare("intensity.csv z column", z, zref, tol=1e-12)
    d = np.arange(p["n_sites"]) - p["j0"]
    ref = jv(d[None, :], 2.0 * p["coupling"] * zref[:, None]) ** 2
    fails += _compare("intensity vs |J_{j-j0}(2Cz)|^2", rows, ref)
    if not (art / "run.json").is_file():
        fails.append("run.json missing")
    return fails


# --- boundary carpet -----------------------------------------------------------


def mirror_intensity(j0, c: float, z, n_sites: int) -> np.ndarray:
    """|psi_j|^2 on a chain with a hard wall left of site 0: free source at j0
    minus its image at -2 - j0, so that psi vanishes on the virtual site -1."""
    j = np.arange(n_sites)
    j0 = np.asarray(j0)[..., None]
    x = 2.0 * c * np.asarray(z)[..., None]
    psi = _free_amplitude(j - j0, x) - _free_amplitude(j + j0 + 2, x)
    return np.abs(psi) ** 2


def check_boundary(p: dict, art: Path) -> list[str]:
    n, c = p["n_sites"], p["coupling"]
    zref = _zvals(p)
    inputs, carpet = read_matrix(art / "carpet.csv")
    fails = _compare("carpet.csv input column", inputs, np.arange(p["n_inputs"], dtype=float),
                     tol=1e-12)
    ref = mirror_intensity(np.arange(p["n_inputs"]), c, zref[-1], n)
    fails += _compare("carpet vs mirror-source closed form", carpet, ref)
    z, rows = read_matrix(art / "intensity.csv")
    fails += _compare("intensity.csv z column", z, zref, tol=1e-12)
    fails += _compare("wall-adjacent rows vs mirror-source closed form", rows,
                      mirror_intensity(0, c, zref, n))
    if carpet.size:
        fails += _check_pgm(art / "carpet.pgm", carpet)
    return fails


def _check_pgm(path: Path, carpet: np.ndarray) -> list[str]:
    """The heatmap is the carpet quantized to 0..255 against its maximum."""
    tokens = [t for ln in path.read_text().splitlines() if not ln.startswith("#")
              for t in ln.split()]
    if tokens[:1] != ["P2"] or [int(t) for t in tokens[1:4]] != [carpet.shape[1],
                                                                 carpet.shape[0], 255]:
        return [f"carpet.pgm: header {tokens[:4]} does not match carpet {carpet.shape}"]
    pixels = np.array(tokens[4:], dtype=int).reshape(carpet.shape)
    expected = np.clip(np.rint(carpet / carpet.max() * 255.0), 0, 255)
    bad = int(np.count_nonzero(pixels != expected))
    return [f"carpet.pgm: {bad} pixels differ from the quantized carpet"] if bad else []


# --- static disorder -----------------------------------------------------------


def realization_stream(master_seed: int, k: int) -> np.random.Generator:
    """The documented per-realization stream: SeedSequence(master_seed, spawn_key=(k,))."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(k,)))


def _dense_final_intensity(hams: np.ndarray, j0: int, z: float) -> np.ndarray:
    w, v = np.linalg.eigh(hams)
    psi = np.einsum("rjm,rm->rj", v, np.exp(-1j * w * z) * v[:, j0, :])
    return np.abs(psi) ** 2


def disorder_reference(p: dict, chunk: int = 100) -> np.ndarray:
    """Mean final-z intensity over all realizations, recomputed with dense eigh.

    Realization k draws its coupling factors u_c ~ U[-1, 1] (n-1 of them)
    first, then its beta factors (n of them), from the documented stream."""
    n, w, c = p["n_sites"], p["offdiag_strength"], p["coupling"]
    total = np.zeros(n)
    idx = np.arange(n - 1)
    for lo in range(0, p["n_realizations"], chunk):
        ks = range(lo, min(lo + chunk, p["n_realizations"]))
        hams = np.zeros((len(ks), n, n))
        for r, k in enumerate(ks):
            rng = realization_stream(p["master_seed"], k)
            bonds = c * (1.0 + w * rng.uniform(-1.0, 1.0, size=n - 1))
            rng.uniform(-1.0, 1.0, size=n)  # beta factors; diag_strength is 0
            hams[r, idx, idx + 1] = bonds
            hams[r, idx + 1, idx] = bonds
        total += _dense_final_intensity(hams, p["j0"], p["z_stop"]).sum(axis=0)
    return total / p["n_realizations"]


def tail_fit(profile: np.ndarray, j0: int, window: tuple[int, int] = (10, 30)):
    """Slope and r^2 of ln p_j against |j - j0| over both flanks of the window."""
    dist = np.abs(np.arange(profile.size) - j0)
    mask = (dist >= window[0]) & (dist <= window[1])
    x = dist[mask].astype(float)
    y = np.log(np.maximum(profile[mask], 1e-300))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 0.0
    return float(slope), r2


def clean_participation_ratio(p: dict) -> float:
    n = p["n_sites"]
    h = np.diag(np.full(n - 1, p["coupling"]), 1)
    inten = _dense_final_intensity((h + h.T)[None], p["j0"], p["z_stop"])[0]
    return float(1.0 / np.sum(inten**2))


def check_disorder(p: dict, art: Path) -> list[str]:
    z, rows = read_matrix(art / "intensity.csv")
    fails = _compare("intensity.csv z column", z, _zvals(p), tol=1e-12)
    final = rows[-1]
    fails += _compare("final-z mean vs dense recomputation", final, disorder_reference(p))
    slope, r2 = tail_fit(final, p["j0"])
    if not (slope < 0.0 and r2 >= 0.95):
        fails.append(f"tail fit: slope {slope:.4g} (< 0 needed), r^2 {r2:.4f} (>= 0.95 needed)")
    pr = read_observables(art / "observables.csv")["pr"][-1]
    clean = clean_participation_ratio(p)
    if not pr < 0.5 * clean:
        fails.append(f"participation ratio {pr:.4g} not below half the clean chain's {clean:.4g}")
    return fails


# --- dephasing -------------------------------------------------------------------


def _taylor_step(psi: np.ndarray, diag: np.ndarray, off: float, dt: float) -> np.ndarray:
    """exp(-i H dt) psi for a batch of tridiagonal H (rows of ``diag``), by its
    Taylor series summed until the terms drop below 1e-18."""
    out = psi.copy()
    term = psi
    for m in range(1, 200):
        h_term = diag * term
        h_term[:, :-1] += off * term[:, 1:]
        h_term[:, 1:] += off * term[:, :-1]
        term = (-1j * dt / m) * h_term
        out += term
        if np.max(np.abs(term)) < 1e-18:
            return out
    raise RuntimeError("Taylor series did not converge")


def dephasing_reference(p: dict) -> np.ndarray:
    """Mean intensity over every noise history, recomputed history by history.

    History k draws its site noise as one (n_segments, n_sites) array from
    U[-W/2, W/2] out of the documented stream; segment s then evolves under
    H0 + diag(noise[s]) for segment_length."""
    n, dz = p["n_sites"], p["segment_length"]
    zvals = _zvals(p)
    n_seg = int(round(p["z_stop"] / dz))
    half = 0.5 * p["phase_strength"]
    noise = np.stack([
        realization_stream(p["master_seed"], k).uniform(-half, half, size=(n_seg, n))
        for k in range(p["n_realizations"])
    ])
    psi = np.zeros((p["n_realizations"], n), complex)
    psi[:, p["j0"]] = 1.0
    out = np.empty((zvals.size, n))
    gi = 0
    for s in range(n_seg):
        z_start, z_end = s * dz, (s + 1) * dz
        while gi < zvals.size and zvals[gi] <= z_end + 1e-9:
            dt = zvals[gi] - z_start
            state = psi if dt <= 0.0 else _taylor_step(psi, noise[:, s], p["coupling"], dt)
            out[gi] = np.mean(np.abs(state) ** 2, axis=0)
            gi += 1
        psi = _taylor_step(psi, noise[:, s], p["coupling"], dz)
    return out


def loglog_exponent(z: np.ndarray, var: np.ndarray, lo: float = 2.0, hi: float = 20.0) -> float:
    mask = (z >= lo) & (z <= hi)
    slope, _ = np.polyfit(np.log(z[mask]), np.log(var[mask]), 1)
    return float(slope)


def check_dephasing(p: dict, art: Path) -> list[str]:
    z, rows = read_matrix(art / "intensity.csv")
    fails = _compare("intensity.csv z column", z, _zvals(p), tol=1e-12)
    fails += _compare("row sums", rows.sum(axis=1), np.ones(rows.shape[0]), tol=ROW_SUM_TOL)
    obs = read_observables(art / "observables.csv")
    expo = loglog_exponent(obs["z"], obs["variance"])
    if not 1.0 <= expo <= 1.2:
        fails.append(f"variance exponent over z in [2, 20] is {expo:.4f}, outside [1.0, 1.2]")
    fails += _compare("mean intensity vs independently recomputed histories", rows,
                      dephasing_reference(p))
    return fails


CHECKS = {
    "disorder_ensemble": check_disorder,
    "dephasing_ensemble": check_dephasing,
    "ballistic_n10k": check_ballistic,
    "boundary_carpet": check_boundary,
}
