"""Experiment configuration: strict JSON schema, defaults, key-path errors.

Unknown keys are rejected (naming the full key path), and so are keys the
chosen experiment does not read (``READS``). Validation fills every default,
so validating an already-resolved config is idempotent, and the run.json
emitted by the runner (resolved config plus ``version``/``backend`` metadata,
which the loader accepts and drops) round-trips to the same resolved config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .ensembles import _n_segments
from .lattice import (
    Boundary,
    DiagConvention,
    GaussianBeam,
    InitialState,
    LatticeSpec,
    SingleSite,
    TwoSite,
    _gaussian_envelope,
)
from .propagators import _CHEBYSHEV_TOL, _MAX_CHEBYSHEV_TOL, ZGrid


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key path."""


EXPERIMENTS = ("ballistic", "disorder", "boundary_sweep", "classical", "dephasing")
FORMATS = ("csv", "json", "pgm")

# the optional top-level keys each experiment reads; any other is rejected
READS = {
    "ballistic": ("initial_state", "propagator"),
    "disorder": ("initial_state", "disorder", "n_realizations", "master_seed"),
    "dephasing": ("initial_state", "dephasing", "n_realizations", "master_seed"),
    "boundary_sweep": ("sweep",),
    "classical": ("initial_state", "classical"),
}
_ALWAYS = ("experiment", "lattice", "zgrid", "output")
_METADATA = ("version", "backend")  # written by the runner, dropped on re-validation
_TOP_KEYS = {*_ALWAYS, *_METADATA, *(k for keys in READS.values() for k in keys)}


def _err(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_keys(d: dict, allowed, path: str) -> None:
    for k in sorted(d):
        if k not in allowed:
            _err(_join(path, k), "unknown key")


def _as_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        _err(path, f"expected an object, got {type(v).__name__}")
    return v


def _as_int(v, path: str, minimum=None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _err(path, f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        _err(path, f"must be >= {minimum}, got {v}")
    return v


def _as_float(v, path: str, minimum=None, exclusive_minimum=None, maximum=None) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _err(path, f"expected a number, got {v!r}")
    x = float(v)
    if not np.isfinite(x):
        _err(path, f"must be finite, got {v!r}")
    if minimum is not None and x < minimum:
        _err(path, f"must be >= {minimum}, got {v}")
    if exclusive_minimum is not None and x <= exclusive_minimum:
        _err(path, f"must be > {exclusive_minimum}, got {v}")
    if maximum is not None and x > maximum:
        _err(path, f"must be <= {maximum}, got {v}")
    return x


def _as_str(v, path: str, options=None) -> str:
    if not isinstance(v, str):
        _err(path, f"expected a string, got {v!r}")
    if options is not None and v not in options:
        _err(path, f"must be one of {list(options)}, got {v!r}")
    return v


def _float_or_vector(v, path: str, length: int, positive: bool) -> float | list:
    if isinstance(v, list):
        if len(v) != length:
            _err(path, f"expected {length} entries, got {len(v)}")
        out = []
        for i, item in enumerate(v):
            x = _as_float(item, f"{path}[{i}]")
            if positive and x <= 0.0:
                _err(f"{path}[{i}]", f"must be > 0, got {item}")
            out.append(x)
        return out
    x = _as_float(v, path)
    if positive and x <= 0.0:
        _err(path, f"must be > 0, got {v}")
    return x


def _resolve_lattice(raw: dict) -> dict:
    path = "lattice"
    _check_keys(raw, {"n_sites", "coupling", "beta", "boundary", "diag_convention"}, path)
    if "n_sites" not in raw:
        _err(_join(path, "n_sites"), "missing required key")
    n = _as_int(raw["n_sites"], _join(path, "n_sites"), minimum=2)
    boundary = _as_str(raw.get("boundary", "open"), _join(path, "boundary"), ("open", "periodic"))
    if boundary == "periodic" and n < 3:
        _err(_join(path, "n_sites"), "periodic boundary needs n_sites >= 3")
    n_bonds = n if boundary == "periodic" else n - 1
    coupling = _float_or_vector(raw.get("coupling", 1.0), _join(path, "coupling"), n_bonds, True)
    beta = _float_or_vector(raw.get("beta", 0.0), _join(path, "beta"), n, False)
    conv = _as_str(
        raw.get("diag_convention", "beta_as_given"),
        _join(path, "diag_convention"),
        ("beta_as_given", "minus_degree_gamma"),
    )
    return {
        "n_sites": n, "coupling": coupling, "beta": beta,
        "boundary": boundary, "diag_convention": conv,
    }


def _resolve_initial_state(raw: dict, n_sites: int) -> dict:
    path = "initial_state"
    kind = _as_str(raw.get("kind", "single_site"), _join(path, "kind"),
                   ("single_site", "two_site", "gaussian"))
    if kind == "single_site":
        _check_keys(raw, {"kind", "site"}, path)
        site = _as_int(raw.get("site", n_sites // 2), _join(path, "site"), minimum=0)
        if site >= n_sites:
            _err(_join(path, "site"), f"site {site} outside lattice of {n_sites} sites")
        return {"kind": kind, "site": site}
    if kind == "two_site":
        _check_keys(raw, {"kind", "sites", "relative_phase"}, path)
        sites = raw.get("sites")
        if not isinstance(sites, list) or len(sites) != 2:
            _err(_join(path, "sites"), "expected a pair [j0, j1]")
        j0 = _as_int(sites[0], _join(path, "sites[0]"), minimum=0)
        j1 = _as_int(sites[1], _join(path, "sites[1]"), minimum=0)
        if j0 >= n_sites or j1 >= n_sites:
            _err(_join(path, "sites"), f"sites {sites} outside lattice of {n_sites} sites")
        if j0 == j1:
            _err(_join(path, "sites"), "the two sites must differ")
        phase = _as_float(raw.get("relative_phase", 0.0), _join(path, "relative_phase"))
        return {"kind": kind, "sites": [j0, j1], "relative_phase": phase}
    _check_keys(raw, {"kind", "center", "width", "tilt"}, path)
    center = _as_float(raw.get("center", n_sites / 2.0), _join(path, "center"),
                       minimum=0.0, maximum=float(n_sites - 1))
    width = _as_float(raw.get("width", 3.0), _join(path, "width"), exclusive_minimum=0.0)
    # the launch is normalized by its sum of squares, which the site nearest the
    # centre dominates: if that site's envelope squared underflows, so does the sum
    peak = _gaussian_envelope(center - round(center), width)
    if not peak * peak >= np.finfo(np.float64).tiny:
        _err(_join(path, "width"),
             f"{width!r} is too narrow: the envelope underflows at the site nearest "
             f"center={center!r}")
    tilt = _as_float(raw.get("tilt", 0.0), _join(path, "tilt"))
    if not np.isfinite(tilt * (n_sites - 1)):
        _err(_join(path, "tilt"),
             f"{tilt!r} overflows: the phase tilt*j at the last site is not finite")
    return {"kind": kind, "center": center, "width": width, "tilt": tilt}


def _resolve_zgrid(raw: dict) -> dict:
    path = "zgrid"
    _check_keys(raw, {"start", "stop", "steps"}, path)
    if "stop" not in raw:
        _err(_join(path, "stop"), "missing required key")
    start = _as_float(raw.get("start", 0.0), _join(path, "start"), minimum=0.0)
    stop = _as_float(raw["stop"], _join(path, "stop"))
    if stop <= start:
        _err(_join(path, "stop"), f"must exceed start={start}")
    steps = _as_int(raw.get("steps", 101), _join(path, "steps"), minimum=1)
    grid = {"start": start, "stop": stop, "steps": steps}
    try:
        _zgrid(grid)
    except ValueError:
        _err(_join(path, "steps"),
             f"{steps} steps from start={start!r} to stop={stop!r} do not give strictly "
             f"increasing z values")
    return grid


def _zgrid(g: dict) -> ZGrid:
    if g["steps"] == 1:
        return ZGrid(np.array([g["stop"]]))
    return ZGrid(np.linspace(g["start"], g["stop"], g["steps"]))


def _resolve_propagator(raw: dict) -> dict:
    path = "propagator"
    _check_keys(raw, {"method", "tol"}, path)
    method = _as_str(raw.get("method", "eigen"), _join(path, "method"), ("eigen", "chebyshev"))
    tol = _as_float(raw.get("tol", _CHEBYSHEV_TOL), _join(path, "tol"),
                    exclusive_minimum=0.0, maximum=_MAX_CHEBYSHEV_TOL)
    if method == "eigen" and tol != _CHEBYSHEV_TOL:
        _err(_join(path, "tol"), "read only by method 'chebyshev'")
    return {"method": method, "tol": tol}


def _resolve_common(raw: dict, n_sites: int) -> dict:
    return {
        "initial_state": _resolve_initial_state(
            _as_dict(raw.get("initial_state", {}), "initial_state"), n_sites),
        "propagator": _resolve_propagator(_as_dict(raw.get("propagator", {}), "propagator")),
        "n_realizations": _as_int(raw.get("n_realizations", 1), "n_realizations", minimum=1),
        "master_seed": _as_int(raw.get("master_seed", 0), "master_seed", minimum=0),
    }


def _resolve_disorder(raw: dict) -> dict:
    path = "disorder"
    _check_keys(raw, {"offdiag_strength", "diag_strength"}, path)
    w = _as_float(raw.get("offdiag_strength", 0.0), _join(path, "offdiag_strength"), minimum=0.0)
    if w >= 1.0:
        _err(_join(path, "offdiag_strength"),
             f"must satisfy w < 1 so couplings stay positive, got {w}")
    big_w = _as_float(raw.get("diag_strength", 0.0), _join(path, "diag_strength"), minimum=0.0)
    return {"offdiag_strength": w, "diag_strength": big_w}


def _resolve_dephasing(raw: dict, zstop: float) -> dict:
    path = "dephasing"
    _check_keys(raw, {"segment_length", "phase_strength"}, path)
    for key in ("segment_length", "phase_strength"):
        if key not in raw:
            _err(_join(path, key), "missing required key")
    seg = _as_float(raw["segment_length"], _join(path, "segment_length"), exclusive_minimum=0.0)
    strength = _as_float(raw["phase_strength"], _join(path, "phase_strength"), minimum=0.0)
    try:
        _n_segments(zstop, seg)
    except ValueError as exc:
        _err(_join(path, "segment_length"), str(exc))
    return {"segment_length": seg, "phase_strength": strength}


def _resolve_sweep(raw: dict, n_sites: int) -> dict:
    path = "sweep"
    _check_keys(raw, {"input_min", "input_max"}, path)
    lo = _as_int(raw.get("input_min", 0), _join(path, "input_min"), minimum=0)
    hi = _as_int(raw.get("input_max", 20), _join(path, "input_max"), minimum=0)
    if hi < lo:
        _err(_join(path, "input_max"), f"must be >= input_min={lo}")
    if hi >= n_sites:
        _err(_join(path, "input_max"), f"site {hi} outside lattice of {n_sites} sites")
    return {"input_min": lo, "input_max": hi}


def _resolve_classical(raw: dict, default_gamma: float) -> dict:
    path = "classical"
    _check_keys(raw, {"gamma"}, path)
    gamma = _as_float(raw.get("gamma", default_gamma), _join(path, "gamma"),
                      exclusive_minimum=0.0)
    return {"gamma": gamma}


def _resolve_output(raw: dict) -> dict:
    path = "output"
    _check_keys(raw, {"directory", "formats"}, path)
    directory = _as_str(raw.get("directory", "out"), _join(path, "directory"))
    if not directory:
        _err(_join(path, "directory"), "must be nonempty")
    formats = raw.get("formats", list(FORMATS))
    if not isinstance(formats, list):
        _err(_join(path, "formats"), f"expected a list, got {formats!r}")
    for i, f in enumerate(formats):
        _as_str(f, f"{path}.formats[{i}]", FORMATS)
    if len(set(formats)) != len(formats):
        _err(_join(path, "formats"), "duplicate entries")
    return {"directory": directory, "formats": list(formats)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (plain JSON-able values).

    Fields the experiment does not read (``READS``) hold their defaults."""

    experiment: str
    lattice: dict
    initial_state: dict
    zgrid: dict
    propagator: dict
    n_realizations: int
    master_seed: int
    output: dict
    disorder: dict | None = None
    dephasing: dict | None = None
    sweep: dict | None = None
    classical: dict | None = None

    # --- domain-object builders ---

    def lattice_spec(self) -> LatticeSpec:
        lat = self.lattice
        return LatticeSpec(n_sites=lat["n_sites"], coupling=lat["coupling"], beta=lat["beta"],
                           boundary=Boundary(lat["boundary"]),
                           diag_convention=DiagConvention(lat["diag_convention"]))

    def initial(self) -> InitialState:
        ini = self.initial_state
        if ini["kind"] == "single_site":
            return SingleSite(ini["site"])
        if ini["kind"] == "two_site":
            return TwoSite(ini["sites"][0], ini["sites"][1], ini["relative_phase"])
        return GaussianBeam(ini["center"], ini["width"], ini["tilt"])

    def zgrid_obj(self) -> ZGrid:
        return _zgrid(self.zgrid)

    def to_dict(self) -> dict[str, Any]:
        """The keys this experiment reads, so run.json records what ran."""
        out: dict[str, Any] = {}
        for key in _ALWAYS + READS[self.experiment]:
            value = getattr(self, key)
            out[key] = dict(value) if isinstance(value, dict) else value
        return out


def load_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict, fill defaults, and resolve it."""
    raw = _as_dict(raw, "config")
    _check_keys(raw, _TOP_KEYS, "")
    if "experiment" not in raw:
        _err("experiment", "missing required key")
    experiment = _as_str(raw["experiment"], "experiment", EXPERIMENTS)
    if "lattice" not in raw:
        _err("lattice", "missing required key")
    lattice = _resolve_lattice(_as_dict(raw["lattice"], "lattice"))
    n_sites = lattice["n_sites"]
    if "zgrid" not in raw:
        _err("zgrid", "missing required key")
    zgrid = _resolve_zgrid(_as_dict(raw["zgrid"], "zgrid"))
    output = _resolve_output(_as_dict(raw.get("output", {}), "output"))
    # every experiment resolves these four; a key the experiment does not read
    # is rejected, so a config never silently does nothing, except at its
    # default: run.json files written before READS echoed all four
    common = _resolve_common(raw, n_sites)
    defaults = _resolve_common({}, n_sites)
    for key in sorted(set(raw) - {*_ALWAYS, *_METADATA, *READS[experiment]}):
        if key not in defaults or common[key] != defaults[key]:
            _err(key, f"not read by experiment '{experiment}'")

    if experiment == "classical":
        if common["initial_state"]["kind"] != "single_site":
            _err("initial_state.kind", "classical experiment needs a single_site start")
        # the closed form sees only the window size and the hop rate
        for key, default in (("beta", 0.0), ("boundary", "open"),
                             ("diag_convention", "beta_as_given")):
            if lattice[key] != default:
                _err(_join("lattice", key), "not read by experiment 'classical'")
    if experiment == "boundary_sweep" and lattice["boundary"] != "open":
        _err("lattice.boundary", "boundary_sweep needs an open chain (a reflecting edge)")

    block = {}  # the experiment's own block, if it has one
    if experiment == "disorder":
        if "disorder" not in raw:
            _err("disorder", "missing block required by the disorder experiment")
        block["disorder"] = _resolve_disorder(_as_dict(raw["disorder"], "disorder"))
        # the smallest coupling a realization can draw must stay a normal float
        w = block["disorder"]["offdiag_strength"]
        smallest = float(np.min(lattice["coupling"])) * (1.0 - w)
        if not smallest >= np.finfo(np.float64).tiny:
            _err(_join("lattice", "coupling"),
                 f"disorder can draw a coupling of {smallest!r}, below the smallest "
                 f"normal float")
    elif experiment == "dephasing":
        if "dephasing" not in raw:
            _err("dephasing", "missing block required by the dephasing experiment")
        block["dephasing"] = _resolve_dephasing(_as_dict(raw["dephasing"], "dephasing"),
                                                zgrid["stop"])
    elif experiment == "boundary_sweep":
        block["sweep"] = _resolve_sweep(_as_dict(raw.get("sweep", {}), "sweep"), n_sites)
    elif experiment == "classical":
        block["classical"] = _resolve_classical(_as_dict(raw.get("classical", {}), "classical"),
                                                float(np.mean(lattice["coupling"])))

    return ExperimentConfig(experiment=experiment, lattice=lattice, zgrid=zgrid,
                            output=output, **common, **block)


def validate_config(path) -> ExperimentConfig:
    """Load, validate and resolve a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return load_config(raw)
