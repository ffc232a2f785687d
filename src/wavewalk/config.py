"""Experiment configuration: strict JSON schema, defaults, key-path errors.

One table, ``_SCHEMA``, gives each key's kind, default and every bound on
that key alone, ``n_sites``-dependent ones included; one resolver,
``_resolve``, walks it and refuses unknown keys (naming the full key path).
``load_config`` keeps only the rules that tie keys together, the resource
ceilings among them, and refuses a key the experiment does not read
(``READS``). Validation fills every default, so validating an
already-resolved config is idempotent, and the run.json emitted by the
runner (resolved config plus ``version``/``backend`` metadata, which the
loader accepts and drops) round-trips to the same resolved config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .ensembles import _block, _disorder_pad, _plan_segments, _segment_count
from .lattice import (
    MAX_SITES,
    Boundary,
    DiagConvention,
    GaussianBeam,
    InitialState,
    LatticeSpec,
    SingleSite,
    TwoSite,
    _gaussian_envelope,
)
from .propagators import (
    _CHEBYSHEV_TOL,
    _MAX_CHEBYSHEV_TOL,
    _REALIZATION_WORK,
    ZGrid,
    _chebyshev_work,
)


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
_ECHOED = ("initial_state", "propagator", "n_realizations", "master_seed")

_REQUIRED = object()  # the default of a key that has none

# ensemble size ceiling, 100 times the largest committed ensemble (1 000);
# the work ceiling bounds what a run may cost below it
_MAX_REALIZATIONS = 100_000


def _n_sites(done: dict) -> int:
    return done["lattice"]["n_sites"]


def _last_site(done: dict) -> int:
    return _n_sites(done) - 1


# block -> key -> (kind, default, bounds). "" is the top level, and each
# initial_state kind adds the keys of "initial_state.<kind>". A default, or a
# bound's value, may be a function of the blocks resolved before it.
_SCHEMA = {
    "": {
        "experiment": ("str", _REQUIRED, (("in", list(EXPERIMENTS)),)),
        "lattice": ("object", _REQUIRED, ()),
        "zgrid": ("object", _REQUIRED, ()),
        "output": ("object", {}, ()),
        "initial_state": ("object", {}, ()),
        "propagator": ("object", {}, ()),
        "n_realizations": ("int", 1, ((">=", 1), ("<=", _MAX_REALIZATIONS))),
        "master_seed": ("int", 0, ((">=", 0),)),
        "disorder": ("object", {}, ()),
        "dephasing": ("object", {}, ()),
        "sweep": ("object", {}, ()),
        "classical": ("object", {}, ()),
    },
    "lattice": {
        "n_sites": ("int", _REQUIRED, ((">=", 2), ("<=", MAX_SITES))),
        "boundary": ("str", "open", (("in", ["open", "periodic"]),)),
        "coupling": ("floats", 1.0, ((">", 0),)),
        "beta": ("floats", 0.0, ()),
        "diag_convention": ("str", "beta_as_given",
                            (("in", ["beta_as_given", "minus_degree_gamma"]),)),
    },
    "initial_state": {
        "kind": ("str", "single_site", (("in", ["single_site", "two_site", "gaussian"]),)),
    },
    "initial_state.single_site": {
        "site": ("int", lambda done: _n_sites(done) // 2, ((">=", 0), ("<=", _last_site))),
    },
    "initial_state.two_site": {
        "sites": ("pair", _REQUIRED, ((">=", 0), ("<=", _last_site))),
        "relative_phase": ("float", 0.0, ()),
    },
    "initial_state.gaussian": {
        "center": ("float", lambda done: _n_sites(done) / 2.0,
                   ((">=", 0.0), ("<=", _last_site))),
        "width": ("float", 3.0, ((">", 0.0),)),
        "tilt": ("float", 0.0, ()),
    },
    "zgrid": {
        "start": ("float", 0.0, ((">=", 0.0),)),
        "stop": ("float", _REQUIRED, ()),
        # 8 MB of z values at most, checked before the grid is built
        "steps": ("int", 101, ((">=", 1), ("<=", 1_000_000))),
    },
    "propagator": {
        "method": ("str", "eigen", (("in", ["eigen", "chebyshev"]),)),
        "tol": ("float", _CHEBYSHEV_TOL, ((">", 0.0), ("<=", _MAX_CHEBYSHEV_TOL))),
    },
    "disorder": {
        "offdiag_strength": ("float", 0.0, ((">=", 0.0),)),
        "diag_strength": ("float", 0.0, ((">=", 0.0),)),
    },
    "dephasing": {
        "segment_length": ("float", _REQUIRED, ((">", 0.0),)),
        "phase_strength": ("float", _REQUIRED, ((">=", 0.0),)),
    },
    "sweep": {
        "input_min": ("int", 0, ((">=", 0),)),
        "input_max": ("int", 20, ((">=", 0), ("<=", _last_site))),
    },
    "classical": {
        "gamma": ("float", lambda done: float(np.mean(done["lattice"]["coupling"])),
                  ((">", 0.0),)),
    },
    "output": {
        "directory": ("str", "out", (("nonempty", None),)),
        "formats": ("strs", list(FORMATS), (("in", list(FORMATS)),)),
    },
}

# bound -> (test, message)
_OPS = {
    ">=": (lambda x, b: x >= b, "must be >= {b}, got {v}"),
    ">": (lambda x, b: x > b, "must be > {b}, got {v}"),
    "<=": (lambda x, b: x <= b, "must be <= {b}, got {v}"),
    "in": (lambda x, b: x in b, "must be one of {b}, got {v!r}"),
    "nonempty": (lambda x, b: x != "", "must be nonempty"),
}
_ITEM = {"floats": "float", "pair": "int", "strs": "str"}  # list kinds and their entries
_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"), "str": (str, "a string")}


def _err(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _value(kind: str, v, path: str, bounds=()):
    """``v`` checked to be a ``kind`` within ``bounds``. A list kind checks
    every entry: "floats" is a number or a list of them, "pair" two integers,
    "strs" distinct strings."""
    if kind == "object":
        if not isinstance(v, dict):
            _err(path, f"expected an object, got {type(v).__name__}")
        return v
    if kind in _ITEM and (kind != "floats" or isinstance(v, list)):
        if kind == "pair" and not (isinstance(v, list) and len(v) == 2):
            _err(path, "expected a pair [j0, j1]")
        if not isinstance(v, list):
            _err(path, f"expected a list, got {v!r}")
        out = [_value(_ITEM[kind], x, f"{path}[{i}]", bounds) for i, x in enumerate(v)]
        if kind == "strs" and len(set(out)) != len(out):
            _err(path, "duplicate entries")
        return out
    kind = _ITEM.get(kind, kind)
    types, name = _TYPES[kind]
    if not isinstance(v, types) or (kind != "str" and isinstance(v, bool)):
        _err(path, f"expected {name}, got {v!r}")
    x = v
    if kind == "float":
        if isinstance(v, float):  # numpy's float64 too, which resolves as a Python float
            v = float(v)
        x = float(v) if abs(v) < 2 ** 1024 else math.inf
        if not math.isfinite(x):
            _err(path, f"must be finite, got {v!r}")
    for op, b in bounds:
        test, msg = _OPS[op]
        if not test(x, b):
            _err(path, msg.format(b=b, v=v))
    return x


def _field(raw: dict, path: str, key: str, spec: tuple, done: dict):
    kind, default, bounds = spec
    if key in raw:
        v = raw[key]
    elif default is _REQUIRED:
        _err(_join(path, key), "missing required key")
    else:
        v = default(done) if callable(default) else default
    return _value(kind, v, _join(path, key),
                  [(op, b(done) if callable(b) else b) for op, b in bounds])


def _resolve(raw, path: str, table: dict, done: dict) -> dict:
    """``raw`` resolved against ``table``: unknown keys are refused, missing
    ones take their default or are named, and every value is checked. A
    ``kind`` key picks the further keys of its variant block first."""
    raw = _value("object", raw, path)
    if "kind" in table:
        table = {**table, **_SCHEMA[f"{path}.{_field(raw, path, 'kind', table['kind'], done)}"]}
    for key in sorted(set(raw) - set(table)):
        _err(_join(path, key), "unknown key")
    return {key: _field(raw, path, key, spec, done) for key, spec in table.items()}


def _zgrid(g: dict) -> ZGrid:
    if g["steps"] == 1:
        return ZGrid(np.array([g["stop"]]))
    return ZGrid(np.linspace(g["start"], g["stop"], g["steps"]))


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


# the eigen path holds the N x N eigenvectors, 8*N^2 bytes, and while it
# diagonalizes an open chain, the workspace of scipy's eigh_tridiagonal
# (LAPACK stevd: 1 + 4N + N^2 doubles) as well: 16*N^2 bytes. A ring's dense
# eigh also holds H, its own copy of H and 2*N^2 doubles of workspace
# (syevd): 40*N^2 bytes (measured: 5.1 times the eigenvector bytes at 4 000
# sites). At most 512 MiB, so N <= 5 792 on an open chain and N <= 3 663 on
# a ring; the committed configs, benchmark workloads and test configs
# diagonalize at most 201 sites
_MAX_EIGEN_BYTES = 2 ** 29
# output cells, z rows (plus carpet rows) times sites: a cell costs 24-56 B
# in the run's states and intensities and up to 25 B of CSV, so at most about
# 0.6 GB each; the committed configs, benchmark workloads and test configs
# have at most 1.01e6 (ballistic_n10k)
_MAX_CELLS = 10_000_000

# the one ceiling on the work of a Chebyshev run: the sum of _chebyshev_work
# over the light-cone calls its engine makes, plus _REALIZATION_WORK per
# disorder realization (_check_chebyshev_work), in units of about one site
# update of the recurrence. Near the ceiling a unit took 2.5-13 ns on 2
# cores, in-process and with the artifacts written, so an admitted run takes
# at most about 4.5 s. Admitted maxima: configs/disorder.json and the
# disorder_ensemble workload 1.1e8, configs/dephasing.json and the
# dephasing_ensemble workload 1.1e8 (toy 5.2e7), criterion 4 3.5e7,
# ballistic_n10k 6.0e6, boundary_carpet 3.2e6
_MAX_WORK = 350_000_000


def _check_chebyshev_work(cfg: dict, zvals, minus_degree: bool) -> None:
    """Refuse a Chebyshev run whose estimated work is above ``_MAX_WORK``,
    before anything is allocated. The estimate is ``_chebyshev_work`` summed
    over the light-cone calls the run's engine makes, on a bound of the
    engine's enclosure half-width: half the spread of the diagonal plus the
    largest disc radius, at most twice the largest coupling, padded as the
    engine pads it. An ensemble charges each segment of its plan once per
    block of ``_block`` realizations, the first from the launch sites and
    later ones on the whole lattice (``_plan_segments``): a disorder
    realization is one segment as long as the grid, a noise history one per
    noise segment. Each disorder realization adds the fixed cost of its
    stream and draw."""
    lattice, zgrid = cfg["lattice"], cfg["zgrid"]
    n, periodic = lattice["n_sites"], lattice["boundary"] == "periodic"
    spread = (float(np.mean(lattice["coupling"])) if minus_degree
              else float(np.ptp(lattice["beta"])))
    halfwidth = 0.5 * spread + 2.0 * float(np.max(lattice["coupling"]))
    ini = cfg["initial_state"]
    if ini["kind"] == "single_site":
        a = b = ini["site"]
    elif ini["kind"] == "two_site":
        a, b = sorted(ini["sites"])
    else:  # a Gaussian launch may reach every site
        a, b = 0, n - 1
    experiment, nr, key, fixed = cfg["experiment"], cfg["n_realizations"], "zgrid.stop", 0

    def charge(calls, blocks=1):
        # calls: the (first and last site, rows, z values) of each call
        work = fixed + sum(_chebyshev_work(n, periodic, a, b, rows, halfwidth, zs, blocks)
                           for a, b, rows, zs in calls)
        if work > _MAX_WORK:
            runs = f"{nr} realizations to z = " if key == "n_realizations" else ""
            _err(key, f"{runs}{zgrid['stop']!r} with {zgrid['steps']} steps needs "
                 f"work above the ceiling of {_MAX_WORK:.1e} units")

    if experiment == "dephasing":  # with noise or without, a whole number of segments
        dz = cfg["dephasing"]["segment_length"]
        try:
            n_segments = _segment_count(float(zvals[-1]), dz)
        except ValueError as exc:
            _err("dephasing.segment_length", str(exc))
    if experiment == "boundary_sweep":
        # a carpet block of every input at zgrid.stop, then the first input's launch
        lo, hi = cfg["sweep"]["input_min"], cfg["sweep"]["input_max"]
        return charge([(lo, hi, hi - lo + 1, zvals[-1:]), (lo, lo, 1, zvals)])
    if experiment == "disorder":
        halfwidth += _disorder_pad(lattice["coupling"], minus_degree, **cfg["disorder"])
        key, fixed = "n_realizations", nr * _REALIZATION_WORK
        plan = _plan_segments(zvals, zvals[-1])
    elif experiment == "dephasing" and cfg["dephasing"]["phase_strength"] > 0.0:
        halfwidth += 0.5 * cfg["dephasing"]["phase_strength"]
        # lower bounds on the plan's work, so that a grid or segments too many
        # to plan are refused before they are planned: each grid row is an
        # offset >= 0 in one segment's call, and each segment's call holds its
        # end, charged from the launch sites on whole blocks of the largest
        # block any plan may take
        rows = min(nr, _block(n, 1))
        charge([(a, b, rows, np.zeros(zvals.size))], nr // rows)
        charge([(a, b, rows, np.array([dz]))], n_segments * (nr // rows))
        plan = _plan_segments(zvals, dz)
    else:  # one launch: a ballistic run or the no-noise dephasing control
        return charge([(a, b, 1, zvals)])
    rows = min(nr, _block(n, max(len(offsets) for _, offsets in plan)))
    (_, first), *later = plan
    charge([(a, b, rows, first)] + [(0, n - 1, rows, offsets) for _, offsets in later],
           -(-nr // rows))


def load_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict, fill defaults, and resolve it."""
    raw = {k: v for k, v in _value("object", raw, "config").items() if k not in _METADATA}
    cfg = _resolve(raw, "", _SCHEMA[""], {})
    experiment = cfg["experiment"]
    lattice = cfg["lattice"] = _resolve(cfg["lattice"], "lattice", _SCHEMA["lattice"], cfg)
    n_sites, periodic = lattice["n_sites"], lattice["boundary"] == "periodic"
    if periodic and n_sites < 3:
        _err("lattice.n_sites", "periodic boundary needs n_sites >= 3")
    for key, length in (("coupling", n_sites if periodic else n_sites - 1), ("beta", n_sites)):
        if isinstance(lattice[key], list) and len(lattice[key]) != length:
            _err(_join("lattice", key), f"expected {length} entries, got {len(lattice[key])}")

    zgrid = cfg["zgrid"] = _resolve(cfg["zgrid"], "zgrid", _SCHEMA["zgrid"], cfg)
    if zgrid["stop"] <= zgrid["start"]:
        _err("zgrid.stop", f"must exceed start={zgrid['start']}")
    try:
        zvals = _zgrid(zgrid).values
    except ValueError:
        _err("zgrid.steps", f"{zgrid['steps']} steps from start={zgrid['start']!r} to "
             f"stop={zgrid['stop']!r} do not give strictly increasing z values")
    cfg["output"] = _resolve(cfg["output"], "output", _SCHEMA["output"], cfg)

    ini = cfg["initial_state"] = _resolve(cfg["initial_state"], "initial_state",
                                          _SCHEMA["initial_state"], cfg)
    if ini["kind"] == "two_site" and ini["sites"][0] == ini["sites"][1]:
        _err("initial_state.sites", "the two sites must differ")
    if ini["kind"] == "gaussian":
        # the launch is normalized by its sum of squares, which the site nearest
        # the centre dominates: if that site's envelope squared underflows, so
        # does the sum
        center, width, tilt = ini["center"], ini["width"], ini["tilt"]
        peak = _gaussian_envelope(center - round(center), width)
        if not peak * peak >= np.finfo(np.float64).tiny:
            _err("initial_state.width",
                 f"{width!r} is too narrow: the envelope underflows at the site nearest "
                 f"center={center!r}")
        if not np.isfinite(tilt * (n_sites - 1)):
            _err("initial_state.tilt",
                 f"{tilt!r} overflows: the phase tilt*j at the last site is not finite")
    prop = cfg["propagator"] = _resolve(cfg["propagator"], "propagator",
                                        _SCHEMA["propagator"], cfg)
    if prop["method"] == "eigen" and prop["tol"] != _CHEBYSHEV_TOL:
        _err("propagator.tol", "read only by method 'chebyshev'")

    # a key the experiment does not read is rejected, so a config never
    # silently does nothing, except at its default: run.json files written
    # before READS echoed the _ECHOED keys for every experiment
    for key in sorted(set(raw) - {*_ALWAYS, *READS[experiment]}):
        if key not in _ECHOED or cfg[key] != (
                _resolve({}, key, _SCHEMA[key], cfg) if key in _SCHEMA else _SCHEMA[""][key][1]):
            _err(key, f"not read by experiment '{experiment}'")

    if experiment == "classical":
        if ini["kind"] != "single_site":
            _err("initial_state.kind", "classical experiment needs a single_site start")
        # the closed form sees only the window size and the hop rate
        for key in ("beta", "boundary", "diag_convention"):
            if lattice[key] != _SCHEMA["lattice"][key][1]:
                _err(_join("lattice", key), "not read by experiment 'classical'")
    # minus_degree_gamma sets the diagonal to -degree * mean coupling: betas are not read
    minus_degree = lattice["diag_convention"] == "minus_degree_gamma"
    unread = f"not read by experiment '{experiment}' under diag_convention 'minus_degree_gamma'"
    if minus_degree and np.any(np.asarray(lattice["beta"]) != 0.0):
        _err("lattice.beta", unread)
    if experiment == "boundary_sweep" and lattice["boundary"] != "open":
        _err("lattice.boundary", "boundary_sweep needs an open chain (a reflecting edge)")

    block = {}  # the experiment's own block, if any: the key it reads beyond _ECHOED
    for name in set(READS[experiment]) - set(_ECHOED):
        if name in ("disorder", "dephasing") and name not in raw:
            _err(name, f"missing block required by the {experiment} experiment")
        block[name] = cfg[name] = _resolve(cfg[name], name, _SCHEMA[name], cfg)
    dis = block.get("disorder", {})
    if experiment == "disorder":
        w = dis["offdiag_strength"]
        if w >= 1.0:
            _err("disorder.offdiag_strength",
                 f"must satisfy w < 1 so couplings stay positive, got {w}")
        if minus_degree and dis["diag_strength"] > 0.0:
            _err("disorder.diag_strength", unread)
        # the smallest coupling a realization can draw must stay a normal float
        smallest = float(np.min(lattice["coupling"])) * (1.0 - w)
        if not smallest >= np.finfo(np.float64).tiny:
            _err("lattice.coupling", f"disorder can draw a coupling of {smallest!r}, below "
                 f"the smallest normal float")
    elif experiment == "boundary_sweep":
        lo, hi = block["sweep"]["input_min"], block["sweep"]["input_max"]
        if hi < lo:
            _err("sweep.input_max", f"must be >= input_min={lo}")

    # resource bounds, checked before anything is allocated
    eigen_bytes = (40 if periodic else 16) * n_sites ** 2
    if experiment == "ballistic" and prop["method"] == "eigen" and eigen_bytes > _MAX_EIGEN_BYTES:
        _err("lattice.n_sites", f"{n_sites} sites need {eigen_bytes / 2 ** 20:.4g} MiB of "
             f"eigenvectors and solver workspace, above the eigen path's "
             f"{_MAX_EIGEN_BYTES // 2 ** 20} MiB")
    sweep = block.get("sweep")
    rows = zgrid["steps"] + (sweep["input_max"] - sweep["input_min"] + 1 if sweep else 0)
    if rows * n_sites > _MAX_CELLS:
        _err("zgrid.steps", f"{rows} output rows of {n_sites} sites are {rows * n_sites:.3g} "
             f"cells, above the ceiling of {_MAX_CELLS:.0e}")

    # a Gershgorin bound on |H| of every realization or noise history: the
    # enclosure (twice as wide) and every phase lambda*z must stay finite
    hop = 2.0 * float(np.max(lattice["coupling"])) * (1.0 + dis.get("offdiag_strength", 0.0))
    site = hop if minus_degree else (float(np.max(np.abs(lattice["beta"])))
                                     + 0.5 * dis.get("diag_strength", 0.0))
    noise = 0.5 * block.get("dephasing", {}).get("phase_strength", 0.0)
    if not np.isfinite((site + hop + noise) * max(2.0, zgrid["stop"])):
        key = ("dephasing.phase_strength" if noise > max(site, hop)
               else "lattice.beta" if site > hop else "lattice.coupling")
        _err(key, "the spectral bound |beta| + 2*coupling, widened by disorder, times "
             "max(2, zgrid.stop) overflows")
    if (experiment in ("boundary_sweep", "dephasing", "disorder")
            or (experiment == "ballistic" and prop["method"] == "chebyshev")):
        _check_chebyshev_work(cfg, zvals, minus_degree)

    return ExperimentConfig(**{key: cfg[key] for key in _ALWAYS + _ECHOED}, **block)


def validate_config(path) -> ExperimentConfig:
    """Load, validate and resolve a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # not JSON, not UTF-8, nested too deep, or an integer too long to parse
    except (RecursionError, ValueError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return load_config(raw)
