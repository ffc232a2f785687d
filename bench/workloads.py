"""Workload definitions: wavewalk configs generated from a seed.

Each workload has a full size (what the benchmark measures) and a toy size
(what the benchmark's own tests run through the same code). The seed only
picks values that leave the amount of work unchanged, so runs with different
seeds take the same time up to machine noise:

* ensembles: the program's ``master_seed``;
* ``ballistic_n10k``: the input site, within 1000 sites of the centre;
* ``boundary_carpet``: the coupling C, in [0.9, 1.1].
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("disorder_ensemble", "dephasing_ensemble", "ballistic_n10k", "boundary_carpet")

_SIZES = {
    "disorder_ensemble": {
        "full": {"n_sites": 99, "z_stop": 30.0, "z_steps": 61, "n_realizations": 1000},
        "toy": {"n_sites": 99, "z_stop": 30.0, "z_steps": 11, "n_realizations": 400},
    },
    "dephasing_ensemble": {
        "full": {"n_sites": 101, "z_stop": 20.0, "z_steps": 81, "n_realizations": 100},
        "toy": {"n_sites": 41, "z_stop": 20.0, "z_steps": 81, "n_realizations": 70},
    },
    "ballistic_n10k": {
        "full": {"n_sites": 10000, "z_stop": 10.0, "z_steps": 101, "offset": 1000},
        "toy": {"n_sites": 200, "z_stop": 10.0, "z_steps": 11, "offset": 10},
    },
    "boundary_carpet": {
        "full": {"n_sites": 2000, "z_stop": 8.0, "z_steps": 81, "n_inputs": 40},
        "toy": {"n_sites": 120, "z_stop": 8.0, "z_steps": 9, "n_inputs": 10},
    },
}


def params(name: str, seed: int, size: str = "full") -> dict:
    """Concrete workload parameters; a pure function of (name, seed, size)."""
    if name not in _SIZES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    p = dict(_SIZES[name][size])
    p["name"] = name
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(WORKLOADS.index(name),)))
    n = p["n_sites"]
    if name == "disorder_ensemble":
        p.update(j0=n // 2, coupling=1.0, offdiag_strength=0.5,
                 master_seed=int(rng.integers(0, 2**31)))
    elif name == "dephasing_ensemble":
        p.update(j0=n // 2, coupling=1.0, segment_length=0.25, phase_strength=12.0,
                 master_seed=int(rng.integers(0, 2**31)))
    elif name == "ballistic_n10k":
        p.update(j0=n // 2 + int(rng.integers(-p["offset"], p["offset"] + 1)),
                 coupling=1.0, tol=1e-12)
    else:
        p.update(coupling=float(rng.uniform(0.9, 1.1)))
    return p


def config(p: dict, out_dir: Path) -> dict:
    """The wavewalk config for workload parameters ``p``."""
    name = p["name"]
    n = p["n_sites"]
    cfg = {
        "lattice": {"n_sites": n, "coupling": p["coupling"], "boundary": "open"},
        "zgrid": {"start": 0.0, "stop": p["z_stop"], "steps": p["z_steps"]},
        "output": {"directory": str(out_dir)},
    }
    if name == "disorder_ensemble":
        cfg.update(
            experiment="disorder",
            initial_state={"kind": "single_site", "site": p["j0"]},
            disorder={"offdiag_strength": p["offdiag_strength"], "diag_strength": 0.0},
            n_realizations=p["n_realizations"], master_seed=p["master_seed"],
        )
        cfg["output"]["formats"] = ["csv"]
    elif name == "dephasing_ensemble":
        cfg.update(
            experiment="dephasing",
            initial_state={"kind": "single_site", "site": p["j0"]},
            dephasing={"segment_length": p["segment_length"],
                       "phase_strength": p["phase_strength"]},
            n_realizations=p["n_realizations"], master_seed=p["master_seed"],
        )
        cfg["output"]["formats"] = ["csv"]
    elif name == "ballistic_n10k":
        cfg.update(
            experiment="ballistic",
            initial_state={"kind": "single_site", "site": p["j0"]},
            propagator={"method": "chebyshev", "tol": p["tol"]},
        )
        cfg["output"]["formats"] = ["csv", "json"]
    else:
        cfg.update(experiment="boundary_sweep",
                   sweep={"input_min": 0, "input_max": p["n_inputs"] - 1})
        cfg["output"]["formats"] = ["csv", "json", "pgm"]
    return cfg


def evolutions(p: dict) -> int:
    """Independent evolutions one run of the workload completes."""
    if "n_realizations" in p:
        return p["n_realizations"]
    return p.get("n_inputs", 1)


def write_config(p: dict, work_dir: Path) -> Path:
    """Write the workload's config file; its artifacts go to ``work_dir/artifacts``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / "config.json"
    path.write_text(json.dumps(config(p, work_dir / "artifacts"), indent=2) + "\n")
    return path
