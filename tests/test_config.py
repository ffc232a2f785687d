"""Config schema: defaults, strict keys, idempotent resolution."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from wavewalk import ConfigError, load_config, make_initial_state, validate_config
from wavewalk.cli import main
from wavewalk.config import _REQUIRED, _SCHEMA, READS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


MINIMAL_BALLISTIC = {
    "experiment": "ballistic",
    "lattice": {"n_sites": 101},
    "zgrid": {"stop": 10.0},
}


def test_minimal_ballistic_defaults():
    cfg = load_config(MINIMAL_BALLISTIC)
    assert cfg.lattice["beta"] == 0.0
    assert cfg.lattice["boundary"] == "open"
    assert cfg.lattice["diag_convention"] == "beta_as_given"
    assert cfg.initial_state == {"kind": "single_site", "site": 50}
    assert cfg.propagator == {"method": "eigen", "tol": 1e-12}
    assert cfg.n_realizations == 1 and cfg.master_seed == 0


# one config per experiment
EXAMPLES = (
    MINIMAL_BALLISTIC,
    {
        "experiment": "disorder",
        "lattice": {"n_sites": 99},
        "zgrid": {"stop": 30.0, "steps": 4},
        "disorder": {"offdiag_strength": 0.5},
        "n_realizations": 10,
    },
    {
        "experiment": "boundary_sweep",
        "lattice": {"n_sites": 400},
        "zgrid": {"stop": 8.0},
    },
    {
        "experiment": "classical",
        "lattice": {"n_sites": 201, "coupling": 2.0},
        "zgrid": {"stop": 10.0},
    },
    {
        "experiment": "dephasing",
        "lattice": {"n_sites": 101},
        "zgrid": {"stop": 20.0},
        "dephasing": {"segment_length": 0.25, "phase_strength": 12.0},
    },
)


def test_resolution_is_idempotent():
    for raw in EXAMPLES:
        resolved = load_config(raw).to_dict()
        assert load_config(resolved).to_dict() == resolved


@pytest.mark.parametrize("raw", EXAMPLES, ids=lambda raw: raw["experiment"])
def test_to_dict_holds_the_keys_the_experiment_reads(raw):
    resolved = load_config(raw).to_dict()
    assert set(resolved) == {"experiment", "lattice", "zgrid", "output",
                             *READS[raw["experiment"]]}


@pytest.mark.parametrize("raw", EXAMPLES, ids=lambda raw: raw["experiment"])
def test_run_json_written_before_the_key_table_still_loads(raw):
    # such files echoed initial_state, propagator, n_realizations and
    # master_seed for every experiment, at their defaults where unread
    cfg = load_config(raw)
    old = {
        "experiment": cfg.experiment, "lattice": cfg.lattice,
        "initial_state": cfg.initial_state, "zgrid": cfg.zgrid,
        "propagator": cfg.propagator, "n_realizations": cfg.n_realizations,
        "master_seed": cfg.master_seed, "output": cfg.output,
        "version": "0.1.0", "backend": "numpy",
    }
    for name in ("disorder", "dephasing", "sweep", "classical"):
        if getattr(cfg, name) is not None:
            old[name] = getattr(cfg, name)
    assert load_config(old).to_dict() == cfg.to_dict()


def test_classical_gamma_defaults_to_mean_coupling():
    cfg = load_config(
        {"experiment": "classical", "lattice": {"n_sites": 51, "coupling": 2.5},
         "zgrid": {"stop": 4.0}}
    )
    assert cfg.classical == {"gamma": 2.5}


def test_missing_disorder_block_named():
    raw = {"experiment": "disorder", "lattice": {"n_sites": 99}, "zgrid": {"stop": 30.0}}
    with pytest.raises(ConfigError, match="disorder"):
        load_config(raw)


def test_w_at_least_one_rejected_citing_invariant():
    raw = {
        "experiment": "disorder",
        "lattice": {"n_sites": 99},
        "zgrid": {"stop": 30.0},
        "disorder": {"offdiag_strength": 1.5},
    }
    with pytest.raises(ConfigError, match="w < 1"):
        load_config(raw)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d["lattice"].update(couplingg=1.0), "lattice.couplingg"),
        (lambda d: d["zgrid"].update(step=5), "zgrid.step"),
        (lambda d: d.update(initial_state={"kind": "single_site", "sight": 3}), "initial_state.sight"),
    ],
)
def test_unknown_keys_rejected_with_path(mutate, needle):
    raw = json.loads(json.dumps(MINIMAL_BALLISTIC))
    mutate(raw)
    with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
        load_config(raw)


# each invalid config and the key path its ConfigError names
INVALID = [
    ({}, "experiment"),
    ({"experiment": "ballistic"}, "lattice"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 101}}, "zgrid"),
    ({"experiment": "warp", "lattice": {"n_sites": 5}, "zgrid": {"stop": 1.0}}, "experiment"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 1}, "zgrid": {"stop": 1.0}},
     "lattice.n_sites"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9, "coupling": -1.0}, "zgrid": {"stop": 1.0}},
     "lattice.coupling"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9, "coupling": [1.0, 1.0]}, "zgrid": {"stop": 1.0}},
     "lattice.coupling"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 0.0}}, "zgrid.stop"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0, "steps": 0}},
     "zgrid.steps"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0, "start": -1.0}},
     "zgrid.start"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "initial_state": {"kind": "single_site", "site": 9}}, "initial_state.site"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "initial_state": {"kind": "two_site", "sites": [4, 4]}}, "initial_state.sites"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "initial_state": {"kind": "gaussian", "width": 0.0}}, "initial_state.width"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "propagator": {"method": "lanczos"}}, "propagator.method"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "propagator": {"tol": 1e-3}}, "propagator.tol"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "n_realizations": 0}, "n_realizations"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "master_seed": -1}, "master_seed"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "output": {"formats": ["csv", "hdf5"]}}, "output.formats[1]"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "disorder": {"offdiag_strength": 0.5}}, "disorder"),
    ({"experiment": "boundary_sweep", "lattice": {"n_sites": 9, "boundary": "periodic",
     "coupling": [1.0] * 9}, "zgrid": {"stop": 1.0}}, "lattice.boundary"),
    ({"experiment": "boundary_sweep", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "sweep": {"input_min": 5, "input_max": 3}}, "sweep.input_max"),
    ({"experiment": "boundary_sweep", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "sweep": {"input_max": 9}}, "sweep.input_max"),
    ({"experiment": "classical", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "initial_state": {"kind": "two_site", "sites": [3, 4]}}, "initial_state.kind"),
    ({"experiment": "classical", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "classical": {"gamma": 0.0}}, "classical.gamma"),
    ({"experiment": "dephasing", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0}}, "dephasing"),
    ({"experiment": "dephasing", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "dephasing": {"segment_length": 0.3, "phase_strength": 1.0}}, "dephasing.segment_length"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "n_realizations": True}, "n_realizations"),
    # keys the experiment does not read, at values other than the default
    ({"experiment": "dephasing", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "dephasing": {"segment_length": 0.5, "phase_strength": 1.0},
     "propagator": {"method": "chebyshev", "tol": 1e-4}}, "propagator"),
    ({"experiment": "boundary_sweep", "lattice": {"n_sites": 60}, "zgrid": {"stop": 1.0},
     "initial_state": {"kind": "gaussian", "center": 30, "width": 2}}, "initial_state"),
    ({"experiment": "classical", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "master_seed": 3}, "master_seed"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "n_realizations": 1000}, "n_realizations"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "propagator": {"method": "eigen", "tol": 1e-6}}, "propagator.tol"),
    ({"experiment": "classical", "lattice": {"n_sites": 9, "beta": 0.5},
     "zgrid": {"stop": 1.0}}, "lattice.beta"),
    ({"experiment": "classical", "lattice": {"n_sites": 9, "diag_convention":
     "minus_degree_gamma"}, "zgrid": {"stop": 1.0}}, "lattice.diag_convention"),
    ({"experiment": "classical", "lattice": {"n_sites": 9, "boundary": "periodic"},
     "zgrid": {"stop": 1.0}}, "lattice.boundary"),
    # zgrid.stop / segment_length overflows
    ({"experiment": "dephasing", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1e300},
     "dephasing": {"segment_length": 1e-300, "phase_strength": 1.0}}, "dephasing.segment_length"),
    # disorder can draw a coupling that underflows to 0
    ({"experiment": "disorder", "lattice": {"n_sites": 5, "coupling": 5e-324},
     "zgrid": {"stop": 1.0}, "disorder": {"offdiag_strength": 0.999999}}, "lattice.coupling"),
    # a billion noise segments: above the segment ceiling
    ({"experiment": "dephasing", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1000.0},
     "dephasing": {"segment_length": 1e-6, "phase_strength": 1.0}}, "dephasing.segment_length"),
    # Chebyshev work above the budget
    ({"experiment": "ballistic", "lattice": {"n_sites": 3}, "zgrid": {"stop": 4e5, "steps": 2},
     "propagator": {"method": "chebyshev"}}, "zgrid.stop"),
    ({"experiment": "boundary_sweep", "lattice": {"n_sites": 400},
     "zgrid": {"stop": 1e4, "steps": 81}}, "zgrid.stop"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0, "steps": 10**5},
     "propagator": {"method": "chebyshev"}}, "zgrid.stop"),
    # 80 GB of z values, refused before the grid is built
    ({"experiment": "ballistic", "lattice": {"n_sites": 9},
      "zgrid": {"stop": 1.0, "steps": 10**10}}, "zgrid.steps"),
    # dephasing Chebyshev work above the budget: a strong noise widens the
    # enclosure, and a long segment lengthens each expansion
    ({"experiment": "dephasing", "lattice": {"n_sites": 10}, "zgrid": {"stop": 1.0, "steps": 3},
      "dephasing": {"segment_length": 0.5, "phase_strength": 1e6}, "n_realizations": 3},
     "zgrid.stop"),
    ({"experiment": "dephasing", "lattice": {"n_sites": 10}, "zgrid": {"stop": 1e6},
      "dephasing": {"segment_length": 31250.0, "phase_strength": 1.0}, "n_realizations": 3},
     "zgrid.stop"),
    # the noise widens the spectral bound past the largest float
    ({"experiment": "dephasing", "lattice": {"n_sites": 10}, "zgrid": {"stop": 10.0, "steps": 3},
      "dephasing": {"segment_length": 10.0, "phase_strength": 1e308}},
     "dephasing.phase_strength"),
    # an integer past the float range, as JSON may give
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 10**400}},
     "zgrid.stop"),
]


@pytest.mark.parametrize("raw,path", INVALID, ids=[f"raw{i}" for i in range(len(INVALID))])
def test_invalid_configs_rejected(raw, path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
        load_config(raw)


def test_ballistic_chebyshev_accepts_the_loosest_tol():
    # a single run is held only to its own norm tolerance
    cfg = load_config({**MINIMAL_BALLISTIC, "propagator": {"method": "chebyshev", "tol": 1e-4}})
    assert cfg.propagator == {"method": "chebyshev", "tol": 1e-4}


@pytest.mark.parametrize("center,width,ok", [
    (50, 1e-300, False),  # width**2 underflows: 0/0 at the centre
    (50.5, 0.01, False),  # every site underflows
    (50.5, 0.019, True),  # envelope 6e-151 at the two nearest sites, squares normal
    (50.5, 0.0185, False),  # envelope 3e-159 there, squares subnormal
    (50, 0.01, True),  # a single lit site
])
def test_gaussian_width_must_leave_a_normalizable_launch(center, width, ok):
    raw = {**MINIMAL_BALLISTIC,
           "initial_state": {"kind": "gaussian", "center": center, "width": width}}
    if not ok:
        with pytest.raises(ConfigError, match="initial_state.width"):
            load_config(raw)
        return
    cfg = load_config(raw)
    psi0 = make_initial_state(cfg.initial(), cfg.lattice["n_sites"])
    assert abs(np.sum(np.abs(psi0.amps) ** 2) - 1.0) <= 1e-12


def test_vector_coupling_and_beta_accepted():
    raw = {
        "experiment": "ballistic",
        "lattice": {"n_sites": 4, "coupling": [1.0, 2.0, 3.0], "beta": [0.1, 0.2, 0.3, 0.4]},
        "zgrid": {"stop": 1.0},
    }
    spec = load_config(raw).lattice_spec()
    assert np.array_equal(spec.coupling, [1.0, 2.0, 3.0])
    assert np.array_equal(spec.beta, [0.1, 0.2, 0.3, 0.4])


def test_zgrid_object_layout():
    cfg = load_config({**MINIMAL_BALLISTIC, "zgrid": {"start": 1.0, "stop": 10.0, "steps": 10}})
    grid = cfg.zgrid_obj()
    assert np.allclose(grid.values, np.linspace(1.0, 10.0, 10))
    single = load_config({**MINIMAL_BALLISTIC, "zgrid": {"stop": 4.0, "steps": 1}}).zgrid_obj()
    assert np.array_equal(single.values, [4.0])


def test_runner_metadata_keys_tolerated():
    raw = dict(load_config(MINIMAL_BALLISTIC).to_dict())
    raw["version"] = "0.1.0"
    raw["backend"] = "numba"
    cfg = load_config(raw)
    assert cfg.to_dict() == load_config(MINIMAL_BALLISTIC).to_dict()


def test_validate_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        validate_config(tmp_path / "missing.json")
    # not JSON, not UTF-8, and an integer longer than the parser converts
    for text in (b"{not json", b'{"experiment": "\xe9"}', b'{"master_seed": ' + b"1" * 5000 + b"}"):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        with pytest.raises(ConfigError, match="is not valid JSON"):
            validate_config(bad)


# how README's schema table names each kind of the config table
KIND_NAMES = {"int": "integer", "float": "number", "str": "string", "floats": "number or list",
              "pair": "pair of integers", "strs": "list of strings"}


def _json(text):
    """(True, value) if ``text`` is a JSON value, else (False, text): a formula."""
    try:
        return True, json.loads(text)
    except ValueError:
        return False, text


def test_readme_schema_table_matches_the_config_table():
    section = README.read_text().split("### Config schema")[1].split("\n### ")[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            rows[cells[0].split("`")[1]] = cells[1:]
    table = {(f"{block.split('.')[0]}.{key}" if block else key): spec
             for block, keys in _SCHEMA.items() for key, spec in keys.items()
             if spec[0] != "object"}
    assert sorted(rows) == sorted(table)
    for name, (kind, default, bounds) in table.items():
        kind_cell, default_cell, bounds_cell = rows[name]
        assert kind_cell == KIND_NAMES[kind], name
        constant, value = _json(default_cell)
        if default is _REQUIRED:
            assert default_cell == "required", name
        elif callable(default):
            assert not constant and default_cell != "required", name
        else:
            assert constant and value == default and type(value) is type(default), name
        # each bound: an operator, then a JSON value or a formula
        ops = [piece.strip().split(" ", 1) for piece in bounds_cell.split(";") if piece.strip()]
        parsed = [(op[0], _json(op[1]) if len(op) > 1 else (True, None)) for op in ops]
        assert [(op, b) for op, (is_value, b) in parsed if is_value] == [
            (op, b) for op, b in bounds if not callable(b)], name
        assert [op for op, (is_value, _) in parsed if not is_value] == [
            op for op, b in bounds if callable(b)], name


# (config, key): each would allocate far more than a machine holds
OVERSIZED = [
    # 8*N^2 = 7.28 TiB of eigenvectors
    ({"experiment": "ballistic", "lattice": {"n_sites": 1_000_000}, "zgrid": {"stop": 1.0}},
     "lattice.n_sites"),
    # 10^9 output cells, 7.45 GiB of complex states
    ({"experiment": "ballistic", "lattice": {"n_sites": 1000},
      "zgrid": {"stop": 1.0, "steps": 1_000_000}}, "zgrid.steps"),
    # 10^11 output cells, 745 GiB of probabilities
    ({"experiment": "classical", "lattice": {"n_sites": 100_000},
      "zgrid": {"stop": 1.0, "steps": 1_000_000}}, "zgrid.steps"),
    # disorder work above the budget: 32 realizations of 4 000 sites to z = 300,
    # in blocks of 2, estimated at 4.6e9 and measured at 17 s on 2 cores
    # (extrapolated from 4)
    ({"experiment": "disorder", "lattice": {"n_sites": 4000},
      "zgrid": {"stop": 300.0, "steps": 101}, "disorder": {"offdiag_strength": 0.5},
      "n_realizations": 32}, "n_realizations"),
    # the no-noise dephasing control is a Chebyshev launch, under the work budget
    ({"experiment": "dephasing", "lattice": {"n_sites": 3}, "zgrid": {"stop": 4e5, "steps": 2},
      "dephasing": {"segment_length": 4e5, "phase_strength": 0.0}}, "zgrid.stop"),
    # one site past the cap on eigenvectors plus solver workspace: 16*N^2
    # bytes on an open chain, 40*N^2 on a ring
    ({"experiment": "ballistic", "lattice": {"n_sites": 5793}, "zgrid": {"stop": 1.0}},
     "lattice.n_sites"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 3664, "boundary": "periodic"},
      "zgrid": {"stop": 1.0}}, "lattice.n_sites"),
    # above the ensemble ceiling
    ({"experiment": "dephasing", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
      "dephasing": {"segment_length": 0.5, "phase_strength": 1.0}, "n_realizations": 100_001},
     "n_realizations"),
    # disorder work above the budget: 1 000 realizations of 10 sites to a long
    # z = 2 000, estimated at 5.2e9 and measured at 12.9 s on 2 cores, and
    # 10^5 of 2 sites, whose fixed cost per realization dominates
    ({"experiment": "disorder", "lattice": {"n_sites": 10},
      "zgrid": {"stop": 2000.0, "steps": 101}, "disorder": {"offdiag_strength": 0.5},
      "n_realizations": 1000}, "n_realizations"),
    ({"experiment": "disorder", "lattice": {"n_sites": 2}, "zgrid": {"stop": 1.0, "steps": 1},
      "disorder": {"offdiag_strength": 0.5}, "n_realizations": 100_000}, "n_realizations"),
    # above the site ceiling
    ({"experiment": "ballistic", "lattice": {"n_sites": 10_000_001}, "zgrid": {"stop": 1.0},
      "propagator": {"method": "chebyshev"}}, "lattice.n_sites"),
    # the carpet rows count as output rows
    ({"experiment": "boundary_sweep", "lattice": {"n_sites": 9000}, "zgrid": {"stop": 1.0},
      "sweep": {"input_min": 0, "input_max": 1100}}, "zgrid.steps"),
    # disorder runs whose sampling, intensities and reduction on every site
    # and grid point dominate: 32 realizations of 10^7 sites at one z, and
    # 1 280 of 10^5 sites at 100 z, at 0.6-0.7 s each on 2 cores (the first
    # extrapolated from 10^6 sites)
    ({"experiment": "disorder", "lattice": {"n_sites": 10_000_000},
      "zgrid": {"stop": 1.0, "steps": 1}, "disorder": {"offdiag_strength": 0.5},
      "n_realizations": 32}, "n_realizations"),
    ({"experiment": "disorder", "lattice": {"n_sites": 100_000},
      "zgrid": {"stop": 1.0, "steps": 100}, "disorder": {"offdiag_strength": 0.5},
      "n_realizations": 1280}, "n_realizations"),
]


@pytest.mark.parametrize("raw,key", OVERSIZED, ids=[f"oversized{i}" for i in range(len(OVERSIZED))])
def test_resource_caps_refuse_before_the_run_allocates(tmp_path, capsys, raw, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        load_config(raw)
    out = tmp_path / "out"
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**raw, "output": {"directory": str(out)}}))
    assert main(["simulate", str(path)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()  # the run never started


def _workload_configs():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.config(workloads.params(name, 1, size), Path("out"))
            for name in workloads.WORKLOADS for size in ("full", "toy")]


def test_resource_caps_admit_the_committed_configs_and_workloads():
    raws = [json.loads(path.read_text()) for path in sorted((ROOT / "configs").glob("*.json"))]
    raws += _workload_configs()
    assert len(raws) == 14
    for raw in raws:
        load_config(raw)


def test_disorder_budget_admits_the_acceptance_ensemble():
    # criterion 4 runs 1 000 realizations of 99 sites to a single z = 30
    load_config({"experiment": "disorder", "lattice": {"n_sites": 99},
                 "zgrid": {"stop": 30.0, "steps": 1}, "disorder": {"offdiag_strength": 0.5},
                 "n_realizations": 1000})
