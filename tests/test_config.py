"""Config schema: defaults, strict keys, idempotent resolution."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from wavewalk import ConfigError, load_config, make_initial_state, validate_config
from wavewalk import DephasingSpec, config, ensembles
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
     "initial_state": {"kind": "two_site", "sites": [3, 9]}}, "initial_state.sites[1]"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
     "initial_state": {"kind": "gaussian", "center": 8.5}}, "initial_state.center"),
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
    # Chebyshev work above the ceiling
    ({"experiment": "ballistic", "lattice": {"n_sites": 3}, "zgrid": {"stop": 4e5, "steps": 2},
     "propagator": {"method": "chebyshev"}}, "zgrid.stop"),
    ({"experiment": "boundary_sweep", "lattice": {"n_sites": 400},
     "zgrid": {"stop": 1e4, "steps": 81}}, "zgrid.stop"),
    ({"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0, "steps": 10**5},
     "propagator": {"method": "chebyshev"}}, "zgrid.stop"),
    # 80 GB of z values, refused before the grid is built
    ({"experiment": "ballistic", "lattice": {"n_sites": 9},
      "zgrid": {"stop": 1.0, "steps": 10**10}}, "zgrid.steps"),
    # dephasing Chebyshev work above the ceiling: a strong noise widens the
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


def test_numpy_floats_resolve_as_python_floats():
    # numpy's float64 subclasses float, so it is taken as a number, and it
    # resolves as the Python float it equals, past the float range check too
    raw = {"experiment": "ballistic", "lattice": {"n_sites": 11, "coupling": np.float64(1.0)},
           "zgrid": {"stop": np.float64(2.0)}}
    cfg = load_config(raw)
    assert cfg == load_config({**raw, "lattice": {"n_sites": 11, "coupling": 1.0},
                               "zgrid": {"stop": 2.0}})
    assert type(cfg.lattice["coupling"]) is float and type(cfg.zgrid["stop"]) is float
    with pytest.raises(ConfigError, match=r"^zgrid\.stop: must be finite, got inf$"):
        load_config({**raw, "zgrid": {"stop": np.float64("inf")}})


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


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_deeply_nested_config_is_a_config_error(tmp_path, capsys, command):
    # nesting deeper than the parser's recursion limit is not valid JSON, and
    # exits 2 with a message, not with a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


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


LONG_SEGMENT = {"experiment": "dephasing", "lattice": {"n_sites": 2},
                "zgrid": {"stop": 1.0, "steps": 1_000_000},
                "dephasing": {"segment_length": 1.0, "phase_strength": 1.0}}

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
    # disorder work above the ceiling: 32 realizations of 4 000 sites to z = 300,
    # in blocks of 1, estimated at 4.1e8 and measured at 1.8-2.2 s on 2 cores
    ({"experiment": "disorder", "lattice": {"n_sites": 4000},
      "zgrid": {"stop": 300.0, "steps": 101}, "disorder": {"offdiag_strength": 0.5},
      "n_realizations": 32}, "n_realizations"),
    # the no-noise dephasing control is a Chebyshev launch, under the work ceiling
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
    # disorder work above the ceiling: 1 000 realizations of 10 sites to a long
    # z = 2 000, estimated at 4.8e8 and measured at 4.2-4.7 s on 2 cores, and
    # 10^5 of 2 sites, whose fixed cost per realization dominates (1.2e9)
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
    # disorder runs whose output cells dominate: 32 realizations of 10^7
    # sites at one z (1.3e9), and 1 280 of 10^5 sites at 100 z (5.1e10), at
    # 0.6-0.7 s each on 2 cores (the first extrapolated from 10^6 sites)
    ({"experiment": "disorder", "lattice": {"n_sites": 10_000_000},
      "zgrid": {"stop": 1.0, "steps": 1}, "disorder": {"offdiag_strength": 0.5},
      "n_realizations": 32}, "n_realizations"),
    ({"experiment": "disorder", "lattice": {"n_sites": 100_000},
      "zgrid": {"stop": 1.0, "steps": 100}, "disorder": {"offdiag_strength": 0.5},
      "n_realizations": 1280}, "n_realizations"),
    # dephasing work above the ceiling: a million grid rows in one noise
    # segment, each an expansion of its own, refused before they are planned
    (LONG_SEGMENT, "zgrid.stop"),
    # ten times the admitted long-z ensemble (LONG_Z): 10 000 realizations of
    # 10 sites to z = 1 000, estimated at 2.1e9
    ({"experiment": "disorder", "lattice": {"n_sites": 10},
      "zgrid": {"stop": 1000.0, "steps": 101}, "disorder": {"offdiag_strength": 0.5},
      "n_realizations": 10_000}, "n_realizations"),
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


def test_dephasing_grid_too_long_to_plan_is_refused_unplanned(monkeypatch):
    # every grid row costs at least one expansion at its segment offset, so
    # the ceiling refuses a million rows from that bound alone; planning them
    # would take time and memory in proportion
    def plan(*args):
        raise AssertionError("segments planned")

    monkeypatch.setattr(config, "_plan_segments", plan)
    with pytest.raises(ConfigError, match=r"^zgrid\.stop: "):
        load_config(LONG_SEGMENT)


# 100 000 noise segments of 0.01, the ceiling, on 11 sites
MANY_SEGMENTS = {"experiment": "dephasing", "lattice": {"n_sites": 11},
                 "zgrid": {"stop": 1000.0, "steps": 2},
                 "dephasing": {"segment_length": 0.01, "phase_strength": 1.0}}


def test_dephasing_segments_too_many_to_plan_are_refused_unplanned(monkeypatch):
    # every segment's call holds at least its end, so the ceiling refuses
    # 100 000 segments from that bound alone, before they are planned; the
    # no-noise control counts its segments without planning them, in the
    # loader and in the run
    def plan(*args):
        raise AssertionError("segments planned")

    monkeypatch.setattr(config, "_plan_segments", plan)
    monkeypatch.setattr(ensembles, "_plan_segments", plan)
    with pytest.raises(ConfigError, match=r"^zgrid\.stop: "):
        load_config(MANY_SEGMENTS)
    control = {**MANY_SEGMENTS, "dephasing": {"segment_length": 0.01, "phase_strength": 0.0}}
    cfg = load_config(control)
    stats = ensembles.evolve_dephasing(cfg.lattice_spec(), DephasingSpec(0.01, 0.0),
                                       cfg.initial(), cfg.zgrid_obj(), 1, 0)
    assert stats.mean_intensity.shape == (2, 11)
    with pytest.raises(ValueError, match="whole number of segments"):
        ensembles.evolve_dephasing(cfg.lattice_spec(), DephasingSpec(0.03, 0.0), cfg.initial(),
                                   cfg.zgrid_obj(), 1, 0)


def _workload_configs():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.config(workloads.params(name, 1, size), Path("out"))
            for name in workloads.WORKLOADS for size in ("full", "toy")]


def test_resource_caps_admit_the_committed_configs_and_workloads(monkeypatch):
    raws = [json.loads(path.read_text()) for path in sorted((ROOT / "configs").glob("*.json"))]
    raws += _workload_configs()
    assert len(raws) == 14
    for raw in raws:
        load_config(raw)
    # with room to spare: a recalibrated ceiling must not crowd them
    monkeypatch.setattr(config, "_MAX_WORK", config._MAX_WORK // 2)
    for raw in raws:
        load_config(raw)


# the paper's disorder ensemble run far enough to saturate: 1 000
# realizations of 10 sites to z = 1 000, estimated at 2.5e8 (2.1-2.5 s on 2 cores)
LONG_Z = {"experiment": "disorder", "lattice": {"n_sites": 10},
          "zgrid": {"stop": 1000.0, "steps": 101}, "disorder": {"offdiag_strength": 0.5},
          "n_realizations": 1000}


@pytest.mark.parametrize("raw", [
    LONG_Z,
    # a 10^4-site launch to z = 1 000, estimated at 8.1e7 (0.4-0.9 s)
    {"experiment": "ballistic", "lattice": {"n_sites": 10_000},
     "zgrid": {"stop": 1000.0, "steps": 101}, "propagator": {"method": "chebyshev"}},
], ids=["disorder_long_z", "launch_10k_sites_long_z"])
def test_work_ceiling_admits_long_runs(raw):
    load_config(raw)


def test_disorder_budget_admits_the_acceptance_ensemble():
    # criterion 4 runs 1 000 realizations of 99 sites to a single z = 30,
    # estimated at 3.5e7
    load_config({"experiment": "disorder", "lattice": {"n_sites": 99},
                 "zgrid": {"stop": 30.0, "steps": 1}, "disorder": {"offdiag_strength": 0.5},
                 "n_realizations": 1000})
