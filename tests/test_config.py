"""Config schema: defaults, strict keys, idempotent resolution."""

import json

import numpy as np
import pytest

from wavewalk import ConfigError, load_config, make_initial_state, validate_config
from wavewalk.config import READS


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


@pytest.mark.parametrize(
    "raw",
    [
        {},
        {"experiment": "ballistic"},
        {"experiment": "ballistic", "lattice": {"n_sites": 101}},
        {"experiment": "warp", "lattice": {"n_sites": 5}, "zgrid": {"stop": 1.0}},
        {"experiment": "ballistic", "lattice": {"n_sites": 1}, "zgrid": {"stop": 1.0}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9, "coupling": -1.0}, "zgrid": {"stop": 1.0}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9, "coupling": [1.0, 1.0]}, "zgrid": {"stop": 1.0}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 0.0}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0, "steps": 0}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0, "start": -1.0}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "initial_state": {"kind": "single_site", "site": 9}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "initial_state": {"kind": "two_site", "sites": [4, 4]}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "initial_state": {"kind": "gaussian", "width": 0.0}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "propagator": {"method": "lanczos"}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "propagator": {"tol": 1e-3}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "n_realizations": 0},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "master_seed": -1},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "output": {"formats": ["csv", "hdf5"]}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "disorder": {"offdiag_strength": 0.5}},
        {"experiment": "boundary_sweep", "lattice": {"n_sites": 9, "boundary": "periodic",
         "coupling": [1.0] * 9}, "zgrid": {"stop": 1.0}},
        {"experiment": "boundary_sweep", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "sweep": {"input_min": 5, "input_max": 3}},
        {"experiment": "boundary_sweep", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "sweep": {"input_max": 9}},
        {"experiment": "classical", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "initial_state": {"kind": "two_site", "sites": [3, 4]}},
        {"experiment": "classical", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "classical": {"gamma": 0.0}},
        {"experiment": "dephasing", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0}},
        {"experiment": "dephasing", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "dephasing": {"segment_length": 0.3, "phase_strength": 1.0}},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "n_realizations": True},
        # keys the experiment does not read, at values other than the default
        {"experiment": "dephasing", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "dephasing": {"segment_length": 0.5, "phase_strength": 1.0},
         "propagator": {"method": "chebyshev", "tol": 1e-4}},
        {"experiment": "boundary_sweep", "lattice": {"n_sites": 60}, "zgrid": {"stop": 1.0},
         "initial_state": {"kind": "gaussian", "center": 30, "width": 2}},
        {"experiment": "classical", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "master_seed": 3},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "n_realizations": 1000},
        {"experiment": "ballistic", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1.0},
         "propagator": {"method": "eigen", "tol": 1e-6}},
        {"experiment": "classical", "lattice": {"n_sites": 9, "beta": 0.5},
         "zgrid": {"stop": 1.0}},
        {"experiment": "classical", "lattice": {"n_sites": 9, "diag_convention":
         "minus_degree_gamma"}, "zgrid": {"stop": 1.0}},
        {"experiment": "classical", "lattice": {"n_sites": 9, "boundary": "periodic"},
         "zgrid": {"stop": 1.0}},
        # zgrid.stop / segment_length overflows
        {"experiment": "dephasing", "lattice": {"n_sites": 9}, "zgrid": {"stop": 1e300},
         "dephasing": {"segment_length": 1e-300, "phase_strength": 1.0}},
        # disorder can draw a coupling that underflows to 0
        {"experiment": "disorder", "lattice": {"n_sites": 5, "coupling": 5e-324},
         "zgrid": {"stop": 1.0}, "disorder": {"offdiag_strength": 0.999999}},
    ],
)
def test_invalid_configs_rejected(raw):
    with pytest.raises(ConfigError):
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
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        validate_config(bad)
