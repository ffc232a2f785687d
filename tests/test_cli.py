"""CLI harness: artifacts, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavewalk
from wavewalk import bessel_free_state, image_boundary_state, validate_config
from wavewalk.cli import _fmt, _write_matrix_csv, main
from wavewalk.ensembles import ROW_SUM_TOL


def _read_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0].split(","), data


def _write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


BALLISTIC = {
    "experiment": "ballistic",
    "lattice": {"n_sites": 101},
    "zgrid": {"stop": 10.0, "steps": 6},
}


def test_simulate_ballistic_matches_oracle(tmp_path):
    cfg = _write_cfg(tmp_path, "b.json", {**BALLISTIC, "output": {"directory": str(tmp_path / "out")}})
    assert main(["simulate", str(cfg)]) == 0
    header, data = _read_csv(tmp_path / "out" / "intensity.csv")
    assert header[0] == "z" and header[1] == "site_0" and len(header) == 102
    ref = np.abs(bessel_free_state(50, 1.0, 10.0, 101).amps) ** 2  # oracle
    assert np.max(np.abs(data[-1, 1:] - ref)) < 1e-6
    assert np.max(np.abs(data[:, 1:].sum(axis=1) - 1.0)) < 1e-8
    _, obs = _read_csv(tmp_path / "out" / "observables.csv")
    assert obs.shape[1] == 4
    assert np.all(np.diff(obs[:, 1]) > 0)  # variance grows monotonically here


SMALL = {"lattice": {"n_sites": 41}, "zgrid": {"stop": 2.0, "steps": 3}}


@pytest.mark.parametrize(
    "payload",
    [
        BALLISTIC,
        {**BALLISTIC, "initial_state": {"kind": "two_site", "sites": [40, 60],
                                        "relative_phase": 0.5}},
        {**BALLISTIC, "initial_state": {"kind": "gaussian", "center": 50.5, "width": 2.0,
                                        "tilt": 0.3}},
        {**SMALL, "experiment": "disorder", "disorder": {"offdiag_strength": 0.5},
         "n_realizations": 5, "master_seed": 7},
        {**SMALL, "experiment": "dephasing",
         "dephasing": {"segment_length": 0.5, "phase_strength": 1.0}, "n_realizations": 3},
        {**SMALL, "experiment": "boundary_sweep", "sweep": {"input_min": 0, "input_max": 5}},
        {**SMALL, "experiment": "classical"},
        # a uniform beta so large that it rounds the Gershgorin width away
        {**SMALL, "experiment": "ballistic", "lattice": {"n_sites": 41, "beta": 1e17},
         "propagator": {"method": "chebyshev"}},
        {**SMALL, "experiment": "dephasing", "lattice": {"n_sites": 41, "beta": 1e17},
         "dephasing": {"segment_length": 0.5, "phase_strength": 1.0}, "n_realizations": 3},
    ],
    ids=["ballistic", "two_site", "gaussian", "disorder", "dephasing", "boundary_sweep",
         "classical", "chebyshev_beta_1e17", "dephasing_beta_1e17"],
)
def test_run_json_round_trips(tmp_path, payload):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, "b.json", {**payload, "output": {"directory": str(out)}})
    assert main(["simulate", str(cfg)]) == 0
    resolved = validate_config(cfg).to_dict()
    again = validate_config(out / "run.json").to_dict()
    assert again == resolved


@pytest.mark.parametrize(
    "payload,key",
    [
        ({**SMALL, "experiment": "dephasing",
          "dephasing": {"segment_length": 0.5, "phase_strength": 1.0},
          "propagator": {"method": "chebyshev", "tol": 1e-4}}, "propagator"),
        ({**SMALL, "experiment": "boundary_sweep", "lattice": {"n_sites": 60},
          "initial_state": {"kind": "gaussian", "center": 30, "width": 2}}, "initial_state"),
        ({**SMALL, "experiment": "classical", "master_seed": 3}, "master_seed"),
        ({**SMALL, "experiment": "ballistic", "n_realizations": 1000}, "n_realizations"),
        ({**SMALL, "experiment": "disorder", "disorder": {"offdiag_strength": 0.5},
          "n_realizations": 4, "propagator": {"method": "chebyshev", "tol": 1e-4}}, "propagator"),
    ],
    ids=["dephasing", "boundary_sweep", "classical", "ballistic", "disorder"],
)
def test_unread_key_exits_2_naming_it(tmp_path, capsys, payload, key):
    cfg = _write_cfg(tmp_path, "u.json", {**payload, "output": {"directory": str(tmp_path)}})
    assert main(["simulate", str(cfg)]) == 2
    assert f"config error: {key}: not read by experiment" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload,code,key",
    [
        ({**SMALL, "experiment": "ballistic",
          "initial_state": {"kind": "gaussian", "center": 10, "width": 1e-300}},
         2, "config error: initial_state.width"),
        ({**SMALL, "experiment": "ballistic",
          "initial_state": {"kind": "gaussian", "center": 10.5, "width": 0.01}},
         2, "config error: initial_state.width"),
        ({**SMALL, "experiment": "dephasing", "n_realizations": 2,
          "dephasing": {"segment_length": 0.5, "phase_strength": 1e300}},
         3, "numerical failure: halfwidth*z"),
        ({**SMALL, "experiment": "ballistic", "zgrid": {"stop": 1e300, "steps": 2},
          "propagator": {"method": "chebyshev"}},
         3, "numerical failure: halfwidth*z"),
        ({**SMALL, "experiment": "ballistic",
          "initial_state": {"kind": "gaussian", "center": 10, "width": 2, "tilt": 1e308}},
         2, "config error: initial_state.tilt"),
        ({**SMALL, "experiment": "ballistic",
          "zgrid": {"start": 1.0, "stop": 1.0000000000000002, "steps": 101}},
         2, "config error: zgrid.steps"),
        # ive(n, 2*gamma*t) is NaN this far out
        ({"experiment": "classical", "lattice": {"n_sites": 4, "coupling": 1e-9},
          "zgrid": {"stop": 1e6, "steps": 3}, "classical": {"gamma": 1e6}},
         3, "numerical failure: window of 4 sites"),
        ({**SMALL, "experiment": "disorder", "lattice": {"n_sites": 5, "coupling": 5e-324},
          "disorder": {"offdiag_strength": 0.999999}, "n_realizations": 4},
         2, "config error: lattice.coupling"),
    ],
    ids=["gaussian_width", "gaussian_off_site", "dephasing_strength", "ballistic_z",
         "gaussian_tilt", "collapsed_zgrid", "classical_huge_gamma_t",
         "disorder_coupling_underflow"],
)
def test_unrunnable_config_exits_with_a_message(tmp_path, capsys, payload, code, key):
    cfg = _write_cfg(tmp_path, "f.json", {**payload, "output": {"directory": str(tmp_path)}})
    assert main(["simulate", str(cfg)]) == code
    assert key in capsys.readouterr().err


def test_huge_gaussian_width_launches_a_plane_wave(tmp_path):
    cfg = _write_cfg(tmp_path, "w.json", {
        **SMALL, "experiment": "ballistic",
        "initial_state": {"kind": "gaussian", "center": 20, "width": 1e160},
        "output": {"directory": str(tmp_path)}})
    assert main(["simulate", str(cfg)]) == 0
    _, data = _read_csv(tmp_path / "intensity.csv")
    assert data[0, 0] == 0.0
    assert np.allclose(data[0, 1:], 1.0 / 41, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "payload",
    [
        {**SMALL, "experiment": "disorder", "disorder": {"offdiag_strength": 0.5},
         "n_realizations": 3},
        {**SMALL, "experiment": "dephasing",
         "dephasing": {"segment_length": 0.5, "phase_strength": 1.0}, "n_realizations": 3},
    ],
    ids=["disorder", "dephasing"],
)
def test_ensemble_csv_states_the_enforced_row_sum_tolerance(tmp_path, payload):
    cfg = _write_cfg(tmp_path, "e.json", {**payload, "output": {"directory": str(tmp_path)}})
    assert main(["simulate", str(cfg)]) == 0
    first = (tmp_path / "intensity.csv").read_text().splitlines()[0]
    assert first == f"# row probability sum tolerance: {ROW_SUM_TOL:g}"


def _write_matrix_csv_per_value(path, first_header, first_col, rows, comment=None):
    """Every value through _fmt, the way the writer ran before it skipped zeros."""
    n = rows.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(first_header + "," + ",".join(f"site_{j}" for j in range(n)) + "\n")
        for label, row in zip(first_col, rows):
            fh.write(_fmt(label) + "," + ",".join(_fmt(v) for v in row) + "\n")


def test_matrix_csv_bytes_equal_per_value_formatting(tmp_path):
    rows = np.array([
        [0.0, -0.0, 5e-324, 1e22, 0.1, 0.0, 0.0],
        [0.0] * 7,
        [0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.75],
        [-0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0],
        np.random.default_rng(3).uniform(-1.0, 1.0, 7),
    ])
    labels = np.linspace(0.0, 0.6, rows.shape[0])
    _write_matrix_csv(tmp_path / "fast.csv", "z", labels, rows, comment="c")
    _write_matrix_csv_per_value(tmp_path / "ref.csv", "z", labels, rows, comment="c")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_byte_identical_reruns(tmp_path):
    cfg = _write_cfg(
        tmp_path, "d.json",
        {
            "experiment": "disorder",
            "lattice": {"n_sites": 99},
            "initial_state": {"kind": "single_site", "site": 49},
            "zgrid": {"stop": 20.0, "steps": 5},
            "disorder": {"offdiag_strength": 0.5},
            "n_realizations": 80,
            "master_seed": 1234,
        },
    )
    main(["simulate", str(cfg), "--output-dir", str(tmp_path / "a")])
    main(["simulate", str(cfg), "--output-dir", str(tmp_path / "b")])
    for name in ("intensity.csv", "observables.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_boundary_sweep_carpet(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "s.json",
        {
            "experiment": "boundary_sweep",
            "lattice": {"n_sites": 400},
            "zgrid": {"stop": 4.0, "steps": 5},
            "sweep": {"input_min": 0, "input_max": 20},
            "output": {"directory": str(out)},
        },
    )
    assert main(["simulate", str(cfg)]) == 0
    header, carpet = _read_csv(out / "carpet.csv")
    assert header[0] == "input_site"
    assert carpet.shape == (21, 401)
    assert np.array_equal(carpet[:, 0], np.arange(21.0))
    # near-wall input agrees with the mirror-source closed form
    ref0 = np.abs(image_boundary_state(0, 1.0, 4.0, 400).amps) ** 2
    assert np.max(np.abs(carpet[0, 1:] - ref0)) < 1e-8
    pgm = (out / "carpet.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[1].startswith("#")
    assert pgm[2] == "400 21"


def test_sweep_far_from_wall_is_symmetric(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "s2.json",
        {
            "experiment": "boundary_sweep",
            "lattice": {"n_sites": 401},
            "zgrid": {"stop": 4.0, "steps": 3},
            "sweep": {"input_min": 195, "input_max": 205},
            "output": {"directory": str(out)},
        },
    )
    main(["simulate", str(cfg)])
    _, carpet = _read_csv(out / "carpet.csv")
    row = carpet[5, 1:]  # input site 200, dead center
    k = np.arange(1, 60)
    assert np.max(np.abs(row[200 + k] - row[200 - k])) < 1e-8


def test_formats_control_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "b.json",
        {**BALLISTIC, "output": {"directory": str(out), "formats": ["json"]}},
    )
    main(["simulate", str(cfg)])
    assert (out / "run.json").exists()
    assert not (out / "intensity.csv").exists()


def test_workers_variable_is_ignored(tmp_path):
    # WAVEWALK_WORKERS is a no-op: even a value that is not a number runs cleanly
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "d.json",
        {
            "experiment": "disorder",
            "lattice": {"n_sites": 31},
            "zgrid": {"stop": 2.0, "steps": 3},
            "disorder": {"offdiag_strength": 0.5},
            "n_realizations": 5,
            "output": {"directory": str(out), "formats": ["csv"]},
        },
    )
    src = str(Path(wavewalk.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, WAVEWALK_WORKERS="abc", PYTHONPATH=pythonpath)
    run = subprocess.run([sys.executable, "-m", "wavewalk", "simulate", str(cfg)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert (out / "intensity.csv").is_file()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "bad.json", {"experiment": "disorder",
                                            "lattice": {"n_sites": 99},
                                            "zgrid": {"stop": 1.0}})
    assert main(["simulate", str(cfg)]) == 2
    assert "disorder" in capsys.readouterr().err
    assert main(["simulate", str(tmp_path / "nothere.json")]) == 2


def test_numerical_failure_exit_code(tmp_path, capsys):
    # classical walk on a window far too small for the requested time
    cfg = _write_cfg(
        tmp_path, "c.json",
        {
            "experiment": "classical",
            "lattice": {"n_sites": 21},
            "zgrid": {"stop": 50.0, "steps": 3},
            "output": {"directory": str(tmp_path / "out")},
        },
    )
    assert main(["simulate", str(cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_validate_prints_resolved_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "b.json", BALLISTIC)
    assert main(["validate", str(cfg)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == validate_config(cfg).to_dict()


def test_oracle_bessel_stdout(capsys):
    assert main(["oracle", "bessel", "--j0", "40", "--z", "2.0", "--n-sites", "81"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "site,re,im,intensity"
    vals = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    ref = bessel_free_state(40, 1.0, 2.0, 81).amps
    assert np.max(np.abs(vals[:, 1] + 1j * vals[:, 2] - ref)) < 1e-15


def test_oracle_ctrw_stdout(capsys):
    assert main(["oracle", "ctrw", "--j0", "30", "--t", "3.0", "--n-sites", "61"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "site,probability"
    total = sum(float(l.split(",")[1]) for l in lines[1:])
    assert abs(total - 1.0) < 1e-10


def test_oracle_images_window_failure_exit_code(capsys):
    assert main(["oracle", "images", "--j0", "0", "--z", "30.0", "--n-sites", "20"]) == 3


def test_classical_cli_variance_is_diffusive(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "c.json",
        {
            "experiment": "classical",
            "lattice": {"n_sites": 201},
            "zgrid": {"start": 1.0, "stop": 10.0, "steps": 10},
            "output": {"directory": str(out)},
        },
    )
    assert main(["simulate", str(cfg)]) == 0
    _, obs = _read_csv(out / "observables.csv")
    assert np.max(np.abs(obs[:, 1] - 2.0 * obs[:, 0])) < 1e-8  # sigma^2 = 2 gamma t
