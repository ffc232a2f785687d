"""CLI harness: artifacts, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavewalk
from wavewalk import (
    SingleSite,
    ZGrid,
    bessel_free_state,
    build_hamiltonian,
    evolve_chebyshev,
    evolve_eigen,
    image_boundary_state,
    make_initial_state,
    uniform_lattice,
    validate_config,
)
from wavewalk import config, ensembles, kernels, propagators
from wavewalk.cli import _fmt, _write_matrix_csv, main, run_experiment
from wavewalk.ensembles import ROW_SUM_TOL
from wavewalk.propagators import (
    _CHEBYSHEV_TOL,
    _PRODUCT_TERMS,
    _STEP_SITES,
    _chebyshev_enclosure,
    _chebyshev_table,
    chebyshev_rows,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        # minus_degree_gamma sets the diagonal from the couplings alone
        ({**SMALL, "experiment": "disorder",
          "lattice": {"n_sites": 41, "diag_convention": "minus_degree_gamma"},
          "disorder": {"diag_strength": 5}, "n_realizations": 4}, "disorder.diag_strength"),
        ({**SMALL, "experiment": "ballistic",
          "lattice": {"n_sites": 5, "diag_convention": "minus_degree_gamma",
                      "beta": [0.0, 1.0, 0.0, 0.0, 2.0]}}, "lattice.beta"),
    ],
    ids=["dephasing", "boundary_sweep", "classical", "ballistic", "disorder",
         "disorder_minus_degree_diag_strength", "ballistic_minus_degree_beta"],
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
        # refused by the Chebyshev work ceiling, which the noise widens
        ({**SMALL, "experiment": "dephasing", "n_realizations": 2,
          "dephasing": {"segment_length": 0.5, "phase_strength": 1e300}},
         2, "config error: zgrid.stop"),
        # refused by the Chebyshev work ceiling before the order ceiling is met
        ({**SMALL, "experiment": "ballistic", "zgrid": {"stop": 1e300, "steps": 2},
          "propagator": {"method": "chebyshev"}},
         2, "config error: zgrid.stop"),
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
        # |beta| + 2 * coupling times max(2, zgrid.stop) overflows
        ({**SMALL, "experiment": "ballistic", "lattice": {"n_sites": 5, "beta": 1e308}},
         2, "config error: lattice.beta"),
        ({**SMALL, "experiment": "ballistic", "lattice": {"n_sites": 5, "beta": -1e308},
          "propagator": {"method": "chebyshev"}},
         2, "config error: lattice.beta"),
        ({**SMALL, "experiment": "boundary_sweep", "lattice": {"n_sites": 5, "beta": 1e308},
          "sweep": {"input_max": 4}},
         2, "config error: lattice.beta"),
        ({**SMALL, "experiment": "ballistic", "lattice": {"n_sites": 5, "coupling": 1e308}},
         2, "config error: lattice.coupling"),
        ({**SMALL, "experiment": "ballistic",
          "lattice": {"n_sites": 5, "coupling": 1e308, "diag_convention": "minus_degree_gamma"}},
         2, "config error: lattice.coupling"),
        ({**SMALL, "experiment": "disorder", "lattice": {"n_sites": 5, "coupling": 1e308},
          "disorder": {"offdiag_strength": 0.5}, "n_realizations": 4},
         2, "config error: lattice.coupling"),
        ({**SMALL, "experiment": "disorder",
          "lattice": {"n_sites": 5, "coupling": 1e308, "diag_convention": "minus_degree_gamma"},
          "disorder": {"offdiag_strength": 0.5}, "n_realizations": 4},
         2, "config error: lattice.coupling"),
        # a billion noise segments, refused before any per-segment list is built
        ({"experiment": "dephasing", "lattice": {"n_sites": 9},
          "zgrid": {"stop": 1000.0, "steps": 3},
          "dephasing": {"segment_length": 1e-6, "phase_strength": 1.0}},
         2, "config error: dephasing.segment_length"),
        # Chebyshev work above the ceiling: 8e5 terms on 3 sites, and a sweep
        # whose work grows tenfold with each tenfold in z
        ({"experiment": "ballistic", "lattice": {"n_sites": 3},
          "zgrid": {"stop": 4e5, "steps": 2}, "propagator": {"method": "chebyshev"}},
         2, "config error: zgrid.stop"),
        ({"experiment": "boundary_sweep", "lattice": {"n_sites": 400},
          "zgrid": {"stop": 1e4, "steps": 81}},
         2, "config error: zgrid.stop"),
        # 80 GB of z values, refused before the grid is built
        ({**SMALL, "experiment": "ballistic", "zgrid": {"stop": 1.0, "steps": 10**10}},
         2, "config error: zgrid.steps"),
        # dephasing work above the ceiling: unchecked, each runs past 5 s,
        # the first about 10 s on 2 cores
        ({"experiment": "dephasing", "lattice": {"n_sites": 10}, "zgrid": {"stop": 1.0, "steps": 3},
          "dephasing": {"segment_length": 0.5, "phase_strength": 1e6}, "n_realizations": 3},
         2, "config error: zgrid.stop"),
        ({"experiment": "dephasing", "lattice": {"n_sites": 10}, "zgrid": {"stop": 1e6},
          "dephasing": {"segment_length": 31250.0, "phase_strength": 1.0}, "n_realizations": 3},
         2, "config error: zgrid.stop"),
        # the noise widens the spectral bound past the largest float
        ({"experiment": "dephasing", "lattice": {"n_sites": 10}, "zgrid": {"stop": 10.0, "steps": 3},
          "dephasing": {"segment_length": 10.0, "phase_strength": 1e308}, "n_realizations": 3},
         2, "config error: dephasing.phase_strength"),
    ],
    ids=["gaussian_width", "gaussian_off_site", "dephasing_strength", "ballistic_z",
         "gaussian_tilt", "collapsed_zgrid", "classical_huge_gamma_t",
         "disorder_coupling_underflow", "beta_overflow_eigen", "beta_overflow_chebyshev",
         "beta_overflow_sweep", "coupling_overflow", "coupling_overflow_minus_degree",
         "disorder_coupling_overflow", "disorder_coupling_overflow_minus_degree",
         "dephasing_segment_ceiling", "chebyshev_work_budget", "sweep_work_budget",
         "zgrid_steps_ceiling", "dephasing_work_budget_strength", "dephasing_work_budget_z",
         "dephasing_strength_overflow"],
)
def test_unrunnable_config_exits_with_a_message(tmp_path, capsys, payload, code, key):
    cfg = _write_cfg(tmp_path, "f.json", {**payload, "output": {"directory": str(tmp_path)}})
    assert main(["simulate", str(cfg)]) == code
    assert key in capsys.readouterr().err


SUBNORMAL = {"zgrid": {"stop": 2.0, "steps": 3}}


@pytest.mark.parametrize("coupling", [5e-324, 1e-310], ids=["5e-324", "1e-310"])
@pytest.mark.parametrize(
    "payload,launch",
    [
        ({**SUBNORMAL, "experiment": "boundary_sweep", "sweep": {"input_min": 0, "input_max": 4}},
         0),
        ({**SUBNORMAL, "experiment": "ballistic", "propagator": {"method": "chebyshev"}}, 5),
        ({**SUBNORMAL, "experiment": "dephasing", "n_realizations": 3,
          "dephasing": {"segment_length": 0.5, "phase_strength": 5e-324}}, 5),
    ],
    ids=["boundary_sweep", "chebyshev", "dephasing"],
)
def test_subnormal_coupling_runs_stay_on_the_launch_site(tmp_path, payload, launch, coupling):
    # the Chebyshev half-width is floored at the smallest normal float, so its
    # inverse stays finite
    cfg = _write_cfg(tmp_path, "s.json", {
        **payload, "lattice": {"n_sites": 11, "coupling": coupling},
        "output": {"directory": str(tmp_path)}})
    assert main(["simulate", str(cfg)]) == 0
    _, data = _read_csv(tmp_path / "intensity.csv")
    expected = np.zeros((data.shape[0], 11))
    expected[:, launch] = 1.0
    assert np.max(np.abs(data[:, 1:] - expected)) <= 1e-12


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


def _run_sweep(tmp_path, name, n_sites, lo, hi, z, beta=0.0):
    out = tmp_path / name
    cfg = _write_cfg(tmp_path, f"{name}.json", {
        "experiment": "boundary_sweep",
        "lattice": {"n_sites": n_sites, "beta": beta},
        "zgrid": {"stop": z, "steps": 5},
        "sweep": {"input_min": lo, "input_max": hi},
        "output": {"directory": str(out), "formats": ["csv"]},
    })
    assert main(["simulate", str(cfg)]) == 0
    return out


def _light_cone_order(n_sites, z):
    _, halfwidth = _chebyshev_enclosure(build_hamiltonian(uniform_lattice(n_sites)))
    return _chebyshev_table(np.array([halfwidth * z]), _CHEBYSHEV_TOL).shape[0] - 1


# (n_sites, input_min, input_max, z): inputs on the wall; inputs farther than
# the expansion order K from both ends; a chain short enough that the window
# is clipped at the far end as well
SWEEPS = {
    "wall": (400, 0, 20, 8.0),
    "interior": (400, 150, 170, 8.0),
    "short_chain": (30, 0, 10, 8.0),
}


@pytest.mark.parametrize("case", list(SWEEPS), ids=list(SWEEPS))
def test_sweep_carpet_equals_whole_lattice_block(tmp_path, case):
    n, lo, hi, z = SWEEPS[case]
    k = _light_cone_order(n, z)
    window_lo, window_hi = lo - k, hi + k + 1
    assert {"wall": window_lo < 0 < window_hi < n, "interior": 0 < window_lo < window_hi < n,
            "short_chain": window_lo < 0 and window_hi > n}[case]
    _, carpet = _read_csv(_run_sweep(tmp_path, case, n, lo, hi, z) / "carpet.csv")
    h = build_hamiltonian(uniform_lattice(n))
    center, halfwidth = _chebyshev_enclosure(h)
    coeffs = _chebyshev_table(np.array([halfwidth * z]), _CHEBYSHEV_TOL)
    acc = np.empty((1, hi - lo + 1, n), dtype=np.complex128)
    kernels.chebyshev_apply(h.diag, h.offdiag, h.corner, center, halfwidth, coeffs,
                            np.eye(hi - lo + 1, n, k=lo), acc)
    amps = np.exp(-1j * center * z) * acc[0]
    assert np.array_equal(carpet[:, 1:], amps.real ** 2 + amps.imag ** 2)
    # and against the spectral reference, input by input
    grid = ZGrid(np.array([z]))
    ref = np.array([evolve_eigen(h, make_initial_state(SingleSite(j), n), grid).intensities()[0]
                    for j in range(lo, hi + 1)])
    assert np.max(np.abs(carpet[:, 1:] - ref)) <= 1e-12


@pytest.mark.parametrize("case", list(SWEEPS), ids=list(SWEEPS))
def test_each_carpet_row_equals_a_single_launch(case):
    # the carpet runs every input on the window of their joint support; each
    # row must still be the single launch from its input site, to rounding:
    # the launch forms its two z columns as one product, the carpet streams
    # its one column
    n, lo, hi, z = SWEEPS[case]
    h = build_hamiltonian(uniform_lattice(n))
    grid = ZGrid(np.array([0.5 * z, z]))
    block = chebyshev_rows(h, np.eye(hi - lo + 1, n, k=lo), grid.values[-1:])[0]
    for j, row in zip(range(lo, hi + 1), block):
        single = evolve_chebyshev(h, make_initial_state(SingleSite(j), n), grid).amps[-1]
        assert np.max(np.abs(row - single)) <= 1e-15, j
        assert np.array_equal(row == 0.0, single == 0.0), j


def test_sweep_rows_agree_with_eigen_and_are_exactly_zero_outside_the_light_cone(tmp_path):
    n, lo, z = 400, 150, 8.0
    out = _run_sweep(tmp_path, "rows", n, lo, 170, z)
    lines = [l for l in (out / "intensity.csv").read_text().splitlines()
             if not l.startswith("#")][1:]
    _, data = _read_csv(out / "intensity.csv")
    h = build_hamiltonian(uniform_lattice(n))
    ref = evolve_eigen(h, make_initial_state(SingleSite(lo), n), ZGrid(data[:, 0])).intensities()
    assert np.max(np.abs(data[:, 1:] - ref)) <= 1e-12
    for line, zi in zip(lines, data[:, 0]):
        k = _light_cone_order(n, zi)
        fields = line.split(",")[1:]
        outside = fields[: lo - k] + fields[lo + k + 1 :]
        assert outside and set(outside) == {"0"}


def test_sweep_under_a_huge_uniform_beta_is_the_beta_0_sweep(tmp_path):
    # ulp(1e17) = 16 exceeds the band width; the expansion runs in the frame
    # shifted by the enclosure centre, so beta is only a phase
    runs = [_run_sweep(tmp_path, f"beta_{beta:g}", 41, 0, 10, 8.0, beta=beta)
            for beta in (0.0, 1e17)]
    for name in ("carpet.csv", "intensity.csv"):
        (_, a), (_, b) = (_read_csv(run / name) for run in runs)
        assert np.max(np.abs(a - b)) <= 1e-14


def test_formats_control_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "b.json",
        {**BALLISTIC, "output": {"directory": str(out), "formats": ["json"]}},
    )
    main(["simulate", str(cfg)])
    assert (out / "run.json").exists()
    assert not (out / "intensity.csv").exists()


def _fresh_python(*args, **env) -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args`` and the extra ``env``, importing
    wavewalk from this checkout."""
    src = str(Path(wavewalk.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=pythonpath, **env),
                          capture_output=True, text=True)


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
    run = _fresh_python("-m", "wavewalk", "simulate", cfg, WAVEWALK_WORKERS="abc")
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert (out / "intensity.csv").is_file()


@pytest.mark.parametrize("payload", [
    {"experiment": "ballistic", "lattice": {"n_sites": 301}, "zgrid": {"stop": 20.0, "steps": 5},
     "initial_state": {"kind": "two_site", "sites": [104, 100]},
     "propagator": {"method": "chebyshev"}},
    {"experiment": "ballistic", "zgrid": {"stop": 6.0, "steps": 4},
     "lattice": {"n_sites": 40, "boundary": "periodic", "coupling": [1.0] * 40},
     "initial_state": {"kind": "single_site", "site": 3}, "propagator": {"method": "chebyshev"}},
    {"experiment": "boundary_sweep", "lattice": {"n_sites": 200}, "zgrid": {"stop": 8.0, "steps": 9},
     "sweep": {"input_min": 2, "input_max": 12}},
    # two blocks of histories, the second partly filled
    {"experiment": "dephasing", "lattice": {"n_sites": 21}, "zgrid": {"stop": 2.0, "steps": 7},
     "dephasing": {"segment_length": 0.5, "phase_strength": 4.0}, "n_realizations": 70},
    {"experiment": "dephasing", "lattice": {"n_sites": 41, "boundary": "periodic"},
     "zgrid": {"stop": 3.0, "steps": 5},
     "dephasing": {"segment_length": 0.75, "phase_strength": 2.0}, "n_realizations": 5},
    # the no-noise control: one clean launch
    {"experiment": "dephasing", "lattice": {"n_sites": 301}, "zgrid": {"stop": 20.0, "steps": 5},
     "dephasing": {"segment_length": 0.5, "phase_strength": 0.0}, "n_realizations": 5},
    # two blocks of realizations, the second partly filled; each realization
    # adds a fixed cost
    {"experiment": "disorder", "lattice": {"n_sites": 41}, "zgrid": {"stop": 20.0, "steps": 5},
     "disorder": {"offdiag_strength": 0.5, "diag_strength": 1.0}, "n_realizations": 40},
    # grid rows inside the noise segments, so most segments end between rows
    {"experiment": "dephasing", "lattice": {"n_sites": 31}, "zgrid": {"stop": 2.0, "steps": 6},
     "dephasing": {"segment_length": 0.5, "phase_strength": 3.0}, "n_realizations": 10},
    # realizations whose diagonals follow their own mean couplings
    {"experiment": "disorder", "zgrid": {"stop": 10.0, "steps": 6},
     "lattice": {"n_sites": 40, "boundary": "periodic", "diag_convention": "minus_degree_gamma"},
     "disorder": {"offdiag_strength": 0.4}, "n_realizations": 40},
    # a small lattice far out in z, where the per-state products of 101
    # columns outweigh the recurrence
    {"experiment": "disorder", "lattice": {"n_sites": 10}, "zgrid": {"stop": 1000.0, "steps": 101},
     "disorder": {"offdiag_strength": 0.5}, "n_realizations": 40},
], ids=["two_site", "ring", "boundary_sweep", "dephasing", "dephasing_ring", "dephasing_control",
        "disorder", "dephasing_mid_segment", "disorder_ring_minus_degree", "disorder_long_z"])
def test_chebyshev_work_estimate_bounds_the_run(tmp_path, monkeypatch, payload):
    # the loader charges every light-cone call the run makes, each expansion
    # at its order ceiling, so its estimate bounds the work the run performs,
    # here within a factor of 10, against the one ceiling
    key = "n_realizations" if payload["experiment"] == "disorder" else "zgrid.stop"
    cfg = config.load_config(payload)
    done = []
    apply = kernels.chebyshev_apply

    def counting(diag, off, corner, center, halfwidth, coeffs, psi, out):
        # the recurrence steps; then a one-column table's streamed sum, one
        # update of the window per term, or else every term of every column
        # for each state, at the weight the model gives the per-state products
        k, n_cols = coeffs.shape
        sums = k * psi.size if n_cols == 1 else k * n_cols * psi.size // _PRODUCT_TERMS
        done.append((k - 1) * (psi.size + _STEP_SITES) + sums)
        return apply(diag, off, corner, center, halfwidth, coeffs, psi, out)

    monkeypatch.setattr(kernels, "chebyshev_apply", counting)
    run_experiment(cfg, output_dir=str(tmp_path))
    monkeypatch.setattr(config, "_MAX_WORK", sum(done) - 1)
    with pytest.raises(config.ConfigError, match=key):
        config.load_config(payload)
    monkeypatch.setattr(config, "_MAX_WORK", 10 * sum(done))
    config.load_config(payload)


@pytest.mark.parametrize("convention", ["beta_as_given", "minus_degree_gamma"])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("experiment", ["ballistic", "disorder", "dephasing"])
def test_work_estimate_halfwidth_bounds_the_engine_enclosure(tmp_path, monkeypatch, experiment,
                                                             boundary, convention):
    # the loader charges every call on a half-width bound that must hold the
    # enclosure each light-cone call of the engine uses, padded by its
    # disorder or noise
    n = 24
    bonds = n if boundary == "periodic" else n - 1
    lattice = {"n_sites": n, "boundary": boundary, "diag_convention": convention,
               "coupling": [1.0 + 0.5 * (j % 3) for j in range(bonds)]}
    if convention == "beta_as_given":
        lattice["beta"] = [0.3 * (j % 5) - 0.6 for j in range(n)]
    payload = {"experiment": experiment, "lattice": lattice, "zgrid": {"stop": 2.0, "steps": 5}}
    if experiment == "ballistic":
        payload["propagator"] = {"method": "chebyshev"}
    elif experiment == "disorder":
        payload.update(n_realizations=3, disorder={
            "offdiag_strength": 0.4, "diag_strength": 1.5 if convention == "beta_as_given" else 0.0})
    else:
        payload.update(n_realizations=3, dephasing={"segment_length": 0.5, "phase_strength": 4.0})
    charged, used = [], []
    work, rows = config._chebyshev_work, propagators._light_cone_rows
    monkeypatch.setattr(config, "_chebyshev_work",
                        lambda *args: charged.append(args[5]) or work(*args))
    cfg = config.load_config(payload)
    for module in (propagators, ensembles):
        monkeypatch.setattr(module, "_light_cone_rows",
                            lambda *args: used.append(args[4]) or rows(*args))
    run_experiment(cfg, output_dir=str(tmp_path))
    assert charged and used
    assert min(charged) >= max(used)


_SIMULATE_ALL = """
import sys
from pathlib import Path
from wavewalk.cli import main

out = Path(sys.argv[1])
for path in sys.argv[2:]:
    assert main(["simulate", path, "--output-dir", str(out / Path(path).stem)]) == 0
"""


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS sizes its thread pool from the machine's cores, so equal configs
    # must give equal bytes at every thread count; the eigen configs are not
    # among these yet. Every Chebyshev call of more than one z forms its
    # columns with BLAS products, one per state: the disorder config runs
    # them at the shape of the paper's ensemble
    control = _write_cfg(tmp_path, "control.json", {
        "experiment": "dephasing", "lattice": {"n_sites": 400},
        "zgrid": {"stop": 20.0, "steps": 21},
        "dephasing": {"segment_length": 0.5, "phase_strength": 0.0}, "n_realizations": 3})
    # two blocks of disorder realizations on a ring, the second partly filled
    disorder = _write_cfg(tmp_path, "disorder_small.json", {
        "experiment": "disorder", "lattice": {"n_sites": 60, "boundary": "periodic"},
        "zgrid": {"stop": 10.0, "steps": 11},
        "disorder": {"offdiag_strength": 0.5, "diag_strength": 1.0}, "n_realizations": 40})
    names = ("classical", "dephasing", "boundary_sweep", "stress_n10000", "disorder")
    configs = [CONFIGS / f"{name}.json" for name in names] + [control, disorder]
    files = {}
    for threads in ("1", "2", "4"):
        out = tmp_path / f"threads_{threads}"
        run = _fresh_python("-c", _SIMULATE_ALL, out, *configs,
                            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert run.returncode == 0, run.stderr
        files[threads] = {str(path.relative_to(out)): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.suffix in (".csv", ".pgm")}
    assert {name.split("/")[0] for name in files["1"]} == {*names, "control", "disorder_small"}
    for threads in ("2", "4"):
        assert files[threads].keys() == files["1"].keys()
        assert [name for name in files["1"] if files[threads][name] != files["1"][name]] == [], \
            threads


_SCIPY_LOADED = """
import sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # only decompose and classical_ctrw_distribution import scipy, on first call
    code = _SCIPY_LOADED + """
from pathlib import Path
import wavewalk
from wavewalk.cli import main

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
for path in sorted(configs.glob("*.json")):
    wavewalk.validate_config(path)
    assert not scipy_loaded(), ("validate", path.name, scipy_loaded())
for name in ("stress_n10000", "dephasing", "boundary_sweep", "disorder"):
    assert main(["simulate", str(configs / f"{name}.json"), "--output-dir", str(out / name)]) == 0
    assert not scipy_loaded(), ("simulate", name, scipy_loaded())
for which in ("bessel", "images"):
    assert main(["oracle", which, "--j0", "20", "--z", "1.0", "--n-sites", "41"]) == 0
    assert not scipy_loaded(), ("oracle", which, scipy_loaded())
"""
    run = _fresh_python("-c", code, CONFIGS, tmp_path)
    assert run.returncode == 0, run.stderr
    assert len(list(tmp_path.iterdir())) == 4


def test_deferred_scipy_imports_resolve(tmp_path):
    code = _SCIPY_LOADED + """
from wavewalk.cli import main

for path, module in zip(sys.argv[1:], ("scipy.linalg", "scipy.special")):
    assert module not in scipy_loaded()
    assert main(["simulate", path]) == 0
    assert module in scipy_loaded(), (path, scipy_loaded())
"""
    small = {"lattice": {"n_sites": 41}, "zgrid": {"stop": 2.0, "steps": 3}}
    # the eigen path diagonalizes the open chain with scipy's eigh_tridiagonal
    eigen = _write_cfg(tmp_path, "e.json", {
        **small, "experiment": "ballistic", "propagator": {"method": "eigen"},
        "output": {"directory": str(tmp_path / "e")}})
    classical = _write_cfg(tmp_path, "c.json", {
        **small, "experiment": "classical", "output": {"directory": str(tmp_path / "c")}})
    run = _fresh_python("-c", code, eigen, classical)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "e" / "intensity.csv").is_file()
    assert (tmp_path / "c" / "intensity.csv").is_file()


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


@pytest.mark.parametrize("argv,code,needle", [
    ("bessel --j0 5 --z 1 --n-sites 3", 2, "--j0"),
    ("bessel --j0 1 --z -1 --n-sites 3", 2, "--z"),
    ("bessel --j0 1 --z nan --n-sites 3", 2, "--z"),
    ("bessel --j0 0 --z 1 --n-sites 1", 2, "--n-sites"),
    ("images --j0 0 --c 0 --z 1 --n-sites 41", 2, "--c"),
    ("ctrw --j0 20 --gamma -1 --t 1 --n-sites 41", 2, "--gamma"),
    # negative values that argparse alone would take for flags
    ("bessel --j0 5 --z -1e-3 --n-sites 11", 2, "--z: must be finite and >= 0"),
    ("ctrw --j0 20 --gamma -inf --t 1 --n-sites 41", 2, "--gamma: must be finite and > 0"),
    # 2cz = 2e300 would need the Bessel sequence to order 2e300; refused first
    ("bessel --j0 20 --z 1e300 --n-sites 41", 3, "window of 41 sites"),
])
def test_oracle_flag_errors_exit_with_a_message(capsys, argv, code, needle):
    assert main(["oracle", *argv.split()]) == code
    err = capsys.readouterr().err
    assert needle in err and "coupling" not in err


def test_output_directory_that_cannot_be_created_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    cfg = _write_cfg(tmp_path, "b.json",
                     {**BALLISTIC, "output": {"directory": str(blocker / "sub")}})
    assert main(["simulate", str(cfg)]) == 2
    assert "output.directory" in capsys.readouterr().err
    assert main(["simulate", str(cfg), "--output-dir", str(blocker)]) == 2
    assert "--output-dir" in capsys.readouterr().err


@pytest.mark.parametrize("blocked", ["intensity.csv", "carpet.pgm", "run.json"])
def test_artifact_that_cannot_be_written_is_a_config_error(tmp_path, capsys, blocked):
    # a directory where an artifact should go: the file and the key that chose
    # the output directory are named, and nothing escapes as a traceback
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = _write_cfg(tmp_path, "s.json", {
        "experiment": "boundary_sweep", "lattice": {"n_sites": 30}, "zgrid": {"stop": 2.0},
        "sweep": {"input_min": 0, "input_max": 3}, "output": {"directory": str(out)}})
    assert main(["simulate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "output.directory" in err and blocked in err
    assert main(["simulate", str(cfg), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--output-dir" in err and blocked in err


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
