"""Tests of the benchmark itself: each workload's checks pass on the program's
output at toy size, and fail once that output is perturbed.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """name -> (params, artifacts dir) of one untraced toy run per workload."""
    out = tmp_path_factory.mktemp("toy")
    done = {}
    for name in workloads.WORKLOADS:
        result = run.run(name, SEED, 0.0, traced=False, size="toy", out_root=out)
        done[name] = (workloads.params(name, SEED, "toy"), out / name / "artifacts", result)
    return done


def _copy(toy, name, tmp_path):
    p, art, _ = toy[name]
    dst = tmp_path / "artifacts"
    shutil.copytree(art, dst)
    return p, dst


def _rewrite_matrix(path: Path, fn) -> None:
    """Apply ``fn`` to the numeric rows of a wavewalk CSV matrix, keeping its headers."""
    lines = path.read_text().splitlines(keepends=True)
    head = [ln for ln in lines if ln.startswith("#")] + [ln for ln in lines
                                                         if ln.startswith(("z,", "input_site,"))]
    labels, rows = checks.read_matrix(path)
    rows = fn(rows.copy())
    body = [",".join(f"{v:.17g}" for v in (lab, *row)) + "\n" for lab, row in zip(labels, rows)]
    path.write_text("".join(head + body))


def _rewrite_observables(path: Path, column: int, fn) -> None:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    data[:, column] = fn(data)
    header = path.read_text().splitlines(keepends=True)[0]
    path.write_text(header + "".join(",".join(f"{v:.17g}" for v in r) + "\n" for r in data))


def _scale_row(i):
    def fn(rows):
        rows[i] *= 1.0 + 1e-6
        return rows
    return fn


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_toy_run_is_correct_and_reports_end_to_end_metrics(toy, name):
    p, art, result = toy[name]
    assert checks.CHECKS[name](p, art) == []
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_runs_report_every_per_layer_metric_with_repeatable_counts(tmp_path, name):
    results = [run.run(name, SEED, 0.0, traced=True, size="toy", out_root=tmp_path / str(i))
               for i in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for r in results:
        assert r["correct"]
        assert {k: v["unit"] for k, v in r["metrics"].items()} == expected
        counts.append({k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["lattice.build_calls"] >= 1 and counts[0]["cli.bytes_written"] > 0


def test_workload_counts_match_their_configs(tmp_path):
    r = run.run("disorder_ensemble", SEED, 0.0, traced=True, size="toy", out_root=tmp_path)
    p = workloads.params("disorder_ensemble", SEED, "toy")
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert m["ensembles.sample_calls"] == p["n_realizations"]
    assert m["propagators.evolve_eigen_calls"] == p["n_realizations"]
    assert m["observables.calls"] == 2 * p["n_realizations"] * p["z_steps"]


def test_ballistic_check_rejects_a_perturbed_row(toy, tmp_path):
    p, art = _copy(toy, "ballistic_n10k", tmp_path)
    _rewrite_matrix(art / "intensity.csv", _scale_row(5))
    fails = checks.check_ballistic(p, art)
    assert len(fails) == 1 and "J_{j-j0}" in fails[0]


def test_boundary_check_rejects_a_perturbed_carpet_row(toy, tmp_path):
    p, art = _copy(toy, "boundary_carpet", tmp_path)
    _rewrite_matrix(art / "carpet.csv", _scale_row(3))
    assert any("carpet vs mirror-source" in f for f in checks.check_boundary(p, art))


def test_boundary_check_rejects_a_perturbed_wall_row(toy, tmp_path):
    p, art = _copy(toy, "boundary_carpet", tmp_path)
    _rewrite_matrix(art / "intensity.csv", _scale_row(4))
    fails = checks.check_boundary(p, art)
    assert len(fails) == 1 and "wall-adjacent" in fails[0]


def test_boundary_check_rejects_a_wrong_pixel(toy, tmp_path):
    p, art = _copy(toy, "boundary_carpet", tmp_path)
    pgm = art / "carpet.pgm"
    lines = pgm.read_text().splitlines()
    pixels = lines[4].split()
    pixels[0] = str((int(pixels[0]) + 1) % 256)
    lines[4] = " ".join(pixels)
    pgm.write_text("\n".join(lines) + "\n")
    fails = checks.check_boundary(p, art)
    assert len(fails) == 1 and "carpet.pgm" in fails[0]


def test_disorder_check_rejects_a_perturbed_mean(toy, tmp_path):
    p, art = _copy(toy, "disorder_ensemble", tmp_path)
    _rewrite_matrix(art / "intensity.csv", _scale_row(-1))
    fails = checks.check_disorder(p, art)
    assert len(fails) == 1 and "dense recomputation" in fails[0]


def test_disorder_check_rejects_a_flat_tail(toy, tmp_path):
    p, art = _copy(toy, "disorder_ensemble", tmp_path)

    def flatten(rows):
        rows[-1] = 1.0 / rows.shape[1]
        return rows

    _rewrite_matrix(art / "intensity.csv", flatten)
    assert any(f.startswith("tail fit") for f in checks.check_disorder(p, art))


def test_disorder_check_rejects_a_clean_participation_ratio(toy, tmp_path):
    p, art = _copy(toy, "disorder_ensemble", tmp_path)
    clean = checks.clean_participation_ratio(p)
    _rewrite_observables(art / "observables.csv", 2, lambda d: np.full(d.shape[0], clean))
    fails = checks.check_disorder(p, art)
    assert len(fails) == 1 and "participation ratio" in fails[0]


def test_dephasing_check_rejects_a_row_that_does_not_sum_to_one(toy, tmp_path):
    p, art = _copy(toy, "dephasing_ensemble", tmp_path)
    _rewrite_matrix(art / "intensity.csv", _scale_row(7))
    assert any(f.startswith("row sums") for f in checks.check_dephasing(p, art))


def test_dephasing_check_rejects_a_ballistic_exponent(toy, tmp_path):
    p, art = _copy(toy, "dephasing_ensemble", tmp_path)
    _rewrite_observables(art / "observables.csv", 1, lambda d: d[:, 1] * np.sqrt(d[:, 0]))
    fails = checks.check_dephasing(p, art)
    assert len(fails) == 1 and "variance exponent" in fails[0]


def test_dephasing_check_rejects_a_history_mismatch_that_keeps_row_sums(toy, tmp_path):
    p, art = _copy(toy, "dephasing_ensemble", tmp_path)

    def shift(rows):
        j0 = p["j0"]
        rows[10, j0] -= 1e-9
        rows[10, j0 + 1] += 1e-9
        return rows

    _rewrite_matrix(art / "intensity.csv", shift)
    fails = checks.check_dephasing(p, art)
    assert len(fails) == 1 and "recomputed histories" in fails[0]


def test_self_time_subtracts_the_union_of_concurrent_children():
    # parent 0..10 s; two worker threads busy over 1..4 and 3..6 s, nested 1.5..2 s
    spans = [
        (0, "cli.run", -1, 0.0, 10.0, 1, None),
        (1, "propagators.decompose", 0, 1.0, 4.0, 2, None),
        (2, "propagators.decompose", 0, 3.0, 6.0, 3, None),
        (3, "kernels.bessel", 1, 1.5, 2.0, 2, None),
        (4, "kernels.chebyshev_apply", 0, 8.0, 9.0, 1, (5, 100)),
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert m["propagators.decompose_s"] == pytest.approx(6.0)
    assert m["propagators.decompose_calls"] == 2
    assert m["kernels.matvecs"] == 4
    assert m["kernels.bytes_moved"] == 4 * 100 * tracing.BYTES_PER_SITE_PER_MATVEC


def test_params_are_a_pure_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.params(name, 11) == workloads.params(name, 11)
        assert workloads.params(name, 11) != workloads.params(name, 12)


def test_without_the_program_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ballistic_n10k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
