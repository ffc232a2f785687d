"""The program names that the benchmark harness in ``bench/`` looks up.

The harness wraps or calls these module attributes by name, so a cleanup
that deletes or renames one breaks the benchmark without failing any other
test here. This test reads the harness's sources; it imports and changes
nothing under ``bench/``.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _literal(path: Path, name: str):
    """The literal value assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no top-level {name} in {path}")


def _needed() -> set[tuple[str, str]]:
    """(module, attribute) pairs: every tracer target, every ensemble call the
    runner times, and every ``mods["module"].attribute`` the runner uses."""
    wrapped = {(mod, attr) for mod, attr, _layer in _literal(BENCH / "tracing.py", "WRAPPED")}
    timed = {("cli", name) for name in _literal(BENCH / "run.py", "ENSEMBLE_CALLS")}
    run_src = (BENCH / "run.py").read_text(encoding="utf-8")
    called = set(re.findall(r'mods\["(\w+)"\]\.(\w+)', run_src))
    return wrapped | timed | called


def test_every_name_the_benchmark_needs_resolves():
    needed = _needed()
    assert {("ensembles", "worker_count"), ("kernels", "backend"),
            ("ensembles", "evolve_chebyshev"), ("ensembles", "decompose")} <= needed
    missing = [f"wavewalk.{mod}.{attr}" for mod, attr in sorted(needed)
               if not callable(getattr(importlib.import_module(f"wavewalk.{mod}"), attr, None))]
    assert not missing, f"names the benchmark looks up are gone: {missing}"


def test_tracer_reads_the_kernel_table_and_states_by_position():
    # bench/tracing.py takes a Chebyshev span's terms from args[5] (the
    # table) and its sites from args[6] (the states)
    src = (BENCH / "tracing.py").read_text(encoding="utf-8")
    assert "args[5].shape[0]" in src and "args[6].shape[0]" in src
    kernels = importlib.import_module("wavewalk.kernels")
    params = list(inspect.signature(kernels.chebyshev_apply).parameters)
    assert params[5:7] == ["coeffs", "psi"]


@pytest.mark.parametrize("xs", [[3.0], [0.0, 0.5, 3.0, 12.0, 40.0]], ids=["one_column", "columns"])
def test_a_kernel_call_makes_one_matvec_per_table_row_after_the_first(monkeypatch, xs):
    # the tracer counts a Chebyshev span's matvecs as its table's rows - 1
    # (args[5].shape[0] - 1), which is what one call performs
    kernels = importlib.import_module("wavewalk.kernels")
    propagators = importlib.import_module("wavewalk.propagators")
    table = propagators._chebyshev_table(np.array(xs), 1e-12)
    calls = []
    matvec = kernels.tridiag_matvec

    def counting(*args):
        calls.append(1)
        return matvec(*args)

    monkeypatch.setattr(kernels, "tridiag_matvec", counting)
    n = 60
    psi = np.eye(2, n, k=30)
    out = np.empty((table.shape[1],) + psi.shape, dtype=np.complex128)
    kernels.chebyshev_apply(out, np.zeros(n), np.ones(n - 1), 0.0, 2.0, table, psi)
    assert table.shape[0] > 1 and len(calls) == table.shape[0] - 1
