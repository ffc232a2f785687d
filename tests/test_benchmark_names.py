"""The program names that the benchmark harness in ``bench/`` looks up.

The harness wraps or calls these module attributes by name, so a cleanup
that deletes or renames one breaks the benchmark without failing any other
test here. This test reads the harness's sources; it imports and changes
nothing under ``bench/``.
"""

import ast
import importlib
import re
from pathlib import Path

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
