"""Compare the artifacts of two checkouts on the example configs, the
benchmark workloads and a few frame configs.

    python3 scripts/compare_runs.py OLD_ROOT NEW_ROOT

Runs every ``configs/*.json`` of NEW_ROOT, the four benchmark workloads at
seed 1 with configs built by NEW_ROOT's ``bench/workloads.py`` (read, not
changed), and the small configs of ``FRAMES`` below, which reach frames that
neither the example configs nor the workloads do: an enclosure with a
nonzero centre on each engine and on each path that returns the centre as
a phase (a Chebyshev launch whose light cone wraps a ring, a two-site launch
on a beta list, the zero-noise dephasing control), and a noise segment that
is not a power of two. Each runs once with OLD_ROOT's ``src/`` and once with
NEW_ROOT's, each in a fresh interpreter writing to a temporary directory. It
prints one line per artifact: ``identical``, or the number of differing
lines and the largest absolute difference over the numeric fields of those
lines. Exits 1 if any artifact differs or any run fails.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path


# name -> config, each a fraction of a second: a Chebyshev launch and a
# boundary sweep on a uniform beta (centre 3.0 and 2.0), a Chebyshev launch
# on a ring whose light cone wraps (centre 1.5), a two-site Chebyshev launch
# on a beta list, a disorder ensemble on a beta list with diagonal disorder,
# one on a ring under minus_degree_gamma (centre -2.6), dephasing on segments
# of 0.1, and the zero-noise dephasing control, the one ensemble run that
# returns its centre (2.5) as a phase
FRAMES = {
    "frame_chebyshev_beta": {
        "experiment": "ballistic", "lattice": {"n_sites": 201, "beta": 3.0},
        "zgrid": {"stop": 10.0, "steps": 101}, "propagator": {"method": "chebyshev"}},
    "frame_chebyshev_ring_beta": {
        "experiment": "ballistic",
        "lattice": {"n_sites": 40, "boundary": "periodic", "beta": 1.5},
        "zgrid": {"stop": 20.0, "steps": 41}, "propagator": {"method": "chebyshev"}},
    "frame_chebyshev_two_site_beta_list": {
        "experiment": "ballistic",
        "lattice": {"n_sites": 301, "beta": [0.01 * j for j in range(301)]},
        "initial_state": {"kind": "two_site", "sites": [150, 151]},
        "zgrid": {"stop": 10.0, "steps": 41}, "propagator": {"method": "chebyshev"}},
    "frame_sweep_beta": {
        "experiment": "boundary_sweep", "lattice": {"n_sites": 120, "beta": 2.0},
        "zgrid": {"stop": 8.0, "steps": 81}},
    "frame_disorder_beta_list": {
        "experiment": "disorder", "lattice": {"n_sites": 41, "beta": [0.05 * j for j in range(41)]},
        "zgrid": {"stop": 10.0, "steps": 41},
        "disorder": {"offdiag_strength": 0.3, "diag_strength": 1.5},
        "n_realizations": 100, "master_seed": 7},
    "frame_disorder_ring_minus_degree": {
        "experiment": "disorder",
        "lattice": {"n_sites": 40, "boundary": "periodic", "coupling": 1.3,
                    "diag_convention": "minus_degree_gamma"},
        "zgrid": {"stop": 10.0, "steps": 41}, "disorder": {"offdiag_strength": 0.4},
        "n_realizations": 100, "master_seed": 11},
    "frame_dephasing_segment": {
        "experiment": "dephasing", "lattice": {"n_sites": 41},
        "zgrid": {"stop": 2.0, "steps": 21},
        "dephasing": {"segment_length": 0.1, "phase_strength": 2.0},
        "n_realizations": 50, "master_seed": 5},
    "frame_dephasing_control_beta": {
        "experiment": "dephasing", "lattice": {"n_sites": 41, "beta": 2.5},
        "zgrid": {"stop": 5.0, "steps": 21},
        "dephasing": {"segment_length": 0.5, "phase_strength": 0.0},
        "n_realizations": 10, "master_seed": 3},
}


def _run(root: Path, config: Path, out: Path) -> str | None:
    """Simulate ``config`` with ``root``'s sources; the error text if it fails."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "wavewalk", "simulate", str(config), "--output-dir", str(out)],
        env=env, capture_output=True, text=True,
    )
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()}"


def _workload_configs(root: Path, tmp: Path) -> dict:
    """The benchmark workloads at seed 1, name -> config, each writing under
    ``tmp``. ``root``'s ``bench/workloads.py`` is executed from its source
    text, so no bytecode cache is written next to it."""
    path = root / "bench" / "workloads.py"
    workloads = types.ModuleType("workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), workloads.__dict__)
    return {name: workloads.config(workloads.params(name, 1), tmp / name)
            for name in workloads.WORKLOADS}


def _write_configs(configs: dict, tmp: Path) -> list[Path]:
    """``configs`` (name -> config) as config files written to ``tmp``."""
    paths = [tmp / f"{name}.json" for name in configs]
    for path, config in zip(paths, configs.values()):
        path.write_text(json.dumps(config))
    return paths


def _max_abs_delta(a: str, b: str) -> float | None:
    """Largest |x - y| over the comma-separated fields of two lines that both
    parse as numbers; None if no field pair does."""
    worst = None
    for x, y in zip(a.split(","), b.split(",")):
        try:
            d = abs(float(x) - float(y))
        except ValueError:
            continue
        worst = d if worst is None else max(worst, d)
    return worst


def _compare(old: Path, new: Path) -> str:
    if not old.exists() or not new.exists():
        return f"only in {'new' if new.exists() else 'old'}"
    if old.read_bytes() == new.read_bytes():
        return "identical"
    lines_a = old.read_text().splitlines()
    lines_b = new.read_text().splitlines()
    differing, worst = 0, None
    for a, b in itertools.zip_longest(lines_a, lines_b, fillvalue=""):
        if a == b:
            continue
        differing += 1
        d = _max_abs_delta(a, b) if new.suffix == ".csv" else None
        if d is not None:
            worst = d if worst is None else max(worst, d)
    text = f"differs in {differing} of {max(len(lines_a), len(lines_b))} lines"
    return text if worst is None else f"{text}, max |delta| {worst:.3g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_root, new_root = (Path(a).resolve() for a in argv)
    configs = sorted((new_root / "configs").glob("*.json"))
    if not configs:
        print(f"no configs under {new_root / 'configs'}", file=sys.stderr)
        return 2
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        generated = {**_workload_configs(new_root, Path(tmp)), **FRAMES}
        for config in configs + _write_configs(generated, Path(tmp)):
            outs = {side: Path(tmp) / side / config.stem for side in ("old", "new")}
            errors = [(side, _run(root, config, outs[side]))
                      for side, root in (("old", old_root), ("new", new_root))]
            failed = [f"{side} {err}" for side, err in errors if err is not None]
            if failed:
                same = False
                print(f"{config.stem}: run failed: {'; '.join(failed)}")
                continue
            names = sorted({p.name for out in outs.values() for p in out.iterdir()})
            for name in names:
                verdict = _compare(outs["old"] / name, outs["new"] / name)
                same = same and verdict == "identical"
                print(f"{config.stem}/{name}: {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
