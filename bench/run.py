"""wavewalk benchmark: one workload per invocation, run end to end.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a source checkout; the program is imported from ``src/`` next to
this directory, with its defaults (``WAVEWALK_WORKERS`` as the caller set
it, BLAS threads not pinned). Each operation is one ``run_experiment`` call
on the workload's generated config; operations repeat until ``--seconds``
have passed. Every operation's artifacts must be byte-identical to the
first's, and those are checked against independent references
(``checks.py``).

``--trace 0`` prints the end-to-end metrics, medians over the operations:
``wall_s``, ``realizations_per_s``, ``setup_s`` (median of fresh
interpreters importing wavewalk and resolving the config) and
``peak_rss_mb``. ``--trace 1`` alternates untraced and traced operations and
prints the per-layer metrics (``tracing.py``), with times as medians over the
traced operations and ``trace.overhead_s`` as traced minus untraced
``wall_s``. The last line of standard output is the result as one JSON
object; run files go to ``bench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
SETUP_SNIPPET = "import sys, wavewalk; wavewalk.validate_config(sys.argv[1])"
ENSEMBLE_CALLS = ("run_ensemble", "evolve_dephasing")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program() -> dict:
    """The wavewalk modules, imported from this checkout's ``src/``."""
    if not (SRC / "wavewalk" / "__init__.py").is_file():
        raise FileNotFoundError(f"no wavewalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from wavewalk import cli, config, ensembles, kernels, propagators

    return {"cli": cli, "config": config, "ensembles": ensembles,
            "kernels": kernels, "propagators": propagators}


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def environment(mods: dict) -> dict:
    import numpy
    import scipy

    try:
        workers: int | str = mods["ensembles"].worker_count()
    except ValueError as exc:
        workers = f"error: {exc}"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": mods["kernels"].backend(),
        "ensemble_workers": workers,
        "WAVEWALK_WORKERS": os.environ.get("WAVEWALK_WORKERS"),
        "blas_threads": blas_threads(),
    }


def measure_setup(cfg_path: Path) -> float:
    """Seconds from starting a fresh interpreter to a resolved config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(cfg_path)], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def digest(art: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(art.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs operations (one ``run_experiment`` call each) and keeps their record."""

    def __init__(self, mods: dict, cfg_path: Path, art: Path):
        self.mods = mods
        self.cfg = mods["config"].validate_config(cfg_path)
        self.cfg_path = cfg_path
        self.art = art
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: str | None = None
        self.samples: dict[str, list[float]] = {}

    def op(self, tracer: tracing.Tracer | None = None) -> float | None:
        """One operation (traced if ``tracer`` is given, which also times the
        config resolve); its wall time, or None if it raised."""
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(sys.stderr), tracer or contextlib.nullcontext():
                if tracer is not None:
                    self.mods["config"].validate_config(self.cfg_path)
                t0 = time.perf_counter()
                self.mods["cli"].run_experiment(self.cfg, output_dir=str(self.art))
                wall = time.perf_counter() - t0
        except Exception:  # an operation that fails is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        d = digest(self.art)
        if self.first_digest is None:
            self.first_digest = d
        elif d != self.first_digest:
            self.problems.append(f"operation {self.attempted}: artifacts differ from the first")
        return wall


@contextlib.contextmanager
def ensemble_timer(cli, times: list[float]):
    """Time each ensemble call the runner makes, from outside."""
    originals = {name: getattr(cli, name) for name in ENSEMBLE_CALLS}

    def timed(fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            times.append(time.perf_counter() - t0)
            return result
        return call

    for name, fn in originals.items():
        setattr(cli, name, timed(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def end_to_end(runner: Runner, p: dict, seconds: float) -> dict:
    """Operations for ``seconds``, with the set-up measurements spread among
    them (outside the ``seconds``), so that both sample the whole run: the
    machine's speed drifts over tens of seconds."""
    walls, ens, setup = [], [], []
    start = time.perf_counter()

    def measured() -> float:
        return time.perf_counter() - start - sum(setup)

    with ensemble_timer(runner.mods["cli"], ens):
        while True:
            wall = runner.op()
            if wall is not None:
                walls.append(wall)
            while len(setup) < SETUP_REPS and measured() >= seconds * len(setup) / SETUP_REPS:
                setup.append(measure_setup(runner.cfg_path))
            if measured() >= seconds:
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += [measure_setup(runner.cfg_path) for _ in range(SETUP_REPS - len(setup))]
    runner.samples = {"wall_s": walls, "ensemble_call_s": ens, "setup_s": setup}
    if not walls:
        return {}
    n_evol = workloads.evolutions(p)
    rates = [n_evol / t for t in (ens if "n_realizations" in p else walls)]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "realizations_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(runner: Runner, seconds: float, work_dir: Path) -> dict:
    plain, traced, layers = [], [], []
    spans: list[tuple] = []
    deadline = time.perf_counter() + seconds
    while True:
        wall = runner.op()
        if wall is not None:
            plain.append(wall)
        tracer = tracing.Tracer(runner.mods)
        wall = runner.op(tracer)
        if wall is not None:
            traced.append(wall)
            m = tracing.layer_metrics(tracer.spans)
            m["cli.bytes_written"] = sum(f.stat().st_size for f in runner.art.iterdir())
            layers.append(m)
            spans = tracer.spans
        if time.perf_counter() >= deadline:
            break
    runner.samples = {"wall_s": plain, "traced_wall_s": traced}
    if not layers or not plain:
        return {}
    out = {}
    for name, unit in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif unit == "s":
            value = statistics.median(m[name] for m in layers)
        else:
            values = {m[name] for m in layers}
            if len(values) > 1:
                runner.problems.append(f"{name} differs between traced operations: {values}")
            value = layers[0][name]
        out[name] = (value, unit)
    write_trace(work_dir / "trace.json", spans)
    return out


def write_trace(path: Path, spans: list[tuple]) -> None:
    """Spans of the last traced operation, times relative to its first span."""
    t0 = min((s[3] for s in spans), default=0.0)
    threads = {tid: i for i, tid in enumerate(dict.fromkeys(s[5] for s in spans))}
    rows = [[sid, layer, parent, start - t0, end - t0, threads[tid]]
            for sid, layer, parent, start, end, tid, _ in sorted(spans)]
    doc = {"fields": ["id", "layer", "parent", "start_s", "end_s", "thread"], "spans": rows}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def run(name: str, seed: int, seconds: float, traced: bool, size: str = "full",
        out_root: Path = OUT) -> dict:
    """Run one workload; the result object the benchmark prints."""
    mods = import_program()
    p = workloads.params(name, seed, size)
    work_dir = out_root / name
    shutil.rmtree(work_dir, ignore_errors=True)
    cfg_path = workloads.write_config(p, work_dir)
    art = work_dir / "artifacts"
    env = environment(mods)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    runner = Runner(mods, cfg_path, art)
    if traced:
        metrics = per_layer(runner, seconds, work_dir)
    else:
        metrics = end_to_end(runner, p, seconds)
    if runner.attempted > runner.failed:
        runner.problems += checks.CHECKS[name](p, art)
    for msg in runner.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not runner.problems and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work_dir / f"result-trace{int(traced)}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "environment": env,
                    "samples": runner.samples, **result}, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
