"""Time two checkouts against each other on one benchmark workload, in
alternating pairs.

    python3 scripts/bench_pairs.py OLD_ROOT NEW_ROOT --workload W --pairs N --seconds S

Each pair runs ``bench/run.py --seed 1 --trace 0`` once in each checkout,
each in a fresh interpreter, with OLD_ROOT first in even pairs and NEW_ROOT
first in odd ones, so that a drift in the machine's speed falls on both
sides alike.
Nothing under either ``bench/`` is edited (no bytecode is written there;
``bench/run.py`` writes its own run files to ``bench/out/``). For every
end-to-end metric that NEW_ROOT's ``BENCHMARK.json`` declares, it prints
each side's median and quartiles, the change of the medians, the number of
pairs NEW_ROOT won, and whether the change of the medians exceeds OLD_ROOT's
interquartile range. Exits 1 if any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


SEED = 1


def _bench(root: Path, workload: str, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in ``root``: its result object."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], old: list[dict], new: list[dict]) -> list[str]:
    """One line per metric of ``metrics`` (BENCHMARK.json's ``end_to_end``)
    from the paired metric dicts ``old[i]``, ``new[i]``."""
    n = len(old)
    lines = [f"{'metric':<20} {'old median [q1, q3]':>30} {'new median [q1, q3]':>30} "
             f"{'change':>8} {'won':>7}  beyond old IQR"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [o[name] for o in old if name in o]
        b = [o[name] for o in new if name in o]
        if len(a) != n or len(b) != n:
            lines.append(f"{name:<20} missing in some runs")
            continue
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
        change = (bm - am) / am if am else float("nan")
        lines.append(f"{name:<20} {f'{am:.4g} [{a1:.4g}, {a3:.4g}]':>30} "
                     f"{f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>30} {change:>+8.1%} "
                     f"{f'{won}/{n}':>7}  {'yes' if abs(bm - am) > a3 - a1 else 'no'}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_root", type=Path)
    ap.add_argument("new_root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    roots = {"old": args.old_root.resolve(), "new": args.new_root.resolve()}
    spec = json.loads((roots["new"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict = {"old": [], "new": []}
    ok = True
    for i in range(args.pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for side in order:
            try:
                result = _bench(roots[side], args.workload, args.seconds)
            except RuntimeError as exc:
                print(f"pair {i}: {side}: {exc}", file=sys.stderr)
                return 1
            if not result["correct"] or result["failed"]:
                ok = False
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            values[side].append(metrics)
            print(f"pair {i} {side}: correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in sorted(metrics.items())), flush=True)
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, seed {SEED}")
    print("\n".join(summarize(spec["end_to_end"], values["old"], values["new"])))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
