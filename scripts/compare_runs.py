"""Compare the artifacts of two checkouts on the example configs.

    python3 scripts/compare_runs.py OLD_ROOT NEW_ROOT

Runs every ``configs/*.json`` of NEW_ROOT once with OLD_ROOT's ``src/`` and
once with NEW_ROOT's, each in a fresh interpreter writing to a temporary
directory, then prints one line per artifact: ``identical``, or the number
of differing lines and the largest absolute difference over the numeric
fields of those lines. Exits 1 if any artifact differs or any run fails.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _run(root: Path, config: Path, out: Path) -> str | None:
    """Simulate ``config`` with ``root``'s sources; the error text if it fails."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "wavewalk", "simulate", str(config), "--output-dir", str(out)],
        env=env, capture_output=True, text=True,
    )
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()}"


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
        for config in configs:
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
