"""Regenerate the golden boundary-sweep carpet used by the regression test.

Runs the committed boundary-sweep config through the normal CLI runner (the
boundary sweep runs one light-cone Chebyshev block over all its inputs) and
copies the resulting carpet.csv into tests/data/.  The test re-runs the same
config and compares numerically, so the golden file pins the
reflection-interference pattern, not a particular engine's last bits.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from wavewalk.cli import run_experiment
from wavewalk.config import validate_config

REPO = Path(__file__).resolve().parent.parent
CONFIG = REPO / "configs" / "boundary_sweep.json"
GOLDEN = REPO / "tests" / "data" / "boundary_carpet_golden.csv"


def main() -> int:
    cfg = validate_config(CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        out = run_experiment(cfg, output_dir=tmp)
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(out / "carpet.csv", GOLDEN)
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
