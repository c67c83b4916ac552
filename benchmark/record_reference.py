"""Record the reference CSVs that the ``ctd`` and ``per`` output checks compare to.

Run once from the repository root at the commit that defines the reference:

    python3 benchmark/record_reference.py

Outputs are deterministic (no seed enters ``ctd`` or ``per``), so re-recording
at the same commit reproduces the files byte for byte.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import REFERENCE, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        runner = run.Runner(Path(tmp))
        for op in WORKLOADS["ctd_grid"] + WORKLOADS["per_sweep"]:
            code, _, stderr = runner.invoke(op.argv(runner.out_dir, 0))
            if code != 0:
                print(f"{op.command} {op.label} failed: {stderr}", file=sys.stderr)
                return 1
            shutil.copyfile(op.output(runner.out_dir), op.reference)
            print(f"recorded {op.reference.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
