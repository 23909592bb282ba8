"""Store the seed commit's ``reproduce`` outputs as the reference.

Run from the repository root: ``python3 bench/make_reference.py``.  It
rebuilds every figure through ``steerkit.cli.main`` and writes the CSV
texts, keyed by figure id and file name, to
``bench/reference/reproduce_seed.json.gz``.  Rerun it only when a change
is meant to move reproduce outputs, and say so with the change.
"""
from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import steerkit.cli  # noqa: E402

from workloads import FIGURES, REFERENCE  # noqa: E402


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix=".reference-", dir=ROOT))
    try:
        reference = {}
        for figure_id in FIGURES:
            out = work / figure_id
            if steerkit.cli.main(["reproduce", figure_id, "--out", str(out), "--quiet"]) != 0:
                raise SystemExit(f"reproduce {figure_id} failed")
            reference[figure_id] = {
                path.name: path.read_text() for path in sorted(out.glob("*.csv"))
            }
        REFERENCE.parent.mkdir(exist_ok=True)
        with gzip.GzipFile(REFERENCE, "wb", mtime=0) as handle:
            handle.write(json.dumps(reference, sort_keys=True).encode())
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
