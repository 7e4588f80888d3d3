#!/usr/bin/env python3
"""Store the point estimates that the benchmark's checks compare against.

    python3 perfbench/make_refs.py

For each input size used by an ``estimate`` workload, this writes the
fixed sample in drawn order, runs ``causal-rules estimate`` on it and
records every cell's ``psi`` and ``theta`` in ``perfbench/refs/``.  Run
it only for a change that is meant to alter the estimates, and say so.
"""

import contextlib
import io
import json
import shutil
import sys

from checks import grid_values, refs_path
from run import WORK_DIR, import_cli
from workloads import WORKLOADS, cohort_system, csv_bytes, sample


def main() -> int:
    cli = import_cli()
    sizes = {w.n: w for w in WORKLOADS.values() if w.kind != "diagnose"}
    work = WORK_DIR / "refs"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for n, workload in sorted(sizes.items()):
            csv_path, outdir = work / "input.csv", work / "out"
            csv_path.write_bytes(csv_bytes(cohort_system(), sample(workload)))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["estimate", "--input", str(csv_path), "--output-dir", str(outdir)])
            if rc != 0:
                sys.exit(f"estimate failed on the {n}-row sample")
            path = refs_path(n)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(grid_values(outdir), indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
