"""Regenerate golden.json: SHA-256 digests of the CLI data files at the shipped seeds.

Usage, from the root of a nucshift checkout:

    python3 perfbench/golden.py

Every output is first checked row by row against the scalar public API
(checks.py); a seed whose output fails stops the run instead of recording a
digest.  Regenerate only at a commit whose CLI output is known good, and only
when workloads.py changes what a seed produces: the digests are what later
commits must reproduce byte for byte.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import workloads
from run import HERE, Bench

GOLDEN_SEEDS = range(32)
CLI_WORKLOADS = ("scan-dense", "oracle-sweep", "merit-scan")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "nucshift" / "cli.py").is_file():
        print("run from the root of a nucshift checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / "golden"
    digests: dict[str, dict] = {}
    for workload in CLI_WORKLOADS:
        for seed in GOLDEN_SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            jobs = workloads.build(workload, seed, "full")
            with Bench(root, workload, seed, work, golden={}) as bench:
                folder = bench.prepare(jobs, "full")
                run = bench.run(jobs, folder)
            if run.errors:
                print(f"{workload} seed {seed}: {run.errors}", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = {
                job.label: checks.digest((folder / f"{job.label}.out").read_bytes())
                for job in jobs}
            print(f"{workload} seed {seed}: ok", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump({"sizes": workloads.SIZES["full"], "digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
