"""nucshift benchmark: one closed-loop client driving the CLI and the library.

Usage, from the root of a nucshift checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs one child process at a time and starts the next only after
the last has exited.  A run of a workload is its list of jobs (workloads.py),
run in order; the benchmark repeats runs for --seconds and reports medians.
Run times are also reported in reference-loop units (see reference_s).
With --trace 0 it reports the end-to-end metrics, with --trace 1 it alternates
untraced and traced runs and reports the per-layer metrics.  Every run's
outputs are checked (checks.py).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import workloads
from workloads import SUBCOMMAND, Job

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
MIN_RUNS = 3  # full runs, however short --seconds is

END_TO_END = (
    ("wall_ref", "ref"),
    ("points_per_ref", "1/ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((22, 22)) * 0.05 + 0j


class _Pole:
    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: float):
        self.a, self.b = a, b


def _reference_call(pole: _Pole, z: complex) -> complex:
    if abs(z) < 1e-9:
        raise ZeroDivisionError
    return (pole.a * z + pole.b) / (z - pole.a + 3.5j)


def reference_s() -> float:
    """Time of a fixed reference loop, about 30 ms on the reference machine.

    A shared host's speed drifts by tens of percent for tens of seconds at a
    time, the program's and this loop's alike.  Each child is timed between
    two runs of this loop, and its wall time divided by theirs (its time in
    "ref" units) moves much less with the drift.  The loop mixes what the
    nucshift children do, about half the time each: scalar complex
    arithmetic through small function calls, attribute reads and a raised
    exception one call in seven, like the coefficient kernel and its pole
    guard; and products of 22 x 22 complex matrices through np.einsum, like
    the oracle.  It uses nothing from nucshift, so no change to the program
    can change it.
    """
    start = time.perf_counter()
    pole, acc = _Pole(0.3 + 0.1j, 1.7), 0j
    for k in range(40_000):
        try:
            acc += _reference_call(pole, complex(k % 7, 0.0))
        except ZeroDivisionError:
            acc -= 1
    m = REFERENCE_MATRIX
    for _ in range(350):
        m = np.einsum("ij,jk->ik", m, REFERENCE_MATRIX) + REFERENCE_MATRIX
    return time.perf_counter() - start

# Spans whose call count and self time are reported, by span name.
TIMED_SPANS = (
    "shift_coefficients.b_coefficients",
    "shift_coefficients.a_coefficients",
    "hyperfine.hf_energies",
    "cg_oracle.oracle_d_tensor",
    "cg_oracle.extract_b_from_d",
    "cg_oracle.oracle_vs_analytic_deviation",
    "spin_algebra.make_spin_operators",
    "field_configs.field_at",
    "field_configs.assemble_heff.b_form",
    "field_configs.assemble_heff.a_form",
    "field_configs.counterprop_components",
    "field_configs.soc_components",
    "field_configs.soc_rotating_frame",
    "bichromatic.merit_scan",
    "bichromatic.solve_tensor_cancellation",
    "bichromatic.combined_coefficients",
)

PER_LAYER = (
    *((f"{span}.{what}", unit, "lower") for span in TIMED_SPANS
      for what, unit in (("calls", "count"), ("self_s", "s"))),
    ("shift_coefficients.b_coefficients.pole_errors", "count", "lower"),
    ("cg_oracle.oracle_d_tensor.cold_s", "s", "lower"),
    ("spin_algebra.clebsch_gordan.calls", "count", "lower"),
    ("bichromatic.rows_ok", "count", "higher"),
    ("bichromatic.rows_pole", "count", "lower"),
    ("bichromatic.rows_same_sign", "count", "lower"),
    ("bichromatic.useful_ratio", "fraction", "higher"),
    ("scan.rows_ok", "count", "higher"),
    ("scan.rows_pole", "count", "lower"),
    ("cli.parse_config.self_s", "s", "lower"),
    ("cli.run_subcommand.self_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class JobRun:
    """One finished child process."""

    wall_s: float
    ref_s: float  # mean time of the reference loop just before and just after the child
    rss_mb: float
    code: int
    output_bytes: int
    stderr: str
    summary: dict | None = None


@dataclass
class Run:
    """One run of a workload: its jobs in order."""

    jobs: list[JobRun]
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(j.wall_s for j in self.jobs)

    @property
    def wall_ref(self) -> float:
        return sum(j.wall_s / j.ref_s for j in self.jobs)

    @property
    def rss_mb(self) -> float:
        return max(j.rss_mb for j in self.jobs)


class Bench:
    """Runs and checks the jobs of one workload inside a private work directory.

    Children are started through launcher.py, which Bench starts at once and
    stops in close().
    """

    def __init__(self, root: Path, workload: str, seed: int, work: Path, golden: dict):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.golden = golden  # job label -> digest of its full-size output at this seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        **{var: "1" for var in THREAD_VARS})
        self.verified: dict[str, str] = {}  # job directory/label -> digest of checked output
        self.counts: dict[str, dict] = {}   # job label -> row status counts
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         env=self.env, text=True)

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc_info) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=120)

    def prepare(self, jobs: list[Job], subdir: str) -> Path:
        folder = self.work / subdir
        folder.mkdir(parents=True)
        for job in jobs:
            if job.kind == "lattice":
                (folder / f"{job.label}.spec.json").write_text(json.dumps(job.params))
            else:
                out = folder / f"{job.label}.out"
                (folder / f"{job.label}.cfg").write_text(job.config_text(str(out)))
        return folder

    def _argv(self, job: Job, folder: Path, traced: bool) -> list[str]:
        out = str(folder / f"{job.label}.out")
        summary = str(folder / f"{job.label}.summary.json")
        if job.kind == "lattice":
            spec = str(folder / f"{job.label}.spec.json")
            return [sys.executable, str(HERE / "lattice.py"), spec, out] + (
                ["--trace"] if traced else [])
        cli = [SUBCOMMAND[job.kind], "--config", str(folder / f"{job.label}.cfg")]
        if traced:
            return [sys.executable, str(HERE / "traced_cli.py"), summary, "--", *cli]
        return [sys.executable, "-m", "nucshift.cli", *cli]

    def run_job(self, job: Job, folder: Path, traced: bool) -> tuple[JobRun, bytes]:
        """Run one child to completion; returns its record and its output file's bytes."""
        out = folder / f"{job.label}.out"
        summary = folder / f"{job.label}.summary.json"
        stderr = folder / "stderr.txt"
        for stale in (out, summary):
            stale.unlink(missing_ok=True)
        request = {"argv": self._argv(job, folder, traced), "stderr": str(stderr)}
        before = reference_s()
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        ref_s = (before + reference_s()) / 2
        data = out.read_bytes() if out.exists() else b""
        result = JobRun(reply["wall_s"], ref_s, reply["rss_kb"] / 1024.0, reply["code"],
                        len(data), stderr.read_text(encoding="utf-8", errors="replace"))
        if traced and job.kind == "lattice" and result.code == 0:
            result.summary = json.loads(data)["summary"]
        elif traced and summary.exists():
            result.summary = json.loads(summary.read_text())
        return result, data

    def check(self, job: Job, folder: Path, run: JobRun, data: bytes) -> list[str]:
        if run.code != 0:
            return [f"exit code {run.code}: {run.stderr.strip()[-300:]}"]
        if job.kind == "lattice":
            result = json.loads(data)
            errors = list(result["failures"])
            if result["points"] != job.points:
                errors.append(f"{result['points']} lattice points for {job.points}")
            return errors
        key = f"{folder.name}/{job.label}"
        digest = checks.digest(data)
        if key in self.verified:
            return [] if self.verified[key] == digest else [
                "output bytes differ from an earlier run of the same inputs"]
        golden = self.golden.get(job.label) if folder.name == "full" else None
        if job.kind == "oracle":
            errors = checks.check_oracle(data, job.params, golden)
        else:
            errors, counts = checks.check_csv(job.kind, data, job.params, golden)
            if folder.name == "full":
                self.counts[job.label] = counts
        if not errors:
            self.verified[key] = digest
        return errors

    def run(self, jobs: list[Job], folder: Path, traced: bool = False) -> Run:
        result = Run([])
        for job in jobs:
            job_run, data = self.run_job(job, folder, traced)
            result.jobs.append(job_run)
            result.errors += [f"{job.label}: {e}" for e in self.check(job, folder, job_run, data)]
        return result


def merge_summaries(run: Run) -> tuple[dict, float]:
    """Span totals over a run's jobs, and the oracle's cold (first-call) time per job."""
    merged: dict[str, dict] = {}
    cold_ns = 0
    for job in run.jobs:
        for name, entry in (job.summary or {}).items():
            total = merged.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0, "errors": {}})
            for key in ("calls", "self_ns", "total_ns"):
                total[key] += entry[key]
            for error, count in entry["errors"].items():
                total["errors"][error] = total["errors"].get(error, 0) + count
            if name == "cg_oracle.oracle_d_tensor":
                cold_ns += entry["first_ns"]
    return merged, cold_ns / 1e9


def layer_metrics(run: Run, jobs: list[Job], counts: dict) -> dict:
    spans, cold_s = merge_summaries(run)

    def span(name):
        return spans.get(name, {"calls": 0, "self_ns": 0, "total_ns": 0, "errors": {}})

    metrics = {}
    for name in TIMED_SPANS:
        metrics[f"{name}.calls"] = span(name)["calls"]
        metrics[f"{name}.self_s"] = span(name)["self_ns"] / 1e9
    metrics["shift_coefficients.b_coefficients.pole_errors"] = \
        span("shift_coefficients.b_coefficients")["errors"].get("PoleProximityError", 0)
    metrics["cg_oracle.oracle_d_tensor.cold_s"] = cold_s
    metrics["spin_algebra.clebsch_gordan.calls"] = span("spin_algebra.clebsch_gordan")["calls"]

    def rows(kind, status):
        return sum(counts.get(j.label, {}).get(status, 0) for j in jobs if j.kind == kind)

    for status in ("ok", "pole", "same-sign"):
        metrics[f"bichromatic.rows_{status.replace('-', '_')}"] = rows("merit", status)
    merit_rows = sum(j.points for j in jobs if j.kind == "merit")
    metrics["bichromatic.useful_ratio"] = rows("merit", "ok") / merit_rows if merit_rows else 0.0
    metrics["scan.rows_ok"] = rows("scan", "ok")
    metrics["scan.rows_pole"] = rows("scan", "pole")
    metrics["cli.parse_config.self_s"] = span("cli.parse_config")["self_ns"] / 1e9
    metrics["cli.run_subcommand.self_s"] = span("cli.run_subcommand")["self_ns"] / 1e9
    metrics["cli.write_s"] = span("cli.write")["total_ns"] / 1e9
    metrics["cli.output_bytes"] = sum(
        r.output_bytes for r, j in zip(run.jobs, jobs) if j.kind != "lattice")
    return metrics


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ", ".join(f"{var}=1" for var in THREAD_VARS)
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"nproc {os.cpu_count()}, cpu {cpu}, {threads}")


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, list[Run], list[str]]:
    """Run the workload for `seconds`; returns (metrics, all runs, report lines).

    Untraced, one warm-up set-up run and SETUP_REPS timed ones come first,
    then full runs; traced, untraced and traced full runs alternate.
    """
    full = workloads.build(bench.workload, bench.seed, "full")
    folder = bench.prepare(full, "full")
    lines = []
    runs: list[Run] = []
    setup_runs: list[Run] = []
    if not trace:
        setup = workloads.build(bench.workload, bench.seed, "setup")
        setup_folder = bench.prepare(setup, "setup")
        runs.append(bench.run(setup, setup_folder))  # warms the caches; checked, not timed
        setup_runs = [bench.run(setup, setup_folder) for _ in range(SETUP_REPS)]
    untraced: list[Run] = []
    traced: list[Run] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(untraced) < MIN_RUNS
           or (trace and len(traced) < MIN_RUNS)):
        untraced.append(bench.run(full, folder))
        if trace:
            traced.append(bench.run(full, folder, traced=True))
    runs += setup_runs + untraced + traced
    walls = [r.wall_s for r in untraced]
    points = sum(j.points for j in full)
    if trace:
        per_run = [layer_metrics(r, full, bench.counts) for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_run)
                   for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                       - statistics.median(walls))
        units = {name: unit for name, unit, _ in PER_LAYER}
        lines.append(f"traced runs: {quartiles([r.wall_s for r in traced])} (wall s)")
    else:
        setup_s = statistics.median(r.wall_s for r in setup_runs)
        setup_ref = statistics.median(r.wall_ref for r in setup_runs)
        metrics = {
            "wall_ref": statistics.median(r.wall_ref for r in untraced),
            "points_per_ref": statistics.median(points / max(r.wall_ref - setup_ref, 1e-9)
                                                for r in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(r.rss_mb for r in untraced),
        }
        units = dict(END_TO_END)
        ref_s = statistics.median(j.ref_s for r in untraced for j in r.jobs)
        # the same figures in seconds, which move with the host's speed
        lines.append(f"wall_s = {statistics.median(walls):.6g} s")
        lines.append(f"points_per_s = "
                     f"{statistics.median(points / max(w - setup_s, 1e-9) for w in walls):.6g} 1/s")
        lines.append(f"reference loop: median {ref_s * 1e3:.4g} ms")
        lines.append(f"wall_s runs: {quartiles(walls)}; setup_s runs: "
                     f"{quartiles([r.wall_s for r in setup_runs])}; wall_ref runs: "
                     f"{quartiles([r.wall_ref for r in untraced])}")
    lines.append(f"points per run: {points} "
                 f"({', '.join(f'{j.label} {j.points}' for j in full)})")
    for label, counts in bench.counts.items():
        total = sum(counts.values()) or 1
        shares = ", ".join(f"{s} {c} ({c / total:.2%})" for s, c in counts.items())
        lines.append(f"row status {label}: {shares}")
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, runs, lines


def load_golden(workload: str, seed: int) -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed), {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nucshift" / "cli.py").is_file():
        print(f"no nucshift source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        with Bench(root, args.workload, args.seed, work,
                   load_golden(args.workload, args.seed)) as bench:
            metrics, runs, lines = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r for r in runs if r.errors]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"environment: {environment()}")
    print(*lines, sep="\n")
    print(f"failed_frac = {len(failed) / len(runs):.6g} fraction "
          f"({len(failed)} of {len(runs)} runs)")
    for r in failed[:5]:
        print("FAILED:", "; ".join(r.errors[:3]))
    print(json.dumps({"correct": not failed, "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
