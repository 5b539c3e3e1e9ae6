"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a nucshift checkout:

    python3 perfbench/selftest.py

1. Runs every workload once untraced and once traced at tiny size.  Every
   output check must pass, every per-layer metric must be reported and no
   self time may be negative.
2. Shows that every output check rejects corrupted output (a flipped byte,
   an injected NaN, a wrong row count), on the golden-digest path and on the
   recompute path.
3. Shows that oracle-diff at spin_twice = 1, which prints 0 and PASS without
   having compared anything, is rejected.
4. Checks that BENCHMARK.json declares exactly the metrics run.py reports.
5. Shows that the benchmark exits non-zero without a result where there is
   no nucshift source.

Prints one line per case and exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import workloads
from run import END_TO_END, HERE, PER_LAYER, Bench, layer_metrics
from workloads import Job


class Cases:
    def __init__(self):
        self.failed = 0

    def expect(self, ok: bool, label: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
        self.failed += not ok


def _lines(data: bytes) -> list[bytes]:
    return data.split(b"\n")


def flip_byte(data: bytes, line: int) -> bytes:
    """Change the last digit of the second field on one line."""
    lines = _lines(data)
    text = lines[line]
    cut = text.index(b",", text.index(b",") + 1) if b"," in text else len(text)
    pos = max(i for i in range(cut) if text[i:i + 1].isdigit())
    digit = (text[pos] - ord("0") + 1) % 10
    lines[line] = text[:pos] + str(digit).encode() + text[pos + 1:]
    return b"\n".join(lines)


def inject_nan(data: bytes, line: int) -> bytes:
    lines = _lines(data)
    fields = lines[line].split(b",")
    fields[1] = b"nan"
    lines[line] = b",".join(fields)
    return b"\n".join(lines)


def drop_line(data: bytes) -> bytes:
    lines = _lines(data)
    return b"\n".join(lines[:-2] + lines[-1:])


def corrupt_oracle_value(data: bytes, replacement: bytes | None) -> bytes:
    lines = _lines(data)
    key, _, value = lines[0].partition(b" = ")
    if replacement is None:  # flip the last digit of the mantissa
        pos = value.index(b"e") - 1 if b"e" in value else len(value) - 1
        replacement = value[:pos] + str((value[pos] - ord("0") + 1) % 10).encode() + value[pos + 1:]
    lines[0] = key + b" = " + replacement
    return b"\n".join(lines)


def check_output(job: Job, data: bytes, golden: str | None) -> list[str]:
    if job.kind == "oracle":
        return checks.check_oracle(data, job.params, golden)
    return checks.check_csv(job.kind, data, job.params, golden)[0]


def tiny_runs(cases: Cases, root: Path, work: Path) -> dict:
    outputs = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.build(workload, 0, "tiny")
        with Bench(root, workload, 0, work / workload, golden={}) as bench:
            folder = bench.prepare(jobs, "full")
            plain = bench.run(jobs, folder)
            outputs[workload] = [(job, (folder / f"{job.label}.out").read_bytes())
                                 for job in jobs]
            traced = bench.run(jobs, folder, traced=True)
        cases.expect(not plain.errors and not traced.errors,
                     f"{workload}: tiny run passes its output checks {plain.errors + traced.errors}")
        metrics = layer_metrics(traced, jobs, bench.counts)
        expected = {name for name, _, _ in PER_LAYER} - {"trace.overhead_s"}
        cases.expect(set(metrics) == expected, f"{workload}: every per-layer metric reported")
        negative = [n for n, v in metrics.items() if n.endswith("_s") and v < 0]
        cases.expect(not negative, f"{workload}: no negative self time {negative}")
        busy = {n: v for n, v in metrics.items() if v and not n.endswith("_s")}
        print(f"     wall {plain.wall_s:.3f} s untraced, {traced.wall_s:.3f} s traced; {busy}")
    return outputs


def corruption_cases(cases: Cases, outputs: dict) -> None:
    for workload in ("scan-dense", "merit-scan", "oracle-sweep"):
        for job, good in outputs[workload]:
            if job.kind == "oracle":
                bad = {"flipped byte": corrupt_oracle_value(good, None),
                       "injected NaN": corrupt_oracle_value(good, b"nan"),
                       "wrong row count": drop_line(good)}
            else:
                bad = {"flipped byte": flip_byte(good, 2),
                       "injected NaN": inject_nan(good, 2),
                       "wrong row count": drop_line(good)}
            for golden in (None, checks.digest(good)):
                path = "golden" if golden else "recompute"
                cases.expect(not check_output(job, good, golden),
                             f"{job.label} ({path}): good output accepted")
                for name, data in bad.items():
                    errors = check_output(job, data, golden)
                    cases.expect(bool(errors), f"{job.label} ({path}): {name} rejected: "
                                               f"{errors[0] if errors else ''}")


def lattice_cases(cases: Cases) -> None:
    import nucshift as ns

    spin = ns.HalfInteger(9)
    ops = ns.make_spin_operators(spin)
    det = ns.ComplexDetuning.of(1.3, 0.0)
    bset, aset = ns.b_coefficients(spin, 0.0057, det), ns.a_coefficients(spin, 0.0057, det)
    e = ns.field_at(ns.PerpendicularSoc(1.0, 1.0, 0.05), (0.1, 0.7, -0.3), 2.0)
    hb, ha = ns.assemble_heff(bset, e, ops).matrix, ns.assemble_heff(aset, e, ops).matrix
    lattice = ns.counterprop_components(bset, 1.0, 1.0, 0.4, ops)

    def run(pair):
        return checks.check_lattice_point(ops.dimension, [pair], lattice, (), hermitian=True)

    cases.expect(not run((hb, ha)), "lattice: good point accepted")
    flipped = ha.copy()
    flipped.view(np.uint8)[7] ^= 0x80  # sign bit of Re ha[0, 0]
    nan = ha.copy()
    nan[1, 2] = np.nan
    for name, bad in (("flipped byte", flipped), ("injected NaN", nan),
                      ("wrong row count", ha[:-1])):
        errors = run((hb, bad))
        cases.expect(bool(errors), f"lattice: {name} rejected: {errors[0] if errors else ''}")


def spin_half_case(cases: Cases, root: Path, work: Path) -> None:
    job = Job("oracle-half", "oracle", {"spin_twice": 1, "gamma": 0.0, "gamma_bar": 0.0,
                                        "lo": -8.0, "hi": 6.0, "steps": 20}, 20)
    with Bench(root, "oracle-sweep", 0, work / "spin-half", golden={}) as bench:
        folder = bench.prepare([job], "full")
        run = bench.run([job], folder)
    printed = (folder / f"{job.label}.out").read_text()
    cases.expect("status = PASS" in printed and bool(run.errors),
                 f"oracle-diff at spin_twice = 1 prints {printed.split(chr(10))[0]!r} and PASS, "
                 f"and is rejected: {run.errors[:1]}")


def declaration_case(cases: Cases, root: Path) -> None:
    declared = json.loads((root / "BENCHMARK.json").read_text())
    cases.expect([(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END),
                 "BENCHMARK.json end_to_end matches run.py")
    cases.expect([(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
                 == list(PER_LAYER), "BENCHMARK.json per_layer matches run.py")


def bare_directory_case(cases: Cases, root: Path, work: Path) -> None:
    bare = work / "bare"
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scan-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    cases.expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
                 f"without nucshift source: exit code {proc.returncode}, no result printed")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "nucshift" / "cli.py").is_file():
        print("run from the root of a nucshift checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    cases = Cases()
    try:
        outputs = tiny_runs(cases, root, work)
        corruption_cases(cases, outputs)
        lattice_cases(cases)
        spin_half_case(cases, root, work)
        declaration_case(cases, root)
        bare_directory_case(cases, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"self-test: {cases.failed} case(s) failed")
    return 1 if cases.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
