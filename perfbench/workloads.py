"""Seeded workload generation.

A workload is a list of jobs, each one child process: a `nucshift` CLI run on
a generated config file, or the lattice-sweep child on a generated spec.  The
seed fixes every input; the size only fixes how many rows, points or lattice
samples each job has.  The `setup` size runs the same jobs at one row or
point each, which is how set-up time is measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("scan-dense", "oracle-sweep", "merit-scan", "lattice-sweep")

# Rows, points or lattice samples per job.  The pole grids need 2**k + 1
# points: their step is then an exact binary fraction and the grid lands
# exactly on the half-integer poles of a gamma = 0 atom.
SIZES = {
    "full": {"scan-lossy": 45_000, "scan-pole": 2**14 + 1,
             "oracle-i9": 2_500, "oracle-i21": 750,
             "merit-sr87": 15_000, "merit-pole": 2**12 + 1,
             "lattice": 350},
    "tiny": {"scan-lossy": 200, "scan-pole": 2**5 + 1,
             "oracle-i9": 20, "oracle-i21": 8,
             "merit-sr87": 200, "merit-pole": 2**5 + 1,
             "lattice": 3},
}

SUBCOMMAND = {"scan": "scan", "oracle": "oracle-diff", "merit": "bichromatic"}


@dataclass(frozen=True)
class Job:
    """One child process of a workload run."""

    label: str
    kind: str  # "scan" | "merit" | "oracle" | "lattice"
    params: dict
    points: int

    def config_text(self, out: str) -> str:
        """The CLI config file for this job, writing its data file to `out`."""
        p = self.params
        lines = ["atom = sr87"] if p.get("atom") else [
            f"spin_twice = {p['spin_twice']}", f"gamma = {p['gamma']!r}",
            f"gamma_bar = {p['gamma_bar']!r}"]
        if self.kind == "merit":
            lines += ["scan = true", f"delta_small_min = {p['lo']!r}",
                      f"delta_small_max = {p['hi']!r}", f"delta_small_steps = {p['steps']}"]
        else:
            lines += [f"delta_min = {p['lo']!r}", f"delta_max = {p['hi']!r}",
                      f"steps = {p['steps']}"]
        return "\n".join(lines + [f"out = {out}"]) + "\n"


def _grid_job(label: str, kind: str, params: dict, steps: int) -> Job:
    return Job(label, kind, {**params, "steps": steps}, steps)


def _scan_dense(rng: random.Random, size: dict) -> list[Job]:
    # lossy sr87 grid across all three poles (-5.3, -1.0, 4.6), then a lossless
    # gamma = 0 grid of step 16 / 2**k that hits the poles i, -1, -(i+1) exactly
    shift = rng.choice((0.0, 0.5, 1.0, 1.5))
    return [
        _grid_job("scan-lossy", "scan",
                  {"atom": "sr87", "lo": rng.uniform(-10.0, -6.0), "hi": rng.uniform(5.0, 9.0)},
                  size["scan-lossy"]),
        _grid_job("scan-pole", "scan",
                  {"spin_twice": rng.choice((3, 5, 7, 9, 11)), "gamma": 0.0, "gamma_bar": 0.0,
                   "lo": -8.0 - shift, "hi": 8.0 - shift},
                  size["scan-pole"]),
    ]


def _oracle_sweep(rng: random.Random, size: dict) -> list[Job]:
    # lossy, at i = 9/2 (N = 10) and at spin_twice = 21 (N = 22)
    return [
        _grid_job("oracle-i9", "oracle",
                  {"spin_twice": 9, "gamma": rng.uniform(0.0, 0.01),
                   "gamma_bar": rng.uniform(1e-5, 1e-4),
                   "lo": rng.uniform(-9.0, -7.0), "hi": rng.uniform(5.0, 7.0)},
                  size["oracle-i9"]),
        _grid_job("oracle-i21", "oracle",
                  {"spin_twice": 21, "gamma": rng.uniform(0.0, 0.004),
                   "gamma_bar": rng.uniform(1e-5, 1e-4),
                   "lo": rng.uniform(-14.0, -12.0), "hi": rng.uniform(12.0, 14.0)},
                  size["oracle-i21"]),
    ]


def _merit_scan(rng: random.Random, size: dict) -> list[Job]:
    # sr87 over [0.01, 12] gives ok and same-sign rows; the gamma = 0 grid of
    # step 8 / 2**k from 0.25 hits the imbalances i and i+1, where one of the
    # two detunings sits on a pole
    return [
        _grid_job("merit-sr87", "merit",
                  {"atom": "sr87", "lo": rng.uniform(0.01, 0.05), "hi": rng.uniform(11.5, 12.5)},
                  size["merit-sr87"]),
        _grid_job("merit-pole", "merit",
                  {"spin_twice": rng.choice((3, 5, 7, 9)), "gamma": 0.0,
                   "gamma_bar": rng.uniform(1e-5, 1e-4), "lo": 0.25, "hi": 8.25},
                  size["merit-pole"]),
    ]


def _lattice_points(rng: random.Random, spin_twice: int, gamma: float, k: float, n: int):
    i = spin_twice / 2
    poles = (i * (1 + gamma * i), -(1 - gamma), -(i + 1) * (1 - gamma * (i + 1)))
    period = 2 * math.pi / k
    points = []
    while len(points) < n:
        delta = rng.uniform(-(i + 3.5), i + 2.5)
        if min(abs(delta - e) for e in poles) < 0.05:
            continue
        # every other point is lossless, where the Hamiltonian must be Hermitian
        gamma_bar = 0.0 if len(points) % 2 == 0 else rng.uniform(1e-5, 1e-3)
        points.append([rng.uniform(0, period), rng.uniform(0, period), rng.uniform(0, period),
                       rng.uniform(0.0, 50.0), delta, gamma_bar])
    return points


def _lattice_sweep(rng: random.Random, size: dict) -> list[Job]:
    spins = []
    for spin_twice in (9, 21):
        gamma = rng.uniform(0.0, 0.004)
        k = rng.uniform(0.5, 2.0)
        spins.append({"spin_twice": spin_twice, "gamma": gamma,
                      "amplitude": rng.uniform(0.5, 2.0), "wavenumber": k,
                      "delta_omega": rng.uniform(0.0, 0.1), "handedness": rng.choice((1, -1)),
                      "points": _lattice_points(rng, spin_twice, gamma, k, size["lattice"])})
    return [Job("lattice", "lattice", {"spins": spins}, 2 * size["lattice"])]


_BUILDERS = {"scan-dense": _scan_dense, "oracle-sweep": _oracle_sweep,
             "merit-scan": _merit_scan, "lattice-sweep": _lattice_sweep}


def build(workload: str, seed: int, size: str) -> list[Job]:
    """Jobs of one workload; size is "full", "tiny" or "setup" (one row or point per job)."""
    counts = SIZES["tiny" if size == "setup" else size]
    jobs = _BUILDERS[workload](random.Random(f"{workload}/{seed}"), counts)
    if size != "setup":
        return jobs
    return [Job(j.label, j.kind, _one_point(j), 2 if j.kind == "lattice" else 1) for j in jobs]


def _one_point(job: Job) -> dict:
    if job.kind == "lattice":
        return {"spins": [{**s, "points": s["points"][:1]} for s in job.params["spins"]]}
    return {**job.params, "steps": 1}
