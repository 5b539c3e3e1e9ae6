"""Lattice-sweep child: field geometries and Hamiltonian assembly at seeded points.

Usage: python3 perfbench/lattice.py SPEC.json RESULT.json [--trace]

SPEC.json is written by run.py from the workload seed.  For every spin it
lists the lattice points; at each point the child evaluates the four beam
geometries with field_at, assembles the effective Hamiltonian from b-form and
a-form coefficients, and builds the counter-propagating and spin-orbit
components, the way demos 04 and 05 do.  Every point is checked on the spot
(checks.check_lattice_point).  RESULT.json receives the point count, the
check failures and, with --trace, the span summary.
"""

from __future__ import annotations

import json
import sys

import nucshift as ns

import checks
from tracer import Tracer


def sweep(spec: dict) -> tuple[int, list[str]]:
    points = 0
    failures: list[str] = []
    for block in spec["spins"]:
        spin = ns.HalfInteger(block["spin_twice"])
        gamma = block["gamma"]
        amp, k, d_omega = block["amplitude"], block["wavenumber"], block["delta_omega"]
        ops = ns.make_spin_operators(spin)
        geometries = (
            ns.SingleLinear(amp, k),
            ns.SingleCircular(amp, k, block["handedness"]),
            ns.CounterPropCross(amp, k),
            ns.PerpendicularSoc(amp, k, d_omega),
        )
        for x, y, z, t, delta, gamma_bar in block["points"]:
            position = (x, y, z)
            det = ns.ComplexDetuning.of(delta, gamma_bar)
            bset = ns.b_coefficients(spin, gamma, det)
            aset = ns.a_coefficients(spin, gamma, det)
            pairs = []
            for geometry in geometries:
                e = ns.field_at(geometry, position, t)
                pairs.append((ns.assemble_heff(bset, e, ops).matrix,
                              ns.assemble_heff(aset, e, ops).matrix))
            lattice = ns.counterprop_components(bset, amp, k, z, ops)
            soc = ns.soc_components(bset, amp, k, d_omega, position, t, ops)
            rotating = ns.soc_rotating_frame(bset, amp, k, d_omega, position, ops)
            errors = checks.check_lattice_point(
                ops.dimension, pairs, lattice, (*soc, *rotating), hermitian=gamma_bar == 0.0)
            failures += [f"spin_twice={spin.twice} point {points}: {e}" for e in errors]
            points += 1
    return points, failures


def main(argv: list[str]) -> int:
    spec_path, result_path = argv[0], argv[1]
    tracer = None
    if "--trace" in argv[2:]:
        tracer = Tracer()
        tracer.install()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    points, failures = sweep(spec)
    result = {"points": points, "failures": failures[:20], "n_failures": len(failures),
              "summary": tracer.summary() if tracer else None}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
