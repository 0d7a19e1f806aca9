"""Gap probabilities: single-time sweeps, two-time determinants, resolvents,
and the approach to the Airy determinant far along the cusp.
"""

import pathlib

import numpy as np

from pearceylab import QuadratureSpec
from pearceylab.cli import csv_lines
from pearceylab.fredholm import (IntervalUnion, airy_gap_on_ray, endpoint_identity_check,
                                 gap_probability, multitime_gap, pearcey_kernel_handle,
                                 resolvent_quantities)

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)
spec = QuadratureSpec()

E = IntervalUnion((-1.0, 1.0))
gaps = [(t, gap_probability(pearcey_kernel_handle(t, spec), E, 40))
        for t in np.linspace(-2.0, 2.0, 9).tolist()]
(OUT / "pearcey_gap_sweep.csv").write_text("\n".join(csv_lines(
    "t,y1,y2,log_gap,err",
    ((t, *E.endpoints, g.log_value, g.error_estimate) for t, g in gaps))) + "\n")
print(f"single-time sweep on E = [-1,1] -> pearcey_gap_sweep.csv "
      f"(gap at t=0: {gaps[4][1].value:.6f})")

two = multitime_gap([-1.0, 1.0], [IntervalUnion((-1.0, 1.0))] * 2, 28, spec)
print(f"two-time gap, tau = (-1, 1), E = [-1,1] twice: {two.value:.6f}")

rd = resolvent_quantities(0.0, IntervalUnion((-1.0, 1.0)), 48, spec)
lhs, rhs, du = endpoint_identity_check(0.0, IntervalUnion((-1.0, 1.0)), m=64, spec=spec)
print(f"resolvent scalar u = {rd.u:.8f}; endpoint identity: "
      f"d2E log-gap = {lhs:.8f}, endpoint sum = {rhs:.8f}, dE u = {du:.8f}")

tw_rows = [(s, airy_gap_on_ray(s, 48).value) for s in np.linspace(-4.0, 2.0, 13).tolist()]
(OUT / "airy_gap_curve.csv").write_text("\n".join(csv_lines("s,det", tw_rows)) + "\n")
print("Airy-kernel determinant curve on (s, inf) -> airy_gap_curve.csv")

s_lo = -1.5
target = airy_gap_on_ray(s_lo, 48).value
print(f"approach to the Airy determinant along the cusp (target {target:.6f}):")
for t in (4.0, 6.0, 8.0):
    edge = 2.0 * (t / 3.0) ** 1.5
    sig = (3.0 * t) ** (1.0 / 6.0)
    g = gap_probability(pearcey_kernel_handle(t, spec),
                        IntervalUnion((0.0, edge - sig * s_lo)), 56)
    print(f"  t = {t:.0f}: gap = {g.value:.6f} (distance {abs(g.value-target):.2e})")
