"""Equilibrium densities across the split, support evolution, merge tracking.

Two groups of non-intersecting Brownian bridges (half forced to -1, half to
+1) share one blob of particles at early times; at t0 = 1/3 the blob develops
a cusp and splits. This script sweeps the equilibrium density before, at, and
after the split, locates the support endpoints from the quartic discriminant,
and tracks the branch-point merge under the rescaled time T = 2t/(1-t).
"""

import pathlib

import numpy as np

from pearceylab.cli import csv_lines
from pearceylab.spectral_curve import (TargetConfig, find_cusp, support_endpoints,
                                       sweep_density, time_from_rescaled,
                                       track_merges)

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

crit = find_cusp(1.0, -1.0, 0.5)
print(f"symmetric cusp: t0 = {crit.t0:.6f}, x0 = {crit.x0:.1f}, "
      f"c0 = {crit.c0:.6f}, mu = {crit.mu:.1f}")

zg = np.linspace(-4.0, 4.0, 401)
for label, t in (("before", 0.2), ("critical", crit.t0), ("after", 0.6)):
    cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=t)
    samples = sweep_density(cfg, zg)
    path = OUT / f"density_{label}.csv"
    rows = ((d.z, d.g.real, d.g.imag, d.density) for d in samples)
    path.write_text("\n".join(csv_lines("z,re_g,im_g,density", rows)) + "\n")
    bt = cfg.scaled_targets()
    sup = support_endpoints(bt[1], bt[0], 0.5)
    print(f"t = {t:.4f} ({label}): support intervals "
          + ", ".join(f"[{a:.3f}, {b:.3f}]" for a, b in sup.intervals)
          + f" -> {path.name}")

cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.5)
events = track_merges(cfg, 0.3, 3.0)
for ev in events:
    print(f"branch points {ev.left_index} and {ev.right_index} merge at "
          f"z = {ev.z_c:.6f}, T = {ev.T_c:.6f} "
          f"(t = {time_from_rescaled(ev.T_c):.6f}; the cusp time again)")

q2 = find_cusp(1.0, 0.0, 1.0 / 9.0)
print(f"asymmetric example (a=1, b=0, p=1/9): q = {q2.q:.1f}, t0 = {q2.t0:.2f}, "
      f"cusp at x0*sqrt(n) with x0 = {q2.x0:.2f}")
