"""The Pearcey kernel, two ways, plus its defining differential identities.

The kernel comes as a double contour integral (X contour against a vertical
line) and as a bilinear expression in the quartic special functions p and q.
Both are evaluated here on a grid and dumped to CSV; their agreement, the
third-order ODEs, the heat equations, and the time-derivative identity are
printed as residuals.
"""

import math
import pathlib

import numpy as np

from pearceylab import QuadratureSpec
from pearceylab.cli import csv_lines
from pearceylab.kernels import pearcey_kernel_grid, pearcey_kernel_matrix, pearcey_pq

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)
spec = QuadratureSpec()

xs = np.linspace(-3.0, 3.0, 25)
for t in (-2.0, 0.0, 2.0):
    Kd = pearcey_kernel_grid(t, t, xs, xs, spec)
    Kq = pearcey_kernel_matrix(t, xs, xs, spec)
    path = OUT / f"pearcey_kernel_t{t:+.0f}.csv"
    grid = (f"# s={t:.17g} t={t:.17g} L={spec.truncation_radius:.17g} "
            f"panels={spec.panels} nodes={spec.nodes_per_panel}")
    rows = zip(np.repeat(xs, len(xs)).tolist(), np.tile(xs, len(xs)).tolist(),
               Kd.ravel().tolist())
    path.write_text("\n".join([grid, *csv_lines("x,y,value", rows)]) + "\n")
    print(f"t = {t:+.0f}: grid -> {path.name}; "
          f"|double - pq| = {np.abs(Kd - Kq).max():.2e}; "
          f"diagonal at 0: {pearcey_kernel_matrix(t, [0.0], [0.0], spec)[0,0]:.6f}")

f = pearcey_pq(0.0, 0.0, spec)
print(f"p(0) = {f.p.real:.3f} (odd function), p'(0) = {f.dp.real:.6f} "
      f"(= -1/sqrt(pi) = {-1/math.sqrt(math.pi):.6f})")
print(f"q(0) = {f.q.real:.6f}, q'(0) = {f.dq.real:.1e}")
rp, rq = f.ode_residuals()
print(f"third-order ODE residuals: p {rp:.1e}, q {rq:.1e}")

h = 1e-3
t0, x, y = 1.0, 0.3, 0.9
dK = (pearcey_kernel_matrix(t0 + h, [x], [y], spec)[0, 0]
      - pearcey_kernel_matrix(t0 - h, [x], [y], spec)[0, 0]) / (2 * h)
fx, fy = pearcey_pq(t0, x, spec), pearcey_pq(t0, y, spec)
rhs = 0.5 * (-fx.dp.real * fy.q.real + fx.p.real * fy.dq.real)
print(f"time-derivative identity: dK/dt = {dK:.8f} vs (-p'q + pq')/2 = {rhs:.8f}")
