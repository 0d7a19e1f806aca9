"""Finite-n to Pearcey convergence: the universality rate, measured.

The conjugated, rescaled finite-n bridge kernel is compared against the
Pearcey kernel over a probe grid in the scaling window, for n = 64 ... 4096.
The asymmetric case (a=1, b=0, p=1/9) shows the generic n^(-1/4) rate; the
symmetric case converges at n^(-1/2) because its centered action is even and
every odd Taylor order drops out.
"""

import pathlib

from pearceylab import QuadratureSpec
from pearceylab.cli import csv_lines
from pearceylab.scaling import convergence_study

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)
spec = QuadratureSpec()

for label, (a, b, p) in (("q2", (1.0, 0.0, 1.0 / 9.0)),
                         ("symmetric", (1.0, -1.0, 0.5))):
    study = convergence_study(a, b, p, [64, 256, 1024, 4096], spec=spec)
    path = OUT / f"convergence_{label}.csv"
    path.write_text("\n".join(csv_lines(
        "n,max_abs_error", ((r.n, r.max_abs_error) for r in study.rows),
        f"# fitted_slope={study.slope:.17g}")) + "\n")
    rows = ", ".join(f"n={r.n}: {r.max_abs_error:.5f}" for r in study.rows)
    print(f"{label:>9}: {rows}; fitted slope {study.slope:+.3f} -> {path.name}")
