"""Re-measure the per-layer table of ROADMAP.md (best of 3, one thread).

    python3 bench/layer_table.py

Prints one Markdown row per operation.  This is a fixed-size probe for
comparing against the ROADMAP baseline; the benchmark proper is run.py.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from pearceylab import ensemble_mc as mc  # noqa: E402
from pearceylab import fredholm as fh  # noqa: E402
from pearceylab import kernels as kn  # noqa: E402
from pearceylab import pde_lab as pl  # noqa: E402
from pearceylab import scaling as sc  # noqa: E402
from pearceylab import spectral_curve as sp  # noqa: E402


def best_of(fn, repeats=3):
    fn()    # fill lazy caches first
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main():
    sym = sp.TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.3)
    xs96 = np.linspace(-4.0, 4.0, 96)
    grid25 = np.linspace(-3.0, 3.0, 25)
    unit = fh.IntervalUnion((-1.0, 1.0))
    params = kn.FiniteKernelParams(n=8, a=1.0, b=-1.0, p=0.5, t_k=1.0 / 3.0, t_l=1.0 / 3.0)
    c = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 2.0)
    lam = math.sqrt(8) * c * 1.0          # outside the cusp window: adaptive tier
    cfg_q = sp.TargetConfig(targets=(0.0, 1.0), fractions=(8.0 / 9.0, 1.0 / 9.0), time=0.5)
    rows = [
        ("spectral", "`solve_stieltjes`, 1 point", lambda: sp.solve_stieltjes(sym, 0.4)),
        ("spectral", "`sweep_density`, 600 points",
         lambda: sp.sweep_density(sym, np.linspace(-3.0, 3.0, 600))),
        ("kernels", "`pearcey_pq`, 1 point", lambda: kn.pearcey_pq(0.0, 1.0)),
        ("kernels", "`pq_tables`, 96 points", lambda: kn.pq_tables(0.0, xs96)),
        ("kernels", "`pearcey_kernel_matrix` 96x96",
         lambda: kn.pearcey_kernel_matrix(0.0, xs96, xs96)),
        ("kernels", "double-contour grid 25x25",
         lambda: kn.pearcey_kernel_grid(0.0, 0.0, grid25, grid25)),
        ("kernels", "`finite_n_kernel` adaptive, 1 point",
         lambda: kn.finite_n_kernel(params, lam, lam, contours="adaptive")),
        ("fredholm", "`gap_probability` m=40",
         lambda: fh.gap_probability(fh.pearcey_kernel_handle(0.0), unit, 40)),
        ("fredholm", "`multitime_gap` 2 times, m=32",
         lambda: fh.multitime_gap((-1.0, 1.0), [unit, unit], 32)),
        ("fredholm", "`airy_gap_on_ray`", lambda: fh.airy_gap_on_ray(-1.5, 48)),
        ("scaling", "`convergence_study` n<=4096",
         lambda: sc.convergence_study(1.0, 0.0, 1.0 / 9.0, [64, 256, 1024, 4096])),
        ("pde", "`q_surface` h=0.05",
         lambda: pl.q_surface((-0.1, 0.1), 0.0, 1.0, 0.05, 0.05, m=48)),
        ("mc", "`sample_spectra` n=200 x200",
         lambda: mc.sample_spectra(200, sp.TargetConfig((-1.0, 1.0), (0.5, 0.5), 0.2), 11, 200)),
        ("mc", "bridge bundle n=400, 60 steps",
         lambda: mc.sample_bridge_paths(400, cfg_q, 60, 42, t_max=0.97)),
    ]
    print("| Layer | Operation | Time |")
    print("|---|---|---|")
    for layer, label, fn in rows:
        t = best_of(fn)
        shown = f"{t * 1e3:.1f} ms" if t < 1.0 else f"{t:.2f} s"
        print(f"| {layer} | {label} | {shown} |", flush=True)


if __name__ == "__main__":
    main()
