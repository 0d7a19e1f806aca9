"""Non-intersecting bridge paths and the 3/2 cusp, sampled.

One bundle of paths is dumped for plotting (time, path index, position); the
cloud splits at the predicted cusp time. Pooled over bundles, the inner-gap
half width w(t) against t - t0 fits the 3/2 power law, and the fixed-time
eigenvalue law is compared against the spectral-curve density and against the
finite-n kernel diagonal.
"""

import math
import pathlib

import numpy as np

from pearceylab.cli import csv_lines
from pearceylab.ensemble_mc import (density_compare, fit_cusp_exponent,
                                    predicted_density_fn, sample_bridge_paths,
                                    sample_bundles, sample_spectra)
from pearceylab.kernels import finite_n_diagonal
from pearceylab.spectral_curve import TargetConfig, find_cusp

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

a, b, p = 1.0, 0.0, 1.0 / 9.0
crit = find_cusp(a, b, p)
cfg = TargetConfig(targets=(b, a), fractions=(1 - p, p), time=0.5)

bundle = sample_bridge_paths(60, cfg, 60, 1, t_max=0.97)
n_paths, n_times = bundle.paths.shape
rows = zip(np.repeat(bundle.times, n_paths).tolist(),
           np.tile(np.arange(n_paths), n_times).tolist(), bundle.paths.T.ravel().tolist())
(OUT / "bridge_paths.csv").write_text(
    "\n".join(csv_lines("time,path_index,position", rows)) + "\n")
print(f"one bundle of 60 paths -> bridge_paths.csv (cusp predicted at "
      f"t0 = {crit.t0:.3f}, x = {crit.x0:.3f} sqrt(n))")

n = 400
bundles = sample_bundles(n, cfg, 60, 42, 16, t_max=0.97)
slope, ts, widths = fit_cusp_exponent(bundles, a, b, p, n, t_lo_off=0.08,
                                      t_hi_off=0.30, quantile=0.25)
(OUT / "cusp_widths.csv").write_text("\n".join(csv_lines(
    "dt,halfwidth", zip((ts - crit.t0).tolist(), widths.tolist()))) + "\n")
print(f"inner-gap width exponent over 16 bundles at n = {n}: {slope:.3f} "
      "(3/2 law) -> cusp_widths.csv")

t = 0.45
cfg_t = TargetConfig(targets=(b, a), fractions=(1 - p, p), time=t)
samples = sample_spectra(200, cfg_t, 11, 120)
pooled = np.concatenate([s.eigenvalues for s in samples])
ks = density_compare(samples, predicted_density_fn(cfg_t, pooled.min() - 0.4,
                                                   pooled.max() + 0.4))
print(f"KS(empirical vs spectral curve) at t = {t}, n = 200: {ks:.4f}")

n_small = 50
cfg_s = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=1.0 / 3.0)
c = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 2.0)
samples = sample_spectra(n_small, cfg_s, 21, 120)
pooled = np.sort(np.concatenate([s.eigenvalues for s in samples]) * math.sqrt(n_small) * c)
zg = np.linspace(pooled[0] - 0.2, pooled[-1] + 0.2, 160)
prof = finite_n_diagonal(n_small, 1.0, -1.0, 0.5, 1.0 / 3.0, zg)
cdf = np.concatenate([[0.0], np.cumsum(0.5 * (prof[1:] + prof[:-1]) * np.diff(zg))])
cdf /= cdf[-1]
F = np.interp(pooled, zg, cdf)
m = len(pooled)
ks2 = max(np.abs(np.arange(1, m + 1) / m - F).max(),
          np.abs(np.arange(m) / m - F).max())
print(f"KS(empirical vs finite-n kernel diagonal) at the critical time, "
      f"n = {n_small}: {ks2:.4f}")
