"""How often the bridge-mc cusp-exponent check could fail on a seed.

    python3 bench/cusp_fit_study.py --seeds 1000:1032 [--resamples 20000]

For each seed, draws the bundles exactly as a bridge-mc round does and fits
the exponent with the benchmark's window and quantile (`BridgeMC.FIT`).
Then it pools every bundle and fits random subsets of the benchmark's size,
drawn without replacement, to estimate the tail.  Prints the per-seed and the
resampled spread and how many fall outside 1.5 +- 0.2.  One seed takes about
35 s on one core.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from pearceylab import ensemble_mc as mc  # noqa: E402
from pearceylab import spectral_curve as sp  # noqa: E402
from workloads import ASYMMETRIC, BridgeMC  # noqa: E402


def summary(label, slopes):
    slopes = np.asarray(slopes)
    outside = int(np.sum(np.abs(slopes - 1.5) >= 0.2))
    print(f"{label}: n {len(slopes)}, mean {slopes.mean():.4f}, sd {slopes.std(ddof=1):.4f}, "
          f"min {slopes.min():.4f}, max {slopes.max():.4f}, outside 1.5 +- 0.2: {outside}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1000:1032", help="first:last+1")
    ap.add_argument("--resamples", type=int, default=20000)
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split(":"))
    w = BridgeMC
    cfg = sp.TargetConfig(targets=ASYMMETRIC[0], fractions=ASYMMETRIC[1], time=0.5)
    p = ASYMMETRIC[1][1]
    per_seed, pool = [], []
    for seed in range(lo, hi):
        bundles = []
        for k in range(w.CHUNKS):
            bundles += mc.sample_bundles(w.N_BUNDLE, cfg, w.STEPS, seed * w.CHUNKS + k,
                                         w.BUNDLES // w.CHUNKS, t_max=w.T_MAX)
        per_seed.append(mc.fit_cusp_exponent(bundles, 1.0, 0.0, p, w.N_BUNDLE, **w.FIT)[0])
        pool += bundles
        print(f"seed {seed}: slope {per_seed[-1]:.4f}", flush=True)
    summary(f"per seed ({w.BUNDLES} bundles each)", per_seed)
    rng = np.random.default_rng(0)
    resampled = [mc.fit_cusp_exponent([pool[i] for i in rng.choice(len(pool), w.BUNDLES,
                                                                    replace=False)],
                                      1.0, 0.0, p, w.N_BUNDLE, **w.FIT)[0]
                 for _ in range(args.resamples)]
    summary(f"{w.BUNDLES} of {len(pool)} pooled bundles", resampled)


if __name__ == "__main__":
    main()
