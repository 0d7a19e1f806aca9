"""Benchmark for pearceylab: one workload per run, in this fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pearcey-fredholm, finite-n-spectral, bridge-mc (see README.md).
The run builds its inputs from the seed, computes independent reference
values, times set-up in fresh child processes, then repeats whole rounds of
the workload's operations until S seconds have passed.  It checks one
round's outputs against the references and properties, requires every other
round to reproduce them exactly, and prints one JSON object as its last
stdout line: correct, attempted and failed (the operations of one round),
and the end-to-end metrics
(--trace 0) or the per-layer metrics of the traced rounds (--trace 1).
"""

from __future__ import annotations

import os

# one BLAS thread and one library thread; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 15


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(first_call):
    """Median over fresh interpreters of import plus the first call's lazy
    set-up, timed inside the child from before `import pearceylab`."""
    code = ("import time; _t0 = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {SRC!r}); {first_call}; "
            "print(time.perf_counter() - _t0)")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def digest(value, h=None):
    """Hash of a round's outputs: floats by repr, arrays by their bytes."""
    import numpy as np
    h = h or hashlib.sha256()
    if isinstance(value, dict):
        for k in sorted(value):
            h.update(k.encode())
            digest(value[k], h)
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for v in value:
            digest(v, h)
        h.update(b"]")
    elif isinstance(value, np.ndarray):
        h.update(value.tobytes())
    elif hasattr(value, "__dataclass_fields__"):
        digest({f: getattr(value, f) for f in value.__dataclass_fields__}, h)
    else:
        h.update(repr(value).encode())
    return h


def run(args):
    sys.path.insert(0, SRC)
    import pearceylab
    if not os.path.abspath(pearceylab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: pearceylab imported from {pearceylab.__file__}, not {SRC}")
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    t_start = time.perf_counter()
    setup_s = None if args.trace else measure_setup(wl.FIRST_CALL)
    t_setup = time.perf_counter()
    refs = wl.references()
    t_refs = time.perf_counter()
    exec(wl.FIRST_CALL, {})
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = []
    wl.install_timer(latencies)
    recorder = spans.Recorder()
    if args.trace:
        recorder.install()

    rounds, walls, layers = [], [], []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < args.seconds:
        recorder.reset()
        recorder.active = bool(args.trace)
        t0 = time.perf_counter()
        out = wl.round(refs)
        walls.append(time.perf_counter() - t0)
        recorder.active = False
        rounds.append(digest(out).hexdigest())
        if args.trace:
            layers.append(recorder.per_layer())
        if len(rounds) == 1:
            first = out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        # the traced rounds must reproduce an untraced round exactly
        t0 = time.perf_counter()
        rounds.append(digest(wl.round(refs)).hexdigest())
        untraced = time.perf_counter() - t0

    t_timed = time.perf_counter()
    outcomes = wl.check(first, refs)
    t_checked = time.perf_counter()
    wrong = [o for o in outcomes if not o.ok and o.fault is None]
    for o in wrong:
        print(f"WRONG: {o.op}: {o.detail}", file=sys.stderr)
    correct = not wrong
    for fault in sorted({o.fault for o in outcomes if o.fault}):
        hit = [o for o in outcomes if not o.ok and o.fault == fault]
        if hit:
            print(f"known fault, {len(hit)} operation(s) failed: {fault}; first: "
                  f"{hit[0].op}: {hit[0].detail}", file=sys.stderr)
    if len(set(rounds)) != 1:
        print("WRONG: rounds produced different outputs", file=sys.stderr)
        correct = False
    failed_per_round = sum(1 for o in outcomes if not o.ok)
    n_rounds = len(walls)

    if args.trace:
        # counts from the first traced round, which alone fills the program's
        # lazy caches the same way in every run; times are medians
        metrics = {}
        for name, unit in spans.PER_LAYER.items():
            value = layers[0][name] if unit == "count" else statistics.median(
                r[name] for r in layers)
            metrics[name] = {"value": value, "unit": unit}
        # compared round by round: a sum of per-module medians may exceed the
        # median round, as each median can come from another round
        module_totals = [sum(r[f"{layer}.self_s"] for layer in (*spans.LAYERS, "linalg"))
                         for r in layers]
        print(f"traced round {statistics.median(walls):.3f} s (median of {len(walls)}), "
              f"untraced round {untraced:.3f} s, module self time "
              f"{statistics.median(module_totals):.3f} s", file=sys.stderr)
        if any(total > wall for total, wall in zip(module_totals, walls)):
            print("WRONG: per-module self time exceeds the round's wall time",
                  file=sys.stderr)
            correct = False
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "op_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    print(f"{args.workload} seed={args.seed}: {n_rounds} round(s), "
          f"{len(outcomes)} operations per round, {failed_per_round} failed per round, "
          f"{len(latencies)} unit operations timed; peak RSS before the timed phase "
          f"{rss_before:.1f} MB; phases: set-up children {t_setup - t_start:.1f} s, "
          f"references {t_refs - t_setup:.1f} s, rounds {t_timed - t_refs:.1f} s, "
          f"checks {t_checked - t_timed:.1f} s", file=sys.stderr)
    # every round runs the same operations and must reproduce the first
    # round's outputs, so one round's counts hold for the whole run and do
    # not grow with the number of rounds that fit in --seconds
    return {"correct": correct, "attempted": len(outcomes),
            "failed": failed_per_round, "metrics": metrics}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.seed < 0:
        print("bench: --seed must be >= 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "pearceylab", "__init__.py")):
        print(f"bench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
