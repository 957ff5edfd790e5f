"""dimlab benchmark: one workload per run, closed loop, one op at a time.

    python3 perfbench/run.py --workload sigma_search --seed 1 --seconds 35 --trace 0

Run from a checkout: dimlab is imported from ``src/`` next to this directory.
With ``--trace 0`` the run times whole rounds of ops for about ``--seconds``
(a round runs every op of the workload once, in seeded order) and prints the
end-to-end metrics.  With ``--trace 1`` it first replays the first op of each
kind under a call-count check, then runs rounds for about half of
``--seconds``, each op once untraced and once with the tracer installed, and
prints the per-layer metrics and the tracing overhead; it reports no
end-to-end metric.  Every op's output is checked against ``refs/``.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
``failed`` counts ops whose outcome differs from the committed reference;
ops that raise the known schedule defect match their reference and are
counted in the printed ``ops_failed_frac`` instead.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy is imported anywhere.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 11
TAIL_BEYOND = 10

sys.path.insert(0, HERE)
import layer_metrics  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_dimlab():
    """Import dimlab afresh from the checkout's src/ (not an installed copy)."""
    for name in [n for n in sys.modules if n == "dimlab" or n.startswith("dimlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    dl = importlib.import_module("dimlab")
    for layer in tracing.LAYERS:
        importlib.import_module(f"dimlab.{layer}")
    return dl


def setup(cls, seed: int, workdir: str):
    """Import dimlab and build the inputs, SETUP_REPEATS times; the last
    build is kept.  Returns (workload, median seconds)."""
    times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        dl = import_dimlab()
        wl = cls(dl, seed, workdir)
        times.append(time.perf_counter() - t0)
    # The corpus is harness data a real caller would not hold; keep it out of
    # the collector's scans so it does not slow the program's own collections.
    gc.collect()
    gc.freeze()
    return wl, statistics.median(times)


def plan(wl, seconds: float) -> list[str]:
    """Op keys of round(seconds / nominal round length) whole rounds, at
    least one.  A fixed round count gives every run of a workload the same
    ops and sample count, which a time-based stop on a machine whose speed
    drifts would not."""
    return [key for _ in range(max(1, round(seconds / wl.round_seconds)))
            for key in wl.round()]


def timed_loop(wl, keys):
    """Run the ops one at a time; return (outcomes, op seconds, elapsed)."""
    outs, times = [], []
    start = time.perf_counter()
    for key in keys:
        t0 = time.perf_counter()
        outs.append(wl.run(key))
        times.append(time.perf_counter() - t0)
    return outs, times, time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float]:
    """Op time at the highest percentile with TAIL_BEYOND samples beyond it;
    the maximum when that percentile would fall below the median.  Returns
    (value, percent)."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return max(times), 100.0
    s = sorted(times)
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def check_all(wl, refs, keys, outs):
    """Compare outcomes with references.  Returns (mismatches, failure
    reasons Counter in the program's terms)."""
    mismatched = 0
    reasons = Counter()
    for key, out in zip(keys, outs):
        why = wl.check(key, out, refs[key]) if key in refs else "no reference"
        if why is not None:
            mismatched += 1
            reasons[f"differs from reference: {why}"] += 1
        elif wl.failure_reason(out):
            reasons[wl.failure_reason(out)] += 1
    return mismatched, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dimlab", "__init__.py")):
        fail(f"no dimlab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "refs", f"{args.workload}.json")) as fh:
        refs = json.load(fh)

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, spec, refs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, refs, workdir) -> int:
    cls = workloads.WORKLOADS[args.workload]
    wl, setup_s = setup(cls, args.seed, workdir)
    dl = sys.modules["dimlab"]
    if not os.path.abspath(dl.__file__).startswith(SRC + os.sep):
        fail(f"dimlab was imported from {dl.__file__}, not from {SRC}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    # a traced run runs every op twice, so it plans half as many rounds
    keys = plan(wl, args.seconds / 2 if args.trace else args.seconds)
    if args.trace:
        if not verify_tracer(wl, keys):
            return 3
        outs, times, tr = paired_run(args, wl, keys)
    else:
        outs, times, elapsed = timed_loop(wl, keys)
    mismatched, reasons = check_all(wl, refs, keys, outs)
    n = len(keys)
    failed_prog = sum(reasons.values())

    if args.trace == 0:
        tail_s, tail_pct = tail(times)
        metrics = {
            "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
            "ops_per_s": (n / elapsed, "1/s", f"{n} ops over {elapsed:.3f} s"),
            "op_p50_s": (statistics.median(times), "s", f"{n} samples"),
            "op_tail_s": (tail_s, "s", f"p{tail_pct:.1f}, {n} samples"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", "1 process"),
        }
        for name, (value, unit, note) in metrics.items():
            print(f"  {name:16s} {value:.6g} {unit} ({note})")
        print(f"  {'ops_failed_frac':16s} {failed_prog / n:.6g} "
              f"({failed_prog} of {n} ops)")
        for reason, count in sorted(reasons.items()):
            print(f"    failed {count}: {reason}")
        values = {k: v for k, (v, _u, _note) in metrics.items()}
        listed = spec["end_to_end"]
    else:
        values = layer_metrics.report(tr, sum(times))
        for m in spec["per_layer"]:
            # a traced function that never ran has zero calls, time and counts
            if m["name"] not in values and m["name"].rsplit(".", 1)[0] in tr.originals:
                values[m["name"]] = 0
        listed = spec["per_layer"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        fail(f"metrics listed in BENCHMARK.json but not measured: {missing}", 3)
    result_metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                      for m in listed}

    record = {"correct": mismatched == 0, "attempted": n, "failed": mismatched,
              "metrics": result_metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
              "w") as fh:
        json.dump(dict(record, environment=env, failure_reasons=dict(reasons),
                       op_keys=keys, op_seconds=times), fh, indent=1)
    print(json.dumps(record))
    return 0


def verify_tracer(wl, keys) -> bool:
    """Replay the first op of each kind traced and under cProfile; False
    (after printing the mismatches) when a traced function ran more or fewer
    times than the tracer saw, i.e. a binding site was missed."""
    tr = tracing.Tracer()
    tr.install(sys.modules["dimlab"])
    try:
        verify = wl.verify_keys(keys)
        bad = tracing.verify_call_counts(tr, lambda: [wl.run(k) for k in verify])
    finally:
        tr.uninstall()
    for line in bad:
        print(f"call-count mismatch: {line}", file=sys.stderr)
    if not bad:
        print(f"call counts: {len(tr.originals)} traced functions match cProfile "
              f"over {len(verify)} ops")
    return not bad


def paired_run(args, wl, keys):
    """Run each op untraced and traced in turn, alternating which goes first,
    so both timings of an op see the same host load; return (outcomes,
    untraced op seconds, tracer)."""
    tr = tracing.Tracer()
    dl = sys.modules["dimlab"]
    outs, times = [], []
    for i, key in enumerate(keys):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tr.install(dl)
                try:
                    tr.op(i, wl.run, key)
                finally:
                    tr.uninstall()
            else:
                t0 = time.perf_counter()
                outs.append(wl.run(key))
                times.append(time.perf_counter() - t0)
    tr.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.csv"))
    return outs, times, tr


if __name__ == "__main__":
    sys.exit(main())
