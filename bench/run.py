"""enrichkit benchmark: one run of one workload.

    python3 bench/run.py --workload presheaf-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: enrichkit is imported from ./src and
nowhere else.  One process, one thread and one caller: every operation
starts when the previous verdict has returned.

--trace 0 measures the end-to-end metrics: repeated passes over the
workload's fixed list of instances for --seconds; a pass that would not end
in time is not started.
--trace 1 alternates untraced and traced passes over the same time and
reports the per-layer metrics of the traced passes (medians), plus the
tracing overhead: traced minus untraced median pass time.  The spans of the
last traced pass are written to bench/out/.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 11
MIN_PASSES = 3
PACKAGE = "enrichkit"
# Modules a workload may touch: enrichkit itself and the CLI with its corpus.
IMPORTS = (PACKAGE, f"{PACKAGE}.cli")


def quartiles(values):
    """(q1, median, q3) of two or more values."""
    return tuple(statistics.quantiles(values, n=4))


def import_fresh():
    """Import enrichkit from scratch, dropping any earlier import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    for name in IMPORTS:
        importlib.import_module(name)


def setup(workload, seed):
    """Import enrichkit and generate the inputs, SETUP_REPEATS times; the
    inputs of the last repeat are used.  Returns (inputs, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_fresh()
        inputs = workload.make_inputs(seed)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)


def timed_pass(workload, inputs, run):
    t0 = time.perf_counter()
    run.start_pass()
    workload.run_pass(inputs, run)
    return time.perf_counter() - t0


def fits(start, seconds, *pass_times):
    """Whether one more pass of each kind, at its median so far, still ends
    within `seconds` of `start`."""
    need = sum(statistics.median(times) for times in pass_times)
    return time.perf_counter() - start + need <= seconds


def measure(workload, inputs, seconds, run):
    """Untraced passes for `seconds` (at least MIN_PASSES of them)."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or fits(start, seconds, passes):
        passes.append(timed_pass(workload, inputs, run))
    return passes


def measure_traced(workload, inputs, seconds, run, spans_path):
    """Alternate untraced and traced passes; returns (untraced pass times,
    traced pass times, per-layer metrics of each traced pass)."""
    from layers import make_tracer, pass_metrics

    tracer, replacements = make_tracer(PACKAGE)
    plain, traced, layer_values = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or fits(start, seconds, plain, traced):
        plain.append(timed_pass(workload, inputs, run))
        tracer.reset()
        tracer.install(PACKAGE, replacements)
        try:
            root = tracer.open("bench.pass")
            try:
                traced.append(timed_pass(workload, inputs, run))
            finally:
                tracer.close(root)
        finally:
            tracer.uninstall()
        layer_values.append(pass_metrics(tracer))
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.dump(spans_path)
    return plain, traced, layer_values


def main(argv=None):
    from workloads import WORKLOADS, Run

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    inputs, setup_s = setup(workload, args.seed)
    package_dir = os.path.dirname(sys.modules[PACKAGE].__file__)
    if os.path.dirname(package_dir) != SRC:
        print(f"error: {PACKAGE} was imported from {package_dir}", file=sys.stderr)
        return 2

    run = Run()
    if args.trace:
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        plain, passes, layer_values = measure_traced(
            workload, inputs, args.seconds, run, spans_path)
    else:
        passes = measure(workload, inputs, args.seconds, run)

    q1, pass_s, q3 = quartiles(passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} "
          f"{'traced ' if args.trace else ''}passes, pass_s median {pass_s:.4f} "
          f"q1 {q1:.4f} q3 {q3:.4f}")
    for label, rec in run.rungs.items():
        print("rung " + json.dumps({
            "rung": label, **{k: v for k, v in rec.items() if k != "seconds"},
            "seconds": round(statistics.median(rec["seconds"]), 4)}))
    for label, digest in sorted(run.digests.items()):
        print(f"sha256 {digest} {label}")
    fail_ratio = run.failed / run.attempted
    print(f"operations {run.attempted} attempted, {run.failed} failed, "
          f"fail_ratio {fail_ratio:.6f}")
    for line in run.failures:
        print(f"FAILED {line}")

    if args.trace:
        from layers import METRICS
        untraced_s = statistics.median(plain)
        metrics = {}
        for name, unit, _ in METRICS:
            if name == "trace.overhead_s":
                value = pass_s - untraced_s
            elif name == "trace.overhead_ratio":
                value = (pass_s - untraced_s) / untraced_s
            else:
                value = statistics.median(v[name] for v in layer_values)
            metrics[name] = {"value": value, "unit": unit}
        print(f"tracing overhead: traced pass_s {pass_s:.4f} - untraced pass_s "
              f"{untraced_s:.4f} = {pass_s - untraced_s:.4f} s over "
              f"{len(plain)} untraced passes; spans in {os.path.relpath(spans_path, ROOT)}")
    else:
        samples = sorted(run.verdict_s)
        deciles = statistics.quantiles(samples, n=10)
        beyond = sum(1 for v in samples if v > deciles[8])
        print(f"verdicts {len(samples)}, {beyond} beyond p90")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "verdict_s.p50": {"value": statistics.median(samples), "unit": "s"},
            "verdict_s.p90": {"value": deciles[8], "unit": "s"},
            "ok_ratio": {"value": 1.0 - fail_ratio, "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
