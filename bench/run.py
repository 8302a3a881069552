"""Benchmark of asepcross: contour evaluators, exact routes and oracles.

    python3 bench/run.py --workload contour|exact|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats whole rounds of its workload's case list until S
seconds have passed, checks every output against an independent reference,
and prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every time is in
calibrated units (see calib.py).  A table of the cases goes to stderr and
the result, plus the first round's spans when traced, to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# at most 2 threads: BLAS pinned to one, Monte Carlo runs with threads=1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 7
SETUP_KERNEL_RUNS = 7
# the kernel part whose drift matches each workload's work (see calib.py)
KERNEL_PART = {"contour": "array", "exact": "interpreted", "oracle": "interpreted"}
WORKLOADS = tuple(KERNEL_PART)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the import and input generation, print it, exit")
    return parser.parse_args(argv)


def setup_only(args) -> str:
    """Time the import and the input generation in this fresh process, then
    the kernel in the same process: the kernel time of the parent process
    jumped between two levels around each child, the child's did not."""
    start = time.perf_counter()
    import cases

    cases.build(args.workload, args.seed)
    elapsed = time.perf_counter() - start
    import calib

    return f"{elapsed!r} {calib.time_kernel('interpreted', SETUP_KERNEL_RUNS)!r}"


def measure_setup(args, calib) -> float:
    """Median calibrated set-up time over SETUP_RUNS fresh processes."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        raw, kernel = map(float, proc.stdout.split()[-2:])
        times.append(raw * calib.REFERENCE_S["interpreted"] / kernel)
    return statistics.median(times)


def fetch_references(case_list):
    """Compute every refs.py request in a child process that never imports
    asepcross, then the in-process cross-route references."""
    keys = {json.dumps(c.ref, sort_keys=True) for c in case_list if c.ref is not None}
    keys = sorted(keys)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "refs.py")],
        input="[" + ",".join(keys) + "]",
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference computation failed:\n{proc.stderr}")
    results = dict(zip(keys, json.loads(proc.stdout)))
    for case in case_list:
        if case.ref is not None:
            case.reference = results[json.dumps(case.ref, sort_keys=True)]
        elif case.prepare is not None:
            case.reference = case.prepare()


def run_rounds(case_list, seconds, calib, part, tracer):
    """Whole rounds of the case list until `seconds` have passed.

    A time of the kernel part `part` is taken after every case; a round's
    samples are scaled by its reference time over the median of the round's
    kernel times, which follows the host's drift from round to round without
    the noise of one kernel run.
    """
    stats = {
        "samples": {c.name: [] for c in case_list},
        "raw": {c.name: [] for c in case_list},
        "values": {},
        "attempted": 0,
        "failed": 0,
        "mismatches": [],
        "rounds": [],
    }
    kernel_times = [calib.time_kernel(part)]
    start = time.perf_counter()
    while True:
        outputs, raw = {}, {}
        for case in case_list:
            stats["attempted"] += case.reps
            values = None
            t0 = time.perf_counter()
            try:
                values = [case.call() for _ in range(case.reps)]
            except Exception:  # a failed operation is counted, not fatal
                stats["failed"] += case.reps
                print(f"{case.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            elapsed = time.perf_counter() - t0
            kernel_times.append(calib.time_kernel(part))
            if values is None:
                continue
            raw[case.name] = elapsed / case.reps
            failures = [f for f in (case.check(v, case.reference) for v in values) if f]
            if failures:
                stats["failed"] += len(failures)
                stats["mismatches"].append(f"{case.name}: {failures[0]}")
            else:
                outputs[case.name] = values[0]
        factor = calib.REFERENCE_S[part] / statistics.median(kernel_times)
        kernel_times = kernel_times[-1:]
        for name, t in raw.items():
            stats["samples"][name].append(t * factor)
            stats["raw"][name].append(t)
        for case in case_list:
            for other, tol in case.same_as:
                if case.name in outputs and other in outputs:
                    dev = abs(outputs[case.name] - outputs[other])
                    if dev > tol:
                        stats["mismatches"].append(
                            f"{case.name} differs from {other} by {dev:.2e} (tol {tol:.0e})"
                        )
        stats["values"].update(outputs)
        if tracer is not None:
            ms, counts = tracer.take_round()
            stats["rounds"].append(({k: v * factor for k, v in ms.items()}, counts))
            tracer.keep = False  # the trace file holds the first round
        else:
            stats["rounds"].append(({}, {}))
        if time.perf_counter() - start >= seconds:
            return stats


def geomean_ms(samples) -> float:
    """Geometric mean over the cases of each case's median time, in ms."""
    medians = [statistics.median(s) for s in samples.values() if s]
    return 1e3 * math.exp(sum(math.log(m) for m in medians) / len(medians))


def end_to_end(stats, setup_s):
    medians = [statistics.median(s) for s in stats["samples"].values() if s]
    return {
        "case_geomean_ms": (geomean_ms(stats["samples"]), "ms"),
        "sweep_s": (sum(medians), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(stats, tracing):
    rounds = stats["rounds"]
    out = {}
    for name, (unit, _) in tracing.METRICS.items():
        if name == "oracle.samples_per_s":
            per_round = [
                c.get("oracle.mc_samples", 0) / (ms["oracle.mc_ms"] / 1e3)
                if ms.get("oracle.mc_ms") else 0.0
                for ms, c in rounds
            ]
        elif unit == "ms":
            per_round = [ms.get(name, 0.0) for ms, _ in rounds]
        else:  # counts repeat exactly from round to round
            per_round = [c.get(name, 0) for _, c in rounds]
            out[name] = (statistics.median_low(per_round), unit)
            continue
        out[name] = (statistics.median(per_round), unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "asepcross" / "__init__.py").is_file():
        print(f"no asepcross sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(setup_only(args))
        return 0

    import calib

    if not calib.keep_freed_memory():
        print("mallopt unavailable: timings include page faults", file=sys.stderr)
    for part in calib.PARTS:
        calib.time_kernel(part, 10)
    setup_s = None if args.trace else measure_setup(args, calib)

    import cases
    import tracing

    case_list = cases.build(args.workload, args.seed)
    fetch_references(case_list)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    stats = run_rounds(case_list, args.seconds, calib, KERNEL_PART[args.workload], tracer)

    if args.trace:
        metrics = per_layer(stats, tracing)
    else:
        metrics = end_to_end(stats, setup_s)
    for line in stats["mismatches"]:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    print(f"{'case':34s} {'median ms':>11s} {'samples':>7s}  value", file=sys.stderr)
    for case in case_list:
        s = stats["samples"][case.name]
        med = f"{1e3 * statistics.median(s):11.4f}" if s else f"{'-':>11s}"
        value = stats["values"].get(case.name)
        shown = f"{value:.12g}" if isinstance(value, (float, complex)) else str(value)[:40]
        print(f"{case.name:34s} {med} {len(s):7d}  {shown}", file=sys.stderr)
    result = {
        "correct": not stats["mismatches"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, rounds=len(stats["rounds"]),
                  case_geomean_ms=geomean_ms(stats["samples"]),
                  uncalibrated_geomean_ms=geomean_ms(stats["raw"]),
                  case_medians_ms={n: 1e3 * statistics.median(s)
                                   for n, s in stats["samples"].items() if s})
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [{"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in tracer.spans]
        ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
