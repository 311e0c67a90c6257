"""Benchmark of stably-distinct: one workload, one process, one thread.

    python3 perfbench/run.py --workload stable-k4 --seed 1 --seconds 10 \\
        --trace 0

Run from the repository root; the package is imported from ``src``.
Whole passes of the workload run for ``--seconds`` (at least the
workload's minimum number of passes).  With ``--trace 0`` the end-to-end
metrics are printed.  Set-up is timed in fresh child processes, from
process start through importing the package and building the workload's
inputs from ``--seed``; half the set-ups run before the passes and half
after, and their median is reported.  With ``--trace 1`` half the time
runs untraced and half traced, and the per-layer metrics are printed per
traced pass, including the tracing overhead as traced minus untraced
pass time.  The program's outputs are checked after the timed phase.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5         # child processes before the passes, and after

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}

PER_LAYER = {
    "polyring.mul_s": "s",
    "polyring.mul_calls": "count",
    "polyring.substitute_s": "s",
    "polyring.substitute_calls": "count",
    "polyring.exact_divide_s": "s",
    "polyring.exact_divide_calls": "count",
    "polyring.exact_divide_terms": "count",
    "polyring.evaluate_s": "s",
    "polyring.evaluate_calls": "count",
    "polyring.max_terms": "count",
    "polyring.self_s": "s",
    "exactfield.scalar_s": "s",
    "morphisms.apply_s": "s",
    "morphisms.compose_s": "s",
    "morphisms.self_s": "s",
    "equivalence.build_stable_s": "s",
    "equivalence.verify_stable_s": "s",
    "equivalence.phi_y_terms": "count",
    "equivalence.psi_y_terms": "count",
    "equivalence.theorem_s": "s",
    "equivalence.decide_calls": "count",
    "equivalence.decide_p50_us": "us",
    "equivalence.decide_p99_us": "us",
    "equivalence.self_s": "s",
    "hypersurface.verify_fiber_s": "s",
    "hypersurface.self_s": "s",
    "lnd.verify_s": "s",
    "lnd.self_s": "s",
    "formalseries.verify_s": "s",
    "formalseries.self_s": "s",
    "certificate.sz_s": "s",
    "certificate.sz_checks": "count",
    "certificate.sz_points": "count",
    "certificate.serialize_s": "s",
    "certificate.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

TRACE_SPANS_KEPT = 20000


SETUP_CODE = """\
import sys
sys.path[:0] = [{here!r}, {src!r}]
import stably_distinct, stably_distinct.cli
from workloads import WORKLOADS
WORKLOADS[{workload!r}](stably_distinct, stably_distinct.cli, {seed!r})
"""


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the inputs being built."""
    code = SETUP_CODE.format(here=HERE, src=SRC, workload=workload, seed=seed)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


class Runner:
    """Runs whole passes; keeps the first record and each pass's rate.

    Later records are only compared with the first, so that memory does
    not grow with the number of passes.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.mismatches = 0
        self.rates = []
        self.attempted = 0
        self.failed = 0

    def passes(self, seconds: float, min_passes: int) -> list[float]:
        walls = []
        start = time.perf_counter()
        while len(walls) < min_passes or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            try:
                record, attempted, failed = self.workload.run_pass()
            except Exception as err:    # a failed pass is counted, not fatal
                print(f"pass failed: {err!r}", file=sys.stderr)
                record, attempted, failed = None, 1, 1
            walls.append(time.perf_counter() - t0)
            self.attempted += attempted
            self.failed += failed
            if record is None:
                continue
            self.rates.append(self.workload.rate(record, walls[-1]))
            if self.first is None:
                self.first = record
            elif self.workload.output(record) != \
                    self.workload.output(self.first):
                self.mismatches += 1
        return walls


def trace_passes(pkg, runner, seconds: float, out_path: str) -> dict:
    """Untraced then traced passes; per-layer metrics per traced pass."""
    untraced = runner.passes(seconds / 2, 1)
    spans = tracer.Tracer()
    spans.install(pkg)
    files = [sys.modules["fractions"].__file__, pkg.exactfield.__file__]
    try:
        with tracer.ScalarSampler(files) as sampler:
            traced = runner.passes(seconds / 2, 1)
    finally:
        spans.uninstall()
    metrics = spans.metrics(len(traced))
    metrics["exactfield.scalar_s"] = sampler.share * statistics.mean(traced)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = \
        statistics.median(traced) - statistics.median(untraced)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump({"keys": spans.keys, "metrics": metrics,
                   "spans": spans.span_records(TRACE_SPANS_KEPT)}, handle)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "stably_distinct")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import stably_distinct as pkg
    import stably_distinct.cli as cli

    setup_times = []
    if not args.trace:
        setup_times += [time_setup(args.workload, args.seed)
                        for _ in range(SETUP_REPEATS)]
    workload = WORKLOADS[args.workload](pkg, cli, args.seed)
    runner = Runner(workload)
    if args.trace:
        out = os.path.join(HERE, "out",
                           f"trace-{args.workload}-{args.seed}.json")
        raw = trace_passes(pkg, runner, args.seconds, out)
        metrics = {name: raw[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        walls = runner.passes(args.seconds, workload.min_passes)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        # half the set-ups after the passes, so that the median does not
        # rest on one moment's machine load
        setup_times += [time_setup(args.workload, args.seed)
                        for _ in range(SETUP_REPEATS)]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": statistics.median(runner.rates),
        }
        units = END_TO_END

    errors = []
    if runner.mismatches:
        errors.append(f"{runner.mismatches} passes over the same inputs "
                      f"gave other outputs than the first")
    try:
        errors += workload.check(runner.first) \
            if runner.first is not None else ["no operation succeeded"]
    except Exception as err:            # malformed output fails the run
        errors.append(f"checking raised {err!r}")
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
