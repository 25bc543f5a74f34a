"""Benchmark runner for hyperclust.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cluster_overlap --seed 1 --seconds 10 --trace 0

It imports hyperclust from ``src/`` of the current directory, builds the
workload's inputs from the seed, and calls the workload's ops one at a time,
in order and over again, until the next op would probably end after
``--seconds`` (every op runs at least once).  Every output is checked, and
one JSON object is printed as the last line of output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the untraced ops, then
one traced pass, and reports the per-layer metrics derived from its spans.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import traceback

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("check_warm", "cluster_overlap", "cluster_symmetric")
# Set-up is repeated in every untraced run and its median reported; the
# one-off part (``workloads.PREPARE``) runs once.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_hyperclust():
    """Import hyperclust from ``src/`` of the working directory, and only
    from there; returns None when the checkout has no sources."""
    src = pathlib.Path.cwd() / "src"
    if not (src / "hyperclust" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import hyperclust

    if pathlib.Path(hyperclust.__file__).resolve().parent != (src / "hyperclust").resolve():
        return None
    return hyperclust


class Runner:
    """Times a plan's ops one call at a time and tallies checked outputs."""

    def __init__(self, plan):
        self.plan = plan
        self.times = [[] for _ in plan.ops]
        self.attempted = 0
        self.failed = 0

    def run_op(self, index, tracer=None):
        """One timed call; its output is checked after the clock stops."""
        op = self.plan.ops[index]
        if tracer is not None:
            tracer.begin_op(op.label)
        error = None
        started = time.perf_counter()
        try:
            output = op.run()
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - started
        self.attempted += 1
        if error is None:
            try:
                if op.expect(output):
                    return wall
                error = "output disagrees with the reference"
            except Exception:
                error = traceback.format_exc()
        self.failed += 1
        print(f"FAILED {op.label}: {error}", file=sys.stderr)
        return wall

    def run_pass(self, tracer=None):
        """Every op once, in order; returns the summed time."""
        return sum(self.run_op(i, tracer) for i in range(len(self.plan.ops)))

    def run_for(self, seconds):
        """Ops in rotation, a whole pass at least, until the next op would
        probably end past ``seconds``.  Returns the pass time: the sum over
        ops of each op's median time."""
        n = len(self.plan.ops)
        calls = 0
        started = time.perf_counter()
        while True:
            self.times[calls % n].append(self.run_op(calls % n))
            calls += 1
            upcoming = statistics.median(self.times[calls % n] or [0.0])
            if calls >= n and time.perf_counter() - started + upcoming > seconds:
                return sum(statistics.median(t) for t in self.times)


def main(argv=None):
    args = parse_args(argv)
    if import_hyperclust() is None:
        print("error: no hyperclust sources under ./src", file=sys.stderr)
        return 2
    import workloads

    # hyperclust imports networkx lazily, in the first corpus build; the
    # references need it anyway.  Importing it here keeps that one-time cost
    # in set-up and out of the timed ops.
    import networkx  # noqa: F401

    setup_fn = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - _STARTED

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    # The corpus cache lives in the run's own directory, never in ~/.cache.
    os.environ[workloads.CACHE_ENV] = workdir
    try:
        started = time.perf_counter()
        workloads.PREPARE.get(args.workload, lambda: None)()
        once_s = time.perf_counter() - started
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            started = time.perf_counter()
            plan = setup_fn(args.seed)
            setups.append(time.perf_counter() - started)
        runner = Runner(plan)
        wall = runner.run_for(args.seconds)
        if args.trace:
            metrics = traced_metrics(runner, args.workload, wall)
        else:
            metrics = {
                "setup_s": {
                    "value": import_s + once_s + statistics.median(setups),
                    "unit": "s",
                },
                "wall_s": {"value": wall, "unit": "s"},
                "edges_per_s": {"value": plan.edges / wall, "unit": "edges/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB",
                },
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"calls per op={[len(t) for t in runner.times]} "
          f"op medians={[round(statistics.median(t), 4) for t in runner.times]}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


def traced_metrics(runner, workload, untraced_wall):
    """One traced pass; per-layer metrics from its spans, written to
    ``out/<workload>.trace.{npz,json}``."""
    import tracer as tracing

    tracer = tracing.Tracer()
    with tracer:
        traced_wall = runner.run_pass(tracer)
    metrics, missing = tracing.layer_metrics(tracer, untraced_wall, traced_wall)
    tracer.write(str(OUT / f"{workload}.trace"), metrics)
    if missing or tracer.missing:
        print(f"missing seams: {tracer.missing}; metrics read as 0: {missing}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
