"""valuefield benchmark: one seeded workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {scenarios,grid-trajectory,bulk-field}
                         --seed N --seconds S --trace {0,1}

Load model: a closed loop in one process and one thread. A pass runs the
workload's fixed task list back to back and verifies every result; passes
repeat until ``--seconds`` have elapsed. BLAS and OpenMP are pinned to one
thread. The package is imported from this checkout's ``src/``; without it
the benchmark exits with an error and prints no result.

End-to-end times are reported in reference-host seconds. A shared host's
speed drifts by tens of percent over tens of seconds, for this code and the
program alike, so a fixed probe computation is timed between measurements and
each measured time is scaled by ``PROBE_REF_S`` over the mean of the probes on
either side of it. The raw median is printed next to the metrics. Per-layer
costs are as measured.

``--trace 0`` reports the end-to-end metrics (tracing off). ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
checks that traced outputs are bit-identical to untraced ones, and writes
the spans to ``.bench_out/``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("scenarios", "grid-trajectory", "bulk-field")
PROBE_ITERS = 6000
# The probe's time on the reference host. It defines the unit of every
# reported time: changing it rescales all of them and breaks comparisons.
PROBE_REF_S = 0.02


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, build the inputs and exit (timed by the parent)")
    return p.parse_args(argv)


def import_valuefield():
    """Import valuefield from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "valuefield" / "__init__.py").is_file():
        raise SystemExit(f"bench: no valuefield sources under {src}")  # exit code 1
    sys.path.insert(0, str(src))
    import valuefield
    import valuefield.cli  # noqa: F401  (the scenarios workload drives the CLI)
    if Path(valuefield.__file__).resolve().parent != (src / "valuefield").resolve():
        raise SystemExit(f"bench: imported valuefield from {valuefield.__file__}")
    return valuefield


def build_workload(args, scratch: Path):
    vf = import_valuefield()
    from workloads import WORKLOADS
    return WORKLOADS[args.workload](vf, args.seed, scratch)


def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter to inputs ready (it then exits)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    # no timeout: with one, the wait polls in 50 ms steps and quantizes the time
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - start


class HostSpeed:
    """Scales measured times to the reference host speed, using a probe timed
    just before and just after each measurement.

    The probe is a fixed computation of the same kind as the program's
    per-point code: small numpy operations on arrays scattered over a few MB,
    and dict lookups. It tracked the host's drift better than a probe on a
    tiny working set.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._arrays = [np.full(4, float(i)) for i in range(20000)]
        self._table = {i: float(i) for i in range(50000)}
        self.probes = [self.probe()]

    def probe(self) -> float:
        x = self._np.arange(4.0)
        arrays, table = self._arrays, self._table
        total = 0.0
        start = time.perf_counter()
        for i in range(PROBE_ITERS):
            a = arrays[(i * 7919) % 20000]
            total += float((a * 1.0001 + x) @ x) + table[(i * 104729) % 50000]
        return time.perf_counter() - start

    def rescale(self, seconds: float) -> float:
        self.probes.append(self.probe())
        return seconds * PROBE_REF_S / (0.5 * (self.probes[-2] + self.probes[-1]))


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, as (value,
    percentile). With 21 or fewer samples that is at or below the median, so
    the median is reported."""
    n = len(samples)
    if n <= 21:
        return statistics.median(samples), 50.0
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


class Runner:
    """Runs passes over a workload's tasks and counts failures."""

    def __init__(self, workload):
        self.tasks = workload.tasks
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def run_pass(self, ctx) -> dict:
        outputs = {}
        for task in self.tasks:
            self.attempted += 1
            try:
                out = task.run(ctx)
                task.check(out)
            except Exception as exc:  # a failed task is counted, not fatal
                self.fail(task.name, exc)
                out = None
            outputs[task.name] = out
        return outputs

    def fail(self, name: str, exc: BaseException | str) -> None:
        self.failed += 1
        if name not in self._reported:
            self._reported.add(name)
            detail = exc if isinstance(exc, str) else "".join(
                traceback.format_exception(exc)).rstrip()
            print(f"bench: task {name} failed: {detail}", file=sys.stderr)


def measure(args, workload, host: HostSpeed):
    """Warm-up pass, then timed passes until the time is up. Returns pass
    times in reference-host seconds."""
    from tracing import Context, Tracer, install, make_traced_field_class, pass_metrics
    from workloads import identical

    runner = Runner(workload)
    plain = Context()
    runner.run_pass(plain)  # warm-up: verified and counted, not timed
    vf = workload.vf
    tracer = Tracer() if args.trace else None
    traced_cls = make_traced_field_class(vf) if tracer else None
    traced_ctx = Context(tracer, traced_cls)
    wall, raw_wall, traced_wall, per_pass = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not wall:
        start = time.perf_counter()
        outputs = runner.run_pass(plain)
        raw_wall.append(time.perf_counter() - start)
        wall.append(host.rescale(raw_wall[-1]))
        if tracer is None:
            continue
        undo = install(tracer, vf, traced_cls)
        try:
            tracer.take_stats()
            start = time.perf_counter()
            traced_outputs = runner.run_pass(traced_ctx)
            traced_wall.append(host.rescale(time.perf_counter() - start))
        finally:
            undo()
        per_pass.append(pass_metrics(tracer.take_stats()))
        for name, out in traced_outputs.items():
            if out is not None and outputs[name] is not None and not identical(out, outputs[name]):
                runner.fail(name, "traced output differs from untraced output")
    return runner, wall, raw_wall, traced_wall, per_pass, tracer


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    scratch = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        workload = build_workload(args, scratch)
        if args.setup_only:
            return 0
        host = HostSpeed()
        # set-up is an end-to-end metric, so only the untraced run times it
        setup = [] if args.trace else [host.rescale(time_setup(args))
                                       for _ in range(SETUP_REPEATS)]
        workload.prepare()
        runner, wall, raw_wall, traced_wall, per_pass, tracer = measure(args, workload, host)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    import numpy
    import scipy
    from tracing import PER_LAYER_UNITS, median_metrics

    wall_tail, pct = tail(wall)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(wall)}  attempted {runner.attempted}  failed {runner.failed}  "
          f"failed_ratio {runner.failed / runner.attempted:.6g}")
    print(f"wall_s median {statistics.median(wall):.6g} s, tail p{pct:.0f} {wall_tail:.6g} s, "
          f"samples {len(wall)} untraced passes; setup_s samples "
          + (", ".join(f"{s:.3f}" for s in setup) or "not taken with tracing")
          + " (reference-host seconds)")
    print(f"raw: wall_s median {statistics.median(raw_wall):.6g} s as measured, host probe "
          f"median {statistics.median(host.probes):.6g} s against {PROBE_REF_S} s")
    print(f"python {platform.python_version()}  numpy {numpy.__version__}  "
          f"scipy {scipy.__version__}  nproc {os.cpu_count()}  threads pinned to 1  "
          f"src lines {src_lines()}")
    if args.trace:
        metrics = median_metrics(per_pass)
        metrics["trace.overhead_ratio"] = (statistics.median(traced_wall)
                                           / statistics.median(wall))
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(wall),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
