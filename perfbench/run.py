"""The mublp benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run removes every MUBLP_* variable
from its environment, measures set-up time in separate interpreter
processes, warms the package's caches, and then runs passes over the
workload's operations, one operation after the other, as long as the next
pass is expected to end within ``--seconds`` (at least two passes).  The seed
only shuffles the order of the operations within a pass.  Every operation's outputs are checked against
``reference.json``; any miss is a failed operation and makes the exit code 1.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced passes (at least
three; the first, untraced pass runs with cold caches and is left out of the
overhead) and reports the per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--quick`` runs one
pass (one untraced and one traced when tracing) on the smallest inputs, for
``selfcheck.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass on the smallest inputs")
    return parser.parse_args(argv)


def setup_seconds(work: Path) -> float:
    """Seconds from interpreter start to ready, in a fresh probe process."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(work / "probe")],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def _openblas_threads():
    """OpenBLAS's resolved thread count, from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def environment(removed: list[str]) -> dict:
    import numpy
    from mublp.config import resolve_workers

    config = numpy.show_config(mode="dicts") or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
        "grid_workers": resolve_workers(None),
        "removed_env": removed,
    }


def run_op(workloads, op, tracer, op_id):
    """Run one operation; returns (op, outcome, error text, seconds)."""
    span = None
    if tracer is not None:
        tracer.op_id = op_id
        span = tracer.open(tracing.OP_PREFIX + op.kind)
    start = time.perf_counter()
    try:
        outcome, error = workloads.execute(op), None
    except (Exception, SystemExit):  # a failed operation, counted and reported
        outcome, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    return op, outcome, error, seconds


def check(workloads, record, reference, first_stdout) -> list[str]:
    op, outcome, error, _ = record
    if error is not None:
        return [error.strip().splitlines()[-1]]
    try:
        seen = workloads.observe(op, outcome)
    except Exception as exc:  # unreadable output is a miss, not a crash
        return [f"cannot read output: {exc!r}"]
    problems = workloads.mismatches(seen, reference.get(op.key))
    if op.kind == "lp":
        # byte-identical CLI JSON across passes
        if first_stdout.setdefault(op.key, outcome.stdout) != outcome.stdout:
            problems.append("lp JSON differs from the first pass")
    return problems


def quantile(samples, q):
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def run(args, spec, work: Path, removed: list[str]) -> int:
    # set-up probes are spread over the run, one after each pass, so that
    # their median covers the same stretch of machine load as the passes
    probes = 0 if args.trace else 1 if args.quick else SETUP_PROBES
    setup: list[float] = []
    sys.path.insert(0, str(SRC))
    import workloads  # imports mublp from SRC

    workloads.warm_up(str(work / "warm-up"))
    env = environment(removed)
    reference = json.loads((HERE / "reference.json").read_text())
    groups = workloads.operations(args.workload, str(work), args.quick)
    tracer = tracing.Tracer() if args.trace else None
    rng = random.Random(args.seed)

    passes = {False: [], True: []}      # traced? -> pass seconds
    op_seconds: list[float] = []
    layer_passes: list[dict] = []
    self_passes: list[dict] = []
    unattributed: list[float] = []
    first_stdout: dict = {}
    attempted = failed = progress_lines = op_id = 0
    if args.quick:
        min_passes = 2 if args.trace else 1
    else:
        min_passes = 3 if args.trace else 2
    deadline = time.monotonic() + args.seconds
    n = 0
    while n < min_passes or (
        not args.quick
        and time.monotonic() + statistics.median(passes[False] + passes[True])
        <= deadline
    ):
        traced = bool(args.trace) and n % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass()
        order = rng.sample(groups, len(groups))
        records = []
        start = time.perf_counter()
        for group in order:
            for op in group:
                records.append(run_op(workloads, op, tracer if traced else None, op_id))
                op_id += 1
        pass_s = time.perf_counter() - start
        passes[traced].append(pass_s)
        if traced:
            tracer.uninstall()
            for op, outcome, error, _ in records:
                if outcome is not None:
                    json_bytes, csv_bytes = workloads.output_bytes(op, outcome)
                    tracer.count("cli.json_bytes", json_bytes)
                    tracer.count("torus.csv_bytes", csv_bytes)
            layers, self_time = tracer.end_pass()
            layer_passes.append(layers)
            self_passes.append(self_time)
            unattributed.append(pass_s - sum(self_time.values()))
        else:
            op_seconds.extend(r[3] for r in records)
        for record in records:
            attempted += 1
            if record[1] is not None:
                progress_lines += record[1].stderr.count("\n")
            problems = check(workloads, record, reference, first_stdout)
            if problems:
                failed += 1
                print(f"FAILED {record[0].key}: {'; '.join(problems)}", file=sys.stderr)
        n += 1
        if len(setup) < probes:
            setup.append(setup_seconds(work))
    while len(setup) < probes:
        setup.append(setup_seconds(work))

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: {why[args.workload]}")
    print("environment: " + json.dumps(env))
    untraced = passes[False]
    print(f"closed loop, 1 client, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(passes[True])} traced passes, {attempted} operations, "
          f"{failed} failed; {progress_lines} solver progress lines captured")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed / "
          f"{attempted} attempted)")

    if args.trace:
        metrics = {
            name: statistics.median(p[name] for p in layer_passes)
            for name in layer_passes[0]
        }
        metrics["trace.pass_s"] = statistics.median(passes[True])
        metrics["trace.untraced_pass_s"] = statistics.median(untraced[1:] or untraced)
        metrics["trace.overhead_s"] = (
            metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
        )
        metrics["trace.unattributed_s"] = statistics.median(unattributed)
        layers = sorted(set().union(*self_passes))
        self_table = {
            layer: statistics.median(p.get(layer, 0.0) for p in self_passes)
            for layer in layers
        }
        print("layer self-times (s/pass): " + json.dumps(self_table))
        absent = sorted(tracer.absent)
        print("absent layers and counters: " + (", ".join(absent) or "none"))
        tracer.write(str(WORK / f"trace-{args.workload}.json.gz"))
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        ops_per_pass = sum(len(g) for g in groups)
        print(f"setup_s over {len(setup)} set-ups; pass_s over {len(untraced)} "
              f"passes")
        print("pass seconds: " + ", ".join(f"{s:.4f}" for s in untraced))
        if args.workload.startswith("lp_"):
            print(f"certified_lp_p50_s = {statistics.median(op_seconds):.6g} s, "
                  f"certified_lp_p90_s = {quantile(op_seconds, 0.9):.6g} s "
                  f"({len(op_seconds)} samples, {ops_per_pass} per pass)")
        if args.workload == "grid_scan":
            points = sum(op.m ** (op.d - 1) for g in groups for op in g)
            print(f"grid_points_per_s = {points / metrics['pass_s']:.6g} 1/s "
                  f"({points} exactly classified points per pass)")
        wanted = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in wanted}
    for name in units:
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mublp" / "__init__.py").is_file():
        print(f"error: no mublp package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    removed = sorted(k for k in os.environ if k.startswith("MUBLP_"))
    for key in removed:
        del os.environ[key]
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, spec, work, removed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
