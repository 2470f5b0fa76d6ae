"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json twice with ``--quick`` (one pass on
the smallest inputs), untraced and traced, and asserts that

  * every metric name in BENCHMARK.json is printed with its unit: the
    end-to-end metrics by the untraced runs, the per-layer metrics by the
    traced runs;
  * each workload prints the reason it was chosen;
  * in a traced run the layer self-times sum to the traced pass_s within
    the reported tracing overhead.

Exits 0 when every run is correct and every assertion holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELF_TIMES = "layer self-times (s/pass): "
SLACK_S = 1e-3


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}"
        )
    return lines, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result = run(name, trace)
            where = f"{name} --trace {trace}"
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{where}: not correct: {result}")
            if f"workload {name}: {workload['why']}" not in lines:
                problems.append(f"{where}: the workload's reason is not printed")
            metrics = result["metrics"]
            for metric in wanted:
                got = metrics.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{where}: metric {metric['name']} missing")
            if trace:
                table = json.loads(
                    next(l for l in lines if l.startswith(SELF_TIMES))[len(SELF_TIMES):]
                )
                pass_s = metrics["trace.pass_s"]["value"]
                overhead = abs(metrics["trace.overhead_s"]["value"])
                gap = pass_s - sum(table.values())
                if abs(gap) > overhead + SLACK_S:
                    problems.append(
                        f"{where}: layer self-times sum to {sum(table.values()):.6f} s, "
                        f"traced pass_s {pass_s:.6f} s, overhead {overhead:.6f} s"
                    )
            print(f"checked {where}", file=sys.stderr)
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
