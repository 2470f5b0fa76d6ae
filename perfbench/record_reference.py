"""Write reference.json: the observed outputs of every benchmark operation.

    python3 perfbench/record_reference.py

Runs each operation of every workload, full and quick inputs, once and
stores what ``workloads.observe`` sees.  The file pins the outputs of the
program at the commit that defined the benchmark; later runs compare
against it, so regenerate it only when a change is meant to alter outputs.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    work = HERE / ".work" / "reference"
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            for quick in (False, True):
                for group in workloads.operations(workload, str(work), quick):
                    work.mkdir(parents=True, exist_ok=True)
                    for op in group:
                        seen = workloads.observe(op, workloads.execute(op))
                        reference[op.key] = seen
                        print(op.key, seen, file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(dict(sorted(reference.items())), indent=1, sort_keys=True)
    (HERE / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
