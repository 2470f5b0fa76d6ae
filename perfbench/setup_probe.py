"""Set-up probe: import the package, run the warm-up, report when ready.

    python3 perfbench/setup_probe.py SRC_DIR WORK_DIR

Prints the monotonic clock reading at which the process was ready; run.py
subtracts the reading it took before starting the process.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from workloads import warm_up  # noqa: E402  (imports mublp and numpy)

warm_up(sys.argv[2])
print(time.monotonic())
