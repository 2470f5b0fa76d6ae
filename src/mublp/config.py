"""Shared tolerances and resource budgets.

Each ``DEFAULT_*`` constant is the argparse default of the CLI flag that
sets it (``--eps``, ``--eps-feas``, ``--enum-budget``, sidon's ``--budget``,
``--max-rounds``, ``--add-per-round``) and the keyword default of the library
functions that take it.  Nothing reads the environment, so a run depends on
its arguments alone.  The one setting without a flag is the size of the
grid listing's thread pool (``resolve_workers``): the CPUs the process may
run on, which ``taskset`` or a cpuset restricts.  No output depends on it.
"""

from __future__ import annotations

import os

DEFAULT_EPS = 1e-9              # floating classification / verification tolerance
DEFAULT_EPS_FEAS = 1e-7         # LP constraint feasibility tolerance
DEFAULT_ENUM_BUDGET = 20_000_000    # grid points per enumeration
DEFAULT_SIDON_BUDGET = 5_000_000    # backtracking nodes
DEFAULT_LP_MAX_ROUNDS = 500
DEFAULT_LP_ADD_PER_ROUND = 64


class BudgetExceededError(RuntimeError):
    """A configured resource budget (enumeration, search nodes, ...) ran out."""


def resolve_workers(workers: int | None = None) -> int:
    """The thread count for ``workers``: the CPUs this process may run on
    when None or <= 0 (``os.cpu_count()`` where affinity is unknown)."""
    if workers is None or workers <= 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return workers
