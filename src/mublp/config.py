"""Shared tolerances and resource budgets.

Each ``DEFAULT_*`` constant is the argparse default of the CLI flag that
sets it (``--eps``, ``--eps-feas``, ``--enum-budget``, sidon's ``--budget``,
``--max-rounds``, ``--add-per-round``) and the keyword default of the library
functions that take it.  Nothing reads the environment, so a run depends on
its arguments alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

DEFAULT_EPS = 1e-9              # floating classification / verification tolerance
DEFAULT_EPS_FEAS = 1e-7         # LP constraint feasibility tolerance
DEFAULT_ENUM_BUDGET = 20_000_000    # grid points per enumeration
DEFAULT_SIDON_BUDGET = 5_000_000    # backtracking nodes
DEFAULT_LP_MAX_ROUNDS = 500
DEFAULT_LP_ADD_PER_ROUND = 64


class BudgetExceededError(RuntimeError):
    """A configured resource budget (enumeration, search nodes, ...) ran out."""


def resolve_workers(workers: int | None) -> int:
    """The thread count for ``workers``: one per core when None or <= 0."""
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return workers


def run_chunked(fn, chunks, workers: int | None = None) -> list:
    """Apply ``fn`` to each chunk, in order, optionally on a thread pool.

    The chunk list must not depend on the worker count; results are merged in
    chunk order, so output is identical for any number of workers.
    """
    chunks = list(chunks)
    n = resolve_workers(workers)
    if n <= 1 or len(chunks) <= 1:
        return [fn(chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, chunks))
