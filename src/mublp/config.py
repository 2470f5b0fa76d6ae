"""Shared tolerances, resource budgets, and environment overrides.

Every budget/tolerance here except ``DEFAULT_LP_ADD_PER_ROUND`` can be
overridden by an ``MUBLP_*`` environment variable; the CLI exposes a flag for
each one (flags win over the environment; ``--add-per-round`` has no
environment variable).
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

_ENV_PREFIX = "MUBLP_"


class BudgetExceededError(RuntimeError):
    """A configured resource budget (enumeration, search nodes, ...) ran out."""


def env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(_ENV_PREFIX + name)
    return float(raw) if raw is not None else fallback


def env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(_ENV_PREFIX + name)
    return int(raw) if raw is not None else fallback


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = env_int("WORKERS", 0)
    if workers <= 0:
        workers = os.cpu_count() or 1
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
