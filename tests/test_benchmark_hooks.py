"""The traced benchmark wraps mublp functions by name; none may go missing.

``perfbench/tracing.py`` leaves a layer out of its report when none of its
call sites resolves, so a rename in ``mublp`` would silently drop metrics.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    # loaded from its file, without writing bytecode beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_has_a_resolving_call_site(tracing):
    assert tracing.LAYERS
    missing = [
        layer for layer, sites in tracing.LAYERS.items()
        if all(tracing._resolve(site) is None for site in sites)
    ]
    assert missing == []


def test_simplex_hook_counts_the_generated_rows(tracing, monkeypatch, tmp_path):
    # the hook reads lp.rows_generated off the master's shape, cols - 2 * rows;
    # the checkpoint, written before every re-solve, holds the rows themselves
    import mublp.lp as lpmod

    problem = lpmod.LpProblem(lpmod.build_orbits(5, 12))
    real = lpmod.solve_equality_form
    counts = []

    class Tracer:
        last_rows = 0

        def count(self, name, value):
            pass

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        tracer = Tracer()
        tracing._simplex(tracer, args, kwargs, result)
        rows = len(lpmod._load_checkpoint(str(tmp_path), problem))
        counts.append((tracer.last_rows, rows))
        return result

    monkeypatch.setattr(lpmod, "solve_equality_form", recording)
    lpmod.solve_lp(problem, checkpoint_dir=str(tmp_path))
    assert len(counts) >= 2
    assert all(hook == rows for hook, rows in counts), counts
