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
