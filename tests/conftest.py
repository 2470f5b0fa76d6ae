import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cli_env():
    """Environment for a CLI subprocess that runs outside the checkout.

    A relative ``PYTHONPATH=src`` would not resolve there, so the checkout's
    absolute ``src`` goes first on the child's PYTHONPATH; that also wins
    over any ``mublp`` installed in site-packages.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture
def run_cli(tmp_path, cli_env):
    """Run the CLI in a subprocess in ``tmp_path``: (exit_code, stdout, stderr).

    ``pin=True`` pins the child to one CPU before it starts, so the grid
    listing's thread pool has one thread.
    """

    def _run(*argv, cwd=None, pin=False):
        if pin and not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        cpu = min(os.sched_getaffinity(0)) if pin else None
        proc = subprocess.run(
            [sys.executable, "-m", "mublp", *[str(a) for a in argv]],
            capture_output=True,
            text=True,
            cwd=cwd or tmp_path,
            env=cli_env,
            preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pin else None,
        )
        return proc.returncode, proc.stdout, proc.stderr

    return _run
