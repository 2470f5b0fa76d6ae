"""The benchmark's workloads: their operations, the warm-up and output checks.

Every operation is what a user runs: ``mublp.cli.main(argv)`` with the argv
typed at the shell, or a public library call where the CLI has no command.
An operation's outputs are reduced to a few observed values (``observe``);
``reference.json`` holds the values the program produced when the benchmark
was defined, and every run compares against them.

The package is imported from the ``src`` directory next to this one, so
this module is imported only after that directory is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import mublp.lp as lpmod
from mublp import cli

LP_LARGE = ((6, 16), (5, 24))
LP_SWEEP = tuple(
    (d, m) for d in range(3, 8) for m in range(2, 25) if m ** (d - 1) <= 250_000
)
GRID_SCAN = ((6, 24), (8, 12))
ORBITS = (8, 12)
FAMILY_DIMS = (7, 8, 9, 11, 13, 16)
BOUND_MAX_D = 11            # expand_h covers d <= 12; d = 12 is no prime power

# the smallest inputs, for the self-check's quick mode
QUICK_LP_LARGE = ((6, 8), (5, 12))
QUICK_LP_SWEEP = tuple((3, m) for m in range(2, 7))
QUICK_GRID_SCAN = ((6, 8), (5, 12))
QUICK_ORBITS = (6, 8)
QUICK_FAMILY_DIMS = (7, 8)

WORKLOADS = ("lp_large", "lp_sweep", "grid_scan", "families")

M_TOLERANCE = 1e-9          # LP optimum against its reference value
GAP_TOLERANCE = 1e-4        # witness h(0) against M, as mublp.lp validates it


@dataclass(frozen=True)
class Op:
    """One operation: a CLI call (``argv``) or a library call (``orbits``)."""

    key: str                # reference key, e.g. "lp/6/16"
    kind: str               # lp | grid | orbits | construct | verify | bound
    d: int
    m: int = 0
    argv: tuple = ()
    files: tuple = ()       # files the operation writes


@dataclass
class Outcome:
    value: object           # exit code, or the library call's result
    stdout: str
    stderr: str


def execute(op: Op) -> Outcome:
    """Run one operation with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if op.kind == "orbits":
            # looked up at call time, so a traced run sees its wrapper
            value = lpmod.build_orbits(op.d, op.m, budget=op.m ** (op.d - 1))
        else:
            value = cli.main(list(op.argv))
    return Outcome(value, out.getvalue(), err.getvalue())


def _lp(d, m, work):
    witness = os.path.join(work, f"lp-{d}-{m}-witness.json")
    argv = ("lp", "--d", str(d), "--m", str(m), "--dual-witness", witness)
    return [Op(f"lp/{d}/{m}", "lp", d, m, argv, (witness,))]


def _grid(d, m, work):
    out = os.path.join(work, f"grid-{d}-{m}.csv")
    argv = ("grid", "--d", str(d), "--m", str(m), "--out", out)
    if m ** (d - 1) > 20_000_000:      # the default enumeration budget
        argv += ("--enum-budget", str(m ** (d - 1)))
    return [Op(f"grid/{d}/{m}", "grid", d, m, argv, (out,))]


def _family(d, work):
    path = os.path.join(work, f"family-{d}.json")
    group = [
        Op(f"construct/{d}", "construct", d,
           argv=("construct", "--d", str(d), "--kind", "prime-power", "--out", path),
           files=(path,)),
        Op(f"verify/{d}", "verify", d, argv=("verify", path)),
    ]
    if d <= BOUND_MAX_D:
        group.append(Op(f"bound/{d}", "bound", d, argv=("bound", path)))
    return group


def operations(workload: str, work: str, quick: bool = False) -> list[list[Op]]:
    """The operation groups of one pass, in reference order.

    A run shuffles the groups; the operations of a group keep their order
    (a family is built before it is verified).
    """
    if workload == "lp_large":
        return [_lp(d, m, work) for d, m in (QUICK_LP_LARGE if quick else LP_LARGE)]
    if workload == "lp_sweep":
        return [_lp(d, m, work) for d, m in (QUICK_LP_SWEEP if quick else LP_SWEEP)]
    if workload == "grid_scan":
        groups = [_grid(d, m, work)
                  for d, m in (QUICK_GRID_SCAN if quick else GRID_SCAN)]
        d, m = QUICK_ORBITS if quick else ORBITS
        groups.append([Op(f"orbits/{d}/{m}", "orbits", d, m)])
        return groups
    if workload == "families":
        return [_family(d, work) for d in (QUICK_FAMILY_DIMS if quick else FAMILY_DIMS)]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(work: str) -> None:
    """A tiny LP, grid and witness expansion: fills the package's caches."""
    os.makedirs(work, exist_ok=True)
    argvs = (
        ("lp", "--d", "4", "--m", "6", "--dual-witness",
         os.path.join(work, "warm-witness.json")),
        ("grid", "--d", "4", "--m", "6", "--out", os.path.join(work, "warm.csv")),
        ("witness", "--d", "3"),
    )
    for argv in argvs:
        outcome = execute(Op("warm-up", argv[0], 0, argv=argv))
        if outcome.value != 0:
            raise RuntimeError(f"warm-up {' '.join(argv)} exited {outcome.value}")


# ---------------------------------------------------------------------------
# observed values


def _witness_problems(path: str, d: int, m: int, M: float) -> list[str]:
    """Structural checks of a dual-witness file, independent of the package."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    problems = []
    if obj.get("mode") != "grid" or obj.get("m") != m or obj.get("dim") != d - 1:
        problems.append("witness is not a grid polynomial of this (d, m)")
    terms = {tuple(t["gamma"]): float(t["coeff"]) for t in obj["terms"]}
    if terms.get((0,) * (d - 1)) != 1.0:
        problems.append("witness constant term is not 1")
    if min(terms.values()) < 0.0:
        problems.append("witness has a negative coefficient")
    for gamma, coeff in terms.items():
        if terms.get(tuple((-g) % m for g in gamma)) != coeff:
            problems.append("witness is not even")
            break
    if abs(sum(terms.values()) - M) > GAP_TOLERANCE:
        problems.append("witness h(0) differs from M")
    return problems


def _csv_summary(path: str) -> dict:
    digest = hashlib.sha256()
    ort = ub = 0
    with open(path, "rb") as fh:
        for line in fh:
            digest.update(line)
            if line.endswith(b",ORT\n"):
                ort += 1
            elif line.endswith(b",UB\n"):
                ub += 1
    return {"ort": ort, "ub": ub, "sha256": digest.hexdigest()}


def observe(op: Op, outcome: Outcome) -> dict:
    """The values of an operation's outputs that the reference pins down."""
    if op.kind == "orbits":
        table = outcome.value
        return {"orbits": len(table.orbits), "points": table.total_points()}
    seen = {"exit": outcome.value}
    if outcome.value not in (0, 1):
        return seen
    if op.kind == "lp":
        payload = json.loads(outcome.stdout)
        seen.update(status=payload["status"], M=payload["M"])
        seen["witness_problems"] = _witness_problems(
            op.files[0], op.d, op.m, payload["M"]
        )
    elif op.kind == "grid":
        seen.update(_csv_summary(op.files[0]))
    elif op.kind == "construct":
        with open(op.files[0], encoding="utf-8") as fh:
            payload = json.load(fh)
        seen.update(verified=payload["verified"], bases=payload["count"] + 1)
    elif op.kind == "verify":
        payload = json.loads(outcome.stdout)
        seen.update(family_ok=payload["family_ok"], points_ok=payload["points_ok"],
                    bases=payload["bases"])
    elif op.kind == "bound":
        payload = json.loads(outcome.stdout)
        seen.update(cardinality=payload["cardinality"], bound=payload["bound"],
                    hypothesis_ok=payload["hypothesis_ok"])
    return seen


def mismatches(seen: dict, expected: dict | None) -> list[str]:
    """Differences between observed and reference values (M to 1e-9)."""
    if expected is None:
        return ["no reference value"]
    out = []
    for name in sorted(set(seen) | set(expected)):
        got, want = seen.get(name), expected.get(name)
        if name == "M" and isinstance(got, (int, float)) and isinstance(
            want, (int, float)
        ):
            if abs(got - want) > M_TOLERANCE:
                out.append(f"M={got!r}, reference {want!r}")
        elif got != want:
            out.append(f"{name}={got!r}, reference {want!r}")
    return out


def output_bytes(op: Op, outcome: Outcome) -> tuple[int, int]:
    """(JSON bytes, CSV bytes) the operation wrote to stdout and files."""
    json_bytes = len(outcome.stdout.encode())
    csv_bytes = 0
    for path in op.files:
        size = os.path.getsize(path) if os.path.exists(path) else 0
        if path.endswith(".csv"):
            csv_bytes += size
        else:
            json_bytes += size
    return json_bytes, csv_bytes
