"""Command-line front end.

Every pipeline is a subcommand with machine-readable output (JSON by
default, floats at 17 significant digits, so identical inputs give
byte-identical files).  Exit codes: 0 all checks passed, 1 checks ran and
failed, 2 usage or input error, an unwritable output path and an input file
that breaks its schema included.  ``--eps`` belongs to the subcommands that
judge a file (``verify``, ``bound``, ``pseudo-check``); the others use
``config.DEFAULT_EPS``.  The LP's scan tolerance and row batch are ``lp``
constants; every budget is a flag whose default is its ``config.DEFAULT_*``
constant, and nothing reads the environment.  A tolerance, budget or round
count that is not finite and > 0 is a usage error.  The grid listing runs on
one thread per CPU the process may use (``taskset`` limits it), and no
output depends on that count.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import asdict
from functools import lru_cache, partial

from . import constructions as cons
from . import hadamard as had
from . import lp as lpmod
from . import torus, witness
from .config import (
    BudgetExceededError,
    DEFAULT_ENUM_BUDGET,
    DEFAULT_EPS,
    DEFAULT_LP_MAX_ROUNDS,
    DEFAULT_SIDON_BUDGET,
)
from .serialize import load_json, open_output, render_json, write_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _emit(args, payload) -> None:
    if getattr(args, "out", None):
        write_json(args.out, payload)
    else:
        sys.stdout.write(render_json(payload))


def _read(path, what: str, parse):
    """``parse`` of the JSON at ``path``; any failure is an input error."""
    try:
        return parse(load_json(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> int:
    d = args.d
    if args.kind == "prime":
        family = cons.prime_mubs(d)  # ValueError for non-prime -> usage error
    elif args.kind == "prime-power":
        primes = cons._prime_divisors(d)
        if len(primes) != 1:
            raise ValueError(f"{d} is not a prime power")
        p, k = primes[0], 1
        while p ** k < d:
            k += 1
        family = cons.prime_power_mubs(p, k)
    else:  # fourier
        family = had.MubFamily(
            d=d,
            hadamards=(cons.fourier_matrix(d),),
            construction="fourier",
            parameters={"root_order": d},
        )
    check = had.verify_family(family)
    payload = had.family_to_json_obj(family)
    payload["verified"] = check.ok
    payload["max_violation"] = check.max_violation
    _emit(args, payload)
    return EXIT_OK if check.ok else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    family = _read(args.family, "family", had.family_from_json_obj)
    check = had.verify_family(family, args.eps)
    points_ok = True
    point_error = ""
    try:
        had.family_to_points(family, eps=args.eps)
    except had.FamilyPointError as exc:
        points_ok = False
        point_error = str(exc)
    payload = {
        "d": family.d,
        "bases": check.bases,
        "family_ok": check.ok,
        "max_violation": check.max_violation,
        "failures": list(check.failures),
        "points_ok": points_ok,
        "point_error": point_error,
    }
    _emit(args, payload)
    return EXIT_OK if check.ok and points_ok else EXIT_CHECK_FAILED


def cmd_grid(args) -> int:
    d, m, budget = args.d, args.m, args.enum_budget
    if args.format == "json":
        rows, codes = torus.ort_ub_rows(d, m, budget=budget)
        payload = {
            "d": d,
            "m": m,
            "ort": rows[codes == torus.CODE_ORT].tolist(),
            "ub": rows[codes == torus.CODE_UB].tolist(),
        }
        _emit(args, payload)
    else:
        if args.out:
            with open_output(args.out) as fh:
                torus.grid_to_csv(d, m, fh, budget=budget)
        else:
            torus.grid_to_csv(d, m, sys.stdout, budget=budget)
    return EXIT_OK


def cmd_witness(args) -> int:
    d = args.d
    poly = witness.expand_h(d)
    rows, _ = torus.ort_ub_rows(d, args.sample_m, budget=args.enum_budget)
    report = witness.delsarte_bound(poly, rows, grid=args.sample_m)
    payload = witness.trig_to_json_obj(poly)
    payload["bound"] = str(report.bound)
    payload["constant_term"] = str(poly.constant_term())
    payload["valid"] = report.valid
    payload["max_sample_value"] = report.max_sample_value
    payload["sample_count"] = len(rows)
    _emit(args, payload)
    return EXIT_OK if report.valid else EXIT_CHECK_FAILED


def cmd_bound(args) -> int:
    family = _read(args.family, "family", had.family_from_json_obj)
    d = family.d
    points = had.family_to_points(family, eps=args.eps)
    report = witness.check_point_set(points, witness.expand_h(d), eps=1e-6)
    payload = {"d": d, **asdict(report), "bound": str(report.bound),
               "hypothesis_ok": report.hypothesis_ok}
    _emit(args, payload)
    return EXIT_OK if report.hypothesis_ok else EXIT_CHECK_FAILED


def cmd_sidon(args) -> int:
    d = args.d
    found = cons.sidon_search(d, budget=args.budget)
    if found is None:
        _emit(args, {"d": d, "status": "not_found"})
        return EXIT_CHECK_FAILED
    verified = cons.sidon_verify(found)
    row_report = None
    if verified:
        check = had.row_quotient_check(cons.sidon_row_system(found))
        row_report = {"ok": check.ok, "max_violation": check.max_violation}
    payload = {
        "d": d,
        "status": "found",
        "n": found.modulus,
        "elements": list(found.elements),
        "verified": verified,
        "row_quotients": row_report,
    }
    _emit(args, payload)
    ok = verified and row_report is not None and row_report["ok"]
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _build_problem(args) -> lpmod.LpProblem:
    table = lpmod.build_orbits(
        args.d,
        args.m,
        use_shift_symmetry=args.shift_symmetry,
        symmetric=not args.no_orbit_symmetry,
        budget=args.enum_budget,
    )
    return lpmod.LpProblem(table)


def cmd_lp(args) -> int:
    # every output path is opened before the solve, so an unwritable one is
    # a usage error at once; a file is replaced only if the whole run succeeds
    if args.checkpoint_dir:
        os.makedirs(args.checkpoint_dir, exist_ok=True)
    with contextlib.ExitStack() as outputs:
        cert_fh = (outputs.enter_context(open_output(args.dual_witness))
                   if args.dual_witness else None)
        out_fh = outputs.enter_context(open_output(args.out)) if args.out else sys.stdout
        problem = _build_problem(args)
        sol = lpmod.solve_lp(
            problem,
            max_rounds=args.max_rounds,
            checkpoint_dir=args.checkpoint_dir,
            progress=args.progress or args.m >= 12,
        )
        payload = lpmod.solution_to_json_obj(problem, sol)
        if cert_fh:
            cert = lpmod.extract_dual_witness(sol, problem)
            cert_fh.write(render_json(witness.trig_to_json_obj(cert)))
            payload["dual_witness_file"] = args.dual_witness
        out_fh.write(render_json(payload))
    return EXIT_OK


def cmd_pseudo_check(args) -> int:
    poly = _read(args.candidate, "candidate", witness.trig_from_json_obj)
    report = lpmod.pseudo_mub_check(poly, args.d, eps=args.eps)
    payload = {"d": args.d, **asdict(report), "ok": report.ok}
    _emit(args, payload)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_export_lp(args) -> int:
    if not args.out:
        raise ValueError("export-lp writes a file: give --out")
    with open_output(args.out) as fh:     # before the orbits, as in cmd_lp
        problem = _build_problem(args)
        rows = lpmod.export_lp(problem, fh, budget=args.enum_budget)
    sys.stdout.write(
        render_json({"d": args.d, "m": args.m, "file": args.out,
                     "orbits": problem.n_orbits, "constraints": rows})
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _positive(convert):
    """argparse type of a setting: ``convert(text)``, finite and > 0."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not 0 < value < math.inf:        # nan fails too
            raise argparse.ArgumentTypeError(
                f"must be a finite {convert.__name__} > 0, not {text!r}")
        return value

    return parse


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="mublp",
        description="Torus-point classification, witness bounds, and "
        "pseudo-MUB linear programs for mutually unbiased bases.",
    )
    # no prefix matching, so "lp --dual" cannot silently mean "--dual-witness"
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    # each subcommand registers only the flags it reads
    def common(p, d_required=True, eps=False, grid=False,
               out_help="output file (default: stdout)"):
        if d_required:
            p.add_argument("--d", type=_positive(int), required=True,
                           help="dimension d >= 1")
        p.add_argument("--out", help=out_help)
        if eps:
            p.add_argument("--eps", type=_positive(float), default=DEFAULT_EPS,
                           help="floating tolerance (default %(default)g)")
        if grid:
            p.add_argument("--enum-budget", type=_positive(int),
                           default=DEFAULT_ENUM_BUDGET,
                           help="grid enumeration budget (default %(default)d)")

    # the raw LP has no orbits to quotient by the shift maps
    def symmetry(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--no-orbit-symmetry", action="store_true",
                           help="one variable per point (cross-check mode)")
        group.add_argument("--shift-symmetry", action="store_true",
                           help="also quotient by the phase re-basing maps")

    p = sub.add_parser("construct", help="build and verify a MUB family")
    common(p)
    p.add_argument("--kind", choices=["prime", "prime-power", "fourier"],
                   required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a family file")
    common(p, d_required=False, eps=True)
    p.add_argument("family", help="family JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid", help="classify all m-th root grid points")
    common(p, grid=True)
    p.add_argument("--m", type=_positive(int), required=True, help="grid order")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("witness", help="exact witness expansion and its bound")
    common(p, grid=True)
    p.add_argument("--sample-m", type=_positive(int), default=4,
                   help="grid order for allowed-set samples (default 4)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("bound", help="replay the point-set bound for a family")
    common(p, d_required=False, eps=True)
    p.add_argument("family", help="family JSON file")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sidon", help="search/verify Sidon sets mod d^2")
    common(p)
    p.add_argument("--budget", type=_positive(int), default=DEFAULT_SIDON_BUDGET,
                   help="search node budget (default %(default)d)")
    p.set_defaults(func=cmd_sidon)

    p = sub.add_parser("lp", help="solve the pseudo-MUB LP on the m-grid")
    common(p, grid=True)
    p.add_argument("--m", type=_positive(int), required=True, help="grid order")
    p.add_argument("--max-rounds", type=_positive(int),
                   default=DEFAULT_LP_MAX_ROUNDS,
                   help="constraint-generation rounds (default %(default)d)")
    symmetry(p)
    p.add_argument("--checkpoint-dir", default=None,
                   help="persist generated constraints between rounds")
    p.add_argument("--dual-witness", default=None,
                   help="write the validated dual certificate here")
    p.add_argument("--progress", action="store_true",
                   help="progress lines on stderr")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("pseudo-check", help="check a pseudo-MUB candidate file")
    common(p, eps=True)
    p.add_argument("candidate", help="grid-mode polynomial JSON file")
    p.set_defaults(func=cmd_pseudo_check)

    p = sub.add_parser("export-lp", help="write the LP in interchange text form")
    common(p, grid=True, out_help="LP file to write (required)")
    p.add_argument("--m", type=_positive(int), required=True, help="grid order")
    symmetry(p)
    p.set_defaults(func=cmd_export_lp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a check that ran and failed; FamilyPointError is a ValueError, so first
    except (had.FamilyPointError, lpmod.CertificateError, BudgetExceededError,
            cons.ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    # bad input, or an output path that cannot be written
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # an internal consistency check failed: the run's result cannot be trusted
    except AssertionError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
