"""Command-line front end.

Every pipeline is a subcommand with machine-readable output (JSON by
default, floats at 17 significant digits, so identical inputs give
byte-identical files).  Exit codes: 0 all checks passed, 1 checks ran and
failed, 2 usage or input error.  Budgets and tolerances read MUBLP_*
environment variables; the matching flags win over the environment.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache, partial

from . import constructions as cons
from . import hadamard as had
from . import lp as lpmod
from . import torus, witness
from .config import (
    BudgetExceededError,
    DEFAULT_ENUM_BUDGET,
    DEFAULT_EPS,
    DEFAULT_EPS_FEAS,
    DEFAULT_LP_ADD_PER_ROUND,
    DEFAULT_LP_MAX_ROUNDS,
    DEFAULT_SIDON_BUDGET,
    env_float,
    env_int,
)
from .serialize import load_json, render_json, write_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class InputError(Exception):
    """Bad file contents or inconsistent dimensions (exit code 2)."""


def _emit(args, payload) -> None:
    if getattr(args, "out", None):
        write_json(args.out, payload)
    else:
        sys.stdout.write(render_json(payload))


def _eps(args) -> float:
    if args.eps is not None:
        return args.eps
    return env_float("EPS", DEFAULT_EPS)


def _budget(args) -> int:
    if args.enum_budget is not None:
        return args.enum_budget
    return env_int("ENUM_BUDGET", DEFAULT_ENUM_BUDGET)


def _load_family(path) -> had.MubFamily:
    try:
        return had.family_from_json_obj(load_json(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot read family file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> int:
    d = args.d
    if args.kind == "prime":
        family = cons.prime_mubs(d)  # ValueError for non-prime -> usage error
    elif args.kind == "prime-power":
        primes = cons._prime_divisors(d)
        if len(primes) != 1:
            raise InputError(f"{d} is not a prime power")
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
    check = had.verify_family(family, _eps(args))
    payload = had.family_to_json_obj(family)
    payload["verified"] = check.ok
    payload["max_violation"] = check.max_violation
    _emit(args, payload)
    return EXIT_OK if check.ok else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    family = _load_family(args.family)
    eps = _eps(args)
    check = had.verify_family(family, eps)
    points_ok = True
    point_error = ""
    try:
        had.family_to_points(family, eps=eps)
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
    d, m = args.d, args.m
    if args.format == "json":
        part = torus.enumerate_grid(d, m, budget=_budget(args), workers=args.workers)
        payload = {
            "d": d,
            "m": m,
            "ort": [list(p.coords) for p in part.ort],
            "ub": [list(p.coords) for p in part.ub],
        }
        _emit(args, payload)
    else:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                torus.grid_to_csv(d, m, fh, budget=_budget(args), workers=args.workers)
        else:
            torus.grid_to_csv(d, m, sys.stdout, budget=_budget(args),
                              workers=args.workers)
    return EXIT_OK


def cmd_witness(args) -> int:
    d = args.d
    poly = witness.expand_h(d)
    budget = _budget(args)
    samples: list = []
    if args.sample_m > 1:
        part = torus.enumerate_grid(d, args.sample_m, budget=budget,
                                    workers=args.workers)
        samples = part.ort + part.ub
    # enumerate_grid classified every sample exactly: all are ORT or UB
    report = witness.delsarte_bound(poly, samples=samples, eps=_eps(args),
                                    budget=budget)
    payload = witness.trig_to_json_obj(poly)
    payload["bound"] = str(report.bound)
    payload["constant_term"] = str(poly.constant_term())
    payload["valid"] = report.valid
    payload["max_sample_value"] = report.max_sample_value
    payload["sample_count"] = len(samples)
    _emit(args, payload)
    return EXIT_OK if report.valid else EXIT_CHECK_FAILED


def cmd_bound(args) -> int:
    family = _load_family(args.family)
    d = family.d
    points = had.family_to_points(family, eps=_eps(args))
    report = witness.check_point_set(points, witness.expand_h(d), eps=1e-6)
    payload = {
        "d": d,
        "cardinality": report.cardinality,
        "s_spectral": report.s_spectral,
        "s_spatial": report.s_spatial,
        "bound": str(report.bound),
        "slack_lower": report.slack_lower,
        "slack_upper": report.slack_upper,
        "max_offdiagonal": report.max_offdiagonal,
        "hypothesis_ok": report.hypothesis_ok,
    }
    _emit(args, payload)
    return EXIT_OK if report.hypothesis_ok else EXIT_CHECK_FAILED


def cmd_sidon(args) -> int:
    d = args.d
    budget = args.budget if args.budget is not None else env_int(
        "SIDON_BUDGET", DEFAULT_SIDON_BUDGET
    )
    found = cons.sidon_search(d, budget=budget)
    if found is None:
        _emit(args, {"d": d, "status": "not_found"})
        return EXIT_CHECK_FAILED
    verified = cons.sidon_verify(found)
    row_report = None
    if verified:
        check = had.row_quotient_check(cons.sidon_row_system(found), _eps(args))
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
        budget=_budget(args),
        workers=args.workers,
    )
    return lpmod.build_pseudo_mub_lp(args.d, args.m, table)


def cmd_lp(args) -> int:
    problem = _build_problem(args)
    eps_feas = args.eps_feas if args.eps_feas is not None else env_float(
        "EPS_FEAS", DEFAULT_EPS_FEAS
    )
    max_rounds = args.max_rounds if args.max_rounds is not None else env_int(
        "LP_MAX_ROUNDS", DEFAULT_LP_MAX_ROUNDS
    )
    sol = lpmod.solve_lp(
        problem,
        eps_feas=eps_feas,
        max_rounds=max_rounds,
        add_per_round=args.add_per_round,
        checkpoint_dir=args.checkpoint_dir,
        progress=args.progress or args.m >= 12,
    )
    if sol.status != "optimal":
        # M is nan here, which has no JSON form
        print(
            f"error: LP ended with status {sol.status} after {sol.rounds} rounds "
            f"({sol.active_constraints} rows)",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    payload = lpmod.solution_to_json_obj(problem, sol)
    if args.dual_witness:
        cert = lpmod.extract_dual_witness(sol, problem)
        write_json(args.dual_witness, witness.trig_to_json_obj(cert))
        payload["dual_witness_file"] = args.dual_witness
    _emit(args, payload)
    return EXIT_OK


def cmd_pseudo_check(args) -> int:
    try:
        poly = witness.trig_from_json_obj(load_json(args.candidate))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot read candidate file {args.candidate}: {exc}")
    report = lpmod.pseudo_mub_check(poly, args.d, eps=_eps(args))
    payload = {
        "d": args.d,
        "support_ok": report.support_ok,
        "transform_ok": report.transform_ok,
        "min_transform": report.min_transform,
        "mass_ok": report.mass_ok,
        "mass": report.mass,
        "origin_ok": report.origin_ok,
        "origin_value": report.origin_value,
        "ok": report.ok,
    }
    _emit(args, payload)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_export_lp(args) -> int:
    problem = _build_problem(args)
    rows = lpmod.export_lp(problem, args.out)
    sys.stdout.write(
        render_json({"d": args.d, "m": args.m, "file": args.out,
                     "orbits": problem.n_orbits, "constraints": rows})
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="mublp",
        description="Torus-point classification, witness bounds, and "
        "pseudo-MUB linear programs for mutually unbiased bases.",
    )
    # no prefix matching, so "lp --eps" cannot silently mean "lp --eps-feas"
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    # each subcommand registers only the flags it reads
    def common(p, d_required=True, eps=False, grid=False):
        if d_required:
            p.add_argument("--d", type=int, required=True, help="dimension d >= 2")
        p.add_argument("--out", help="output file (default: stdout)")
        if eps:
            p.add_argument("--eps", type=float, default=None,
                           help="floating tolerance (default MUBLP_EPS or 1e-9)")
        if grid:
            p.add_argument("--enum-budget", type=int, default=None,
                           help="grid enumeration budget (default MUBLP_ENUM_BUDGET)")
            p.add_argument("--workers", type=int, default=None,
                           help="worker threads for scans (default MUBLP_WORKERS)")

    p = sub.add_parser("construct", help="build and verify a MUB family")
    common(p, eps=True)
    p.add_argument("--kind", choices=["prime", "prime-power", "fourier"],
                   required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a family file")
    common(p, d_required=False, eps=True)
    p.add_argument("family", help="family JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid", help="classify all m-th root grid points")
    common(p, grid=True)
    p.add_argument("--m", type=int, required=True, help="grid order")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("witness", help="exact witness expansion and its bound")
    common(p, eps=True, grid=True)
    p.add_argument("--sample-m", type=int, default=4,
                   help="grid order for allowed-set samples (default 4)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("bound", help="replay the point-set bound for a family")
    common(p, d_required=False, eps=True)
    p.add_argument("family", help="family JSON file")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sidon", help="search/verify Sidon sets mod d^2")
    common(p, eps=True)
    p.add_argument("--budget", type=int, default=None,
                   help="search node budget (default MUBLP_SIDON_BUDGET)")
    p.set_defaults(func=cmd_sidon)

    p = sub.add_parser("lp", help="solve the pseudo-MUB LP on the m-grid")
    common(p, grid=True)
    p.add_argument("--m", type=int, required=True, help="grid order")
    p.add_argument("--eps-feas", type=float, default=None,
                   help="constraint feasibility tolerance, at least 1e-8 "
                   "(default 1e-7)")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--add-per-round", type=int, default=DEFAULT_LP_ADD_PER_ROUND)
    p.add_argument("--no-orbit-symmetry", action="store_true",
                   help="one variable per point (cross-check mode)")
    p.add_argument("--shift-symmetry", action="store_true",
                   help="also quotient by the phase re-basing maps")
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
    common(p, grid=True)
    p.add_argument("--m", type=int, required=True, help="grid order")
    p.add_argument("--no-orbit-symmetry", action="store_true")
    p.add_argument("--shift-symmetry", action="store_true")
    p.set_defaults(func=cmd_export_lp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "d", None) is not None and args.d < 1:
        parser.error("--d must be positive")
    if getattr(args, "m", None) is not None and args.m < 1:
        parser.error("--m must be positive")
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # a check that ran and failed
    except (had.FamilyPointError, lpmod.CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    # an internal consistency check failed: the run's result cannot be trusted
    except AssertionError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
