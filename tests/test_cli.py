import dataclasses
import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest

from mublp import cli
from mublp import constructions as cons
from mublp import hadamard as had
from mublp import lp as lpmod
from mublp import torus as torusmod
from mublp import witness as witnessmod
from mublp.config import resolve_workers
from mublp.serialize import render_json
from mublp.simplex import ITERATION_LIMIT, UNBOUNDED
from mublp.torus import CODE_ORT, ort_ub_rows


def test_construct_prime_and_verify(run_cli, tmp_path):
    code, out, err = run_cli("construct", "--d", 5, "--kind", "prime",
                             "--out", tmp_path / "fam5.json")
    assert code == 0, err
    payload = json.loads((tmp_path / "fam5.json").read_text())
    assert payload["count"] == 5 and payload["verified"]

    code, out, err = run_cli("verify", tmp_path / "fam5.json")
    assert code == 0, err
    report = json.loads(out)
    assert report["bases"] == 6 and report["family_ok"] and report["points_ok"]


def test_construct_non_prime_is_usage_error(run_cli):
    code, out, err = run_cli("construct", "--d", 6, "--kind", "prime")
    assert code == 2, err
    assert "not prime" in err


def test_construct_prime_power(run_cli, tmp_path):
    code, _, err = run_cli("construct", "--d", 9, "--kind", "prime-power",
                           "--out", tmp_path / "fam9.json")
    assert code == 0, err
    payload = json.loads((tmp_path / "fam9.json").read_text())
    assert payload["count"] == 9 and payload["verified"]

    code, _, err = run_cli("construct", "--d", 10, "--kind", "prime-power")
    assert code == 2, err
    assert "prime power" in err


@pytest.mark.parametrize("d,code", [(1, 2), (6, 2), (8, 0), (9, 0), (12, 2)])
def test_construct_prime_power_exits(tmp_path, capsys, d, code):
    out = str(tmp_path / "fam.json")
    assert cli.main(["construct", "--d", str(d), "--kind", "prime-power",
                     "--out", out]) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"error: {d} is not a prime power\n"
    else:
        payload = json.loads(open(out).read())
        assert payload["count"] == d and payload["verified"]


def test_construct_fourier_and_verify(tmp_path, capsys):
    out = str(tmp_path / "fourier6.json")
    assert cli.main(["construct", "--d", "6", "--kind", "fourier", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["count"] == 1 and payload["verified"]
    assert payload["parameters"] == {"root_order": 6}
    assert cli.main(["verify", out]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["bases"] == 2 and report["family_ok"] and report["points_ok"]


def test_a_construction_that_fails_its_check_exits_1(capsys, monkeypatch):
    failed = had.FamilyCheck(False, 6, 1.0, ("matrix 0 is not Hadamard",))
    monkeypatch.setattr(cons, "verify_family", lambda family: failed)
    assert cli.main(["construct", "--d", "5", "--kind", "prime"]) == cli.EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: constructed family failed verification: matrix 0 is not Hadamard\n")


def _family_4(**fields):
    """The d = 4 prime-power family as its file holds it, with ``fields`` set
    (``root_order`` in its parameters)."""
    obj = json.loads(render_json(had.family_to_json_obj(cons.prime_power_mubs(2, 2))))
    if "root_order" in fields:
        obj["parameters"]["root_order"] = fields.pop("root_order")
    return {**obj, **fields}


_BAD_ENTRY = _family_4()
_BAD_ENTRY["hadamards"][1][5] = [True, 0]


@pytest.mark.parametrize("command", ["verify", "bound"])
@pytest.mark.parametrize("family", [
    _family_4(root_order=2.5),
    _family_4(root_order="4"),
    _family_4(root_order=0),
    _family_4(root_order=True),
    _family_4(d=4.5),
    _family_4(count="4"),
    _BAD_ENTRY,
    [_family_4()],
    _family_4(parameters=[["root_order", 4]]),
], ids=["root_order_2.5", "root_order_str", "root_order_0", "root_order_true",
        "d_4.5", "count_str", "entry_true", "list", "parameters_list"])
def test_malformed_family_files_are_input_errors(tmp_path, capsys, command, family):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    assert cli.main([command, str(path)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: cannot read family file {path}: ")


def test_witness_d6(run_cli):
    code, out, err = run_cli("witness", "--d", 6)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["bound"] == "36"
    assert payload["constant_term"] == "1"
    assert payload["valid"]


def test_bound_subcommand(run_cli, tmp_path):
    code, _, err = run_cli("construct", "--d", 3, "--kind", "prime",
                           "--out", tmp_path / "f.json")
    assert code == 0, err
    code, out, err = run_cli("bound", tmp_path / "f.json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["bound"] == "9"
    assert abs(payload["s_spectral"] - 81) < 1e-6


def test_bound_and_verify_fail_a_forbidden_difference(run_cli, tmp_path):
    # columns 0 and 1 differ by a phase 0.7/(2 pi): neither ORT nor UB
    bad = [[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [math.cos(0.7), math.sin(0.7)]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 2, "count": 1, "hadamards": bad}))
    code, out, err = run_cli("bound", path)
    assert code == 1, err
    assert out == ""
    assert "error: difference of columns 0 and 1 classifies forbidden" in err
    code, out, err = run_cli("verify", path)
    assert code == 1, err
    report = json.loads(out)
    assert not report["points_ok"]
    assert report["point_error"] == "difference of columns 0 and 1 classifies forbidden"


def test_grid_csv_and_json(run_cli):
    code, out, err = run_cli("grid", "--d", 3, "--m", 3)
    assert code == 0, err
    assert out.splitlines()[0] == "0,1,UB"
    code, out, err = run_cli("grid", "--d", 3, "--m", 3, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["ort"] == [[1, 2], [2, 1]]


def test_sidon_d6(run_cli):
    code, out, err = run_cli("sidon", "--d", 6)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["verified"]
    assert payload["n"] == 36 and len(payload["elements"]) == 6
    assert payload["row_quotients"]["ok"]
    assert payload["row_quotients"]["max_violation"] < 1e-9


def test_lp_d3m3(run_cli, tmp_path):
    code, out, err = run_cli(
        "lp", "--d", 3, "--m", 3, "--dual-witness", tmp_path / "dw.json"
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert abs(payload["M"] - 9.0) < 1e-6
    witness = json.loads((tmp_path / "dw.json").read_text())
    assert witness["mode"] == "grid" and witness["m"] == 3


def test_pseudo_check_exit_codes(run_cli, tmp_path):
    code, _, err = run_cli("lp", "--d", 2, "--m", 2,
                           "--dual-witness", tmp_path / "dw.json")
    assert code == 0, err
    code, out, err = run_cli("pseudo-check", "--d", 2, tmp_path / "dw.json")
    assert code == 1, err  # valid file, failed check
    payload = json.loads(out)
    assert not payload["ok"]

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run_cli("pseudo-check", "--d", 2, bad)
    assert code == 2, err  # input error


_GRID_TERMS = [{"gamma": [0, 0], "coeff": "9"}]


@pytest.mark.parametrize("candidate", [
    [],
    {"dim": 2, "mode": "grid", "m": 0, "terms": _GRID_TERMS},
    {"dim": 2, "mode": "grid", "m": -3, "terms": _GRID_TERMS},
    {"dim": 2, "mode": "grid", "m": 4, "terms": [{"gamma": [0, 0], "coeff": "1/0"}]},
], ids=["not_an_object", "m_zero", "m_negative", "zero_denominator"])
def test_pseudo_check_refuses_malformed_candidates(tmp_path, capsys, candidate):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(candidate))
    assert cli.main(["pseudo-check", "--d", "3", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read candidate file {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def _grid_candidate(coeff=9.0, gamma=(0, 0), **fields):
    return {"dim": 2, "mode": "grid", "m": 4,
            "terms": [{"gamma": list(gamma), "coeff": coeff}], **fields}


# JSON text, since NaN and 1e400 have no Python literal that json.dumps writes
@pytest.mark.parametrize("text", [
    json.dumps(_grid_candidate(None)),
    json.dumps(_grid_candidate(True)),
    json.dumps(_grid_candidate([1])),
    json.dumps(_grid_candidate(9.0)).replace("9.0", "1e400"),
    json.dumps(_grid_candidate(9.0)).replace("9.0", "NaN"),
    json.dumps(_grid_candidate(gamma=(0, 1.5))),
    json.dumps(_grid_candidate(dim=2.0)),
    json.dumps(_grid_candidate(m=4.5)),
    json.dumps(_grid_candidate(m=True)),
], ids=["null", "true", "list", "1e400", "nan", "gamma_1.5", "dim_2.0", "m_4.5",
        "m_true"])
def test_pseudo_check_refuses_malformed_numbers(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert cli.main(["pseudo-check", "--d", "3", str(path)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: cannot read candidate file {path}: ")


def test_pseudo_check_refuses_an_over_budget_cube_before_building_it(
    tmp_path, capsys, monkeypatch
):
    # 200^5 points: the transform's complex cube would take 4.66 TiB
    def refuse(*args):
        raise AssertionError("the cube was built")

    monkeypatch.setattr(lpmod, "_transform", refuse)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dim": 5, "mode": "grid", "m": 200,
                                "terms": [{"gamma": [0] * 5, "coeff": 36.0}]}))
    assert cli.main(["pseudo-check", "--d", "6", str(path)]) == cli.EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: grid of 320000000000 points exceeds enumeration "
                   "budget 20000000\n")


def test_every_witness_file_the_package_writes_reads_back(tmp_path, capsys):
    # the LP's dual witness (a grid polynomial) and the witness subcommand's
    # exact expansion ("p/q" coefficients)
    path = tmp_path / "dw.json"
    for d, m in [(2, 2), (3, 3), (4, 6), (5, 8)]:
        assert cli.main(["lp", "--d", str(d), "--m", str(m),
                         "--dual-witness", str(path)]) == cli.EXIT_OK
        back = witnessmod.trig_from_json_obj(json.loads(path.read_text()))
        assert back.grid == m and back.dim == d - 1 and back.terms
    capsys.readouterr()
    for d in (2, 4, 7):
        assert cli.main(["witness", "--d", str(d)]) == cli.EXIT_OK
        back = witnessmod.trig_from_json_obj(json.loads(capsys.readouterr().out))
        assert back.terms == witnessmod.expand_h(d).terms


def test_export_lp(run_cli, tmp_path):
    code, _, err = run_cli("export-lp", "--d", 2, "--m", 2,
                           "--out", tmp_path / "p.lp")
    assert code == 0, err
    text = (tmp_path / "p.lp").read_text()
    assert "Maximize" in text and text.count(">=") == 1  # one nontrivial row


def test_export_lp_of_an_orbit_free_grid_names_no_variable(tmp_path, capsys):
    # (3,4) has no ORT/UB point: the objective and every row are the constant 0
    path = tmp_path / "p.lp"
    assert cli.main(["export-lp", "--d", "3", "--m", "4", "--out", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["orbits"] == 0 and report["constraints"] == 6
    assert "f_" not in path.read_text()
    parsed = lpmod.parse_lp(str(path))
    assert parsed["objective"] == {} and parsed["bounds"] == {}
    assert len(parsed["constraints"]) == 6
    assert all(c == {"coefficients": {}, "rhs": -1.0}
               for c in parsed["constraints"].values())


def test_export_lp_without_out_is_a_usage_error(capsys):
    assert cli.main(["export-lp", "--d", "3", "--m", "3"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: export-lp writes a file: give --out\n"


@pytest.mark.parametrize("budget,code", [(279, cli.EXIT_CHECK_FAILED), (280, cli.EXIT_OK)])
def test_export_lp_counts_its_coefficients_against_the_budget(capsys, tmp_path, budget, code):
    # raw (3,6): 36 grid points, 35 character rows x 8 singleton orbits = 280
    path = tmp_path / "p.lp"
    argv = ["export-lp", "--d", "3", "--m", "6", "--no-orbit-symmetry",
            "--enum-budget", str(budget), "--out", str(path)]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if code == cli.EXIT_OK:
        assert json.loads(out)["constraints"] == 35 and path.exists()
    else:
        assert out == "" and not path.exists()
        assert err == ("error: LP of 35 rows x 8 orbits = 280 coefficients "
                       "exceeds enumeration budget 279\n")


def test_usage_errors(run_cli):
    code, _, err = run_cli("grid", "--d", 3)        # missing --m
    assert code == 2, err
    code, _, err = run_cli("definitely-not-a-command")
    assert code == 2, err


def test_help_paths(run_cli):
    for cmd in ["construct", "verify", "grid", "witness", "bound", "sidon",
                "lp", "pseudo-check", "export-lp"]:
        code, out, err = run_cli(cmd, "--help")
        assert code == 0, err
        assert "usage" in out.lower()


def test_outputs_deterministic_across_runs_and_workers(run_cli, tmp_path, cli_env):
    # (7,16) has 20,160 orbit members and (7,12) 86,590 points, in 2 and 4
    # blocks; the pinned child runs the grid listing on one thread
    baseline = None
    for pin in (False, False, True):
        code, out, err = run_cli("lp", "--d", 7, "--m", 16, pin=pin)
        assert code == 0, err
        if baseline is None:
            baseline = out
        assert out == baseline
    for pin in (True, False):
        code, _, err = run_cli("grid", "--d", 7, "--m", 12, "--out", f"g-{pin}.csv",
                               pin=pin)
        assert code == 0, err
    assert (tmp_path / "g-True.csv").read_bytes() == (tmp_path / "g-False.csv").read_bytes()
    # the pin leaves the child one CPU, and so a pool of one thread
    child = subprocess.run(
        [sys.executable, "-c", "from mublp.config import resolve_workers; "
         "print(resolve_workers())"],
        capture_output=True, text=True, env=cli_env, check=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}),
    )
    assert child.stdout == "1\n"


def test_in_process_calls_share_one_parser_without_leaking_options(
    run_cli, tmp_path, capsys
):
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ("lp", "--d", "3", "--m", "4", "--progress",
         "--dual-witness", str(tmp_path / "dw.json")),
        ("lp", "--d", "3", "--m", "4"),
        ("grid", "--d", "3", "--m", "3"),
    ]
    for argv in calls:
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out, err) == run_cli(*argv), argv
        # only the call that asks for progress lines prints them
        assert ("round=" in err) == ("--progress" in argv), argv
    args = cli.build_parser().parse_args(["lp", "--d", "3", "--m", "4"])
    assert not args.progress and args.dual_witness is None


def test_certificate_error_exits_check_failed(tmp_path, capsys, monkeypatch):
    def refuse(sol, problem):
        raise lpmod.CertificateError("certified bound 1 differs from M=9")

    monkeypatch.setattr(lpmod, "extract_dual_witness", refuse)
    code = cli.main(["lp", "--d", "3", "--m", "3",
                     "--dual-witness", str(tmp_path / "dw.json")])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: certified bound 1 differs from M=9\n"
    assert not (tmp_path / "dw.json").exists()


def test_failed_certificate_exits_check_failed(tmp_path, capsys, monkeypatch):
    # a real refusal: character orbits without the negation give an odd witness
    monkeypatch.setattr(lpmod, "char_orbit",
                        lambda gamma, m, use_shift=False: set(itertools.permutations(gamma)))
    code = cli.main(["lp", "--d", "3", "--m", "3",
                     "--dual-witness", str(tmp_path / "dw.json")])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CHECK_FAILED
    assert out == ""
    assert err == ("error: certificate failed witness validation: "
                   "polynomial is not even\n")
    assert not (tmp_path / "dw.json").exists()


def test_internal_check_failure_exits_check_failed(tmp_path, capsys, monkeypatch):
    classify_rows = torusmod.exact_codes

    def misclassify(digits, d, m):
        # the multiset (1, 1) turns ORT; its negation (2, 2) stays UB
        codes = classify_rows(digits, d, m)
        codes[(digits == 1).all(axis=1)] = CODE_ORT
        return codes

    monkeypatch.setattr(torusmod, "exact_codes", misclassify)
    code = cli.main(["lp", "--d", "3", "--m", "3",
                     "--dual-witness", str(tmp_path / "dw.json")])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CHECK_FAILED
    assert out == ""
    assert err == ("error: internal: orbit (1, 1) mixes classes "
                   "PointClass.UB and PointClass.ORT\n")
    assert not (tmp_path / "dw.json").exists()


def test_rejected_master_basis_exits_internal(tmp_path, capsys, monkeypatch):
    def reject(*args, **kwargs):
        raise ValueError("initial basis is not feasible")

    monkeypatch.setattr(lpmod, "solve_equality_form", reject)
    code = cli.main(["lp", "--d", "3", "--m", "3",
                     "--dual-witness", str(tmp_path / "dw.json")])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: internal: restricted master: initial basis is not feasible\n"
    assert not (tmp_path / "dw.json").exists()


def test_unbounded_master_exits_internal(tmp_path, capsys, monkeypatch):
    real = lpmod.solve_equality_form

    def unbounded(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), status=UNBOUNDED)

    monkeypatch.setattr(lpmod, "solve_equality_form", unbounded)
    code = cli.main(["lp", "--d", "3", "--m", "3",
                     "--dual-witness", str(tmp_path / "dw.json")])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: internal: restricted master ended unbounded\n"
    assert not (tmp_path / "dw.json").exists()


def test_witness_takes_its_samples_as_classified(capsys, monkeypatch):
    # ort_ub_rows already classified every sample; none is classified again
    def refuse(*args, **kwargs):
        raise AssertionError("sample classified twice")

    monkeypatch.setattr(witnessmod, "ort_ub_predicate", refuse)
    monkeypatch.setattr(witnessmod, "classify", refuse)
    assert cli.main(["witness", "--d", "5", "--sample-m", "6"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] and payload["bound"] == "25"
    rows, _ = ort_ub_rows(5, 6)
    assert payload["sample_count"] == len(rows)
    assert abs(payload["max_sample_value"]) < 1e-9


def test_listings_never_build_the_point_cube(tmp_path, capsys, monkeypatch):
    # the grid CSV and JSON, the orbits and the witness samples expand the
    # ORT/UB multisets; the cube oracle is for tests alone
    def refuse(*args, **kwargs):
        raise AssertionError("the m^(d-1) code cube was built")

    monkeypatch.setattr(torusmod, "exact_grid_codes", refuse)
    assert cli.main(["grid", "--d", "6", "--m", "8", "--out", str(tmp_path / "g.csv")]) == 0
    assert cli.main(["grid", "--d", "5", "--m", "6", "--format", "json"]) == 0
    assert cli.main(["witness", "--d", "5", "--sample-m", "6"]) == 0
    for shift, symmetric in [(False, True), (True, True), (False, False)]:
        lpmod.build_orbits(5, 6, use_shift_symmetry=shift, symmetric=symmetric)
    assert cli.main(["lp", "--d", "4", "--m", "6"]) == 0
    assert "error" not in capsys.readouterr().err


def test_witness_checks_never_build_the_sample_cube(tmp_path, capsys, monkeypatch):
    # the certificates and the witness are evaluated at their ORT/UB samples
    def refuse(*args, **kwargs):
        raise AssertionError("the m^(d-1) transform cube was built")

    monkeypatch.setattr(witnessmod, "_transform", refuse)
    monkeypatch.setattr(lpmod, "_transform", refuse)
    for argv in (["lp", "--d", "6", "--m", "16"],
                 ["lp", "--d", "4", "--m", "6", "--no-orbit-symmetry"]):
        path = tmp_path / "w.json"
        assert cli.main([*argv, "--dual-witness", str(path)]) == cli.EXIT_OK
        assert path.exists()
        path.unlink()
    assert cli.main(["witness", "--d", "8", "--sample-m", "10"]) == cli.EXIT_OK
    assert "error" not in capsys.readouterr().err


def test_witness_sample_cube_honours_enum_budget(capsys):
    # the 6^3 sample grid is listed by ort_ub_rows, which refuses it over
    # the flag's budget as an over-budget grid listing is refused
    argv = ["witness", "--d", "4", "--sample-m", "6"]
    assert cli.main([*argv, "--enum-budget", "100"]) == cli.EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: grid of 216 points exceeds enumeration budget 100\n"
    grid = ["grid", "--d", "4", "--m", "6", "--enum-budget", "100"]
    assert cli.main(grid) == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().err == err
    assert cli.main([*argv, "--enum-budget", "1000"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["valid"]


# (case number, argv, exit code); fixed ids, so deleting a case renumbers
# no other.  A round count below 1 stops at the parser, like the settings
# of _RANGE_CASES
_LP_OPTION_CASES = [
    (5, ["--max-rounds", "0"], cli.EXIT_USAGE),
    # the smallest accepted value
    (10, ["--max-rounds", "1"], cli.EXIT_CHECK_FAILED),
]


@pytest.mark.parametrize("argv,code", [
    pytest.param(argv, code, id=f"argv{i}-env{i}-{code}")
    for i, argv, code in _LP_OPTION_CASES
])
def test_out_of_range_lp_options_are_usage_errors(capsys, argv, code):
    if code == cli.EXIT_USAGE:
        # the parser refuses the value before any orbit table is built
        _assert_parser_refuses(capsys, ["lp", "--d", "4", "--m", "6", *argv])
        return
    assert cli.main(["lp", "--d", "4", "--m", "6", *argv]) == code
    assert capsys.readouterr().err == (
        "error: no convergence after 1 constraint-generation rounds\n")


def _assert_parser_refuses(capsys, argv):
    """argparse exits 2 naming the last flag of ``argv`` and its range."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE, err
    assert out == "" and f"argument {argv[-2]}: must be " in err


# (case number, argv, exit code): a tolerance that is not finite and > 0,
# and a budget, sample grid, dimension or grid order below 1 or not an
# integer, stop at the parser (before the named file is opened)
_RANGE_CASES = [
    (0, ["verify", "family.json", "--eps", "-1"], cli.EXIT_USAGE),
    (1, ["bound", "family.json", "--eps", "nan"], cli.EXIT_USAGE),
    (2, ["pseudo-check", "--d", "3", "c.json", "--eps", "inf"], cli.EXIT_USAGE),
    (3, ["verify", "family.json", "--eps", "0"], cli.EXIT_USAGE),
    (4, ["pseudo-check", "--d", "3", "c.json", "--eps", "-1"], cli.EXIT_USAGE),
    (5, ["witness", "--d", "3", "--enum-budget", "-1"], cli.EXIT_USAGE),
    (6, ["grid", "--d", "3", "--m", "3", "--enum-budget", "0"], cli.EXIT_USAGE),
    (7, ["lp", "--d", "3", "--m", "3", "--enum-budget", "-5"], cli.EXIT_USAGE),
    (8, ["sidon", "--d", "3", "--budget", "-1"], cli.EXIT_USAGE),
    (9, ["sidon", "--d", "3", "--budget", "0"], cli.EXIT_USAGE),
    (10, ["witness", "--d", "3", "--sample-m", "0"], cli.EXIT_USAGE),
    (11, ["witness", "--d", "3", "--sample-m", "-2"], cli.EXIT_USAGE),
    (12, ["verify", "family.json", "--eps", "abc"], cli.EXIT_USAGE),
    # the smallest accepted values
    (13, ["witness", "--d", "3", "--sample-m", "1", "--enum-budget", "1"], cli.EXIT_OK),
    (15, ["sidon", "--d", "3", "--budget", "1"], cli.EXIT_CHECK_FAILED),
    # --d and --m, each last so the check reads its name
    (16, ["lp", "--m", "3", "--d", "0"], cli.EXIT_USAGE),
    (17, ["grid", "--d", "3", "--m", "0"], cli.EXIT_USAGE),
    (18, ["lp", "--d", "3", "--m", "-3"], cli.EXIT_USAGE),
    (19, ["construct", "--kind", "prime", "--d", "0"], cli.EXIT_USAGE),
    (20, ["export-lp", "--m", "3", "--d", "x"], cli.EXIT_USAGE),
    # no flag sets the listing's thread count any more
    (21, ["lp", "--d", "3", "--m", "3", "--workers", "1"], cli.EXIT_USAGE),
]


@pytest.mark.parametrize("argv,code", [
    pytest.param(argv, code, id=f"case{i}-{code}") for i, argv, code in _RANGE_CASES
])
def test_out_of_range_settings_are_usage_errors(capsys, argv, code):
    if argv[-2] == "--workers":
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err
        return
    if code == cli.EXIT_USAGE:
        _assert_parser_refuses(capsys, argv)
        return
    got = cli.main(argv)
    out, err = capsys.readouterr()
    assert got == code, err
    if argv[0] == "witness":
        assert json.loads(out)["sample_count"] == 0


# sha256 of the stdout of fixed runs: the witness over its sample grid, the
# witness without a grid flag, and the ORT/UB listing
_PINNED_STDOUT = [
    (["witness", "--d", "4", "--sample-m", "6"],
     "1c2737051b8cc91969baf56bffcbeb3da35b6c9aad63a1d34ff20c2f1588b6bf"),
    (["witness", "--d", "6"],
     "febaadbe7cd45276ce77930c8f40352e9776fde58205595b19ac5034a10fbab4"),
    (["grid", "--d", "5", "--m", "6", "--format", "json"],
     "97467b546a605de43395b78d63b7f85a450ed1af7548f493fe3d12aecca58a82"),
]


@pytest.mark.parametrize("argv,digest", _PINNED_STDOUT,
                         ids=["witness-d4-m6", "witness-d6", "grid-d5-m6-json"])
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_environment_never_changes_a_setting(capsys, monkeypatch):
    argv = ["lp", "--d", "4", "--m", "6"]
    hostile = {"MUBLP_EPS_FEAS": "-1", "MUBLP_LP_MAX_ROUNDS": "0",
               "MUBLP_ENUM_BUDGET": "1", "MUBLP_WORKERS": "1"}
    for name in hostile:
        monkeypatch.delenv(name, raising=False)
    assert cli.main(argv) == cli.EXIT_OK
    unset = capsys.readouterr().out
    for name, value in hostile.items():
        monkeypatch.setenv(name, value)
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == unset
    assert resolve_workers() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("command", ["lp", "export-lp"])
def test_raw_and_shift_symmetry_together_are_usage_errors(capsys, command):
    # the raw LP has singleton orbits, which the shift maps cannot merge
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--d", "3", "--m", "3",
                  "--no-orbit-symmetry", "--shift-symmetry"])
    assert exc.value.code == cli.EXIT_USAGE
    assert ("argument --shift-symmetry: not allowed with argument "
            "--no-orbit-symmetry") in capsys.readouterr().err


_REQUIRED_ARGS = {
    "construct": ["--d", "3", "--kind", "prime"],
    "verify": ["family.json"],
    "grid": ["--d", "3", "--m", "3"],
    "witness": ["--d", "3"],
    "bound": ["family.json"],
    "sidon": ["--d", "3"],
    "lp": ["--d", "3", "--m", "3"],
    "pseudo-check": ["--d", "3", "candidate.json"],
    "export-lp": ["--d", "3", "--m", "3"],
}
# the LP's scan tolerance and row batch are lp constants, not flags, and
# --eps belongs only to the subcommands that judge a file
_UNREAD_FLAGS = [("grid", "--eps"), ("lp", "--eps"), ("export-lp", "--eps"),
                 ("construct", "--eps"), ("witness", "--eps"), ("sidon", "--eps"),
                 ("lp", "--eps-feas"), ("lp", "--add-per-round")] + [
    (command, flag)
    for command in ("construct", "verify", "bound", "sidon", "pseudo-check")
    for flag in ("--enum-budget", "--workers")
]


@pytest.mark.parametrize("command,flag", _UNREAD_FLAGS)
def test_flags_a_subcommand_never_reads_are_usage_errors(capsys, command, flag):
    argv = [command, *_REQUIRED_ARGS[command]]
    cli.build_parser().parse_args(argv)         # valid without the flag
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, "1"])
    assert exc.value.code == cli.EXIT_USAGE
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_grid_flags_still_read_by_lp_and_grid(tmp_path, capsys):
    assert cli.main(["lp", "--d", "3", "--m", "3", "--enum-budget", "18"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["M"] == pytest.approx(9.0)
    out = str(tmp_path / "grid.csv")
    # 9 points, and 6 coordinate multisets x 3 count cells
    assert cli.main(["grid", "--d", "3", "--m", "3", "--enum-budget", "18",
                     "--out", out]) == cli.EXIT_OK
    assert len(open(out).read().splitlines()) == 8
    # a budget below the point count: the flag is read, not ignored
    assert cli.main(["grid", "--d", "3", "--m", "3", "--enum-budget", "8",
                     "--out", out]) == cli.EXIT_CHECK_FAILED
    assert "exceeds enumeration budget 8" in capsys.readouterr().err


def test_simplex_out_of_iterations_exits_check_failed(tmp_path, capsys, monkeypatch):
    # the unbounded master is test_unbounded_master_exits_internal
    real = lpmod.solve_equality_form

    def out_of_iterations(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), status=ITERATION_LIMIT)

    monkeypatch.setattr(lpmod, "solve_equality_form", out_of_iterations)
    code = cli.main(["lp", "--d", "3", "--m", "3",
                     "--dual-witness", str(tmp_path / "dw.json")])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CHECK_FAILED
    assert out == ""
    # round 1 scans before any master and adds the three rows of (3, 3)'s
    # first restricted master
    assert err == ("error: restricted master ran out of simplex iterations "
                   "in round 2 (3 rows)\n")
    assert not (tmp_path / "dw.json").exists()


def test_killed_lp_resumes_from_its_checkpoint(run_cli, cli_env, tmp_path):
    ck = tmp_path / "ck"
    constraints = ck / "constraints.json"
    child = subprocess.Popen(
        [sys.executable, "-m", "mublp", "lp", "--d", "6", "--m", "16",
         "--checkpoint-dir", str(ck)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=cli_env,
        cwd=tmp_path,
    )
    try:
        deadline = time.monotonic() + 120
        while not constraints.exists() and child.poll() is None:
            assert time.monotonic() < deadline, "no checkpoint within 120 s"
            time.sleep(0.002)
        child.send_signal(signal.SIGKILL)
    finally:
        child.wait()
    assert child.returncode == -signal.SIGKILL     # killed mid-run
    # the checkpoint is replaced atomically, so a kill never leaves it torn
    payload = json.loads(constraints.read_text())
    assert payload["d"] == 6 and payload["m"] == 16 and payload["constraints"]
    code, out, err = run_cli("lp", "--d", 6, "--m", 16, "--checkpoint-dir", ck)
    assert code == 0, err
    assert "resumed from checkpoint" in err
    fresh = lpmod.solve_lp(lpmod.LpProblem(lpmod.build_orbits(6, 16)))
    assert abs(json.loads(out)["M"] - fresh.M) < 1e-9


@pytest.mark.parametrize("corrupt", ["shifted_by_m", "row_one_short", "repeated_row"])
def test_lp_rejects_malformed_checkpoint_constraints(tmp_path, capsys, corrupt):
    ck = tmp_path / "ck"
    assert cli.main(["lp", "--d", "4", "--m", "6", "--checkpoint-dir", str(ck)]) == 0
    path = ck / "constraints.json"
    payload = json.loads(path.read_text())
    rows = payload["constraints"]
    if corrupt == "shifted_by_m":
        payload["constraints"] = [[v + 6 for v in g] for g in rows]
    elif corrupt == "row_one_short":
        payload["constraints"] = [rows[0][:-1]] + rows[1:]
    else:
        # one code per generated row: a repeat would misalign the multipliers
        payload["constraints"] = [rows[-1]] + rows
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["lp", "--d", "4", "--m", "6", "--checkpoint-dir", str(ck)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if corrupt == "repeated_row":
        assert err == f"error: checkpoint at {path} repeats constraint {rows[-1]}\n"
    else:
        assert err == (f"error: checkpoint at {path} holds a constraint "
                       "that is not 3 integers in [0, 6)\n")


def test_lp_rejects_a_checkpoint_that_is_not_an_object(tmp_path, capsys):
    ck = tmp_path / "ck"
    ck.mkdir()
    path = ck / "constraints.json"
    path.write_text("[]")
    assert cli.main(["lp", "--d", "3", "--m", "3", "--checkpoint-dir", str(ck)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: checkpoint at {path} is not a JSON object\n"


@pytest.mark.parametrize("argv,target", [
    (["construct", "--d", "3", "--kind", "prime", "--out"], "missing/x.json"),
    (["lp", "--d", "3", "--m", "3", "--dual-witness"], "missing/w.json"),
    (["grid", "--d", "3", "--m", "3", "--out"], "missing/g.csv"),
    (["export-lp", "--d", "3", "--m", "3", "--out"], "missing/p.lp"),
    (["lp", "--d", "3", "--m", "3", "--checkpoint-dir"], "file"),
], ids=["construct", "dual_witness", "grid", "export_lp", "checkpoint_dir_is_a_file"])
def test_unwritable_output_paths_are_usage_errors(tmp_path, capsys, argv, target):
    (tmp_path / "file").write_text("")
    path = str(tmp_path / target)
    assert cli.main(argv + [path]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert repr(path) in err and ".tmp" not in err     # the path as given
    assert os.listdir(tmp_path) == ["file"]


@pytest.mark.parametrize("flag,target", [
    ("--dual-witness", "missing/w.json"),
    ("--out", "missing/x.json"),
    ("--checkpoint-dir", "file"),
], ids=["dual_witness", "out", "checkpoint_dir_is_a_file"])
def test_unwritable_lp_outputs_fail_before_the_solve(tmp_path, capsys, monkeypatch,
                                                     flag, target):
    def refuse(*args, **kwargs):
        raise AssertionError("orbits built before the outputs were opened")

    monkeypatch.setattr(lpmod, "build_orbits", refuse)
    (tmp_path / "file").write_text("")
    path = str(tmp_path / target)
    assert cli.main(["lp", "--d", "3", "--m", "3", flag, path]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(path) in err and ".tmp" not in err
    assert os.listdir(tmp_path) == ["file"]


def test_unwritable_export_lp_output_fails_before_the_orbits(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("orbits built before the output was opened")

    monkeypatch.setattr(lpmod, "build_orbits", refuse)
    path = str(tmp_path / "missing" / "p.lp")
    assert cli.main(["export-lp", "--d", "3", "--m", "3", "--out", path]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(path) in err and ".tmp" not in err
    assert os.listdir(tmp_path) == []


def test_failed_certificate_keeps_the_previous_lp_files(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lpmod, "char_orbit",
                        lambda gamma, m, use_shift=False: set(itertools.permutations(gamma)))
    for name in ("dw.json", "lp.json"):
        (tmp_path / name).write_bytes(b"previous\n")
    code = cli.main(["lp", "--d", "3", "--m", "3", "--dual-witness",
                     str(tmp_path / "dw.json"), "--out", str(tmp_path / "lp.json")])
    assert code == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().err.startswith("error: certificate failed")
    assert sorted(os.listdir(tmp_path)) == ["dw.json", "lp.json"]
    assert all((tmp_path / name).read_bytes() == b"previous\n"
               for name in ("dw.json", "lp.json"))


def test_over_budget_grid_keeps_the_previous_csv(tmp_path, capsys):
    path = tmp_path / "g.csv"
    path.write_bytes(b"previous\n")
    argv = ["grid", "--d", "3", "--m", "4", "--enum-budget", "15", "--out", str(path)]
    assert cli.main(argv) == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().err == (
        "error: grid of 16 points exceeds enumeration budget 15\n")
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["g.csv"]


def test_interrupted_export_keeps_the_previous_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p.lp"
    path.write_bytes(b"previous\n")
    row = lpmod.LpProblem.constraint_row
    written = []

    def interrupted(problem, gamma):
        if written:                     # the second row fails mid-file
            raise KeyboardInterrupt
        written.append(gamma)
        return row(problem, gamma)

    monkeypatch.setattr(lpmod.LpProblem, "constraint_row", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["export-lp", "--d", "3", "--m", "6", "--out", str(path)])
    assert len(written) == 1
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["p.lp"]
