import numpy as np
import pytest
from classify_reference import classify_reference

from mublp import hadamard
from mublp.config import DEFAULT_EPS
from mublp.constructions import (
    SidonSet,
    fourier_matrix,
    prime_mubs,
    prime_power_mubs,
    sidon_row_system,
)
from mublp.hadamard import (
    FamilyPointError,
    MubFamily,
    dephase,
    family_from_json_obj,
    family_to_json_obj,
    family_to_points,
    is_hadamard,
    is_unbiased_pair,
    row_quotient_check,
    verify_family,
)
from mublp.serialize import render_json
from mublp.torus import PointClass, TorusPoint, column_to_point, difference

F2 = np.array([[1, 1], [1, -1]], dtype=complex)
H2 = np.array([[1, 1], [1j, -1j]], dtype=complex)


def test_is_hadamard_examples():
    assert is_hadamard(F2).ok
    assert not is_hadamard(np.eye(2)).ok           # entry modulus 0
    w = np.exp(2j * np.pi / 3)
    f3 = np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w]])
    assert is_hadamard(f3).ok


def test_is_hadamard_requires_square():
    with pytest.raises(ValueError):
        is_hadamard(np.ones((2, 3)))


def test_is_hadamard_transpose_conjugate_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        phases = np.exp(2j * np.pi * rng.uniform(size=(4, 4)))
        for mat in (fourier_matrix(4) * 1.0, phases):
            r = is_hadamard(mat).ok
            assert is_hadamard(mat.T).ok == r
            assert is_hadamard(mat.conj()).ok == r


def test_unbiased_pair_examples():
    assert not is_unbiased_pair(F2, F2)
    assert is_unbiased_pair(F2, H2)
    # direct 2x2 product check
    prod = F2.conj().T @ H2 / np.sqrt(2)
    assert np.allclose(np.abs(prod), 1)
    for h in (F2, H2):
        assert not is_unbiased_pair(h, h)
    with pytest.raises(ValueError):
        is_unbiased_pair(F2, fourier_matrix(3))


def test_unbiasedness_is_symmetric():
    assert is_unbiased_pair(F2, H2) == is_unbiased_pair(H2, F2)


def test_dephase_examples():
    assert np.allclose(dephase(np.array([[1.0]])), [[1.0]])
    assert np.allclose(dephase(F2), F2)
    assert np.allclose(dephase(np.array([[1j, 1j], [1j, -1j]])), F2)


def test_dephase_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(20):
        mat = np.exp(2j * np.pi * rng.uniform(size=(5, 5)))
        once = dephase(mat)
        assert np.allclose(dephase(once), once)
        assert np.allclose(once[0, :], 1)
        assert np.allclose(once[:, 0], 1)


def test_family_to_points_examples():
    fam = MubFamily(d=2, hadamards=(F2,), parameters={"root_order": 2})
    assert [p.coords for p in family_to_points(fam)] == [(0,), (1,)]

    w = np.exp(2j * np.pi / 3)
    f3 = np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w]])
    fam = MubFamily(d=3, hadamards=(f3,), parameters={"root_order": 3})
    assert [p.coords for p in family_to_points(fam)] == [(0, 0), (1, 2), (2, 1)]

    fam2 = prime_mubs(2)
    points = family_to_points(fam2)
    assert len(points) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            cls = classify_reference(difference(points[i], points[j]), 2)
            assert cls in (PointClass.ORT, PointClass.UB)


def test_family_to_points_reports_offending_pair():
    bad = np.array([[1, 1], [1, np.exp(0.7j)]])  # columns neither ort nor unbiased
    fam = MubFamily(d=2, hadamards=(bad,))
    with pytest.raises(FamilyPointError) as err:
        family_to_points(fam)
    assert err.value.pair == (0, 1)


def _family_to_points_reference(family, eps=DEFAULT_EPS):
    """family_to_points as one scalar reference classification per pair."""
    d = family.d
    snap = family.parameters.get("root_order")
    points = [column_to_point(h[:, j], snap, eps)
              for h in family.hadamards for j in range(d)]
    if not points or not points[0].is_zero(eps):
        raise FamilyPointError("first column of the first matrix must be all ones",
                               pair=(0, 0))
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            cls = classify_reference(difference(points[i], points[j]), d, eps)
            if cls not in (PointClass.ORT, PointClass.UB):
                raise FamilyPointError(
                    f"difference of columns {i} and {j} classifies {cls.value}",
                    pair=(i, j),
                )
    return points


def _points_or_error(fn, family):
    try:
        return fn(family), None
    except FamilyPointError as exc:
        return None, (exc.pair, str(exc))


def _with_parameters(family, mats=None, **parameters):
    return MubFamily(d=family.d, hadamards=family.hadamards if mats is None else mats,
                     parameters=parameters)


def _nudged(family, rng, phase):
    """Copies with one entry (row >= 1) of one column turned by ``phase``."""
    copies = []
    for _ in range(4):
        mats = [h.copy() for h in family.hadamards]
        a = int(rng.integers(len(mats)))
        row = int(rng.integers(1, family.d))
        col = int(rng.integers(family.d))
        mats[a][row, col] *= np.exp(2j * np.pi * phase)
        copies.append(_with_parameters(family, mats, **family.parameters))
    return copies


def _reference_cases():
    rng = np.random.default_rng(7)
    w = np.exp(2j * np.pi / 3)
    f3 = np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w]])
    families = [prime_power_mubs(p, k) for p, k in
                ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
    cases = []
    for fam in families:
        m = fam.parameters["root_order"]
        cases.append(fam)
        cases.append(_with_parameters(fam))        # no root order: float points
        cases += _nudged(fam, rng, 1 / m)           # still on the grid: exact
        cases += _nudged(fam, rng, 0.0123)          # unsnapped float column
        cases += _nudged(_with_parameters(fam), rng, 1 / m)
    cases += [
        MubFamily(d=2, hadamards=(F2, H2), parameters={"root_order": 2}),  # mixed
        _with_parameters(prime_power_mubs(2, 2), root_order=2),             # mixed
        MubFamily(d=3, hadamards=(f3, f3), parameters={"root_order": 3}),   # zero
        MubFamily(d=3, hadamards=(f3, f3)),                                 # zero
        MubFamily(d=2, hadamards=(np.array([[1, 1], [1, np.exp(0.7j)]]),)),
        # float columns at -1/2 and 1/2 - 5e-13: their difference wraps to zero
        MubFamily(d=2, hadamards=(
            F2, np.array([[1, 1], [np.exp(1j * np.pi * (1 - 1e-12)), 1j]]))),
    ]
    return cases


@pytest.mark.parametrize("block", [hadamard._PAIR_BLOCK, 7, 64])
def test_family_to_points_matches_scalar_reference(block, monkeypatch):
    monkeypatch.setattr(hadamard, "_PAIR_BLOCK", block)
    outcomes = set()
    for fam in _reference_cases():
        points, error = _points_or_error(_family_to_points_reference, fam)
        assert _points_or_error(family_to_points, fam) == (points, error)
        if error:
            outcomes.add(error[1].split()[-1])
        else:
            outcomes.add(("ok", frozenset(p.is_exact for p in points)))
    # passing exact, float and mixed point sets, and every failure message
    assert outcomes == {("ok", frozenset({True})), ("ok", frozenset({False})),
                        ("ok", frozenset({True, False})),
                        "forbidden", "zero", "ones"}


def test_pair_blocks_follow_triu_order(monkeypatch):
    monkeypatch.setattr(hadamard, "_PAIR_BLOCK", 5)
    for count in (0, 1, 2, 3, 6, 11):
        blocks = list(hadamard._pair_blocks(count))
        assert all(i.size == 5 for i, _ in blocks[:-1])
        i = np.concatenate([b[0] for b in blocks]) if blocks else np.empty(0)
        j = np.concatenate([b[1] for b in blocks]) if blocks else np.empty(0)
        ti, tj = np.triu_indices(count, 1)
        assert np.array_equal(i, ti) and np.array_equal(j, tj)


def test_row_quotient_check_complete_d2_family():
    # equality case at d = 2: the 4 columns of the two Hadamards as a 2x4 system
    b = np.hstack([F2, H2])
    report = row_quotient_check(b)
    assert report.ok and report.max_violation < 1e-9


def test_row_quotient_check_sidon_rows_pass():
    rows = sidon_row_system(SidonSet(36, (0, 1, 3, 8, 23, 27)))
    report = row_quotient_check(rows)
    assert report.ok and report.max_violation < 1e-9


def test_row_quotient_check_repeated_columns_fail():
    col = np.exp(2j * np.pi * np.array([0.0, 0.3]))
    b = np.tile(col.reshape(2, 1), (1, 4))
    report = row_quotient_check(b)
    assert not report.ok


def test_row_quotient_check_shape_and_modulus_errors():
    with pytest.raises(ValueError):
        row_quotient_check(np.ones((2, 3)))
    bad = np.ones((2, 4), dtype=complex)
    bad[0, 0] = 0.0
    with pytest.raises(ValueError):
        row_quotient_check(bad)


def test_verify_family_catches_bad_pairs():
    fam = MubFamily(d=2, hadamards=(F2, F2))
    check = verify_family(fam)
    assert not check.ok
    assert any("unbiased" in f for f in check.failures)


def test_family_json_roundtrip():
    import json

    fam = prime_mubs(3)
    back = family_from_json_obj(json.loads(render_json(family_to_json_obj(fam))))
    assert back.d == 3
    assert back.construction == "prime"
    assert back.parameters["root_order"] == 3
    for a, b in zip(fam.hadamards, back.hadamards):
        assert np.array_equal(a, b)


def test_matrix_json_roundtrip_bit_exact():
    import json

    # random phases need every one of the 17 significant digits
    rng = np.random.default_rng(17)
    mat = np.exp(2j * np.pi * rng.uniform(size=(5, 5)))
    text = render_json(family_to_json_obj(MubFamily(d=5, hadamards=(mat,))))
    (back,) = family_from_json_obj(json.loads(text)).hadamards
    assert back.shape == mat.shape
    assert np.array_equal(back, mat)  # bit-exact
