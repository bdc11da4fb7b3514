from fractions import Fraction as Q

import pytest

from superroot.cartan import (
    CartanData,
    RankOneType,
    cartan_from_json,
    cartan_to_json,
    normalize,
    rank_one_type,
    symmetrizer,
    validate,
)
from superroot.catalog import build
from superroot.errors import SuperrootError, ZeroMatrixError
from superroot.linalg import frac


def test_normalize_row_scaling():
    cd = normalize([[4, -2], [-1, 2]], (0, 0))
    assert cd.matrix == ((Q(2), Q(-1)), (Q(-1), Q(2)))


def test_normalize_keeps_zero_diagonal_rows():
    cd = normalize([[0, 1], [-1, 2]], (1, 0))
    assert cd.matrix == ((Q(0), Q(1)), (Q(-1), Q(2)))


def test_normalize_zero_matrix_rejected():
    with pytest.raises(ZeroMatrixError):
        normalize([[0, 0], [0, 0]], (0, 0))


def test_normalize_idempotent():
    cd = normalize([[4, -2], [-1, 2]], (0, 0))
    again = normalize(cd.matrix, cd.parity)
    assert again == cd


def test_validate_sl2_chain():
    report = validate(normalize([[2, -1], [-1, 2]], (0, 0)))
    assert report.admissible and report.regular and report.symmetrizable


def test_validate_odd_row_needs_even_entries():
    # an osp(1,2)-type row must have entries in 2*Z_{<=0}; -1 fails
    report = validate(normalize([[2, -1], [-1, 2]], (1, 0)))
    assert not report.admissible
    assert (2, 0, 1) in report.admissibility_violations


def test_validate_irregular_pair():
    # a_21 = 0 with a_12 != 0 breaks regularity, and, because the diagonal of
    # row 2 is 2, also the third admissibility condition
    report = validate(normalize([[0, 1], [0, 2]], (1, 0)))
    assert not report.regular
    assert (1, 0) in report.irregular_pairs
    assert not report.admissible
    assert (3, 1, 0) in report.admissibility_violations


def test_validate_heisenberg_row_must_vanish():
    report = validate(normalize([[0, 1], [-1, 2]], (0, 0)))
    assert not report.admissible
    assert (1, 0, 1) in report.admissibility_violations


def test_symmetrizer_symmetric_input():
    cd = normalize([[2, -1], [-1, 2]], (0, 0))
    assert symmetrizer(cd) == (Q(1), Q(1))


def test_symmetrizer_propagation():
    cd = normalize([[2, -1], [-2, 2]], (0, 0))
    d = symmetrizer(cd)
    assert d == (Q(1), Q(1, 2))
    for i in range(2):
        for j in range(2):
            assert d[i] * cd.matrix[i][j] == d[j] * cd.matrix[j][i]


def test_symmetrizer_inconsistent_cycle():
    # ratio product around the 3-cycle differs from 1
    cd = CartanData(
        tuple(tuple(Q(x) for x in row) for row in [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]),
        (0, 0, 0),
    )
    assert symmetrizer(cd) is None


def test_symmetrizer_sign_is_not_forced_positive():
    # sl(1|2) forces mixed signs; an all-positive symmetrizer cannot exist
    d = symmetrizer(build("A(0,1)").cartan)
    assert d == (Q(1), Q(-1))


@pytest.mark.parametrize("matrix, parity", [
    (((2.0, -1), (-1, 2)), (0, 0)),
    (((2, Q(-1)), ("-1", 2)), (0, 0)),
    (((2, -1), (-1, True)), (0, 0)),
    (((2, -1), (-1, 2)), (False, 0)),
    (((2, -1), (-1, 2)), (0, 1.0)),
])
def test_cartan_data_refuses_a_float_str_or_bool(matrix, parity):
    # a float entry used to be kept, and validate called it admissible
    with pytest.raises(TypeError):
        CartanData(matrix, parity)


def test_cartan_data_keeps_each_entry_in_the_exact_form():
    cd = CartanData(((Q(2), Q(-3, 2)), (Q(-1), 2)), (0, 0))
    assert cd.matrix == ((2, Q(-3, 2)), (-1, 2))
    assert [type(x) for row in cd.matrix for x in row] == [int, Q, int, int]


def test_rank_one_types():
    cd = CartanData(
        tuple(tuple(Q(x) for x in row) for row in
              [[0, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 1, 1, 0]]),
        (0, 0, 1, 1),
    )
    assert rank_one_type(cd, 0) is RankOneType.HEISENBERG3
    assert rank_one_type(cd, 1) is RankOneType.SL2
    assert rank_one_type(cd, 2) is RankOneType.OSP12
    assert rank_one_type(cd, 3) is RankOneType.SL11
    with pytest.raises(IndexError):
        rank_one_type(cd, 4)


def test_catalog_types_validate():
    for spec in ("A(0,1)", "A(0,2)", "A(1,2)", "B(0,1)", "B(1,1)", "B(2,1)", "B(2,2)",
                 "C(2)", "C(3)", "D(2,1)", "D(2,2)", "D(2,1;1/3)",
                 "A(0,1)^(1)", "B(1,1)^(1)", "B(2,2)^(1)", "A(2,2)^(4)", "A(4,2)^(4)"):
        handle = build(spec)
        report = validate(handle.cartan)
        assert report.admissible and report.regular, spec
        assert report.symmetrizable, spec
        assert report.indecomposable, spec


def test_json_round_trip():
    obj = {"matrix": [[0, 1], ["-1/1", 2]], "parity": [1, 0]}
    cd = cartan_from_json(obj)
    assert cd.matrix == ((Q(0), Q(1)), (Q(-1), Q(2)))
    assert cartan_from_json(cartan_to_json(cd)) == cd


# Cartan JSON that used to be coerced (a float parity read as 0, true and "1"
# read as 1) or to crash (a float entry, a ragged row, a scalar matrix).
MALFORMED_CARTAN_JSON = [
    {"matrix": [[2, -1], [-1, 2]], "parity": [0, 0.7]},
    {"matrix": [[2, True], [-1, 2]], "parity": [0, 0]},
    {"matrix": [[2, -1], [-1, 2]], "parity": [True, 0]},
    {"matrix": [[2, -1], [-1, 2]], "parity": ["1", 0]},
    {"matrix": [[2, 2.5], [-1, 2]], "parity": [0, 0]},
    {"matrix": [[2, -1], [-1]], "parity": [0, 0]},
    {"matrix": 5, "parity": [0, 0]},
    {"matrix": [[2, "1/0"], [-1, 2]], "parity": [0, 0]},
    {"matrix": [[2, "-0.5"], [-1, 2]], "parity": [0, 0]},
    {"matrix": [[2, -1], [-1, 2]], "parity": [0, 2]},
    {"matrix": [[2, -1], [-1, 2]]},
    [[2, -1], [-1, 2]],
]


@pytest.mark.parametrize("obj", MALFORMED_CARTAN_JSON)
def test_cartan_from_json_coerces_nothing(obj):
    with pytest.raises(SuperrootError):
        cartan_from_json(obj)


@pytest.mark.parametrize("matrix, parity", [
    ([[2, -1], [-1, 2]], [0.7, True]),
    ([[2, -1], [-1, 2]], [0, True]),
    ([[2, -1], [-1, 2]], [0, 1.0]),
    ([[2, -1], [-1, 2]], ["1", 0]),
    ([[2, "-0.5"], [-1, 2]], [0, 0]),
    ([[2, "1e0"], [-1, 2]], [0, 0]),
    ([[2, "1/0"], [-1, 2]], [0, 0]),
    ([[2, True], [-1, 2]], [0, 0]),
    ([[2, 2.5], [-1, 2]], [0, 0]),
])
def test_normalize_coerces_nothing(matrix, parity):
    # library callers get the strictness of --matrix-json: no float or bool
    # parity, no decimal entry, and no bare ZeroDivisionError
    with pytest.raises(SuperrootError):
        normalize(matrix, parity)


def test_frac_reads_only_exact_rationals():
    assert [frac(x) for x in (Q(3, 4), -3, "-3", "6/4", "-1/2")] == [Q(3, 4), -3, -3, Q(3, 2), Q(-1, 2)]
    for bad in (True, 0.5, "-0.5", "1e0", "1/0", "1/00", " 1", "+1", "1/-2", None):
        with pytest.raises(SuperrootError):
            frac(bad)
