import pytest

from gocert import (
    CurveType,
    euler_bound,
    finiteness_verdict,
    is_special,
    square_root_count,
)
from gocert.oracle import hodge_degrees

ALL_TYPES = [CurveType(g, n) for g in range(11) for n in range(11)]


def test_euler_bound_examples():
    assert euler_bound(CurveType(2, 0)) == 2
    assert euler_bound(CurveType(0, 4)) == 2
    assert euler_bound(CurveType(3, 0)) == 4


def test_curve_type_validation():
    with pytest.raises(ValueError):
        CurveType(-1, 0)
    with pytest.raises(ValueError):
        CurveType(0, -4)


# hodge_degrees returns (d, forced_iso) pairs; the pinned count of the forced
# case is square_root_count of the twisted canonical degree
def test_classify_genus_two():
    assert hodge_degrees(2, 0) == [(1, True)]
    assert square_root_count(2, euler_bound(CurveType(2, 0))) == 16


def test_classify_four_punctured_sphere():
    assert hodge_degrees(0, 4) == [(1, True)]
    assert square_root_count(0, euler_bound(CurveType(0, 4))) == 1


def test_classify_genus_three():
    assert hodge_degrees(3, 0) == [(1, False), (2, True)]
    assert square_root_count(3, euler_bound(CurveType(3, 0))) == 2**6


def test_classify_enumerates_admissible_degrees():
    # brute force over the inequality 0 < d <= (2g - 2 + n) - d
    for ct in ALL_TYPES:
        expected = [d for d in range(1, euler_bound(ct) + 1) if d <= euler_bound(ct) - d]
        assert [d for d, _ in hodge_degrees(ct.g, ct.n)] == expected
        for d, forced_iso in hodge_degrees(ct.g, ct.n):
            assert forced_iso == (2 * d == euler_bound(ct))


def test_square_root_count_examples():
    assert square_root_count(2, 2) == 16
    assert square_root_count(0, 2) == 1
    for g in range(6):
        for degree in range(-5, 6):
            if degree % 2 != 0:
                assert square_root_count(g, degree) == 0
    with pytest.raises(ValueError):
        square_root_count(-1, 2)


def test_is_special_examples():
    assert is_special(CurveType(2, 0))
    assert is_special(CurveType(0, 4))
    assert not is_special(CurveType(3, 0))


def test_special_types_are_exactly_three():
    special = {(ct.g, ct.n) for ct in ALL_TYPES if is_special(ct)}
    assert special == {(2, 0), (0, 4), (1, 2)}


def test_classification_shape_invariants():
    for ct in ALL_TYPES:
        degrees = hodge_degrees(ct.g, ct.n)
        assert bool(degrees) == (euler_bound(ct) >= 2)
        singleton_iso = len(degrees) == 1 and degrees[0][1]
        assert singleton_iso == (euler_bound(ct) == 2)


def test_finiteness_verdict_examples():
    verdict = finiteness_verdict(CurveType(2, 0))
    assert (verdict.finite, verdict.d, verdict.count) == (True, 1, 16)
    verdict = finiteness_verdict(CurveType(0, 4))
    assert (verdict.finite, verdict.d, verdict.count) == (True, 1, 1)
    verdict = finiteness_verdict(CurveType(4, 0))
    assert (verdict.finite, verdict.d, verdict.count) == (False, None, None)


def test_verdict_finite_iff_special():
    for ct in ALL_TYPES:
        assert finiteness_verdict(ct).finite == is_special(ct)

