from hypothesis import given
from hypothesis import strategies as st

from gocert import (
    CurveType,
    contradiction_check,
    euler_bound,
    hom_degree,
    is_special,
    tangent_degree,
)


def test_hom_degree_examples():
    assert hom_degree(1, 0) == -2
    assert hom_degree(0, 0) == 0
    assert hom_degree(3, 0) == -6


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_hom_degree_is_determinant_balanced(fil1_deg, det_deg):
    # deg Fil^1 + deg(E/Fil^1) = det_deg, so Hom picks up det_deg - 2 * fil1_deg
    quotient_deg = det_deg - fil1_deg
    assert hom_degree(fil1_deg, det_deg) == quotient_deg - fil1_deg
    assert hom_degree(fil1_deg, 0) + 2 * fil1_deg == 0


def test_tangent_degree_examples():
    assert tangent_degree(CurveType(2, 0)) == -2
    assert tangent_degree(CurveType(1, 0)) == 0
    assert tangent_degree(CurveType(0, 4)) == -2


def test_contradiction_check_examples():
    verdict = contradiction_check(CurveType(2, 0), 1, 0)
    assert (verdict.deg_tangent, verdict.deg_hom) == (-2, -2)
    assert verdict.forced_iso and verdict.conclusion == "contradiction"

    verdict = contradiction_check(CurveType(3, 0), 1, 0)
    assert (verdict.deg_tangent, verdict.deg_hom) == (-4, -2)
    assert verdict.conclusion == "inconclusive"

    # trivial filtration: no nonzero Kodaira-Spencer map available
    verdict = contradiction_check(CurveType(2, 0), 0, 0)
    assert verdict.conclusion == "inconclusive"
    assert not verdict.forced_iso


def test_contradiction_agrees_with_specialness():
    for g in range(11):
        for n in range(11):
            ct = CurveType(g, n)
            verdict = contradiction_check(ct, 1, 0)
            assert (verdict.conclusion == "contradiction") == (euler_bound(ct) == 2)
            assert (verdict.conclusion == "contradiction") == is_special(ct)
