import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gocert import (
    CurveType,
    build_certificate,
    degree_bound,
    make_ramification,
    max_degree_sum,
    split_places,
)
from gocert.oracle import all_ramifications, relaxed_profile_max, scan_constraints
from helpers import enumerated_profile_max

# (p, max_f) grids: full profile enumeration is affordable only on the small one
ENUM_GRID = ((2, 4), (3, 3), (5, 3))
FIXPOINT_GRID = ((2, 5), (3, 5), (5, 5))


# scan_constraints returns (source, target, exponent) triples
def test_constraints_self_loop():
    assert scan_constraints(1, frozenset()) == [(0, 0, 1)]


def test_constraints_unramified_cycle():
    assert scan_constraints(3, frozenset()) == [(0, 2, 1), (1, 0, 1), (2, 1, 1)]


def test_constraints_skip_ramified_places():
    assert scan_constraints(4, frozenset({1, 2})) == [(0, 3, 1), (3, 0, 3)]


def test_constraint_graph_is_one_cycle_and_exponents_tile():
    for rd in all_ramifications(6, 2, min_dim=1):
        cs = scan_constraints(rd.f, rd.s_inf)
        splits = split_places(rd)
        assert [src for src, _, _ in cs] == splits
        assert sorted(tgt for _, tgt, _ in cs) == splits
        assert sum(exp for _, _, exp in cs) == rd.f
        step = {src: tgt for src, tgt, _ in cs}
        seen, x = set(), splits[0]
        while x not in seen:
            seen.add(x)
            x = step[x]
        assert seen == set(splits)


def test_max_degree_sum_single_place():
    for p in (2, 3, 5):
        assert max_degree_sum(make_ramification(1, p), 0) == 1


def test_max_degree_sum_unramified_cubic():
    assert max_degree_sum(make_ramification(3, 2), 0) == 7


def test_max_degree_sum_with_ramified_gap():
    # anchored at 0, the other split place 3 sits behind a three-step gap,
    # so its degree is capped by p^3; the enumeration oracle is the arbiter
    rd = make_ramification(4, 2, {1, 2})
    assert enumerated_profile_max(rd, 0) == 9
    assert max_degree_sum(rd, 0) == 9
    assert max_degree_sum(rd, 3) == 3


def test_max_degree_sum_rejects_non_split_anchor():
    with pytest.raises(ValueError):
        max_degree_sum(make_ramification(4, 2, {1, 2}), 1)


def test_degree_bound_examples():
    assert degree_bound(make_ramification(1, 5)) == 1
    assert degree_bound(make_ramification(3, 2)) == 7
    assert degree_bound(make_ramification(2, 3)) == 4
    for anchor in (0, 1, 2):
        assert max_degree_sum(make_ramification(3, 2), anchor) == 7


def test_degree_bound_requires_split_places():
    with pytest.raises(ValueError):
        degree_bound(make_ramification(2, 2, {0, 1}))


def test_degree_bound_geometric_series_when_unramified():
    for p in (2, 3, 5):
        for f in range(1, 7):
            assert degree_bound(make_ramification(f, p)) == sum(p**k for k in range(f))


def test_polarization_bound_is_twice_the_omega_bound():
    for rd in all_ramifications(5, 3, min_dim=1):
        root = build_certificate(rd, CurveType(2, 0)).nodes[0]
        assert root.degree_bound == degree_bound(rd)
        assert root.polarization_bound == 2 * degree_bound(rd)


def test_bound_matches_enumerated_brute_force():
    for p, max_f in ENUM_GRID:
        for rd in all_ramifications(max_f, p, min_dim=1):
            per_anchor = {a: enumerated_profile_max(rd, a) for a in split_places(rd)}
            for anchor, expected in per_anchor.items():
                assert max_degree_sum(rd, anchor) == expected
            assert degree_bound(rd) == max(per_anchor.values())


def test_fixpoint_oracle_agrees_with_enumeration():
    for p, max_f in ENUM_GRID:
        for rd in all_ramifications(max_f, p, min_dim=1):
            for anchor in split_places(rd):
                assert relaxed_profile_max(rd, anchor) == enumerated_profile_max(rd, anchor)


def test_bound_matches_fixpoint_oracle_on_larger_grid():
    for p, max_f in FIXPOINT_GRID:
        for rd in all_ramifications(max_f, p, min_dim=1):
            assert degree_bound(rd) == max(
                relaxed_profile_max(rd, a) for a in split_places(rd)
            )


def test_degree_bound_monotone_in_p():
    for lo, hi in ((2, 3), (3, 5)):
        for rd in all_ramifications(5, lo, min_dim=1):
            other = make_ramification(rd.f, hi, rd.s_inf, rd.s_fin_count)
            assert degree_bound(rd) <= degree_bound(other)


@settings(max_examples=200)
@given(
    f=st.integers(1, 5),
    p=st.sampled_from([2, 3, 5]),
    data=st.data(),
)
def test_random_feasible_profiles_stay_under_the_maximum(f, p, data):
    mask = data.draw(st.integers(0, 2**f - 2), label="s_inf mask")
    s_inf = frozenset(i for i in range(f) if mask >> i & 1)
    rd = make_ramification(f, p, s_inf, len(s_inf) % 2)
    splits = split_places(rd)
    anchor = data.draw(st.sampled_from(splits), label="anchor")
    values = data.draw(
        st.lists(st.integers(1, p**f), min_size=len(splits), max_size=len(splits)),
        label="degrees",
    )
    degrees = dict(zip(splits, values))
    degrees[anchor] = 1
    if all(degrees[src] <= p**exp * degrees[tgt] for src, tgt, exp in scan_constraints(f, s_inf)):
        assert sum(degrees.values()) <= max_degree_sum(rd, anchor)
