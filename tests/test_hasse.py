import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gocert import (
    CurveType,
    build_certificate,
    certificate,
    certificate_to_doc,
    degree_bound,
    make_ramification,
    split_places,
    strata_children,
)
from gocert.hasse import anchored_bound
from gocert.oracle import all_ramifications, relaxed_profile_exponents, relaxed_profile_maxima, scan_constraints
from helpers import enumerated_profile_max, max_degree_sums

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
        assert max_degree_sums(make_ramification(1, p)) == {0: 1}


def test_max_degree_sum_unramified_cubic():
    assert max_degree_sums(make_ramification(3, 2)) == {0: 7, 1: 7, 2: 7}


def test_max_degree_sum_with_ramified_gap():
    # anchored at 0, the other split place 3 sits behind a three-step gap,
    # so its degree is capped by p^3; the enumeration oracle is the arbiter
    rd = make_ramification(4, 2, {1, 2})
    assert enumerated_profile_max(rd, 0) == 9
    assert max_degree_sums(rd) == {0: 9, 3: 3}


def test_fixpoint_exponents_with_ramified_gap():
    # the profiles behind test_max_degree_sum_with_ramified_gap, exponents in the order of the
    # split places 0 and 3: anchored at 0, place 3 stops at the gap's p^3; anchored at 3, place 0 at p^1
    assert relaxed_profile_exponents(4, frozenset({1, 2})) == {0: (0, 3), 3: (1, 0)}
    assert relaxed_profile_exponents(3, frozenset()) == {0: (0, 1, 2), 1: (2, 0, 1), 2: (1, 2, 0)}


def test_max_degree_sum_rejects_non_split_anchor():
    # the ramified places 1 and 2 are never anchors, and with no split place there is none
    assert list(max_degree_sums(make_ramification(4, 2, {1, 2}))) == [0, 3]
    with pytest.raises(ValueError):
        max_degree_sums(make_ramification(2, 2, {0, 1}))


def test_degree_bound_examples():
    assert degree_bound(make_ramification(1, 5)) == 1
    assert degree_bound(make_ramification(3, 2)) == 7
    assert degree_bound(make_ramification(2, 3)) == 4


def test_degree_bound_requires_split_places():
    with pytest.raises(ValueError):
        degree_bound(make_ramification(2, 2, {0, 1}))


def test_degree_bound_geometric_series_when_unramified():
    for p in (2, 3, 5):
        for f in range(1, 7):
            assert degree_bound(make_ramification(f, p)) == sum(p**k for k in range(f))


def test_the_full_cycle_at_p_2_is_q_itself():
    # with every place split each anchor gives (p^f - 1)/(p - 1), which at p = 2 is q = p^f - 1 itself, so the
    # bound is that sum and not its remainder mod q, 0; the case split's table gives it too, up to dimension 9
    for f in range(1, 13):
        rd = make_ramification(f, 2)
        assert degree_bound(rd) == anchored_bound(f, 2, list(range(f)))(range(f)) == 2**f - 1, f
        if f < len(certificate._TREE_SIZES):
            assert certificate._case_split(rd)[rd].degree_bound == 2**f - 1, f


@pytest.mark.parametrize("p", [2, 3, 1_000_000_007, 2**61 - 1])
def test_every_case_split_bound_is_the_largest_anchored_sum(p):
    # each entry of every case split with f <= 9, whose bound comes from its root's power table, against
    # the anchored sums from their definition: 8 326 entries over the 1 013 split sets
    want = {(rd.f, rd.s_inf): max(max_degree_sums(rd).values()) for rd in all_ramifications(9, p, min_dim=1)}
    entries = 0
    for rd in all_ramifications(9, p):
        for datum, entry in certificate._case_split(rd).items():
            assert entry.degree_bound == want.get((datum.f, datum.s_inf)), (rd, datum)
            entries += entry.degree_bound is not None
    assert (len(want), entries) == (1013, 8326)


def test_the_root_degree_bound_is_the_omega_bound():
    # the polarization bound is twice it, derived and not stored
    for rd in all_ramifications(5, 3, min_dim=1):
        root = certificate_to_doc(build_certificate(rd, CurveType(2, 0)))["nodes"][0]
        assert root["degree_bound"] == degree_bound(rd)


def test_bound_matches_enumerated_brute_force():
    for p, max_f in ENUM_GRID:
        for rd in all_ramifications(max_f, p, min_dim=1):
            per_anchor = {a: enumerated_profile_max(rd, a) for a in split_places(rd)}
            assert max_degree_sums(rd) == per_anchor
            assert degree_bound(rd) == max(per_anchor.values())


def test_fixpoint_oracle_agrees_with_enumeration():
    for p, max_f in ENUM_GRID:
        for rd in all_ramifications(max_f, p, min_dim=1):
            maxima = relaxed_profile_maxima(rd)
            assert list(maxima) == split_places(rd)
            for anchor in split_places(rd):
                assert maxima[anchor] == enumerated_profile_max(rd, anchor)


def test_bound_matches_fixpoint_oracle_on_larger_grid():
    for p, max_f in FIXPOINT_GRID:
        for rd in all_ramifications(max_f, p, min_dim=1):
            assert degree_bound(rd) == max(relaxed_profile_maxima(rd).values())


def test_one_pass_bound_is_the_largest_anchored_sum():
    # every datum with f <= 9 at five primes: 5 065 data, every anchor's sum against the fixpoint's
    checked = 0
    for p in (2, 3, 5, 1_000_000_007, 2**61 - 1):
        for rd in all_ramifications(9, p, min_dim=1):
            checked += 1
            sums = max_degree_sums(rd)
            assert sums == relaxed_profile_maxima(rd), rd
            assert degree_bound(rd) == max(sums.values()), rd
    assert checked == 5065


def _best_anchors(rd):
    sums = max_degree_sums(rd)
    top = max(sums.values())
    return {anchor for anchor, total in sums.items() if total == top}


def test_the_best_anchors_do_not_depend_on_p():
    # every datum with f <= 10: 2 036 data, 71 of them with tied best anchors
    checked = tied = 0
    for rd in all_ramifications(10, 2, min_dim=1):
        checked += 1
        best = _best_anchors(rd)
        for p in (3, 5, 7, 101):
            assert _best_anchors(rd._replace(p=p)) == best, (rd, p)
        tied += len(best) > 1
    assert (checked, tied) == (2036, 71)


def _rotated(places, f):
    return frozenset((x + 1) % f for x in places)


def test_rotating_the_places_by_one_step_rotates_the_bound_and_the_strata():
    # Frobenius acts on the places by a rotation, so nothing may depend on where place 0 sits
    checked = 0
    for p in (2, 3):
        for rd in all_ramifications(8, p, min_dim=1):
            f = rd.f
            turned = rd._replace(s_inf=_rotated(rd.s_inf, f))
            assert degree_bound(turned) == degree_bound(rd), rd
            assert max_degree_sums(turned) == {(a + 1) % f: total for a, total in max_degree_sums(rd).items()}, rd
            if f <= 6:
                children = {_rotated(t, f): child._replace(s_inf=_rotated(child.s_inf, f)) for t, child in strata_children(rd)}
                assert dict(strata_children(turned)) == children, rd
            checked += 1
    assert checked == 1004


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
        assert sum(degrees.values()) <= max_degree_sums(rd)[anchor]
