import time
from types import SimpleNamespace

import pytest

from gocert import (
    RamificationData,
    Stratum,
    decompose_chains,
    induced_ramification,
    make_ramification,
    shimura_dimension,
    split_places,
    strata_children,
)
from gocert.oracle import all_ramifications, all_vanishing_sets, cycle_components, replay_augmented_set
from gocert.strata import model_child_masks


def _stratum(f, s_inf, t, p=2):
    rd = make_ramification(f, p, s_inf, len(s_inf) % 2)
    return Stratum(rd=rd, t=frozenset(t))


def test_decompose_single_place():
    assert decompose_chains(_stratum(4, set(), {0})) == ((0,),)


def test_decompose_empty_occupied_set():
    assert decompose_chains(_stratum(3, set(), set())) == ()


def test_decompose_two_chains():
    chains = decompose_chains(_stratum(5, {1, 2}, {4}))
    assert chains == ((2, 1), (4,))


def test_decompose_wraps_around_zero():
    assert decompose_chains(_stratum(4, set(), {0, 3})) == ((0, 3),)


def test_stratum_rejects_improper_t():
    rd = make_ramification(4, 2, {1, 2})
    with pytest.raises(ValueError, match=r"^place 1 of T is ramified, so not a split place$"):
        Stratum(rd=rd, t=frozenset({1}))  # meets s_inf
    with pytest.raises(ValueError):
        Stratum(rd=rd, t=frozenset({0, 3}))  # the whole split set
    with pytest.raises(ValueError):
        Stratum(rd=make_ramification(2, 2, {0, 1}), t=frozenset())  # no split places at all
    with pytest.raises(ValueError, match=r"^place 7 of T is not one of the places 0\.\.3, so not a split place$"):
        Stratum(rd=rd, t=frozenset({7}))  # a place out of range
    with pytest.raises(ValueError, match=r"^place -1 of T is not one of the places 0\.\.3, so not a split place$"):
        Stratum(rd=rd, t=frozenset({-1}))  # a negative place


def test_stratum_rejects_a_place_that_is_not_an_integer():
    # True == 1 and 1.0 == 1 pass the range check, so a bool once entered s_inf and a float failed later
    rd = make_ramification(4, 2)
    for place, shown in ((True, "True"), (1.0, r"1\.0"), ("1", "'1'")):
        with pytest.raises(ValueError, match=f"^T {{{shown}}} must consist of integer places$"):
            Stratum(rd, [place])


def test_decompose_rejects_full_cycle():
    # unreachable through the Stratum constructor; the guard still holds
    rd = make_ramification(4, 2, {1, 2})
    fake = SimpleNamespace(rd=rd, t=frozenset({0, 3}))
    with pytest.raises(ValueError):
        decompose_chains(fake)


def test_induced_ramification_identity_on_empty_t():
    rd = make_ramification(4, 3, {1, 2})
    assert induced_ramification(Stratum(rd=rd, t=frozenset())) == rd


def test_induced_ramification_examples():
    assert induced_ramification(_stratum(5, {1, 2}, {4})).s_inf == frozenset({1, 2, 3, 4})
    assert induced_ramification(_stratum(4, set(), {0, 2})).s_inf == frozenset({0, 1, 2, 3})


def _odd_chains(st):
    return sum(1 for c in decompose_chains(st) if len(st.t.intersection(c)) % 2 == 1)


def test_odd_chain_count_examples():
    # the (P^1)^N fiber count N, and the dimension it takes off the descent
    examples = ((_stratum(4, {1, 2}, set()), 0), (_stratum(5, {1, 2}, {4}), 1), (_stratum(4, set(), {0, 3}), 0))
    for st, n in examples:
        assert _odd_chains(st) == n
        assert shimura_dimension(st.rd) - len(st.t) - shimura_dimension(induced_ramification(st)) == n


def test_strata_children_examples():
    assert strata_children(make_ramification(1, 2)) == []
    children = strata_children(make_ramification(2, 2))
    assert [sorted(t) for t, _ in children] == [[0], [1]]
    assert all(len(child.s_inf) == 2 for _, child in children)
    children = strata_children(make_ramification(4, 2, {1, 2}))
    assert [sorted(t) for t, _ in children] == [[0], [3]]


def test_strata_children_requires_positive_dimension():
    with pytest.raises(ValueError):
        strata_children(make_ramification(2, 2, {0, 1}))


def test_model_child_masks_examples():
    assert model_child_masks(1) == []
    assert model_child_masks(2) == [3, 3]
    # T = {0, 2} at m = 3 is one run that wraps past place 0, of even length
    assert model_child_masks(3) == [5, 3, 3, 6, 5, 6]
    with pytest.raises(ValueError, match="^strata enumeration needs at least one split place$"):
        model_child_masks(0)


def test_model_child_masks_equal_the_kernel_children_masks():
    # the case split's listing against the datum-level kernel on the model datum (f = m, s_inf = {})
    for p in (2, 3):
        for m in range(1, 13):
            children = strata_children(make_ramification(m, p))
            assert model_child_masks(m) == [sum(1 << x for x in child.s_inf) for _, child in children], (m, p)


def test_chains_match_cycle_components():
    for rd in all_ramifications(6, 2):
        for t in all_vanishing_sets(rd):
            st = Stratum(rd=rd, t=t)
            chains = decompose_chains(st)
            assert [c[0] for c in chains] == sorted(c[0] for c in chains)
            got = {frozenset(c) for c in chains}
            want = set(cycle_components(rd.f, rd.s_inf | t))
            assert got == want


def test_induced_matches_definition_replay():
    for rd in all_ramifications(6, 2):
        for t in all_vanishing_sets(rd):
            induced = induced_ramification(Stratum(rd=rd, t=t))
            t_aug = replay_augmented_set(rd.f, rd.s_inf, t)
            assert induced.s_inf == rd.s_inf | t_aug
            assert induced.p == rd.p and induced.s_fin_count == rd.s_fin_count
            # growth: T is kept, the extension is even and disjoint from s_inf | T
            assert t <= t_aug
            assert len(t_aug) % 2 == 0
            assert not (t_aug - t) & (rd.s_inf | t)


def test_descent_is_strict_and_counts_odd_chains():
    for rd in all_ramifications(6, 2):
        parent = shimura_dimension(rd)
        for t in all_vanishing_sets(rd):
            st = Stratum(rd=rd, t=t)
            child = shimura_dimension(induced_ramification(st))
            assert child == parent - len(t) - _odd_chains(st)
            if t:
                assert child < parent


def test_stratum_checks_its_places_in_time_independent_of_f():
    # the range check runs per place of T: a set of all f places took 1.7 s at f = 10**7, growing with f
    start = time.perf_counter()
    rd = make_ramification(10**12, 2, {5, 9})
    assert Stratum(rd, {0, 6, 10**12 - 1}).t == frozenset({0, 6, 10**12 - 1})
    assert time.perf_counter() - start < 0.1


def test_stratum_names_only_the_offending_place():
    # the message once listed every split place: 7.9 MB for this T
    with pytest.raises(ValueError) as refused:
        Stratum(make_ramification(10**6, 2), {10**6})
    assert str(refused.value) == "place 1000000 of T is not one of the places 0..999999, so not a split place"
    rd = make_ramification(10**6, 2, {3, 10**6 - 1})
    with pytest.raises(ValueError, match=r"^place 3 of T is ramified, so not a split place$"):
        Stratum(rd, {0, 3, 10**6 - 1, 10**6})  # the least offending place is named


def test_every_vanishing_set_passes_the_checked_constructor():
    # strata_children builds each proper subset T of the split places by tuple.__new__, skipping these checks
    for rd in all_ramifications(8, 2):
        for t in all_vanishing_sets(rd):
            assert Stratum(rd, t) == tuple.__new__(Stratum, (rd, t)), (rd, t)


def test_children_enumerate_all_proper_nonempty_subsets():
    for rd in all_ramifications(5, 2, min_dim=1):
        children = strata_children(rd)
        splits = split_places(rd)
        assert len(children) == 2 ** len(splits) - 2
        seen = [t for t, _ in children]
        assert len(set(seen)) == len(seen)
        for t, child in children:
            assert child == induced_ramification(Stratum(rd=rd, t=t))


def test_kernel_matches_the_oracle_for_every_datum_up_to_f9():
    # the bit-scan chains and the doubled subset list against the set-based oracle
    for rd in all_ramifications(9, 2):
        f, s_inf = rd.f, rd.s_inf
        for t in all_vanishing_sets(rd):
            chains = decompose_chains(Stratum(rd=rd, t=t))
            heads = [c[0] for c in chains]
            assert heads == sorted(heads)
            assert all((a - 1) % f == b for c in chains for a, b in zip(c, c[1:]))
            assert {frozenset(c) for c in chains} == set(cycle_components(f, s_inf | t))
        if shimura_dimension(rd) == 0:
            continue
        splits = split_places(rd)
        m = len(splits)
        in_mask_order = [
            frozenset(splits[j] for j in range(m) if mask >> j & 1) for mask in range(1, (1 << m) - 1)
        ]
        children = strata_children(rd)
        assert [t for t, _ in children] == in_mask_order
        for t, child in children:
            assert child == rd._replace(s_inf=s_inf | replay_augmented_set(f, s_inf, t))


def test_induced_ramification_uses_the_chains_it_is_given():
    for rd in all_ramifications(8, 2):
        for t in all_vanishing_sets(rd):
            st = Stratum(rd=rd, t=t)
            assert induced_ramification(st, chains=decompose_chains(st)) == induced_ramification(st)
    # the chains are used as given, not decomposed again: T meets the two
    # chains (0,) and (2,) merged into one twice, so no place is added
    st = _stratum(4, set(), {0, 2})
    assert induced_ramification(st, chains=((2, 0),)).s_inf == frozenset({0, 2})


def test_strata_children_equals_the_checked_stratum_construction():
    # strata_children skips Stratum's checks; the checking constructor accepts each of its T and induces the same datum
    for rd in all_ramifications(8, 3, min_dim=1):
        children = strata_children(rd)
        assert children == [(t, induced_ramification(Stratum(rd, t))) for t, _ in children], rd


def _first_oracle_mismatch(decompose=decompose_chains, induce=induced_ramification, check_chains=True):
    """The first stratum (rd, T), f <= 6 at p = 2, whose chains or induced datum the oracle contradicts, or None.

    The chains must be disjoint, maximal and covering, and one per oracle
    component of s_inf | T; the induced datum must be rd with s_inf | T plus
    the oracle's augmented set.  decompose and induce stand for the kernel's
    decompose_chains and induced_ramification, so a mutant can be handed in.
    """
    for rd in all_ramifications(6, 2):
        f, s_inf = rd.f, rd.s_inf
        for t in all_vanishing_sets(rd):
            st = Stratum(rd, t)
            chains = decompose(st)
            occupied = s_inf | t
            problem = _chain_problem(f, occupied, chains) if check_chains else None
            if problem is None:
                induced = induce(st, chains=chains)
                want = rd._replace(s_inf=s_inf | replay_augmented_set(f, s_inf, t))
                if induced != want:
                    got = f"({induced.f}, {sorted(induced.s_inf)}, {induced.s_fin_count}, {induced.p})"
                    problem = f"induced {got}, expected ({f}, {sorted(want.s_inf)}, {rd.s_fin_count}, {rd.p})"
            if problem:
                return f"{problem}: f={f} s_inf={sorted(s_inf)} t={sorted(t)}"
    return None


def _chain_problem(f, occupied, chains):
    covered = set()
    for c in chains:
        if not covered.isdisjoint(c):
            return "overlap"
        covered.update(c)
        if (c[0] + 1) % f in occupied or (c[-1] - 1) % f in occupied:
            return "not maximal"
    if covered != occupied:
        return "not covering"
    if {frozenset(c) for c in chains} != set(cycle_components(f, occupied)):
        return "component mismatch"
    return None


def test_the_kernel_passes_the_oracle_check():
    assert _first_oracle_mismatch() is None


def merge_all_chains(st):
    # one chain holding every occupied place: disjoint, covering, and free at both ends,
    # so only the comparisons with the oracle's components can tell
    chains = decompose_chains(st)
    return (sum(chains, ()),) if chains else ()


def test_the_oracle_check_catches_an_augmented_set_that_drops_s_inf():
    def swapped(st, chains=None):
        # ramifies two free places in place of two ramified ones: parity, size, T and the
        # dimension all hold, but the augmented set is not the oracle's
        induced = induced_ramification(st, chains=chains)
        free = [x for x in range(st.rd.f) if x not in induced.s_inf]
        if len(st.rd.s_inf) < 2 or len(free) < 2:
            return induced
        kept = induced.s_inf - frozenset(sorted(st.rd.s_inf)[:2])
        return induced._replace(s_inf=kept | frozenset(free[:2]))

    expected = "induced (4, [2, 3], 0, 2), expected (4, [0, 1], 0, 2): f=4 s_inf=[0, 1] t=[]"
    assert _first_oracle_mismatch(induce=swapped) == expected


def after_the_head(st, chains=None):
    # adds the place after each odd chain's head, not the one before its tail: every
    # subtree size and the parity, growth and dimension of every induced datum hold
    rd, t = st.rd, st.t
    added = set(t)
    for chain in decompose_chains(st) if chains is None else chains:
        if len(t.intersection(chain)) % 2:
            added.add((chain[0] + 1) % rd.f)
    return RamificationData(rd.f, rd.s_inf | added, rd.s_fin_count, rd.p)


def test_the_oracle_check_catches_the_place_after_an_odd_chains_head():
    expected = "induced (3, [0, 1], 0, 2), expected (3, [0, 2], 0, 2): f=3 s_inf=[] t=[0]"
    assert _first_oracle_mismatch(induce=after_the_head) == expected


def test_the_oracle_check_catches_merged_chains():
    assert _first_oracle_mismatch(decompose=merge_all_chains) == "component mismatch: f=4 s_inf=[] t=[0, 2]"


def test_the_augmented_set_catches_merged_chains_that_pass_the_chain_check():
    assert _first_oracle_mismatch(decompose=merge_all_chains, check_chains=False) == (
        "induced (4, [0, 2], 0, 2), expected (4, [0, 1, 2, 3], 0, 2): f=4 s_inf=[] t=[0, 2]"
    )


def test_the_oracle_check_catches_each_way_of_splitting_an_occupied_set():
    def merged_when_both(st):
        # merges the chains only when both s_inf and T are occupied, so at f = 4 the
        # occupied set {0, 2} is split right for s_inf = {} and wrongly for s_inf = {0}
        chains = decompose_chains(st)
        return (sum(chains, ()),) if st.rd.s_inf and st.t else chains

    assert _first_oracle_mismatch(decompose=merged_when_both) == "component mismatch: f=4 s_inf=[0] t=[2]"


# one decompose_chains mutant per structural check of the chains, with its first counterexample
@pytest.mark.parametrize(
    "mutant, counterexample",
    [
        (lambda chains: chains + chains[:1], "overlap: f=2 s_inf=[] t=[0]"),
        (lambda chains: tuple(c[:-1] or c for c in chains), "not maximal: f=3 s_inf=[] t=[0, 1]"),
        (lambda chains: chains[1:], "not covering: f=2 s_inf=[] t=[0]"),
    ],
    ids=["duplicated-chain", "dropped-tail-place", "dropped-chain"],
)
def test_the_oracle_check_names_each_kind_of_chain_failure(mutant, counterexample):
    assert _first_oracle_mismatch(decompose=lambda st: mutant(decompose_chains(st))) == counterexample
