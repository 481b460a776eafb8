import itertools
import sys
import time

import pytest
from gocert import CurveType, make_ramification, shimura_dimension, split_places
from gocert.oracle import all_ramifications, scan_constraints
from gocert.places import P_BOUND, _check_json_digits


def test_split_places_examples():
    assert split_places(make_ramification(4, 2, {1, 2})) == [0, 3]
    assert split_places(make_ramification(2, 2, {0, 1})) == []
    assert split_places(make_ramification(1, 2)) == [0]


def test_shimura_dimension_examples():
    assert shimura_dimension(make_ramification(4, 2, {1, 2})) == 2
    assert shimura_dimension(make_ramification(2, 2, {0, 1})) == 0
    assert shimura_dimension(make_ramification(5, 2, ())) == 5


def test_all_n_tau_one_iff_no_ramified_place():
    # a nonempty proper s_inf always has an element directly behind a split place
    for rd in all_ramifications(6, 2, min_dim=1):
        all_one = all(exp == 1 for _, _, exp in scan_constraints(rd.f, rd.s_inf))
        assert all_one == (not rd.s_inf)


def test_all_ramifications_checks_p_once_and_builds_valid_data():
    for p in (2, 3, 1000000007):
        built = [
            make_ramification(f, p, s, len(s) % 2)
            for f in range(1, 7)
            for r in range(f + 1)
            for s in itertools.combinations(range(f), r)
        ]
        assert list(all_ramifications(6, p)) == built
    data = all_ramifications(0, 9)
    with pytest.raises(ValueError, match="p must be a prime, got 9"):
        next(data)


def test_dimension_monotone_under_enlarging_ramification():
    for rd in all_ramifications(5, 2):
        for extra in range(rd.f):
            if extra in rd.s_inf:
                continue
            bigger = make_ramification(rd.f, 2, rd.s_inf | {extra}, (len(rd.s_inf) + 1) % 2)
            assert shimura_dimension(bigger) < shimura_dimension(rd)


def test_validation_rules():
    with pytest.raises(ValueError):
        make_ramification(0, 2)  # no places
    with pytest.raises(ValueError):
        make_ramification(3, 2, {0})  # odd ramification set
    with pytest.raises(ValueError):
        make_ramification(3, 4, {0, 1})  # composite p
    with pytest.raises(ValueError):
        make_ramification(3, 2, {3, 4})  # places out of range
    with pytest.raises(ValueError):
        make_ramification(3, 2, (), s_fin_count=-2)
    assert make_ramification(3, 2, {0, 1}).s_fin_count == 0
    # fields must be JSON integers: no float or bool is accepted
    for bad in (
        lambda: make_ramification(2, 3.0),
        lambda: make_ramification(True, 3),
        lambda: make_ramification(2, 3, [0.0, 1]),
        lambda: make_ramification(2, 3, (), 0.0),
        lambda: CurveType(2.0, 0),
        lambda: CurveType(2, True),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            bad()


def test_ramified_place_listed_twice_is_rejected():
    with pytest.raises(ValueError, match="place 0 is listed twice"):
        make_ramification(3, 2, (0, 0))
    with pytest.raises(ValueError, match="place 1 is listed twice"):
        make_ramification(4, 2, [1, 0, 1], 1)


def test_primality_matches_trial_division():
    for n in range(-3, 3000):
        prime = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
        try:
            make_ramification(1, n)
        except ValueError:
            assert not prime, n
        else:
            assert prime, n


def test_large_primes_are_fast_and_the_bound_is_enforced():
    start = time.perf_counter()
    assert make_ramification(1, 10**18 + 3).p == 10**18 + 3
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="must be a prime"):
        make_ramification(1, 3_215_031_751)  # strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(ValueError, match=str(P_BOUND)):
        make_ramification(1, P_BOUND)  # composite, yet a strong pseudoprime to all thirteen bases


def test_every_pseudoprime_threshold_below_the_bound_is_refused():
    # OEIS A014233: the least odd composite that is a strong pseudoprime to the first k prime bases
    terms = (
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        341550071728321,
        3825123056546413051,
        3825123056546413051,
        3825123056546413051,
        318665857834031151167461,  # 399165290221 * 798330580441
    )
    for n in terms:
        assert n < P_BOUND
        with pytest.raises(ValueError, match=f"p must be a prime, got {n}"):
            make_ramification(2, n)


def test_json_digit_check_is_exact_at_the_least_nonzero_limit():
    # an integer of at most 3 * 640 bits has at most 640 digits, the least nonzero limit, so the check stops there
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer string conversion")
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(ValueError, match="^n has more than 640 digits, "):
            _check_json_digits(10**640, "n")
        with pytest.raises(ValueError, match="^n has more than 640 digits, "):
            _check_json_digits(-(10**640), "n")
        for n in (10**640 - 1, -(10**640 - 1), 2**1920, 2**1920 - 1):
            _check_json_digits(n, "n")
        sys.set_int_max_str_digits(0)
        _check_json_digits(10**5000, "n")
    finally:
        sys.set_int_max_str_digits(saved)
