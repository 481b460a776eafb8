import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gocert import (
    PlaceCycle,
    make_ramification,
    n_tau,
    shimura_dimension,
    sigma_pow,
    split_places,
)
from gocert.oracle import all_ramifications
from gocert.places import P_BOUND


def test_sigma_pow_examples():
    assert sigma_pow(PlaceCycle(4), 0, -1) == 3
    assert sigma_pow(PlaceCycle(5), 2, 0) == 2
    assert sigma_pow(PlaceCycle(3), 1, 7) == 2


def test_sigma_pow_rejects_bad_place():
    with pytest.raises(ValueError):
        sigma_pow(PlaceCycle(4), 4, 1)
    with pytest.raises(ValueError):
        sigma_pow(PlaceCycle(4), -1, 1)


@given(st.integers(1, 50), st.integers(-200, 200), st.integers(-200, 200))
def test_sigma_pow_composes(f, a, b):
    cycle = PlaceCycle(f)
    for i in range(f):
        assert sigma_pow(cycle, sigma_pow(cycle, i, a), b) == sigma_pow(cycle, i, a + b)


def test_split_places_examples():
    assert split_places(make_ramification(4, 2, {1, 2})) == [0, 3]
    assert split_places(make_ramification(2, 2, {0, 1})) == []
    assert split_places(make_ramification(1, 2)) == [0]


def test_n_tau_examples():
    assert n_tau(make_ramification(4, 2, {1, 2}), 3) == 3
    assert n_tau(make_ramification(1, 2), 0) == 1
    rd = make_ramification(2, 2, {0}, s_fin_count=1)
    assert n_tau(rd, 1) == 2
    for f in range(1, 7):
        rd = make_ramification(f, 2)
        assert all(n_tau(rd, tau) == 1 for tau in range(f))


def test_n_tau_undefined_on_ramified_place():
    rd = make_ramification(4, 2, {1, 2})
    with pytest.raises(ValueError):
        n_tau(rd, 1)
    with pytest.raises(ValueError):
        n_tau(rd, 7)


def test_shimura_dimension_examples():
    assert shimura_dimension(make_ramification(4, 2, {1, 2})) == 2
    assert shimura_dimension(make_ramification(2, 2, {0, 1})) == 0
    assert shimura_dimension(make_ramification(5, 2, ())) == 5


def test_n_tau_segments_tile_the_cycle():
    for rd in all_ramifications(8, 2, min_dim=1):
        assert sum(n_tau(rd, tau) for tau in split_places(rd)) == rd.f


def test_all_n_tau_one_iff_no_ramified_place():
    # a nonempty proper s_inf always has an element directly behind a split place
    for rd in all_ramifications(6, 2, min_dim=1):
        all_one = all(n_tau(rd, tau) == 1 for tau in split_places(rd))
        assert all_one == (not rd.s_inf)


def test_dimension_monotone_under_enlarging_ramification():
    for rd in all_ramifications(5, 2):
        for extra in range(rd.f):
            if extra in rd.s_inf:
                continue
            bigger = make_ramification(rd.f, 2, rd.s_inf | {extra}, (len(rd.s_inf) + 1) % 2)
            assert shimura_dimension(bigger) < shimura_dimension(rd)


def test_validation_rules():
    with pytest.raises(ValueError):
        PlaceCycle(0)
    with pytest.raises(ValueError):
        make_ramification(3, 2, {0})  # odd ramification set
    with pytest.raises(ValueError):
        make_ramification(3, 4, {0, 1})  # composite p
    with pytest.raises(ValueError):
        make_ramification(3, 2, {3, 4})  # places out of range
    with pytest.raises(ValueError):
        make_ramification(3, 2, (), s_fin_count=-2)
    assert make_ramification(3, 2, {0, 1}).s_fin_count == 0


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
        make_ramification(1, P_BOUND)  # composite, yet a strong pseudoprime to all twelve bases
