"""Goren-Oort stratum combinatorics: chains, the augmented ramification set, stratum children.

A stratum is the common vanishing locus of the partial Hasse invariants
indexed by a set T of split places.  The occupied places s_inf | T fall into
maximal backward-Frobenius chains; each chain contributes its intersection
with T to a new ramification set, extended by one extra backward step whenever
that intersection has odd size.  Over the quaternionic datum of the augmented
set the stratum is a (P^1)^N-bundle, with one projective line per odd chain.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple

from .places import RamificationData, _show, is_json_int, shimura_dimension, split_places


# Chains of places, each walking backwards from its head, as decompose_chains returns them.
Chains = tuple[tuple[int, ...], ...]


class _StratumFields(NamedTuple):
    rd: RamificationData
    t: frozenset[int]


class Stratum(_StratumFields):
    """A ramification datum with a proper subset T of its split places."""

    __slots__ = ()

    def __new__(cls, rd: RamificationData, t: Iterable[int]) -> Stratum:
        t = frozenset(t)
        if not all(map(is_json_int, t)):
            raise ValueError(f"T {_show(set(t))} must consist of integer places")
        # The split places are the places off s_inf, so T within them is proper
        # exactly when T and s_inf together leave a place free.
        # per place: t.issubset(range(rd.f)) would build a set of all f places
        if bad := [x for x in t if not 0 <= x < rd.f or x in rd.s_inf]:
            x = min(bad)
            why = "ramified" if 0 <= x < rd.f else f"not one of the places 0..{rd.f - 1}"
            raise ValueError(f"place {x} of T is {why}, so not a split place")
        if len(t) + len(rd.s_inf) >= rd.f:
            raise ValueError("T must be a proper subset of the split places")
        return tuple.__new__(cls, (rd, t))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Stratum:
        # NamedTuple's _make, and _replace through it, would skip __new__'s checks.
        return cls(*iterable)


def decompose_chains(st: Stratum) -> Chains:
    """Partition s_inf | T into maximal chains, in ascending order of head place.

    A chain is the tuple head, sigma^{-1} head, ..., of occupied places: a head
    is an occupied place whose Frobenius successor is free, and the chain walks
    backwards from it while places stay occupied.  Undefined when the occupied
    set is the whole cycle (excluded by the stratum invariants).
    """
    f = st.rd.f
    occupied = st.rd.s_inf | st.t
    if len(occupied) == f:
        raise ValueError("chain decomposition is undefined when s_inf and T cover every place")
    occ = 0
    for place in occupied:
        occ |= 1 << place
    # heads: occupied places whose successor is free, bit i of the right rotation being bit i + 1
    heads = occ & ~((occ >> 1) | ((occ & 1) << (f - 1)))
    chains = []
    while heads:
        low = heads & -heads
        heads ^= low
        place = low.bit_length() - 1
        chain = [place]
        place = (place - 1) % f
        while occ >> place & 1:
            chain.append(place)
            place = (place - 1) % f
        chains.append(tuple(chain))
    return tuple(chains)


def induced_ramification(st: Stratum) -> RamificationData:
    """Quaternionic datum the stratum fibers over: s_inf extended by every chain contribution.

    Each chain contributes its intersection with T, plus the place one
    backward step past its end when that intersection has odd size.  The
    extension has even size, contains T, and adds only places outside
    s_inf | T, so the even-ramification parity is preserved.
    """
    rd, t = st.rd, st.t
    t_aug = set(t)
    for chain in decompose_chains(st):
        if len(t.intersection(chain)) % 2:
            t_aug.add((chain[-1] - 1) % rd.f)
    return RamificationData(rd.f, rd.s_inf | t_aug, rd.s_fin_count, rd.p)


def strata_children(rd: RamificationData) -> list[tuple[frozenset[int], RamificationData]]:
    """All proper nonempty vanishing sets T with their induced data, in bitmask order.

    Bit j of the mask selects the j-th split place in ascending order.
    Duplicate induced data are kept: the list mirrors the full case split.
    Each T is proper and nonempty by construction, so Stratum's checks are skipped.
    """
    if shimura_dimension(rd) < 1:
        raise ValueError("strata enumeration needs at least one split place")
    # doubling the list for each split place in turn appends the masks with its bit set
    subsets: list[frozenset[int]] = [frozenset()]
    for place in split_places(rd):
        single = frozenset((place,))
        subsets += [t | single for t in subsets]
    return [(t, induced_ramification(tuple.__new__(Stratum, (rd, t)))) for t in subsets[1:-1]]


def model_child_masks(m: int) -> list[int]:
    """The added-place mask of each child of the model datum (f = m, s_inf = {}), in bitmask order.

    The model's split places are 0..m-1, so each proper nonempty T is its own
    index mask, and the mask listed for it is the s_inf mask of its induced
    datum in strata_children: T plus, for each maximal cyclic run of T of odd
    length, the place just before the run's backward end.  No stratum,
    frozenset or record is built.

    Each T is worked on reflected, i -> m - 1 - i, which sends that place to
    the one just after the reflected run's head: the place a carry reaches when
    the run's start bit is added.  A run has odd length exactly when it starts
    and ends at places of equal parity, so when its carry lands on the other
    parity than its start: the starts at even places and at odd places are
    added apart, and only carries onto the other parity are kept.  Doubling
    the reflected T to 2m bits makes every run linear: the upper copy of a
    run, or the copy across the middle of one that wraps past place 0,
    carries into bits m..2m, which fold onto the places mod m.  A run that
    wraps also carries out of its cut-off top copy into bit 2m, place 0,
    which that run already holds; the carries of lower copies stay below bit
    m, but for a run ending at place m - 1, whose two copies agree.
    """
    if m < 1:
        raise ValueError("strata enumeration needs at least one split place")
    # reflected[t] is t with its m bits reversed, built by doubling as strata_children builds its subsets
    reflected = [0]
    for k in range(m - 1, -1, -1):
        reflected += [r | 1 << k for r in reflected]
    full = (1 << m) - 1
    even = int("01" * (m + 1), 2)  # the even bits 0..2m
    odd = even << 1
    masks = []
    for r in reflected[1:-1]:
        doubled = r | r << m
        starts = doubled & ~(doubled << 1)
        carried = ((doubled + (starts & even)) & odd | (doubled + (starts & odd)) & even) & ~doubled
        upper = carried >> m
        masks.append(reflected[(r | upper | upper >> m) & full])
    return masks
