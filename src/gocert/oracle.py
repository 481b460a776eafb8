"""Reference computations and configuration enumerators shared by selfcheck and the tests.

These deliberately avoid the library's own algorithms: chains are recovered as
connected components of the cycle graph, augmented sets by replaying the
even/odd recipe on those components, Hasse constraints by a backward scan of
their definition, degree maxima by a downward fixpoint of those scanned
constraints, and admissible Hodge degrees by a direct scan of their inequality.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .places import RamificationData, make_ramification


def all_ramifications(max_f: int, p: int, *, min_dim: int = 0) -> Iterator[RamificationData]:
    """All (f, s_inf) with f <= max_f and at least min_dim split places; s_fin_count fixes parity.

    p is checked once, at the first next(), by make_ramification's rule; every
    datum enumerated is then valid by construction and built without a check.
    """
    make_ramification(1, p)
    for f in range(1, max_f + 1):
        for r in range(f + 1 - min_dim):
            for s in itertools.combinations(range(f), r):
                yield RamificationData(f, frozenset(s), r % 2, p)


def all_vanishing_sets(rd: RamificationData) -> Iterator[frozenset[int]]:
    """Every proper subset (including the empty one) of the split places."""
    splits = [i for i in range(rd.f) if i not in rd.s_inf]
    for r in range(len(splits)):
        for t in itertools.combinations(splits, r):
            yield frozenset(t)


def cycle_components(f: int, occupied: frozenset[int]) -> list[frozenset[int]]:
    """Connected components of occupied places in the cycle graph on Z/f."""
    remaining = set(occupied)
    components = []
    while remaining:
        stack = [min(remaining)]
        comp: set[int] = set()
        while stack:
            x = stack.pop()
            if x not in remaining:
                continue
            remaining.discard(x)
            comp.add(x)
            for y in ((x + 1) % f, (x - 1) % f):
                if y in remaining:
                    stack.append(y)
        components.append(frozenset(comp))
    return components


def component_ends(f: int, occupied: frozenset[int]) -> list[tuple[frozenset[int], int]]:
    """Each component of a proper occupied set with the place just before its backward end."""
    if len(occupied) == f:
        raise ValueError("replay undefined on the full cycle")
    ends = []
    for comp in cycle_components(f, occupied):
        tails = [x for x in comp if (x - 1) % f not in comp]
        assert len(tails) == 1, "components of a proper subset have one backward end"
        ends.append((comp, (tails[0] - 1) % f))
    return ends


def replay_augmented_set(f: int, s_inf: frozenset[int], t: frozenset[int]) -> frozenset[int]:
    """Definition replay of the augmented vanishing set on connectivity components.

    T, plus the place just before the backward end of each component that
    meets T an odd number of times.
    """
    augmented = set(t)
    for comp, before_end in component_ends(f, frozenset(s_inf | t)):
        if len(comp & t) % 2 == 1:
            augmented.add(before_end)
    return frozenset(augmented)


def scan_constraints(f: int, s_inf: frozenset[int]) -> list[tuple[int, int, int]]:
    """(source, target, exponent) triples by a direct backward scan of the definition."""
    splits = [i for i in range(f) if i not in s_inf]
    triples = []
    for tau in splits:
        n = 1
        while (tau - n) % f in s_inf:
            n += 1
        triples.append((tau, (tau - n) % f, n))
    return triples


def relaxed_profile_maxima(rd: RamificationData) -> dict[int, int]:
    """For each split place as anchor, the largest constrained profile total with it at one.

    Lower each degree until every constraint holds.  Feasible profiles are
    closed under componentwise max, so the downward iteration from the capped
    profile converges to the largest one; its total equals the brute-force
    maximum.  The constraints are scanned once for all anchors.
    """
    f, p = rd.f, rd.p
    constraints = [(src, tgt, p**exp) for src, tgt, exp in scan_constraints(f, frozenset(rd.s_inf))]
    cap = dict.fromkeys((src for src, _, _ in constraints), p**f)  # one per split place
    maxima: dict[int, int] = {}
    for anchor in cap:
        degrees = {**cap, anchor: 1}
        changed = True
        while changed:
            changed = False
            for src, tgt, factor in constraints:
                allowed = factor * degrees[tgt]
                if degrees[src] > allowed:
                    degrees[src] = allowed
                    changed = True
        maxima[anchor] = sum(degrees.values())
    return maxima


def hodge_degrees(g: int, n: int) -> list[tuple[int, bool]]:
    """(d, forced_iso) for every admissible Hodge degree 0 < d <= (2g - 2 + n) - d, ascending.

    forced_iso marks 2d = 2g - 2 + n, where the nonzero Higgs map joins line
    bundles of equal degree and so is an isomorphism.
    """
    bound = 2 * g - 2 + n
    return [(d, 2 * d == bound) for d in range(1, bound + 1) if d <= bound - d]
