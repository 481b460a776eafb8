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
    """All (f, s_inf) with f <= max_f and at least min_dim split places; s_fin_count fixes parity."""
    for f in range(1, max_f + 1):
        for r in range(f + 1 - min_dim):
            for s in itertools.combinations(range(f), r):
                yield make_ramification(f, p, s, len(s) % 2)


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


def replay_augmented_set(f: int, s_inf: frozenset[int], t: frozenset[int]) -> frozenset[int]:
    """Definition replay of the augmented vanishing set on connectivity components.

    For each component, take its intersection with t; when that is odd, add
    the predecessor of the component's backward end.
    """
    occupied = frozenset(s_inf | t)
    if len(occupied) == f:
        raise ValueError("replay undefined on the full cycle")
    augmented: set[int] = set()
    for comp in cycle_components(f, occupied):
        met = comp & t
        augmented |= met
        if len(met) % 2 == 1:
            tails = [x for x in comp if (x - 1) % f not in comp]
            assert len(tails) == 1, "components of a proper subset have one backward end"
            augmented.add((tails[0] - 1) % f)
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


def relaxed_profile_max(rd: RamificationData, anchor: int) -> int:
    """Largest constrained profile total with the anchor at one, by downward fixpoint.

    Lower each degree until every constraint holds.  Feasible profiles are
    closed under componentwise max, so the downward iteration from the capped
    profile converges to the largest one; its total equals the brute-force
    maximum.
    """
    f, p = rd.f, rd.p
    splits = [i for i in range(f) if i not in rd.s_inf]
    assert anchor in splits
    constraints = scan_constraints(f, frozenset(rd.s_inf))
    degrees = {tau: p**f for tau in splits}
    degrees[anchor] = 1
    changed = True
    while changed:
        changed = False
        for src, tgt, exp in constraints:
            allowed = p**exp * degrees[tgt]
            if degrees[src] > allowed:
                degrees[src] = allowed
                changed = True
    return sum(degrees.values())


def hodge_degrees(g: int, n: int) -> list[tuple[int, bool]]:
    """(d, forced_iso) for every admissible Hodge degree 0 < d <= (2g - 2 + n) - d, ascending.

    forced_iso marks 2d = 2g - 2 + n, where the nonzero Higgs map joins line
    bundles of equal degree and so is an isomorphism.
    """
    bound = 2 * g - 2 + n
    return [(d, 2 * d == bound) for d in range(1, bound + 1) if d <= bound - d]
