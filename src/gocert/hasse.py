"""Degree bounds forced by partial Hasse invariants.

On a generically ordinary curve image every partial Hasse invariant restricts
to a nonzero map of line bundles, so for each split place tau the pulled-back
degrees obey deg(omega_tau) <= p^{n_tau} * deg(omega_{sigma^{-n_tau} tau}),
where n_tau is the backward gap from tau to the previous split place.
These constraints form one directed cycle through the split places.  With a
single anchor place a pinned at degree one (supplied by a nonzero pulled-back
Kodaira-Spencer map), each split place x is capped at p^((x - a) mod f), the
product of the p-powers along the cycle from a, and the total caps the
polarization degree.

The anchor is not known in advance, so the bound is the largest anchored sum.
With M the sum of p^x over the split places x and q = p^f - 1, the sum
anchored at a is M * p^(f - a) mod q: p^f is 1 mod q, and a sum of distinct
powers below p^f is below q unless it has all f of them.  On that full cycle
(every place split) every anchor gives M = (p^f - 1)/(p - 1), which at p = 2
is q itself, so the bound there is M and not its remainder, 0.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .places import RamificationData, split_places


def degree_bound(rd: RamificationData) -> int:
    """Uniform bound on the total pulled-back omega degree: the largest anchored sum."""
    splits = split_places(rd)
    return anchored_bound(rd.f, rd.p, splits)(range(len(splits)))


def anchored_bound(f: int, p: int, splits: list[int]) -> Callable[[Sequence[int]], int]:
    """bound(kept): the degree bound of the datum with f places and prime p whose split places are splits[i], i in kept.

    p^x and p^(f - x) are computed once per place here, so a bound is one sum
    over the kept places, then a product and a remainder per kept anchor.
    bound raises ValueError for an empty kept, a datum with no split place.
    """
    ups, downs, q = [p**x for x in splits], [p ** (f - x) for x in splits], p**f - 1

    def bound(kept: Sequence[int]) -> int:
        if not kept:
            raise ValueError("degree bound needs at least one split place")
        total = 0
        for i in kept:
            total += ups[i]
        if len(kept) == f:
            return total  # the full cycle
        best = 0
        for i in kept:
            if (anchored := total * downs[i] % q) > best:
                best = anchored
        return best

    return bound
