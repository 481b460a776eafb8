"""Degree bounds forced by partial Hasse invariants.

On a generically ordinary curve image every partial Hasse invariant restricts
to a nonzero map of line bundles, so for each split place tau the pulled-back
degrees obey deg(omega_tau) <= p^{n_tau} * deg(omega_{sigma^{-n_tau} tau}).
These constraints form one directed cycle through the split places.  With a
single anchor place pinned at degree one (supplied by a nonzero pulled-back
Kodaira-Spencer map), every other degree is capped by a running product of
p-powers along the cycle, and the total caps the polarization degree.
"""

from __future__ import annotations

from .places import RamificationData, split_places


def max_degree_sum(rd: RamificationData, anchor: int) -> int:
    """Largest total degree of a constrained profile whose anchor degree is exactly one.

    Walking from the anchor in the Frobenius direction, each next split place
    sits n steps ahead, its constraint reads back across exactly that gap, and
    its maximal degree is the previous maximum times p^n.  The walk closes up
    at the anchor, whose own constraint is slack at degree one.
    """
    splits = set(split_places(rd))
    if anchor not in splits:
        raise ValueError(f"anchor {anchor} is not a split place")
    total = 1
    running = 1
    x = anchor
    while True:
        gap = 1
        while (x + gap) % rd.f not in splits:
            gap += 1
        x = (x + gap) % rd.f
        if x == anchor:
            break
        running *= rd.p ** gap
        total += running
    return total


def degree_bound(rd: RamificationData) -> int:
    """Uniform bound on the total pulled-back omega degree, over every anchor choice.

    The anchor where Kodaira-Spencer pulls back nonzero exists but is not
    known in advance, so the sound bound maximizes over all split anchors.
    It depends only on p and the place combinatorics.
    """
    splits = split_places(rd)
    if not splits:
        raise ValueError("degree bound needs at least one split place")
    return max(max_degree_sum(rd, anchor) for anchor in splits)

