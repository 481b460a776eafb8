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
    f, p = rd.f, rd.p
    total = 1
    running = 1
    x = anchor
    while True:
        gap = 1
        while (x + gap) % f not in splits:
            gap += 1
        x = (x + gap) % f
        if x == anchor:
            break
        running *= p**gap
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
    # g_i is the gap from the i-th split place to the next one round the cycle,
    # so the m gaps sum to f.  The sum anchored at the i-th place has m terms,
    # S_i = 1 + p^{g_i} + p^{g_i + g_{i+1}} + ..., hence (indices mod m)
    # S_i = 1 + p^{g_i} * S_{i+1} - p^f: the direct sum S_0 gives all the
    # others, in one pass over the gaps instead of one walk per anchor.
    f, p = rd.f, rd.p
    gaps = [b - a for a, b in zip(splits, splits[1:])] + [splits[0] + f - splits[-1]]
    total = running = 1
    for gap in gaps[:-1]:
        running *= p**gap
        total += running
    best, cycle = total, p**f
    for gap in reversed(gaps[1:]):
        total = 1 + p**gap * total - cycle
        best = max(best, total)
    return best

