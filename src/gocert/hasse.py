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


def _anchored_sums(rd: RamificationData, splits: list[int]) -> list[int]:
    """The largest profile total with each split place in turn as the anchor, in the order of splits.

    Walking from an anchor in the Frobenius direction, each next split place
    sits g steps ahead, its constraint reads back across exactly that gap,
    and its maximal degree is the previous one times p^g; the walk closes up
    at the anchor, whose own constraint is slack at degree one.  With g_i the
    gap from the i-th split place to the next (indices mod m; the m gaps sum
    to f), the sum anchored at the i-th is S_i = 1 + p^{g_i} + p^{g_i +
    g_{i+1}} + ..., hence S_i = 1 + p^{g_i} * S_{i+1} - p^f: the direct sum
    S_0 gives all the others, in one pass over the gaps.
    """
    if not splits:
        raise ValueError("degree bound needs at least one split place")
    f, p = rd.f, rd.p
    sums = [sum(p ** (x - splits[0]) for x in splits)] * len(splits)
    total, cycle, ahead = sums[0], p**f, splits[0] + f
    for i in range(len(splits) - 1, 0, -1):
        total = 1 + p ** (ahead - splits[i]) * total - cycle
        sums[i], ahead = total, splits[i]
    return sums


def max_degree_sums(rd: RamificationData) -> dict[int, int]:
    """For each split place as anchor, in ascending order, the largest profile total with it at degree one."""
    splits = split_places(rd)
    return dict(zip(splits, _anchored_sums(rd, splits)))


def degree_bound(rd: RamificationData) -> int:
    """Uniform bound on the total pulled-back omega degree, over every anchor choice.

    The anchor where Kodaira-Spencer pulls back nonzero exists but is not
    known in advance, so the sound bound maximizes over all split anchors:
    the largest of max_degree_sums(rd).  It depends only on p and the place
    combinatorics.
    """
    return max(_anchored_sums(rd, split_places(rd)))
