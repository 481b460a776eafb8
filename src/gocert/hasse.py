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
"""

from __future__ import annotations

from .places import RamificationData, split_places


def degree_bound(rd: RamificationData) -> int:
    """Uniform bound on the total pulled-back omega degree: the largest anchored sum."""
    return split_degree_bound(rd.f, rd.p, split_places(rd))


def split_degree_bound(f: int, p: int, splits: list[int]) -> int:
    """degree_bound of the datum with f places, prime p and the split places splits, in ascending order.

    The anchor where Kodaira-Spencer pulls back nonzero is not known in
    advance, so the sound bound maximizes over all split anchors.  The sum
    anchored at a has the distinct exponents (x - a) mod f.  For p >= 2 each
    p^k exceeds all lower powers together, so the sums compare as their
    exponent sets read in base 2: as the split mask rotated to put a at bit 0.
    The largest rotation picks the best anchor, for every p.
    """
    if not splits:
        raise ValueError("degree bound needs at least one split place")
    mask, full = sum([1 << x for x in splits]), (1 << f) - 1
    doubled = mask | mask << f  # bits a..a + f - 1 hold the mask rotated right by a
    rotations = [doubled >> a & full for a in splits]
    best = splits[rotations.index(max(rotations))]
    return sum([p ** ((x - best) % f) for x in splits])
