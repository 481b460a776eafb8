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

from dataclasses import dataclass

from .places import RamificationData, n_tau, split_places


@dataclass(frozen=True)
class HasseConstraint:
    """deg(source) <= p^exponent * deg(target) with target = sigma^{-exponent}(source)."""

    source: int
    target: int
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 1:
            raise ValueError(f"constraint exponent must be positive, got {self.exponent}")


def hasse_constraints(rd: RamificationData) -> list[HasseConstraint]:
    """One constraint per split place, ascending by source.

    Targets are split as well, and following source -> target traverses all
    split places in a single directed cycle (self-loop when only one splits).
    """
    splits = split_places(rd)
    if not splits:
        raise ValueError("no split places: the Hasse constraint cycle is empty")
    constraints = []
    for tau in splits:
        n = n_tau(rd, tau)
        constraints.append(HasseConstraint(source=tau, target=(tau - n) % rd.f, exponent=n))
    return constraints


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

