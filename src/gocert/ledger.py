"""Exact rank and degree bookkeeping for the isomonodromy contradiction.

For a rank-two flat bundle with determinant of degree det_deg and a Hodge line
subbundle of degree d, the quotient of endomorphisms by filtration-preserving
ones is Hom(Fil^1, E/Fil^1), of degree det_deg - 2d, while the logarithmic
tangent sheaf has degree 2 - 2g - n.  A nonzero map between line bundles of
equal degree on a proper curve is an isomorphism; when the two degrees agree
the induced H^1 isomorphism forces the isomonodromy deformation class of any
filtration-preserving family to vanish, contradicting its nontriviality.
"""

from __future__ import annotations

from typing import NamedTuple

from .rigidity import CurveType


class ContradictionVerdict(NamedTuple):
    """Degree comparison underlying the contradiction step."""

    deg_tangent: int
    deg_hom: int
    forced_iso: bool
    conclusion: str


def hom_degree(fil1_deg: int, det_deg: int) -> int:
    """Degree of Hom(Fil^1, E/Fil^1) for a rank-two bundle: det_deg - 2 * fil1_deg."""
    return det_deg - 2 * fil1_deg


def tangent_degree(ct: CurveType) -> int:
    """Degree 2 - 2g - n of the tangent sheaf, logarithmic along the punctures."""
    return 2 - 2 * ct.g - ct.n


def contradiction_check(ct: CurveType, fil1_deg: int, det_deg: int) -> ContradictionVerdict:
    """Compare the tangent degree with the Hom-quotient degree.

    With a positive filtration degree the map from the tangent sheaf to the
    endomorphism quotient is nonzero; equal degrees then make it an
    isomorphism, the induced H^1 map kills the deformation class, and the
    verdict is a contradiction.  Otherwise the comparison is inconclusive.
    """
    deg_tangent = tangent_degree(ct)
    deg_hom = hom_degree(fil1_deg, det_deg)
    forced = deg_tangent == deg_hom and fil1_deg >= 1
    return ContradictionVerdict(
        deg_tangent=deg_tangent,
        deg_hom=deg_hom,
        forced_iso=forced,
        conclusion="contradiction" if forced else "inconclusive",
    )
