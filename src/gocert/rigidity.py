"""Rank-two Hodge filtration rigidity on curves of type (g, n).

With unipotent monodromy at the punctures all parabolic weights vanish, so the
Hodge line subbundle of a rank-two variation has an integer degree d, and a
nonzero Higgs map forces 0 < d <= (2g - 2 + n) - d.  When the twisted
canonical degree 2g - 2 + n equals 2, the unique solution d = 1 makes the
Higgs map an isomorphism between equal-degree line bundles; the Higgs bundle
is then pinned by a square root of the twisted canonical bundle, and a genus-g
curve carries exactly 2^(2g) square roots of any fixed even-degree bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .places import is_json_int


@dataclass(frozen=True)
class CurveType:
    """Smooth curve of genus g with n punctures carrying unipotent local monodromy.

    The rigidity arguments concern hyperbolic types (2g - 2 + n > 0); the
    degree formulas themselves make sense for every g, n >= 0.
    """

    g: int
    n: int

    def __post_init__(self) -> None:
        for name, value in (("g", self.g), ("n", self.n)):
            if not is_json_int(value):
                raise ValueError(f"curve {name} must be an integer, got {value!r}")
        if self.g < 0 or self.n < 0:
            raise ValueError(f"genus and puncture count must be nonnegative, got ({self.g}, {self.n})")

    @property
    def is_hyperbolic(self) -> bool:
        return 2 * self.g - 2 + self.n > 0


@dataclass(frozen=True)
class HodgeSolution:
    """An admissible Hodge subbundle degree d, with the forced-isomorphism flag.

    count is the number of Higgs bundles realizing d when that number is
    pinned down (the forced-isomorphism case), and None otherwise.
    """

    d: int
    higgs_iso: bool
    count: int | None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"Hodge degree must be positive, got {self.d}")
        if self.count is not None and self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")


@dataclass(frozen=True)
class RigidityVerdict:
    """Outcome of the rigidity argument for one curve type."""

    finite: bool
    d: int | None
    count: int | None


def euler_bound(ct: CurveType) -> int:
    """Degree 2g - 2 + n of the canonical bundle twisted by the puncture divisor."""
    return 2 * ct.g - 2 + ct.n


def square_root_count(g: int, target_degree: int) -> int:
    """Number of line bundles squaring to a fixed bundle of the given degree on a genus-g curve.

    Zero for odd degree; otherwise the 2-torsion of the Jacobian acts simply
    transitively on the square roots, giving 2^(2g).
    """
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    if target_degree % 2 != 0:
        return 0
    return 2 ** (2 * g)


def classify_filtration(ct: CurveType) -> tuple[HodgeSolution, ...]:
    """All admissible Hodge degrees 0 < d <= (2g - 2 + n) - d, ascending.

    Empty when no rank-two variation with nontrivial filtration can exist.
    The top degree (when 2d hits the bound exactly) forces the Higgs map to be
    an isomorphism and carries the pinned Higgs-bundle count.
    """
    bound = euler_bound(ct)
    solutions = []
    for d in range(1, bound // 2 + 1):
        iso = 2 * d == bound
        count = square_root_count(ct.g, bound) if iso else None
        solutions.append(HodgeSolution(d=d, higgs_iso=iso, count=count))
    return tuple(solutions)


def is_special(ct: CurveType) -> bool:
    """Whether the numerical coincidence 2g - 2 + n = 2 holds.

    Exactly the types (2, 0), (0, 4) and (1, 2): a unique admissible degree
    d = 1 whose Higgs map is forced to be an isomorphism.
    """
    return euler_bound(ct) == 2


def finiteness_verdict(ct: CurveType) -> RigidityVerdict:
    """Finite with the pinned count for special types, inconclusive otherwise.

    For special types the forced isomorphism determines the Higgs bundle from
    a square root of the twisted canonical bundle, so the count of candidate
    local systems is square_root_count(g, 2).  Nothing is claimed for other
    types: the verdict never asserts infinitude.
    """
    if not is_special(ct):
        return RigidityVerdict(finite=False, d=None, count=None)
    return RigidityVerdict(finite=True, d=1, count=square_root_count(ct.g, euler_bound(ct)))
