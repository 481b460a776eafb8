"""Archimedean place combinatorics of a totally real field inert at p.

When the rational prime p stays inert, Frobenius permutes the f archimedean
places of a degree-f totally real field in a single cycle.  We model the
places as Z/f with sigma acting by i -> i + 1.  A quaternion algebra over the
field enters only through the data its stratum combinatorics needs: the set
of ramified archimedean places and the count of ramified finite places (p
itself never ramifies, and finite places matter only through parity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


# Miller-Rabin with the first twelve primes as bases is exact below P_BOUND,
# which is itself a strong pseudoprime to all twelve bases.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
P_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < P_BOUND."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PlaceCycle:
    """Places 0..f-1 with Frobenius i -> i + 1 (mod f), a single f-cycle."""

    f: int

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError(f"need at least one place, got f={self.f}")

    @property
    def places(self) -> range:
        return range(self.f)


@dataclass(frozen=True)
class RamificationData:
    """A place cycle together with the ramification set of a quaternion algebra.

    s_inf holds the ramified archimedean places; s_fin_count is the number of
    ramified finite places other than p.  The total ramification set of a
    quaternion algebra has even size, and p must not belong to it.
    """

    cycle: PlaceCycle
    s_inf: frozenset[int]
    s_fin_count: int
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_inf", frozenset(self.s_inf))
        if not all(isinstance(v, int) and 0 <= v < self.cycle.f for v in self.s_inf):
            raise ValueError(
                f"s_inf {sorted(self.s_inf)} is not a subset of the places 0..{self.cycle.f - 1}"
            )
        if self.s_fin_count < 0:
            raise ValueError(f"negative count of finite ramified places: {self.s_fin_count}")
        if (len(self.s_inf) + self.s_fin_count) % 2 != 0:
            raise ValueError(
                "a quaternion algebra ramifies at an even number of places: "
                f"|s_inf|={len(self.s_inf)}, s_fin_count={self.s_fin_count}"
            )
        if self.p >= P_BOUND:
            raise ValueError(f"p must be below {P_BOUND}, the bound of the exact primality test")
        if not _is_prime(self.p):
            raise ValueError(f"p must be a prime, got {self.p}")

    @property
    def f(self) -> int:
        return self.cycle.f


def make_ramification(
    f: int, p: int, s_inf: Iterable[int] = (), s_fin_count: int = 0
) -> RamificationData:
    """Convenience constructor building the cycle; a place listed twice in s_inf is an error."""
    places: set[int] = set()
    for v in s_inf:
        if v in places:
            raise ValueError(f"ramified place {v} is listed twice")
        places.add(v)
    return RamificationData(
        cycle=PlaceCycle(f), s_inf=frozenset(places), s_fin_count=s_fin_count, p=p
    )


def sigma_pow(cycle: PlaceCycle, i: int, k: int) -> int:
    """Apply Frobenius k times to the place i; k may be negative."""
    if not 0 <= i < cycle.f:
        raise ValueError(f"place {i} out of range for f={cycle.f}")
    return (i + k) % cycle.f


def split_places(rd: RamificationData) -> list[int]:
    """Ascending list of archimedean places where the algebra splits."""
    return [i for i in rd.cycle.places if i not in rd.s_inf]


def n_tau(rd: RamificationData, tau: int) -> int:
    """Backward Frobenius distance from the split place tau to the previous split place.

    The smallest n >= 1 such that sigma^{-1} tau, ..., sigma^{-(n-1)} tau are
    all ramified while sigma^{-n} tau splits.  Undefined on ramified places.
    """
    if not 0 <= tau < rd.f:
        raise ValueError(f"place {tau} out of range for f={rd.f}")
    if tau in rd.s_inf:
        raise ValueError(f"n_tau is undefined on the ramified place {tau}")
    n = 1
    while sigma_pow(rd.cycle, tau, -n) in rd.s_inf:
        n += 1
    return n


def shimura_dimension(rd: RamificationData) -> int:
    """Dimension of the attached quaternionic Shimura variety: the number of split places."""
    return rd.f - len(rd.s_inf)
