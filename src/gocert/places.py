"""Archimedean place combinatorics of a totally real field inert at p.

When the rational prime p stays inert, Frobenius permutes the f archimedean
places of a degree-f totally real field in a single cycle.  We model the
places as Z/f with sigma acting by i -> i + 1.  A quaternion algebra over the
field enters only through the data its stratum combinatorics needs: the set
of ramified archimedean places and the count of ramified finite places (p
itself never ramifies, and finite places matter only through parity).
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from functools import lru_cache
from typing import Any, Iterable, NamedTuple


# Miller-Rabin with the first k primes as bases is exact for n below the k-th
# term of OEIS A014233, the least odd composite that is a strong pseudoprime to
# all k of them; the thirteenth term is P_BOUND.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_BELOW = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981,
)
P_BOUND = _EXACT_BELOW[-1]


@lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the fewest leading bases exact for n; exact for n < P_BOUND.

    A pure function of n, remembered for the last 64 values in a process:
    a run over many configurations meets the same few primes again.
    """
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES[: bisect_right(_EXACT_BELOW, n) + 1]:
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


def is_json_int(value: Any) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _show(value: Any) -> str:
    """repr(value) for an error message, or a stand-in when repr fails.

    It fails on an integer past sys.get_int_max_str_digits() and on a value
    nested deeper than the recursion limit, which a caller can pass.
    """
    try:
        return repr(value)
    except ValueError:
        return "<a value holding an integer with more digits than the interpreter writes>"
    except RecursionError:
        return "<a value nested too deeply to write>"


# A nonzero limit on integer string conversion is at least the interpreter's
# threshold, and 2^(3 digits) < 10^digits, so no integer of at most this many
# bits has more digits than the limit.
_SAFE_BITS = 3 * getattr(sys.int_info, "str_digits_check_threshold", 640)


def _check_json_digits(n: int, what: str) -> None:
    """Raise ValueError when n, of either sign, has more decimal digits than json converts.

    The limit is the interpreter's for integers converted to or from text
    (sys.get_int_max_str_digits), so json could neither write nor read n; 0,
    and a Python without the setting, mean no limit.  Most calls stop at the
    bit length, at most _SAFE_BITS, without reading the limit.
    """
    if n.bit_length() > _SAFE_BITS and hasattr(sys, "get_int_max_str_digits"):
        digits = sys.get_int_max_str_digits()
        if digits and n.bit_length() > 3 * digits and abs(n) >= 10**digits:
            raise ValueError(f"{what} has more than {digits} digits, the interpreter's limit for integers in JSON")


class RamificationData(NamedTuple):
    """The f places Z/f together with the ramification set of a quaternion algebra.

    s_inf holds the ramified archimedean places; s_fin_count is the number of
    ramified finite places other than p.  A plain record: make_ramification is
    the checking constructor, and the stratum recursion builds children that
    keep its invariants by construction.
    """

    f: int
    s_inf: frozenset[int]
    s_fin_count: int
    p: int


def make_ramification(
    f: int, p: int, s_inf: Iterable[int] = (), s_fin_count: int = 0
) -> RamificationData:
    """Checked constructor: integer fields json can hold, distinct places in range, even ramification, prime p.

    The total ramification set of a quaternion algebra has even size, and p
    must not belong to it.
    """
    for name, value in (("f", f), ("p", p), ("s_fin_count", s_fin_count)):
        if not is_json_int(value):
            raise ValueError(f"{name} must be an integer, got {_show(value)}")
        _check_json_digits(value, name)
    if f < 1:
        raise ValueError(f"need at least one place, got f={f}")
    places: set[int] = set()
    for v in s_inf:
        if not is_json_int(v):
            raise ValueError(f"ramified place {_show(v)} must be an integer")
        _check_json_digits(v, "a ramified place in s_inf")
        if not 0 <= v < f:
            raise ValueError(f"ramified place {v} is not one of the places 0..{f - 1}")
        if v in places:
            raise ValueError(f"ramified place {v} is listed twice")
        places.add(v)
    if s_fin_count < 0:
        raise ValueError(f"negative count of finite ramified places: {s_fin_count}")
    if (len(places) + s_fin_count) % 2 != 0:
        raise ValueError(
            "a quaternion algebra ramifies at an even number of places: "
            f"|s_inf|={len(places)}, s_fin_count={s_fin_count}"
        )
    if p >= P_BOUND:
        raise ValueError(f"p must be below {P_BOUND}, the bound of the exact primality test")
    if not _is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    return RamificationData(f=f, s_inf=frozenset(places), s_fin_count=s_fin_count, p=p)


def split_places(rd: RamificationData) -> list[int]:
    """Ascending list of archimedean places where the algebra splits."""
    s_inf = rd.s_inf
    return [i for i in range(rd.f) if i not in s_inf]


def shimura_dimension(rd: RamificationData) -> int:
    """Dimension of the attached quaternionic Shimura variety: the number of split places."""
    return rd.f - len(rd.s_inf)
