"""Exhaustive self-check suites over all small configurations.

Every suite enumerates the full configuration space up to the requested degree
bound and checks its invariant against:
- case-split-oracle: one walk over every datum, which relaxes each datum's
  Hasse constraints once, scanned from their definition, by the oracle's
  fixpoint.  Up to dimension 9, at the first prime, it replays the oracle's
  components of s_inf | T for every edge of the case split the certificate
  carries (certificate._case_split), checks the root's bound against the
  oracle's degree maximum, and checks the table's own shape and relabeling:
  the table holds the root and its distinct direct children, and every
  other entry is that datum's own root entry.  Then, at each prime, it
  checks degree_bound against the oracle's maximum;
- model-masks: the datum-level kernel, not the oracle: model_child_masks(m),
  the listing the case split uses, against the s_inf masks of strata_children
  on the model datum (f = m, s_inf = {}) for each m from 2 to max_f; the
  tests check that kernel against the oracle;
- curve-table: the oracle's direct scan of the Hodge degree inequality, and
  the rule that the equal-degree contradiction holds exactly when
  2g - 2 + n = 2;
- certificate-roundtrip: verify_document, which rebuilds with the same kernel
  and expands the expected nodes by the expansion that listed the document's
  (certificate._preorder), so it cannot see a kernel fault that both builds
  share.

Each suite is a generator that yields, per case, None or the counterexample,
a non-empty text that names the check that failed and where; one runner
(_run) counts the cases up to the first counterexample and times the suite.
A raise of the builder is the counterexample of the case that reached it.
Each oracle answer is computed once per input it depends on, and no suite
reads another's: the oracle's components once per place count f and occupied
set s_inf | T (494 occupied sets serve the 8 828 edges at f <= 8), and its
degree fixpoint once per datum, whose maximum at each prime is kept only
while the walk is on that datum.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Iterator, NamedTuple

from . import places
from .certificate import _TREE_SIZES, _case_split, build_certificate, certificate_to_doc, verify_document
from .hasse import degree_bound
from .ledger import contradiction_check
from .oracle import all_ramifications, component_ends, hodge_degrees, relaxed_profile_exponents
from .places import RamificationData, make_ramification
from .rigidity import CurveType, euler_bound, finiteness_verdict, is_special
from .strata import model_child_masks, strata_children

# Largest max_f and most primes selfcheck accepts: --max-f 12 takes 2.2 to 2.4 s with the primes 2,3,5
# and 3.4 to 4.0 s with 16 primes on a 2-core VM, and each step of f costs about 2 to 3 times the last.
MAX_SELFCHECK_F = 12
MAX_SELFCHECK_PRIMES = 16
_MAX_DIM = len(_TREE_SIZES) - 1  # the largest dimension case-split-oracle audits: _case_split refuses the next


class SuiteResult(NamedTuple):
    """seconds is the suite's own wall time; checked counts its cases up to and including
    the first counterexample, or all of them when it passed."""

    name: str
    passed: bool
    checked: int
    scope: str
    counterexample: str | None
    seconds: float


class SelfcheckReport(NamedTuple):
    max_f: int
    primes: tuple[int, ...]
    suites: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(suite.passed for suite in self.suites)


# Per case, None or the suite's counterexample, a non-empty text built only when the check fails.
_Verdicts = Iterator[str | None]


def _places(mask: int) -> list[int]:
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def _suite_case_split_oracle(max_f: int, primes: tuple[int, ...]) -> _Verdicts:
    """Per datum: up to dimension _MAX_DIM, one case per edge of its own entry and one as a root; then one per prime.

    Each f is walked from the largest s_inf down, so every datum below a root
    was a root already; a root keeps only its bound and its children's s_inf
    masks, and a datum's oracle maxima live while the walk is on it.
    _case_split(rd) is built at the first prime; a raise is that root's
    counterexample.  Each edge's child must have the oracle's s_inf: s_inf | T
    plus the place before the backward end of each component of s_inf | T
    that meets T oddly, T read from the edge's position in the bitmask order
    of rd's split places.  Then the root's bound must be the oracle's maximum
    at the first prime (None at dimension 0), the table must hold exactly rd
    and its distinct direct children, and every other entry must equal that
    datum's own root entry, the relabeling fact.  Last, degree_bound at each
    prime, in the order given, must be the oracle's maximum there.
    """
    p = primes[0]
    for f in range(1, max_f + 1):
        ends: dict[int, list[tuple[int, int]]] = {}  # per occupied mask, each component's mask and place before its end
        roots: dict[int, tuple[int | None, tuple[int | None, ...]]] = {}  # per s_inf mask, its own root entry
        for size in range(f, -1, -1):
            for s in combinations(range(f), size):
                s_inf, where = frozenset(s), f"f={f} s_inf={list(s)}"
                maxima = []  # the oracle's degree maximum at each prime, none at dimension 0
                if size < f:
                    profiles = relaxed_profile_exponents(f, s_inf).values()
                    maxima = [max([sum([q**e for e in exponents]) for exponents in profiles]) for q in primes]
                if f - size <= _MAX_DIM:
                    rd = RamificationData(f, s_inf, size & 1, p)
                    try:
                        table = _case_split(rd)
                        bound, edges = table[rd]
                    except Exception as exc:  # a fault of the producer, reported as this root's
                        yield f"raised {exc!r}: {where}"
                        continue
                    masks = {d: sum([1 << x for x in d.s_inf]) for d in table}
                    s_mask, t_masks = masks[rd], [0]
                    for x in range(f):
                        if not s_mask >> x & 1:
                            t_masks += [t | 1 << x for t in t_masks]
                    child_masks = tuple(map(masks.get, edges))
                    for t, got, child in zip(t_masks[1:-1], child_masks, edges):
                        occupied = s_mask | t
                        if (comps := ends.get(occupied)) is None:
                            found = component_ends(f, frozenset(_places(occupied)))
                            comps = ends[occupied] = [(sum([1 << x for x in c]), e) for c, e in found]
                        want = occupied
                        for comp, before_end in comps:
                            if (comp & t).bit_count() & 1:
                                want |= 1 << before_end
                        yield None if got == want else f"t={_places(t)}: child s_inf {sorted(child.s_inf)}, expected {_places(want)}: {where}"
                    want_bound = maxima[0] if maxima else None
                    problem = None
                    if bound != want_bound:
                        problem = f"bound {bound}, expected {want_bound}"
                    elif len(edges) != (n_edges := max(len(t_masks) - 2, 0)):
                        problem = f"{len(edges)} edges, expected {n_edges}"
                    elif table.keys() != {rd, *edges}:
                        problem = "the table is not the root and its distinct children"
                    elif wrong := [d for d, (b, e) in table.items() if d != rd and roots.get(masks.get(d)) != (b, tuple(map(masks.get, e)))]:
                        problem = f"entry {sorted(wrong[0].s_inf)} differs from its own root entry"
                    roots[s_mask] = bound, child_masks
                    yield problem and f"{problem}: {where}"
                for q, want_bound in zip(primes, maxima):
                    bound = degree_bound(RamificationData(f, s_inf, size & 1, q))  # selfcheck() has checked q
                    yield None if bound == want_bound else f"p={q} bound {bound}, expected {want_bound}: {where}"


def _suite_model_masks(max_f: int, p: int) -> _Verdicts:
    """One case per T of each model datum (f = m, s_inf = {}), 2 <= m <= max_f: its mask against strata_children's."""
    for m in range(2, max_f + 1):
        masks = model_child_masks(m)
        children = strata_children(make_ramification(m, p))
        if len(masks) != len(children):
            yield f"m={m}: {len(masks)} masks for {len(children)} children"
            continue
        for got, (t, child) in zip(masks, children):
            want = sum([1 << x for x in child.s_inf])
            yield None if got == want else f"m={m} t={sorted(t)}: mask {got}, expected {want}"


def _suite_curve_table() -> _Verdicts:
    """One case per curve type (g, n), g and n <= 10: the rigidity verdict, then the contradiction rule."""
    for g in range(11):
        for n in range(11):
            ct = CurveType(g, n)
            e = euler_bound(ct)
            degrees = hodge_degrees(g, n)
            singleton_iso = len(degrees) == 1 and degrees[0][1]
            expected = (True, degrees[0][0], 4**g) if singleton_iso else (False, None, None)
            verdict = finiteness_verdict(ct)
            if bool(degrees) != (e >= 2):
                yield f"(g,n)=({g},{n}): nonempty iff euler>=2 fails"
            elif is_special(ct) != (e == 2) or singleton_iso != (e == 2):
                yield f"(g,n)=({g},{n}): special characterization fails"
            elif (verdict.finite, verdict.d, verdict.count) != expected:
                yield f"(g,n)=({g},{n}): verdict is {verdict}, expected {expected}"
            elif (contradiction_check(ct, 1, 0).conclusion == "contradiction") != (e == 2):
                yield f"(g,n)=({g},{n}): contradiction iff 2g-2+n=2 fails"
            else:
                yield None


def _suite_certificate_roundtrip(max_f: int, primes: tuple[int, ...]) -> _Verdicts:
    curves = (CurveType(2, 0), CurveType(0, 4), CurveType(3, 0))
    for p in primes:
        for rd in all_ramifications(max_f, p, min_dim=1):
            for ct in curves:
                try:
                    result = verify_document(certificate_to_doc(build_certificate(rd, ct)))
                    problem = None if result else "; ".join(result.failures)
                except Exception as exc:  # a fault of the builder, reported as this datum's
                    problem = f"raised {exc!r}"
                yield problem and f"p={p} f={rd.f} s_inf={sorted(rd.s_inf)} curve=({ct.g},{ct.n}): {problem}"


def _run(name: str, scope: str, walk: _Verdicts) -> SuiteResult:
    """The suite's result: it stops at its first counterexample, which it keeps."""
    start = time.perf_counter()
    checked, problem = 0, None
    for problem in walk:
        checked += 1
        if problem:
            break
    return SuiteResult(name, problem is None, checked, scope, problem, time.perf_counter() - start)


def _scope(max_f: int, primes: tuple[int, ...]) -> str:
    if len(primes) == 1:
        return f"f<={max_f} p={primes[0]}"
    return f"f<={max_f} p in {','.join(map(str, primes))}"


def selfcheck(max_f: int, primes: list[int]) -> SelfcheckReport:
    """Run every suite over the configurations its scope names.

    case-split-oracle checks every datum's bound at every prime, and builds
    the case split at the first prime only (the place combinatorics does not
    depend on p) and up to dimension _MAX_DIM, which its scope states from
    max_f 10 on; model-masks uses the first prime only, and the certificate
    round trip stops at f <= 4 and the first two primes because each check
    builds and verifies a whole tree.
    Raises ValueError, before any suite runs, for a max_f that is not a JSON
    integer, an empty prime list, more than MAX_SELFCHECK_PRIMES primes, a p
    that make_ramification rejects, a p listed twice (it would be counted as
    coverage twice), or max_f above MAX_SELFCHECK_F or below 0.
    """
    # called through its module, so the benchmark's span tracer does not count it as a binding
    if not places.is_json_int(max_f):
        raise ValueError(f"max_f must be an integer, got {places._show(max_f)}")
    prime_tuple = tuple(primes)
    if not prime_tuple:
        raise ValueError("need at least one prime")
    if len(prime_tuple) > MAX_SELFCHECK_PRIMES:
        raise ValueError(f"at most {MAX_SELFCHECK_PRIMES} primes, got {len(prime_tuple)}")
    seen: set[int] = set()
    for p in prime_tuple:
        make_ramification(1, p)  # the same rule as every datum: an integer prime below P_BOUND
        if p in seen:
            raise ValueError(f"p={p} is listed twice")
        seen.add(p)
    if max_f > MAX_SELFCHECK_F:
        raise ValueError(f"max_f must be at most {MAX_SELFCHECK_F}, got {max_f}")
    if max_f < 0:
        raise ValueError(f"max_f must be at least 0, got {max_f}")
    if max_f == 0:
        return SelfcheckReport(max_f=max_f, primes=prime_tuple, suites=())
    base_p = prime_tuple[0]
    split = f"{_scope(max_f, prime_tuple)}; case split p={base_p}"
    if max_f > _MAX_DIM:
        split += f" dim<={_MAX_DIM}"
    trip_f, trip_primes = min(max_f, 4), prime_tuple[:2]
    trip = _scope(trip_f, trip_primes)
    suites = (
        _run("case-split-oracle", split, _suite_case_split_oracle(max_f, prime_tuple)),
        _run("model-masks", _scope(max_f, (base_p,)), _suite_model_masks(max_f, base_p)),
        _run("curve-table", "g<=10 n<=10", _suite_curve_table()),
        _run("certificate-roundtrip", trip, _suite_certificate_roundtrip(trip_f, trip_primes)),
    )
    return SelfcheckReport(max_f=max_f, primes=prime_tuple, suites=suites)
