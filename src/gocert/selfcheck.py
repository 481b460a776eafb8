"""Exhaustive self-check suites over all small configurations.

Every suite enumerates the full configuration space up to the requested degree
bound and checks its invariant against:
- strata-oracle: the oracle's components of each occupied set s_inf | T, for
  the chains (disjoint, maximal, covering, one per component) and for the
  induced datum's augmented set, s_inf | T plus the place before the backward
  end of each component that meets T oddly; equal data also have the induced
  datum's parity and dimension right;
- model-masks: the datum-level kernel, not the oracle: model_child_masks(m),
  the listing the case split uses, against the s_inf masks of strata_children
  on the model datum (f = m, s_inf = {}) for each m from 2 to max_f, so with
  strata-oracle the chain from oracle to kernel to listing is checked;
- degree-oracle: the oracle's fixpoint relaxation of the Hasse constraints,
  scanned from their definition, and the kernel's own bound at the next
  smaller prime;
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
Strata are built without Stratum's checks (see _suite_strata_oracle).  Each
oracle answer is computed once per input it depends on, within one
selfcheck() call: the oracle's components once per place count f and
occupied set s_inf | T, and the chain verdict once per f, occupied set and
chains (about 500 occupied sets serve the 9 330 strata at f <= 8), and the
degree oracle's Hasse constraints once per datum and prime for all its
anchors.
"""

from __future__ import annotations

import time
from typing import Iterator, NamedTuple

from . import places
from .certificate import build_certificate, certificate_to_doc, verify_document
from .hasse import degree_bound, max_degree_sums
from .ledger import contradiction_check
from .oracle import all_ramifications, all_vanishing_sets, component_ends, hodge_degrees, relaxed_profile_maxima
from .places import make_ramification
from .rigidity import CurveType, euler_bound, finiteness_verdict, is_special
from .strata import Chains, Stratum, decompose_chains, induced_ramification, model_child_masks, strata_children

# Largest max_f and most primes selfcheck accepts: --max-f 12 takes 9.4 s with the primes
# 2,3,5 and 13 s with 16 primes on a 2-core VM, and each step of f costs about 3 times the last.
MAX_SELFCHECK_F = 12
MAX_SELFCHECK_PRIMES = 16


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


# The components of an occupied set s_inf | T, each with the place just before its
# backward end, as the oracle gives them.
_Ends = list[tuple[frozenset[int], int]]


# The chain verdict depends only on f, the occupied set and the chains: the kind of
# its first failure, or None.
def _chain_partition(f: int, occupied: frozenset[int], chains: Chains, ends: _Ends) -> str | None:
    covered: set[int] = set()
    for c in chains:
        if not covered.isdisjoint(c):
            return "overlap"
        covered.update(c)
        head_next = (c[0] + 1) % f
        tail_prev = (c[-1] - 1) % f
        if head_next in occupied or tail_prev in occupied:
            return "not maximal"
    if covered != occupied:
        return "not covering"
    if {frozenset(c) for c in chains} != {comp for comp, _ in ends}:
        return "component mismatch"
    return None


_UNSEEN = object()


def _suite_strata_oracle(max_f: int, p: int) -> _Verdicts:
    """Each stratum's chains, then its induced datum, against the oracle's components.

    Each stratum is built once by tuple.__new__, without Stratum's checks as
    in strata_children: each T of all_vanishing_sets is a proper subset of
    rd's integer split places by construction.  Its chains are decomposed
    once and handed to induced_ramification.  Many strata share an occupied
    set s_inf | T, so the oracle's component_ends are kept per (f, occupied
    set), and the chain verdict per (f, occupied set, chains): chains that
    split one occupied set another way are checked afresh.  The induced
    datum must be rd with s_inf | T, plus the place before the backward end
    of each component that meets T oddly, as its s_inf.
    """
    components: dict[tuple[int, frozenset[int]], _Ends] = {}
    partitions: dict[tuple[int, frozenset[int], Chains], str | None] = {}
    for rd in all_ramifications(max_f, p, min_dim=1):
        f, s_inf, s_fin_count = rd.f, rd.s_inf, rd.s_fin_count
        for t in all_vanishing_sets(rd):
            st = tuple.__new__(Stratum, (rd, t))
            chains = decompose_chains(st)
            occupied = s_inf | t
            ends = components.get((f, occupied))
            if ends is None:
                ends = components[f, occupied] = component_ends(f, occupied)
            problem = partitions.get((f, occupied, chains), _UNSEEN)
            if problem is _UNSEEN:
                problem = partitions[f, occupied, chains] = _chain_partition(f, occupied, chains, ends)
            if problem is None:
                induced = induced_ramification(st, chains=chains)
                augmented = set(occupied)
                for comp, before_end in ends:
                    if len(t.intersection(comp)) & 1:
                        augmented.add(before_end)
                if induced != (f, augmented, s_fin_count, p):
                    got = f"({induced.f}, {sorted(induced.s_inf)}, {induced.s_fin_count}, {induced.p})"
                    problem = f"induced {got}, expected ({f}, {sorted(augmented)}, {s_fin_count}, {p})"
            yield problem and f"{problem}: f={f} s_inf={sorted(s_inf)} t={sorted(t)}"


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


def _suite_degree_oracle(max_f: int, primes: tuple[int, ...]) -> _Verdicts:
    """One case per datum and prime, each datum at the primes in ascending order.

    degree_bound and max_degree_sums are checked against the oracle's
    fixpoint maxima, and the bound against the one at the next smaller prime.
    """
    ordered = sorted(primes)
    for rd in all_ramifications(max_f, ordered[0], min_dim=1):
        last = None  # (prime, bound) at the next smaller prime
        for p in ordered:
            rd_p = rd._replace(p=p)  # selfcheck() has checked p
            bound = degree_bound(rd_p)
            per_anchor = relaxed_profile_maxima(rd_p)
            if bound != max(per_anchor.values()):
                yield f"p={p} f={rd.f} s_inf={sorted(rd.s_inf)}"
            elif (sums := max_degree_sums(rd_p)) != per_anchor:
                anchor = min(a for a, _ in sums.items() ^ per_anchor.items())
                yield f"anchor {anchor}: p={p} f={rd.f} s_inf={sorted(rd.s_inf)}"
            elif last and bound < last[1]:
                yield f"not monotone in p: p={last[0]}->{p} f={rd.f} s_inf={sorted(rd.s_inf)}"
            else:
                yield None
            last = p, bound


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
                result = verify_document(certificate_to_doc(build_certificate(rd, ct)))
                if result:
                    yield None
                else:
                    where = f"p={p} f={rd.f} s_inf={sorted(rd.s_inf)} curve=({ct.g},{ct.n})"
                    yield f"{where}: {'; '.join(result.failures)}"


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

    strata-oracle and model-masks use the first prime only (the place
    combinatorics does not depend on p), and the certificate round trip stops
    at f <= 4 and the first two primes because each check builds and verifies
    a whole tree.
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
    base = _scope(max_f, (base_p,))
    every = _scope(max_f, prime_tuple)
    trip_f, trip_primes = min(max_f, 4), prime_tuple[:2]
    trip = _scope(trip_f, trip_primes)
    suites = (
        _run("strata-oracle", base, _suite_strata_oracle(max_f, base_p)),
        _run("model-masks", base, _suite_model_masks(max_f, base_p)),
        _run("degree-oracle", every, _suite_degree_oracle(max_f, prime_tuple)),
        _run("curve-table", "g<=10 n<=10", _suite_curve_table()),
        _run("certificate-roundtrip", trip, _suite_certificate_roundtrip(trip_f, trip_primes)),
    )
    return SelfcheckReport(max_f=max_f, primes=prime_tuple, suites=suites)
