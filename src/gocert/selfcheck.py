"""Exhaustive self-check suites over all small configurations.

Every suite enumerates the full configuration space up to the requested degree
bound and checks its invariant against:
- n-tau-tiling: the identity that the n_tau of the split places sum to f;
- chain-partition: the oracle's connectivity-based chain finding;
- augmented-oracle: the oracle's augmented set on those components, s_inf | T
  plus the place before the backward end of each component that meets T
  oddly; equal data also have the induced datum's parity and dimension right;
- model-masks: the datum-level kernel, not the oracle: model_child_masks(m),
  the listing the case split uses, against the s_inf masks of strata_children
  on the model datum (f = m, s_inf = {}) for each m from 2 to max_f, so with
  the stratum suites the chain from oracle to kernel to listing is checked;
- degree-oracle: the oracle's fixpoint relaxation of the Hasse constraints,
  scanned from their definition;
- degree-monotone: the kernel's own bound at the next larger prime;
- rigidity-table: the oracle's direct scan of the Hodge degree inequality;
- contradiction-agreement: the rule that the equal-degree contradiction holds
  exactly when 2g - 2 + n = 2;
- certificate-roundtrip: verify_document, which rebuilds with the same kernel
  and expands the expected nodes by the expansion that listed the document's
  (certificate._preorder), so it cannot see a kernel fault that both builds
  share.
Failures carry the first counterexample found.

Each suite is a generator that yields, per case, one verdict for each suite
sharing its walk, and one runner (_run) counts them.  The two stratum suites
share one walk: each stratum is built, split into chains once, and descended
with those chains; strata are built without Stratum's checks (see
_suite_strata).  The two curve suites share the walk of the 121 curve types.
Each suite counts and stops as if it walked alone.  Each oracle answer is
computed once per input it depends on, within one selfcheck() call: the
oracle's components once per place count f and occupied set s_inf | T, and
the chain-partition verdict once per f, occupied set and chains (about 500
occupied sets serve the 9 330 strata at f <= 8), the degree oracle's Hasse
constraints once per datum for all its anchors, and degree_bound once per
datum and prime, for degree-oracle and degree-monotone.
"""

from __future__ import annotations

import time
from typing import Iterator, NamedTuple

from . import places
from .certificate import build_certificate, certificate_to_doc, verify_document
from .hasse import degree_bound, max_degree_sums
from .ledger import contradiction_check
from .oracle import all_ramifications, all_vanishing_sets, component_ends, hodge_degrees, relaxed_profile_maxima
from .places import RamificationData, make_ramification, n_tau, split_places
from .rigidity import CurveType, euler_bound, finiteness_verdict, is_special
from .strata import Chains, Stratum, decompose_chains, induced_ramification, model_child_masks, strata_children

# Largest max_f and most primes selfcheck accepts: --max-f 12 takes 9.4 s with the primes
# 2,3,5 and 13 s with 16 primes on a 2-core VM, and each step of f costs about 3 times the last.
MAX_SELFCHECK_F = 12
MAX_SELFCHECK_PRIMES = 16


class SuiteResult(NamedTuple):
    """seconds is wall time; suites that share a walk (the three stratum suites, the two
    curve suites) each report an equal share of its seconds, so the seconds of all
    suites still sum to the time spent."""

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


# Per case, one verdict for each suite sharing the walk: None, or that suite's
# counterexample, a non-empty text built only when the check fails.
_Verdicts = Iterator[tuple[str | None, ...]]


def _suite_n_tau_tiling(max_f: int, p: int) -> _Verdicts:
    for rd in all_ramifications(max_f, p, min_dim=1):
        tiled = sum(n_tau(rd, tau) for tau in split_places(rd)) == rd.f
        yield (None if tiled else f"f={rd.f} s_inf={sorted(rd.s_inf)}",)


# The components of an occupied set s_inf | T, each with the place just before its
# backward end, as the oracle gives them.
_Ends = list[tuple[frozenset[int], int]]


# The chain-partition verdict depends only on f, the occupied set and the chains: the
# kind of its first failure, or None.
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


STRATUM_SUITES = ("chain-partition", "augmented-oracle")
# what _suite_strata yields for every stratum that passes both, and _run skips at once
_STRATUM_PASSED = (None,) * len(STRATUM_SUITES)
_UNSEEN = object()


def _suite_strata(max_f: int, p: int) -> _Verdicts:
    """One walk of the strata for the two STRATUM_SUITES.

    Each stratum is built once by tuple.__new__, without Stratum's checks as
    in strata_children: each T of all_vanishing_sets is a proper subset of
    rd's integer split places by construction.  Its chains are decomposed
    once and handed to induced_ramification.  Many strata share an occupied
    set s_inf | T, so the oracle's component_ends are kept per (f, occupied
    set), and the chain-partition verdict per (f, occupied set, chains):
    chains that split one occupied set another way are checked afresh.  The
    induced datum must be rd with s_inf | T, plus the place before the
    backward end of each component that meets T oddly, as its s_inf.
    """
    components: dict[tuple[int, frozenset[int]], _Ends] = {}
    partitions: dict[tuple[int, frozenset[int], Chains], str | None] = {}
    for rd in all_ramifications(max_f, p, min_dim=1):
        f, s_inf, s_fin_count = rd.f, rd.s_inf, rd.s_fin_count
        for t in all_vanishing_sets(rd):
            st = tuple.__new__(Stratum, (rd, t))
            chains = decompose_chains(st)
            induced = induced_ramification(st, chains=chains)
            occupied = s_inf | t
            ends = components.get((f, occupied))
            if ends is None:
                ends = components[f, occupied] = component_ends(f, occupied)
            partition = partitions.get((f, occupied, chains), _UNSEEN)
            if partition is _UNSEEN:
                partition = partitions[f, occupied, chains] = _chain_partition(f, occupied, chains, ends)
            augmented = set(occupied)
            for comp, before_end in ends:
                if len(t.intersection(comp)) & 1:
                    augmented.add(before_end)
            mismatch = None
            if induced != (f, augmented, s_fin_count, p):
                got = f"({induced.f}, {sorted(induced.s_inf)}, {induced.s_fin_count}, {induced.p})"
                mismatch = f"induced {got}, expected ({f}, {sorted(augmented)}, {s_fin_count}, {p})"
            if partition or mismatch:
                where = f": f={f} s_inf={sorted(s_inf)} t={sorted(t)}"
                yield tuple(problem and problem + where for problem in (partition, mismatch))
            else:
                yield _STRATUM_PASSED


def _suite_model_masks(max_f: int, p: int) -> _Verdicts:
    """One case per T of each model datum (f = m, s_inf = {}), 2 <= m <= max_f: its mask against strata_children's."""
    for m in range(2, max_f + 1):
        masks = model_child_masks(m)
        children = strata_children(make_ramification(m, p))
        if len(masks) != len(children):
            yield (f"m={m}: {len(masks)} masks for {len(children)} children",)
            continue
        for got, (t, child) in zip(masks, children):
            want = sum([1 << x for x in child.s_inf])
            yield (None if got == want else f"m={m} t={sorted(t)}: mask {got}, expected {want}",)


class _Bounds(dict[RamificationData, int]):
    """degree_bound per datum, computed at the first lookup: degree-oracle fills it, and
    degree-monotone reads it and computes what degree-oracle left out after a failure."""

    def __missing__(self, rd: RamificationData) -> int:
        bound = self[rd] = degree_bound(rd)
        return bound


def _suite_degree_oracle(max_f: int, primes: tuple[int, ...], bounds: _Bounds) -> _Verdicts:
    for p in primes:
        for rd in all_ramifications(max_f, p, min_dim=1):
            per_anchor = relaxed_profile_maxima(rd)
            if bounds[rd] != max(per_anchor.values()):
                yield (f"p={p} f={rd.f} s_inf={sorted(rd.s_inf)}",)
            elif (sums := max_degree_sums(rd)) != per_anchor:
                anchor = min(a for a, _ in sums.items() ^ per_anchor.items())
                yield (f"anchor {anchor}: p={p} f={rd.f} s_inf={sorted(rd.s_inf)}",)
            else:
                yield (None,)


def _suite_degree_monotone(max_f: int, primes: tuple[int, ...], bounds: _Bounds) -> _Verdicts:
    ordered = sorted(primes)
    for lo, hi in zip(ordered, ordered[1:]):
        for rd_lo in all_ramifications(max_f, lo, min_dim=1):
            rd_hi = rd_lo._replace(p=hi)  # selfcheck() has checked hi
            monotone = bounds[rd_lo] <= bounds[rd_hi]
            yield (None if monotone else f"p={lo}->{hi} f={rd_lo.f} s_inf={sorted(rd_lo.s_inf)}",)


def _suite_curves() -> _Verdicts:
    """One walk of the curve types (g, n), g and n <= 10, for rigidity-table and contradiction-agreement."""
    for g in range(11):
        for n in range(11):
            ct = CurveType(g, n)
            e = euler_bound(ct)
            degrees = hodge_degrees(g, n)
            singleton_iso = len(degrees) == 1 and degrees[0][1]
            expected = (True, degrees[0][0], 4**g) if singleton_iso else (False, None, None)
            verdict = finiteness_verdict(ct)
            rigidity = None
            if bool(degrees) != (e >= 2):
                rigidity = f"(g,n)=({g},{n}): nonempty iff euler>=2 fails"
            elif is_special(ct) != (e == 2) or singleton_iso != (e == 2):
                rigidity = f"(g,n)=({g},{n}): special characterization fails"
            elif (verdict.finite, verdict.d, verdict.count) != expected:
                rigidity = f"(g,n)=({g},{n}): verdict is {verdict}, expected {expected}"
            contradicted = contradiction_check(ct, 1, 0).conclusion == "contradiction"
            yield rigidity, None if contradicted == (e == 2) else f"(g,n)=({g},{n})"


def _suite_certificate_roundtrip(max_f: int, primes: tuple[int, ...]) -> _Verdicts:
    curves = (CurveType(2, 0), CurveType(0, 4), CurveType(3, 0))
    for p in primes:
        for rd in all_ramifications(max_f, p, min_dim=1):
            for ct in curves:
                cert = build_certificate(rd, ct)
                result = verify_document(certificate_to_doc(cert))
                if result:
                    yield (None,)
                else:
                    where = f"p={p} f={rd.f} s_inf={sorted(rd.s_inf)} curve=({ct.g},{ct.n})"
                    yield (f"{where}: {'; '.join(result.failures)}",)


def _run(names: tuple[str, ...], scope: str, walk: _Verdicts) -> list[SuiteResult]:
    """One result per name for the suites sharing walk, each counted as if it walked alone.

    A suite that never fails has checked every case; one that fails has checked
    the cases up to its first counterexample, which it keeps.  The walk ends
    once every suite in it has failed.
    """
    start = time.perf_counter()
    cases = 0
    failed_at = [0] * len(names)
    found: list[str | None] = [None] * len(names)
    for verdicts in walk:
        cases += 1
        if verdicts is not _STRATUM_PASSED and any(verdicts):
            for i, problem in enumerate(verdicts):
                if problem and found[i] is None:
                    failed_at[i], found[i] = cases, problem
            if None not in found:
                break
    seconds = (time.perf_counter() - start) / len(names)
    return [
        SuiteResult(name, problem is None, count or cases, scope, problem, seconds)
        for name, count, problem in zip(names, failed_at, found, strict=True)
    ]


def _scope(max_f: int, primes: tuple[int, ...]) -> str:
    if len(primes) == 1:
        return f"f<={max_f} p={primes[0]}"
    return f"f<={max_f} p in {','.join(map(str, primes))}"


def selfcheck(max_f: int, primes: list[int]) -> SelfcheckReport:
    """Run every suite over the configurations its scope names.

    The stratum suites and model-masks use the first prime only (the place
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
    bounds = _Bounds()
    runs = (
        (("n-tau-tiling",), base, _suite_n_tau_tiling(max_f, base_p)),
        (STRATUM_SUITES, base, _suite_strata(max_f, base_p)),
        (("model-masks",), base, _suite_model_masks(max_f, base_p)),
        (("degree-oracle",), every, _suite_degree_oracle(max_f, prime_tuple, bounds)),
        (("degree-monotone",), every, _suite_degree_monotone(max_f, prime_tuple, bounds)),
        (("rigidity-table", "contradiction-agreement"), "g<=10 n<=10", _suite_curves()),
        (("certificate-roundtrip",), trip, _suite_certificate_roundtrip(trip_f, trip_primes)),
    )
    suites = tuple(result for names, scope, walk in runs for result in _run(names, scope, walk))
    return SelfcheckReport(max_f=max_f, primes=prime_tuple, suites=suites)
