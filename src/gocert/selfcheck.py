"""Exhaustive self-check suites over all small configurations.

Every suite enumerates the full configuration space up to the requested degree
bound and checks an invariant against an independent computation from the
oracle module (connectivity-based chain finding, fixpoint relaxation of the
Hasse constraints scanned from their definition, or a direct scan of the Hodge
degree inequality).  Failures carry the first counterexample found.

The three stratum suites share one walk: each stratum is built, split into
chains once, and descended with those chains, and each suite counts and stops as
if it walked alone.  Each oracle answer is computed once per input it depends
on, within one selfcheck() call: the chain-partition verdict once per place
count f, occupied set s_inf | T and chains (about 500 occupied sets serve the
9 330 strata at f <= 8), and the degree oracle's Hasse constraints once per
datum for all its anchors.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from . import places
from .certificate import _case_split, build_certificate, certificate_to_doc, verify_document
from .hasse import degree_bound, max_degree_sums
from .ledger import contradiction_check
from .oracle import (
    all_ramifications,
    all_vanishing_sets,
    cycle_components,
    hodge_degrees,
    relaxed_profile_maxima,
)
from .places import RamificationData, make_ramification, n_tau, shimura_dimension, split_places
from .rigidity import CurveType, euler_bound, finiteness_verdict, is_special
from .strata import Chains, Stratum, decompose_chains, induced_ramification

# Largest max_f selfcheck accepts, the largest measured: --max-f 12 --primes 2,3,5 takes
# 17 s on a 2-core VM, and each step of f near there costs about 3 times the one before.
MAX_SELFCHECK_F = 12


class SuiteResult(NamedTuple):
    """seconds is wall time; the three stratum suites share one walk and each report
    a third of its seconds, so the seconds of all suites still sum to the time spent."""

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


def _suite_n_tau_tiling(max_f: int, p: int) -> tuple[int, str | None]:
    checked = 0
    for rd in all_ramifications(max_f, p, min_dim=1):
        checked += 1
        if sum(n_tau(rd, tau) for tau in split_places(rd)) != rd.f:
            return checked, f"f={rd.f} s_inf={sorted(rd.s_inf)}"
    return checked, None


# The chain-partition verdict depends only on f, the occupied set s_inf | T and the chains;
# the other two stratum checks see the stratum, its chains, its induced datum and its
# datum's dimension.  Each returns the kind of its first failure, or None.
def _chain_partition(f: int, occupied: frozenset[int], chains: Chains) -> str | None:
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
    if {frozenset(c) for c in chains} != set(cycle_components(f, occupied)):
        return "component mismatch"
    return None


def _induced_parity_growth(st: Stratum, chains: Chains, induced: RamificationData, parent: int) -> str | None:
    s_inf, t = st.rd.s_inf, st.t
    t_new = induced.s_inf - s_inf
    if (len(induced.s_inf) + induced.s_fin_count) % 2 != 0:
        return "parity"
    if not t <= (s_inf | t_new):
        return "T not contained in the augmented set"
    if len(t_new | t) % 2 != 0:
        return "odd augmented set"
    if (t_new - t) & (s_inf | t):
        return "augmentation not disjoint"
    return None


def _dimension_descent(st: Stratum, chains: Chains, induced: RamificationData, parent: int) -> str | None:
    child = shimura_dimension(induced)
    t = st.t
    odd = sum(1 for c in chains if len(t.intersection(c)) % 2 == 1)
    if child != parent - len(t) - odd:
        return "descent formula"
    if t and child >= parent:
        return "no strict descent"
    return None


STRATUM_SUITES = ("chain-partition", "induced-parity-growth", "dimension-descent")


def _suite_strata(max_f: int, p: int) -> list[tuple[int, str | None]]:
    """(checked, counterexample) of each of STRATUM_SUITES, from one walk of the strata.

    A suite stops at its first counterexample while the others go on, so its
    count and message are those of a walk of its own; the walk ends once all fail.
    Each stratum is built and its chains decomposed once, and handed to
    induced_ramification.  Many strata share an occupied set s_inf | T, so the
    chain-partition verdict is kept per (occupied set, chains) while f stays the
    same: chains that split one occupied set another way are checked afresh.
    """
    checked = [0] * len(STRATUM_SUITES)
    found: list[str | None] = [None] * len(STRATUM_SUITES)
    verdicts: dict[tuple[frozenset[int], Chains], str | None] = {}

    def chain_partition(st: Stratum, chains: Chains, induced: RamificationData, parent: int) -> str | None:
        key = (st.rd.s_inf | st.t, chains)
        if key not in verdicts:
            verdicts[key] = _chain_partition(st.rd.f, *key)
        return verdicts[key]

    checks = (chain_partition, _induced_parity_growth, _dimension_descent)
    f = 0
    for rd in all_ramifications(max_f, p, min_dim=1):
        if rd.f != f:
            f = rd.f
            verdicts.clear()
        parent = shimura_dimension(rd)
        for t in all_vanishing_sets(rd):
            st = Stratum(rd=rd, t=t)
            chains = decompose_chains(st)
            induced = induced_ramification(st, chains=chains)
            for i, check in enumerate(checks):
                if found[i] is None:
                    checked[i] += 1
                    problem = check(st, chains, induced, parent)
                    if problem is not None:
                        found[i] = f"{problem}: f={rd.f} s_inf={sorted(rd.s_inf)} t={sorted(t)}"
            if None not in found:
                return list(zip(checked, found))
    return list(zip(checked, found))


def _suite_degree_oracle(max_f: int, primes: tuple[int, ...]) -> tuple[int, str | None]:
    checked = 0
    for p in primes:
        for rd in all_ramifications(max_f, p, min_dim=1):
            checked += 1
            per_anchor = relaxed_profile_maxima(rd)
            if degree_bound(rd) != max(per_anchor.values()):
                return checked, f"p={p} f={rd.f} s_inf={sorted(rd.s_inf)}"
            if (sums := max_degree_sums(rd)) != per_anchor:
                anchor = min(a for a, _ in sums.items() ^ per_anchor.items())
                return checked, f"anchor {anchor}: p={p} f={rd.f} s_inf={sorted(rd.s_inf)}"
    return checked, None


def _suite_degree_monotone(max_f: int, primes: tuple[int, ...]) -> tuple[int, str | None]:
    checked = 0
    ordered = sorted(primes)
    for lo, hi in zip(ordered, ordered[1:]):
        for rd_lo in all_ramifications(max_f, lo, min_dim=1):
            checked += 1
            rd_hi = rd_lo._replace(p=hi)  # selfcheck() has checked hi
            if degree_bound(rd_lo) > degree_bound(rd_hi):
                return checked, f"p={lo}->{hi} f={rd_lo.f} s_inf={sorted(rd_lo.s_inf)}"
    return checked, None


def _suite_rigidity_table() -> tuple[int, str | None]:
    checked = 0
    for g in range(11):
        for n in range(11):
            checked += 1
            ct = CurveType(g, n)
            e = euler_bound(ct)
            degrees = hodge_degrees(g, n)
            if bool(degrees) != (e >= 2):
                return checked, f"(g,n)=({g},{n}): nonempty iff euler>=2 fails"
            singleton_iso = len(degrees) == 1 and degrees[0][1]
            if is_special(ct) != (e == 2) or singleton_iso != (e == 2):
                return checked, f"(g,n)=({g},{n}): special characterization fails"
            expected = (True, degrees[0][0], 4**g) if singleton_iso else (False, None, None)
            verdict = finiteness_verdict(ct)
            if (verdict.finite, verdict.d, verdict.count) != expected:
                return checked, f"(g,n)=({g},{n}): verdict is {verdict}, expected {expected}"
    return checked, None


def _suite_contradiction_agreement() -> tuple[int, str | None]:
    checked = 0
    for g in range(11):
        for n in range(11):
            checked += 1
            ct = CurveType(g, n)
            verdict = contradiction_check(ct, 1, 0)
            if (verdict.conclusion == "contradiction") != (euler_bound(ct) == 2):
                return checked, f"(g,n)=({g},{n})"
    return checked, None


def _suite_certificate_roundtrip(max_f: int, primes: tuple[int, ...]) -> tuple[int, str | None]:
    checked = 0
    curves = (CurveType(2, 0), CurveType(0, 4), CurveType(3, 0))
    for p in primes:
        for rd in all_ramifications(max_f, p, min_dim=1):
            split = _case_split(rd)  # one walk serves the builds for every curve
            for ct in curves:
                checked += 1
                result = verify_document(certificate_to_doc(build_certificate(rd, ct, split=split)))
                if not result:
                    return checked, (
                        f"p={p} f={rd.f} s_inf={sorted(rd.s_inf)} curve=({ct.g},{ct.n}): "
                        + "; ".join(result.failures)
                    )
    return checked, None


def _scope(max_f: int, primes: tuple[int, ...]) -> str:
    if len(primes) == 1:
        return f"f<={max_f} p={primes[0]}"
    return f"f<={max_f} p in {','.join(map(str, primes))}"


def selfcheck(max_f: int, primes: list[int]) -> SelfcheckReport:
    """Run every suite over the configurations its scope names.

    The stratum suites use the first prime only (the place combinatorics does
    not depend on p), and the certificate round trip stops at f <= 4 and the
    first two primes because each check builds and verifies a whole tree.
    Raises ValueError, before any suite runs, for a max_f that is not a JSON
    integer, an empty prime list, a p that make_ramification rejects, a p
    listed twice (it would be counted as coverage twice), or max_f above
    MAX_SELFCHECK_F.
    """
    # called through its module, like certificate._mistyped_field: not a span tracer binding
    if not places.is_json_int(max_f):
        raise ValueError(f"max_f must be an integer, got {max_f!r}")
    prime_tuple = tuple(primes)
    if not prime_tuple:
        raise ValueError("need at least one prime")
    seen: set[int] = set()
    for p in prime_tuple:
        make_ramification(1, p)  # the same rule as every datum: an integer prime below P_BOUND
        if p in seen:
            raise ValueError(f"p={p} is listed twice")
        seen.add(p)
    if max_f > MAX_SELFCHECK_F:
        raise ValueError(f"max_f must be at most {MAX_SELFCHECK_F}, got {max_f}")
    if max_f < 1:
        return SelfcheckReport(max_f=max_f, primes=prime_tuple, suites=())
    base_p = prime_tuple[0]
    base = _scope(max_f, (base_p,))
    every = _scope(max_f, prime_tuple)
    curves = "g<=10 n<=10"
    trip_f, trip_primes = min(max_f, 4), prime_tuple[:2]
    suites: list[SuiteResult] = []
    runs: list[tuple[tuple[str, ...], str, Callable[[], list[tuple[int, str | None]]]]] = [
        (("n-tau-tiling",), base, lambda: [_suite_n_tau_tiling(max_f, base_p)]),
        (STRATUM_SUITES, base, lambda: _suite_strata(max_f, base_p)),
        (("degree-oracle",), every, lambda: [_suite_degree_oracle(max_f, prime_tuple)]),
        (("degree-monotone",), every, lambda: [_suite_degree_monotone(max_f, prime_tuple)]),
        (("rigidity-table",), curves, lambda: [_suite_rigidity_table()]),
        (("contradiction-agreement",), curves, lambda: [_suite_contradiction_agreement()]),
        (
            ("certificate-roundtrip",),
            _scope(trip_f, trip_primes),
            lambda: [_suite_certificate_roundtrip(trip_f, trip_primes)],
        ),
    ]
    for names, scope, run in runs:
        start = time.perf_counter()
        results = run()
        seconds = (time.perf_counter() - start) / len(names)
        for name, (checked, counterexample) in zip(names, results, strict=True):
            suites.append(
                SuiteResult(
                    name=name,
                    passed=counterexample is None,
                    checked=checked,
                    scope=scope,
                    counterexample=counterexample,
                    seconds=seconds,
                )
            )
    return SelfcheckReport(max_f=max_f, primes=prime_tuple, suites=tuple(suites))
