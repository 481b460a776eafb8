"""Exhaustive self-check suites over all small configurations.

Every suite enumerates the full configuration space up to the requested degree
bound and checks an invariant against an independent computation from the
oracle module (connectivity-based chain finding, fixpoint relaxation of the
Hasse constraints scanned from their definition, or a direct scan of the Hodge
degree inequality).  Failures carry the first counterexample found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .certificate import build_certificate, certificate_to_doc, verify_document
from .hasse import degree_bound, max_degree_sum
from .ledger import contradiction_check
from .oracle import (
    all_ramifications,
    all_vanishing_sets,
    cycle_components,
    hodge_degrees,
    relaxed_profile_max,
)
from .places import make_ramification, n_tau, shimura_dimension, split_places
from .rigidity import CurveType, euler_bound, finiteness_verdict, is_special
from .strata import Stratum, decompose_chains, induced_ramification


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checked: int
    scope: str
    counterexample: str | None
    seconds: float


@dataclass(frozen=True)
class SelfcheckReport:
    max_f: int
    primes: tuple[int, ...]
    suites: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(suite.passed for suite in self.suites)


def _all_strata(max_f: int, p: int) -> Iterator[Stratum]:
    for rd in all_ramifications(max_f, p, min_dim=1):
        for t in all_vanishing_sets(rd):
            yield Stratum(rd=rd, t=t)


def _suite_n_tau_tiling(max_f: int, p: int) -> tuple[int, str | None]:
    checked = 0
    for rd in all_ramifications(max_f, p, min_dim=1):
        checked += 1
        if sum(n_tau(rd, tau) for tau in split_places(rd)) != rd.f:
            return checked, f"f={rd.f} s_inf={sorted(rd.s_inf)}"
    return checked, None


def _suite_chain_partition(max_f: int, p: int) -> tuple[int, str | None]:
    checked = 0
    for st in _all_strata(max_f, p):
        checked += 1
        occupied = st.rd.s_inf | st.t
        chains = decompose_chains(st)
        covered: set[int] = set()
        for c in chains:
            if covered.intersection(c):
                return checked, f"overlap: f={st.rd.f} s_inf={sorted(st.rd.s_inf)} t={sorted(st.t)}"
            covered.update(c)
            head_next = (c[0] + 1) % st.rd.f
            tail_prev = (c[-1] - 1) % st.rd.f
            if head_next in occupied or tail_prev in occupied:
                return checked, f"not maximal: f={st.rd.f} s_inf={sorted(st.rd.s_inf)} t={sorted(st.t)}"
        if covered != occupied:
            return checked, f"not covering: f={st.rd.f} s_inf={sorted(st.rd.s_inf)} t={sorted(st.t)}"
        if {frozenset(c) for c in chains} != set(
            cycle_components(st.rd.f, frozenset(occupied))
        ):
            return checked, f"component mismatch: f={st.rd.f} s_inf={sorted(st.rd.s_inf)} t={sorted(st.t)}"
    return checked, None


def _suite_induced_parity_growth(max_f: int, p: int) -> tuple[int, str | None]:
    checked = 0
    for st in _all_strata(max_f, p):
        checked += 1
        induced = induced_ramification(st)
        t_new = induced.s_inf - st.rd.s_inf
        label = f"f={st.rd.f} s_inf={sorted(st.rd.s_inf)} t={sorted(st.t)}"
        if (len(induced.s_inf) + induced.s_fin_count) % 2 != 0:
            return checked, f"parity: {label}"
        if not st.t <= (st.rd.s_inf | t_new):
            return checked, f"T not contained in the augmented set: {label}"
        if len(t_new | st.t) % 2 != 0:
            return checked, f"odd augmented set: {label}"
        if (t_new - st.t) & (st.rd.s_inf | st.t):
            return checked, f"augmentation not disjoint: {label}"
    return checked, None


def _suite_dimension_descent(max_f: int, p: int) -> tuple[int, str | None]:
    checked = 0
    for st in _all_strata(max_f, p):
        checked += 1
        label = f"f={st.rd.f} s_inf={sorted(st.rd.s_inf)} t={sorted(st.t)}"
        parent = shimura_dimension(st.rd)
        child = shimura_dimension(induced_ramification(st))
        odd = sum(1 for c in decompose_chains(st) if len(st.t.intersection(c)) % 2 == 1)
        if child != parent - len(st.t) - odd:
            return checked, f"descent formula: {label}"
        if st.t and child >= parent:
            return checked, f"no strict descent: {label}"
    return checked, None


def _suite_degree_oracle(max_f: int, primes: tuple[int, ...]) -> tuple[int, str | None]:
    checked = 0
    for p in primes:
        for rd in all_ramifications(max_f, p, min_dim=1):
            checked += 1
            label = f"p={p} f={rd.f} s_inf={sorted(rd.s_inf)}"
            per_anchor = {anchor: relaxed_profile_max(rd, anchor) for anchor in split_places(rd)}
            if degree_bound(rd) != max(per_anchor.values()):
                return checked, label
            for anchor, expected in per_anchor.items():
                if max_degree_sum(rd, anchor) != expected:
                    return checked, f"anchor {anchor}: {label}"
    return checked, None


def _suite_degree_monotone(max_f: int, primes: tuple[int, ...]) -> tuple[int, str | None]:
    checked = 0
    ordered = sorted(primes)
    for lo, hi in zip(ordered, ordered[1:]):
        for rd_lo in all_ramifications(max_f, lo, min_dim=1):
            checked += 1
            rd_hi = make_ramification(rd_lo.f, hi, rd_lo.s_inf, rd_lo.s_fin_count)
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
            for ct in curves:
                checked += 1
                result = verify_document(certificate_to_doc(build_certificate(rd, ct)))
                if not result:
                    return checked, (
                        f"p={p} f={rd.f} s_inf={sorted(rd.s_inf)} curve=({ct.g},{ct.n}): "
                        + "; ".join(result.failures)
                    )
    return checked, None


def _scope(max_f: int, primes: tuple[int, ...]) -> str:
    if len(primes) == 1:
        return f"f<={max_f} p={primes[0]}"
    return f"f<={max_f} p in {','.join(map(str, primes)) or 'none'}"


def selfcheck(max_f: int, primes: list[int]) -> SelfcheckReport:
    """Run every suite over the configurations its scope names.

    The stratum suites use the first prime only (the place combinatorics does
    not depend on p), and the certificate round trip stops at f <= 4 and the
    first two primes because each check builds and verifies a whole tree.
    """
    prime_tuple = tuple(primes)
    if max_f < 1:
        return SelfcheckReport(max_f=max_f, primes=prime_tuple, suites=())
    base_p = prime_tuple[0] if prime_tuple else 2
    base = _scope(max_f, (base_p,))
    every = _scope(max_f, prime_tuple)
    curves = "g<=10 n<=10"
    trip_f, trip_primes = min(max_f, 4), prime_tuple[:2]
    suites: list[SuiteResult] = []
    runs: list[tuple[str, str, Callable[[], tuple[int, str | None]]]] = [
        ("n-tau-tiling", base, lambda: _suite_n_tau_tiling(max_f, base_p)),
        ("chain-partition", base, lambda: _suite_chain_partition(max_f, base_p)),
        ("induced-parity-growth", base, lambda: _suite_induced_parity_growth(max_f, base_p)),
        ("dimension-descent", base, lambda: _suite_dimension_descent(max_f, base_p)),
        ("degree-oracle", every, lambda: _suite_degree_oracle(max_f, prime_tuple)),
        ("degree-monotone", every, lambda: _suite_degree_monotone(max_f, prime_tuple)),
        ("rigidity-table", curves, _suite_rigidity_table),
        ("contradiction-agreement", curves, _suite_contradiction_agreement),
        (
            "certificate-roundtrip",
            _scope(trip_f, trip_primes),
            lambda: _suite_certificate_roundtrip(trip_f, trip_primes),
        ),
    ]
    for name, scope, run in runs:
        start = time.perf_counter()
        checked, counterexample = run()
        suites.append(
            SuiteResult(
                name=name,
                passed=counterexample is None,
                checked=checked,
                scope=scope,
                counterexample=counterexample,
                seconds=time.perf_counter() - start,
            )
        )
    return SelfcheckReport(max_f=max_f, primes=prime_tuple, suites=tuple(suites))
