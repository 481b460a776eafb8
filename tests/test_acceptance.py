"""Acceptance suite: seven exact criteria, each timed against its budget.

Every test prints one pass line (visible with pytest -s) carrying the checked
count and the elapsed time, and fails hard on any inexact value.
"""

import time

from gocert import (
    CurveType,
    Stratum,
    build_certificate,
    certificate_to_doc,
    contradiction_check,
    decompose_chains,
    degree_bound,
    finiteness_verdict,
    induced_ramification,
    make_ramification,
    n_tau,
    serialize_certificate,
    shimura_dimension,
    split_places,
    strata_children,
    verify_document,
)
from gocert.oracle import all_ramifications, all_vanishing_sets, relaxed_profile_max
from helpers import document_mutations, enumerated_profile_max

# deterministic sample: (p, f, s_inf, (g, n)); s_fin_count fixes parity
SAMPLED_CONFIGS = (
    (2, 1, (), (0, 4)),
    (2, 2, (), (2, 0)),
    (2, 3, (0, 2), (2, 0)),
    (2, 4, (), (3, 0)),
    (2, 4, (1, 2), (2, 0)),
    (2, 5, (1, 3), (2, 0)),
    (3, 2, (), (2, 0)),
    (3, 2, (0, 1), (2, 0)),
    (3, 3, (), (0, 4)),
    (3, 4, (0, 3), (0, 4)),
    (3, 5, (0, 1, 2, 4), (0, 4)),
    (3, 5, (), (1, 2)),
    (5, 2, (1,), (0, 4)),
    (5, 3, (0, 1), (2, 0)),
    (5, 4, (), (2, 0)),
    (5, 4, (2,), (4, 0)),
    (5, 5, (1, 2), (1, 2)),
    (2, 5, (), (2, 0)),
    (3, 4, (), (2, 0)),
    (5, 5, (0, 1, 2, 3), (0, 4)),
)

ENUMERATION_BUDGET = 50_000


def _report(number: int, label: str, checked: int, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"[criterion {number}] PASS: {label} ({checked} checks, {elapsed:.2f}s < {limit:g}s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget: {elapsed:.2f}s"


def test_criterion_1_genus_two_rigidity():
    started = time.perf_counter()
    genus_two = finiteness_verdict(CurveType(2, 0))
    assert genus_two.finite and genus_two.count == 16 and genus_two.d == 1
    four_punctured = finiteness_verdict(CurveType(0, 4))
    assert four_punctured.finite and four_punctured.d == 1
    assert four_punctured.count == 1
    _report(1, "rank-two rigidity on (2,0) and (0,4)", 2, started, 1.0)


def test_criterion_2_augmented_set_parity():
    started = time.perf_counter()
    checked = 0
    for rd in all_ramifications(8, 2):
        for t in all_vanishing_sets(rd):
            checked += 1
            induced = induced_ramification(Stratum(rd=rd, t=t))
            t_new = induced.s_inf - rd.s_inf
            assert (len(induced.s_inf) + induced.s_fin_count) % 2 == 0
            assert t <= t_new  # T is contained in the augmented set
            assert len(t_new) % 2 == 0
            assert not (t_new - t) & (rd.s_inf | t)
    _report(2, "augmented ramification sets stay even and disjoint", checked, started, 30.0)


def test_criterion_3_dimension_descent_and_termination():
    started = time.perf_counter()
    checked = 0
    for rd in all_ramifications(8, 2):
        parent = shimura_dimension(rd)
        for t in all_vanishing_sets(rd):
            checked += 1
            st = Stratum(rd=rd, t=t)
            child = shimura_dimension(induced_ramification(st))
            odd = sum(1 for c in decompose_chains(st) if len(t.intersection(c)) % 2 == 1)
            assert child == parent - len(t) - odd
            if t:
                assert child < parent

    def walk(rd, depth):
        assert depth <= rd.f, "recursion deeper than the place count"
        total = 1
        if shimura_dimension(rd) >= 1:
            for _, child in strata_children(rd):
                total += walk(child, depth + 1)
        return total

    expanded = sum(walk(rd, 0) for rd in all_ramifications(8, 2))
    _report(3, f"strict descent; every tree terminates ({expanded} nodes expanded)",
            checked, started, 30.0)


def test_criterion_4_n_tau_tiling():
    started = time.perf_counter()
    checked = 0
    for rd in all_ramifications(8, 2, min_dim=1):
        checked += 1
        assert sum(n_tau(rd, tau) for tau in split_places(rd)) == rd.f
    _report(4, "backward-gap exponents tile the cycle", checked, started, 5.0)


def test_criterion_5_degree_bound_matches_brute_force():
    started = time.perf_counter()
    checked = 0
    enumerated = 0
    for p in (2, 3, 5):
        for rd in all_ramifications(5, p, min_dim=1):
            checked += 1
            splits = split_places(rd)
            space = (p**rd.f) ** (len(splits) - 1)
            per_anchor = []
            for anchor in splits:
                if space <= ENUMERATION_BUDGET:
                    value = enumerated_profile_max(rd, anchor)
                    enumerated += 1
                    assert value == relaxed_profile_max(rd, anchor)
                else:
                    value = relaxed_profile_max(rd, anchor)
                per_anchor.append(value)
            assert degree_bound(rd) == max(per_anchor)
    _report(5, f"degree bound equals the constrained maximum ({enumerated} anchors fully enumerated)",
            checked, started, 60.0)


def test_criterion_6_contradiction_ledger():
    started = time.perf_counter()
    for ct in (CurveType(2, 0), CurveType(0, 4)):
        verdict = contradiction_check(ct, 1, 0)
        assert verdict.conclusion == "contradiction"
        assert verdict.deg_tangent == -2 and verdict.deg_hom == -2
    checked = 2
    for g in range(11):
        for n in range(11):
            checked += 1
            verdict = contradiction_check(CurveType(g, n), 1, 0)
            assert (verdict.conclusion == "contradiction") == (2 * g - 2 + n == 2)
    _report(6, "equal-degree contradictions exactly at 2g-2+n=2", checked, started, 1.0)


def test_criterion_7_determinism_and_verification():
    started = time.perf_counter()
    docs = []
    for p, f, s_inf, (g, n) in SAMPLED_CONFIGS:
        rd = make_ramification(f, p, s_inf, len(s_inf) % 2)
        ct = CurveType(g, n)
        blobs = {serialize_certificate(build_certificate(rd, ct)) for _ in range(10)}
        assert len(blobs) == 1, f"non-deterministic output for p={p} f={f}"
        cert = build_certificate(rd, ct)
        result = verify_document(certificate_to_doc(cert))
        assert result, result.failures
        docs.append(certificate_to_doc(cert))

    rejected = 0
    streams = [document_mutations(doc) for doc in docs]
    while rejected < 50:
        progressed = False
        for stream in streams:
            mutation = next(stream, None)
            if mutation is None:
                continue
            label, mutated = mutation
            progressed = True
            result = verify_document(mutated)
            assert not result, f"mutation {label} was accepted"
            rejected += 1
            if rejected == 50:
                break
        assert progressed, "ran out of mutations before reaching 50"
    _report(7, f"20 configs byte-stable over 10 runs; {rejected} mutations rejected",
            len(SAMPLED_CONFIGS), started, 60.0)
