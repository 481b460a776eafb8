"""The benchmark's span tracer wraps gocert names by module attribute; each must exist and be called."""

import json
import sys
from pathlib import Path

import gocert

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def _module(importer):
    return gocert if importer == "gocert" else sys.modules[f"gocert.{importer}"]


def test_every_traced_boundary_is_a_callable_attribute():
    found = spans.boundaries()
    assert found
    for importer, name in found:
        assert callable(getattr(_module(importer), name, None)), f"{importer}.{name}"


def test_a_small_pass_calls_every_traced_boundary(monkeypatch):
    # a binding the program no longer calls would read 0 in every traced run
    found = spans.boundaries()
    # certificate lists model children by model_child_masks, which selfcheck checks against
    # strata_children, so strata's decompose_chains and induced_ramification are reached from
    # selfcheck's model-masks alone; certificate takes each bound from anchored_bound's per-root table, so
    # hasse.degree_bound is reached from selfcheck's case-split-oracle alone; selfcheck audits the
    # case split the certificate runs, built by RamificationData per root, against the oracle's
    # component_ends and relaxed_profile_exponents, and calls neither the datum-level kernel,
    # all_vanishing_sets, cycle_components, shimura_dimension nor split_places (the oracle
    # scans the backward gaps itself)
    assert len(found) == 43
    for importer, name in found:
        module = _module(importer)
        monkeypatch.setattr(module, name, getattr(module, name))  # restored at teardown
    tracer = spans.Tracer()
    tracer.install()

    rd = gocert.make_ramification(4, 3)  # the smallest f whose walk relabels a datum with children
    text = gocert.serialize_certificate(gocert.build_certificate(rd, gocert.CurveType(2, 0)))
    doc = json.loads(text)
    assert gocert.verify_document(doc)
    doc["nodes"][1]["degree_bound"] += 1
    assert not gocert.verify_document(doc)
    assert gocert.selfcheck(3, [2, 3]).ok

    called = set(tracer.binding)
    never = [f"{importer}.{name}" for i, (importer, name) in enumerate(found) if i not in called]
    assert never == []
