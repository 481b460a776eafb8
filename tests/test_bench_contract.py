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
    # selfcheck builds its strata by tuple.__new__, so calls no Stratum binding; certificate lists
    # model children by model_child_masks, which selfcheck checks against strata_children, and takes
    # each bound from split_degree_bound, so hasse.degree_bound is reached from selfcheck alone;
    # selfcheck asks the oracle for component_ends, and calls neither cycle_components,
    # shimura_dimension nor split_places (the oracle scans the backward gaps itself)
    assert len(found) == 46
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
