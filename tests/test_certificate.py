import hashlib
import json
import time

import pytest

from gocert import (
    TOOL_VERSION,
    CurveType,
    build_certificate,
    certificate_to_doc,
    make_ramification,
    serialize_certificate,
    verify_certificate,
    verify_document,
)
from gocert import certificate
from gocert.certificate import config_from_doc, error_document
from gocert.oracle import all_ramifications
from helpers import document_mutations

GENUS_TWO = CurveType(2, 0)
FOUR_PUNCTURED = CurveType(0, 4)


def test_worked_example_quadratic_field():
    cert = build_certificate(make_ramification(2, 3), GENUS_TWO)
    assert cert.verdict == "finite"
    assert len(cert.nodes) == 3
    root, left, right = cert.nodes
    assert root.kind == "ordinary_locus" and root.dim == 2
    assert root.degree_bound == 4 and root.polarization_bound == 8
    assert root.contradiction is not None and root.contradiction.conclusion == "contradiction"
    assert (root.contradiction.deg_tangent, root.contradiction.deg_hom) == (-2, -2)
    for node, t in ((left, (0,)), (right, (1,))):
        assert node.kind == "dimension_zero" and node.dim == 0
        assert node.path == (t,) and node.t == frozenset(t)
        assert node.fiber_dim == 1
        assert node.degree_bound is None and node.contradiction is None


def test_worked_example_single_place():
    cert = build_certificate(make_ramification(1, 2), FOUR_PUNCTURED)
    assert cert.verdict == "finite"
    (node,) = cert.nodes
    assert node.kind == "ordinary_locus"
    assert node.degree_bound == 1 and node.polarization_bound == 2
    assert (node.contradiction.deg_tangent, node.contradiction.deg_hom) == (-2, -2)


def test_worked_example_nonspecial_curve():
    cert = build_certificate(make_ramification(2, 3), CurveType(3, 0))
    assert cert.verdict == "inconclusive"
    assert cert.rigidity.finite is False
    root = cert.nodes[0]
    assert root.contradiction.conclusion == "inconclusive"
    assert (root.contradiction.deg_tangent, root.contradiction.deg_hom) == (-4, -2)


def test_descent_nodes_carry_their_own_ordinary_data():
    cert = build_certificate(make_ramification(3, 2), GENUS_TWO)
    assert len(cert.nodes) == 7
    descents = [n for n in cert.nodes if n.kind == "stratum_descent"]
    assert descents, "expected positive-dimensional children"
    for node in descents:
        assert node.dim >= 1
        assert node.degree_bound is not None and node.contradiction is not None
        assert "N-from-dimension-count" in node.derived_flags
        assert node.fiber_dim is not None


def test_extrapolated_type_is_flagged_but_finite():
    cert = build_certificate(make_ramification(2, 3), CurveType(1, 2))
    assert cert.verdict == "finite"
    assert cert.rigidity.count == 4
    assert "extrapolated-(1,2)" in cert.nodes[0].derived_flags
    plain = build_certificate(make_ramification(2, 3), GENUS_TWO)
    assert "extrapolated-(1,2)" not in plain.nodes[0].derived_flags


def test_dimension_zero_root():
    rd = make_ramification(2, 3, {0, 1})
    cert = build_certificate(rd, GENUS_TWO)
    (node,) = cert.nodes
    assert node.kind == "dimension_zero"
    assert cert.verdict == "finite"
    assert build_certificate(rd, CurveType(3, 0)).verdict == "inconclusive"


def test_tree_shape_invariants():
    for rd in all_ramifications(5, 2):
        cert = build_certificate(rd, GENUS_TWO)
        dims = {node.path: node.dim for node in cert.nodes}
        for node in cert.nodes:
            assert (node.kind == "dimension_zero") == (node.dim == 0)
            if node.dim > 0:
                assert node.polarization_bound == 2 * node.degree_bound
            if node.path:
                assert dims[node.path[:-1]] > node.dim
            else:
                assert node.t == frozenset()


def test_serialization_is_canonical_and_integer_only():
    cert = build_certificate(make_ramification(4, 5, {1, 2}), FOUR_PUNCTURED)
    text = serialize_certificate(cert)
    assert text.endswith("\n") and "\n" not in text[:-1]
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == text

    def walk(value):
        assert not isinstance(value, float), f"float leaked: {value!r}"
        if isinstance(value, dict):
            for k, v in value.items():
                assert isinstance(k, str)
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)

    walk(doc)


def test_repeated_builds_are_byte_identical():
    rd = make_ramification(4, 3, {0, 3})
    blobs = {serialize_certificate(build_certificate(rd, GENUS_TWO)) for _ in range(5)}
    assert len(blobs) == 1


def test_verify_accepts_fresh_certificates():
    for p in (2, 3):
        for rd in all_ramifications(4, p):
            for ct in (GENUS_TWO, FOUR_PUNCTURED, CurveType(3, 0)):
                result = verify_certificate(build_certificate(rd, ct))
                assert result, result.failures


def test_verify_accepts_larger_samples():
    for f, s_inf in ((6, ()), (7, (0, 3, 4, 6)), (8, (1, 2, 5, 6))):
        cert = build_certificate(make_ramification(f, 2, s_inf), GENUS_TWO)
        assert verify_certificate(cert)


def test_verify_rejects_every_mutation():
    cert = build_certificate(make_ramification(3, 2), GENUS_TWO)
    doc = certificate_to_doc(cert)
    count = 0
    for label, mutated in document_mutations(doc):
        count += 1
        result = verify_document(mutated)
        assert not result, f"mutation {label} was not rejected"
        assert result.failures
    assert count >= 25


def test_verify_reports_the_node_path_of_a_decremented_bound():
    doc = certificate_to_doc(build_certificate(make_ramification(3, 2), GENUS_TWO))
    doc["nodes"][2]["degree_bound"] -= 1
    result = verify_document(doc)
    assert not result
    assert any("nodes[2]" in f and "degree_bound" in f for f in result.failures)


def test_verify_rejects_non_decreasing_child_dimension():
    doc = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    doc["nodes"][1]["dim"] = doc["nodes"][0]["dim"]
    result = verify_document(doc)
    assert not result
    assert any("not smaller" in f for f in result.failures)


def test_verify_rejects_foreign_tool_version():
    doc = certificate_to_doc(build_certificate(make_ramification(1, 2), GENUS_TWO))
    doc["tool_version"] = "someone-else-1.0"
    assert not verify_document(doc)
    assert TOOL_VERSION.startswith("gocert-")


def test_verify_rejects_error_documents_and_junk():
    assert not verify_document(error_document("bad input"))
    assert not verify_document([])
    assert not verify_document({"verdict": "finite"})


def test_verify_survives_hostile_node_structures():
    doc = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    for path in (3, [[[]]], ["ab", 1], None):
        hostile = json.loads(json.dumps(doc))
        hostile["nodes"][1]["path"] = path
        result = verify_document(hostile)
        assert not result and result.failures
    hostile = json.loads(json.dumps(doc))
    hostile["nodes"][1]["dim"] = True
    assert not verify_document(hostile)


def test_verify_rejects_a_small_document_that_declares_a_large_tree():
    doc = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    doc["config"]["rd"]["f"] = 40
    doc["nodes"] = [{"dim": 40, "kind": "ordinary_locus", "path": [], "t": []}]
    assert len(json.dumps(doc)) < 400
    start = time.perf_counter()
    result = verify_document(doc)
    assert time.perf_counter() - start < 1.0
    assert not result
    assert result.failures == ("node count is 1, expected at least 2^40 - 1",)


def test_verify_compares_node_count_before_rebuilding(monkeypatch):
    doc = certificate_to_doc(build_certificate(make_ramification(6, 3), GENUS_TWO))
    doc["config"]["rd"]["f"] = 8

    def no_rebuild(*args):
        raise AssertionError("verify rebuilt a document of the wrong size")

    monkeypatch.setattr(certificate, "build_certificate", no_rebuild)
    result = verify_document(doc)
    assert not result
    assert result.failures == ("node count is 495, expected 10815",)


def test_verify_bounds_a_flat_document_that_passes_the_size_guard(monkeypatch):
    # one root and 2^14 - 2 leaves: the shape audit and the bit-length guard
    # pass, and the f=14 tree below the config has 393 365 759 nodes
    doc = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    doc["config"]["rd"]["f"] = 14
    doc["nodes"] = [{"dim": 14, "kind": "ordinary_locus", "path": [], "t": []}] + [
        {"dim": 0, "kind": "dimension_zero", "path": [[i]], "t": [i]} for i in range(2**14 - 2)
    ]

    def no_rebuild(*args):
        raise AssertionError("verify rebuilt a document over the size limit")

    monkeypatch.setattr(certificate, "build_certificate", no_rebuild)
    result = verify_document(doc)
    assert not result
    assert result.failures == (f"the case split has more than {certificate.MAX_TREE_NODES} nodes",)


def test_build_refuses_a_case_split_over_the_limit():
    assert certificate.MAX_TREE_NODES == 100_000
    with pytest.raises(ValueError, match="more than 100000 nodes"):
        build_certificate(make_ramification(10, 3), GENUS_TWO)
    assert len(build_certificate(make_ramification(10, 3, {7, 8}), GENUS_TWO).nodes) == 10815


def test_build_walks_each_distinct_datum_once(monkeypatch):
    calls = {"strata_children": 0, "degree_bound": 0}
    for name in calls:
        original = getattr(certificate, name)

        def counted(rd, name=name, original=original):
            calls[name] += 1
            return original(rd)

        monkeypatch.setattr(certificate, name, counted)
    cert = build_certificate(make_ramification(7, 3), GENUS_TWO)
    distinct = {node.rd for node in cert.nodes if node.dim > 0}
    assert len(cert.nodes) == 1723 and len(distinct) == 29
    assert calls == {"strata_children": 29, "degree_bound": 29}


@pytest.mark.parametrize(
    "f, p, s_inf, curve, sha256",
    [
        (6, 3, (), GENUS_TWO, "c68a3bb693a1c98abdda1230376ff42cc7042139b07e379c1b46d2139bac6e91"),
        (5, 2, (1, 2), FOUR_PUNCTURED, "de606ab00fc604efcebd50e430e15fba882d02cdbdb09fc3855da360d7a7070c"),
        (4, 5, (), CurveType(3, 0), "ce0dcd97c4e2d120d40000ef770403b29902c815454924f99496205d11aedfc4"),
    ],
)
def test_certificate_bytes_are_pinned(f, p, s_inf, curve, sha256):
    blob = serialize_certificate(build_certificate(make_ramification(f, p, s_inf), curve))
    assert hashlib.sha256(blob.encode()).hexdigest() == sha256


def test_config_parsing_rejects_malformed_documents():
    good = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    rd, ct = config_from_doc(good)
    assert (rd.f, rd.p, ct.g, ct.n) == (2, 3, 2, 0)
    bad = json.loads(json.dumps(good))
    bad["config"]["rd"]["s_inf"] = [True]
    with pytest.raises(ValueError):
        config_from_doc(bad)
    bad = json.loads(json.dumps(good))
    bad["config"]["rd"].pop("p")
    with pytest.raises(ValueError):
        config_from_doc(bad)
    bad = json.loads(json.dumps(good))
    bad["config"]["curve"]["g"] = "two"
    with pytest.raises(ValueError):
        config_from_doc(bad)


def test_finite_verdict_over_every_small_datum():
    # the verdict depends on the curve type and the contradiction at each node,
    # so it is uniform over the ramification data; check that exhaustively
    for rd in all_ramifications(8, 2):
        assert build_certificate(rd, GENUS_TWO).verdict == "finite"
    for p in (3, 5):
        for rd in all_ramifications(5, p):
            assert build_certificate(rd, FOUR_PUNCTURED).verdict == "finite"
            assert build_certificate(rd, CurveType(4, 0)).verdict == "inconclusive"
