import gc
import hashlib
import json
import time
from collections import Counter

import pytest

from gocert import (
    TOOL_VERSION,
    CurveType,
    build_certificate,
    certificate_to_doc,
    make_ramification,
    selfcheck,
    serialize_certificate,
    shimura_dimension,
    verify_document,
)
from gocert import certificate
from gocert.certificate import error_document, parse_config, serialize_document
from gocert.cli import main
from gocert.oracle import all_ramifications
from helpers import document_mutations, leaf_mutations

GENUS_TWO = CurveType(2, 0)
FOUR_PUNCTURED = CurveType(0, 4)
NODE_KEYS = ["degree_bound", "dim", "fiber_dim", "kind", "path", "polarization_bound", "rd"]


def doc_nodes(cert):
    return certificate_to_doc(cert)["nodes"]


def node_datum(node):
    return make_ramification(**node["rd"])


def test_worked_example_quadratic_field():
    cert = build_certificate(make_ramification(2, 3), GENUS_TWO)
    assert cert.verdict == "finite"
    nodes = doc_nodes(cert)
    assert len(nodes) == 3
    root, left, right = nodes
    assert root["kind"] == "ordinary_locus" and root["dim"] == 2
    assert root["degree_bound"] == 4 and root["polarization_bound"] == 8
    assert cert.contradiction.conclusion == "contradiction"
    assert (cert.contradiction.deg_tangent, cert.contradiction.deg_hom) == (-2, -2)
    for node, t in ((left, [0]), (right, [1])):
        assert node["kind"] == "dimension_zero" and node["dim"] == 0
        assert node["path"] == [t]
        assert node["fiber_dim"] == 1
        assert node["degree_bound"] is None and node["polarization_bound"] is None


def test_worked_example_single_place():
    cert = build_certificate(make_ramification(1, 2), FOUR_PUNCTURED)
    assert cert.verdict == "finite"
    (node,) = doc_nodes(cert)
    assert node["kind"] == "ordinary_locus"
    assert node["degree_bound"] == 1 and node["polarization_bound"] == 2
    assert (cert.contradiction.deg_tangent, cert.contradiction.deg_hom) == (-2, -2)


def test_worked_example_nonspecial_curve():
    cert = build_certificate(make_ramification(2, 3), CurveType(3, 0))
    assert cert.verdict == "inconclusive"
    assert cert.rigidity.finite is False
    assert cert.contradiction.conclusion == "inconclusive"
    assert (cert.contradiction.deg_tangent, cert.contradiction.deg_hom) == (-4, -2)
    assert cert.steps["root"] == ((), ())


def test_descent_nodes_carry_their_own_ordinary_data():
    cert = build_certificate(make_ramification(3, 2), GENUS_TWO)
    nodes = doc_nodes(cert)
    assert len(nodes) == 7
    descents = [n for n in nodes if n["kind"] == "stratum_descent"]
    assert descents, "expected positive-dimensional children"
    for node in descents:
        assert node["dim"] >= 1
        assert node["degree_bound"] is not None
        assert node["fiber_dim"] is not None
    assert cert.contradiction.conclusion == "contradiction"
    assert "N-from-dimension-count" in cert.steps["stratum_descent"].flags
    assert "N-from-dimension-count" not in cert.steps["ordinary_locus"].flags


def test_extrapolated_type_is_flagged_but_finite():
    cert = build_certificate(make_ramification(2, 3), CurveType(1, 2))
    assert cert.verdict == "finite"
    assert cert.rigidity.count == 4
    assert "extrapolated-(1,2)" in cert.steps["root"].flags
    plain = build_certificate(make_ramification(2, 3), GENUS_TWO)
    assert "extrapolated-(1,2)" not in plain.steps["root"].flags
    assert plain.steps["root"].prose and plain.steps["root"].prose == cert.steps["root"].prose


def test_dimension_zero_root():
    rd = make_ramification(2, 3, {0, 1})
    cert = build_certificate(rd, GENUS_TWO)
    (node,) = doc_nodes(cert)
    assert node["kind"] == "dimension_zero"
    assert cert.verdict == "finite"
    assert build_certificate(rd, CurveType(3, 0)).verdict == "inconclusive"


def test_tree_shape_invariants():
    for rd in all_ramifications(5, 2):
        cert = build_certificate(rd, GENUS_TWO)
        nodes = doc_nodes(cert)
        dims = {json.dumps(node["path"]): node["dim"] for node in nodes}
        for node in nodes:
            path, dim = node["path"], node["dim"]
            assert (node["kind"] == "dimension_zero") == (dim == 0)
            if dim > 0:
                assert node["polarization_bound"] == 2 * node["degree_bound"]
            if path:
                assert dims[json.dumps(path[:-1])] > dim
                assert path[-1] == sorted(set(path[-1]))
        assert {node["kind"] for node in nodes} <= set(certificate.KIND_STEPS)
        assert cert.steps == {**certificate.KIND_STEPS, "root": cert.steps["root"]}


def test_nodes_carry_only_per_datum_fields_and_steps_appear_once():
    for f in (3, 7):
        cert = build_certificate(make_ramification(f, 3), GENUS_TWO)
        text = serialize_certificate(cert)
        doc = json.loads(text)
        assert all(sorted(node) == NODE_KEYS for node in doc["nodes"])
        for steps in certificate.KIND_STEPS.values():
            assert text.count(json.dumps(list(steps.prose), separators=(",", ":"))) == 1
        assert text.count('"prose"') == 4 and text.count('"deg_tangent"') == 1
    assert len(doc_nodes(cert)) == 1723 and len(text) < 350_000


def test_documents_share_no_mutable_objects_between_nodes():
    # the node encoder works out each datum's fields once; no node may hand its
    # lists or dicts to another, since callers edit documents in place
    cert = build_certificate(make_ramification(5, 3), GENUS_TWO)
    doc, fresh = certificate_to_doc(cert), certificate_to_doc(cert)
    nodes = doc["nodes"]
    occurs = Counter(json.dumps(node["rd"]) for node in nodes)
    i = next(i for i, node in enumerate(nodes) if node["path"] and occurs[json.dumps(node["rd"])] > 2)
    nodes[i]["rd"]["s_inf"].append(99)
    nodes[i]["rd"]["extra"] = True
    nodes[i]["path"][0][0] += 1
    assert nodes[i] != fresh["nodes"][i]
    assert nodes[:i] + nodes[i + 1 :] == fresh["nodes"][:i] + fresh["nodes"][i + 1 :]


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


@pytest.mark.parametrize("p", [2, 3, 1000000007])
def test_serialized_text_equals_the_encoded_document(p):
    # analyze writes the text from per-datum templates; certificate_to_doc is the reference
    curves = [GENUS_TWO, FOUR_PUNCTURED, CurveType(3, 0), CurveType(1, 2), CurveType(1, 1)]
    for rd in all_ramifications(6, p):
        for curve in curves:
            cert = build_certificate(rd, curve)
            assert serialize_certificate(cert) == serialize_document(certificate_to_doc(cert)), (rd, curve)


def test_serialization_builds_no_node_documents(monkeypatch):
    cert = build_certificate(make_ramification(5, 3), GENUS_TWO)
    expected = serialize_certificate(cert)

    def refuse(*args):
        raise AssertionError("serialize_certificate built the node documents")

    monkeypatch.setattr(certificate, "_walk_nodes", refuse)
    assert serialize_certificate(cert) == expected


def test_repeated_builds_are_byte_identical():
    rd = make_ramification(4, 3, {0, 3})
    blobs = {serialize_certificate(build_certificate(rd, GENUS_TWO)) for _ in range(5)}
    assert len(blobs) == 1


def test_verify_accepts_fresh_certificates():
    for p in (2, 3):
        for rd in all_ramifications(4, p):
            for ct in (GENUS_TWO, FOUR_PUNCTURED, CurveType(3, 0)):
                result = verify_document(certificate_to_doc(build_certificate(rd, ct)))
                assert result, result.failures


def test_verify_accepts_larger_samples():
    for f, s_inf in ((6, ()), (7, (0, 3, 4, 6)), (8, (1, 2, 5, 6))):
        cert = build_certificate(make_ramification(f, 2, s_inf), GENUS_TWO)
        assert verify_document(certificate_to_doc(cert))


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


def test_verify_rejects_every_single_leaf_mutation_at_its_field():
    # the comparison with the rebuild is the only node check: a changed path,
    # dim or kind is reported as a differing field like any other value
    checked = 0
    for rd in all_ramifications(4, 3):
        for ct in (GENUS_TWO, CurveType(3, 0)):
            cert = build_certificate(rd, ct)
            doc, refs = certificate_to_doc(cert), certificate_to_doc(cert)["nodes"]
            assert verify_document(doc)
            for where in leaf_mutations(doc):
                checked += 1
                result = verify_document(doc)
                assert not result, where
                if where[0] == "nodes":
                    # the whole message: a reused expected node must not leak
                    # another node's path or fiber_dim into it
                    i, ref = where[1], refs[where[1]]
                    message = certificate._first_mismatch(f"nodes[{i}] path={ref['path']}", doc["nodes"][i], ref)
                    assert message.startswith(f"nodes[{i}] path={ref['path']}: field {where[2]!r} ")
                    assert result.failures[0] == message, (where, result.failures)
    assert checked == 4698


def test_verify_verdicts_and_messages_over_the_agreement_corpus_are_pinned():
    # every datum f <= 4 at p = 2 and 3 with three curves: each genuine document,
    # every document mutation and every single-leaf mutation; the digest covers
    # each document's label or leaf location, verdict and failure messages
    digest, count, accepted = hashlib.sha256(), 0, 0

    def record(where, result):
        nonlocal count, accepted
        count += 1
        accepted += result.ok
        digest.update(json.dumps([where, result.ok, list(result.failures)]).encode() + b"\n")

    for p in (2, 3):
        for rd in all_ramifications(4, p):
            for ct in (GENUS_TWO, FOUR_PUNCTURED, CurveType(3, 0)):
                doc = certificate_to_doc(build_certificate(rd, ct))
                record("genuine", verify_document(doc))
                for label, mutated in document_mutations(doc):
                    record(label, verify_document(mutated))
                for where in leaf_mutations(doc):
                    record(where, verify_document(doc))
    assert (count, accepted) == (20634, 180)
    assert digest.hexdigest() == "19c7a8dca3f4cfd76644cad9c8eb9e514e7b25d41abbd288ece87732ce888ef2"


def test_verify_rejects_a_value_of_another_json_type_in_the_scalar_blocks():
    # json.loads gives 1 == True and 2.0 == 2; verify must not accept one for the other
    doc = certificate_to_doc(build_certificate(make_ramification(3, 3), GENUS_TWO))
    assert verify_document(doc)
    cases = {
        ("rigidity", "finite"): 1,
        ("rigidity", "count"): 16.0,
        ("rigidity", "euler_bound"): 2.0,
        ("contradiction", "forced_iso"): 1,
        ("contradiction", "deg_tangent"): -2.0,
        ("rigidity", "d"): True,
    }
    for (block, key), value in cases.items():
        mutated = json.loads(json.dumps(doc))
        expected = mutated[block][key]
        assert value == expected and type(value) is not type(expected)
        mutated[block][key] = value
        assert verify_document(mutated).failures == (f"{block}: field {key!r} is {value!r}, expected {expected!r}",)


def test_certificates_list_no_node_records(monkeypatch, capsys):
    # analyze (build and serialize) walks the case-split table by datum: no
    # node is visited one by one; verify visits each node once, through _walk_nodes
    def refuse(*args):
        raise AssertionError("analyze walked the tree node by node")

    with monkeypatch.context() as patched:
        patched.setattr(certificate, "_walk_nodes", refuse)
        cert = build_certificate(make_ramification(6, 3), GENUS_TWO)
        text = serialize_certificate(cert)
        assert main(["analyze", "--f", "6", "--p", "3", "--curve", "2,0"]) == 0
    assert "nodes=495," in capsys.readouterr().err
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6bec000afc114a0e10b554fc0d93241b2ef506d8502dacad55b8e6f0ce9e9d2c"
    )
    doc = json.loads(text)
    assert verify_document(doc)
    doc["nodes"][100]["fiber_dim"] += 1
    failures = verify_document(doc).failures
    assert len(failures) == 1 and failures[0].startswith("nodes[100] path=") and "'fiber_dim'" in failures[0]


def test_nodes_expand_the_split_table_in_preorder():
    cert = build_certificate(make_ramification(5, 3), GENUS_TWO)
    nodes = doc_nodes(cert)
    assert len(nodes) == cert.split[cert.rd].size and nodes == doc_nodes(cert)
    data = [node_datum(node) for node in nodes]
    assert set(cert.split) == set(data)
    for i, node in enumerate(nodes):
        entry = cert.split[data[i]]
        assert (node["dim"], node["degree_bound"]) == (entry.dim, entry.degree_bound)
        # the children follow, each after the whole subtree of its elder sibling
        j = i + 1
        for t, child, fiber in entry.edges:
            assert (nodes[j]["path"], data[j], nodes[j]["fiber_dim"]) == (node["path"] + [list(t)], child, fiber)
            j += cert.split[child].size


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
    assert result.failures == ("nodes[1] path=[[0]]: field 'dim' is 2, expected 0",)


def test_verify_rejects_foreign_tool_version():
    doc = certificate_to_doc(build_certificate(make_ramification(1, 2), GENUS_TWO))
    doc["tool_version"] = "someone-else-1.0"
    assert not verify_document(doc)
    assert TOOL_VERSION.startswith("gocert-")


def test_verify_rejects_error_documents_and_junk():
    assert not verify_document(error_document("bad input"))
    assert not verify_document([])
    assert not verify_document({"verdict": "finite"})
    # the earlier format, with the contradiction in every node, has no reader
    old = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    contradiction = old.pop("contradiction")
    del old["steps"]
    for node in old["nodes"]:
        node["contradiction"] = contradiction if node["dim"] else None
    assert verify_document(old).failures == (
        "document keys are wrong (missing ['contradiction', 'steps'], extra [])",
    )


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
    # a missing field whose expected value is null, and a node that is not an object
    hostile = json.loads(json.dumps(doc))
    del hostile["nodes"][0]["fiber_dim"]
    hostile["nodes"][0]["extra"] = None
    assert verify_document(hostile).failures == ("nodes[0] path=[]: field 'extra' is unexpected",)
    del hostile["nodes"][0]["extra"]
    assert verify_document(hostile).failures == ("nodes[0] path=[]: field 'fiber_dim' is missing",)
    hostile["steps"]["root"]["flags"] = ["unchecked"]
    steps_failure, node_failure = verify_document(hostile).failures
    assert steps_failure.startswith("steps: field 'root' is {'flags': ['unchecked'], 'prose': [")
    assert node_failure == "nodes[0] path=[]: field 'fiber_dim' is missing"
    # a key that is not a string, which JSON text cannot carry, is named before any keys are sorted
    hostile = json.loads(json.dumps(doc))
    hostile["rigidity"][1] = 2
    assert verify_document(hostile).failures == ("rigidity: field 1 is unexpected",)
    hostile = json.loads(json.dumps(doc))
    hostile["nodes"][1][0] = 1
    assert verify_document(hostile).failures == ("nodes[1] path=[[0]]: field 0 is unexpected",)
    hostile = json.loads(json.dumps(doc))
    hostile[1] = hostile["x"] = 0
    assert verify_document(hostile).failures == ("document: field 1 is unexpected",)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_verify_rejects_a_node_field_of_another_json_type():
    # nodes are compared by value only, so json.loads' 1 == true == 1.0 still passes there
    doc = certificate_to_doc(build_certificate(make_ramification(3, 3), GENUS_TWO))
    assert verify_document(doc)

    def set_dim(d):
        d["nodes"][1]["dim"] = True

    def set_s_fin_count(d):
        d["nodes"][1]["rd"]["s_fin_count"] = False

    def set_path_step(d):
        d["nodes"][1]["path"][0][0] = 0.0

    def set_root_bound(d):
        d["nodes"][0]["degree_bound"] = float(d["nodes"][0]["degree_bound"])

    accepted = []
    for mutate in (set_dim, set_s_fin_count, set_path_step, set_root_bound):
        mutated = json.loads(json.dumps(doc))
        mutate(mutated)
        assert mutated == doc  # equal in value: only a JSON type changed
        if verify_document(mutated):
            accepted.append(mutate.__name__)
    assert accepted == []


def test_no_walk_leaves_a_reference_cycle():
    # every table, node dict and text the walks make is freed by reference
    # counting once its caller is done with it, not by the cyclic collector
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        cert = build_certificate(make_ramification(6, 3), GENUS_TWO)
        doc = json.loads(serialize_certificate(cert))
        assert verify_document(doc)
        doc["nodes"][1]["degree_bound"] += 1
        assert not verify_document(doc)
        certificate_to_doc(cert)
        assert selfcheck(4, [2, 3]).ok
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_verify_rejects_a_small_document_that_declares_a_large_tree():
    doc = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    doc["config"]["rd"]["f"] = 40
    doc["contradiction"], doc["steps"] = {}, {}  # compared only after the rebuild
    doc["nodes"] = [{"dim": 40, "kind": "ordinary_locus", "path": []}]
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
    # one root and 2^14 - 2 leaves: the non-empty node list and the bit-length
    # guard pass, and the f=14 tree below the config has 393 365 759 nodes
    doc = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    doc["config"]["rd"]["f"] = 14
    doc["nodes"] = [{"dim": 14, "kind": "ordinary_locus", "path": []}] + [
        {"dim": 0, "kind": "dimension_zero", "path": [[i]]} for i in range(2**14 - 2)
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
    assert len(doc_nodes(build_certificate(make_ramification(10, 3, {7, 8}), GENUS_TWO))) == 10815


def test_build_refuses_a_high_dimensional_datum_at_once():
    for f in (100, 300):
        for dim in (14, 15, 16):
            s_inf = range(f - dim)
            rd = make_ramification(f, 3, s_inf, len(s_inf) % 2)
            started = time.perf_counter()
            with pytest.raises(ValueError, match="more than 100000 nodes"):
                build_certificate(rd, GENUS_TWO)
            assert time.perf_counter() - started < 0.1, (f, dim)


def test_min_tree_size_is_a_lower_bound_and_sets_the_refusal_dimension():
    sizes: dict = {}
    for rd in all_ramifications(8, 3):
        if rd not in sizes:
            sizes.update((datum, split.size) for datum, split in certificate._case_split(rd).items())
    for datum, size in sizes.items():
        assert certificate._min_tree_size(shimura_dimension(datum)) <= size, datum
    refusal = certificate._REFUSAL_DIM
    assert refusal == 12
    assert certificate._min_tree_size(refusal - 1) <= certificate.MAX_TREE_NODES
    assert certificate._min_tree_size(refusal) > certificate.MAX_TREE_NODES


def test_build_walks_each_distinct_datum_once(monkeypatch):
    calls = {"strata_children": 0, "degree_bound": 0}
    for name in calls:
        original = getattr(certificate, name)

        def counted(rd, name=name, original=original):
            calls[name] += 1
            return original(rd)

        monkeypatch.setattr(certificate, name, counted)
    cert = build_certificate(make_ramification(7, 3), GENUS_TWO)
    nodes = doc_nodes(cert)
    distinct = {node_datum(node) for node in nodes if node["dim"] > 0}
    assert len(nodes) == 1723 and len(distinct) == 29
    assert calls == {"strata_children": 29, "degree_bound": 29}


def test_verify_walks_each_distinct_datum_once(monkeypatch):
    # the node-count check and the rebuild share one walk of the case split
    doc = certificate_to_doc(build_certificate(make_ramification(7, 3), GENUS_TWO))
    calls = {"strata_children": 0, "degree_bound": 0}
    for name in calls:
        original = getattr(certificate, name)

        def counted(rd, name=name, original=original):
            calls[name] += 1
            return original(rd)

        monkeypatch.setattr(certificate, name, counted)
    assert verify_document(doc)
    assert calls == {"strata_children": 29, "degree_bound": 29}


@pytest.mark.parametrize(
    "f, p, s_inf, curve, sha256",
    [
        (6, 3, (), GENUS_TWO, "6bec000afc114a0e10b554fc0d93241b2ef506d8502dacad55b8e6f0ce9e9d2c"),
        (5, 2, (1, 2), FOUR_PUNCTURED, "d69f3da73fb02aad778080b00c9eb5d71aae1bc8fec1b251094357a5c55b1025"),
        (4, 5, (), CurveType(3, 0), "df4d7684c98d272be082fa11e4947f469b8448f958c27510c80664e851ffce1a"),
    ],
)
def test_certificate_bytes_are_pinned(f, p, s_inf, curve, sha256):
    blob = serialize_certificate(build_certificate(make_ramification(f, p, s_inf), curve))
    assert hashlib.sha256(blob.encode()).hexdigest() == sha256


def test_config_parsing_rejects_malformed_documents():
    good = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    rd, ct = parse_config(good["config"])
    assert (rd.f, rd.p, ct.g, ct.n) == (2, 3, 2, 0)
    bad = json.loads(json.dumps(good))
    bad["config"]["rd"]["s_inf"] = [True]
    with pytest.raises(ValueError):
        parse_config(bad["config"])
    bad = json.loads(json.dumps(good))
    bad["config"]["rd"].pop("p")
    with pytest.raises(ValueError):
        parse_config(bad["config"])
    bad = json.loads(json.dumps(good))
    bad["config"]["curve"]["g"] = "two"
    with pytest.raises(ValueError):
        parse_config(bad["config"])


def test_finite_verdict_over_every_small_datum():
    # the verdict depends on the curve type and the contradiction at each node,
    # so it is uniform over the ramification data; check that exhaustively
    for rd in all_ramifications(8, 2):
        assert build_certificate(rd, GENUS_TWO).verdict == "finite"
    for p in (3, 5):
        for rd in all_ramifications(5, p):
            assert build_certificate(rd, FOUR_PUNCTURED).verdict == "finite"
            assert build_certificate(rd, CurveType(4, 0)).verdict == "inconclusive"
