import gc
import hashlib
import json
import sys
import time
from collections import Counter
from itertools import count

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
from gocert.oracle import all_ramifications, replay_augmented_set
from helpers import (
    counting_anchored_bound,
    document_mutations,
    edge_vanishing_sets,
    is_own_certificate,
    kernel_case_split,
    leaf_mutations,
    max_degree_sums,
)

GENUS_TWO = CurveType(2, 0)
FOUR_PUNCTURED = CurveType(0, 4)
NODE_KEYS = ["degree_bound", "s_inf"]


def doc_nodes(cert):
    return certificate_to_doc(cert)["nodes"]


def node_datum(config, node):
    """A node's datum: config.rd's f, p and s_fin_count, with the node's s_inf."""
    return make_ramification(**{**config["rd"], "s_inf": node["s_inf"]})


def node_kind(f, node, index):
    """The kind the node at index of a certificate over f places derives from its dimension and position."""
    if len(node["s_inf"]) == f:
        return "dimension_zero"
    return "ordinary_locus" if index == 0 else "stratum_descent"


def child_indices(f, nodes, i):
    """The indices of node i's children, read by _TREE_SIZES: each child follows its elder sibling's subtree."""
    end = i + certificate._TREE_SIZES[f - len(nodes[i]["s_inf"])]
    j, children = i + 1, []
    while j < end:
        children.append(j)
        j += certificate._TREE_SIZES[f - len(nodes[j]["s_inf"])]
    assert j == end
    return children


def test_worked_example_quadratic_field():
    cert = build_certificate(make_ramification(2, 3), GENUS_TWO)
    assert cert.verdict == "finite"
    nodes = doc_nodes(cert)
    assert len(nodes) == 3
    root, left, right = nodes
    # the ordinary locus of dimension 2, with polarization bound 8
    assert root == {"degree_bound": 4, "s_inf": []}
    assert node_kind(2, root, 0) == "ordinary_locus"
    assert cert.contradiction.conclusion == "contradiction"
    assert (cert.contradiction.deg_tangent, cert.contradiction.deg_hom) == (-2, -2)
    for i, node in ((1, left), (2, right)):
        assert node == {"degree_bound": None, "s_inf": [0, 1]}
        assert node_kind(2, node, i) == "dimension_zero"


def test_worked_example_single_place():
    cert = build_certificate(make_ramification(1, 2), FOUR_PUNCTURED)
    assert cert.verdict == "finite"
    (node,) = doc_nodes(cert)
    # the ordinary locus of dimension 1, with polarization bound 2
    assert node == {"degree_bound": 1, "s_inf": []}
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
    descents = [n for i, n in enumerate(nodes) if node_kind(3, n, i) == "stratum_descent"]
    assert descents, "expected positive-dimensional children"
    for node in descents:
        assert 3 - len(node["s_inf"]) >= 1
        assert node["degree_bound"] is not None
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
    assert node == {"degree_bound": None, "s_inf": [0, 1]}
    assert node_kind(2, node, 0) == "dimension_zero"
    assert cert.verdict == "finite"
    assert build_certificate(rd, CurveType(3, 0)).verdict == "inconclusive"


def test_tree_shape_invariants():
    for rd in all_ramifications(5, 2):
        cert = build_certificate(rd, GENUS_TWO)
        nodes = doc_nodes(cert)
        # dimension f - len(s_inf), kind from dimension and position, polarization bound 2 * degree_bound
        for i, node in enumerate(nodes):
            dim = rd.f - len(node["s_inf"])
            assert node["s_inf"] == sorted(set(node["s_inf"]))
            assert (node["degree_bound"] is None) == (dim == 0)
            children = child_indices(rd.f, nodes, i)
            assert len(children) == max(2**dim - 2, 0)
            for j in children:
                assert rd.f - len(nodes[j]["s_inf"]) < dim
                assert set(node["s_inf"]) < set(nodes[j]["s_inf"])
        assert {node_kind(rd.f, node, i) for i, node in enumerate(nodes)} <= set(certificate.KIND_STEPS)
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
    assert len(doc_nodes(cert)) == 1723 and len(text) < 150_000


def test_documents_share_no_mutable_objects_between_nodes():
    # the expansion lists each datum's node once for all its nodes; no node may hand
    # its list or dict to another, since callers edit documents in place
    cert = build_certificate(make_ramification(5, 3), GENUS_TWO)
    doc, fresh = certificate_to_doc(cert), certificate_to_doc(cert)
    nodes = doc["nodes"]
    occurs = Counter(json.dumps(node["s_inf"]) for node in nodes)
    i = next(i for i, node in enumerate(nodes) if occurs[json.dumps(node["s_inf"])] > 2)
    nodes[i]["s_inf"].append(99)
    nodes[i]["extra"] = True
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
    # analyze splices the subtree texts of the node texts into the curve blocks' template; certificate_to_doc
    # is the reference, for every root with f <= 6 and the roots of dimension 7, 8 and 9 at s_inf = {}
    curves = [GENUS_TWO, FOUR_PUNCTURED, CurveType(3, 0), CurveType(1, 2), CurveType(1, 1)]
    for rd in all_ramifications(6, p):
        for curve in curves:
            cert = build_certificate(rd, curve)
            assert serialize_certificate(cert) == serialize_document(certificate_to_doc(cert)), (rd, curve)
    for f in (7, 8, 9):
        cert = build_certificate(make_ramification(f, p), GENUS_TWO)
        assert serialize_certificate(cert) == serialize_document(certificate_to_doc(cert)), f


def test_serialization_builds_no_node_documents(monkeypatch):
    # one node text per distinct datum, not one per node: 11 for the 91 nodes at f = 5
    cert = build_certificate(make_ramification(5, 3), GENUS_TWO)
    expected = serialize_certificate(cert)
    calls = []

    def counted(datum, entry, original=certificate._node_text):
        calls.append(datum)
        return original(datum, entry)

    monkeypatch.setattr(certificate, "_node_text", counted)
    assert serialize_certificate(cert) == expected
    assert set(calls) == set(cert.split) and len(calls) == len(cert.split) == 11


@pytest.mark.parametrize("p", [2, 3, 1000000007])
def test_node_text_is_the_encoded_node_document(p):
    # _node_text formats the record json would write, for every distinct datum of the largest case split
    table = certificate._case_split(make_ramification(9, p))
    assert len(table) == 76
    for datum, entry in table.items():
        assert certificate._node_text(datum, entry) == certificate._ENCODER.encode(certificate._node_doc(datum, entry))


def test_node_text_writes_the_largest_bound_json_converts(default_int_digits):
    datum = make_ramification(3, 3, {0, 2})
    largest = 10**default_int_digits - 1
    certificate._check_json_digits(largest, "the bound")
    with pytest.raises(ValueError):
        certificate._check_json_digits(largest + 1, "the bound")
    entry = certificate._Split(largest, ())
    text = certificate._node_text(datum, entry)
    assert text == certificate._ENCODER.encode(certificate._node_doc(datum, entry))
    assert text == '{"degree_bound":' + "9" * default_int_digits + ',"s_inf":[0,2]}'


def test_curve_blocks_survive_eviction():
    # more distinct curves than the cache holds, visited twice in turn: every serialize misses and evicts
    # the oldest entry, and the verify that follows it hits the entry the serialize made
    curves = [CurveType(g, n) for g in range(4) for n in range(5)]
    size = certificate._curve_blocks.cache_info().maxsize
    assert len(curves) > size
    for rd in (make_ramification(3, 3), make_ramification(4, 2, {1, 3})) * 2:
        for curve in curves:
            cert = build_certificate(rd, curve)
            text = serialize_certificate(cert)
            assert text == serialize_document(certificate_to_doc(cert)), (rd, curve)
            assert verify_document(json.loads(text)), (rd, curve)
    info = certificate._curve_blocks.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4 * len(curves), 4 * len(curves), size)


def scramble(value):
    """Change every dict, list and scalar field reachable from value in place; whether value was a dict or list."""
    if isinstance(value, dict):
        for key, item in list(value.items()):
            if not scramble(item):
                value[key] = "scrambled"
        value["scrambled"] = None
    elif isinstance(value, list):
        for item in value:
            scramble(item)
        value.append("scrambled")
    else:
        return False
    return True


@pytest.mark.parametrize("curve", [GENUS_TWO, FOUR_PUNCTURED, CurveType(1, 2), CurveType(3, 0)])
def test_documents_share_no_block_with_the_curve_cache(curve):
    # certificate_to_doc builds fresh blocks and verify hands none of the cached ones out, so scrambling
    # every block of either document leaves the next serialize and verify of the curve as they were
    rd = make_ramification(4, 3)
    text = serialize_certificate(build_certificate(rd, curve))
    for make in (certificate_to_doc, lambda cert: json.loads(serialize_certificate(cert))):
        doc = make(build_certificate(rd, curve))
        assert verify_document(doc)
        scramble(doc)
        assert not verify_document(doc)
        cert = build_certificate(rd, curve)
        assert serialize_certificate(cert) == text
        assert verify_document(json.loads(text)) and verify_document(certificate_to_doc(cert))


def test_a_certificate_with_other_curve_fields_serializes_its_own():
    cert = build_certificate(make_ramification(4, 3), GENUS_TWO)
    text = serialize_certificate(cert)
    others = [
        cert._replace(verdict="inconclusive"),
        cert._replace(steps={**cert.steps, "root": certificate.Steps(("other prose",), ("other-flag",))}),
        cert._replace(steps=dict(reversed(cert.steps.items()))),
        # equal in value to the built fields, but json writes 1 and 2.0 apart from true and 2
        cert._replace(rigidity=cert.rigidity._replace(finite=1)),
        cert._replace(contradiction=cert.contradiction._replace(deg_tangent=-2.0)),
    ]
    for other in others:
        assert serialize_certificate(other) == serialize_document(certificate_to_doc(other))
    assert [serialize_certificate(other) == text for other in others] == [False, False, True, False, False]
    assert serialize_certificate(cert) == text and verify_document(json.loads(text))


def test_the_digit_limit_is_checked_on_every_build_of_a_remembered_curve(default_int_digits):
    # the limit can change between calls, so the check stays outside the memo of the curve's fields
    curve, rd = CurveType(int("9" * default_int_digits), 0), make_ramification(3, 3)  # 2g - 2 + n has one digit more
    refusal = f"the curve's 2g-2+n has more than {default_int_digits} digits, the interpreter's limit for integers in JSON"
    sys.set_int_max_str_digits(0)
    doc = json.loads(serialize_certificate(build_certificate(rd, curve)))
    assert verify_document(doc)
    assert certificate._curve_fields.cache_info().currsize == 1
    sys.set_int_max_str_digits(default_int_digits)
    with pytest.raises(ValueError) as refused:
        build_certificate(rd, curve)
    assert str(refused.value) == refusal
    assert verify_document(doc).failures == (refusal,)


def test_a_curve_s_fields_are_computed_once_and_no_two_certificates_share_a_mutable_object(monkeypatch):
    calls: Counter[str] = Counter()
    for name in ("finiteness_verdict", "contradiction_check"):
        original = getattr(certificate, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(certificate, name, counted)
    rd, curve = make_ramification(4, 3), CurveType(1, 2)
    first, second = build_certificate(rd, curve), build_certificate(rd, curve)
    text = serialize_certificate(second)
    for _ in range(3):
        assert verify_document(json.loads(text))
    assert calls == {"finiteness_verdict": 1, "contradiction_check": 1}
    hash(certificate._curve_fields(curve))  # raises TypeError unless every remembered field is immutable
    first.steps["root"] = certificate.Steps(("edited",), ("edited",))
    first.steps["ordinary_locus"] = certificate.Steps((), ())
    del first.steps["dimension_zero"]
    assert serialize_certificate(second) == text
    assert serialize_certificate(build_certificate(rd, curve)) == text
    assert calls == {"finiteness_verdict": 1, "contradiction_check": 1}


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
    # the comparison with the rebuild is the only node check: a changed bound
    # or s_inf is reported as a differing field like any other value
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
                    # the whole message, at the index of the changed node
                    i, ref = where[1], refs[where[1]]
                    message = certificate._first_mismatch(f"nodes[{i}]", doc["nodes"][i], ref)
                    assert message.startswith(f"nodes[{i}]: field {where[2]!r} ")
                    assert result.failures[0] == message, (where, result.failures)
    assert checked == 2672


def test_verify_verdicts_and_messages_over_the_agreement_corpus_are_pinned():
    # every datum f <= 4 at p = 2 and 3 with three curves: each genuine document,
    # every document mutation and every single-leaf mutation; the digest covers
    # each document's label or leaf location, verdict and failure messages.  Nodes
    # name neither p nor s_fin_count, so a config edit may give another genuine
    # certificate: verify accepts exactly those
    digest, count, accepted = hashlib.sha256(), 0, 0

    def record(where, doc):
        nonlocal count, accepted
        result = verify_document(doc)
        assert not result or is_own_certificate(doc), where
        count += 1
        accepted += result.ok
        digest.update(json.dumps([where, result.ok, list(result.failures)]).encode() + b"\n")

    for p in (2, 3):
        for rd in all_ramifications(4, p):
            for ct in (GENUS_TWO, FOUR_PUNCTURED, CurveType(3, 0)):
                doc = certificate_to_doc(build_certificate(rd, ct))
                record("genuine", doc)
                for label, mutated in document_mutations(doc):
                    record(label, mutated)
                for where in leaf_mutations(doc):
                    record(where, doc)
    assert (count, accepted) == (14112, 222)
    assert digest.hexdigest() == "d14d194f9d10fe3c0b872005f6273498d22831851809e706ab089f32ced7e07e"


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


class _Str(str):
    pass


class _Dict(dict):
    pass


def test_verify_rejects_a_subclass_or_a_tuple_in_the_curve_blocks():
    # equal in value to the rebuild's blocks, but not the exact JSON types json.loads gives
    genuine = json.loads(serialize_certificate(build_certificate(make_ramification(3, 3), CurveType(3, 0))))
    zero = "dimension-zero: finiteness over a zero-dimensional datum is automatic"
    cases = [
        (("tool_version",), _Str, f"tool_version is {TOOL_VERSION!r}, expected {TOOL_VERSION!r}"),
        (("steps", "root"), _Dict, "steps: field 'root' is {'flags': [], 'prose': []}, expected {'flags': [], 'prose': []}"),
        (
            ("steps", "dimension_zero", "prose"),
            tuple,
            f"steps: field 'dimension_zero' is {{'flags': [], 'prose': ('{zero}',)}}, expected {{'flags': [], 'prose': ['{zero}']}}",
        ),
        (
            ("rigidity",),
            _Dict,
            "rigidity is {'count': None, 'd': None, 'euler_bound': 4, 'finite': False}, "
            "expected {'finite': False, 'd': None, 'count': None, 'euler_bound': 4}",
        ),
    ]
    for (*outer, key), kind, message in cases:
        doc = json.loads(json.dumps(genuine))
        block = doc
        for name in outer:
            block = block[name]
        block[key] = kind(block[key])
        assert doc == genuine or kind is tuple  # a tuple never equals a list
        assert verify_document(doc).failures == (message,), key


def test_certificates_list_no_node_records(monkeypatch, capsys):
    # analyze (build and serialize) works by datum: one node text per distinct
    # datum, 17 for the 495 nodes at f = 6, which the expansion lists by reference
    calls = []

    def counted(datum, entry, original=certificate._node_text):
        calls.append(datum)
        return original(datum, entry)

    with monkeypatch.context() as patched:
        patched.setattr(certificate, "_node_text", counted)
        cert = build_certificate(make_ramification(6, 3), GENUS_TWO)
        text = serialize_certificate(cert)
        assert len(calls) == len(cert.split) == 17
        assert main(["analyze", "--f", "6", "--p", "3", "--curve", "2,0"]) == 0
        assert len(calls) == 34
    assert "nodes=495," in capsys.readouterr().err
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b14e7aa1d62eb3a0467ee8d6a46a59c37662f8d1913fce414f0e6b25f7c7944a"
    )
    doc = json.loads(text)
    assert verify_document(doc)
    doc["nodes"][100]["s_inf"].append(6)
    failures = verify_document(doc).failures
    assert len(failures) == 1 and failures[0].startswith("nodes[100]: field 's_inf' is [")


def test_nodes_expand_the_split_table_in_preorder():
    cert = build_certificate(make_ramification(5, 3), GENUS_TWO)
    doc = certificate_to_doc(cert)
    nodes = doc["nodes"]
    assert len(nodes) == certificate._TREE_SIZES[5] and nodes == doc_nodes(cert)
    data = [node_datum(doc["config"], node) for node in nodes]
    assert set(cert.split) == set(data)
    for i, node in enumerate(nodes):
        entry = cert.split[data[i]]
        assert node["degree_bound"] == entry.degree_bound
        # the children follow, each after the _TREE_SIZES[dim] nodes of its elder sibling's subtree
        j = i + 1
        for child in entry.edges:
            assert data[j] == child
            j += certificate._TREE_SIZES[shimura_dimension(child)]
        assert j == i + certificate._TREE_SIZES[shimura_dimension(data[i])]


def test_verify_reports_the_node_path_of_a_decremented_bound():
    doc = certificate_to_doc(build_certificate(make_ramification(3, 2), GENUS_TWO))
    doc["nodes"][2]["degree_bound"] -= 1
    result = verify_document(doc)
    assert not result
    assert any("nodes[2]" in f and "degree_bound" in f for f in result.failures)


def test_verify_rejects_non_decreasing_child_dimension():
    # a child with its parent's s_inf has its parent's dimension
    doc = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    doc["nodes"][1]["s_inf"] = doc["nodes"][0]["s_inf"]
    result = verify_document(doc)
    assert not result
    assert result.failures == ("nodes[1]: field 's_inf' is [], expected [0, 1]",)


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
        node["contradiction"] = contradiction if node["degree_bound"] is not None else None
    assert verify_document(old).failures == (
        "document keys are wrong (missing ['contradiction', 'steps'], extra [])",
    )
    # nor has the one whose nodes repeated their datum, dimension, kind and polarization bound
    old = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    rd = old["config"]["rd"]
    for i, node in enumerate(old["nodes"]):
        dim, bound = rd["f"] - len(node["s_inf"]), node["degree_bound"]
        node.update(dim=dim, kind=node_kind(rd["f"], node, i), polarization_bound=bound and 2 * bound)
        node["rd"] = {**rd, "s_inf": node.pop("s_inf")}
    assert verify_document(old).failures == ("nodes[0]: field 'dim' is unexpected",)
    # nor the four-field one, whose nodes also carried their fiber count and their path of vanishing sets
    old = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    for i, node in enumerate(old["nodes"]):
        node.update(fiber_dim=i and 1, path=[[i - 1]] if i else [])
    old["nodes"][0]["fiber_dim"] = None
    assert verify_document(old).failures == ("nodes[0]: field 'fiber_dim' is unexpected",)


def test_verify_survives_hostile_node_structures():
    doc = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    for value in (3, [[[]]], ["ab", 1], {}):
        hostile = json.loads(json.dumps(doc))
        hostile["nodes"][1]["degree_bound"] = value
        result = verify_document(hostile)
        assert not result and result.failures
    hostile = json.loads(json.dumps(doc))
    hostile["nodes"][1]["s_inf"] = True
    assert not verify_document(hostile)
    # an unexpected field whose value is null, a missing field whose expected value is null,
    # and a node that is not an object
    hostile = json.loads(json.dumps(doc))
    hostile["nodes"][1]["extra"] = None
    assert verify_document(hostile).failures == ("nodes[1]: field 'extra' is unexpected",)
    del hostile["nodes"][1]["extra"]
    del hostile["nodes"][1]["degree_bound"]
    assert verify_document(hostile).failures == ("nodes[1]: field 'degree_bound' is missing",)
    hostile["steps"]["root"]["flags"] = ["unchecked"]
    steps_failure, node_failure = verify_document(hostile).failures
    assert steps_failure.startswith("steps: field 'root' is {'flags': ['unchecked'], 'prose': [")
    assert node_failure == "nodes[1]: field 'degree_bound' is missing"
    hostile = json.loads(json.dumps(doc))
    hostile["nodes"][2] = [None, [0, 1]]
    assert verify_document(hostile).failures == ("nodes[2] is [None, [0, 1]], expected {'degree_bound': None, 's_inf': [0, 1]}",)
    # a key that is not a string, which JSON text cannot carry, is named before any keys are sorted
    hostile = json.loads(json.dumps(doc))
    hostile["rigidity"][1] = 2
    assert verify_document(hostile).failures == ("rigidity: field 1 is unexpected",)
    hostile = json.loads(json.dumps(doc))
    hostile["nodes"][1][0] = 1
    assert verify_document(hostile).failures == ("nodes[1]: field 0 is unexpected",)
    hostile = json.loads(json.dumps(doc))
    hostile[1] = hostile["x"] = 0
    assert verify_document(hostile).failures == ("document: field 1 is unexpected",)


def _verify_with(*keys):
    """A site that puts its value at keys of an f = 4 document and returns the rejection."""

    def site(value):
        doc = certificate_to_doc(build_certificate(make_ramification(4, 3, [0, 1]), GENUS_TWO))
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        result = verify_document(doc)
        assert not result
        return "; ".join(result.failures)

    return site


def _refused_by(call):
    def site(value):
        with pytest.raises(ValueError) as refused:
            call(value)
        return str(refused.value)

    return site


@pytest.mark.parametrize(
    "site, field",
    [
        (_verify_with("nodes", 1, "degree_bound"), "nodes[1]: field 'degree_bound' is "),
        (_verify_with("nodes", 0, "s_inf"), "nodes[0]: field 's_inf' is "),
        (_verify_with("verdict"), "verdict is "),
        (_verify_with("config", "rd", "f"), "config: f must be an integer, got "),
        (_verify_with("config", "rd", "s_inf", 0), "config: ramified place "),
        (_verify_with("config", "curve", "g"), "config: curve g must be an integer, got "),
        (_refused_by(lambda value: make_ramification(3, 3, [value])), "ramified place "),
        (_refused_by(lambda value: CurveType(value, 0)), "curve g must be an integer, got "),
        (_refused_by(lambda value: selfcheck(value, [2])), "max_f must be an integer, got "),
    ],
    ids=["bound", "rd", "verdict", "f", "s_inf", "curve", "make_ramification", "CurveType", "selfcheck"],
)
def test_a_value_nested_past_the_recursion_limit_is_refused_by_name(site, field):
    # before Python 3.12 repr raises RecursionError on such a value: the message
    # still names the field, and shows a stand-in for the value
    value = []
    for _ in range(sys.getrecursionlimit() + 100):
        value = [value]
    assert field in site(value)


def test_verify_rejects_a_node_field_of_another_json_type():
    # json.loads gives 1 == true == 1.0, and an object may claim to equal anything:
    # nodes equal in value are then checked by JSON type, and the first wrong node is named
    doc = certificate_to_doc(build_certificate(make_ramification(3, 3), GENUS_TWO))
    assert verify_document(doc)

    def first(d, has):
        return next(i for i, node in enumerate(d["nodes"]) if has(node))

    def set_s_inf_entry(d):
        i = first(d, lambda node: node["s_inf"])
        d["nodes"][i]["s_inf"][0] = float(d["nodes"][i]["s_inf"][0])
        return i

    def set_s_inf_true(d):
        i = first(d, lambda node: 1 in node["s_inf"])
        d["nodes"][i]["s_inf"][d["nodes"][i]["s_inf"].index(1)] = True
        return i

    def set_root_bound(d):
        d["nodes"][0]["degree_bound"] = float(d["nodes"][0]["degree_bound"])
        return 0

    def set_bound_true(d):
        i = first(d, lambda node: node["degree_bound"] == 1)
        d["nodes"][i]["degree_bound"] = True
        return i

    class AlwaysEqual:
        # no JSON type at all, reachable through the Python API only
        def __eq__(self, other):
            return True

        def __repr__(self):
            return "AlwaysEqual()"

    def set_nodes_always_equal(d):
        d["nodes"] = [AlwaysEqual() for _ in d["nodes"]]
        return 0

    def set_root_s_inf_always_equal(d):
        d["nodes"][0]["s_inf"] = AlwaysEqual()
        return 0

    for mutate in (
        set_s_inf_entry,
        set_s_inf_true,
        set_root_bound,
        set_bound_true,
        set_nodes_always_equal,
        set_root_s_inf_always_equal,
    ):
        mutated = json.loads(json.dumps(doc))
        i = mutate(mutated)
        assert mutated == doc  # equal in value: only a type changed
        (failure,) = verify_document(mutated).failures
        assert failure.startswith(f"nodes[{i}]"), (mutate.__name__, failure)
    assert (failure,) == verify_document(mutated).failures == ("nodes[0]: field 's_inf' is AlwaysEqual(), expected []",)


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
    doc["nodes"] = [{"degree_bound": 1, "s_inf": []}]
    assert len(json.dumps(doc)) < 400
    start = time.perf_counter()
    result = verify_document(doc)
    assert time.perf_counter() - start < 1.0
    assert not result
    assert result.failures == (f"the case split has more than {certificate.MAX_TREE_NODES} nodes",)


def test_verify_rejects_a_wrong_node_count_without_calling_the_kernel(monkeypatch):
    # one node short of the dimension-9 tree, with a config of f = 14 000: the
    # count is checked against the table, before any walk
    f = 14_000
    doc = certificate_to_doc(build_certificate(make_ramification(2, 2), GENUS_TWO))
    doc["config"]["rd"] = {"f": f, "p": 2, "s_fin_count": 1, "s_inf": list(range(f - 9))}
    doc["nodes"] = [{} for _ in range(42666)]

    def no_kernel(*args):
        raise AssertionError("verify called the kernel")

    monkeypatch.setattr(certificate, "model_child_masks", no_kernel)
    monkeypatch.setattr(certificate, "_model_table", no_kernel)
    monkeypatch.setattr(certificate, "anchored_bound", no_kernel)
    started = time.perf_counter()
    result = verify_document(doc)
    assert time.perf_counter() - started < 0.1
    assert result.failures == ("node count is 42666, expected 42667",)


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
    # one root and 2^14 - 2 leaves, as many nodes as the root's children: the
    # f=14 tree below the config has 393 365 759 nodes
    doc = certificate_to_doc(build_certificate(make_ramification(2, 3), GENUS_TWO))
    doc["config"]["rd"]["f"] = 14
    doc["nodes"] = [{"degree_bound": 1, "s_inf": []}] + [
        {"degree_bound": None, "s_inf": list(range(14))} for _ in range(2**14 - 2)
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
    # a datum's subtree size depends on its dimension alone, so from dimension 10 on no walk is made, whatever f is
    for f in (100, 300):
        for dim in (14, 15, 16):
            s_inf = range(f - dim)
            rd = make_ramification(f, 3, s_inf, len(s_inf) % 2)
            started = time.perf_counter()
            with pytest.raises(ValueError, match="^the case split has more than 100000 nodes$"):
                build_certificate(rd, GENUS_TWO)
            assert time.perf_counter() - started < 0.1, (f, dim)


def test_build_refuses_a_datum_of_dimension_10_or_11_through_the_running_total():
    # dimensions 10 and 11 are the least refused: once a walk had to pass the limit, now the dimension alone refuses them
    for f in (100, 300):
        for dim in (10, 11):
            s_inf = range(f - dim)
            rd = make_ramification(f, 3, s_inf, len(s_inf) % 2)
            started = time.perf_counter()
            with pytest.raises(ValueError, match="^the case split has more than 100000 nodes$"):
                build_certificate(rd, GENUS_TWO)
            assert time.perf_counter() - started < 0.1, (f, dim)


def test_an_oversized_degree_bound_is_refused_before_any_walk(monkeypatch, default_int_digits):
    # the root's bound is checked before the table is read: a walk first would list the kernel 4 times, and a
    # relabeling would build the subtree's data, each with an s_inf of about f places
    def no_walk(m):
        raise AssertionError(f"the case split read the model table or listing of dimension {m}")

    monkeypatch.setattr(certificate, "model_child_masks", no_walk)
    monkeypatch.setattr(certificate, "_model_table", no_walk)
    f = 20_000
    rd = make_ramification(f, 3, range(f - 9), 1)  # dimension 9: the bound anchored at f - 8 is about 3^(f - 1)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^the degree bound at f={f} has more than 4300 digits, "):
        certificate._case_split(rd)
    assert time.perf_counter() - started < 0.1
    assert certificate._MODEL_TABLES == {}


@pytest.mark.parametrize("p", [2**61 - 1, 1_000_000_007])
def test_a_1_mib_config_is_refused_before_any_power(monkeypatch, default_int_digits, p):
    # s_inf = 9..f-1 at f = 140 000, about 1 MiB of config: the sum anchored at 1 has the term p^(f - 1), so
    # both the build and the verify of a document of the right node count refuse the bound without computing it
    def no_power(*args):
        raise AssertionError("the case split computed a power table")

    f = 140_000
    message = f"the degree bound at f={f} has more than 4300 digits, the interpreter's limit for integers in JSON"
    doc = certificate_to_doc(build_certificate(make_ramification(9, 3), GENUS_TWO))
    doc["config"]["rd"] = {"f": f, "p": p, "s_fin_count": 1, "s_inf": list(range(9, f))}
    assert len(json.dumps(doc["config"])) > 1_000_000
    rd = make_ramification(f, p, range(9, f), 1)
    monkeypatch.setattr(certificate, "anchored_bound", no_power)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_certificate(rd, GENUS_TWO)
    result = verify_document(doc)
    assert time.perf_counter() - started < 1.0
    assert result.failures == (message,)


def test_a_degree_bound_with_the_limit_s_digits_still_builds(default_int_digits):
    # at p = 2 and s_inf = 9..f-1 the bound is 255 * 2^(f - 8) + 1, anchored at 8, with about one digit more
    # than its term 2^(f - 1) anchored at 1: the largest such f whose bound has 4300 digits builds, and the
    # next one, which the estimate from that term does not refuse, is refused by the exact check
    def root(f):
        return make_ramification(f, 2, range(9, f), (f - 9) % 2)

    f = next(f for f in count(14_270) if max(max_degree_sums(root(f + 1)).values()) >= 10**4300)
    bound = max(max_degree_sums(root(f)).values())
    assert bound == 255 * 2 ** (f - 8) + 1 and 10**4299 <= bound < 10**4300
    assert build_certificate(root(f), GENUS_TWO).split[root(f)].degree_bound == bound
    with pytest.raises(ValueError, match=rf"^the degree bound at f={f + 1} has more than 4300 digits, "):
        build_certificate(root(f + 1), GENUS_TWO)


def test_a_refused_root_builds_no_table(default_int_digits):
    # a dimension past _TREE_SIZES and a root bound too large for json are refused before any model table is walked
    f = 20_000
    for rd in (make_ramification(10, 3), make_ramification(f, 3, range(f - 9), 1)):
        with pytest.raises(ValueError):
            build_certificate(rd, GENUS_TWO)
    assert certificate._MODEL_TABLES == {}
    # and so is a document whose node count is wrong
    doc = certificate_to_doc(build_certificate(make_ramification(5, 3), GENUS_TWO))
    assert certificate._MODEL_TABLES.keys() == {5}
    doc["config"]["rd"]["f"] = 6
    assert verify_document(doc).failures == ("node count is 91, expected 495",)
    assert certificate._MODEL_TABLES.keys() == {5}


def test_refusal_dimension_is_the_least_whose_case_split_exceeds_the_limit():
    # the model datum of a dimension (f = m, s_inf = {}; at 0, f = 1, s_inf = {0}) has the subtree size of every datum of it
    sizes = []
    for m in range(len(certificate._TREE_SIZES) + 1):
        rd = make_ramification(m, 3) if m else make_ramification(1, 3, [0], 1)
        sizes.append(kernel_case_split(rd)[1][rd])
    assert sizes == [*certificate._TREE_SIZES, 299263]
    assert max(sizes[:-1]) <= certificate.MAX_TREE_NODES < sizes[-1]


def test_relabeled_case_split_equals_the_kernel_walk():
    # the children of a datum are those of the model datum of its dimension, mapped onto its split places
    sizes: dict = {}
    for p in (2, 3, 5):
        for rd in all_ramifications(8, p):
            table, kernel_sizes = kernel_case_split(rd)
            assert list(certificate._case_split(rd).items()) == list(table.items()), rd
            # no bound below the root's, so the root's digit check covers the table
            assert all(entry.degree_bound <= table[rd].degree_bound for entry in table.values() if entry.edges), rd
            for datum in table:
                sizes.setdefault(shimura_dimension(datum), set()).add(kernel_sizes[datum])
    # so every datum's subtree size depends on its dimension alone
    assert sizes == {d: {size} for d, size in enumerate(certificate._TREE_SIZES[:9])}


def test_every_edge_adds_the_oracle_augmented_set():
    # the oracle replays the augmented set on connectivity components, so it judges each edge without the stratum
    # kernel; both walks of test_relabeled_case_split_equals_the_kernel_walk use the kernel, so that test cannot see
    # a kernel fault the relabeling keeps, such as adding the free place after an odd chain instead of the one before
    # each edge's T is read from its position: the edges follow the bitmask order of the datum's split places
    edges = 0
    for p in (2, 3):
        for f in range(1, 9):
            for datum, entry in certificate._case_split(make_ramification(f, p)).items():
                for t, child in zip(edge_vanishing_sets(datum), entry.edges, strict=True):
                    assert child.s_inf == datum.s_inf | replay_augmented_set(f, datum.s_inf, t), (datum, t)
                    edges += 1
    assert edges == 3472


def test_a_dimension_9_case_split_takes_time_linear_in_f(unlimited_int_digits):
    # each datum's place mask is handed down from its parent, not summed over an s_inf of about f places
    rd = make_ramification(40_000, 2, range(39_991), 1)
    started = time.perf_counter()
    table = certificate._case_split(rd)
    assert time.perf_counter() - started < 2
    assert len(table) == 76


def test_every_datum_below_a_model_datum_is_a_direct_child_of_it():
    # so a root's case split is one level of distinct data deep, whatever repeats in its tree
    for m in range(1, len(certificate._TREE_SIZES)):
        model = make_ramification(m, 3)
        table = certificate._case_split(model)
        assert set(table) - {model} == set(table[model].edges), m


def test_build_walks_each_distinct_datum_once(monkeypatch):
    calls = {"model_child_masks": 0, "tables": 0, "bounds": 0}
    original = certificate.model_child_masks

    def counted(*args):
        calls["model_child_masks"] += 1
        return original(*args)

    monkeypatch.setattr(certificate, "model_child_masks", counted)
    monkeypatch.setattr(certificate, "anchored_bound", counting_anchored_bound(calls))
    cert = build_certificate(make_ramification(7, 3), GENUS_TWO)
    doc = certificate_to_doc(cert)
    nodes = doc["nodes"]
    distinct = {node_datum(doc["config"], node) for node in nodes if node["degree_bound"] is not None}
    assert len(nodes) == 1723 and len(distinct) == 29
    # the model children are listed once per dimension 7, 5 and 3 as the model table is walked; every datum
    # relabels its entry, and a datum of dimension 1 has no children; the root makes one power table,
    # which gives the bound of each of the 29 data of positive dimension
    assert calls == {"model_child_masks": 3, "tables": 1, "bounds": 29}
    # a second build relabels the kept table: one table, one bound per datum of positive dimension, and no listing
    assert serialize_certificate(build_certificate(make_ramification(7, 3), GENUS_TWO)) == serialize_certificate(cert)
    assert calls == {"model_child_masks": 3, "tables": 2, "bounds": 58}


def test_a_walk_builds_at_most_one_record_per_relabeled_datum(monkeypatch):
    # the model children (f = m, s_inf = {}) are listed as masks once per dimension m >= 2 the model's walk
    # reaches; every datum relabels them, found by their added-place mask, so the table has one entry per
    # distinct datum, and a case split builds one record per entry below its root
    for f, dims in ((7, (7, 5, 3)), (9, (9, 7, 5, 3))):
        built, listed = [0], []

        def counted(*fields, original=certificate.RamificationData):
            built[0] += 1
            return original(*fields)

        def listing(m, original=certificate.model_child_masks):
            listed.append(m)
            return original(m)

        monkeypatch.setattr(certificate, "RamificationData", counted)
        monkeypatch.setattr(certificate, "model_child_masks", listing)
        table = certificate._case_split(make_ramification(f, 3))
        monkeypatch.undo()
        assert listed == list(dims)
        # one record per datum below the root, and none for a model: 28 at f = 7 and 75 at f = 9
        assert built[0] == len(table) - 1 == len(certificate._model_table(f)) - 1 == {7: 28, 9: 75}[f]


def test_roots_of_one_dimension_share_one_model_table(monkeypatch):
    # which smaller datum a stratum leads to depends only on the cyclic order of the split places, so roots of
    # dimension 7 with other f, p and s_inf relabel one table, walked with one listing per dimension it reaches
    listed = []

    def listing(m, original=certificate.model_child_masks):
        listed.append(m)
        return original(m)

    monkeypatch.setattr(certificate, "model_child_masks", listing)
    roots = (make_ramification(7, 3), make_ramification(10, 5, {2, 6, 9}, 1), make_ramification(8, 2, {0}, 1))
    for rd in roots:
        assert list(certificate._case_split(rd).items()) == list(kernel_case_split(rd)[0].items()), rd
    assert listed == [7, 5, 3]
    assert certificate._MODEL_TABLES.keys() == {7}
    assert len(certificate._model_table(7)) == 29


def test_verify_walks_each_distinct_datum_once(monkeypatch):
    # the node-count check and the rebuild share one relabeling of the case split, and
    # the expansion makes one expected node per distinct datum
    doc = certificate_to_doc(build_certificate(make_ramification(7, 3), GENUS_TWO))
    monkeypatch.setattr(certificate, "_MODEL_TABLES", {})  # so that verify walks the model table itself
    calls = {"model_child_masks": 0, "_node_doc": 0, "tables": 0, "bounds": 0}
    for name in ("model_child_masks", "_node_doc"):
        original = getattr(certificate, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(certificate, name, counted)
    monkeypatch.setattr(certificate, "anchored_bound", counting_anchored_bound(calls))
    assert verify_document(doc)
    assert calls == {"model_child_masks": 3, "_node_doc": 29, "tables": 1, "bounds": 29}


@pytest.mark.parametrize(
    "f, p, s_inf, curve, sha256",
    [
        (6, 3, (), GENUS_TWO, "b14e7aa1d62eb3a0467ee8d6a46a59c37662f8d1913fce414f0e6b25f7c7944a"),
        (5, 2, (1, 2), FOUR_PUNCTURED, "35e289b064a8e9eea30f31c226aeaf8308d8d0422651e5c36c2125a6827a4104"),
        (4, 5, (), CurveType(3, 0), "ee10431f6f0d5bdbaea6ee56bf21fe81f60f222f433d8c139cdee91cc0cb1ae5"),
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
    # the verdict depends on the curve type alone, so it is uniform over the
    # ramification data; check that exhaustively
    for rd in all_ramifications(8, 2):
        assert build_certificate(rd, GENUS_TWO).verdict == "finite"
    for p in (3, 5):
        for rd in all_ramifications(5, p):
            assert build_certificate(rd, FOUR_PUNCTURED).verdict == "finite"
            assert build_certificate(rd, CurveType(4, 0)).verdict == "inconclusive"
