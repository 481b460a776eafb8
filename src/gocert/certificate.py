"""Finiteness certificates: the stratum-recursion case split, serialized and replayable.

A certificate documents, for one ramification datum and one curve type, the
induction bounding curves that carry nontrivial pulled-back local systems.  At
each datum the generically ordinary case is settled by a degree bound together
with an equal-degree contradiction; the non-ordinary case descends through
every Goren-Oort stratum to a strictly smaller datum; dimension zero is
automatic.  Steps delegated to the literature are listed verbatim as prose,
once per node kind under "steps", so an auditor sees exactly what is cited
rather than computed; the equal-degree comparison every node of positive
dimension applies is stated once.

Nodes carry only what varies per datum: degree_bound (null at dimension 0),
fiber_dim (null at the root), path (the vanishing sets from the root) and
s_inf (sorted).  A descent grows s_inf only, so the rest of a node's datum and
its derived fields follow from the node and the certificate's config:
- every datum of a certificate has config.rd's f, p and s_fin_count;
- its dimension is f - len(s_inf);
- its kind is dimension_zero at dimension 0, otherwise ordinary_locus at the
  root (path == []) and stratum_descent elsewhere;
- its polarization bound is 2 * degree_bound.

A certificate keeps the case split as its walk computed it: a table of the
distinct data below the root, each with its edges, a DAG of which the
document's tree is the preorder expansion.  That table is the certificate's
only tree form; no record is made per tree node.  Which stratum leads to which
smaller datum depends only on the cyclic order of the split places, so the
walk lists the children of the model datum (f = m, s_inf = {}) once per
dimension m, as integer masks (strata.model_child_masks), and every datum of
that dimension relabels them onto its own split places (_case_split; each
record is keyed by the added-place mask its parent hands down, its split
places are its parent's less the added ones, and an edge's fiber count is the
number of places it adds beyond T).  The case split relies on two facts,
stated with the checks that reach them in _case_split: every datum of
dimension m relabels the model's children, and every datum below a model
root is a direct child of it.  So a datum's subtree size depends on its
dimension alone: _TREE_SIZES lists it up to the largest dimension within
MAX_TREE_NODES, a larger one is refused before any walk, and verify checks a
node count against it without a walk.

Documents are canonical JSON: sorted keys, no insignificant whitespace, a
terminating newline, integers only.  serialize_certificate writes that text
from one node template per distinct datum, with each node's fiber count and
path written in.  _walk_nodes is the one other expansion of the table: it
hands each node, in preorder, to certificate_to_doc, which copies it into the
same document as dicts (a test pins the two texts equal), and to verification,
which replays the case split from the embedded configuration, compares each
block with the rebuilt one by value and JSON type, then the document's nodes
in order, by value, with the walked ones, stopping at the first differing node.
"""

from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple, Sequence

from ._version import __version__
from .hasse import degree_bound
from .ledger import ContradictionVerdict, contradiction_check
from .places import RamificationData, _check_json_digits, _show, make_ramification, shimura_dimension, split_places
from .rigidity import CurveType, RigidityVerdict, euler_bound, finiteness_verdict, is_special
from .strata import model_child_masks

TOOL_VERSION = f"gocert-{__version__}"

_PROSE_ORDINARY = (
    "generic-ordinarity: every partial Hasse invariant is assumed nonvanishing on the image of the curve",
    "kodaira-spencer: some pulled-back Kodaira-Spencer map is nonzero (generic separability, Stacks project 0CD2, plus the Kodaira-Spencer isomorphism on the ambient variety)",
    "isomonodromy: pulled-back Gauss-Manin bundles deform isomonodromically in any family of curves",
    "equal-degree-forcing: a nonzero map of equal-degree line bundles is an isomorphism, so the deformation class must vanish",
)
_PROSE_DESCENT = (
    "stratum-bundle: the vanishing stratum is a (P^1)^N-bundle over the smaller quaternionic datum (Tian-Xiao), with matching pulled-back local systems via p-isogeny",
    "fiber-images: curves mapped into a single (P^1)^N fiber pull back only trivial local systems",
) + _PROSE_ORDINARY
_PROSE_DIM_ZERO = (
    "dimension-zero: finiteness over a zero-dimensional datum is automatic",
)
_PROSE_ROOT_SPECIAL = (
    "hodge-rigidity: the forced degree-one Hodge subbundle makes the Higgs map an isomorphism; square roots of the twisted canonical bundle pin the count",
    "curve-count: finiteness of the curves themselves is delegated to the Arakelov equality, Viehweg-Zuo Shimura-curve covers, and Takeuchi finiteness of arithmetic Fuchsian groups of bounded genus",
)


class Steps(NamedTuple):
    prose: tuple[str, ...]
    flags: tuple[str, ...]


# What every node of a kind (derived, see above) cites; each certificate adds "root", the root's curve-dependent extras.
KIND_STEPS = {
    "ordinary_locus": Steps(_PROSE_ORDINARY, ()),
    "stratum_descent": Steps(_PROSE_DESCENT, ("N-from-dimension-count",)),
    "dimension_zero": Steps(_PROSE_DIM_ZERO, ()),
}

# Largest case split analyze builds and verify replays: at s_inf = {}, f = 9 fits and f = 10 does not.
MAX_TREE_NODES = 100_000
# The subtree size of a datum of each dimension 0..9, which depends on the
# dimension alone (_case_split); dimension 10 has 299 263 nodes, over
# MAX_TREE_NODES, so from len(_TREE_SIZES) on a datum is refused before any walk.
_TREE_SIZES = (1, 1, 3, 7, 31, 91, 495, 1723, 10815, 42667)
_TOO_LARGE = f"the case split has more than {MAX_TREE_NODES} nodes"


class _Split(NamedTuple):
    degree_bound: int | None
    edges: tuple[tuple[tuple[int, ...], RamificationData, int], ...]  # (sorted t, child, fiber_dim)


class FinitenessCertificate(NamedTuple):
    """A certificate as its case-split table: each distinct datum below rd once, with its edges.

    split is the table _case_split(rd) returns, a DAG whose preorder expansion
    is the document's tree (at f = 9 and s_inf = {}, 76 data for 42 667
    nodes).  The nodes are listed only in a document:
    certificate_to_doc(cert)["nodes"].
    """

    rd: RamificationData
    curve: CurveType
    rigidity: RigidityVerdict
    contradiction: ContradictionVerdict
    steps: dict[str, Steps]
    split: dict[RamificationData, _Split]
    verdict: str
    tool_version: str


def _case_split(rd: RamificationData) -> dict[RamificationData, _Split]:
    """Each distinct datum below rd with its degree bound and its edges in strata_children order.

    A datum of dimension 0 or 1 has no children (2^1 - 2 = 0).  A chain of
    s_inf | T runs from one free split place to the next, so its part in T is a
    run of consecutive split places in T, and the place it adds for an odd run
    is the free split place just before the run.  With its split places
    numbered 0..m-1, every datum of dimension m thus has the children of the
    model datum (f = m, s_inf = {}): the split places an edge adds to s_inf, as
    an index mask, depend on the edge alone, and they are the model's
    children's s_inf masks, which model_child_masks(m) lists on integers,
    building no stratum or record.  So the walk lists them once per dimension
    m >= 2 it reaches, and every datum relabels them: it lists the sorted T
    and added-place mask (the places beyond rd's s_inf, handed down by its
    parent) of each index mask of its split places, so an edge costs a few
    integer operations and each mask gets one record.  A child's split places
    are its parent's less the ones its edge adds, so split_places scans rd
    alone.  An edge's fiber count is the number of places it adds beyond T,
    one per odd chain.  Nothing outlives the walk.  So a datum's subtree size
    depends on its dimension alone: _TREE_SIZES[dim], which a test pins to the
    kernel walk.

    Two facts carry this, each checked up to the size stated:
    - every datum of dimension m relabels the model's children: the walk equals
      the one that calls strata_children on every datum for every root with
      f <= 8 (tier-1, test_relabeled_case_split_equals_the_kernel_walk) and
      f <= 10 (CI, tests/check_case_split.py), and model_child_masks(m) equals
      the masks of strata_children on the model for m <= 12 (tier-1),
      m <= max_f <= 12 (selfcheck's model-masks suite) and m <= 16 (CI);
    - every datum below a model root is a direct child of it, so a walk makes
      one record per distinct child of its root: for m <= 9 (tier-1,
      test_every_datum_below_a_model_datum_is_a_direct_child_of_it).

    Raises ValueError before any walk when rd's dimension is past _TREE_SIZES
    (over MAX_TREE_NODES nodes), and as the walk enters a datum whose degree
    bound, the largest integer a node holds, has more digits than json
    converts (_check_json_digits), so for the root before any walk.
    """
    if shimura_dimension(rd) >= len(_TREE_SIZES):
        raise ValueError(_TOO_LARGE)
    table: dict[RamificationData, _Split] = {}
    _split_below(rd, split_places(rd), 0, table, {}, {})
    return table


def _split_below(
    datum: RamificationData,
    splits: Sequence[int],
    added: int,
    table: dict[RamificationData, _Split],
    shapes: dict[int, list[int]],
    records: dict[int, RamificationData],
) -> None:
    """Enter datum, given its split places in ascending order and the mask of the places its s_inf adds beyond the root's, and every datum below it.

    shapes maps each dimension of at least 2 to model_child_masks of it;
    records maps the added-place masks parents hand down to their data.
    """
    dim = len(splits)
    bound = degree_bound(datum) if dim else None
    if bound is not None:
        _check_json_digits(bound, f"the degree bound at f={datum.f}")
    edges = []
    if dim > 1:
        shape = shapes.get(dim)
        if shape is None:
            shape = shapes[dim] = model_child_masks(dim)
        f, s_inf, count, p = datum
        ts, masks = [()], [added]  # by index mask: sorted places, added-place mask
        for place in splits:
            ts += [t + (place,) for t in ts]
            masks += [mask | 1 << place for mask in masks]
        full = len(ts) - 1
        for t, grown in zip(ts[1:], shape):
            if (child := records.get(masks[grown])) is None:
                child = records[masks[grown]] = RamificationData(f, s_inf.union(ts[grown]), count, p)
                # the child's split places are datum's but for the ones the edge adds
                _split_below(child, ts[full ^ grown], masks[grown], table, shapes, records)
            edges.append((t, child, len(ts[grown]) - len(t)))  # fiber count: the places added beyond T
    table[datum] = _Split(bound, tuple(edges))


def build_certificate(
    rd: RamificationData, ct: CurveType, *, split: dict[RamificationData, _Split] | None = None
) -> FinitenessCertificate:
    """Replay the induction over the full stratum tree of rd, deterministically.

    The root (reached by the empty vanishing set) and every descended datum of
    positive dimension carry the anchor-maximized degree bound; the one
    equal-degree comparison, with filtration degree one and trivial
    determinant, applies to each of them.  Children follow in canonical
    bitmask order, so repeated builds serialize to identical bytes.  The
    verdict depends on the curve alone: it is "finite" exactly when the
    curve's rigidity verdict is, when 2g - 2 + n = 2, which is also exactly
    when the equal-degree comparison yields a contradiction (selfcheck's
    contradiction-agreement suite); the case split is the certificate's
    content, never a term of its verdict.  The certificate keeps the
    case-split table and lists no nodes.  Raises ValueError when the curve's
    2g - 2 + n, or a degree bound, has more digits than json converts, and
    when the tree has more than MAX_TREE_NODES nodes.  A caller that has already walked rd passes the table
    _case_split(rd) returned as split, and no second walk is made.
    """
    # no integer the curve puts in the document has more digits than 2g - 2 + n
    _check_json_digits(euler_bound(ct), "the curve's 2g-2+n")
    rig = finiteness_verdict(ct)
    table = _case_split(rd) if split is None else split
    contra = contradiction_check(ct, 1, 0)
    root_prose = _PROSE_ROOT_SPECIAL if is_special(ct) else ()
    root_steps = Steps(root_prose, ("extrapolated-(1,2)",) if ct == CurveType(1, 2) else ())
    verdict = "finite" if rig.finite else "inconclusive"
    return FinitenessCertificate(
        rd=rd,
        curve=ct,
        rigidity=rig,
        contradiction=contra,
        steps={**KIND_STEPS, "root": root_steps},
        split=table,
        verdict=verdict,
        tool_version=TOOL_VERSION,
    )


def _entry_doc(datum: RamificationData, entry: _Split, path: Any, fiber: Any) -> dict[str, Any]:
    """The document of a node of datum, from datum's case-split entry, with the path and fiber given."""
    return {"degree_bound": entry.degree_bound, "fiber_dim": fiber, "path": path, "s_inf": sorted(datum.s_inf)}


# a datum's node dict, and its edges with each vanishing set as a path step
_NodeRow = tuple[dict[str, Any], tuple[tuple[list[int], RamificationData, int], ...]]
_Visit = Callable[[list[list[int]], dict[str, Any]], bool | None]


def _walk_nodes(table: dict[RamificationData, _Split], root: RamificationData, visit: _Visit) -> None:
    """Call visit(path, node) for each node of the tree of table below root, in preorder; stop once visit returns true.

    Each datum has one node dict, and all of them share one path list, which
    the walk keeps equal to the current node's path; only fiber_dim is written
    per node.  So a node and its path hold only during its visit: visit copies
    what it keeps, and formats any message about the node before it returns.
    """
    path: list[list[int]] = []
    rows: dict[RamificationData, _NodeRow] = {}
    for datum, entry in table.items():
        node = _entry_doc(datum, entry, path, None)
        rows[datum] = node, tuple((list(t), child, fiber) for t, child, fiber in entry.edges)
    _visit_below(root, None, rows, path, visit)


def _visit_below(
    datum: RamificationData, fiber: int | None, rows: dict[RamificationData, _NodeRow], path: list[list[int]], visit: _Visit
) -> bool:
    """_walk_nodes from the node of datum reached with fiber at path; true once visit has returned true."""
    node, edges = rows[datum]
    node["fiber_dim"] = fiber
    if visit(path, node):
        return True
    for step, child, child_fiber in edges:
        path.append(step)
        if _visit_below(child, child_fiber, rows, path, visit):
            return True
        path.pop()
    return False


def _blocks_doc(cert: FinitenessCertificate) -> dict[str, Any]:
    """Every top-level block of the certificate's document except "nodes"."""
    rd = cert.rd
    return {
        "config": {
            "curve": {"g": cert.curve.g, "n": cert.curve.n},
            "rd": {"f": rd.f, "p": rd.p, "s_fin_count": rd.s_fin_count, "s_inf": sorted(rd.s_inf)},
        },
        "contradiction": cert.contradiction._asdict(),
        "rigidity": {**cert.rigidity._asdict(), "euler_bound": euler_bound(cert.curve)},
        "steps": {key: {"flags": list(s.flags), "prose": list(s.prose)} for key, s in cert.steps.items()},
        "tool_version": cert.tool_version,
        "verdict": cert.verdict,
    }


def certificate_to_doc(cert: FinitenessCertificate) -> dict[str, Any]:
    """The certificate's document as dicts; every node has dicts and lists of its own."""
    nodes: list[dict[str, Any]] = []

    def keep(path: list[list[int]], node: dict[str, Any]) -> None:
        nodes.append({**node, "path": [step.copy() for step in path], "s_inf": node["s_inf"].copy()})

    _walk_nodes(cert.split, cert.rd, keep)
    return {**_blocks_doc(cert), "nodes": nodes}


# built once: json.dumps given any option builds an encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def serialize_document(doc: dict[str, Any]) -> str:
    """Canonical text form: sorted keys, compact separators, newline-terminated.

    Every document written is a tree of dicts and lists, built here or by
    json.loads, so the encoder's cycle check only costs time.
    """
    return _ENCODER.encode(doc) + "\n"


# Strings no field holds (JSON writes the NUL as \u0000), put in a template
# where per-node text goes and found again in the encoded text.
_FIBER_SLOT, _PATH_SLOT, _NODES_SLOT = "\0fiber_dim", "\0path", "\0nodes"
_FIBER_TEXT, _PATH_TEXT, _NODES_TEXT = (_ENCODER.encode(slot) for slot in (_FIBER_SLOT, _PATH_SLOT, _NODES_SLOT))
# a datum's node text around its fiber count and path, and its edges' texts
_TextRow = tuple[str, str, str, tuple[tuple[str, RamificationData, str], ...]]


def serialize_certificate(cert: FinitenessCertificate) -> str:
    """The certificate's document in canonical text form.

    The text equals serialize_document(certificate_to_doc(cert)), but no
    node's dicts are built: the case-split table is walked in preorder.  Only
    fiber_dim and path differ between nodes of one datum, so each distinct
    datum's node is encoded once, with slots for those two, and split at the
    slots into the text around them; each vanishing set and fiber count is
    encoded once too.  A node's text is its datum's template with its fiber
    count and path written in, and the walk hands each child its path text
    as the parent's plus one step.
    """
    table, root = cert.split, cert.rd
    encoded: dict[Any, str] = {}

    def encode(value: Any) -> str:
        text = encoded.get(value)
        if text is None:
            text = encoded[value] = _ENCODER.encode(value)
        return text

    rows: dict[RamificationData, _TextRow] = {}
    for datum, entry in table.items():
        head, _, after = _ENCODER.encode(_entry_doc(datum, entry, _PATH_SLOT, _FIBER_SLOT)).partition(_FIBER_TEXT)
        mid, _, tail = after.partition(_PATH_TEXT)
        rows[datum] = head, mid, tail, tuple((encode(t), child, encode(fiber)) for t, child, fiber in entry.edges)
    texts: list[str] = []
    _write_below(root, "", encode(None), rows, texts)
    before, _, after = serialize_document({**_blocks_doc(cert), "nodes": _NODES_SLOT}).partition(_NODES_TEXT)
    return f"{before}[{','.join(texts)}]{after}"


def _write_below(
    datum: RamificationData, steps: str, fiber: str, rows: dict[RamificationData, _TextRow], texts: list[str]
) -> None:
    """Append the texts of datum's node, given its path text (steps, no brackets) and fiber text, and of its subtree."""
    head, mid, tail, edges = rows[datum]
    texts.append(f"{head}{fiber}{mid}[{steps}]{tail}")
    prefix = f"{steps}," if steps else ""
    for step, child, child_fiber in edges:
        _write_below(child, prefix + step, child_fiber, rows, texts)


def error_document(message: str) -> dict[str, Any]:
    """Document emitted when a configuration cannot be analyzed at all."""
    return {"error": message, "tool_version": TOOL_VERSION, "verdict": "error"}


def parse_config(config: Any) -> tuple[RamificationData, CurveType]:
    """Parse a configuration block, the one input format; raises ValueError when malformed.

    The block is what a certificate carries under "config":
    {"curve": {"g", "n"}, "rd": {"f", "p", "s_fin_count", "s_inf"}}.  The
    command line's flags and config files reach the pipeline through here too.
    Only the shape is checked here; make_ramification and CurveType check the values.
    """
    if not isinstance(config, dict) or set(config) != {"curve", "rd"}:
        raise ValueError("config must be an object with exactly the keys 'curve' and 'rd'")
    rd_doc = config["rd"]
    if not isinstance(rd_doc, dict) or set(rd_doc) != {"f", "p", "s_fin_count", "s_inf"}:
        raise ValueError("config.rd must carry exactly f, p, s_fin_count, s_inf")
    if not isinstance(rd_doc["s_inf"], list):
        raise ValueError("config.rd.s_inf must be a list")
    curve_doc = config["curve"]
    if not isinstance(curve_doc, dict) or set(curve_doc) != {"g", "n"}:
        raise ValueError("config.curve must carry exactly g and n")
    rd = make_ramification(
        f=rd_doc["f"],
        p=rd_doc["p"],
        s_inf=rd_doc["s_inf"],
        s_fin_count=rd_doc["s_fin_count"],
    )
    return rd, CurveType(g=curve_doc["g"], n=curve_doc["n"])


class VerifyResult(NamedTuple):
    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _first_mismatch(where: str, got: Any, want: Any) -> str | None:
    """Name the first field of got that differs from want's, or the whole values unless both are dicts; None when none differs.

    A value differs when it is unequal or of another type: json.loads reads
    1 == true == 1.0, so equality alone would accept one for another.  Only the
    top-level fields of a dict are compared by type.  A key that is not a
    string, which JSON text cannot carry, is unexpected.
    """
    if type(got) is dict and type(want) is dict:
        # the C-level comparison first: a dict equal in value gets one pass over its fields' types
        if got == want and all(type(got[key]) is type(value) for key, value in want.items()):
            return None
        for key in got:
            if type(key) is not str:
                return f"{where}: field {_show(key)} is unexpected"
        for key in sorted(got.keys() | want.keys()):
            if key not in got or key not in want:
                return f"{where}: field {key!r} is {'missing' if key in want else 'unexpected'}"
            if got[key] != want[key] or type(got[key]) is not type(want[key]):
                return f"{where}: field {key!r} is {_show(got[key])}, expected {want[key]!r}"
    elif got == want and type(got) is type(want):
        return None
    return f"{where} is {_show(got)}, expected {want!r}"


def verify_document(doc: Any) -> VerifyResult:
    """Independent replay: the document must equal the one rebuilt from its own config.

    In order: the top-level keys; the config, through parse_config; "nodes" is
    a non-empty list; the root's dimension is within _TREE_SIZES, else the
    tree-size refusal; the node count equals _TREE_SIZES at that dimension.  No
    walk is made before these, so a document cannot demand a build larger than
    the one its own length implies.  Then the rebuild, which refuses a curve or
    a degree bound too large for json.  The one check on content is then the
    exact comparison with the rebuild: every top-level block, its fields by
    JSON type as well (_first_mismatch), then the nodes in document order, by
    value, against _walk_nodes of the table, stopping at the first differing
    node.  A key that is not a string is named as unexpected.  Truthy exactly
    when every block and node is equal; otherwise the failures name each
    differing block and the first differing node (by node path and field).
    """
    if not isinstance(doc, dict):
        return VerifyResult(False, ("document is not an object",))
    expected_keys = {"config", "contradiction", "nodes", "rigidity", "steps", "tool_version", "verdict"}
    if set(doc) != expected_keys:
        odd = [key for key in doc if type(key) is not str]  # JSON text cannot carry one
        if odd:
            return VerifyResult(False, (f"document: field {_show(odd[0])} is unexpected",))
        missing = sorted(expected_keys - set(doc))
        extra = sorted(set(doc) - expected_keys)
        return VerifyResult(False, (f"document keys are wrong (missing {missing}, extra {extra})",))
    try:
        rd, ct = parse_config(doc["config"])
    except (ValueError, TypeError) as exc:
        return VerifyResult(False, (f"config: {exc}",))
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not nodes:
        return VerifyResult(False, ("nodes must be a non-empty list",))
    m = shimura_dimension(rd)
    if m >= len(_TREE_SIZES):
        return VerifyResult(False, (_TOO_LARGE,))
    if len(nodes) != _TREE_SIZES[m]:
        return VerifyResult(False, (f"node count is {len(nodes)}, expected {_TREE_SIZES[m]}",))
    try:
        cert = build_certificate(rd, ct)
    except ValueError as exc:
        return VerifyResult(False, (str(exc),))
    blocks = sorted(_blocks_doc(cert).items())
    failures = [failure for key, want in blocks if (failure := _first_mismatch(key, doc[key], want))]
    # the node count matches the tree's, so every visit has a document node
    got_nodes = enumerate(nodes)

    def differs(path: list[list[int]], want: dict[str, Any]) -> bool:
        i, got = next(got_nodes)
        if got == want:
            return False
        failures.append(_first_mismatch(f"nodes[{i}] path={path}", got, want))
        return True

    _walk_nodes(cert.split, rd, differs)
    return VerifyResult(not failures, tuple(failures))
