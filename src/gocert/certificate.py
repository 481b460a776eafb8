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

Nodes carry only what varies per datum: degree_bound (null at dimension 0)
and s_inf (sorted), so every node of one datum is the same record.  A descent
grows s_inf only, so the rest of a node's datum and its derived fields follow
from the node, its position and the certificate's config:
- every datum of a certificate has config.rd's f, p and s_fin_count;
- its dimension is f - len(s_inf);
- its kind is dimension_zero at dimension 0, otherwise ordinary_locus at the
  root (nodes[0]) and stratum_descent elsewhere;
- its polarization bound is 2 * degree_bound.
The tree is read by _TREE_SIZES: a node's first child follows it, and each
later child follows the _TREE_SIZES[dim] nodes of its elder sibling's subtree.

A certificate keeps the case split as _case_split computed it: a table of the
distinct data below the root, each with its children, a DAG of which the
document's tree is the preorder expansion.  That table is the certificate's
only tree form; no record is made per tree node.  Which stratum leads to which
smaller datum depends only on the cyclic order of the split places, so the
table of every datum of dimension m is that of the model datum (f = m,
s_inf = {}) relabeled onto its own split places.  The model's table is walked
once per dimension and kept for the life of the process, on indices into the
model's split places (_model_table, which lists model children as integer
masks with strata.model_child_masks), and each build maps it onto its root's
split places in one loop (_case_split).  The case split relies on two facts,
stated with the checks that reach them in _case_split: every datum of
dimension m relabels the model's children, and every datum below a model
root is a direct child of it.  So a datum's subtree size depends on its
dimension alone: _TREE_SIZES lists it up to the largest dimension within
MAX_TREE_NODES, a larger one is refused before any table is read, and verify
checks a node count against it without one.

Documents are canonical JSON: sorted keys, no insignificant whitespace, a
terminating newline, integers only.  _preorder is the one expansion of the
table: it joins each datum's subtree once, from item(datum, entry) and its
children's subtrees, which the table lists before it, with the join it is
given: the list of every node's item in preorder (_list_join), or their
texts joined by commas (_text_join).  The blocks other than config and nodes
depend only on the curve's fields: _curve_blocks keeps them for the last 16
keys (those fields, and the types of rigidity's and contradiction's) as a
read-only document, which only verify reads, and as canonical text cut at a
config slot and a nodes slot.  serialize_certificate splices into that text
the encoded config and the root's subtree text, joined from one node text per
distinct datum; certificate_to_doc builds fresh blocks and one node dict per
distinct datum, and copies each node (a test pins the two texts equal); and
verification replays the case split from the embedded configuration, compares
each block by value and JSON type with the rebuilt config or the cached
document, then the document's nodes with the expanded list, by value in one
comparison and by JSON type in whole-list passes, naming the first differing
node only on a mismatch.

The curve alone also fixes four fields of a certificate: its rigidity and
contradiction verdicts, the root's steps and the verdict.  _curve_fields
keeps them, all immutable, for the last 16 curves, so build_certificate
computes them once per curve in a process (as places._is_prime decides each
p once, for the last 64), and each certificate gets a steps dict of its own.
The check that the curve's 2g - 2 + n has no more digits than json converts
stays on every build, outside that memo: the interpreter's limit can change
between two builds of one curve.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from itertools import chain, compress, count
from math import log10
from operator import is_, itemgetter, ne
from types import MappingProxyType
from typing import Any, Callable, NamedTuple

from ._version import __version__
from .hasse import anchored_bound
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
# MAX_TREE_NODES, so from len(_TREE_SIZES) on a datum is refused before any table is read.
_TREE_SIZES = (1, 1, 3, 7, 31, 91, 495, 1723, 10815, 42667)
_TOO_LARGE = f"the case split has more than {MAX_TREE_NODES} nodes"


class _Split(NamedTuple):
    degree_bound: int | None
    edges: tuple[RamificationData, ...]  # the child of each vanishing set, in bitmask order


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


# The table of each model datum a build has reached, by dimension (_model_table): at most len(_TREE_SIZES).
_MODEL_TABLES: dict[int, list] = {}


def _model_table(m: int) -> list:
    """(added, kept, edges) for each distinct datum below the model datum of dimension m, in post-order, the model last.

    added and kept are the model's split places, 0..m-1, that the datum adds to
    s_inf and keeps split; edges are the positions of its edges' children in
    the table, in bitmask order.  The walk is made once per m in a process
    (76 entries at m = 9): it lists the model children with model_child_masks
    once per dimension of at least 2 it reaches, and every datum relabels them
    onto the places it keeps, so an edge costs a few integer operations and
    each distinct added-place mask gets one entry.
    """
    if m not in _MODEL_TABLES:
        _model_below(m, 0, table := [], {}, {})
        _MODEL_TABLES[m] = table
    return _MODEL_TABLES[m]


def _model_below(m: int, added: int, table: list, shapes: dict, positions: dict) -> int:
    """Enter the datum of the model of dimension m whose s_inf has the bit mask added, and every datum below it; return its position.

    shapes maps each dimension of at least 2 to model_child_masks of it;
    positions maps the added-place masks of the data entered to their positions.
    """
    kept, edges = tuple([x for x in range(m) if not added >> x & 1]), ()
    if (dim := len(kept)) > 1:
        if (shape := shapes.get(dim)) is None:
            shape = shapes[dim] = model_child_masks(dim)
        masks = [added]  # by index mask over kept: the added-place mask with the places it selects
        for bit in map((1).__lshift__, kept):
            masks += [mask | bit for mask in masks]
        children = itemgetter(*shape)(masks)  # 2^dim - 2 >= 2 of them, so a tuple
        for child in dict.fromkeys(children):
            if child not in positions:
                positions[child] = _model_below(m, child, table, shapes, positions)
        edges = itemgetter(*children)(positions)
    table.append((tuple([x for x in range(m) if added >> x & 1]), kept, edges))
    return len(table) - 1


def _case_split(rd: RamificationData) -> dict[RamificationData, _Split]:
    """Each distinct datum below rd with its degree bound and its edges' children in strata_children order, rd last.

    A datum of dimension 0 or 1 has no children (2^1 - 2 = 0).  A chain of
    s_inf | T runs from one free split place to the next, so its part in T is a
    run of consecutive split places in T, and the place it adds for an odd run
    is the free split place just before the run.  With its split places
    numbered 0..m-1, every datum of dimension m thus has the children of the
    model datum (f = m, s_inf = {}): the split places an edge adds to s_inf, as
    an index mask, depend on the edge alone, and they are the model's
    children's s_inf masks, which model_child_masks(m) lists on integers.
    Applied at every datum below rd, rd's whole table is the model's table
    relabeled: _model_table(m) holds it on indices into the model's split
    places, and one loop maps each entry onto rd's split places, building one
    record per datum below rd, so split_places scans rd alone, and each
    bound from rd's one table of p-powers (hasse.anchored_bound), given the
    datum's kept places as indices.  An edge keeps only its child: its T is
    the index mask of its position.  So a datum's subtree size depends on its dimension
    alone: _TREE_SIZES[dim], which a test pins to the kernel walk.

    Two facts carry this, each checked up to the size stated:
    - every datum of dimension m relabels the model's children: each entry of
      a table equals that datum's own root entry, each root edge's child is
      the oracle's, and each root bound is the oracle's degree maximum, for
      every root with f <= max_f <= 12 and dimension <= 9, at selfcheck's
      first prime (its case-split-oracle suite); the table equals the kernel
      walk for f <= 8 (tier-1) and f <= 10 (CI, tests/check_case_split.py);
    - every datum below a model root is a direct child of it, so a table has
      one entry per distinct child of its root: for every root of
      case-split-oracle's scope, and for m <= 9 (tier-1,
      test_every_datum_below_a_model_datum_is_a_direct_child_of_it).

    Raises ValueError before any table is read when rd's dimension is past
    _TREE_SIZES (over MAX_TREE_NODES nodes), and when rd's degree bound, the
    largest integer a node holds, has more digits than json converts
    (_check_json_digits).  No datum below rd has a larger bound: its split
    places are some of rd's, so each anchored sum only loses terms.  A bound
    whose term p^(f - gap) alone has clearly too many digits is refused
    before any power is computed.
    """
    m = shimura_dimension(rd)
    if m >= len(_TREE_SIZES):
        raise ValueError(_TOO_LARGE)
    f, s_inf, s_fin_count, p = rd
    splits = split_places(rd)
    root_bound = None
    if m:
        what = f"the degree bound at f={f}"
        # p^f is above every anchored sum, and the sum anchored just after the smallest cyclic gap
        # between split places has the term p^(f - gap); when that has clearly more digits than json
        # converts, 10^limit, one digit too long, stands in for the bound, refused before any power
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit and f * log10(p) > limit + 1:
            gap = min([b - a for a, b in zip([splits[-1] - f, *splits], splits)])
            if (f - gap) * log10(p) > limit + 1:
                _check_json_digits(10**limit, what)
        bound_of = anchored_bound(f, p, splits)
        _check_json_digits(root_bound := bound_of(range(m)), what)
    place, data, table = splits.__getitem__, [], {}
    for added, kept, edges in _model_table(m):
        datum, bound = rd, root_bound  # the root's entry, the last one, adds no place
        if added:
            datum = RamificationData(f, s_inf.union(map(place, added)), s_fin_count, p)
            bound = bound_of(kept) if kept else None
        data.append(datum)
        table[datum] = _Split(bound, itemgetter(*edges)(data) if edges else ())
    return table


@lru_cache(maxsize=16, typed=True)
def _curve_fields(ct: CurveType) -> tuple[RigidityVerdict, ContradictionVerdict, Steps, str]:
    """The certificate fields that depend on the curve alone: rigidity, contradiction, root steps and verdict, all immutable."""
    rig = finiteness_verdict(ct)
    root_steps = Steps(_PROSE_ROOT_SPECIAL if is_special(ct) else (), ("extrapolated-(1,2)",) if ct == CurveType(1, 2) else ())
    return rig, contradiction_check(ct, 1, 0), root_steps, "finite" if rig.finite else "inconclusive"


def build_certificate(rd: RamificationData, ct: CurveType) -> FinitenessCertificate:
    """Replay the induction over the full stratum tree of rd, deterministically.

    The root (reached by the empty vanishing set) and every descended datum of
    positive dimension carry the anchor-maximized degree bound; the one
    equal-degree comparison, with filtration degree one and trivial
    determinant, applies to each of them.  Children follow in canonical
    bitmask order, so repeated builds serialize to identical bytes.  The
    verdict depends on the curve alone: it is "finite" exactly when the
    curve's rigidity verdict is, when 2g - 2 + n = 2, which is also exactly
    when the equal-degree comparison yields a contradiction (selfcheck's
    curve-table suite); the case split is the certificate's
    content, never a term of its verdict.  The certificate keeps the
    case-split table and lists no nodes.  The curve's fields come from the
    per-process memo _curve_fields, and only the steps dict is made per call.
    Raises ValueError when the curve's 2g - 2 + n, or a degree bound, has
    more digits than json converts, checked on every call since the limit
    can change, and when the tree has more than MAX_TREE_NODES nodes.
    """
    # no integer the curve puts in the document has more digits than 2g - 2 + n
    _check_json_digits(euler_bound(ct), "the curve's 2g-2+n")
    rig, contra, root_steps, verdict = _curve_fields(ct)
    table = _case_split(rd)
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


def _preorder(
    table: dict[RamificationData, _Split],
    item: Callable[[RamificationData, _Split], Any],
    join: Callable[[Any, tuple[RamificationData, ...], dict[RamificationData, Any]], Any],
) -> Any:
    """The root's subtree, where the subtree of each datum d of table is join(item(d, table[d]), d's children, subtrees).

    table lists each datum after its children and the root last, as
    _case_split builds it, so each datum's subtree is joined once, from its
    children's, which subtrees holds by then: item is called once per
    distinct datum, and every node of a datum is its one item.  With
    _list_join the subtree is the list of its nodes' items in preorder, with
    _text_join their texts in that order.
    """
    subtrees: dict[RamificationData, Any] = {}
    for datum, entry in table.items():
        subtrees[datum] = below = join(item(datum, entry), entry.edges, subtrees)
    return below


def _list_join(item: Any, children: tuple[RamificationData, ...], subtrees: dict[RamificationData, list[Any]]) -> list[Any]:
    """A subtree as the list of its nodes' items in preorder: item, then each child's list."""
    below = [item]
    for child in children:
        below += subtrees[child]
    return below


def _node_doc(datum: RamificationData, entry: _Split) -> dict[str, Any]:
    """The document of every node of datum, from its case-split entry."""
    return {"degree_bound": entry.degree_bound, "s_inf": sorted(datum.s_inf)}


def _config_doc(cert: FinitenessCertificate) -> dict[str, Any]:
    """The certificate's "config" block, the one block besides "nodes" that names its datum."""
    rd = cert.rd
    return {
        "curve": {"g": cert.curve.g, "n": cert.curve.n},
        "rd": {"f": rd.f, "p": rd.p, "s_fin_count": rd.s_fin_count, "s_inf": sorted(rd.s_inf)},
    }


def _curve_key(cert: FinitenessCertificate) -> tuple[tuple, tuple]:
    """_curve_doc's arguments, then the types of the rigidity and contradiction fields: json writes 1, True and 1.0 apart."""
    fields = cert.curve, cert.rigidity, cert.contradiction, tuple(cert.steps.items()), cert.verdict, cert.tool_version
    return fields, tuple(map(type, (*cert.rigidity, *cert.contradiction)))


def _curve_doc(
    curve: CurveType, rigidity: RigidityVerdict, contradiction: ContradictionVerdict, steps: tuple, verdict: str, tool_version: str
) -> dict[str, Any]:
    """The curve blocks: every top-level block but "config" and "nodes"."""
    return {
        "contradiction": contradiction._asdict(),
        "rigidity": {**rigidity._asdict(), "euler_bound": euler_bound(curve)},
        "steps": {key: {"flags": list(s.flags), "prose": list(s.prose)} for key, s in steps},
        "tool_version": tool_version,
        "verdict": verdict,
    }


def certificate_to_doc(cert: FinitenessCertificate) -> dict[str, Any]:
    """The certificate's document as dicts; every node has a dict and a list of its own."""
    nodes = [{**node, "s_inf": node["s_inf"].copy()} for node in _preorder(cert.split, _node_doc, _list_join)]
    return {"config": _config_doc(cert), **_curve_doc(*_curve_key(cert)[0]), "nodes": nodes}


# built once: json.dumps given any option builds an encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def serialize_document(doc: dict[str, Any]) -> str:
    """Canonical text form: sorted keys, compact separators, newline-terminated.

    Every document written is a tree of dicts and lists, built here or by
    json.loads, so the encoder's cycle check only costs time.
    """
    return _ENCODER.encode(doc) + "\n"


# Strings no field holds (JSON writes the NUL as \u0000), put in the document
# where the config's and the nodes' texts go and found again in the encoded text.
_CONFIG_TEXT = _ENCODER.encode(_CONFIG_SLOT := "\0config")
_NODES_TEXT = _ENCODER.encode(_NODES_SLOT := "\0nodes")


@lru_cache(maxsize=16)
def _curve_blocks(fields: tuple, types: tuple) -> tuple[MappingProxyType, tuple[str, str, str]]:
    """_curve_doc(*fields) as a read-only document and as its text cut at the two slots, keyed by _curve_key."""
    doc = _curve_doc(*fields)
    before, _, after = serialize_document({**doc, "config": _CONFIG_SLOT, "nodes": _NODES_SLOT}).partition(_CONFIG_TEXT)
    middle, _, after = after.partition(_NODES_TEXT)
    return MappingProxyType(doc), (before, middle, after)


def _node_text(datum: RamificationData, entry: _Split) -> str:
    """The canonical text of every node of datum, _node_doc's as json writes it: int.__repr__ digits, null at dimension 0."""
    bound = "null" if entry.degree_bound is None else int.__repr__(entry.degree_bound)
    return f'{{"degree_bound":{bound},"s_inf":[{",".join(map(int.__repr__, sorted(datum.s_inf)))}]}}'


def _text_join(text: str, children: tuple[RamificationData, ...], subtrees: dict[RamificationData, str]) -> str:
    """A subtree as its nodes' texts in preorder, comma-separated; a datum has no child or at least 2 (2^dim - 2)."""
    return ",".join([text, *itemgetter(*children)(subtrees)]) if children else text


def serialize_certificate(cert: FinitenessCertificate) -> str:
    """The certificate's document in canonical text form.

    The text equals serialize_document(certificate_to_doc(cert)), but only
    the config is encoded: the curve blocks' text comes from _curve_blocks,
    each distinct datum's node is formatted once, and _preorder joins each
    datum's subtree text once, so no list has an entry per node.
    """
    before, middle, after = _curve_blocks(*_curve_key(cert))[1]
    nodes = _preorder(cert.split, _node_text, _text_join)
    return f"{before}{_ENCODER.encode(_config_doc(cert))}{middle}[{nodes}]{after}"


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


def _same(got: Any, want: Any) -> bool:
    """Whether got equals want in value and in type, and so do a list's items."""
    return (
        type(got) is type(want)
        and got == want
        and (type(want) is not list or all(map(is_, map(type, got), map(type, want))))
    )


def _first_mismatch(where: str, got: Any, want: Any) -> str | None:
    """Name the first field of got that differs from want's, or the whole values unless both are dicts; None when none differs.

    A value differs when it is not _same: json.loads reads 1 == true == 1.0,
    so equality alone would accept one for another.  Only the top-level fields
    of a dict, and the items of a list among them, are compared by type.  A
    key that is not a string, which JSON text cannot carry, is unexpected.
    """
    if type(got) is dict and type(want) is dict:
        # the C-level comparison first: a dict equal in value gets one pass over its fields' types
        if got == want and all(_same(got[key], value) for key, value in want.items()):
            return None
        for key in got:
            if type(key) is not str:
                return f"{where}: field {_show(key)} is unexpected"
        for key in sorted(got.keys() | want.keys()):
            if key not in got or key not in want:
                return f"{where}: field {key!r} is {'missing' if key in want else 'unexpected'}"
            if not _same(got[key], want[key]):
                return f"{where}: field {key!r} is {_show(got[key])}, expected {want[key]!r}"
    elif _same(got, want):
        return None
    return f"{where} is {_show(got)}, expected {want!r}"


_BOUND = itemgetter("degree_bound")
_S_INF = itemgetter("s_inf")


def _nodes_hold_json_types(nodes: list[Any]) -> bool:
    """Whether nodes, equal in value to expanded ones, are dicts whose bounds are int or null and whose s_inf are lists of int.

    Each is one pass over the whole list, so no node is looked at alone.
    """
    return (
        set(map(type, nodes)) <= {dict}
        and set(map(type, map(_BOUND, nodes))) <= {int, type(None)}
        and set(map(type, map(_S_INF, nodes))) <= {list}
        and set(map(type, chain.from_iterable(map(_S_INF, nodes)))) <= {int}
    )


def verify_document(doc: Any) -> VerifyResult:
    """Independent replay: the document must equal the one rebuilt from its own config.

    In order: the top-level keys; the config, through parse_config; "nodes" is
    a non-empty list; the root's dimension is within _TREE_SIZES, else the
    tree-size refusal; the node count equals _TREE_SIZES at that dimension.  No
    table is read before these, so a document cannot demand a build larger than
    the one its own length implies.  Then the rebuild, which refuses a curve or
    a degree bound too large for json.  The one check on content is then the
    exact comparison with the rebuild: every top-level block, by value and
    JSON type (_first_mismatch), then the nodes against the _preorder
    expansion of the table, whose nodes[0] is the root and whose tree is read
    by _TREE_SIZES: by value in one list comparison, then by JSON type in
    whole-list passes.  Only when that fails are the nodes scanned, for the
    first one that differs.  A key that is not a string is named as
    unexpected.  Truthy exactly when every block and node is equal; otherwise
    the failures name each differing block and the first differing node (by
    index and field).
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
    blocks = [("config", _config_doc(cert)), *_curve_blocks(*_curve_key(cert))[0].items()]  # in key order
    failures = [failure for key, want in blocks if (failure := _first_mismatch(key, doc[key], want))]
    want = _preorder(cert.split, _node_doc, _list_join)
    if not (nodes == want and _nodes_hold_json_types(nodes)):
        # the first node unequal in value, unless one before it is of another JSON type
        i = next(compress(count(), map(ne, nodes, want)), len(nodes))
        if not _nodes_hold_json_types(nodes[:i]):
            i = next(j for j in range(i) if _first_mismatch("", nodes[j], want[j]))
        failures.append(_first_mismatch(f"nodes[{i}]", nodes[i], want[i]))
    return VerifyResult(not failures, tuple(failures))
