"""Finiteness certificates: the stratum-recursion case split, serialized and replayable.

A certificate documents, for one ramification datum and one curve type, the
induction bounding curves that carry nontrivial pulled-back local systems.  At
each datum the generically ordinary case is settled by a degree bound together
with an equal-degree contradiction; the non-ordinary case descends through
every Goren-Oort stratum to a strictly smaller datum; dimension zero is
automatic.  Nodes carry only what varies per datum.  Steps delegated to the
literature are listed verbatim as prose, once per node kind under "steps", so
an auditor sees exactly what is cited rather than computed; the equal-degree
comparison every node of positive dimension applies is stated once.

A certificate keeps the case split as its walk computed it: a table of the
distinct data below the root, each with its edges, a DAG of which the
document's tree is the preorder expansion.  The serializer and the verifier
walk that table; only certificate_to_doc and the nodes property list a record
per tree node.

Documents are canonical JSON: sorted keys, no insignificant whitespace, a
terminating newline, integers only.  serialize_certificate writes that text
from one node template per distinct datum, with each node's fiber count and
path written in; certificate_to_doc gives the same document as dicts, and a
test pins the two texts equal.  Verification replays the case split from the
embedded configuration, compares block by block, then compares the nodes in
document order with the replayed table walked in preorder and stops at the
first differing node, so any single altered field is caught.
"""

from __future__ import annotations

import itertools
import json
import sys
from typing import Any, Iterable, Iterator, NamedTuple

from . import places
from ._version import __version__
from .hasse import degree_bound
from .ledger import ContradictionVerdict, contradiction_check
from .places import RamificationData, make_ramification, shimura_dimension
from .rigidity import CurveType, RigidityVerdict, euler_bound, finiteness_verdict, is_special
from .strata import strata_children

TOOL_VERSION = f"gocert-{__version__}"

KIND_ORDINARY = "ordinary_locus"
KIND_DESCENT = "stratum_descent"
KIND_DIM_ZERO = "dimension_zero"

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


# What every node of a kind cites; each certificate adds "root", the root's curve-dependent extras.
KIND_STEPS = {
    KIND_ORDINARY: Steps(_PROSE_ORDINARY, ()),
    KIND_DESCENT: Steps(_PROSE_DESCENT, ("N-from-dimension-count",)),
    KIND_DIM_ZERO: Steps(_PROSE_DIM_ZERO, ()),
}

# Largest case split analyze builds and verify replays: at s_inf = {}, f = 9 fits and f = 10 does not.
MAX_TREE_NODES = 100_000


def _min_tree_size(dim: int) -> int:
    """Fewest nodes the case split of any datum of dimension dim can have.

    A datum of dimension d has 2^d - 2 children, and each of its d singleton
    vanishing sets descends to dimension exactly d - 2, so the tree has at
    least L(d) = 2^d - 1 + d * (L(d - 2) - 1) nodes, with L(0) = L(1) = 1.
    """
    if dim < 2:
        return 1
    return 2**dim - 1 + dim * (_min_tree_size(dim - 2) - 1)


# Least dimension whose case split is known to exceed MAX_TREE_NODES before any walk: 12.
_REFUSAL_DIM = next(d for d in itertools.count() if _min_tree_size(d) > MAX_TREE_NODES)


class NodeRecord(NamedTuple):
    """One datum of the case split, addressed by the chain of vanishing sets from the root."""

    path: tuple[tuple[int, ...], ...]
    rd: RamificationData
    kind: str
    dim: int
    degree_bound: int | None
    polarization_bound: int | None
    fiber_dim: int | None


class _Split(NamedTuple):
    dim: int
    degree_bound: int | None
    edges: tuple[tuple[tuple[int, ...], RamificationData, int], ...]  # (sorted t, child, fiber_dim)
    size: int


def _kind(datum: RamificationData, root: RamificationData, dim: int) -> str:
    """A node's kind: a root of positive dimension is the ordinary locus.

    Only the kind depends on where a datum sits, and no other node repeats the
    root's datum, since every descent lowers the dimension.
    """
    return KIND_DIM_ZERO if dim == 0 else KIND_ORDINARY if datum == root else KIND_DESCENT


class FinitenessCertificate(NamedTuple):
    """A certificate as its case-split table: each distinct datum below rd once, with its edges.

    split is the table _case_split(rd) returns.  The tree it describes is
    listed by the nodes property, which expands it afresh on every access (42 667
    records at f = 9), so a caller that reads it more than once binds it once.
    """

    rd: RamificationData
    curve: CurveType
    rigidity: RigidityVerdict
    contradiction: ContradictionVerdict
    steps: dict[str, Steps]
    split: dict[RamificationData, _Split]
    verdict: str
    tool_version: str

    @property
    def nodes(self) -> tuple[NodeRecord, ...]:
        """Every node of the case-split tree in preorder, children in strata_children order."""
        table, root = self.split, self.rd
        nodes: list[NodeRecord] = []

        def visit(datum: RamificationData, path: tuple[tuple[int, ...], ...], fiber: int | None) -> None:
            entry = table[datum]
            bound = entry.degree_bound
            polarization = None if bound is None else 2 * bound
            nodes.append(NodeRecord(path, datum, _kind(datum, root, entry.dim), entry.dim, bound, polarization, fiber))
            for t, child, n_fiber in entry.edges:
                visit(child, path + (t,), n_fiber)

        visit(root, (), None)
        del visit  # as in _case_split: no cycle keeps the node list alive
        return tuple(nodes)


def _more_digits(n: int, digits: int) -> bool:
    """True when the natural number n has more than digits decimal digits.

    Below 2^(3 digits) < 10^digits it cannot, so most calls stop at the bit length.
    """
    return n.bit_length() > 3 * digits and n >= 10**digits


def _case_split(rd: RamificationData) -> dict[RamificationData, _Split]:
    """Each distinct datum below rd with its edges in strata_children order and its subtree size.

    Raises ValueError once the tree is known to exceed MAX_TREE_NODES: before
    listing the children of a datum of dimension _REFUSAL_DIM or more, or when
    a running subtree total passes the limit.  Raises ValueError as well for a
    datum whose polarization bound has more digits than the interpreter converts
    to or from text (sys.get_int_max_str_digits), since json could neither write
    nor read it.
    """
    too_large = f"the case split has more than {MAX_TREE_NODES} nodes"
    # 0, and a Python without the setting, mean no limit
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    table: dict[RamificationData, _Split] = {}

    def walk(datum: RamificationData) -> _Split:
        if datum in table:
            return table[datum]
        dim = shimura_dimension(datum)
        if dim >= _REFUSAL_DIM:
            raise ValueError(too_large)
        edges, size = [], 1
        for t, child in strata_children(datum) if dim else ():
            below = walk(child)
            size += below.size
            if size > MAX_TREE_NODES:
                raise ValueError(too_large)
            edges.append((tuple(sorted(t)), child, dim - len(t) - below.dim))
        bound = degree_bound(datum) if dim else None
        if digits and bound is not None and _more_digits(2 * bound, digits):
            raise ValueError(
                f"the polarization bound at f={datum.f} has more than {digits} digits, "
                "the interpreter's limit for integers in JSON"
            )
        split = table[datum] = _Split(dim, bound, tuple(edges), size)
        return split

    # walk reaches itself through its closure; dropping the name breaks that
    # cycle, so the table is freed by reference counting once its caller is
    # done with it rather than whenever the cyclic collector next runs.
    try:
        walk(rd)
    finally:
        del walk
    return table


def build_certificate(
    rd: RamificationData, ct: CurveType, *, split: dict[RamificationData, _Split] | None = None
) -> FinitenessCertificate:
    """Replay the induction over the full stratum tree of rd, deterministically.

    The root (reached by the empty vanishing set) and every descended datum of
    positive dimension carry the anchor-maximized degree bound; the one
    equal-degree comparison, with filtration degree one and trivial
    determinant, applies to each of them.  Children follow in canonical
    bitmask order, so repeated builds serialize to identical bytes.  The
    certificate keeps the case-split table and lists no nodes.  Raises
    ValueError when the tree has more than MAX_TREE_NODES nodes.  A caller
    that has already walked rd passes the table _case_split(rd) returned as
    split, and no second walk is made.
    """
    rig = finiteness_verdict(ct)
    table = _case_split(rd) if split is None else split
    contra = contradiction_check(ct, 1, 0)
    root_prose = _PROSE_ROOT_SPECIAL if is_special(ct) else ()
    root_steps = Steps(root_prose, ("extrapolated-(1,2)",) if ct == CurveType(1, 2) else ())
    contradicted = table[rd].dim == 0 or contra.conclusion == "contradiction"
    verdict = "finite" if rig.finite and contradicted else "inconclusive"
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


def _rd_doc(rd: RamificationData) -> dict[str, Any]:
    return {"f": rd.f, "p": rd.p, "s_fin_count": rd.s_fin_count, "s_inf": sorted(rd.s_inf)}


def _contradiction_doc(verdict: ContradictionVerdict) -> dict[str, Any]:
    return {
        "conclusion": verdict.conclusion,
        "deg_hom": verdict.deg_hom,
        "deg_tangent": verdict.deg_tangent,
        "forced_iso": verdict.forced_iso,
    }


def _node_doc(
    path: Any, rd_doc: dict[str, Any], kind: str, dim: int, bound: int | None, polarization: int | None, fiber: Any
) -> dict[str, Any]:
    """The one layout of a node's document: what _node_docs and _entry_doc fill."""
    return {
        "degree_bound": bound,
        "dim": dim,
        "fiber_dim": fiber,
        "kind": kind,
        "path": path,
        "polarization_bound": polarization,
        "rd": rd_doc,
    }


def _entry_doc(datum: RamificationData, entry: _Split, root: RamificationData, path: Any, fiber: Any) -> dict[str, Any]:
    """The document of a node of datum below root, from datum's case-split entry, with the path and fiber given."""
    bound = entry.degree_bound
    kind = _kind(datum, root, entry.dim)
    return _node_doc(path, _rd_doc(datum), kind, entry.dim, bound, None if bound is None else 2 * bound, fiber)


def _node_docs(nodes: Iterable[NodeRecord]) -> Iterator[dict[str, Any]]:
    """The document of each node, in order.

    Each distinct datum's fields are worked out once per call, but every node
    gets dicts and lists of its own, so editing one node never changes another.
    """
    rd_docs: dict[RamificationData, dict[str, Any]] = {}
    for path, rd, kind, dim, bound, polarization, fiber in nodes:
        rd_doc = rd_docs.get(rd)
        if rd_doc is None:
            rd_doc = rd_docs[rd] = _rd_doc(rd)
        yield _node_doc(
            [list(step) for step in path],
            {**rd_doc, "s_inf": rd_doc["s_inf"].copy()},
            kind,
            dim,
            bound,
            polarization,
            fiber,
        )


def _blocks_doc(cert: FinitenessCertificate) -> dict[str, Any]:
    """Every top-level block of the certificate's document except "nodes"."""
    return {
        "config": {
            "curve": {"g": cert.curve.g, "n": cert.curve.n},
            "rd": _rd_doc(cert.rd),
        },
        "contradiction": _contradiction_doc(cert.contradiction),
        "rigidity": {
            "count": cert.rigidity.count,
            "d": cert.rigidity.d,
            "euler_bound": euler_bound(cert.curve),
            "finite": cert.rigidity.finite,
        },
        "steps": {key: {"flags": list(s.flags), "prose": list(s.prose)} for key, s in cert.steps.items()},
        "tool_version": cert.tool_version,
        "verdict": cert.verdict,
    }


def certificate_to_doc(cert: FinitenessCertificate) -> dict[str, Any]:
    return {**_blocks_doc(cert), "nodes": list(_node_docs(cert.nodes))}


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

    rows: dict[RamificationData, tuple[str, str, str, tuple[tuple[str, RamificationData, str], ...]]] = {}
    for datum, entry in table.items():
        head, _, after = _ENCODER.encode(_entry_doc(datum, entry, root, _PATH_SLOT, _FIBER_SLOT)).partition(_FIBER_TEXT)
        mid, _, tail = after.partition(_PATH_TEXT)
        rows[datum] = head, mid, tail, tuple((encode(t), child, encode(fiber)) for t, child, fiber in entry.edges)
    texts: list[str] = []

    def write(datum: RamificationData, steps: str, fiber: str) -> None:
        # steps is the path's text without its brackets
        head, mid, tail, edges = rows[datum]
        texts.append(f"{head}{fiber}{mid}[{steps}]{tail}")
        prefix = f"{steps}," if steps else ""
        for step, child, child_fiber in edges:
            write(child, prefix + step, child_fiber)

    write(root, "", encode(None))
    del write  # as in _case_split: no cycle keeps the texts alive
    before, _, after = serialize_document({**_blocks_doc(cert), "nodes": _NODES_SLOT}).partition(_NODES_TEXT)
    return f"{before}[{','.join(texts)}]{after}"


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


def _first_mismatch(where: str, got: Any, want: Any) -> str:
    """Name the first differing field of two unequal objects, or the whole values otherwise."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return f"{where}: field {key!r} is {'missing' if key in want else 'unexpected'}"
            if got[key] != want[key]:
                return f"{where}: field {key!r} is {got[key]!r}, expected {want[key]!r}"
    return f"{where} is {got!r}, expected {want!r}"


# The blocks whose values must match in JSON type as well as in value: json.loads
# reads 1 == true and 2.0 == 2, so equality alone would accept either for the other.
_TYPED_BLOCKS = ("contradiction", "rigidity")


def _mistyped_field(where: str, got: dict[str, Any], want: dict[str, Any]) -> str | None:
    """Name the first field of got, equal to want in value, whose JSON type differs; None when none does.

    A bool must be a bool and an int a JSON integer.  is_json_int is called
    through its module, so the benchmark's span tracer (perfbench/spans.py),
    which wraps imported names, does not count this once-per-document check.
    """
    for key, expected in sorted(want.items()):
        value = got[key]
        if isinstance(expected, bool):
            exact = isinstance(value, bool)
        else:
            exact = not isinstance(expected, int) or places.is_json_int(value)
        if not exact:
            return f"{where}: field {key!r} is {value!r}, expected {expected!r}"
    return None


def _first_node_mismatch(nodes: list[Any], table: dict[RamificationData, _Split], root: RamificationData) -> str | None:
    """Compare nodes, in order, with the tree of table below root, in preorder; name the first that differs.

    Each datum has one expected node dict, and all of them share one path
    list, which the walk keeps equal to the current node's path; only
    fiber_dim is written per node.  The walk stops at the first differing
    node, and its message is formatted while the path is that node's.  The
    caller has checked that there are exactly as many nodes as the tree has.
    """
    path: list[list[int]] = []
    rows: dict[RamificationData, tuple[dict[str, Any], tuple[tuple[list[int], RamificationData, int], ...]]] = {}
    for datum, entry in table.items():
        want = _entry_doc(datum, entry, root, path, None)
        rows[datum] = want, tuple((list(t), child, fiber) for t, child, fiber in entry.edges)
    index = 0

    def check(datum: RamificationData, fiber: int | None) -> str | None:
        nonlocal index
        want, edges = rows[datum]
        want["fiber_dim"] = fiber
        got = nodes[index]
        if got != want:
            return _first_mismatch(f"nodes[{index}] path={path}", got, want)
        index += 1
        for step, child, child_fiber in edges:
            path.append(step)
            failure = check(child, child_fiber)
            if failure is not None:
                return failure
            path.pop()
        return None

    try:
        return check(root, None)
    finally:
        del check  # as in _case_split: no cycle keeps the expected dicts alive


def verify_document(doc: Any) -> VerifyResult:
    """Independent replay: the document must equal the one rebuilt from its own config.

    In order: the top-level keys; the config, through parse_config; "nodes" is
    a non-empty list; the node count against the tree size, first by bit
    length against the root's 2^m - 2 children and then against the bounded
    walk of the case split (capped at MAX_TREE_NODES), so a small document
    cannot demand a large build; the rebuild from that walk's table.  The one
    check on content is then the exact comparison with the rebuild: every
    top-level block (the rigidity and contradiction blocks by JSON type as
    well), then the nodes in document order against the table walked in
    preorder, stopping at the first differing node.  Truthy exactly when every
    block and node is equal; otherwise the failures name each differing block
    and the first differing node (by node path and field).
    """
    if not isinstance(doc, dict):
        return VerifyResult(False, ("document is not an object",))
    expected_keys = {"config", "contradiction", "nodes", "rigidity", "steps", "tool_version", "verdict"}
    if set(doc) != expected_keys:
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
    # The root alone has 2^m - 2 children (m split places); comparing bit lengths
    # keeps a declared huge f from computing 2^m itself.
    count, m = len(nodes), shimura_dimension(rd)
    if (count + 1).bit_length() <= m:
        return VerifyResult(False, (f"node count is {count}, expected at least 2^{m} - 1",))
    try:
        table = _case_split(rd)
    except ValueError as exc:
        return VerifyResult(False, (str(exc),))
    if count != table[rd].size:
        return VerifyResult(False, (f"node count is {count}, expected {table[rd].size}",))

    cert = build_certificate(rd, ct, split=table)
    failures = []
    for key, want in sorted(_blocks_doc(cert).items()):
        got = doc[key]
        if got != want:
            failures.append(_first_mismatch(key, got, want))
        elif key in _TYPED_BLOCKS and (failure := _mistyped_field(key, got, want)):
            failures.append(failure)
    failure = _first_node_mismatch(nodes, table, rd)
    if failure is not None:
        failures.append(failure)
    return VerifyResult(not failures, tuple(failures))
