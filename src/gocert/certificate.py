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

Documents are canonical JSON: sorted keys, no insignificant whitespace, a
terminating newline, integers only.  serialize_certificate writes that text
from one node template per distinct datum, with each node's fiber count and
path written in; certificate_to_doc gives the same document as dicts, and a
test pins the two texts equal.  Verification replays the whole build from
the embedded configuration, compares block by block, then compares the nodes in
document order and stops at the first differing node, so any single altered
field is caught.
"""

from __future__ import annotations

import itertools
import json
import sys
from typing import Any, Iterable, Iterator, NamedTuple

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


class FinitenessCertificate(NamedTuple):
    rd: RamificationData
    curve: CurveType
    rigidity: RigidityVerdict
    contradiction: ContradictionVerdict
    steps: dict[str, Steps]
    nodes: tuple[NodeRecord, ...]
    verdict: str
    tool_version: str


class _Split(NamedTuple):
    dim: int
    degree_bound: int | None
    edges: tuple[tuple[tuple[int, ...], RamificationData, int], ...]  # (sorted t, child, fiber_dim)
    size: int


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
    bitmask order, so repeated builds serialize to identical bytes.  Raises
    ValueError when the tree has more than MAX_TREE_NODES nodes.  A caller
    that has already walked rd passes the table _case_split(rd) returned as
    split, and the tree is expanded from it without a second walk.
    """
    rig = finiteness_verdict(ct)
    table = _case_split(rd) if split is None else split
    contra = contradiction_check(ct, 1, 0)
    root_prose = _PROSE_ROOT_SPECIAL if is_special(ct) else ()
    root_steps = Steps(root_prose, ("extrapolated-(1,2)",) if ct == CurveType(1, 2) else ())
    # Each datum's node fields are worked out once.  Only the kind depends on
    # where a datum sits: a root of positive dimension is the ordinary locus,
    # and no other node repeats the root's datum, since every descent lowers
    # the dimension.
    rows: dict[RamificationData, tuple[tuple[Any, ...], tuple[Any, ...]]] = {}
    for datum, entry in table.items():
        kind = KIND_DIM_ZERO if entry.dim == 0 else KIND_ORDINARY if datum == rd else KIND_DESCENT
        bound = entry.degree_bound
        fields = (datum, kind, entry.dim, bound, None if bound is None else 2 * bound)
        rows[datum] = fields, entry.edges
    nodes: list[NodeRecord] = []

    def visit(datum: RamificationData, path: tuple[tuple[int, ...], ...], fiber: int | None) -> None:
        fields, edges = rows[datum]
        nodes.append(NodeRecord(path, *fields, fiber))
        for t, child, n_fiber in edges:
            visit(child, path + (t,), n_fiber)

    visit(rd, (), None)
    del visit  # as in _case_split: no cycle keeps the node list alive
    contradicted = table[rd].dim == 0 or contra.conclusion == "contradiction"
    verdict = "finite" if rig.finite and contradicted else "inconclusive"
    return FinitenessCertificate(
        rd=rd,
        curve=ct,
        rigidity=rig,
        contradiction=contra,
        steps={**KIND_STEPS, "root": root_steps},
        nodes=tuple(nodes),
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
    """The one layout of a node's document: what _node_docs fills and the serializer's templates encode."""
    return {
        "degree_bound": bound,
        "dim": dim,
        "fiber_dim": fiber,
        "kind": kind,
        "path": path,
        "polarization_bound": polarization,
        "rd": rd_doc,
    }


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
    node's dicts are built.  Only fiber_dim and path differ between nodes of
    one datum, so each distinct datum's node is encoded once, with slots for
    those two, and split at the slots into the text around them.  A node's
    text is that template with its fiber count and path written in; each
    fiber count and vanishing set is encoded once.
    """
    templates: dict[tuple[Any, ...], tuple[str, str, str]] = {}
    encoded: dict[Any, str] = {}
    get = encoded.get
    texts = []
    for path, rd, kind, dim, bound, polarization, fiber in cert.nodes:
        key = rd, kind, dim, bound, polarization
        template = templates.get(key)
        if template is None:
            doc = _node_doc(_PATH_SLOT, _rd_doc(rd), kind, dim, bound, polarization, _FIBER_SLOT)
            head, _, after = _ENCODER.encode(doc).partition(_FIBER_TEXT)
            mid, _, tail = after.partition(_PATH_TEXT)
            template = templates[key] = head, mid, tail
        # a plain loop: on Python 3.11 a comprehension runs in a frame of its own,
        # which costs more than its body here
        steps = []
        for step in path:
            text = get(step)
            if text is None:
                text = encoded[step] = _ENCODER.encode(step)
            steps.append(text)
        fiber_text = get(fiber)
        if fiber_text is None:
            fiber_text = encoded[fiber] = _ENCODER.encode(fiber)
        head, mid, tail = template
        texts.append(f"{head}{fiber_text}{mid}[{','.join(steps)}]{tail}")
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


def verify_document(doc: Any) -> VerifyResult:
    """Independent replay: the document must equal the one rebuilt from its own config.

    In order: the top-level keys; the config, through parse_config; "nodes" is
    a non-empty list; the node count against the tree size, first by bit
    length against the root's 2^m - 2 children and then against the bounded
    walk of the case split (capped at MAX_TREE_NODES), so a small document
    cannot demand a large build; the rebuild from that walk's table.  The one
    check on content is then the exact comparison with the rebuild: every
    top-level block, then the nodes in document order, each encoded from the
    rebuild only when it is reached, stopping at the first differing node.
    Truthy exactly when every block and node is equal; otherwise the failures
    name each differing block and the first differing node (by node path and field).
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
    blocks = _blocks_doc(cert)
    failures = [
        _first_mismatch(key, doc[key], want) for key, want in sorted(blocks.items()) if doc[key] != want
    ]
    for i, (got, want) in enumerate(zip(nodes, _node_docs(cert.nodes), strict=True)):
        if got != want:
            failures.append(_first_mismatch(f"nodes[{i}] path={want['path']}", got, want))
            break
    return VerifyResult(not failures, tuple(failures))
