"""Finiteness certificates: the stratum-recursion case split, serialized and replayable.

A certificate documents, for one ramification datum and one curve type, the
induction bounding curves that carry nontrivial pulled-back local systems.  At
each datum the generically ordinary case is settled by a degree bound together
with an equal-degree contradiction; the non-ordinary case descends through
every Goren-Oort stratum to a strictly smaller datum; dimension zero is
automatic.  Steps delegated to the literature are listed verbatim as prose so
an auditor sees exactly what is cited rather than computed.

Documents are canonical JSON: sorted keys, no insignificant whitespace, a
terminating newline, integers only.  Verification replays the whole build from
the embedded configuration and compares node by node, so any single altered
field is caught.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, NamedTuple

from ._version import __version__
from .hasse import degree_bound
from .ledger import ContradictionVerdict, contradiction_check
from .places import RamificationData, is_json_int, make_ramification, shimura_dimension
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

FLAG_DERIVED_FIBER = "N-from-dimension-count"
FLAG_EXTRAPOLATED_12 = "extrapolated-(1,2)"

# Largest case split analyze builds and verify replays: at s_inf = {}, f = 9 fits and f = 10 does not.
MAX_TREE_NODES = 100_000


@dataclass(frozen=True)
class NodeRecord:
    """One datum of the case split, addressed by the chain of vanishing sets from the root."""

    path: tuple[tuple[int, ...], ...]
    rd: RamificationData
    t: frozenset[int]
    kind: str
    dim: int
    degree_bound: int | None
    polarization_bound: int | None
    fiber_dim: int | None
    contradiction: ContradictionVerdict | None
    derived_flags: tuple[str, ...]
    prose_steps: tuple[str, ...]


@dataclass(frozen=True)
class FinitenessCertificate:
    rd: RamificationData
    curve: CurveType
    rigidity: RigidityVerdict
    nodes: tuple[NodeRecord, ...]
    verdict: str
    tool_version: str


class _Split(NamedTuple):
    dim: int
    degree_bound: int | None
    edges: tuple[tuple[tuple[int, ...], RamificationData, int], ...]  # (sorted t, child, fiber_dim)
    size: int


def _case_split(rd: RamificationData) -> dict[RamificationData, _Split]:
    """Each distinct datum below rd with its edges in strata_children order and its subtree size.

    Raises ValueError once the tree is known to exceed MAX_TREE_NODES: before
    listing the children of a datum with 2^dim - 1 > MAX_TREE_NODES (compared
    by bit length), or when a running subtree total passes the limit.
    """
    too_large = f"the case split has more than {MAX_TREE_NODES} nodes"
    table: dict[RamificationData, _Split] = {}

    def walk(datum: RamificationData) -> _Split:
        if datum in table:
            return table[datum]
        dim = shimura_dimension(datum)
        if (MAX_TREE_NODES + 1).bit_length() <= dim:
            raise ValueError(too_large)
        edges, size = [], 1
        for t, child in strata_children(datum) if dim else ():
            below = walk(child)
            size += below.size
            if size > MAX_TREE_NODES:
                raise ValueError(too_large)
            edges.append((tuple(sorted(t)), child, dim - len(t) - below.dim))
        split = table[datum] = _Split(dim, degree_bound(datum) if dim else None, tuple(edges), size)
        return split

    walk(rd)
    return table


def build_certificate(rd: RamificationData, ct: CurveType) -> FinitenessCertificate:
    """Replay the induction over the full stratum tree of rd, deterministically.

    The root (reached by the empty vanishing set) and every descended datum of
    positive dimension carry the ordinary-locus data: the anchor-maximized
    degree bound and the equal-degree comparison with filtration degree one
    and trivial determinant.  Children follow in canonical bitmask order, so
    repeated builds serialize to identical bytes.  Raises ValueError when the
    tree has more than MAX_TREE_NODES nodes.
    """
    rig = finiteness_verdict(ct)
    table = _case_split(rd)
    contra = contradiction_check(ct, 1, 0)
    root_prose = _PROSE_ROOT_SPECIAL if is_special(ct) else ()
    root_flags = (FLAG_EXTRAPOLATED_12,) if ct == CurveType(1, 2) else ()
    nodes: list[NodeRecord] = []

    def visit(datum: RamificationData, path: tuple[tuple[int, ...], ...], fiber: int | None) -> None:
        split = table[datum]
        if split.dim == 0:
            kind, prose, flags = KIND_DIM_ZERO, _PROSE_DIM_ZERO, ()
        elif path:
            kind, prose, flags = KIND_DESCENT, _PROSE_DESCENT, (FLAG_DERIVED_FIBER,)
        else:
            kind, prose, flags = KIND_ORDINARY, _PROSE_ORDINARY, ()
        if not path:
            prose, flags = prose + root_prose, flags + root_flags
        bound = split.degree_bound
        nodes.append(
            NodeRecord(
                path=path,
                rd=datum,
                t=frozenset(path[-1]) if path else frozenset(),
                kind=kind,
                dim=split.dim,
                degree_bound=bound,
                polarization_bound=None if bound is None else 2 * bound,
                fiber_dim=fiber,
                contradiction=contra if split.dim else None,
                derived_flags=flags,
                prose_steps=prose,
            )
        )
        for t, child, n_fiber in split.edges:
            visit(child, path + (t,), n_fiber)

    visit(rd, (), None)
    contradicted = table[rd].dim == 0 or contra.conclusion == "contradiction"
    verdict = "finite" if rig.finite and contradicted else "inconclusive"
    return FinitenessCertificate(
        rd=rd,
        curve=ct,
        rigidity=rig,
        nodes=tuple(nodes),
        verdict=verdict,
        tool_version=TOOL_VERSION,
    )


def _rd_doc(rd: RamificationData) -> dict[str, Any]:
    return {"f": rd.f, "p": rd.p, "s_fin_count": rd.s_fin_count, "s_inf": sorted(rd.s_inf)}


def _contradiction_doc(verdict: ContradictionVerdict | None) -> dict[str, Any] | None:
    if verdict is None:
        return None
    return {
        "conclusion": verdict.conclusion,
        "deg_hom": verdict.deg_hom,
        "deg_tangent": verdict.deg_tangent,
        "forced_iso": verdict.forced_iso,
    }


def _node_doc(node: NodeRecord) -> dict[str, Any]:
    return {
        "contradiction": _contradiction_doc(node.contradiction),
        "degree_bound": node.degree_bound,
        "derived_flags": list(node.derived_flags),
        "dim": node.dim,
        "fiber_dim": node.fiber_dim,
        "kind": node.kind,
        "path": [list(step) for step in node.path],
        "polarization_bound": node.polarization_bound,
        "prose_steps": list(node.prose_steps),
        "rd": _rd_doc(node.rd),
        "t": sorted(node.t),
    }


def certificate_to_doc(cert: FinitenessCertificate) -> dict[str, Any]:
    return {
        "config": {
            "curve": {"g": cert.curve.g, "n": cert.curve.n},
            "rd": _rd_doc(cert.rd),
        },
        "nodes": [_node_doc(node) for node in cert.nodes],
        "rigidity": {
            "count": cert.rigidity.count,
            "d": cert.rigidity.d,
            "euler_bound": euler_bound(cert.curve),
            "finite": cert.rigidity.finite,
        },
        "tool_version": cert.tool_version,
        "verdict": cert.verdict,
    }


def serialize_certificate(cert: FinitenessCertificate) -> str:
    """Canonical text form: sorted keys, compact separators, newline-terminated."""
    return json.dumps(certificate_to_doc(cert), sort_keys=True, separators=(",", ":")) + "\n"


def error_document(message: str) -> dict[str, Any]:
    """Document emitted when a configuration cannot be analyzed at all."""
    return {"error": message, "tool_version": TOOL_VERSION, "verdict": "error"}


def serialize_document(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def config_from_doc(doc: dict[str, Any]) -> tuple[RamificationData, CurveType]:
    """Parse the embedded configuration; raises ValueError when malformed.

    Only the shape is checked here; make_ramification and CurveType check the values.
    """
    config = doc.get("config")
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


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _audit_nodes(nodes: Any) -> list[str]:
    """Structural checks on the raw node list: tree shape and strict dimension descent."""
    failures: list[str] = []
    if not isinstance(nodes, list) or not nodes:
        return ["nodes must be a non-empty list"]
    seen: dict[tuple[tuple[int, ...], ...], int] = {}
    for i, node in enumerate(nodes):
        if not isinstance(node, dict):
            return [f"nodes[{i}] is not an object"]
        try:
            path = tuple(tuple(step) for step in node["path"])
            dim = node["dim"]
            kind = node["kind"]
            t = list(node["t"])
        except (KeyError, TypeError):
            return [f"nodes[{i}] is structurally malformed"]
        if not all(is_json_int(v) for step in path for v in step):
            return [f"nodes[{i}] path entries must be integers"]
        step_sorted = sorted(path[-1]) if path else []
        if not is_json_int(dim):
            return [f"nodes[{i}] dim is not an integer"]
        if (kind == KIND_DIM_ZERO) != (dim == 0):
            failures.append(f"nodes[{i}] path={list(map(list, path))}: kind {kind!r} disagrees with dim {dim}")
        if path:
            parent = path[:-1]
            if parent not in seen:
                failures.append(f"nodes[{i}] path={list(map(list, path))}: parent node missing or out of order")
            elif seen[parent] <= dim:
                failures.append(
                    f"nodes[{i}] path={list(map(list, path))}: dimension {dim} not smaller than parent {seen[parent]}"
                )
            if t != step_sorted:
                failures.append(f"nodes[{i}] path={list(map(list, path))}: t disagrees with the last path step")
        elif t:
            failures.append(f"nodes[{i}]: root node must have empty t")
        seen[path] = dim
    return failures


def _first_node_mismatch(index: int, got: Any, want: dict[str, Any]) -> str:
    where = f"nodes[{index}] path={want['path']}"
    if not isinstance(got, dict):
        return f"{where}: node is not an object"
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            return f"{where}: field {key!r} is {got.get(key)!r}, expected {want.get(key)!r}"
    return f"{where}: nodes differ"


def verify_document(doc: Any) -> VerifyResult:
    """Independent replay: rebuild from the embedded config and compare field by field.

    The node count is checked against the expected tree size, itself capped at
    MAX_TREE_NODES, before the rebuild, so a small document cannot demand a
    large build.  Truthy exactly when the document matches a fresh build;
    otherwise the failures list pinpoints the first divergence (by node path
    and field).
    """
    if not isinstance(doc, dict):
        return VerifyResult(False, ("document is not an object",))
    expected_keys = {"config", "nodes", "rigidity", "tool_version", "verdict"}
    if set(doc) != expected_keys:
        missing = sorted(expected_keys - set(doc))
        extra = sorted(set(doc) - expected_keys)
        return VerifyResult(False, (f"document keys are wrong (missing {missing}, extra {extra})",))
    failures: list[str] = []
    if doc["verdict"] not in ("finite", "inconclusive"):
        failures.append(f"verdict {doc['verdict']!r} is not verifiable")
    if doc["tool_version"] != TOOL_VERSION:
        failures.append(f"tool_version {doc['tool_version']!r} does not match {TOOL_VERSION!r}")
    try:
        rd, ct = config_from_doc(doc)
    except (ValueError, TypeError) as exc:
        failures.append(f"config: {exc}")
        return VerifyResult(False, tuple(failures))
    if failures:
        return VerifyResult(False, tuple(failures))

    failures.extend(_audit_nodes(doc["nodes"]))
    if failures:
        return VerifyResult(False, tuple(failures))
    # The root alone has 2^m - 2 children (m split places); comparing bit lengths
    # keeps a declared huge f from computing 2^m itself.
    count, m = len(doc["nodes"]), shimura_dimension(rd)
    if (count + 1).bit_length() <= m:
        return VerifyResult(False, (f"node count is {count}, expected at least 2^{m} - 1",))
    try:
        want_count = _case_split(rd)[rd].size
    except ValueError as exc:
        return VerifyResult(False, (str(exc),))
    if count != want_count:
        return VerifyResult(False, (f"node count is {count}, expected {want_count}",))

    expected = certificate_to_doc(build_certificate(rd, ct))
    if doc["verdict"] != expected["verdict"]:
        failures.append(f"verdict is {doc['verdict']!r}, expected {expected['verdict']!r}")
    if doc["rigidity"] != expected["rigidity"]:
        failures.append(f"rigidity block is {doc['rigidity']!r}, expected {expected['rigidity']!r}")
    for i, (got, want) in enumerate(zip(doc["nodes"], expected["nodes"], strict=True)):
        if got != want:
            failures.append(_first_node_mismatch(i, got, want))
            break
    return VerifyResult(not failures, tuple(failures))


def verify_certificate(cert: FinitenessCertificate) -> VerifyResult:
    """Verify an in-memory certificate through its canonical document form."""
    return verify_document(certificate_to_doc(cert))
