"""Test-only helpers: a brute-force degree oracle, the anchored degree sums, the every-datum kernel walk, certificate mutations and source mutants.

The oracles shared with selfcheck live in gocert.oracle.  Profile enumeration
is too slow for anything but the tests' small spaces, the anchored sums are
the per-anchor reference for the degree bound, the kernel walk is the
reference the relabeling case split must equal, and the mutations and mutants
exist only to show that verification and selfcheck reject what they alter.
"""

from __future__ import annotations

import copy
import inspect
import itertools
import textwrap
from types import ModuleType
from typing import Any, Callable, Iterator

from gocert import RamificationData, build_certificate, serialize_certificate, shimura_dimension, split_places, strata_children
from gocert.certificate import _Split, parse_config, serialize_document
from gocert.hasse import anchored_bound, degree_bound
from gocert.oracle import scan_constraints


def enumerated_profile_max(rd: RamificationData, anchor: int) -> int:
    """Brute-force maximum of the profile total: anchor pinned at one, others in [1, p^f]."""
    f, p = rd.f, rd.p
    splits = [i for i in range(f) if i not in rd.s_inf]
    assert anchor in splits
    constraints = scan_constraints(f, frozenset(rd.s_inf))
    cap = p**f
    free = [tau for tau in splits if tau != anchor]
    best = 0
    for values in itertools.product(range(1, cap + 1), repeat=len(free)):
        profile = dict(zip(free, values))
        profile[anchor] = 1
        if all(profile[src] <= p**exp * profile[tgt] for src, tgt, exp in constraints):
            best = max(best, sum(profile.values()))
    return best


def max_degree_sums(rd: RamificationData) -> dict[int, int]:
    """For each split place as anchor, in ascending order, the largest profile total with it at degree one.

    Each split place x is capped at p^((x - anchor) mod f), the product of the
    p-powers along the constraint cycle from the anchor; degree_bound is the
    largest of these sums.
    """
    f, p, splits = rd.f, rd.p, split_places(rd)
    if not splits:
        raise ValueError("degree bound needs at least one split place")
    return {a: sum([p ** ((x - a) % f) for x in splits]) for a in splits}


def kernel_case_split(rd: RamificationData) -> tuple[dict[RamificationData, _Split], dict[RamificationData, int]]:
    """The case-split table with strata_children called on every datum, and each datum's subtree size.

    The table is what the relabeling walk must equal; the sizes, summed edge by
    edge, are what certificate._TREE_SIZES must equal.
    """
    table: dict[RamificationData, _Split] = {}
    sizes: dict[RamificationData, int] = {}

    def below(datum: RamificationData) -> None:
        if datum not in table:
            dim, edges, size = shimura_dimension(datum), [], 1
            for _, child in strata_children(datum) if dim else ():
                below(child)
                size += sizes[child]
                edges.append(child)
            bound = degree_bound(datum) if dim else None
            table[datum], sizes[datum] = _Split(bound, tuple(edges)), size

    below(rd)
    return table, sizes


def counting_anchored_bound(calls: dict[str, int]) -> Callable[..., Callable[..., int]]:
    """hasse.anchored_bound, counting each per-root table it makes in calls["tables"] and each bound a table gives in calls["bounds"]."""

    def table(*args: Any) -> Callable[..., int]:
        calls["tables"] += 1
        bound = anchored_bound(*args)

        def counted(kept: Any) -> int:
            calls["bounds"] += 1
            return bound(kept)

        return counted

    return table


def edge_vanishing_sets(datum: RamificationData) -> list[frozenset[int]]:
    """The vanishing set T of each edge of datum, in the edges' order: bit j of the i-th edge's mask i + 1 selects the j-th split place."""
    splits = split_places(datum)
    return [frozenset(x for j, x in enumerate(splits) if mask >> j & 1) for mask in range(1, 2 ** len(splits) - 1)]


_NEXT_PRIME = {2: 3, 3: 5, 5: 7, 7: 11}


def source_mutant(module: ModuleType, name: str, old: str, new: str, occurrence: int = 0) -> Callable[..., Any]:
    """module.name recompiled from its source with one occurrence (0 for the first) of old replaced by new.

    It runs in a copy of the module's globals in which name is the mutant, so a
    recursive call reaches the mutant too; the module itself is not changed.
    """
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    at = -1
    for _ in range(occurrence + 1):
        at = source.index(old, at + 1)
    scope = dict(vars(module))
    exec(compile(source[:at] + new + source[at + len(old) :], module.__file__, "exec"), scope)
    return scope[name]


def is_own_certificate(doc: dict[str, Any]) -> bool:
    """Whether doc, in canonical text, is the certificate of its own config.

    Nodes name neither p nor s_fin_count, so an edit of the config alone can
    yield another genuine certificate: a sound verifier accepts it.
    """
    try:
        expected = serialize_certificate(build_certificate(*parse_config(doc["config"])))
    except (ValueError, TypeError):
        return False
    return serialize_document(doc) == expected


def document_mutations(doc: dict[str, Any]) -> Iterator[tuple[str, dict[str, Any]]]:
    """Deterministic single-field corruptions of a certificate document.

    Every yielded document differs from the original, stays JSON serializable
    and is not the certificate of its own config; a sound verifier must reject
    each one.
    """

    def variant(label: str, mutate: Callable[[dict[str, Any]], None]) -> tuple[str, dict[str, Any]] | None:
        mutated = copy.deepcopy(doc)
        mutate(mutated)
        if mutated == doc or is_own_certificate(mutated):
            return None
        return label, mutated

    def set_in(target: dict[str, Any], path: list[Any], value: Any) -> None:
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    nodes = doc["nodes"]
    root, f = nodes[0], doc["config"]["rd"]["f"]
    root_kind = "dimension_zero" if len(root["s_inf"]) == f else "ordinary_locus"
    free = [place for place in range(f) if place not in root["s_inf"]]
    steps, contradiction = doc["steps"], doc["contradiction"]
    recipes: list[tuple[str, Callable[[dict[str, Any]], None]]] = [
        ("verdict-flip", lambda d: set_in(d, ["verdict"], "inconclusive" if d["verdict"] == "finite" else "finite")),
        ("verdict-error", lambda d: set_in(d, ["verdict"], "error")),
        ("tool-version", lambda d: set_in(d, ["tool_version"], "gocert-0.0.0")),
        ("rigidity-count", lambda d: set_in(d, ["rigidity", "count"], 999)),
        ("rigidity-d", lambda d: set_in(d, ["rigidity", "d"], 2)),
        ("rigidity-euler", lambda d: set_in(d, ["rigidity", "euler_bound"], d["rigidity"]["euler_bound"] + 1)),
        ("rigidity-finite-flip", lambda d: set_in(d, ["rigidity", "finite"], not d["rigidity"]["finite"])),
        ("config-p", lambda d: set_in(d, ["config", "rd", "p"], _NEXT_PRIME[d["config"]["rd"]["p"]])),
        ("config-f", lambda d: set_in(d, ["config", "rd", "f"], d["config"]["rd"]["f"] + 1)),
        ("config-sfin-parity", lambda d: set_in(d, ["config", "rd", "s_fin_count"], d["config"]["rd"]["s_fin_count"] + 1)),
        ("config-sfin-even", lambda d: set_in(d, ["config", "rd", "s_fin_count"], d["config"]["rd"]["s_fin_count"] + 2)),
        ("config-sinf", lambda d: set_in(d, ["config", "rd", "s_inf"], d["config"]["rd"]["s_inf"] + [0])),
        ("config-genus", lambda d: set_in(d, ["config", "curve", "g"], d["config"]["curve"]["g"] + 1)),
        ("config-punctures", lambda d: set_in(d, ["config", "curve", "n"], d["config"]["curve"]["n"] + 2)),
        ("drop-rigidity", lambda d: d.pop("rigidity")),
        ("extra-key", lambda d: set_in(d, ["attestation"], "trust me")),
        ("empty-nodes", lambda d: set_in(d, ["nodes"], [])),
        ("drop-last-node", lambda d: d["nodes"].pop()),
        ("duplicate-last-node", lambda d: d["nodes"].append(copy.deepcopy(d["nodes"][-1]))),
        ("root-degree-bound-down", lambda d: set_in(d, ["nodes", 0, "degree_bound"], (root["degree_bound"] or 1) - 1)),
        ("root-degree-bound-up", lambda d: set_in(d, ["nodes", 0, "degree_bound"], (root["degree_bound"] or 0) + 1)),
        ("root-sinf-grows", lambda d: set_in(d, ["nodes", 0, "s_inf"], sorted(root["s_inf"] + free[:1]))),
        ("root-sinf-out-of-range", lambda d: set_in(d, ["nodes", 0, "s_inf"], root["s_inf"] + [f])),
        ("root-fiber-field", lambda d: set_in(d, ["nodes", 0, "fiber_dim"], None)),
        ("leaf-degree-bound-zero", lambda d: set_in(d, ["nodes", -1, "degree_bound"], 0)),
        ("root-flags", lambda d: set_in(d, ["steps", "root", "flags"], steps["root"]["flags"] + ["unchecked"])),
        ("root-prose-drop", lambda d: set_in(d, ["steps", root_kind, "prose"], steps[root_kind]["prose"][1:])),
        ("root-extra-prose-drop", lambda d: set_in(d, ["steps", "root", "prose"], steps["root"]["prose"][1:])),
        ("descent-flags-drop", lambda d: set_in(d, ["steps", "stratum_descent", "flags"], [])),
        ("contradiction-conclusion", lambda d: set_in(
            d, ["contradiction", "conclusion"],
            "inconclusive" if contradiction["conclusion"] == "contradiction" else "contradiction",
        )),
        ("contradiction-hom", lambda d: set_in(d, ["contradiction", "deg_hom"], contradiction["deg_hom"] + 1)),
        ("contradiction-tangent", lambda d: set_in(
            d, ["contradiction", "deg_tangent"], contradiction["deg_tangent"] - 1
        )),
        ("contradiction-forced", lambda d: set_in(
            d, ["contradiction", "forced_iso"], not contradiction["forced_iso"]
        )),
    ]
    if len(nodes) >= 2:
        child = nodes[1]
        recipes += [
            ("child-sinf-of-parent", lambda d: set_in(d, ["nodes", 1, "s_inf"], root["s_inf"])),
            ("child-sinf-shrinks", lambda d: set_in(d, ["nodes", 1, "s_inf"], child["s_inf"][1:])),
            ("child-degree-bound-up", lambda d: set_in(d, ["nodes", 1, "degree_bound"], (child["degree_bound"] or 0) + 1)),
        ]
    if len(nodes) >= 3:
        def swap(d: dict[str, Any]) -> None:
            d["nodes"][1], d["nodes"][2] = d["nodes"][2], d["nodes"][1]

        recipes.append(("node-order-swap", swap))

    for label, mutate in recipes:
        produced = variant(label, mutate)
        if produced is not None:
            yield produced


# Strings that can stand in for each other: verdicts, contradiction conclusions.
_STRING_FAMILIES = (
    ("finite", "inconclusive"),
    ("contradiction", "inconclusive"),
)


def _scalar_variants(value: Any) -> list[Any]:
    """Other values for one JSON scalar: the next integer, the flipped bool, or another string."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1]
    if value is None:
        return [0]
    others = [s for family in _STRING_FAMILIES if value in family for s in family if s != value]
    return others or [value + "x"]


def leaf_mutations(doc: Any, variants: Callable[[Any], list[Any]] = _scalar_variants) -> Iterator[list[Any]]:
    """Replace each scalar leaf of doc, in turn, by each of its variants (by default _scalar_variants).

    Yields the location (keys and indices from the top) of the replaced leaf
    while doc holds the one changed value; the leaf is restored when the
    generator resumes, so a consumer must not keep doc across iterations.
    """

    def leaves(value: Any, where: list[Any]) -> Iterator[tuple[list[Any], Any]]:
        if isinstance(value, dict):
            for key in sorted(value):
                yield from leaves(value[key], where + [key])
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from leaves(item, where + [i])
        else:
            yield where, value

    for where, value in list(leaves(doc, [])):
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        for other in variants(value):
            parent[where[-1]] = other
            yield where
        parent[where[-1]] = value
