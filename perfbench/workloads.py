"""Seeded workload inputs for the gocert benchmark, and the benchmark's own oracles.

Everything here is derived from the workload name and the seed alone; gocert
only ever sees the generated configurations and documents.  The oracles are
deliberately independent of gocert's code: the verdict comes from the curve
type's Euler characteristic, and the tree descriptors come from a memoized
recursion that calls only the public ``strata_children`` entry point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

# p from 2 up to about 1e9: trial-division primality grows with sqrt(p), so
# the large primes make ramification validation the dominant cost.
PRIME_POOL = (2, 3, 5, 7, 101, 10007, 1000003, 1000000007)
SPECIAL_CURVES = ((2, 0), (0, 4), (1, 2))
NONSPECIAL_CURVES = ((3, 0), (1, 1), (0, 3), (2, 1))
ROUNDTRIP_CURVES = ((2, 0), (0, 4), (3, 0))

# Keys of a node record that the verifier's structural audit checks without a
# replay; mutations avoid them so that every rejection goes through the replay.
STRUCTURAL_KEYS = frozenset({"path", "t", "dim", "kind"})


@dataclass(frozen=True)
class Config:
    f: int
    p: int
    s_inf: tuple[int, ...]
    s_fin_count: int
    g: int
    n: int

    @property
    def label(self) -> str:
        return (
            f"f={self.f} p={self.p} s_inf={list(self.s_inf)} "
            f"s_fin={self.s_fin_count} curve=({self.g},{self.n})"
        )

    @property
    def expected_verdict(self) -> str:
        """Finite exactly for the special curve types, where 2g - 2 + n = 2."""
        return "finite" if 2 * self.g - 2 + self.n == 2 else "inconclusive"


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[Config, ...]
    mutations_per_config: int
    selfcheck_max_f: int
    selfcheck_primes: tuple[int, ...]
    # Analyzed once, untraced, in the traced run only: an f = 8 and an f = 9
    # tree are too slow to repeat within a timed run, but the ratio of their
    # analyze times is the growth rate in f.
    growth_probe: tuple[Config, Config] | None = None

    @property
    def mutations(self) -> int:
        return self.mutations_per_config * len(self.configs)


def _grid(rng: random.Random, fs, primes, curves) -> tuple[Config, ...]:
    """One config per (p, f, |s_inf|), with the places, curve and s_fin_count drawn.

    Stratifying on p, f and the size of s_inf keeps the amount of work nearly
    the same for every seed, so seeds change which inputs run, not how many.
    """
    configs = []
    for p in primes:
        for f in fs:
            for r in range(f):
                s_inf = tuple(sorted(rng.sample(range(f), r)))
                g, n = rng.choice(curves)
                configs.append(Config(f, p, s_inf, r % 2 + 2 * rng.randrange(2), g, n))
    return tuple(configs)


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "deep_tree":
        # Deep trees over s_inf = {} where almost every node repeats a datum;
        # p <= 5 keeps primality checks negligible.  f = 7 keeps a pass near
        # 1.5 s, so that a run holds enough passes for a steady median.
        return Workload(
            name=name,
            configs=(
                Config(7, 3, (), 0, 2, 0),
                Config(7, 2, (), 0, 0, 4),
                Config(7, 5, (), 0, 3, 0),
            ),
            mutations_per_config=1,
            selfcheck_max_f=6,
            selfcheck_primes=(2, 3, 5),
            growth_probe=(Config(8, 3, (), 0, 2, 0), Config(9, 3, (), 0, 2, 0)),
        )
    if name == "wide_grid":
        # Many small trees with few repeats, over primes up to 1e9.  Two
        # mutations per config keep a pass near 3 s.
        return Workload(
            name=name,
            configs=_grid(rng, range(1, 6), PRIME_POOL, SPECIAL_CURVES + NONSPECIAL_CURVES),
            mutations_per_config=2,
            selfcheck_max_f=5,
            selfcheck_primes=PRIME_POOL,
        )
    if name == "selfcheck_sweep":
        # The exhaustive suites dominate; the few certificates cover the
        # sizes just past the f <= 4 cap of selfcheck's own round trip.
        # max_f = 8 keeps a pass near 1.5 s, like deep_tree.
        return Workload(
            name=name,
            configs=_grid(rng, (5, 6), (2, 3, 5), ROUNDTRIP_CURVES),
            mutations_per_config=1,
            selfcheck_max_f=8,
            selfcheck_primes=(2, 3, 5),
        )
    raise ValueError(f"unknown workload {name!r}")


def _leaves(obj: Any) -> list[tuple[Any, Any]]:
    """(container, key) of every scalar in a JSON value, in a fixed order."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        return []
    found = []
    for key, value in items:
        if isinstance(value, (dict, list)):
            found.extend(_leaves(value))
        else:
            found.append((obj, key))
    return found


def _altered(value: Any) -> Any:
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    return 0  # null


@dataclass(frozen=True)
class Mutation:
    """One altered scalar in one node record; apply() and undo() edit the document in place."""

    container: Any
    key: Any
    old: Any
    new: Any
    where: str

    def apply(self) -> None:
        self.container[self.key] = self.new

    def undo(self) -> None:
        self.container[self.key] = self.old


def pick_mutations(doc: dict[str, Any], rng: random.Random, count: int) -> list[Mutation]:
    """Seeded one-leaf mutations of value fields in randomly chosen node records."""
    mutations = []
    nodes = doc["nodes"]
    while len(mutations) < count:
        index = rng.randrange(len(nodes))
        node = nodes[index]
        leaves = [
            leaf
            for key in sorted(set(node) - STRUCTURAL_KEYS)
            for leaf in (_leaves(node[key]) if isinstance(node[key], (dict, list)) else [(node, key)])
        ]
        if not leaves:
            continue
        container, key = rng.choice(leaves)
        old = container[key]
        mutations.append(
            Mutation(container, key, old, _altered(old), f"nodes[{index}] {key!r}: {old!r}")
        )
    return mutations


def tree_descriptors(gocert: Any, configs) -> dict[str, Any]:
    """Tree nodes, distinct data and edges of the full case splits, by memoized recursion.

    A datum is keyed by (f, p, sorted s_inf, s_fin_count); its edges are the
    (T, child) pairs strata_children lists for it.  Returns totals over the
    configs plus the per-config tree node counts under "nodes_per_config".
    """
    sizes: dict[tuple, int] = {}
    edges: dict[tuple, int] = {}

    def key(rd: Any) -> tuple:
        return (rd.f, rd.p, tuple(sorted(rd.s_inf)), rd.s_fin_count)

    def size(rd: Any) -> int:
        k = key(rd)
        if k not in sizes:
            children = gocert.strata_children(rd) if len(rd.s_inf) < rd.f else []
            edges[k] = len(children)
            sizes[k] = 1 + sum(size(child) for _, child in children)
        return sizes[k]

    per_config = [
        size(gocert.make_ramification(c.f, c.p, c.s_inf, c.s_fin_count)) for c in configs
    ]
    return {
        "tree_nodes": sum(per_config),
        "distinct_data": len(sizes),
        "edges": sum(edges.values()),
        "nodes_per_config": per_config,
    }
