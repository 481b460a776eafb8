"""Check the relabeling case split and the tree sizes against the kernel walk and its edges against the oracle up to f = 10, the degree bound up to f = 12, and the model-child mask listing up to m = 16.

Compares certificate._case_split(rd) with helpers.kernel_case_split(rd) by
keys, insertion order, degree bounds and edges, and the kernel walk's subtree
size of rd with certificate._TREE_SIZES at rd's dimension, for all 6 138
roots at p in {2, 3, 5} (about 12 s) but the one root of dimension 10 per
prime, f = 10 at s_inf = {}: that one must be refused with the tree-size
message, and its kernel walk must count more than MAX_TREE_NODES nodes.  The
tests do the same up to f = 8; this covers f = 9 and 10 too, every
dimension-9 datum included.  Then checks every edge of the kernel walk of
each model root (f, {}) with f <= 10 at those primes, a walk the first check
found equal to the case split up to f = 9, against the oracle's augmented set
a = replay_augmented_set(f, s_inf, t), with each edge's t read from the
bitmask order of the datum's split places: its child's s_inf must be
s_inf | a, for all 32 556 edges (about 0.5 s).  Then checks that degree_bound(rd), the anchored sum of
the split mask's largest rotation, is the largest of max_degree_sums(rd),
each anchor's sum from its definition, for all 40 890 data of positive
dimension with f <= 12 at p in {2, 3, 5, 7, 1 000 003} (about 1 s).
Last, checks that model_child_masks(m), the listing the case split relabels,
equals the s_inf masks of strata_children on the model datum (f = m,
s_inf = {}, p = 2) for every m from 1 to 16 (131 038 children, about
1.2 s, nearly all of it in strata_children).
Run from the repository root:

    PYTHONPATH=src python tests/check_case_split.py

Prints one line per check and exits 0 when every table, size, edge, bound and mask is equal and each refusal holds, 1 at the first that fails.
"""

from __future__ import annotations

import sys
import time

from gocert import RamificationData, certificate, degree_bound, make_ramification, max_degree_sums, shimura_dimension
from gocert.oracle import all_ramifications, replay_augmented_set
from gocert.strata import model_child_masks, strata_children
from helpers import edge_vanishing_sets, kernel_case_split

MAX_F, PRIMES = 10, (2, 3, 5)
BOUND_MAX_F, BOUND_PRIMES = 12, (2, 3, 5, 7, 1_000_003)
MASK_MAX_M = 16
REFUSAL = f"the case split has more than {certificate.MAX_TREE_NODES} nodes"


def refusal(rd: RamificationData) -> str | None:
    """The message _case_split(rd) raises, or None when it returns."""
    try:
        certificate._case_split(rd)
    except ValueError as exc:
        return str(exc)
    return None


def oracle_edge_mismatch(rd: RamificationData) -> tuple[str | None, int]:
    """The first edge of rd's kernel walk whose child the oracle's augmented set contradicts, or None; and the edges checked.

    Each edge's T is read from its position: the edges follow the bitmask order of the datum's split places.
    """
    edges = 0
    for datum, entry in kernel_case_split(rd)[0].items():
        for t, child in zip(edge_vanishing_sets(datum), entry.edges, strict=True):
            added = replay_augmented_set(datum.f, datum.s_inf, t)
            if child.s_inf != datum.s_inf | added:
                return f"the edge T={sorted(t)} of {datum} leads to {child}, not s_inf | {sorted(added)}", edges
            edges += 1
    return None, edges


def main() -> int:
    started, roots = time.perf_counter(), 0
    for p in PRIMES:
        for rd in all_ramifications(MAX_F, p):
            table, sizes = kernel_case_split(rd)
            dim = shimura_dimension(rd)
            if dim >= len(certificate._TREE_SIZES):  # f = 10 at s_inf = {}, 299 263 nodes
                if refusal(rd) != REFUSAL or sizes[rd] <= certificate.MAX_TREE_NODES:
                    print(f"FAIL the case split of {rd} is not refused with {REFUSAL!r} over {sizes[rd]} nodes")
                    return 1
            elif list(certificate._case_split(rd).items()) != list(table.items()):
                print(f"FAIL the case split of {rd} differs from the kernel walk")
                return 1
            elif sizes[rd] != certificate._TREE_SIZES[dim]:
                print(f"FAIL the kernel walk of {rd} has {sizes[rd]} nodes, not {certificate._TREE_SIZES[dim]}")
                return 1
            roots += 1
    scope = f"f<={MAX_F} p in {','.join(map(str, PRIMES))}"
    print(
        f"PASS {roots} case splits and tree sizes equal the kernel walk or are refused"
        f" ({scope}, {time.perf_counter() - started:.1f}s)"
    )
    started, edges = time.perf_counter(), 0
    for p in PRIMES:
        for f in range(1, MAX_F + 1):
            failure, checked = oracle_edge_mismatch(make_ramification(f, p))
            if failure:
                print(f"FAIL {failure}")
                return 1
            edges += checked
    print(f"PASS {edges} model-root edges add the oracle's augmented set ({scope}, {time.perf_counter() - started:.1f}s)")
    started, data = time.perf_counter(), 0
    for p in BOUND_PRIMES:
        for rd in all_ramifications(BOUND_MAX_F, p, min_dim=1):
            if degree_bound(rd) != max(max_degree_sums(rd).values()):
                print(f"FAIL the degree bound of {rd} is not its largest anchored sum")
                return 1
            data += 1
    scope = f"f<={BOUND_MAX_F} p in {','.join(map(str, BOUND_PRIMES))}"
    print(f"PASS {data} degree bounds equal the largest anchored sum ({scope}, {time.perf_counter() - started:.1f}s)")
    started, children = time.perf_counter(), 0
    for m in range(1, MASK_MAX_M + 1):
        kernel = [sum(1 << x for x in child.s_inf) for _, child in strata_children(make_ramification(m, 2))]
        if model_child_masks(m) != kernel:
            print(f"FAIL model_child_masks({m}) differs from the masks of strata_children on the model datum")
            return 1
        children += len(kernel)
    print(f"PASS {children} model-child masks equal strata_children's (m<={MASK_MAX_M}, {time.perf_counter() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
