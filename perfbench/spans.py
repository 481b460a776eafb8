"""Span tracing at gocert's module boundaries, installed from outside the program.

Every name that one gocert module imports from a sibling module and calls is
replaced, in the importing module's namespace, by a wrapper that records a
span: which binding was called, its start and end, and the enclosing span.
Wrapping the name where it is imported matters: ``certificate`` does
``from .strata import strata_children``, so wrapping ``gocert.strata`` alone
would never see that call.  A few calls inside one module are wrapped as well
because the per-layer metrics count them.

Spans stay in flat arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import ast
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

LAYERS = ("places", "strata", "hasse", "rigidity", "ledger", "certificate", "selfcheck")

# Calls within one module that the per-layer metrics need: every RamificationData
# built, the second induced_ramification per child (via fiber_dimension), the
# chain decompositions, and the rebuild inside verify_document.
INTRA_MODULE = {
    "places": ("RamificationData",),
    "strata": ("induced_ramification", "decompose_chains"),
    "certificate": ("build_certificate",),
}

# The public entry points the benchmark itself calls, through the package.
API = (
    "make_ramification",
    "CurveType",
    "build_certificate",
    "serialize_certificate",
    "verify_document",
    "selfcheck",
)


def boundaries() -> list[tuple[str, str]]:
    """(importing module, name) for every wrapped binding; "gocert" is the package."""
    found = [("gocert", name) for name in API]
    for layer in LAYERS:
        module = importlib.import_module(f"gocert.{layer}")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        called = {
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        names = (imported & called) | set(INTRA_MODULE.get(layer, ()))
        found.extend((layer, name) for name in sorted(names) if not name.startswith("_"))
    return found


class Tracer:
    def __init__(self) -> None:
        self.bindings: list[tuple[str, str]] = []  # (importer, "layer.name" of the target)
        self.binding = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _wrap(self, fn: Callable[..., Any], binding_id: int) -> Callable[..., Any]:
        binding, parent, start, end, stack = self.binding, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            i = len(binding)
            binding.append(binding_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for importer, name in boundaries():
            module = sys.modules["gocert" if importer == "gocert" else f"gocert.{importer}"]
            fn = getattr(module, name)
            target = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            self.bindings.append((importer, target))
            setattr(module, name, self._wrap(fn, len(self.bindings) - 1))

    def save(self, path: Path) -> None:
        """One JSON header line, then the binding, parent, start and end arrays."""
        with open(path, "wb") as out:
            header = {"bindings": self.bindings, "count": len(self.binding)}
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.binding, self.parent, self.start, self.end):
                column.tofile(out)


@dataclass
class Spans:
    bindings: list[tuple[str, str]]
    binding: array
    parent: array
    start: array
    end: array


def load(path: Path) -> Spans:
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(handle, header["count"])
            columns.append(column)
    return Spans([tuple(b) for b in header["bindings"]], *columns)


@dataclass
class TargetStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(
    spans: Spans,
) -> tuple[dict[str, TargetStats], list[int], dict[tuple[str, str], TargetStats]]:
    """Per-target calls, inclusive and self time; calls per binding; the same by (parent, child) target.

    Self time is a span's duration minus the durations of its direct children,
    which never overlap because the traced program is single-threaded.
    """
    n = len(spans.binding)
    binding, parent, start, end = spans.binding, spans.parent, spans.start, spans.end
    target_of = [target for _, target in spans.bindings]
    covered = array("d", bytes(8 * n))
    stats: dict[str, TargetStats] = {}
    per_binding = [0] * len(spans.bindings)
    nested: dict[tuple[str, str], TargetStats] = {}
    # Children always follow their parent, so walking backwards finishes every
    # child before its parent's self time is taken.
    for i in range(n - 1, -1, -1):
        duration = end[i] - start[i]
        b = binding[i]
        per_binding[b] += 1
        target = target_of[b]
        s = stats.get(target)
        if s is None:
            s = stats[target] = TargetStats()
        s.calls += 1
        s.total_s += duration
        s.self_s += duration - covered[i]
        p = parent[i]
        if p >= 0:
            covered[p] += duration
            pair = (target_of[binding[p]], target)
            s = nested.get(pair)
            if s is None:
                s = nested[pair] = TargetStats()
            s.calls += 1
            s.total_s += duration
    return stats, per_binding, nested
