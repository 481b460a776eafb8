"""The benchmark's span tracer wraps gocert names by module attribute; each must exist."""

import sys
from pathlib import Path

import gocert

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def test_every_traced_boundary_is_a_callable_attribute():
    found = spans.boundaries()
    assert found
    for importer, name in found:
        module = gocert if importer == "gocert" else sys.modules[f"gocert.{importer}"]
        assert callable(getattr(module, name, None)), f"{importer}.{name}"
