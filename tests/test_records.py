"""The public names, and the records as named tuples: what the pipeline relies on beyond plain tuple behaviour."""

import subprocess
import sys
from pathlib import Path

import pytest

import gocert
from gocert import (
    ContradictionVerdict,
    CurveType,
    FinitenessCertificate,
    RamificationData,
    RigidityVerdict,
    SelfcheckReport,
    Stratum,
    SuiteResult,
    VerifyResult,
    certificate,
    make_ramification,
)


def test_every_record_keeps_its_field_names_and_order():
    assert {record.__name__: record._fields for record in (
        RamificationData, Stratum, CurveType, RigidityVerdict, ContradictionVerdict,
        FinitenessCertificate, VerifyResult, SuiteResult, SelfcheckReport,
    )} == {
        "RamificationData": ("f", "s_inf", "s_fin_count", "p"),
        "Stratum": ("rd", "t"),
        "CurveType": ("g", "n"),
        "RigidityVerdict": ("finite", "d", "count"),
        "ContradictionVerdict": ("deg_tangent", "deg_hom", "forced_iso", "conclusion"),
        "FinitenessCertificate": (
            "rd", "curve", "rigidity", "contradiction", "steps", "split", "verdict", "tool_version",
        ),
        "VerifyResult": ("ok", "failures"),
        "SuiteResult": ("name", "passed", "checked", "scope", "counterexample", "seconds"),
        "SelfcheckReport": ("max_f", "primes", "suites"),
    }


def test_the_public_names_are_pinned():
    # adding or removing a public name is a deliberate edit of this list
    assert gocert.__all__ == [
        "__version__",
        "TOOL_VERSION",
        "RamificationData",
        "make_ramification",
        "split_places",
        "shimura_dimension",
        "Stratum",
        "decompose_chains",
        "induced_ramification",
        "strata_children",
        "max_degree_sums",
        "degree_bound",
        "CurveType",
        "RigidityVerdict",
        "euler_bound",
        "square_root_count",
        "is_special",
        "finiteness_verdict",
        "ContradictionVerdict",
        "hom_degree",
        "tangent_degree",
        "contradiction_check",
        "FinitenessCertificate",
        "VerifyResult",
        "build_certificate",
        "certificate_to_doc",
        "serialize_certificate",
        "verify_document",
        "SelfcheckReport",
        "SuiteResult",
        "selfcheck",
    ]
    assert all(hasattr(gocert, name) for name in gocert.__all__)


def test_importing_gocert_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since this one's test modules may have loaded either
    package_root = str(Path(gocert.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gocert; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_curve_type_checks_every_way_it_is_built():
    genus_two = CurveType(2, 0)
    with pytest.raises(ValueError, match=r"^genus and puncture count must be nonnegative, got \(-1, 0\)$"):
        genus_two._replace(g=-1)
    with pytest.raises(ValueError, match=r"^curve g must be an integer, got True$"):
        CurveType._make((True, -3))
    with pytest.raises(ValueError, match=r"^curve n must be an integer, got 4.0$"):
        CurveType(g=0, n=4.0)
    assert genus_two._replace(n=4) == CurveType(2, 4)
    assert CurveType._make([0, 4]) == CurveType(0, 4)


def test_stratum_checks_every_way_it_is_built():
    rd = make_ramification(4, 2, {1, 2})
    st = Stratum(rd, {0})
    assert st.t == frozenset({0}) and type(st.t) is frozenset
    with pytest.raises(ValueError, match=r"^place 1 of T is ramified, so not a split place$"):
        st._replace(t=frozenset(range(4)))
    with pytest.raises(ValueError, match=r"^T must be a proper subset of the split places$"):
        Stratum._make((rd, [0, 3]))
    assert st._replace(t={3}) == Stratum(rd, frozenset({3}))


def test_a_failed_verify_result_is_falsy():
    # a bare 2-tuple is truthy whatever it holds
    assert not VerifyResult(False, ("x",))
    assert VerifyResult(True, ())


def test_a_report_is_ok_only_when_every_suite_passes():
    passed = SuiteResult("a", True, 3, "f<=1", None, 0.0)
    failed = SuiteResult("b", False, 1, "f<=1", "f=1", 0.0)
    assert SelfcheckReport(1, (2,), (passed, passed)).ok
    assert not SelfcheckReport(1, (2,), (passed, failed)).ok
    assert SelfcheckReport(0, (2,), ()).ok


def test_a_datum_is_a_walk_table_key_by_value():
    rd = make_ramification(5, 3, [3, 1])
    twin = make_ramification(5, 3, (1, 3))
    assert rd == twin and rd.s_inf is not twin.s_inf
    # the frozen dataclass this record replaced hashed the tuple of its fields
    assert hash(rd) == hash(twin) == hash((5, frozenset({1, 3}), 0, 3))
    assert rd != make_ramification(5, 5, [1, 3]) and rd != make_ramification(5, 3, [1, 3], 2)
    table = certificate._case_split(rd)
    assert table[twin] is table[rd]
    # every child the walk reached is found again under an equal datum built afresh
    for datum in table:
        rebuilt = make_ramification(datum.f, datum.p, sorted(datum.s_inf), datum.s_fin_count)
        assert table[rebuilt] is table[datum]
