import pytest

from gocert import selfcheck
from gocert.selfcheck import MAX_SELFCHECK_F

# (suite, checked, scope) for max_f=5 over the primes 2 and 3
EXPECTED_COVERAGE = [
    ("n-tau-tiling", 57, "f<=5 p=2"),
    ("chain-partition", 301, "f<=5 p=2"),
    ("induced-parity-growth", 301, "f<=5 p=2"),
    ("dimension-descent", 301, "f<=5 p=2"),
    ("degree-oracle", 114, "f<=5 p in 2,3"),
    ("degree-monotone", 57, "f<=5 p in 2,3"),
    ("rigidity-table", 121, "g<=10 n<=10"),
    ("contradiction-agreement", 121, "g<=10 n<=10"),
    ("certificate-roundtrip", 156, "f<=4 p in 2,3"),
]


def test_selfcheck_reports_its_coverage():
    report = selfcheck(5, [2, 3])
    got = [(suite.name, suite.checked, suite.scope) for suite in report.suites]
    assert got == EXPECTED_COVERAGE
    assert all(suite.passed and suite.counterexample is None for suite in report.suites)
    assert report.ok


def test_selfcheck_validates_its_inputs_before_running():
    assert MAX_SELFCHECK_F == 12
    for primes, max_f, message in (
        ([], 3, "need at least one prime"),
        ([2, 9], 3, "p must be a prime, got 9"),
        ([2], MAX_SELFCHECK_F + 1, "max_f must be at most 12"),
        ([1], 0, "p must be a prime, got 1"),
    ):
        with pytest.raises(ValueError, match=message):
            selfcheck(max_f, primes)
    assert selfcheck(0, [2]).suites == ()
