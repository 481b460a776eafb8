from gocert import selfcheck

# (suite, checked) for max_f=5 over the primes 2 and 3
EXPECTED_COVERAGE = [
    ("n-tau-tiling", 57),
    ("chain-partition", 301),
    ("induced-parity-growth", 301),
    ("dimension-descent", 301),
    ("degree-oracle", 114),
    ("degree-monotone", 57),
    ("rigidity-table", 121),
    ("contradiction-agreement", 121),
    ("certificate-roundtrip", 156),
]


def test_selfcheck_reports_its_coverage():
    report = selfcheck(5, [2, 3])
    assert [(suite.name, suite.checked) for suite in report.suites] == EXPECTED_COVERAGE
    assert all(suite.passed and suite.counterexample is None for suite in report.suites)
    assert report.ok
