import ast
import importlib
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from gocert import RamificationData, Stratum, certificate, decompose_chains, degree_bound, hasse, make_ramification, oracle, selfcheck, strata
from gocert.rigidity import RigidityVerdict
from gocert.selfcheck import MAX_SELFCHECK_F, MAX_SELFCHECK_PRIMES
from helpers import source_mutant

# the module, not the function the package exports under the same name
SELFCHECK = importlib.import_module("gocert.selfcheck")

# (suite, checked, scope) for max_f=5 over the primes 2 and 3
EXPECTED_COVERAGE = [
    ("case-split-oracle", 420, "f<=5 p in 2,3; case split p=2"),
    ("model-masks", 52, "f<=5 p=2"),
    ("curve-table", 121, "g<=10 n<=10"),
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
    assert MAX_SELFCHECK_PRIMES == 16  # at least the 8 primes of the benchmark's wide_grid
    for primes, max_f, message in (
        ([], 3, "need at least one prime"),
        ([2] * 17, 3, "^at most 16 primes, got 17$"),
        ([2, 9], 3, "p must be a prime, got 9"),
        ([2], MAX_SELFCHECK_F + 1, "max_f must be at most 12"),
        ([1], 0, "p must be a prime, got 1"),
        ([2, 3, 2], 3, "p=2 is listed twice"),
        ([2], -9, "^max_f must be at least 0, got -9$"),
    ):
        with pytest.raises(ValueError, match=message):
            selfcheck(max_f, primes)
    assert selfcheck(0, [2]).suites == ()


@pytest.mark.parametrize("max_f", [True, 2.0, "3", None])
def test_selfcheck_refuses_a_max_f_that_is_not_an_integer(monkeypatch, max_f):
    def unreachable(*args):
        raise AssertionError("a suite ran")

    suites = [name for name in vars(SELFCHECK) if name.startswith("_suite_")]
    assert len(suites) == 4
    for name in suites:
        monkeypatch.setattr(SELFCHECK, name, unreachable)
    with pytest.raises(ValueError) as refused:
        selfcheck(max_f, [2])
    assert str(refused.value) == f"max_f must be an integer, got {max_f!r}"


def test_selfcheck_walks_each_stratum_once(monkeypatch):
    calls: Counter[str] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(SELFCHECK, "_case_split", counted("_case_split", SELFCHECK._case_split))
    checked_new = Stratum.__new__
    monkeypatch.setattr(Stratum, "__new__", staticmethod(counted("Stratum", checked_new)))
    assert selfcheck(5, [2]).ok
    # the 62 roots at f <= 5, dimension 0 included: one case split each, whose 244 edges
    # are the strata it checks; model-masks lists its strata without the checking constructor
    assert calls == {"_case_split": 62}
    Stratum(make_ramification(3, 2), {0})
    assert calls["Stratum"] == 1  # the counter sees a checked construction


def test_certificate_roundtrip_walks_once_per_build_and_verify(monkeypatch):
    calls = {"_case_split": 0, "split_degree_bound": 0, "model_child_masks": 0}
    for name in calls:
        original = getattr(certificate, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(certificate, name, counted)
    assert selfcheck(4, [2, 3]).ok
    # 52 roots, each relabeled once in each of the three curves' builds and once in
    # each of the three verifies; their tables hold 90 data of positive dimension,
    # one bound each per relabeling; case-split-oracle calls selfcheck's own binding of
    # _case_split once for each of the 30 roots with f <= 4 at p = 2, whose tables hold
    # 45 data of positive dimension; each model table's walk lists the model
    # children once per dimension it reaches: 2; 3; 4 and 2
    assert calls == {"_case_split": 6 * 52, "split_degree_bound": 6 * 90 + 45, "model_child_masks": 4}


def test_augmented_oracle_catches_the_place_after_an_odd_chains_head(monkeypatch):
    def after_the_head(st):
        # adds the place after each odd chain's head, not the one before its tail: every
        # subtree size and the parity, growth and dimension of every induced datum hold
        rd, t = st.rd, st.t
        added = set(t)
        for chain in decompose_chains(st):
            if len(t.intersection(chain)) % 2:
                added.add((chain[0] + 1) % rd.f)
        return RamificationData(rd.f, rd.s_inf | added, rd.s_fin_count, rd.p)

    # the case split never calls the datum-level kernel, so model-masks, which compares
    # its listing with strata_children on the model data, is the suite that sees it
    monkeypatch.setattr(strata, "induced_ramification", after_the_head)
    report = selfcheck(5, [2, 3])
    failures = {"model-masks": (3, "m=3 t=[0]: mask 5, expected 3")}
    expected = [
        (name, name not in failures, *failures.get(name, (checked, None)), scope)
        for name, checked, scope in EXPECTED_COVERAGE
    ]
    got = [(s.name, s.passed, s.checked, s.counterexample, s.scope) for s in report.suites]
    assert got == expected
    monkeypatch.undo()
    assert selfcheck(5, [2, 3]).ok


def test_selfcheck_asks_the_oracle_once_per_occupied_set(monkeypatch):
    asked = []
    original = SELFCHECK.component_ends

    def recorded(f, occupied):
        asked.append((f, occupied))
        return original(f, occupied)

    monkeypatch.setattr(SELFCHECK, "component_ends", recorded)
    assert selfcheck(5, [2]).ok
    # the occupied sets s_inf | T of the edges at f <= 5 are the nonempty proper subsets
    # of Z/f, 0 + 2 + 6 + 14 + 30 of them, each asked about once
    proper = [(f, frozenset(s)) for f in range(1, 6) for r in range(1, f) for s in combinations(range(f), r)]
    assert len(asked) == len(proper) == 52
    assert set(asked) == set(proper)


# degree_bound one too large on the data each fault names, with the case-split-oracle result it gives
@pytest.mark.parametrize(
    "wrong, max_f, primes, checked, counterexample, scope",
    [
        # the root cases of f = 1 with s_inf = [0] and [], then the first datum of positive dimension at p = 2
        (lambda rd: True, 3, [2, 3], 3, "p=2 bound 2, expected 1: f=1 s_inf=[]", "f<=3 p in 2,3; case split p=2"),
        # the case split is checked at the first prime only; every prime's bound is checked
        (lambda rd: rd.p == 3, 3, [2, 3], 4, "p=3 bound 2, expected 1: f=1 s_inf=[]", "f<=3 p in 2,3; case split p=2"),
        # the one datum of dimension 10 at f <= 10, the last case: the case split stops at dimension 9, its bound does not
        (
            lambda rd: rd.f - len(rd.s_inf) == 10,
            10,
            [2],
            87_549,
            "p=2 bound 1024, expected 1023: f=10 s_inf=[]",
            "f<=10 p=2; case split p=2 dim<=9",
        ),
    ],
    ids=["everywhere", "only-at-p3", "only-at-dim10"],
)
def test_case_split_oracle_names_each_degree_bound_fault(monkeypatch, wrong, max_f, primes, checked, counterexample, scope):
    original = SELFCHECK.degree_bound
    monkeypatch.setattr(SELFCHECK, "degree_bound", lambda rd: original(rd) + wrong(rd))
    (suite,) = [s for s in selfcheck(max_f, primes).suites if s.name == "case-split-oracle"]
    assert (suite.passed, suite.checked, suite.counterexample, suite.scope) == (False, checked, counterexample, scope)


def test_selfcheck_computes_one_degree_bound_per_datum_and_prime(monkeypatch):
    calls = 0
    original = SELFCHECK.degree_bound

    def counted(rd):
        nonlocal calls
        calls += 1
        return original(rd)

    monkeypatch.setattr(SELFCHECK, "degree_bound", counted)
    assert selfcheck(5, [2, 3]).ok
    # 57 data at each of the two primes, each checked against the oracle; each root's own bound,
    # from the case split, is checked against the oracle alone
    assert calls == 114


@pytest.mark.parametrize("primes", [[2], [2, 3], [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]])
def test_selfcheck_runs_one_exponent_fixpoint_per_datum(monkeypatch, primes):
    asked: Counter[tuple[int, frozenset[int]]] = Counter()
    original = SELFCHECK.relaxed_profile_exponents

    def counted(f, s_inf):
        asked[f, s_inf] += 1
        return original(f, s_inf)

    monkeypatch.setattr(SELFCHECK, "relaxed_profile_exponents", counted)
    assert selfcheck(5, primes).ok
    # the 57 data of positive dimension at f <= 5, each relaxed once: the exponents do not
    # depend on p, and case-split-oracle checks the root and every prime's bound on them
    assert len(asked) == sum(asked.values()) == 57


def test_case_split_oracle_catches_a_bound_fault_both_bound_users_share(monkeypatch):
    # every bound one too large, in the producer's binding and in the one degree_bound calls:
    # the case split's bounds equal degree_bound's, so only an oracle sees the fault
    original = hasse.split_degree_bound

    def one_too_large(f, p, splits):
        return original(f, p, splits) + 1

    monkeypatch.setattr(hasse, "split_degree_bound", one_too_large)
    monkeypatch.setattr(certificate, "split_degree_bound", one_too_large)
    assert degree_bound(make_ramification(1, 2)) == 2
    report = selfcheck(5, [2, 3])
    failures = {"case-split-oracle": (2, "bound 2, expected 1: f=1 s_inf=[]")}
    expected = [
        (name, name not in failures, *failures.get(name, (checked, None)), scope)
        for name, checked, scope in EXPECTED_COVERAGE
    ]
    got = [(s.name, s.passed, s.checked, s.counterexample, s.scope) for s in report.suites]
    assert got == expected


def test_chain_partition_catches_merged_chains(monkeypatch):
    def merged(st):
        # one chain holding every occupied place: disjoint, covering, and free at both ends,
        # so the two odd chains of T = {0, 2} at f = 4 become one even one and add no place
        chains = original(st)
        return (sum(chains, ()),) if chains else ()

    original = strata.decompose_chains
    # the case split never calls the datum-level kernel: model-masks sees the chains through strata_children
    monkeypatch.setattr(strata, "decompose_chains", merged)
    report = selfcheck(5, [2, 3])
    failures = {"model-masks": (13, "m=4 t=[0, 2]: mask 15, expected 5")}
    expected = [
        (name, name not in failures, *failures.get(name, (checked, None)), scope)
        for name, checked, scope in EXPECTED_COVERAGE
    ]
    got = [(s.name, s.passed, s.checked, s.counterexample, s.scope) for s in report.suites]
    assert got == expected


@pytest.mark.parametrize(
    "name, mutant, counterexample",
    [
        (
            "finiteness_verdict",
            lambda ct: RigidityVerdict(True, 1, 1),
            "(g,n)=(0,0): verdict is RigidityVerdict(finite=True, d=1, count=1), expected (False, None, None)",
        ),
        (
            "contradiction_check",
            lambda *args: SimpleNamespace(conclusion="contradiction"),
            "(g,n)=(0,0): contradiction iff 2g-2+n=2 fails",
        ),
    ],
    ids=["rigidity", "contradiction"],
)
def test_curve_table_names_each_kind_of_failure(monkeypatch, name, mutant, counterexample):
    monkeypatch.setattr(SELFCHECK, name, mutant)
    (suite,) = [s for s in selfcheck(3, [2]).suites if s.name == "curve-table"]
    assert (suite.passed, suite.checked, suite.counterexample) == (False, 1, counterexample)


def test_readme_lists_the_suites_selfcheck_reports():
    # the bullet list after the sentence that introduces selfcheck's output, one suite per bullet
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("`selfcheck` prints one line for each"))
    first = next(i for i in range(start, len(lines)) if lines[i].startswith("- `"))
    listed = []
    for line in lines[first:]:
        if not line.startswith(("- `", "  ")):
            break
        if line.startswith("- `"):
            listed.append(line.split("`")[1])
    assert listed == [suite.name for suite in selfcheck(3, [2, 3]).suites]


def test_selfcheck_judges_each_occupied_set_and_its_chains_once(monkeypatch):
    # the oracle's components of an occupied set are its chains
    calls: Counter[str] = Counter()
    for module, name in ((SELFCHECK, "component_ends"), (oracle, "scan_constraints")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    assert selfcheck(5, [2]).ok
    # 52 occupied sets of edges at f <= 5, at the first prime only; 57 data for the oracle's
    # exponent profiles, which do not depend on p
    assert calls == {"component_ends": 52, "scan_constraints": 57}
    calls.clear()
    assert selfcheck(5, [2, 3]).ok
    assert calls == {"component_ends": 52, "scan_constraints": 57}


def test_the_oracle_depends_on_no_gocert_module_but_places():
    # the oracle is the independent opinion, and selfcheck reuses its answers within
    # a walk; both hold only while it shares no code with the kernels it checks
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                names = [node.module] if node.module else [alias.name for alias in node.names]
                imported.update(f"gocert.{name}" for name in names)
            elif node.module and node.module.split(".")[0] == "gocert":
                imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names if alias.name.split(".")[0] == "gocert")
    assert imported == {"gocert.places"}


def test_model_masks_names_the_first_model_child_a_faulty_listing_gets_wrong(monkeypatch):
    def after_the_head(m):
        # adds the place just after each odd run's head, not the one before its backward end;
        # at m = 2 the two places coincide
        masks = []
        for t in range(1, (1 << m) - 1):
            added = t
            for head in range(m):
                if t >> head & 1 and not t >> (head + 1) % m & 1:
                    length = 0
                    while t >> (head - length) % m & 1:
                        length += 1
                    if length % 2:
                        added |= 1 << (head + 1) % m
            masks.append(added)
        return masks

    assert after_the_head(2) == SELFCHECK.model_child_masks(2)
    monkeypatch.setattr(SELFCHECK, "model_child_masks", after_the_head)
    report = selfcheck(5, [2, 3])
    failures = {"model-masks": (3, "m=3 t=[0]: mask 3, expected 5")}
    expected = [
        (name, name not in failures, *failures.get(name, (checked, None)), scope)
        for name, checked, scope in EXPECTED_COVERAGE
    ]
    got = [(s.name, s.passed, s.checked, s.counterexample, s.scope) for s in report.suites]
    assert got == expected
    assert not report.ok
    monkeypatch.undo()
    assert selfcheck(5, [2, 3]).ok


# case-split mutants of certificate.py, each with the suites selfcheck(5, [2, 3]) fails on it
@pytest.mark.parametrize(
    "name, old, new, occurrence, failures",
    [
        # each relabeled datum's s_inf shifts down a place while its bound and the tree shape
        # stay right; verify, which rebuilds with the same mutant, accepts every document
        (
            "_model_below",
            "added >> x & 1",
            "added >> x & 2",
            1,
            {"case-split-oracle": (12, "t=[0]: child s_inf [0], expected [0, 1]: f=2 s_inf=[]")},
        ),
        # raises on every root of dimension 0, which the certificate round trip never builds
        (
            "_case_split",
            "root_bound is not None",
            "root_bound is None",
            0,
            {
                "case-split-oracle": (
                    1,
                    "raised AttributeError(\"'NoneType' object has no attribute 'bit_length'\"): f=1 s_inf=[0]",
                )
            },
        ),
        # each relabeled bound drops the first kept place when another is left, so builds and
        # verifies agree and only the comparison with each datum's own root entry tells
        (
            "_case_split",
            "[*map(place, kept)]",
            "[*map(place, kept[1:] or kept)]",
            0,
            {"case-split-oracle": (144, "entry [0, 3] differs from its own root entry: f=4 s_inf=[]")},
        ),
        # drops the first kept place outright, so a relabeled datum of dimension 1 has no split
        # place for its bound: both suites report the raise, and selfcheck returns
        (
            "_case_split",
            "[*map(place, kept)]",
            "[*map(place, kept[1:])]",
            0,
            {
                "case-split-oracle": (
                    42,
                    "raised ValueError('degree bound needs at least one split place'): f=3 s_inf=[]",
                ),
                "certificate-roundtrip": (
                    13,
                    "p=2 f=3 s_inf=[] curve=(2,0): raised ValueError('degree bound needs at least one split place')",
                ),
            },
        ),
    ],
    ids=["model-below-shifted-s-inf", "dimension-zero-raise", "relabeled-bound", "relabeled-bound-raise"],
)
def test_selfcheck_fails_on_each_case_split_mutant(monkeypatch, name, old, new, occurrence, failures):
    mutant = source_mutant(certificate, name, old, new, occurrence)
    monkeypatch.setattr(certificate, name, mutant)
    if hasattr(SELFCHECK, name):
        monkeypatch.setattr(SELFCHECK, name, mutant)  # selfcheck's own binding of _case_split
    report = selfcheck(5, [2, 3])
    expected = [
        (name, name not in failures, *failures.get(name, (checked, None)), scope)
        for name, checked, scope in EXPECTED_COVERAGE
    ]
    got = [(s.name, s.passed, s.checked, s.counterexample, s.scope) for s in report.suites]
    assert got == expected


def test_case_split_oracle_states_its_dimension_cap():
    # _case_split refuses dimension 10, so from max_f 10 on the scope says where the case split
    # stops: 85 513 case-split cases and the bounds of the 2 036 data of positive dimension
    (suite,) = [s for s in selfcheck(10, [2]).suites if s.name == "case-split-oracle"]
    assert (suite.passed, suite.checked, suite.scope) == (True, 87_549, "f<=10 p=2; case split p=2 dim<=9")
