import ast
import importlib
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from gocert import RamificationData, Stratum, certificate, make_ramification, oracle, selfcheck
from gocert.rigidity import RigidityVerdict
from gocert.selfcheck import MAX_SELFCHECK_F, MAX_SELFCHECK_PRIMES

# the module, not the function the package exports under the same name
SELFCHECK = importlib.import_module("gocert.selfcheck")

# (suite, checked, scope) for max_f=5 over the primes 2 and 3
EXPECTED_COVERAGE = [
    ("strata-oracle", 301, "f<=5 p=2"),
    ("model-masks", 52, "f<=5 p=2"),
    ("degree-oracle", 114, "f<=5 p in 2,3"),
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
    assert len(suites) == 5
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

    for name in ("decompose_chains", "induced_ramification"):
        monkeypatch.setattr(SELFCHECK, name, counted(name, getattr(SELFCHECK, name)))
    checked_new = Stratum.__new__
    monkeypatch.setattr(Stratum, "__new__", staticmethod(counted("Stratum", checked_new)))
    assert selfcheck(5, [2]).ok
    # 301 strata at f <= 5: one of each per stratum, and every stratum built without the
    # checking constructor
    assert calls == {"decompose_chains": 301, "induced_ramification": 301}
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
    # one bound each per relabeling; each model table's walk lists the model
    # children once per dimension it reaches: 2; 3; 4 and 2
    assert calls == {"_case_split": 6 * 52, "split_degree_bound": 6 * 90, "model_child_masks": 4}


def test_augmented_oracle_catches_an_augmented_set_that_drops_s_inf(monkeypatch):
    original = SELFCHECK.induced_ramification

    def swapped(st, chains=None):
        # ramifies two free places in place of two ramified ones: parity, size, T and the
        # dimension all hold, but the augmented set is not the oracle's
        induced = original(st, chains=chains)
        free = [x for x in range(st.rd.f) if x not in induced.s_inf]
        if len(st.rd.s_inf) < 2 or len(free) < 2:
            return induced
        kept = induced.s_inf - frozenset(sorted(st.rd.s_inf)[:2])
        return induced._replace(s_inf=kept | frozenset(free[:2]))

    monkeypatch.setattr(SELFCHECK, "induced_ramification", swapped)
    report = selfcheck(5, [2, 3])
    failures = {"strata-oracle": (69, "induced (4, [2, 3], 0, 2), expected (4, [0, 1], 0, 2): f=4 s_inf=[0, 1] t=[]")}
    expected = [
        (name, name not in failures, *failures.get(name, (checked, None)), scope)
        for name, checked, scope in EXPECTED_COVERAGE
    ]
    got = [(s.name, s.passed, s.checked, s.counterexample, s.scope) for s in report.suites]
    assert got == expected


def test_augmented_oracle_catches_the_place_after_an_odd_chains_head(monkeypatch):
    def after_the_head(st, chains):
        # adds the place after each odd chain's head, not the one before its tail: every
        # subtree size and the parity, growth and dimension of every induced datum hold
        rd, t = st.rd, st.t
        added = set(t)
        for chain in chains:
            if len(t.intersection(chain)) % 2:
                added.add((chain[0] + 1) % rd.f)
        return RamificationData(rd.f, rd.s_inf | added, rd.s_fin_count, rd.p)

    monkeypatch.setattr(SELFCHECK, "induced_ramification", after_the_head)
    report = selfcheck(5, [2, 3])
    failures = {"strata-oracle": (8, "induced (3, [0, 1], 0, 2), expected (3, [0, 2], 0, 2): f=3 s_inf=[] t=[0]")}
    expected = [
        (name, name not in failures, *failures.get(name, (checked, None)), scope)
        for name, checked, scope in EXPECTED_COVERAGE
    ]
    got = [(s.name, s.passed, s.checked, s.counterexample, s.scope) for s in report.suites]
    assert got == expected
    monkeypatch.undo()
    assert selfcheck(5, [2, 3]).ok


def test_selfcheck_asks_the_oracle_once_per_occupied_set(monkeypatch):
    calls: Counter[str] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("decompose_chains", "induced_ramification", "component_ends"):
        monkeypatch.setattr(SELFCHECK, name, counted(name, getattr(SELFCHECK, name)))
    assert selfcheck(5, [2]).ok
    # the occupied sets s_inf | T at f <= 5 are the proper subsets of Z/f: 1 + 3 + 7 + 15 + 31
    assert calls == {
        "decompose_chains": 301,
        "induced_ramification": 301,
        "component_ends": 57,
    }


# one too large: the bound, or the sum at the first anchor alone
DEGREE_MUTANTS = {
    "degree_bound": lambda bound: bound + 1,
    "max_degree_sums": lambda sums: {**sums, min(sums): sums[min(sums)] + 1},
}


@pytest.mark.parametrize(
    "name, counterexample",
    [
        ("degree_bound", "p=2 f=1 s_inf=[]"),
        ("max_degree_sums", "anchor 0: p=2 f=1 s_inf=[]"),
    ],
)
def test_degree_oracle_names_its_counterexample(monkeypatch, name, counterexample):
    original, mutant = getattr(SELFCHECK, name), DEGREE_MUTANTS[name]
    monkeypatch.setattr(SELFCHECK, name, lambda *args: mutant(original(*args)))
    (suite,) = [s for s in selfcheck(3, [2, 3]).suites if s.name == "degree-oracle"]
    assert (suite.passed, suite.checked, suite.counterexample) == (False, 1, counterexample)


def test_selfcheck_computes_one_degree_bound_per_datum_and_prime(monkeypatch):
    calls = 0
    original = SELFCHECK.degree_bound

    def counted(rd):
        nonlocal calls
        calls += 1
        return original(rd)

    monkeypatch.setattr(SELFCHECK, "degree_bound", counted)
    assert selfcheck(5, [2, 3]).ok
    # 57 data at each of the two primes, each checked against the oracle and the smaller prime's bound
    assert calls == 114


def merge_all_chains(decompose):
    def merged(st):
        # one chain holding every occupied place: disjoint, covering, and free at both
        # ends, so only the comparisons with the oracle's components can tell
        chains = decompose(st)
        return (sum(chains, ()),) if chains else ()

    return merged


def test_chain_partition_catches_merged_chains(monkeypatch):
    monkeypatch.setattr(SELFCHECK, "decompose_chains", merge_all_chains(SELFCHECK.decompose_chains))
    report = selfcheck(5, [2, 3])
    failures = {"strata-oracle": (32, "component mismatch: f=4 s_inf=[] t=[0, 2]")}
    expected = [
        (name, name not in failures, *failures.get(name, (checked, None)), scope)
        for name, checked, scope in EXPECTED_COVERAGE
    ]
    got = [(s.name, s.passed, s.checked, s.counterexample, s.scope) for s in report.suites]
    assert got == expected


def test_the_augmented_set_catches_merged_chains_that_pass_the_chain_check(monkeypatch):
    monkeypatch.setattr(SELFCHECK, "decompose_chains", merge_all_chains(SELFCHECK.decompose_chains))
    monkeypatch.setattr(SELFCHECK, "_chain_partition", lambda *args: None)  # every chain check passes
    (suite,) = [s for s in selfcheck(5, [2, 3]).suites if s.name == "strata-oracle"]
    assert (suite.passed, suite.checked, suite.counterexample) == (
        False,
        32,
        "induced (4, [0, 2], 0, 2), expected (4, [0, 1, 2, 3], 0, 2): f=4 s_inf=[] t=[0, 2]",
    )


def test_degree_oracle_catches_a_bound_that_falls_with_p(monkeypatch):
    # the oracle's maxima and every anchored sum agree with the falling bound
    monkeypatch.setattr(SELFCHECK, "degree_bound", lambda rd: 10 - rd.p)
    monkeypatch.setattr(SELFCHECK, "relaxed_profile_maxima", lambda rd: {0: 10 - rd.p})
    monkeypatch.setattr(SELFCHECK, "max_degree_sums", lambda rd: {0: 10 - rd.p})
    (suite,) = [s for s in selfcheck(3, [3, 2]).suites if s.name == "degree-oracle"]
    assert (suite.passed, suite.checked, suite.counterexample) == (
        False,
        2,
        "not monotone in p: p=2->3 f=1 s_inf=[]",
    )


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
    calls: Counter[str] = Counter()
    for module, name in ((SELFCHECK, "_chain_partition"), (oracle, "scan_constraints")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    assert selfcheck(5, [2]).ok
    # 57 occupied sets at f <= 5, each split into chains one way; 57 data for the degree oracle
    assert calls == {"_chain_partition": 57, "scan_constraints": 57}
    calls.clear()
    assert selfcheck(5, [2, 3]).ok
    assert calls == {"_chain_partition": 57, "scan_constraints": 114}


def test_chain_partition_checks_each_way_of_splitting_an_occupied_set(monkeypatch):
    original = SELFCHECK.decompose_chains

    def merged_when_both(st):
        # merges the chains only when both s_inf and T are occupied, so at f = 4 the
        # occupied set {0, 2} is split right for s_inf = {} and wrongly for s_inf = {0}
        chains = original(st)
        return (sum(chains, ()),) if st.rd.s_inf and st.t else chains

    monkeypatch.setattr(SELFCHECK, "decompose_chains", merged_when_both)
    (suite,) = [s for s in selfcheck(5, [2, 3]).suites if s.name == "strata-oracle"]
    assert (suite.passed, suite.checked, suite.counterexample) == (
        False,
        43,
        "component mismatch: f=4 s_inf=[0] t=[2]",
    )


# one decompose_chains mutant per structural check of the chains, with its first counterexample
@pytest.mark.parametrize(
    "mutant, counterexample",
    [
        (lambda chains: chains + chains[:1], "overlap: f=2 s_inf=[] t=[0]"),
        (lambda chains: tuple(c[:-1] or c for c in chains), "not maximal: f=3 s_inf=[] t=[0, 1]"),
        (lambda chains: chains[1:], "not covering: f=2 s_inf=[] t=[0]"),
    ],
    ids=["duplicated-chain", "dropped-tail-place", "dropped-chain"],
)
def test_chain_partition_names_each_kind_of_failure(monkeypatch, mutant, counterexample):
    original = SELFCHECK.decompose_chains
    monkeypatch.setattr(SELFCHECK, "decompose_chains", lambda st: mutant(original(st)))
    (suite,) = [s for s in selfcheck(5, [2]).suites if s.name == "strata-oracle"]
    assert (suite.passed, suite.counterexample) == (False, counterexample)


def test_the_oracle_depends_on_no_gocert_module_but_places():
    # the oracle is the independent opinion, and selfcheck keeps its answers for a
    # whole call; both hold only while it shares no code with the kernels it checks
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
