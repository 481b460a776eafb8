import copy
import functools
import json
import operator
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gocert
from gocert import TOOL_VERSION, verify_document
from gocert.cli import main
from helpers import leaf_mutations


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_finite(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--p", "3", "--f", "2", "--curve", "2,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "finite"
    assert doc["tool_version"] == TOOL_VERSION
    assert "verdict: finite" in err


def test_analyze_inconclusive_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--p", "3", "--f", "2", "--curve", "3,0"
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "inconclusive"


def test_analyze_names_the_cause_of_an_inconclusive_verdict(capsys):
    for curve, cause in (("3,0", "2g-2+n = 4, not 2"), ("0,3", "2g-2+n = 1, not 2")):
        code, out, err = run_cli(capsys, "analyze", "--p", "3", "--f", "2", "--curve", curve)
        assert code == 2
        assert f"verdict: inconclusive ({cause}" in err
        # the cause goes to stderr only: the certificate names no cause
        assert "2g-2+n" not in out
    code, _, err = run_cli(capsys, "analyze", "--p", "3", "--f", "2", "--curve", "2,0")
    assert code == 0 and "2g-2+n" not in err


def test_analyze_reports_a_dimension_zero_root_without_a_bound(capsys):
    for curve, code in (("2,0", 0), ("3,0", 2)):
        got, out, err = run_cli(capsys, "analyze", "--p", "3", "--f", "2", "--ram-inf", "0,1", "--curve", curve)
        assert got == code
        assert "nodes=1, dimension-zero root, no degree bound)" in err
        assert "None" not in err
        assert json.loads(out)["nodes"][0]["degree_bound"] is None
    _, _, err = run_cli(capsys, "analyze", "--p", "3", "--f", "2", "--curve", "2,0")
    assert "root degree bound=4)" in err


def test_analyze_with_ramification_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze", "--p", "2", "--f", "4", "--ram-inf", "1,2", "--ram-fin", "0",
        "--curve", "0,4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["rd"]["s_inf"] == [1, 2]
    assert doc["nodes"][0]["degree_bound"] == 9


def test_analyze_rejects_bad_parity(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--p", "3", "--f", "3", "--ram-inf", "0", "--curve", "2,0"
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "error"
    assert "even number" in err


def test_analyze_refuses_a_case_split_over_the_limit(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "--p", "3", "--f", "40", "--curve", "2,0")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "error"
    assert doc["error"] == "the case split has more than 100000 nodes"
    assert "more than 100000 nodes" in err


def test_analyze_rejects_repeated_ramified_place(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--p", "3", "--f", "3", "--ram-inf", "0,0,1", "--ram-fin", "1",
        "--curve", "2,0",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "error"
    assert "place 0 is listed twice" in err


def test_analyze_requires_flags_or_config(capsys):
    code, out, err = run_cli(capsys, "analyze", "--p", "3")
    assert code == 1
    assert "missing" in err
    assert json.loads(out)["verdict"] == "error"


def test_analyze_writes_out_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys,
        "analyze", "--p", "2", "--f", "1", "--curve", "0,4", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["verdict"] == "finite"
    assert verify_document(doc)


def test_analyze_reports_an_unwritable_out_path(tmp_path, capsys):
    target = str(tmp_path / "missing" / "cert.json")
    for argv in (("--curve", "2,0"), ("--curve", "2,0", "--ram-inf", "0")):
        code, out, err = run_cli(capsys, "analyze", "--p", "3", "--f", "3", *argv, "--out", target)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: [Errno 2] No such file or directory: {target!r}\n")
        assert "Traceback" not in err


def test_analyze_refuses_integers_json_cannot_hold(tmp_path, capsys, default_int_digits):
    target = tmp_path / "cert.json"
    ram_inf = ",".join(map(str, range(2, 10000)))
    argv = ("analyze", "--f", "10000", "--p", "3", "--ram-inf", ram_inf, "--curve", "2,0")
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    message = (
        "the degree bound at f=10000 has more than 4300 digits, "
        "the interpreter's limit for integers in JSON"
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")
    doc = json.loads(target.read_text())
    assert doc == {"error": message, "tool_version": TOOL_VERSION, "verdict": "error"}


def test_the_digit_limit_refuses_exactly_what_json_cannot_write(capsys, default_int_digits):
    # at s_inf = {2, ..., f - 1} and p = 3 the root's degree bound, the largest integer a
    # node holds, has 4300 digits at f = 9013 and 4301 at f = 9014
    for f, ram_fin, written in ((9013, "1", True), (9014, "0", False)):
        ram_inf = ",".join(map(str, range(2, f)))
        code, out, _ = run_cli(
            capsys, "analyze", "--f", str(f), "--p", "3", "--ram-inf", ram_inf, "--ram-fin", ram_fin, "--curve", "2,0"
        )
        doc = json.loads(out)
        assert (code, doc["verdict"]) == ((0, "finite") if written else (1, "error"))
        if written:
            assert len(str(doc["nodes"][0]["degree_bound"])) == 4300
            assert verify_document(doc)


DIGIT_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion: value has 4301 digits"


@pytest.mark.parametrize("flag", ["--curve", "--p", "--f", "--ram-inf", "--ram-fin"])
def test_analyze_names_the_flag_of_an_integer_over_the_digit_limit(capsys, default_int_digits, flag):
    long = "9" * 4301
    values = {"--p": "3", "--f": "2", "--curve": "2,0", flag: f"{long},0" if flag == "--curve" else long}
    code, out, err = run_cli(capsys, "analyze", *[item for pair in values.items() for item in pair])
    assert code == 1 and err.startswith(f"error: {flag}: {DIGIT_LIMIT}") and err.count("\n") == 1
    doc = json.loads(out)
    assert doc["verdict"] == "error" and doc["error"] == err[len("error: ") : -1]


@pytest.mark.parametrize("flag", ["--max-f", "--primes"])
def test_selfcheck_names_the_flag_of_an_integer_over_the_digit_limit(capsys, default_int_digits, flag):
    code, out, err = run_cli(capsys, "selfcheck", flag, "9" * 4301)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag}: {DIGIT_LIMIT}") and err.count("\n") == 1


GOOD_CONFIG = {"curve": {"g": 2, "n": 0}, "rd": {"f": 2, "p": 3, "s_fin_count": 0, "s_inf": []}}


CURVE_TOO_LONG = "the curve's 2g-2+n has more than 4300 digits, the interpreter's limit for integers in JSON"


def test_analyze_refuses_exactly_the_curves_json_cannot_hold(tmp_path, capsys, default_int_digits):
    # 2g - 2 + n has 4300 digits at g = 5 * 10^4299 and 4301 one genus later
    config, target = tmp_path / "run.json", tmp_path / "cert.json"
    for g, written in ((5 * 10**4299, True), (5 * 10**4299 + 1, False), (int("9" * 4300), False)):
        config.write_text(json.dumps({**GOOD_CONFIG, "curve": {"g": g, "n": 0}}))
        code, out, err = run_cli(capsys, "analyze", "--config", str(config), "--out", str(target))
        doc = json.loads(target.read_text())
        if written:
            assert (code, out, doc["verdict"]) == (2, "", "inconclusive")
            assert len(str(doc["rigidity"]["euler_bound"])) == 4300
            assert run_cli(capsys, "verify", "--in", str(target)) == (0, "", "verified\n")
        else:
            assert (code, out, err) == (1, "", f"error: {CURVE_TOO_LONG}\n")
            assert doc == {"error": CURVE_TOO_LONG, "tool_version": TOOL_VERSION, "verdict": "error"}


def test_verify_rejects_a_curve_json_cannot_hold(tmp_path, capsys, default_int_digits):
    target = tmp_path / "cert.json"
    assert run_cli(capsys, "analyze", "--p", "3", "--f", "2", "--curve", "2,0", "--out", str(target))[0] == 0
    doc = json.loads(target.read_text())
    # everything but the euler bound, which has 4301 digits, matches the rebuild's
    doc["config"]["curve"]["g"] = int("9" * 4300)
    doc["rigidity"] = {**doc["rigidity"], "count": None, "d": None, "finite": False}
    target.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", "--in", str(target)) == (1, "", f"rejected: {CURVE_TOO_LONG}\n")


def test_verify_never_raises_on_a_hostile_leaf(default_int_digits):
    # big has the most digits json converts, and 10**4300 one more
    big = 10**4300 - 1
    hostile = [True, False, 1.0, -1, 0, big, -big, big + 1, -big - 1, "x", None, [], {}, [[1]]]
    checked = 0
    for curve in (gocert.CurveType(2, 0), gocert.CurveType(3, 0)):
        doc = gocert.certificate_to_doc(gocert.build_certificate(gocert.make_ramification(3, 3), curve))
        genuine = copy.deepcopy(doc)
        for where in leaf_mutations(doc, lambda leaf: hostile):
            result = verify_document(doc)
            checked += 1
            value, leaf = (functools.reduce(operator.getitem, where, d) for d in (doc, genuine))
            assert isinstance(result, gocert.VerifyResult), (where, value)
            # accepted only for the leaf's own value and JSON type
            assert not result or (value == leaf and type(value) is type(leaf)), (where, value)
    assert checked == 1316


def test_analyze_from_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(GOOD_CONFIG))
    code, out, _ = run_cli(capsys, "analyze", "--config", str(config))
    assert code == 0
    assert json.loads(out)["verdict"] == "finite"

    def rejected(doc):
        config.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "analyze", "--config", str(config))
        assert code == 1
        assert json.loads(out)["verdict"] == "error"
        return err

    rd, curve = GOOD_CONFIG["rd"], GOOD_CONFIG["curve"]
    assert "exactly the keys 'curve' and 'rd'" in rejected({**GOOD_CONFIG, "bogus": 1})
    assert "config.rd must carry exactly" in rejected({**GOOD_CONFIG, "rd": {**rd, "bogus": 1}})
    assert "config.rd must carry exactly" in rejected({**GOOD_CONFIG, "rd": {k: v for k, v in rd.items() if k != "p"}})
    # values must be JSON integers: no float, bool or string is coerced
    assert "must be an integer" in rejected({**GOOD_CONFIG, "rd": {**rd, "p": 3.9}})
    assert "must be an integer" in rejected({**GOOD_CONFIG, "rd": {**rd, "f": True}})
    assert "must be an integer" in rejected({**GOOD_CONFIG, "curve": {**curve, "g": "2"}})
    # the earlier flat file format is not read
    old = {"p": 3, "f": 2, "ram_inf": [], "ram_fin": 0, "curve": [2, 0]}
    assert "exactly the keys 'curve' and 'rd'" in rejected(old)


def test_analyze_reads_a_config_file_of_at_most_one_mebibyte(tmp_path, capsys):
    config = tmp_path / "run.json"
    text = json.dumps(GOOD_CONFIG)
    config.write_text(text + " " * (2**20 - len(text)))
    assert run_cli(capsys, "analyze", "--config", str(config))[0] == 0
    # one byte more is refused before it is parsed, whatever it holds
    config.write_text("[" * (2**20 + 1))
    code, out, err = run_cli(capsys, "analyze", "--config", str(config))
    assert code == 1
    assert err == f"error: {config}: the file is 1048577 bytes, over the cap of 1048576 bytes\n"
    assert json.loads(out)["verdict"] == "error"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--p", "3", "--f", "2", "--curve", "2,0"], 0),
        (["--p", "2", "--f", "4", "--ram-inf", "1,2", "--curve", "0,4"], 0),
        (["--p", "5", "--f", "3", "--ram-inf", "0", "--ram-fin", "1", "--curve", "3,0"], 2),
        (["--p", "3", "--f", "4", "--ram-fin", "2", "--curve", "1,2"], 0),
    ],
)
def test_a_certificates_config_block_analyzes_to_the_same_bytes(tmp_path, capsys, argv, code):
    got, cert, _ = run_cli(capsys, "analyze", *argv)
    assert got == code
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads(cert)["config"]))
    assert run_cli(capsys, "analyze", "--config", str(config))[:2] == (code, cert)


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--p", "5", "--f", "9", "--curve", "3,0", "--ram-inf", "0"], "--p, --f, --ram-inf, --curve"),
        (["--ram-fin", "0"], "--ram-fin"),
    ],
)
def test_analyze_rejects_config_mixed_with_value_flags(tmp_path, capsys, flags, named):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(GOOD_CONFIG))
    code, out, err = run_cli(capsys, "analyze", "--config", str(config), *flags)
    message = f"--config cannot be combined with {named}"
    assert code == 1 and err == f"error: {message}\n"
    assert json.loads(out) == {"error": message, "tool_version": TOOL_VERSION, "verdict": "error"}


def test_verify_roundtrip_and_tamper(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys, "analyze", "--p", "2", "--f", "3", "--curve", "2,0", "--out", str(target)
    )
    assert code == 0
    code, _, err = run_cli(capsys, "verify", "--in", str(target))
    assert code == 0
    assert "verified" in err

    doc = json.loads(target.read_text())
    doc["nodes"][0]["degree_bound"] += 1
    target.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--in", str(target))
    assert code == 1
    assert "rejected" in err


def test_verify_handles_unreadable_input(tmp_path, capsys):
    target = tmp_path / "not-json.txt"
    target.write_text("{")
    code, _, err = run_cli(capsys, "verify", "--in", str(target))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100_000], ids=["non-utf8", "deeply-nested"]
)
def test_unreadable_files_are_reported_without_a_traceback(tmp_path, capsys, content):
    target = tmp_path / "input.json"
    target.write_bytes(content)
    code, out, err = run_cli(capsys, "verify", "--in", str(target))
    assert code == 1 and err.startswith("error: ") and out == ""
    code, out, err = run_cli(capsys, "analyze", "--config", str(target))
    assert code == 1 and err.startswith("error: ")
    assert json.loads(out)["verdict"] == "error"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--primes", ""], "need at least one prime"),
        (["--primes", "x"], "invalid literal"),
        (["--primes", "2,4"], "p must be a prime, got 4"),
        (["--max-f", "40"], "max_f must be at most 12, got 40"),
        (["--max-f", "13", "--primes", "2"], "max_f must be at most 12"),
        (["--max-f", "x"], "--max-f: invalid literal for int() with base 10: 'x'"),
        (["--max-f", "4.0"], "--max-f: invalid literal for int() with base 10: '4.0'"),
        (["--primes", "1_1"], "--primes: invalid literal for int() with base 10: '1_1'"),
        (["--primes", "2,\uff13"], "--primes: invalid literal for int() with base 10: '\uff13'"),
        (["--max-f", "3", "--primes", "2,2,3"], "p=2 is listed twice"),
        (["--primes", ",".join(["2"] * 17)], "at most 16 primes, got 17"),
        (["--max-f", "-9"], "max_f must be at least 0, got -9"),
    ],
)
def test_selfcheck_rejects_bad_inputs(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "selfcheck", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--ram-inf", "x", "--curve", "2,0"], "--ram-inf"),
        (["--curve", "2,x"], "--curve"),
    ],
)
def test_analyze_names_the_flag_of_a_bad_integer(capsys, argv, flag):
    code, out, err = run_cli(capsys, "analyze", "--p", "3", "--f", "2", *argv)
    assert code == 1
    message = f"{flag}: invalid literal for int() with base 10: 'x'"
    assert err == f"error: {message}\n"
    doc = json.loads(out)
    assert doc["verdict"] == "error" and doc["error"] == message


@pytest.mark.parametrize(
    "flag, text, bad",
    [
        ("--p", "3.9", "3.9"),
        ("--p", "\uff13", "\uff13"),  # a full-width digit
        ("--f", " 2", " 2"),
        ("--f", "1_1", "1_1"),
        ("--ram-fin", "+0", "+0"),
        ("--ram-inf", "1_1", "1_1"),
        ("--curve", "2,+0", "+0"),
    ],
)
def test_analyze_accepts_only_decimal_digits_in_an_integer_flag(capsys, flag, text, bad):
    values = {"--p": "3", "--f": "2", "--curve": "2,0", flag: text}
    code, out, err = run_cli(capsys, "analyze", *[item for pair in values.items() for item in pair])
    message = f"{flag}: invalid literal for int() with base 10: {bad!r}"
    assert code == 1 and err == f"error: {message}\n"
    assert json.loads(out) == {"error": message, "tool_version": TOOL_VERSION, "verdict": "error"}


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--p", "3", "--f", "2", "--curve", "2,0", "--bogus", "1"],
        [],
        ["verify"],
        ["selfcheck", "--max-f"],
    ],
    ids=["unknown-flag", "no-command", "missing-required", "missing-value"],
)
def test_usage_errors_exit_1_not_the_inconclusive_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and "error: " in err


@pytest.mark.parametrize("curve", ["2", "1,2,3"])
def test_analyze_names_the_flag_of_a_curve_of_wrong_length(capsys, curve):
    code, out, err = run_cli(capsys, "analyze", "--p", "3", "--f", "2", "--curve", curve)
    assert code == 1
    message = f"--curve: must be 'g,n', got {curve!r}"
    assert err == f"error: {message}\n"
    assert json.loads(out)["error"] == message


def test_selfcheck_json(capsys):
    code, out, err = run_cli(capsys, "selfcheck", "--max-f", "3", "--primes", "2,3", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert (doc["max_f"], doc["primes"], doc["ok"]) == (3, [2, 3], True)
    assert [suite["name"] for suite in doc["suites"]] == [
        "case-split-oracle",
        "model-masks",
        "degree-oracle",
        "curve-table",
        "certificate-roundtrip",
    ]
    assert all(
        set(suite) == {"name", "passed", "checked", "scope", "counterexample", "seconds"}
        and suite["passed"]
        for suite in doc["suites"]
    )
    # errors stay on stderr, with nothing on stdout
    code, out, err = run_cli(capsys, "selfcheck", "--primes", "2,x", "--json")
    assert (code, out) == (1, "")
    assert err.startswith("error: --primes: invalid literal")


def test_selfcheck_counts_at_max_f_8(capsys):
    # the benchmark's selfcheck_sweep: the whole report but the seconds
    code, out, _ = run_cli(capsys, "selfcheck", "--max-f", "8", "--primes", "2,3,5", "--json")
    assert code == 0
    doc = json.loads(out)
    for suite in doc["suites"]:
        del suite["seconds"]
    base, every, curves = "f<=8 p=2", "f<=8 p in 2,3,5", "g<=10 n<=10"
    coverage = [
        ("case-split-oracle", 9338, base),
        ("model-masks", 494, base),
        ("degree-oracle", 1506, every),
        ("curve-table", 121, curves),
        ("certificate-roundtrip", 156, "f<=4 p in 2,3"),
    ]
    suites = [
        {"name": name, "passed": True, "checked": checked, "scope": scope, "counterexample": None}
        for name, checked, scope in coverage
    ]
    assert doc == {"max_f": 8, "primes": [2, 3, 5], "ok": True, "suites": suites}


def test_selfcheck_small(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--max-f", "3", "--primes", "2,3")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(lines) == 5
    assert "all suites passed" in out


def test_selfcheck_empty(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--max-f", "0", "--primes", "2")
    assert code == 0
    assert "no suites" in out


@pytest.mark.parametrize("runs", [2])
def test_cross_process_determinism(tmp_path, runs):
    # separate interpreters, different hash seeds: output bytes must agree
    # the child imports the same gocert this process imported, installed or not
    package_root = str(Path(gocert.__file__).resolve().parent.parent)
    outputs = set()
    for seed in range(runs):
        proc = subprocess.run(
            [sys.executable, "-m", "gocert", "analyze", "--p", "5", "--f", "4",
             "--ram-inf", "0,2", "--curve", "2,0"],
            capture_output=True,
            env={
                "PYTHONHASHSEED": str(seed),
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": package_root,
            },
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_readme_command_line_examples_run(tmp_path):
    # the fenced sh block under "## Command line", with gocert the package this process imported
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    package_root = str(Path(gocert.__file__).resolve().parent.parent)
    script = f'gocert() {{ {shlex.quote(sys.executable)} -m gocert "$@"; }}\n{block}'
    proc = subprocess.run(
        ["bash", "-e", "-c", script],
        cwd=tmp_path,
        capture_output=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
