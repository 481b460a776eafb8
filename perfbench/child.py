"""One benchmark pass in a fresh interpreter; run by run.py, never imported.

The first statements time ``import gocert`` before anything else is imported,
so the figure is what every command line call pays.  The pass then runs the
workload's selfcheck, and for each configuration: analyze (build and
serialize), verify the genuine document, and verify each seeded mutation of it.
Every output is checked; each failure is reported with its cause.  The last
line of stdout is one JSON object.

Timings are reported twice: as wall seconds, and scaled to a reference machine
speed.  The machines this runs on change speed by up to 1.6x for seconds at a
time (shared cores), which moves every pure-Python loop alike, so a fixed
calibration loop timed next to each operation measures the current speed:
scaled seconds = wall seconds * REFERENCE_LOOP_S / calibration loop seconds.

    python3 child.py --workload NAME --seed N --mode import|pass|probe [--trace-out PATH]
"""

import time

clock = time.perf_counter

# The calibration loop's seconds at the reference speed: its median time on
# the 2-core 2.1 GHz Xeon VM of the first baseline, so that scaled and wall
# seconds agree there on average.  Changing it rescales every timing.
REFERENCE_LOOP_S = 0.0036
RECALIBRATE_S = 0.25


def loop_seconds() -> float:
    """Fastest of three runs of a fixed pure-Python loop that uses no gocert code."""
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        counts: dict = {}
        for i in range(5000):
            key = (i % 97, frozenset((i % 7, i % 11)))
            counts[key] = counts.get(key, 0) + 1
        best = min(best, clock() - t0)
    return best


_SLOWNESS = loop_seconds() / REFERENCE_LOOP_S
_T0 = clock()
import gocert  # noqa: E402

SETUP_WALL_S = clock() - _T0
SETUP_S = SETUP_WALL_S / _SLOWNESS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import Config, Workload, make_workload, pick_mutations  # noqa: E402


class Stopwatch:
    """Wall and reference-speed seconds of operations, calibrated before and after each."""

    def __init__(self) -> None:
        # The first loops in a fresh process run slow (cold caches), so warm up.
        for _ in range(3):
            self._calibrate()

    def _calibrate(self) -> None:
        self.slowness = loop_seconds() / REFERENCE_LOOP_S
        self.at = clock()

    def _slowness(self) -> float:
        if clock() - self.at > RECALIBRATE_S:
            self._calibrate()
        return self.slowness

    def measure(self, fn, *args):
        """Return fn(*args), its wall seconds and its seconds at the reference speed."""
        before = self._slowness()
        t0 = clock()
        result = fn(*args)
        wall = clock() - t0
        return result, wall, wall * 2 / (before + self._slowness())


class Pass:
    """Timings, outputs and failures of one pass."""

    def __init__(self) -> None:
        self.watch = Stopwatch()
        self.seconds = dict.fromkeys(("analyze_s", "verify_s", "load_s", "reject_s", "selfcheck_s"), 0.0)
        self.wall = dict(self.seconds)
        self.attempted = 0
        self.failures: list[list[str]] = []  # [operation, cause]
        self.digests: list[str] = []
        self.node_counts: list[int] = []
        self.cert_bytes = 0
        self.suites: list[list] = []

    def fail(self, op: str, cause: str) -> None:
        self.failures.append([op, cause])

    def timed(self, metrics: tuple[str, ...], fn, *args):
        """fn(*args), with its time added to each named metric."""
        result, wall, seconds = self.watch.measure(fn, *args)
        for name in metrics:
            self.wall[name] += wall
            self.seconds[name] += seconds
        return result


def analyze(config: Config) -> str:
    rd = gocert.make_ramification(config.f, config.p, config.s_inf, config.s_fin_count)
    cert = gocert.build_certificate(rd, gocert.CurveType(config.g, config.n))
    return gocert.serialize_certificate(cert)


def run_selfcheck(w: Workload, out: Pass) -> None:
    out.attempted += 1
    try:
        report = out.timed(("selfcheck_s",), gocert.selfcheck, w.selfcheck_max_f, list(w.selfcheck_primes))
    except Exception as exc:  # any raise is a failed operation, not a crash
        out.fail("selfcheck", f"raised {exc!r}")
        return
    out.suites = [[s.name, s.checked, s.seconds, s.passed] for s in report.suites]
    if not report.suites or not report.ok:
        failing = [f"{s.name}: {s.counterexample}" for s in report.suites if not s.passed]
        out.fail("selfcheck", f"report not ok: {failing or 'no suites ran'}")


def run_config(index: int, config: Config, w: Workload, seed: int, out: Pass) -> None:
    op = f"analyze[{index}]"
    out.attempted += 1
    try:
        text = out.timed(("analyze_s",), analyze, config)
    except Exception as exc:
        out.fail(op, f"{config.label}: raised {exc!r}")
        return
    data = text.encode()
    out.digests.append(hashlib.sha256(data).hexdigest())
    out.cert_bytes += len(data)

    op = f"verify[{index}]"
    out.attempted += 1
    try:
        doc = out.timed(("verify_s", "load_s"), json.loads, text)
        result = out.timed(("verify_s",), gocert.verify_document, doc)
    except Exception as exc:
        out.fail(op, f"{config.label}: raised {exc!r}")
        return
    out.node_counts.append(len(doc["nodes"]))
    if doc["verdict"] != config.expected_verdict:
        out.fail(
            f"analyze[{index}]",
            f"{config.label}: verdict {doc['verdict']!r}, expected {config.expected_verdict!r}",
        )
    if not result.ok:
        out.fail(op, f"{config.label}: genuine document rejected: {result.failures[:1]}")

    rng = random.Random(f"{w.name}:{seed}:{index}")
    for k, mutation in enumerate(pick_mutations(doc, rng, w.mutations_per_config)):
        op = f"reject[{index}.{k}]"
        out.attempted += 1
        mutation.apply()
        try:
            result = out.timed(("reject_s",), gocert.verify_document, doc)
        except Exception as exc:
            out.fail(op, f"{config.label}: {mutation.where}: raised {exc!r}")
            continue
        finally:
            mutation.undo()
        if result.ok:
            out.fail(op, f"{config.label}: mutation {mutation.where} -> {mutation.new!r} was accepted")


def run_pass(w: Workload, seed: int) -> dict:
    out = Pass()
    t0 = clock()
    run_selfcheck(w, out)
    for index, config in enumerate(w.configs):
        run_config(index, config, w, seed, out)
    pass_s = clock() - t0
    return {
        **out.seconds,
        "wall": out.wall,
        "pass_s": pass_s,
        "attempted": out.attempted,
        "failures": out.failures,
        "digests": out.digests,
        "node_counts": out.node_counts,
        "cert_bytes": out.cert_bytes,
        "suites": out.suites,
    }


def run_probe(w: Workload) -> dict:
    """Analyze times and node counts of the two growth-probe trees."""
    failures = []
    seconds = []
    node_counts = []
    watch = Stopwatch()
    for config in w.growth_probe:
        text, _, scaled = watch.measure(analyze, config)
        seconds.append(scaled)
        doc = json.loads(text)
        node_counts.append(len(doc["nodes"]))
        if doc["verdict"] != config.expected_verdict:
            failures.append(["probe", f"{config.label}: verdict {doc['verdict']!r}"])
    return {"analyze_s": seconds, "node_counts": node_counts, "attempted": 2, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("import", "pass", "probe"), required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()
    w = make_workload(args.workload, args.seed)
    result = {"setup_s": SETUP_S, "setup_wall_s": SETUP_WALL_S, "gocert_file": gocert.__file__}
    if args.mode == "pass":
        tracer = None
        if args.trace_out is not None:
            tracer = Tracer()
            tracer.install()
        result.update(run_pass(w, args.seed))
        if tracer is not None:
            tracer.save(args.trace_out)
    elif args.mode == "probe":
        result.update(run_probe(w))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
