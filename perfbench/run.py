"""gocert benchmark: analyze, verify, reject and selfcheck, end to end and per layer.

    python3 perfbench/run.py --workload deep_tree|wide_grid|selfcheck_sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: gocert is imported from ./src with no
install.  Every pass runs in a fresh single-threaded child interpreter, one at
a time, so its peak RSS (from os.wait4) and its import time are its own.

--trace 0 runs passes until --seconds is used up and reports the end-to-end
metrics: the median over passes of each timing, the pass's peak RSS and the
certificate bytes.  Timings are seconds at a reference machine speed (see
child.py); the wall-clock medians are printed beside them.  Failed operations
over attempted ones are the result's "failed" and "attempted".

--trace 1 runs one untraced and one traced pass, wraps every call between
gocert modules (see spans.py), writes the spans to perfbench/out/, and reports
the per-layer metrics in wall seconds: span times from the traced pass, load
and selfcheck suite times from the untraced one.  Both modes check every
output and print, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.  Metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from workloads import Workload, make_workload, tree_descriptors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

IMPORT_SAMPLES = 5  # import-only children at set-up, besides one per pass
MIN_PASSES = 2  # byte-equality needs a previous pass
DEADLINE_S = 170.0  # the whole run, children included, ends before 180 s

TIMINGS = ("analyze_s", "verify_s", "reject_s", "selfcheck_s")
SUITES = (
    "n-tau-tiling",
    "chain-partition",
    "induced-parity-growth",
    "dimension-descent",
    "degree-oracle",
    "degree-monotone",
    "rigidity-table",
    "contradiction-agreement",
    "certificate-roundtrip",
)


class ChildFailed(Exception):
    pass


class Run:
    """Child processes, operation counts and failures of one benchmark run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: dict[str, str] = {}  # operation -> first cause

    def fail(self, op: str, cause: str) -> None:
        self.failures.setdefault(op, cause)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, mode: str, *extra: str) -> tuple[dict, float, float]:
        """Run child.py; return its JSON result, its wall seconds and its peak RSS in MB."""
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        cmd = [sys.executable, str(CHILD), "--workload", self.workload, "--seed", str(self.seed), "--mode", mode, *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            # wait4 both reaps the child and gives its own rusage, which
            # RUSAGE_CHILDREN (a maximum over every child) cannot.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited with {proc.returncode}")
        try:
            result = json.loads(out.decode().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            raise ChildFailed(f"{mode} child printed no result: {exc}") from None
        if Path(result["gocert_file"]).resolve() != (SRC / "gocert" / "__init__.py").resolve():
            raise ChildFailed(f"child imported gocert from {result['gocert_file']}")
        return result, wall, usage.ru_maxrss / 1024.0

    def record(self, label: str, result: dict) -> None:
        self.attempted += result["attempted"]
        for op, cause in result["failures"]:
            self.fail(f"{label} {op}", cause)


def run_passes(run: Run, seconds: float, count: int | None, trace_out: Path | None = None) -> list[dict]:
    """Passes until `seconds` is used (or exactly `count`), each checked against the last."""
    passes: list[dict] = []
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        label = f"pass{len(passes)}"
        extra = ("--trace-out", str(trace_out)) if trace_out is not None and passes else ()
        run.attempted += 1  # the pass itself: the child must exit cleanly
        try:
            result, wall, rss = run.child("pass", *extra)
        except ChildFailed as exc:
            run.fail(label, str(exc))
            break
        result["peak_rss_mb"] = rss
        run.record(label, result)
        if passes and result["digests"] != passes[-1]["digests"]:
            run.fail(f"{label} bytes", "serialized bytes differ from the previous pass")
        passes.append(result)
        walls.append(wall)
        if count is not None:
            if len(passes) == count:
                break
        elif len(passes) >= MIN_PASSES and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
        if run.remaining() < 2 * max(walls):
            break
    return passes


def spread(values: list[float], unit: str) -> str:
    """Median, the highest percentile with at least 10 samples beyond it, and the count."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g} {unit}"
    if n > 10:
        q = 100 * (n - 10) // n
        text += f"  p{q} {ordered[n - 11]:.6g} {unit}"
    else:
        text += "  (no percentile has 10 samples beyond it)"
    return f"{text}  n={n}"


def end_to_end(
    run: Run, workload: Workload, descriptors: dict, seconds: float
) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Samples of every end-to-end metric, one per pass (per fresh import for setup_s),
    and the unscaled wall seconds behind each timing."""
    imports = [run.child("import")[0] for _ in range(IMPORT_SAMPLES)]
    passes = run_passes(run, seconds, None)
    if not passes:
        raise ChildFailed("no pass completed")
    check_node_counts(run, passes, descriptors)
    imports += passes
    samples = {name: [p[name] for p in passes] for name in TIMINGS}
    samples["setup_s"] = [p["setup_s"] for p in imports]
    samples["peak_rss_mb"] = [p["peak_rss_mb"] for p in passes]
    samples["cert_bytes"] = [p["cert_bytes"] for p in passes]
    walls = {name: [p["wall"][name] for p in passes] for name in TIMINGS}
    walls["setup_s"] = [p["setup_wall_s"] for p in imports]
    return samples, walls


def check_node_counts(run: Run, passes: list[dict], descriptors: dict, label: str = "pass") -> None:
    for k, p in enumerate(passes):
        if p["node_counts"] != descriptors["nodes_per_config"]:
            run.fail(
                f"{label}{k} node counts",
                f"certificate node counts {p['node_counts']} differ from the recursion's "
                f"{descriptors['nodes_per_config']}",
            )


def per_layer(run: Run, workload: Workload, descriptors: dict, probe_descriptors: dict | None) -> dict[str, float]:
    """Per-layer metrics from one untraced and one traced pass."""
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"{workload.name}.spans"
    passes = run_passes(run, 0.0, 2, trace_out)
    if len(passes) < 2:
        raise ChildFailed("the untraced and the traced pass did not both complete")
    untraced, traced = passes
    check_node_counts(run, passes, descriptors)
    trace = spans.load(trace_out)
    stats, per_binding, nested = spans.summarize(trace)
    m: dict[str, float] = {}

    def layer(prefix: str) -> list[spans.TargetStats]:
        return [s for target, s in stats.items() if target.startswith(prefix + ".")]

    def target(name: str) -> spans.TargetStats:
        return stats.get(name, spans.TargetStats())

    def under(parent: str, child: str) -> spans.TargetStats:
        return nested.get((parent, child), spans.TargetStats())

    for name in ("places", "strata", "hasse", "rigidity", "ledger"):
        m[f"{name}.self_s"] = sum(s.self_s for s in layer(name))
    for name in ("places", "rigidity"):
        m[f"{name}.calls"] = sum(s.calls for s in layer(name))
    m["places.ramification_built"] = target("places.RamificationData").calls
    for name in ("strata_children", "induced_ramification", "fiber_dimension", "decompose_chains"):
        m[f"strata.{name}.calls"] = target(f"strata.{name}").calls
    children = under("strata.strata_children", "strata.induced_ramification").calls
    m["strata.children"] = children
    m["strata.us_per_child"] = 1e6 * target("strata.strata_children").total_s / max(children, 1)
    degree = target("hasse.degree_bound")
    m["hasse.degree_bound.calls"] = degree.calls
    m["hasse.us_per_call"] = 1e6 * degree.total_s / max(degree.calls, 1)
    m["ledger.contradiction_check.calls"] = target("ledger.contradiction_check").calls
    verify = target("certificate.verify_document")
    m["certificate.build_self_s"] = target("certificate.build_certificate").self_s
    m["certificate.serialize_s"] = target("certificate.serialize_certificate").total_s
    m["certificate.load_s"] = untraced["wall"]["load_s"]
    m["certificate.verify_self_s"] = verify.self_s
    rebuild = under("certificate.verify_document", "certificate.build_certificate").total_s
    m["certificate.verify_rebuild_share"] = rebuild / verify.total_s if verify.total_s else 0.0
    m["certificate.bytes_per_datum"] = untraced["cert_bytes"] / max(descriptors["distinct_data"], 1)
    m["certificate.growth_f8_f9"] = 0.0
    if probe_descriptors is not None:
        run.attempted += 1
        try:
            probe, _, _ = run.child("probe")
        except ChildFailed as exc:
            run.fail("probe", str(exc))
        else:
            run.record("probe", probe)
            check_node_counts(run, [probe], probe_descriptors, "probe")
            f8, f9 = probe["analyze_s"]
            m["certificate.growth_f8_f9"] = f9 / f8
            print(f"growth probe tree nodes {probe['node_counts']}")
    suites = {name: (checked, seconds) for name, checked, seconds, _ in untraced["suites"]}
    for name in SUITES:
        checked, seconds = suites.get(name, (0, 0.0))
        m[f"selfcheck.{name}.s"] = seconds
        m[f"selfcheck.{name}.checked"] = checked
    m["work.configs"] = len(workload.configs)
    m["work.tree_nodes"] = descriptors["tree_nodes"]
    m["work.distinct_data"] = descriptors["distinct_data"]
    m["work.edges"] = descriptors["edges"]
    m["work.repeat_share"] = 1 - descriptors["distinct_data"] / descriptors["tree_nodes"]
    m["work.mutations"] = workload.mutations
    m["trace.overhead_s"] = traced["pass_s"] - untraced["pass_s"]

    # A wrapper that was never reached means a name was wrapped where the
    # pipeline does not look it up; every workload runs every command.
    for (importer, target_name), calls in zip(trace.bindings, per_binding):
        run.attempted += 1
        if calls == 0:
            run.fail(f"boundary {importer}->{target_name}", "wrapped but never called")
    print(f"spans written to {trace_out.relative_to(ROOT)}")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gocert" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a gocert source checkout (no {SRC / 'gocert'} or {spec_path})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import gocert

    workload = make_workload(args.workload, args.seed)
    descriptors = tree_descriptors(gocert, workload.configs)
    run = Run(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    try:
        run.child("import")  # fills the bytecode cache before anything is timed
        if args.trace:
            probe = workload.growth_probe
            probe_descriptors = tree_descriptors(gocert, probe) if probe else None
            metrics = per_layer(run, workload, descriptors, probe_descriptors)
            report = [f"{m['name']:42s} {metrics[m['name']]:.6g} {m['unit']}" for m in declared]
        else:
            samples, walls = end_to_end(run, workload, descriptors, args.seconds)
            metrics = {name: statistics.median(values) for name, values in samples.items()}
            report = [f"{m['name']:12s} {spread(samples[m['name']], m['unit'])}" for m in declared]
            report += [f"{name:12s} wall {spread(values, 's')}" for name, values in walls.items()]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        for op, cause in run.failures.items():
            print(f"FAIL {op}: {cause}", file=sys.stderr)
        return 1

    for op, cause in run.failures.items():
        print(f"FAIL {op}: {cause}", file=sys.stderr)
    failed = len(run.failures)
    print(*report, sep="\n")
    print(f"failed_ops   {failed}/{run.attempted} = {failed / max(run.attempted, 1):.6g} ratio")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
