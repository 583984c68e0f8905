"""The qnsym benchmark.

    python3 perfbench/run.py --workload <cold-build|warm-hopf|sym-bridge>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
./src.  Every workload is a closed loop: for cold-build, one fixed cycle of
fresh processes started one at a time; for the warm workloads, fresh
processes one after another, each running whole cycles until its share of
--seconds has passed.  Every output is checked outside the timed region.  Human-readable figures go first; the last
line of stdout is one JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
TRACE_DIR = ROOT / ".bench_trace"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cold-build", "warm-hopf", "sym-bridge")
COLD_BUDGET_S = 10.0  # max_cold_degree: all eight bases in one process within this
PROBE_MAX_DEGREE = 12
WARM_PROCESSES = 5  # warm workloads: fresh processes that share a run's --seconds
OP_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed in the table only: fail_ratio is 0 on a correct program, so the JSON
# carries it as failed / attempted; max_cold_degree is probed by cold-build
# alone, since its probe takes about 16 s and the JSON of every workload must
# hold the same metrics
TABLE_ONLY = {"fail_ratio": "ratio", "max_cold_degree": "degree"}


def tail(samples):
    """The latency at the highest percentile that still has at least ten
    samples beyond it: (value, percentile, samples beyond, sample count).
    With ten samples or fewer, the maximum, with none beyond it."""
    xs = sorted(samples)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k, n


def child(spec, timeout=OP_TIMEOUT_S):
    """Run one child process; (exit status, parsed last line or None, wall s)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                              capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        return None, None, time.perf_counter() - start
    wall = time.perf_counter() - start
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        data = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        data = None
    return proc.returncode, data, wall


def probe_max_cold_degree() -> int:
    """Highest degree d at which one fresh process builds all eight
    Schur-like bases at d within COLD_BUDGET_S; degrees are tried upward
    and the first one over budget is killed."""
    best = 0
    for degree in range(1, PROBE_MAX_DEGREE + 1):
        status, data, wall = child({"mode": "probe", "degree": degree}, timeout=COLD_BUDGET_S)
        if status != 0 or data is None or wall > COLD_BUDGET_S:
            break
        best = degree
    return best


# ---------------------------------------------------------------------------
# cold-build

def cold_ops(seed, trace_dir=None):
    """One cycle of cold CLI processes, about 20 s, whatever --seconds is;
    one record per op.  The op count sets where the median and the tail
    rank fall: with one cycle, the median falls among the degree-6
    inversions and the tail among the degree-7 ops that need no inversion.
    Were the count set by the time spent, a faster program would run more
    cycles, and the tail would move to another cluster of op costs."""
    records = []
    for op in next(workloads.cold_cycles(seed)):
        spec = {"mode": "cold", "argv": workloads.cold_argv(op),
                "trace": trace_dir is not None,
                "trace_dir": str(trace_dir) if trace_dir else None}
        status, data, wall = child(spec)
        records.append({"op": op, "status": status, "data": data, "wall": wall})
    return records


def check_cold(records):
    """(failed op count, the first few failures), checked in this process."""
    sys.path.insert(0, str(SRC))
    from qnsym import core

    failures = []
    for rec in records:
        data = rec["data"]
        ok = rec["status"] == 0 and data is not None and data["out"].strip()
        if ok:
            try:
                y = core.element_from_json(json.loads(data["out"]))
                ok = workloads.check_cold(rec["op"], y)
            except Exception as exc:  # a malformed output is a failed op
                ok = False
                rec["error"] = repr(exc)
        if not ok:
            failures.append(f"{rec['op']!r}: status {rec['status']}, "
                            f"{rec.get('error') or 'wrong or empty output'}")
    return len(failures), failures[:5]


def cold_build(seed):
    records = cold_ops(seed)
    latencies = [r["wall"] for r in records]
    imports = [r["data"]["import_s"] for r in records if r["data"]]
    metrics = {
        "setup_s": statistics.median(imports) if imports else float("nan"),
        "ops_per_s": len(records) / sum(latencies),
        "peak_rss_mb": max((r["data"]["rss_mb"] for r in records if r["data"]), default=0.0),
        "max_cold_degree": probe_max_cold_degree(),
    }
    return metrics, latencies, check_cold(records)


def cold_build_traced(seed, trace_dir):
    plain = cold_ops(seed)
    traced = cold_ops(seed, trace_dir=trace_dir)
    overhead = sum(r["wall"] for r in traced) / sum(r["wall"] for r in plain)
    totals = tracer.merge_totals(r["data"]["trace"] for r in traced if r["data"])
    return totals, overhead, len(traced), check_cold(traced)


# ---------------------------------------------------------------------------
# warm workloads

def warm_child(workload, seed, **spec):
    status, data, _ = child(dict(spec, mode="warm", workload=workload, seed=seed),
                            timeout=max(OP_TIMEOUT_S, 4 * spec.get("seconds", 0)))
    if status != 0 or data is None:
        raise SystemExit(f"the {workload} process failed (status {status})")
    return data


def warm(workload, seed, seconds):
    # The run is split over fresh processes one after another, each with
    # its own set-up and its own seeded op stream, so that a slow stretch of
    # the machine or an unlucky memory layout moves one of them, and the
    # medians over them stay put.
    runs = [warm_child(workload, f"{seed}/{i}", seconds=seconds / WARM_PROCESSES)
            for i in range(WARM_PROCESSES)]
    latencies = [x for run in runs for x in run["latencies"]]
    metrics = {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "ops_per_s": statistics.median(len(run["latencies"]) / sum(run["latencies"])
                                       for run in runs),
        "peak_rss_mb": max(run["rss_mb"] for run in runs),
    }
    failures = [f for run in runs for f in run["failures"]]
    return metrics, latencies, (sum(run["failed"] for run in runs), failures[:5])


def warm_traced(workload, seed, seconds, trace_dir):
    plain = warm_child(workload, f"{seed}/0", seconds=seconds / WARM_PROCESSES)
    traced = warm_child(workload, f"{seed}/0", cycles=plain["cycles"], trace=True,
                        trace_dir=str(trace_dir))
    overhead = sum(traced["latencies"]) / sum(plain["latencies"])
    return (tracer.merge_totals([traced["trace"]]), overhead,
            len(traced["latencies"]), (traced["failed"], traced["failures"]))


# ---------------------------------------------------------------------------

def report(workload, trace, attempted, failures, metrics, units, notes, extra_rows=()):
    """Print every metric as a row, then the JSON line; rows named in
    extra_rows are printed only, not put in the JSON.  failures: (failed op
    count, the first few failures)."""
    failed, examples = failures
    print(f"workload {workload}  trace {trace}  ops {attempted}  failed {failed}")
    for failure in examples:
        print(f"  FAILED {failure}")
    width = max(map(len, metrics))
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]:<6} {note}".rstrip())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name not in extra_rows}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qnsym" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'qnsym'}", file=sys.stderr)
        return 2
    status, _, _ = child({"mode": "prime"})
    if status != 0:
        print("error: the qnsym package does not import", file=sys.stderr)
        return 1

    if args.trace:
        trace_dir = TRACE_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        if args.workload == "cold-build":
            totals, overhead, attempted, failures = cold_build_traced(args.seed, trace_dir)
        else:
            totals, overhead, attempted, failures = warm_traced(
                args.workload, args.seed, args.seconds, trace_dir)
        metrics = tracer.layer_metrics(totals, overhead)
        units = tracer.metric_units()
        notes = {key: "absent" for key in metrics
                 if any(key.startswith(name + ".") for name in totals["absent"])}
        report(args.workload, 1, attempted, failures, metrics, units, notes)
        return 0

    if args.workload == "cold-build":
        metrics, latencies, failures = cold_build(args.seed)
    else:
        metrics, latencies, failures = warm(args.workload, args.seed, args.seconds)
    p_value, pct, beyond, n = tail(latencies)
    metrics["op_p50_ms"] = 1000.0 * statistics.median(latencies)
    metrics["op_tail_ms"] = 1000.0 * p_value
    metrics["fail_ratio"] = failures[0] / len(latencies)
    units = dict(END_TO_END, **TABLE_ONLY)
    ordered = {name: metrics[name] for name in units if name in metrics}
    notes = {"op_tail_ms": f"(p{pct:.3f}, {beyond} samples beyond, n={n})",
             "op_p50_ms": f"(n={n})",
             "fail_ratio": f"({failures[0]} of {len(latencies)})",
             "max_cold_degree": f"(all eight bases cold within {COLD_BUDGET_S:g} s)"}
    report(args.workload, 0, len(latencies), failures, ordered, units, notes,
           extra_rows=TABLE_ONLY)
    return 0


if __name__ == "__main__":
    sys.exit(main())
