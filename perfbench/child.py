"""One fresh benchmark process.  run.py starts it as

    python3 perfbench/child.py '<json spec>'

and reads the single JSON line it prints last.  Modes:

  prime   import qnsym once, so later processes find its bytecode cached
  probe   build all eight Schur-like bases at one degree, then exit
  cold    one CLI call, qnsym.cli.run(argv), with its stdout captured
  warm    a warm workload: set-up, then whole op cycles in a closed loop,
          at least workloads.MIN_CYCLES of them and until `seconds` have passed
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(spec):
    if not spec.get("trace"):
        return None
    import tracer

    return tracer.Tracer().start()


def _finish_trace(tr, spec):
    if tr is None:
        return None
    tr.stop()
    if spec.get("trace_dir"):
        tr.write_spans(Path(spec["trace_dir"]) / f"{os.getpid()}.json.gz")
    return tr.totals()


def probe(spec):
    from qnsym import core

    n = spec["degree"]
    for fam in ("sh", "rsh", "fsh", "bsh"):
        for tok in (fam, fam + "*"):
            canonical = core.CANONICAL[core.algebra_of(tok)]
            core.transition_matrix(tok, canonical, n)
            core.transition_matrix(canonical, tok, n)
    return {"degree": n}


def cold(spec):
    start = time.perf_counter()
    from qnsym import cli

    import_s = time.perf_counter() - start
    tr = _tracer(spec)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.run(spec["argv"])
    trace = _finish_trace(tr, spec)
    return {"status": status, "out": out.getvalue(), "import_s": import_s,
            "rss_mb": _rss_mb(), "trace": trace}


def _setup(workload):
    start = time.perf_counter()
    import qnsym  # noqa: F401  (registers every basis)
    import workloads

    workloads.setup(workload)
    return time.perf_counter() - start


def warm(spec):
    import workloads

    setup_s = _setup(spec["workload"])
    cycles = workloads.CYCLES[spec["workload"]](spec["seed"])
    latencies, failures = array("d"), []
    clock = time.perf_counter
    done, wall_start = 0, clock()

    def more():
        if spec.get("cycles") is not None:
            return done < spec["cycles"]
        return done < workloads.MIN_CYCLES or clock() - wall_start < spec["seconds"]

    tr = _tracer(spec)
    while more():
        results = []
        for op in next(cycles):
            args = workloads.prepare(op)
            start = clock()
            try:
                y, err = workloads.run(op[0], args), None
            except Exception:  # a raising op is a failed op, not a crash
                y, err = None, traceback.format_exc()
            latencies.append(clock() - start)
            results.append((op, args, y, err))
        # checked per cycle, so that no run holds more than one cycle's outputs
        with tr.paused() if tr else contextlib.nullcontext():
            for op, args, y, err in results:
                try:
                    ok = err is None and workloads.check(op, args, y)
                except Exception:
                    ok, err = False, traceback.format_exc()
                if not ok:
                    failures.append(f"{op!r}: {err or 'wrong output'}")
        done += 1
    rss_mb = _rss_mb()
    trace = _finish_trace(tr, spec)
    return {"setup_s": setup_s, "latencies": latencies.tolist(), "cycles": done,
            "rss_mb": rss_mb, "failed": len(failures),
            "failures": failures[:5], "trace": trace}


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    if mode == "prime":
        import qnsym  # noqa: F401

        result = {}
    else:
        result = {"probe": probe, "cold": cold, "warm": warm}[mode](spec)
    print(json.dumps(result))
    return result.get("status", 0) if mode == "cold" else 0


if __name__ == "__main__":
    sys.exit(main())
