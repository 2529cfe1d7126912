"""One pass of one workload, in a fresh single-threaded process.

Usage: python3 worker.py JOB_JSON

The job names the workload, the generated design files, an output
directory and whether to trace.  The worker imports the package, loads
and validates every design file (together: set-up), then runs the
operations one after the other; a set-up probe stops after set-up.  It
runs the reference loop (reference.py) right after set-up and after
every operation, so that the supervisor can rescale each time by the
host's speed around it.  It
streams one JSON line per event to the job's results file so that a
supervisor that kills it still knows which operations finished, and
writes the spans of a traced pass at the end.  Outputs are judged by the
supervisor, not here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import steinerideals
from steinerideals import cli
from reference import reference_loop
from workloads import WORKLOADS

REF_SAMPLES = 4  # reference loops after set-up and after each operation


def _run(op, designs, paths, out_dir):
    """Run one operation; returns (exit code, stdout text or library result)."""
    if op.lib:
        S = designs[op.design]
        arg = S if op.lib == "complement_ideal" else S.hypergraph()
        P = getattr(steinerideals, op.lib)(arg)
        return 0, P
    argv = [a.replace("{out}", out_dir) for a in op.argv]
    argv = [paths[a[1:-1]] if a[1:-1] in paths else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _text(result) -> str:
    if isinstance(result, str):
        return result
    return json.dumps({"supports": [list(s) for s in result.supports], "steiner": result.steiner})


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    designs = {name: steinerideals.load_design(path) for name, path in job["designs"].items()}
    with open(job["results"], "w", buffering=1) as res:
        setup_end = time.monotonic()
        ref = [reference_loop() for _ in range(REF_SAMPLES)]
        res.write(json.dumps({"setup_end": setup_end, "ref": ref, "op_start": time.perf_counter()}) + "\n")
        for op in () if job["setup_only"] else WORKLOADS[job["workload"]]:
            t0 = time.perf_counter()
            try:
                code, result = _run(op, designs, job["designs"], job["out"])
                error = None
            except Exception as exc:  # a raising operation is a failed operation
                code, result, error = None, "", f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            rec = {"op": op.id, "seconds": seconds, "exit": code, "error": error}
            rec["stdout"] = _text(result)
            rec["ref"] = [reference_loop() for _ in range(REF_SAMPLES)]
            res.write(json.dumps(rec) + "\n")
        times = os.times()
        end = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cpu_s": times.user + times.system,
        }
        if tracer is not None:
            with open(job["spans"], "w") as fh:
                json.dump(tracer.spans, fh)
        res.write(json.dumps({"end": end}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
