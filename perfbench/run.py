"""Ladder benchmark for steinerideals.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run repeats passes of the workload's operations until the next pass
would end after S seconds (at least MIN_PASSES passes).  Each pass runs
in a fresh single-threaded worker process with one closed-loop client:
an operation starts only after the previous one finished.  The seed
relabels the points of every design (seed 0 keeps the natural labels;
other seeds draw a new labeling for each pass), the worker receives only
the generated design files, and this supervisor judges every answer
against expected.json.  A worker still running at HARD_LIMIT_S seconds
into the run is killed and its unfinished operations count as failed.

--trace 0 reports the end-to-end metrics:
  ref_wall_s   summed wall time of one pass's operations at the reference
               speed, median over passes
  setup_s      worker start to its first operation (package import plus
               loading and validating the design files) at the reference
               speed, median over probes and passes
  peak_rss_mb  peak resident memory of the worker, median over passes
The host's speed drifts over seconds to minutes, so each time is rescaled
to a reference speed by the reference loop (reference.py) that the worker
runs after set-up and after each operation: an operation by the median of
the loops on either side of it, set-up by the median of the loops that
follow it.  The raw seconds are in the detail line.
--trace 1 alternates untraced and traced passes on the same labeling and
reports the per-layer metrics of tracing.py, medians over traced passes.

The last stdout line is the result object; the line before it is a
detail object with each operation's seconds per pass, keyed by operation
id.  The exit code is 0 only when every operation's answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import designs as ladder
from checks import Judge, Labeled
from reference import rescale
from tracing import layer_metrics
from workloads import SPEED_EXPONENT, WORKLOADS, designs_used

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
SETUP_PROBES = 4  # extra workers that only set up, for a steadier setup_s median
HARD_LIMIT_S = 150.0
# set-up is mostly module loading, numpy's included; the exponent that gave
# the smallest spread of setup_s between runs (see reference.py)
SETUP_SPEED_EXPONENT = 0.5


def _fail_setup(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


class Pass:
    """The outcome of one worker process."""

    def __init__(self, index: int, labeling: int, traced: bool):
        self.index, self.labeling, self.traced = index, labeling, traced
        self.setup_s: float | None = None
        self.ref_samples: list[list[float]] = []  # reference loops after set-up and after each operation
        self.op_start: float | None = None
        self.ops: dict[str, float] = {}  # operation id -> seconds
        self.failures: dict[str, str] = {}  # operation id -> reason
        self.problem: str | None = None  # what went wrong with the worker itself
        self.end: dict | None = None
        self.spans: list | None = None
        self.elapsed = 0.0

    @property
    def op_wall(self) -> float:
        return sum(self.ops.values())

    def ref_wall(self, exponent: float) -> float:
        """op_wall with each operation rescaled to the reference speed."""
        r = self.ref_samples
        return sum(
            rescale(s, statistics.median(r[i] + r[i + 1]), exponent) for i, s in enumerate(self.ops.values())
        )

    @property
    def ref_setup(self) -> float:
        return rescale(self.setup_s, statistics.median(self.ref_samples[0]), SETUP_SPEED_EXPONENT)


def _write_designs(ops, seed, labeling, pdir):
    labeled, paths = {}, {}
    for name in designs_used(ops):
        doc, perm = ladder.build(name, seed, labeling)
        labeled[name] = Labeled(doc, perm)
        paths[name] = str(pdir / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return labeled, paths


def _records(path: Path):
    """The worker's result lines; a line cut short by a kill ends them."""
    if not path.exists():
        return
    for line in path.read_text().splitlines():
        try:
            yield json.loads(line)
        except ValueError:
            return


def run_pass(workload, ops, seed, index, labeling, traced, deadline, work, judge, setup_only=False) -> Pass:
    p = Pass(index, labeling, traced)
    pdir = work / (f"probe{index}" if setup_only else f"pass{index}")
    pdir.mkdir(parents=True)
    labeled, paths = _write_designs(ops, seed, labeling, pdir)
    job = {
        "workload": workload,
        "designs": paths,
        "out": str(pdir),
        "trace": traced,
        "setup_only": setup_only,
        "results": str(pdir / "results.jsonl"),
        "spans": str(pdir / "spans.json"),
    }
    (pdir / "job.json").write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    t0 = time.monotonic()
    with open(pdir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(pdir / "job.json")],
            stdin=subprocess.DEVNULL,
            stdout=err,
            stderr=err,
            cwd=str(HERE),
            env=env,
        )
        try:
            code = proc.wait(timeout=max(0.0, deadline - t0))
            if code != 0:
                p.problem = f"worker exited {code}"
        except subprocess.TimeoutExpired:
            p.problem = f"worker killed at the {HARD_LIMIT_S:.0f} s wall limit"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    p.elapsed = time.monotonic() - t0

    by_id = {op.id: op for op in ops}
    for rec in _records(Path(job["results"])):
        if "setup_end" in rec:
            p.setup_s = rec["setup_end"] - t0
            p.ref_samples.append(rec["ref"])
            p.op_start = rec["op_start"]
        elif "end" in rec:
            p.end = rec["end"]
        else:
            op = by_id[rec["op"]]
            p.ops[op.id] = rec["seconds"]
            p.ref_samples.append(rec["ref"])
            reasons = judge.judge(op, rec, labeled)
            if reasons:
                p.failures[op.id] = "; ".join(reasons)
    for op in () if setup_only else ops:
        if op.id not in p.ops:
            p.failures[op.id] = "did not finish"
    if p.end is None and p.problem is None:
        p.problem = "worker wrote no end record"
    if traced and p.end is not None:
        p.spans = json.loads(Path(job["spans"]).read_text())
    return p


def run(workload: str, seed: int, seconds: float, trace: bool, judge):
    """Set-up probes, then passes until the next one would end after ``seconds``."""
    ops = WORKLOADS[workload]
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    probes = [run_pass(workload, ops, seed, i, 0, False, deadline, work, judge, True) for i in range(SETUP_PROBES)]
    passes: list[Pass] = []
    while True:
        i = len(passes)
        traced = trace and i % 2 == 1
        labeling = i // 2 if trace else i
        p = run_pass(workload, ops, seed, i, labeling, traced, deadline, work, judge)
        passes.append(p)
        if p.failures or p.problem:
            break
        done = len(passes)
        if trace and done % 2 == 1:
            continue  # finish the untraced/traced pair
        step = max(q.elapsed for q in passes) * (2 if trace else 1)
        if done >= (2 if trace else MIN_PASSES) and time.monotonic() - start + step > seconds:
            break
    return probes, passes, work


def end_to_end(probes, passes, exponent: float) -> dict[str, float]:
    return {
        "ref_wall_s": statistics.median(p.ref_wall(exponent) for p in passes),
        "setup_s": statistics.median(p.ref_setup for p in probes + passes),
        "peak_rss_mb": statistics.median(p.end["peak_rss_mb"] for p in passes),
    }


def per_layer(passes) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    rows = []
    for p in traced:
        row = layer_metrics(p.spans, p.op_start, p.op_wall)
        row["process.cpu_s"] = p.end["cpu_s"]
        rows.append(row)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["trace.overhead_ratio"] = statistics.median(p.op_wall for p in traced) / statistics.median(
        p.op_wall for p in plain
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "steinerideals" / "__init__.py").is_file():
        return _fail_setup(f"no package source at {SRC.relative_to(ROOT)}/steinerideals")
    try:
        expected = json.loads((HERE / "expected.json").read_text())
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail_setup(f"cannot read the benchmark's files: {exc}")
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    # a terminated run still kills and waits for its worker (see run_pass)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    ops = WORKLOADS[args.workload]
    probes, passes, work = run(args.workload, args.seed, args.seconds, bool(args.trace), Judge(expected))
    failures = [f"pass {p.index}: {op_id}: {why}" for p in passes for op_id, why in p.failures.items()]
    failures += [f"pass {p.index}: {p.problem}" for p in passes if p.problem]
    failures += [f"set-up probe {p.index}: {p.problem}" for p in probes if p.problem]
    failed = sum(len(p.failures) for p in passes) or len(failures)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": [{"labeling": p.labeling, "traced": p.traced} for p in passes],
        "work_dir": str(work.relative_to(ROOT)),
        "failures": failures,
        "setup_s": [p.setup_s for p in probes + passes],
        "ref_setup_s": [p.ref_setup if p.ref_samples else None for p in probes + passes],
        "op_wall_s": [p.op_wall for p in passes],
        "ref_wall_s": [p.ref_wall(SPEED_EXPONENT[args.workload]) for p in passes],
        "reference_s": [p.ref_samples for p in passes],
        "ops_s": {op.id: [p.ops.get(op.id) for p in passes] for op in ops},
    }
    print(json.dumps({"detail": detail}))
    metrics = {}
    if not failures:
        exponent = SPEED_EXPONENT[args.workload]
        values = per_layer(passes) if args.trace else end_to_end(probes, passes, exponent)
        if values.keys() != units.keys():
            raise RuntimeError(f"metrics {sorted(values.keys() ^ units.keys())} differ from BENCHMARK.json")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": not failures, "attempted": len(ops) * len(passes), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
