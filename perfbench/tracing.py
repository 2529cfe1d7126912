"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` wraps every function named in ``steinerideals.__all__``,
the ``ContainmentEngine`` methods, ``MonomialIdeal.from_rows`` and the
claims runner, and rebinds each wrapper in every package module that
binds the original, so calls between modules are traced too.  Nothing in
the package changes on disk.  A span is (name, start, end, parent, stats);
spans stay in memory until the pass ends and are then written out.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
A span's self time is its duration minus the durations of its children.
The workloads run single-threaded, so one span stack is enough.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from math import comb

MODULES = ("cli", "designs", "symbolic", "monomials", "containment", "claims")
METHODS = ("symbolic", "base_ideal", "alpha", "ordinary_power", "omega_r", "check")
CHECK_METHODS = ("degree-obstruction", "symbolic-descent", "regularity-threshold", "generator-scan")
PARTITION = ("designs.is_coverable", "designs.is_colourable", "designs.chromatic_number")
DECOMPOSITION = ("symbolic.complement_ideal", "symbolic.cover_ideal")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _stats(name, args, kwargs, result) -> dict | None:
    """Counts measured at the boundary of a few layers."""
    if name == "monomials.MonomialIdeal.from_rows":
        rows = _arg(args, kwargs, 2, "rows")  # args[0] is the class
        return {"rows_in": len(rows), "rows_out": result.generator_count}
    if name == "symbolic.symbolic_power":
        return {"generators_out": result.generator_count}
    if name == "monomials.member_of_power":
        return {"hit": bool(result)}
    if name == "containment.ContainmentEngine.check":
        return {"method": result.method}
    if name == "symbolic.complement_ideal":
        S = _arg(args, kwargs, 0, "S")
        return {"supports_in": comb(S.v, S.n) - S.block_count, "supports_kept": result.support_count}
    if name == "symbolic.cover_ideal":
        H = _arg(args, kwargs, 0, "H")
        return {"supports_in": len(H.edges), "supports_kept": result.support_count}
    if name == "monomials.dump_monomials":
        target = _arg(args, kwargs, 0, "target")
        if isinstance(target, (str, os.PathLike)):
            return {"bytes": os.path.getsize(target)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, stats]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, stats: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = stats
        self._stack.pop()

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(idx)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                raise
            self._close(idx, _stats(name, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        import steinerideals
        from steinerideals import claims, cli, containment, monomials

        modules = [m for n, m in sys.modules.items() if n == "steinerideals" or n.startswith("steinerideals.")]
        targets = [
            getattr(steinerideals, n) for n in steinerideals.__all__ if inspect.isfunction(getattr(steinerideals, n))
        ]
        targets += [claims.run_claims, cli.main]
        for fn in targets:
            wrapped = self.wrap(fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)
        engine = containment.ContainmentEngine
        for meth in METHODS:
            setattr(engine, meth, self.wrap(getattr(engine, meth), f"containment.ContainmentEngine.{meth}"))
        from_rows = monomials.MonomialIdeal.__dict__["from_rows"].__func__
        monomials.MonomialIdeal.from_rows = classmethod(self.wrap(from_rows, "monomials.MonomialIdeal.from_rows"))


def _self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, op_start: float, op_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``op_start`` is when the first operation began; spans before it belong
    to set-up.  ``op_wall`` is the summed wall time of the operations.
    """
    own = _self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(spans, own):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + t

    def total(names, table):
        return sum(table.get(n, 0) for n in names)

    def stat(name, key):
        return sum(s[4][key] for s in spans if s[0] == name and s[4] and key in s[4])

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for mod in MODULES:
        names = [n for n in calls if n.split(".", 1)[0] == mod]
        out[f"{mod}.calls"] = total(names, calls)
        out[f"{mod}.self_s"] = total(names, self_s)
    for fn in ("initial_degree", "min_degree_generators", "symbolic_power"):
        out[f"symbolic.{fn}.calls"] = calls.get(f"symbolic.{fn}", 0)
        out[f"symbolic.{fn}.self_s"] = self_s.get(f"symbolic.{fn}", 0.0)
    out["symbolic.symbolic_power.generators_out"] = stat("symbolic.symbolic_power", "generators_out")

    fr = "monomials.MonomialIdeal.from_rows"
    out["monomials.from_rows.calls"] = calls.get(fr, 0)
    out["monomials.from_rows.self_s"] = self_s.get(fr, 0.0)
    out["monomials.from_rows.rows_in"] = stat(fr, "rows_in")
    out["monomials.from_rows.rows_out"] = stat(fr, "rows_out")
    out["monomials.from_rows.kept_ratio"] = ratio(
        out["monomials.from_rows.rows_out"], out["monomials.from_rows.rows_in"]
    )

    for fn in ("member_of_power", "power", "dump_monomials"):
        out[f"monomials.{fn}.calls"] = calls.get(f"monomials.{fn}", 0)
        out[f"monomials.{fn}.self_s"] = self_s.get(f"monomials.{fn}", 0.0)
    out["monomials.member_of_power.hit_ratio"] = ratio(
        stat("monomials.member_of_power", "hit"), out["monomials.member_of_power.calls"]
    )
    out["monomials.dump_monomials.bytes"] = stat("monomials.dump_monomials", "bytes")

    chk = "containment.ContainmentEngine.check"
    out["containment.check.calls"] = calls.get(chk, 0)
    out["containment.check.self_s"] = self_s.get(chk, 0.0)
    for method in CHECK_METHODS:
        out[f"containment.check.method.{method}"] = sum(
            1 for s in spans if s[0] == chk and s[4] and s[4]["method"] == method
        )
    # an engine lookup is a hit when it computed nothing: no child span
    # of the function the engine caches the answer of
    for kind, child in (("alpha", "symbolic.initial_degree"), ("symbolic", "symbolic.symbolic_power")):
        name = f"containment.ContainmentEngine.{kind}"
        lookups = [i for i, s in enumerate(spans) if s[0] == name]
        misses = {s[3] for s in spans if s[0] == child and s[3] is not None}
        hits = sum(1 for i in lookups if i not in misses)
        out[f"containment.engine.{kind}_hit_ratio"] = ratio(hits, len(lookups))

    out["symbolic.decomposition.calls"] = total(DECOMPOSITION, calls)
    out["symbolic.decomposition.self_s"] = total(DECOMPOSITION, self_s)
    out["symbolic.decomposition.supports_in"] = sum(stat(n, "supports_in") for n in DECOMPOSITION)
    out["symbolic.decomposition.supports_kept"] = sum(stat(n, "supports_kept") for n in DECOMPOSITION)
    out["designs.partition.calls"] = total(PARTITION, calls)
    out["designs.partition.self_s"] = total(PARTITION, self_s)
    out["designs.load_design.self_s"] = self_s.get("designs.load_design", 0.0)
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0)

    covered = sum(s[2] - s[1] for s in spans if s[3] is None and s[1] >= op_start)
    out["trace.coverage"] = ratio(covered, op_wall)
    return out
