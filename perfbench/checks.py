"""Judging operation outputs independently of the seed's labels.

``Judge`` reduces one operation's output to an observation that does
not depend on how the points were labeled, and lists any invariant it
breaks.  The observation is compared with the answer recorded at seed 0
in expected.json.  Fields the reduction does not name, such as
``elapsed_ms`` or fields added later, are ignored.

Label-free reductions: alpha tables, Waldschmidt bounds, counts and
containment verdicts are kept as they are; generator files, complements
and supports are mapped back to the natural labels and hashed.  Witnesses
and partitions depend on the labels, so they are checked directly: every
witness must lie in I^(m) by the support-degree predicate, and every
partition must do what the query asked.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path


@dataclass(frozen=True)
class Labeled:
    """A generated design: its relabeled document and the relabeling."""

    doc: dict
    perm: list[int]  # perm[p] is the new label of natural point p

    @cached_property
    def _inverse(self) -> dict[int, int]:
        return {new: p for p, new in enumerate(self.perm)}

    def natural(self, edge) -> tuple[int, ...]:
        return tuple(sorted(self._inverse[x] for x in edge))

    def natural_exponents(self, exps) -> tuple[int, ...]:
        return tuple(exps[self.perm[p] - 1] for p in range(1, len(self.perm)))

    def supports(self, source: str) -> list[tuple[int, ...]]:
        blocks = [tuple(b) for b in self.doc["blocks"]]
        if source == "cover":
            return blocks
        taken = set(blocks)
        return [c for c in itertools.combinations(range(1, self.doc["v"] + 1), self.doc["n"]) if c not in taken]


def digest(rows) -> str:
    text = "\n".join(" ".join(map(str, r)) for r in sorted(rows))
    return hashlib.sha256(text.encode()).hexdigest()


def _in_symbolic(witness: str, supports, m: int) -> bool:
    w = [int(x) for x in witness.split()]
    return all(sum(w[i - 1] for i in s) >= m for s in supports)


class Judge:
    """Judges operation records against the recorded answers.

    ``expected`` maps operation ids to recorded observations.  With None,
    the judge records each operation's first answer in ``observed``, and a
    later answer that differs from it fails.
    """

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.observed: dict = {}
        self.designs: dict[str, Labeled] = {}
        self.problems: list[str] = []

    def judge(self, op, rec: dict, designs: dict[str, Labeled]) -> list[str]:
        """Reasons the operation failed; empty when its answer is right."""
        if rec["error"]:
            return [rec["error"]]
        if rec["exit"] != 0:
            return [f"exit code {rec['exit']}"]
        self.designs, self.problems = designs, []
        try:
            obs = json.loads(json.dumps(getattr(self, "_" + op.check)(op, rec["stdout"])))
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        recorded = self.observed.setdefault(op.id, obs) if self.expected is None else self.expected.get(op.id)
        if obs != recorded:
            self.problems.append("answer differs from the recorded one")
        return self.problems

    def _witness(self, op, witness, m) -> None:
        if witness is not None and not _in_symbolic(witness, self.designs[op.design].supports(op.source), m):
            self.problems.append(f"witness {witness!r} is not in I^({m})")

    def _alpha(self, op, out):
        doc = json.loads(out)
        return {k: doc[k] for k in ("entries", "waldschmidt_upper", "waldschmidt_lower", "attained")}

    def _symbolic(self, op, out):
        doc = json.loads(out)
        obs = {k: doc[k] for k in ("m", "alpha", "generator_count")}
        if doc["generators"]:
            lines = Path(doc["generators"]).read_text().split("\n")[1:]
            rows = [self.designs[op.design].natural_exponents([int(x) for x in ln.split()]) for ln in lines if ln]
            if len(rows) != doc["generator_count"]:
                self.problems.append(f"generator file holds {len(rows)} rows, report says {doc['generator_count']}")
            obs["digest"] = digest(rows)
        return obs

    def _report(self, op, doc):
        self._witness(op, doc["witness"], doc["m"])
        obs = {k: doc[k] for k in ("m", "r", "slack", "holds", "alpha_m", "alpha_r", "omega_r", "method")}
        obs["witness"] = doc["witness"] is not None
        return obs

    def _containment(self, op, out):
        return self._report(op, json.loads(out))

    def _scan(self, op, out):
        docs = [json.loads(ln) for ln in out.splitlines()]
        return [doc if "summary" in doc else self._report(op, doc) for doc in docs]

    def _conjectures(self, op, out):
        obs = []
        for doc in map(json.loads, out.splitlines()):
            for inst in doc["instances"]:
                self._witness(op, inst.get("witness"), inst["params"].get("m"))
            obs.append(
                {
                    "conjecture": doc["conjecture"],
                    "all_hold": doc["all_hold"],
                    "threshold": doc.get("threshold"),
                    "instances": [[inst["params"], inst["holds"]] for inst in doc["instances"]],
                }
            )
        return obs

    def _reproduce(self, op, out):
        rows = [ln.split("\t") for ln in out.splitlines()]
        summary = rows[-1]
        passed, total = summary[1].split()[0].split("/")
        if summary[0] != "summary" or passed != total:
            self.problems.append(f"reproduce ended {summary!r}")
        return [r[:2] for r in rows]

    def _validate(self, op, out):
        return json.loads(out)

    def _complement(self, op, out):
        doc = json.loads(out)
        d = self.designs[op.design]
        edges = digest(d.natural(e) for e in doc["edges"])
        return {"vertices": doc["vertices"], "count": doc["count"], "digest": edges}

    def _coverability(self, op, out):
        doc = json.loads(out)
        classes = doc.pop("classes", None)
        if classes is not None:
            d = self.designs[op.design]
            points = sorted(itertools.chain.from_iterable(classes))
            if points != list(range(1, d.doc["v"] + 1)):
                self.problems.append("classes do not partition the points")
            sets = [set(c) for c in classes]
            blocks = [set(b) for b in d.doc["blocks"]]
            if len(sets) != doc["c"] or not all(b & c for b in blocks for c in sets):
                self.problems.append("partition is not a cover partition")
        return doc

    def _decomposition(self, op, out):
        doc = json.loads(out)
        d = self.designs[op.design]
        return {
            "support_count": len(doc["supports"]),
            "steiner": doc["steiner"],
            "digest": digest(d.natural(s) for s in doc["supports"]),
        }
