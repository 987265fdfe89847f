"""Outside-in tracing of one in-process decision.

The tracer replaces each layer's public entry point with a recording
wrapper, set as an attribute of the module (or class) that calls it, so
the program itself is not changed. Each wrapper records a span: name,
start, end, parent span and decision id. Spans stay in memory until the
run ends. A layer's self time is its span's duration minus the durations
of its child spans; the layers' self times plus the root span's own self
time (``trace.unattributed_s``) add up to the root's duration.

An entry point that a later version of the program no longer has is
reported absent, and its metrics read 0, instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

ROOT = "trace.main"


def _solution_note(args, result) -> dict:
    return {
        "active": len(getattr(result, "active_bounds", ())),
        "degenerate": int(getattr(result, "status", None) == "degenerate"),
    }


def _relation_note(args, result) -> dict:
    # Relations live in the scenario for the whole decision, so their ids
    # are distinct per relation.
    return {"relation": id(args[0]) if args else None}


def _render_note(args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


#: (owner, attribute, span name, note). The owner is the module or class
#: whose attribute the calling code looks up.
PROBES = (
    ("lingdecide.cli", "main", ROOT, None),
    ("lingdecide.cli", "load_scenario", "scenario.read_decode", None),
    ("lingdecide.scenario", "scenario_from_dict", "scenario.validate", None),
    ("lingdecide.pipeline", "estimate_transition", "markov.estimate", None),
    ("lingdecide.markov", "solve", "solver.markov", _solution_note),
    ("lingdecide.pipeline", "period_weights", "markov.period", None),
    ("lingdecide.pipeline", "period_weights_reshaped", "markov.period", None),
    ("lingdecide.pipeline", "compute_expert_weights", "prefs.expert_weights", None),
    ("lingdecide.prefs", "outer_weights", "prefs.outer_weights", None),
    ("lingdecide.prefs", "inner_deviation", "prefs.inner_deviation", None),
    ("lingdecide.prefs", "score_matrix", "prefs.score_matrix", _relation_note),
    ("lingdecide.pipeline", "score_matrix", "prefs.score_matrix", _relation_note),
    ("lingdecide.pipeline", "scored_model1_problem", "prefs.model_build", None),
    ("lingdecide.pipeline", "solve", "solver.priority", _solution_note),
    ("lingdecide.pipeline", "aggregate", "pipeline.aggregate", None),
    ("lingdecide.pipeline", "rank", "pipeline.rank", None),
    ("lingdecide.pipeline.DecisionReport", "to_json", "pipeline.render", _render_note),
)

#: layers whose self time is reported as ``<layer>_s``
LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in PROBES if name != ROOT))

#: layers whose call count is reported as ``<layer>_calls``
COUNTED = ("solver.markov", "solver.priority", "prefs.score_matrix")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int
    decision: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(path: str):
    """The module named ``path``, or a class inside a module; None if gone."""
    try:
        return importlib.import_module(path)
    except ImportError:
        pass
    module_name, _, attr = path.rpartition(".")
    if not module_name:
        return None
    try:
        return getattr(importlib.import_module(module_name), attr, None)
    except ImportError:
        return None


class Tracer:
    """Records spans around wrapped entry points; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.notes: dict[int, dict] = {}
        self.decision = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        def recorded(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[sid] = Span(sid, name, parent, self.decision, start, end)
            if note is not None:
                self.notes[sid] = note(args, result)
            return result

        return recorded

    def install(self, probes=PROBES) -> None:
        self.absent = []
        for owner_path, attr, name, note in probes:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self.wrap(name, original, note))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {
            "spans": [
                [s.id, s.name, s.parent, s.decision, s.start, s.end] for s in self.spans
            ],
            "notes": {str(k): v for k, v in self.notes.items()},
            "absent": self.absent,
        }


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def decision_metrics(spans: list[Span], notes: dict[int, dict]) -> dict[str, float]:
    """Per-layer metrics of the spans of one decision."""
    own = self_times(spans)
    out = {f"{layer}_s": 0.0 for layer in LAYERS}
    out.update({f"{layer}_calls": 0 for layer in COUNTED})
    relations: set[int] = set()
    active = degenerate = report_bytes = 0
    main = unattributed = 0.0
    for s in spans:
        note = notes.get(s.id, {})
        if s.name == ROOT:
            main += s.duration
            unattributed += own[s.id]
            continue
        out[f"{s.name}_s"] += own[s.id]
        if s.name in COUNTED:
            out[f"{s.name}_calls"] += 1
        if note.get("relation") is not None:
            relations.add(note["relation"])
        active += note.get("active", 0)
        degenerate += note.get("degenerate", 0)
        report_bytes += note.get("bytes", 0)
    calls = out["prefs.score_matrix_calls"]
    out.update(
        {
            "prefs.relations_scored": len(relations),
            "prefs.rescore_ratio": calls / len(relations) if relations else 0.0,
            "solver.active_bounds": active,
            "solver.degenerate": degenerate,
            "pipeline.report_bytes": report_bytes,
            "trace.main_s": main,
            "trace.unattributed_s": unattributed,
        }
    )
    return out


def absent_layers(absent_probes: list[str]) -> list[str]:
    """Layers none of whose entry points exist any more."""
    gone = set(absent_probes)
    return [
        layer
        for layer in LAYERS + (ROOT,)
        if all(f"{o}.{a}" in gone for o, a, name, _ in PROBES if name == layer)
    ]


def run_metrics(dump: dict) -> dict[str, float]:
    """Metrics of the traced decision whose ``trace.main_s`` is the median.

    One decision's figures, rather than a median per metric, so that the
    layer self times still add up to ``trace.main_s``.
    """
    spans = [Span(*row) for row in dump["spans"]]
    notes = {int(k): v for k, v in dump["notes"].items()}
    by_decision: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_decision[s.decision].append(s)
    per = sorted(
        (decision_metrics(group, notes) for group in by_decision.values()),
        key=lambda m: m["trace.main_s"],
    )
    return per[(len(per) - 1) // 2]
