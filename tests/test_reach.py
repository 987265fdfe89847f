"""Every function the package defines is reached by ``decide`` or kept for a named reason.

The guard runs ``cli.main`` in-process under ``sys.setprofile`` over the
bundled case, the files in ``tests/data``, small generated scenarios
(``perfbench/generate.py``), one with an expert-weight override, one whose
comparisons leave an alternative unlinked and one malformed file, each
with several command-line options. A function defined
in ``src/lingdecide`` that no run calls must be listed in ``KEPT`` with
what keeps it: an acceptance criterion, a perfbench import, the grid
oracle, the console script or the lazy public namespace (the package's
``__getattr__`` and ``__dir__``); besides those, only the scalar score that
the matrix arrays are tested against, the data-model methods of term
matrices and of records, and the record decorator, which runs when the
package is imported, before the profiled runs. An entry for a function
that is gone, or that the runs do reach, fails too, so the list stays
exact.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import lingdecide
from lingdecide import cli

from test_generated_scenarios import generate, unlinked_first_alternative

SRC = Path(lingdecide.__file__).parent
DATA = Path(__file__).parent / "data"

#: functions no ``decide`` run reaches, each with what keeps it
KEPT = {
    "__init__.__getattr__": "the lazy public namespace",
    "__init__.__dir__": "the lazy public namespace",
    "cli.entry": "the console script `decide`",
    "scale.from_unit": "acceptance criterion 1",
    "scale.to_unit": "acceptance criterion 1",
    "scenario.bundled_scenario_text": "acceptance criterion 4",
    "scenario.load_bundled_scenario": "acceptance criterion 4; perfbench import",
    "prefs.collective_priorities": "acceptance criterion 5",
    "prefs.consistent_relation": "acceptance criterion 5",
    "prefs.model1_problem": "acceptance criterion 5; perfbench import",
    "solver.solve": "acceptance criterion 5",
    "solver.SimplexWLSProblem.__post_init__": "acceptance criterion 5",
    "solver.SimplexWLSProblem.m": "acceptance criterion 5",
    "solver.SimplexWLSProblem.objective": "acceptance criterion 5",
    "solver.brute_force_oracle": "the grid oracle (acceptance criterion 5)",
    "solver.brute_force_oracle.<locals>.consider": "the grid oracle (acceptance criterion 5)",
    "solver._fiber_batch_min": "the grid oracle (acceptance criterion 5)",
    "terms.PeakIntervalTerm.__post_init__": "acceptance criterion 5",
    "terms.PeakIntervalTerm.from_units": "acceptance criterion 5",
    "terms._check_cell": "acceptance criteria 5 and 7",
    "terms.TermMatrix.__init__": "acceptance criterion 5",
    "terms.TermMatrix.from_fields": "acceptance criterion 5",
    "diagnostics.Diagnostics.kinds": "acceptance criterion 6",
    "prefs.compute_expert_weights": "acceptance criterion 6",
    "prefs.inner_deviation": "acceptance criterion 6",
    "prefs.inner_weights": "acceptance criterion 6",
    "terms.LinguisticInterval.__post_init__": "acceptance criterion 7",
    "terms.LinguisticInterval.unit_lower": "acceptance criterion 7",
    "terms.LinguisticInterval.unit_upper": "acceptance criterion 7",
    "terms.FuzzyIntervalTerm.__post_init__": "acceptance criterion 7",
    "terms.FuzzyIntervalSet.__post_init__": "acceptance criterion 7",
    "terms.ProbabilisticTermSet.__post_init__": "acceptance criterion 7",
    "terms.evidence_from_pairs": "acceptance criterion 7",
    "terms.peak": "acceptance criterion 7",
    "terms.plts_score": "acceptance criterion 7",
    "solver.stationarity_residual": "perfbench import",
    "terms.score": "the scalar definition `TermMatrix.scores` is tested against",
    "terms.TermMatrix.__setattr__": "the read-only guard of term matrices",
    "terms.TermMatrix.__delattr__": "the read-only guard of term matrices",
    "terms.TermMatrix.__eq__": "term matrices compare by fields",
    "terms.TermMatrix.__hash__": "term matrices compare by fields",
    "terms.TermMatrix.__reduce__": "copied and pickled term matrices stay read-only",
    "terms.TermMatrix.__repr__": "term matrices compare by fields, and print in failed comparisons",
    "records.record": "the record classes' definitions, at import, before any run",
    "records.factory.__init__": "the record classes' definitions, at import, before any run",
    "records._eq": "scales compare by fields (acceptance criteria 5 and 7)",
    "records._hash": "scales hash by fields (acceptance criterion 7)",
    "records._values": "scales compare by fields (acceptance criteria 5 and 7)",
    "records._repr": "records print in failed comparisons",
    "records._refuse_set": "the read-only guard of frozen records",
    "records._refuse_delete": "the read-only guard of frozen records",
}


def defined_functions():
    """{(file, first line): "module.qualname"} of every def under ``SRC``.

    The first line is a code object's ``co_firstlineno``: the first
    decorator's line, or the ``def`` line of an undecorated function.
    """
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[str(path), first] = f"{path.stem}.{name}"
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def scenario_files(tmp_path):
    """The scenario files the runs read, written under ``tmp_path`` where generated."""
    files = [SRC / "data" / "financial_crisis.json", *sorted(DATA.glob("*.json"))]
    for seed, scheme in ((3, "power"), (7, "reshape")):
        text = generate.scenario_text(seed, m=4, q=3, n=3, periods=2, scheme=scheme, pin_share=0.4)
        files.append(tmp_path / f"generated_{seed}.json")
        files[-1].write_text(text, encoding="utf-8")
    override = json.loads(generate.scenario_text(11, m=3, q=2, n=3, periods=1, scheme="power"))
    override["overrides"] = {"expert_weight_vectors": {"C1": [0.2, 0.2, 0.2]}}
    files.append(tmp_path / "override.json")
    files[-1].write_text(json.dumps(override), encoding="utf-8")
    files.append(tmp_path / "unlinked.json")
    files[-1].write_text(json.dumps(unlinked_first_alternative(7)), encoding="utf-8")
    files.append(tmp_path / "malformed.json")
    files[-1].write_text('{"format": 1,', encoding="utf-8")
    return files


def reached_code(tmp_path):
    """(file, first line) of every function ``cli.main`` calls across the runs."""
    options = [
        [],
        ["--report", "json"],
        ["--paper-literal"],
        ["--stage", "markov"],
        ["--report", "text", "--scheme", "reshape"],
        ["--export-dot", str(tmp_path / "transitions.dot")],
    ]
    seen = set()

    def profiler(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    runs = [[str(path), *flags] for path in scenario_files(tmp_path) for flags in options]
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in runs:
                cli.main(argv)
    finally:
        sys.setprofile(previous)
    return seen


def test_every_function_is_reached_or_kept(tmp_path):
    functions = defined_functions()
    reached = {functions[code] for code in reached_code(tmp_path) if code in functions}
    names = set(functions.values())
    assert sorted(set(KEPT) - names) == [], "kept functions that no longer exist"
    assert sorted(set(KEPT) & reached) == [], "kept functions that decide now reaches"
    assert sorted(names - reached - set(KEPT)) == [], "functions neither reached nor kept"
