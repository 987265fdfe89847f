import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lingdecide import cli
from lingdecide.cli import main
from lingdecide.reader import _read
from lingdecide.scenario import MAX_MARKOV_STEPS, MAX_SCALE_HALF_WIDTH, _decode, bundled_scenario_text
from helpers import uniform_scenario_dict
from test_generated_scenarios import generate

DATA = Path(__file__).parent / "data"
GOLDEN_REPORT = DATA / "financial_crisis.report.json"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def crisis_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "crisis.json"
    path.write_text(bundled_scenario_text(), encoding="utf-8")
    return str(path)


def assert_reports_agree(got, want, where="report"):
    """Equal structure, keys and strings; floats within 1e-12."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12, (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_reports_agree(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_reports_agree(g, w, f"{where}[{i}]")
    else:
        assert got == want and type(got) is type(want), (where, got, want)


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestHappyPath:
    def test_text_report(self, crisis_path, capsys):
        assert main([crisis_path]) == 0
        out, err = capsys.readouterr()
        assert "ranking: A1 > A3 > A4 > A2" in out
        assert err == ""

    def test_json_report(self, crisis_path, capsys):
        assert main([crisis_path, "--report", "json"]) == 0
        out, _ = capsys.readouterr()
        data = json.loads(out)
        assert data["ranking"] == ["A1", "A3", "A4", "A2"]
        assert data["stage"] == "all"

    def test_bundled_json_report_is_byte_identical_to_golden(self, crisis_path, capsys):
        assert main([crisis_path, "--report", "json"]) == 0
        out, _ = capsys.readouterr()
        assert out.encode("utf-8") == GOLDEN_REPORT.read_bytes()

    def test_solver_path_report_matches_fixture(self, capsys):
        # a generated scenario without overrides, so every transition row and
        # priority vector is solved, including rows with an active bound
        path = str(DATA / "solver_paths.json")
        assert main([path, "--report", "json"]) == 0
        out, _ = capsys.readouterr()
        got = json.loads(out)
        want = json.loads((DATA / "solver_paths.report.json").read_text(encoding="utf-8"))
        assert got["ranking"] == want["ranking"]
        assert got["diagnostics"] == want["diagnostics"]
        assert_reports_agree(got, want)

    def test_stage_markov(self, crisis_path, capsys):
        assert main([crisis_path, "--stage", "markov"]) == 0
        out, _ = capsys.readouterr()
        assert "transition matrix:" in out
        assert "ranking:" not in out

    def test_export_dot(self, crisis_path, capsys, tmp_path):
        dot_path = tmp_path / "net.dot"
        assert main([crisis_path, "--export-dot", str(dot_path)]) == 0
        capsys.readouterr()
        text = dot_path.read_text(encoding="utf-8")
        assert text.startswith("digraph transitions {")
        assert '"IRR"' in text

    def test_paper_literal_flag(self, crisis_path, capsys):
        assert main([crisis_path, "--paper-literal", "--report", "json"]) == 0
        out, _ = capsys.readouterr()
        assert json.loads(out)["paper_literal"] is True

    def test_one_expert_runs_when_priorities_are_overridden(self, tmp_path, capsys):
        data = uniform_scenario_dict(n=1)
        del data["preferences"]
        data["overrides"] = {
            "priority_vectors": {a: [1 / 3, 1 / 3, 1 / 3] for a in data["attributes"]}
        }
        assert main([write_scenario(tmp_path, data), "--report", "json"]) == 0
        out, _ = capsys.readouterr()
        assert json.loads(out)["experts"] == ["e1"]

    def test_reshape_scheme(self, tmp_path, capsys):
        data = uniform_scenario_dict()
        data["markov"]["origin_updates"] = [0.3, 0.6]
        path = write_scenario(tmp_path, data)
        assert main([path, "--scheme", "reshape", "--report", "json"]) == 0
        out, _ = capsys.readouterr()
        assert json.loads(out)["scheme"] == "reshape"


class SentChild:
    """A child decode (``overlap.Decode``) that sends ``tree``."""

    def __init__(self, tree):
        self.sent = tree

    def tree(self):
        return self.sent


@pytest.mark.parametrize("sent", [False, True], ids=["no-tree", "tree"])
def test_the_text_is_decoded_alike_with_or_without_a_child_s_tree(sent):
    text = json.dumps(uniform_scenario_dict())
    child = SentChild(_read(text) if sent else None)
    assert cli.load_scenario(text, child) == cli.load_scenario(text) == _decode(text)


class TestFailureExitCodes:
    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 2
        _, err = capsys.readouterr()
        assert "parse error" in err

    def test_path_with_a_nul_character_is_parse_error(self, capsys):
        assert main(["a\0b"]) == 2
        _, err = capsys.readouterr()
        assert "parse error: cannot read" in err

    def test_broken_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main([str(path)]) == 2
        _, err = capsys.readouterr()
        assert "line 1" in err

    def test_integer_beyond_the_digit_limit_is_parse_error(self, tmp_path, capsys):
        text = (DATA / "solver_paths.json").read_text(encoding="utf-8")
        assert text.count('"periods":3') == 1
        path = tmp_path / "huge.json"
        path.write_text(text.replace('"periods":3', '"periods":' + "9" * 5000), encoding="utf-8")
        assert main([str(path)]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("parse error: ") and "digits" in err

    def test_deeply_nested_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert main([str(path)]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("parse error: ") and "recursion" in err

    def test_text_that_is_not_utf8_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main([str(path)]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("parse error: ") and "not UTF-8 text: byte 0" in err

    def test_contract_violation_is_validation_error(self, tmp_path, capsys):
        data = uniform_scenario_dict()
        data["format"] = 99
        assert main([write_scenario(tmp_path, data)]) == 1
        _, err = capsys.readouterr()
        assert "validation error" in err and "format" in err

    def test_one_expert_with_relations_is_located_validation_error(self, tmp_path, capsys):
        assert main([write_scenario(tmp_path, uniform_scenario_dict(n=1))]) == 1
        _, err = capsys.readouterr()
        assert "  experts: preference relations for ['Q1', 'Q2'] need at least two" in err
        assert "step 3" not in err

    def test_coordinate_off_the_unit_interval_is_located_validation_error(self, tmp_path, capsys):
        # each subscript is within tau = zeta = 4, but the pair is not
        data = json.loads(json.dumps(uniform_scenario_dict()))
        data["markov"]["assessments"]["e1"][0][1] = {"point": [4, 1], "p": 1.0}
        data["preferences"]["Q1"]["e2"][1][0] = {"interval": [[-4, -1], [0, 0]], "p": 1.0}
        assert main([write_scenario(tmp_path, data)]) == 1
        _, err = capsys.readouterr()
        assert (
            "  markov.assessments.e1[0][1].point: "
            "coordinate (t=4.0, k=1.0) has unit value 1.03125 outside [0, 1]\n"
        ) in err
        assert (
            "  preferences.Q1.e2[1][0].interval[0]: "
            "coordinate (t=-4.0, k=-1.0) has unit value -0.03125 outside [0, 1]\n"
        ) in err

    @pytest.mark.parametrize(
        "key, value", [("periods", 10**400), ("iterations", 1001)], ids=["periods", "iterations"]
    )
    def test_markov_steps_above_the_cap_are_a_located_validation_error(
        self, tmp_path, capsys, key, value
    ):
        data = uniform_scenario_dict()
        data["markov"][key] = value
        assert main([write_scenario(tmp_path, data)]) == 1
        _, err = capsys.readouterr()
        assert f"  markov.{key}: must be at most {MAX_MARKOV_STEPS}\n" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("first_labels", 5),
            ("first_labels", True),
            ("first_labels", "sssssssss"),
            ("first_labels", list(range(9))),
            ("first_labels", {"a": 1}),
            ("second_labels", "ooooooooo"),
        ],
        ids=["int", "bool", "string", "integers", "object", "second-string"],
    )
    def test_labels_that_are_no_list_of_strings_are_a_located_validation_error(
        self, tmp_path, capsys, key, value
    ):
        data = json.loads(bundled_scenario_text())
        data["scale"][key] = value
        assert main([write_scenario(tmp_path, data)]) == 1
        _, err = capsys.readouterr()
        assert err == f"validation error:\n  scale.{key}: expected a list of strings\n"

    @pytest.mark.parametrize("key", ["tau", "zeta"])
    def test_scale_above_the_cap_is_a_located_validation_error(self, tmp_path, capsys, key):
        # without labels a scale of 10**30 would spell out 2 * 10**30 + 1 defaults
        data = json.loads((DATA / "solver_paths.json").read_text(encoding="utf-8"))
        assert data["scale"]["first_labels"] is None
        data["scale"][key] = 10**30
        assert main([write_scenario(tmp_path, data)]) == 1
        _, err = capsys.readouterr()
        assert err == f"validation error:\n  scale.{key}: must be at most {MAX_SCALE_HALF_WIDTH}\n"

    def test_reshape_without_updates_is_validation_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, uniform_scenario_dict())
        assert main([path, "--scheme", "reshape"]) == 1
        _, err = capsys.readouterr()
        assert "step 2" in err

    @pytest.mark.parametrize("stage", ["markov", "all"])
    def test_zero_trust_is_a_located_validation_error(self, tmp_path, capsys, stage):
        # no stage can weigh relations without trust, so loading rejects it
        data = uniform_scenario_dict()
        for expert in data["experts"]:
            expert["trust"] = 0.0
        assert main([write_scenario(tmp_path, data), "--stage", stage]) == 1
        _, err = capsys.readouterr()
        assert err == (
            "validation error:\n"
            "  experts: preference relations for ['Q1', 'Q2'] cannot be weighed: every trust "
            "degree is 0; give an expert positive trust or cover those attributes with "
            "overrides.priority_vectors instead\n"
        )

    def test_zero_trust_without_relations_to_weigh_runs(self, tmp_path, capsys):
        data = uniform_scenario_dict(m=3, q=2)
        for expert in data["experts"]:
            expert["trust"] = 0.0
        del data["preferences"]
        data["overrides"] = {"priority_vectors": {"Q1": [0.5, 0.3, 0.2], "Q2": [0.2, 0.3, 0.5]}}
        assert main([write_scenario(tmp_path, data)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "ranking:" in out

    def test_unwritable_dot_path_is_validation_error(self, crisis_path, tmp_path, capsys):
        target = tmp_path / "missing" / "net.dot"
        assert main([crisis_path, "--export-dot", str(target)]) == 1
        _, err = capsys.readouterr()
        assert "error" in err

    def test_bad_stage_rejected_by_parser(self, crisis_path, capsys):
        with pytest.raises(SystemExit):
            main([crisis_path, "--stage", "bogus"])
        capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(crisis_path, capsys, enabled):
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert main([crisis_path]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if before else gc.disable)()
    capsys.readouterr()


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_entry(argv, **kwargs):
    """``entry()`` with ``argv`` in a new interpreter, as the ``decide`` process runs it."""
    code = (
        f"import sys; sys.argv = {['decide', *argv]!r}; "
        "from lingdecide.cli import entry; entry()"
    )
    return subprocess.run(
        [sys.executable, "-c", code], timeout=120, env=src_env(), text=True, **kwargs
    )


@pytest.mark.parametrize("case, want_code", [("report", 0), ("invalid", 1), ("missing", 2)])
def test_entry_exits_with_the_code_and_output_of_main(
    crisis_path, tmp_path, capsys, case, want_code
):
    argv = {
        "report": [crisis_path, "--report", "json"],
        "invalid": [str(DATA / "invalid_cells.json")],
        "missing": [str(tmp_path / "missing.json")],
    }[case]
    assert main(argv) == want_code
    want = capsys.readouterr()
    proc = run_entry(argv, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (want_code, want.out, want.err)


def test_entry_exits_with_141_on_a_closed_output_pipe(crisis_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_entry(
            [crisis_path, "--report", "json"], stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_installed_script_smoke(crisis_path):
    """The command line in a process of its own, run as ``python -m lingdecide.cli``."""
    proc = subprocess.run(
        [sys.executable, "-m", "lingdecide.cli", crisis_path, "--report", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ranking"] == ["A1", "A3", "A4", "A2"]


#: what a new interpreter runs before the command line: it records whether the
#: collector ran once numpy was loaded, and an atexit hook prints whether the
#: collector is on and whether it did. The object kept on the json module writes
#: "module teardown" when it is freed, which only the interpreter's teardown of
#: that module does. (A ``weakref.finalize`` cannot tell: weakref's own atexit
#: hook switches every finalizer off.)
WATCH_THE_EXIT = (
    "import atexit, gc, json, os, runpy, sys; after_numpy = []; "
    "gc.callbacks.append(lambda phase, info: after_numpy.append('numpy' in sys.modules)); "
    "atexit.register(lambda: print(json.dumps([gc.isenabled(), any(after_numpy)]), "
    "file=sys.stderr)); "
    "json.watched = type('Watched', (), "
    "{'__del__': lambda self, write=os.write: write(2, b'module teardown\\n')})(); "
)


#: what each exit probe passes after the scenario path: a report, ``--help`` and
#: a usage error; the last two leave ``main`` through argparse's ``SystemExit``
EXIT_CASES = {"report": ["--report", "json"], "help": ["--help"], "usage": ["--stage", "bogus"]}


def in_process(argv, capsys):
    """The exit code, stdout and stderr of ``main(argv)`` in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


#: how each route starts the command line after setting ``sys.argv``: run as
#: ``__main__``, and the ``decide`` script as pip generates it
#: (``from M import f; sys.exit(f())`` for the ``[project.scripts]`` target)
ROUTES = ("module", "script")


def route_start(route):
    """The statement that starts the command line on ``route``."""
    if route == "module":
        return "runpy.run_module('lingdecide.cli', run_name='__main__', alter_sys=True)"
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        module, function = tomllib.load(fh)["project"]["scripts"]["decide"].split(":")
    return f"from {module} import {function}; sys.exit({function}())"


@pytest.mark.parametrize("case", EXIT_CASES)
@pytest.mark.parametrize("route", ROUTES)
def test_decide_collects_nothing_once_numpy_loads_and_exits_without_teardown(
    crisis_path, capsys, route, case
):
    """Either way it starts, the command line turns the collector off before
    numpy loads, runs the atexit hooks and ends the process before module
    teardown, also when argparse ends it; the output is unchanged."""
    start = route_start(route)
    argv = [crisis_path, *EXIT_CASES[case]]
    code, out, err = in_process(argv, capsys)
    assert code == {"report": 0, "help": 0, "usage": 2}[case]
    probe = WATCH_THE_EXIT + f"sys.argv = {['decide', *argv]!r}; " + start
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, timeout=120, env=src_env()
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.decode() == err + "[false, false]\n"
    assert proc.stdout.decode() == out
    if case == "report":
        assert proc.stdout == GOLDEN_REPORT.read_bytes()


def run_as_decide(path):
    """``python -m lingdecide.cli PATH`` in a new interpreter: the exit code, the
    stderr, and whether the run loaded ``lingdecide.paper`` and ``lingdecide.cells``."""
    code = (
        "import atexit, json, runpy, sys; "
        "atexit.register(lambda: print(json.dumps(['lingdecide.paper' in sys.modules, "
        "'lingdecide.cells' in sys.modules]), file=sys.stderr)); "
        f"sys.argv = ['decide', {str(path)!r}]; "
        "runpy.run_module('lingdecide.cli', run_name='__main__', alter_sys=True)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=src_env()
    )
    *err, loaded = proc.stderr.splitlines(keepends=True)
    return proc.returncode, "".join(err), json.loads(loaded)


def test_a_run_on_numeric_cells_loads_neither_the_paper_nor_the_cell_reader(crisis_path, tmp_path):
    generated = tmp_path / "generated.json"
    generated.write_text(
        generate.scenario_text(3, m=4, q=3, n=3, periods=2, scheme="power"), encoding="utf-8"
    )
    for path in (crisis_path, generated):
        assert run_as_decide(path) == (0, "", [False, False])


def test_a_run_that_needs_the_cell_reader_loads_it_and_reports_as_in_process(capsys):
    path = DATA / "invalid_cells.json"
    code = main([str(path)])
    _, err = capsys.readouterr()
    assert code == 1
    assert run_as_decide(path) == (code, err, [False, True])


#: a bound on the lines of the package modules a bundled run loads, so that
#: what a start compiles grows only where a change pays for it
LOADED_LINES_BOUND = 2717


def test_a_bundled_run_loads_fewer_lines_than_the_bound(crisis_path):
    """Each loaded line costs its compile at every start when no bytecode is
    cached, as under ``PYTHONDONTWRITEBYTECODE``."""
    code = (
        "import atexit, json, runpy, sys; "
        "atexit.register(lambda: print(json.dumps(sorted({m.__file__ for m in "
        "list(sys.modules.values()) if getattr(m, '__spec__', None) is not None "
        "and m.__spec__.name.split('.')[0] == 'lingdecide'})), file=sys.stderr)); "
        f"sys.argv = ['decide', {crisis_path!r}]; "
        "runpy.run_module('lingdecide.cli', run_name='__main__', alter_sys=True)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
    # the command line runs as __main__, so it is named by hand
    files = {Path(f).resolve() for f in json.loads(proc.stderr)} | {SRC / "lingdecide" / "cli.py"}
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    assert lines < LOADED_LINES_BOUND, sorted(f.name for f in files)


def test_closed_output_pipe_exits_quietly_with_141(crisis_path):
    """The reader of the report is gone before ``decide`` writes it."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lingdecide.cli", crisis_path, "--report", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=src_env(),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


#: the modules a ``decide`` run imports: the command line loads the engine in ``main``
DECIDE_IMPORTS = "lingdecide.cli, lingdecide.pipeline, lingdecide.scenario"


def test_cli_import_loads_no_scipy():
    """The package runs on numpy alone; importing the command line and the
    engine it runs pulls in no scipy."""
    code = (
        f"import {DECIDE_IMPORTS}, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def fresh_python(code, *flags, **env):
    """What ``code`` prints, read as JSON, run in a new interpreter with ``flags``.

    OPENBLAS_NUM_THREADS is unset there unless ``env`` sets it.
    """
    base = src_env()
    base.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**base, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_import_loads_nothing_and_leaves_the_environment():
    got = fresh_python(
        "import json, os, sys; before = dict(os.environ); import lingdecide; "
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] in "
        "('numpy', 'lingdecide')), dict(os.environ) == before]))"
    )
    assert got == [["lingdecide"], True]


def test_every_public_name_resolves_and_is_listed():
    got = fresh_python(
        "import json, lingdecide; "
        "unlisted = sorted(set(lingdecide.__all__) - set(dir(lingdecide))); "
        "print(json.dumps([unlisted, "
        "[n for n in lingdecide.__all__ if getattr(lingdecide, n, None) is None], "
        "hasattr(lingdecide, 'no_such_name')]))"
    )
    assert got == [[], [], False]


@pytest.mark.parametrize("given, want", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_cli_import_pins_blas_to_one_thread_unless_set(given, want):
    code = "import json, os, lingdecide.cli; print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))"
    assert fresh_python(code, **given) == want


def test_cli_import_loads_no_dataclasses():
    """The records are built without dataclasses' code generation."""
    code = f"import json, sys, {DECIDE_IMPORTS}; print(json.dumps('dataclasses' in sys.modules))"
    assert fresh_python(code) is False


def test_cli_import_defers_importlib_resources():
    """Only reading a bundled scenario loads ``importlib.resources``.

    Run without ``site`` (``-S``), which in some environments loads it
    first, with numpy's directory on the path.
    """
    code = (
        f"import json, sys, {DECIDE_IMPORTS}; loaded = 'importlib.resources' in sys.modules; "
        "from lingdecide.scenario import bundled_scenario_text; "
        "print(json.dumps([loaded, json.loads(bundled_scenario_text())['format']]))"
    )
    numpy_dir = str(Path(np.__file__).parents[1])
    path = src_env()["PYTHONPATH"] + os.pathsep + numpy_dir
    assert fresh_python(code, "-S", PYTHONPATH=path) == [False, 1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_cli_import_starts_no_blas_thread():
    threads, blas = fresh_python(
        f"import json, os, {DECIDE_IMPORTS}; threads = len(os.listdir('/proc/self/task')); "
        "import numpy as np; blas = np.show_config(mode='dicts')['Build Dependencies']['blas']; "
        "print(json.dumps([threads, blas['name']]))"
    )
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy is built on {blas}, not OpenBLAS")
    assert threads == 1


def test_integer_too_large_for_a_float_is_a_located_validation_error(tmp_path):
    huge = 10**400
    data = json.loads(json.dumps(uniform_scenario_dict()))
    data["markov"]["assessments"]["e1"][0][1] = {"point": [0, 0], "p": huge}
    data["preferences"]["Q1"]["e1"][0][1] = {"point": [huge, 0], "p": 1.0}
    data["preferences"]["Q2"]["e2"][1][0] = {"interval": [[0, 0], [0, huge]], "p": 1.0}
    data["overrides"] = {
        "transition_matrix": [[huge, 0.0], [0.5, 0.5]],
        "period_weights": [[0.5, 0.5], [huge, 0.5]],
        "priority_vectors": {"Q1": [huge, 0.0, 0.0]},
        "expert_weight_vectors": {"Q2": [0.5, huge]},
    }
    proc = subprocess.run(
        [sys.executable, "-m", "lingdecide.cli", write_scenario(tmp_path, data)],
        capture_output=True,
        text=True,
        timeout=120,
        env=src_env(),
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    for where in (
        "markov.assessments.e1[0][1]:",
        "preferences.Q1.e1[0][1].point:",
        "preferences.Q2.e2[1][0].interval[1]:",
        "overrides.transition_matrix:",
        "overrides.period_weights:",
        "overrides.priority_vectors.Q1:",
        "overrides.expert_weight_vectors.Q2:",
    ):
        assert f"  {where} " in proc.stderr
