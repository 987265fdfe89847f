import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lingdecide.cli import main
from lingdecide.scenario import MAX_MARKOV_STEPS, MAX_SCALE_HALF_WIDTH, bundled_scenario_text
from helpers import uniform_scenario_dict

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


class TestFailureExitCodes:
    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 2
        _, err = capsys.readouterr()
        assert "parse error" in err

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


def test_entry_point_raises_system_exit(crisis_path, capsys, monkeypatch):
    from lingdecide.cli import entry

    monkeypatch.setattr(sys, "argv", ["decide", crisis_path])
    with pytest.raises(SystemExit) as excinfo:
        entry()
    capsys.readouterr()
    assert excinfo.value.code == 0


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def test_installed_script_smoke(crisis_path):
    """The command line in a process of its own, as the ``decide`` script runs it."""
    proc = subprocess.run(
        [sys.executable, "-m", "lingdecide.cli", crisis_path, "--report", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ranking"] == ["A1", "A3", "A4", "A2"]


def test_cli_import_loads_no_scipy():
    """The package runs on numpy alone; importing the command line pulls in no scipy."""
    code = (
        "import lingdecide.cli, sys; "
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
    code = "import json, sys, lingdecide.cli; print(json.dumps('dataclasses' in sys.modules))"
    assert fresh_python(code) is False


def test_cli_import_defers_importlib_resources():
    """Only reading a bundled scenario loads ``importlib.resources``.

    Run without ``site`` (``-S``), which in some environments loads it
    first, with numpy's directory on the path.
    """
    code = (
        "import json, sys, lingdecide.cli; loaded = 'importlib.resources' in sys.modules; "
        "from lingdecide.scenario import bundled_scenario_text; "
        "print(json.dumps([loaded, json.loads(bundled_scenario_text())['format']]))"
    )
    numpy_dir = str(Path(np.__file__).parents[1])
    path = src_env()["PYTHONPATH"] + os.pathsep + numpy_dir
    assert fresh_python(code, "-S", PYTHONPATH=path) == [False, 1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_cli_import_starts_no_blas_thread():
    threads, blas = fresh_python(
        "import json, os, lingdecide.cli; threads = len(os.listdir('/proc/self/task')); "
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
