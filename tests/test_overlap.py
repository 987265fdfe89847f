"""A ``decide`` process decodes a large scenario in a child process, with the output of ``main``.

``cli.entry`` reads the scenario once and forks a child decode
(``lingdecide.overlap``) for a text of ``cli.OVERLAP_CHARS`` characters or
more, from a file, a FIFO or a pipe, when its affinity mask holds two CPUs
or more. Each case runs ``entry`` in a new interpreter and compares its
exit code, stdout and stderr (and DOT file) with in-process ``main``, which
never forks. An atexit hook records whether the fork module was loaded,
whether the child sent a tree, that the process has no child left to reap,
and how often the process opened the scenario path (an audit hook). The
child decode changes no scheduler state, so a user-set BLAS thread count
holds on a large scenario as on the bundled one.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from lingdecide import overlap
from lingdecide.cli import OVERLAP_CHARS
from lingdecide.scenario import bundled_scenario_text

from test_cli import in_process, src_env
from test_generated_scenarios import generate

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the child decode needs an affinity mask of two CPUs or more",
)

#: what a new interpreter runs before ``entry``: an audit hook counts the
#: opens of the scenario path; when the fork module is loaded beforehand
#: (``watch``), ``Decode.tree`` records whether the child sent a tree; an
#: atexit hook prints whether the fork module was loaded, what the child
#: sent, whether a child is left unreaped and how often the path was opened
PROBE = (
    "import atexit, json, os, sys; sent = []; opens = []\n"
    "sys.addaudithook(lambda event, args: event == 'open' and args[0] == {path!r} "
    "and opens.append(1))\n"
    "{setup}\n"
    "if {watch}:\n"
    "    from lingdecide import overlap\n"
    "    tree = overlap.Decode.tree\n"
    "    overlap.Decode.tree = lambda self: sent.append(tree(self)) or sent[-1]\n"
    "def unreaped():\n"
    "    try:\n"
    "        return os.waitpid(-1, os.WNOHANG) is not None\n"
    "    except ChildProcessError:\n"
    "        return False\n"
    "atexit.register(lambda: print(json.dumps(['lingdecide.overlap' in sys.modules, "
    "[tree is not None for tree in sent], unreaped(), len(opens)]), file=sys.stderr))\n"
    "sys.argv = {argv!r}\n"
    "from lingdecide.cli import entry; entry()\n"
)


def run_decide(argv, watch=True, setup="", **kwargs):
    """``entry()`` on ``argv`` in a new interpreter, after the statement
    ``setup``: the process, its stderr without the probe's line, and the
    probe's record; ``argv`` starts with the scenario path."""
    code = PROBE.format(path=argv[0], watch=watch, setup=setup, argv=["decide", *argv])
    kwargs.setdefault("stdout", subprocess.PIPE)
    proc = subprocess.run(
        [sys.executable, "-c", code], stderr=subprocess.PIPE, text=True, timeout=120,
        env=src_env(), **kwargs,
    )
    *err, probe = proc.stderr.splitlines(keepends=True)
    return proc, "".join(err), json.loads(probe)


def large_scenario(seed=5):
    """A generated scenario whose text is above ``OVERLAP_CHARS``."""
    return generate.scenario(seed, m=12, q=8, n=10, periods=2, scheme="power")


def edited(data, cell):
    """``data`` with preference cell (0, 1) of C3's expert e4 replaced by ``cell``."""
    data["preferences"]["C3"]["e4"][0][1] = cell
    return data


#: each case's scenario text, from the large generated scenario
CASES = {
    "clean": lambda: json.dumps(large_scenario()),
    "truncated": lambda: json.dumps(large_scenario())[: -1000],
    "off-scale": lambda: json.dumps(edited(large_scenario(), {"point": [9, 0], "p": 1})),
    "reciprocity": lambda: json.dumps(edited(large_scenario(), {"point": [3, 1], "p": 0.25})),
    "term-literal": lambda: json.dumps(edited(large_scenario(), {"point": "s0(o0)", "p": 1})),
}

#: the exit code of each case, and whether the child sends its tree
WANT = {
    "clean": (0, True),
    "truncated": (2, False),
    "off-scale": (1, True),
    "reciprocity": (1, True),
    "term-literal": (1, True),
}


@needs_two_cpus
@pytest.mark.parametrize("case", CASES)
def test_a_large_file_decoded_beside_the_import_runs_as_main(tmp_path, capsys, case):
    path = tmp_path / "large.json"
    text = CASES[case]()
    assert len(text) >= OVERLAP_CHARS
    path.write_text(text, encoding="utf-8")
    argv = [str(path), "--report", "json", "--export-dot", str(tmp_path / "main.dot")]
    want_code, want_sent = WANT[case]
    code, out, err = in_process(argv, capsys)
    assert code == want_code, err
    argv[-1] = str(tmp_path / "entry.dot")
    proc, got_err, probe = run_decide(argv)
    assert (proc.returncode, proc.stdout, got_err) == (code, out, err)
    assert probe == [True, [want_sent], False, 1]
    if code == 0:
        assert (tmp_path / "entry.dot").read_bytes() == (tmp_path / "main.dot").read_bytes()


@needs_two_cpus
@pytest.mark.parametrize("flags", [["--help"], ["--stage", "bogus"]], ids=["help", "usage"])
def test_argparse_ends_a_large_run_before_the_fork(tmp_path, capsys, flags):
    path = tmp_path / "large.json"
    path.write_text(CASES["clean"](), encoding="utf-8")
    argv = [str(path), *flags]
    code, out, err = in_process(argv, capsys)
    proc, got_err, probe = run_decide(argv, watch=False)
    assert (proc.returncode, proc.stdout, got_err) == (code, out, err)
    assert probe == [False, [], False, 0]


@needs_two_cpus
def test_a_large_run_exits_with_141_on_a_closed_output_pipe(tmp_path):
    path = tmp_path / "large.json"
    path.write_text(CASES["clean"](), encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc, err, probe = run_decide([str(path), "--report", "json"], stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, err, probe) == (141, "", [True, [True], False, 1])


def ignore_children():
    """Start the process with SIGCHLD ignored, so that its children reap themselves."""
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)


@needs_two_cpus
def test_a_child_that_reaps_itself_still_sends_its_tree(tmp_path, capsys):
    path = tmp_path / "large.json"
    path.write_text(CASES["off-scale"](), encoding="utf-8")
    argv = [str(path), "--report", "json"]
    code, out, err = in_process(argv, capsys)
    proc, got_err, probe = run_decide(argv, preexec_fn=ignore_children)
    assert (proc.returncode, proc.stdout, got_err) == (code, out, err)
    assert probe == [True, [True], False, 1]


@needs_two_cpus
def test_a_fork_that_fails_decodes_serially(tmp_path, capsys):
    path = tmp_path / "large.json"
    path.write_text(CASES["off-scale"](), encoding="utf-8")
    argv = [str(path), "--report", "json"]
    code, out, err = in_process(argv, capsys)
    no_fork = "def fork(): raise BlockingIOError(11, 'Resource temporarily unavailable')\nos.fork = fork"
    proc, got_err, probe = run_decide(argv, setup=no_fork)
    assert (proc.returncode, proc.stdout, got_err) == (code, out, err)
    assert probe == [True, [], False, 1]


def test_a_fork_that_fails_closes_both_ends_of_the_pipe(monkeypatch):
    made = []
    os_pipe = os.pipe

    def pipe():
        made.extend(os_pipe())
        return tuple(made)

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError):
        overlap.Decode("{}")
    assert len(made) == 2
    for fd in made:
        with pytest.raises(OSError):
            os.fstat(fd)


@needs_two_cpus
def test_no_sched_getaffinity_decodes_a_large_file_serially(tmp_path, capsys):
    path = tmp_path / "large.json"
    path.write_text(CASES["off-scale"](), encoding="utf-8")
    argv = [str(path), "--report", "json"]
    code, out, err = in_process(argv, capsys)
    proc, got_err, probe = run_decide(argv, watch=False, setup="del os.sched_getaffinity")
    assert (proc.returncode, proc.stdout, got_err) == (code, out, err)
    assert probe == [False, [], False, 1]


@needs_two_cpus
def test_a_large_file_that_is_not_utf8_fails_to_parse_serially(tmp_path, capsys):
    path = tmp_path / "large.json"
    data = bytearray(CASES["clean"]().encode("utf-8"))
    bad = OVERLAP_CHARS + 1000
    data[bad] = 0xFF
    path.write_bytes(bytes(data))
    argv = [str(path), "--report", "json"]
    code, out, err = in_process(argv, capsys)
    assert code == 2 and f"is not UTF-8 text: byte {bad}" in err, err
    proc, got_err, probe = run_decide(argv, watch=False)
    assert (proc.returncode, proc.stdout, got_err) == (code, out, err)
    assert probe == [False, [], False, 1]


def feed(fifo, text):
    """A started daemon thread that writes ``text`` into the FIFO ``fifo`` once
    a reader opens it; a reader that never comes leaves it blocked, not the test."""

    def write():
        with contextlib.suppress(BrokenPipeError), open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    return thread


@needs_two_cpus
def test_a_large_scenario_read_through_a_fifo_or_a_pipe_is_decoded_by_the_child(tmp_path, capsys):
    text = CASES["off-scale"]()
    assert len(text) >= OVERLAP_CHARS
    path = tmp_path / "large.fifo"
    os.mkfifo(path)
    argv = [str(path), "--report", "json"]
    writer = feed(path, text)
    code, out, err = in_process(argv, capsys)
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert code == 1
    writer = feed(path, text)
    proc, got_err, probe = run_decide(argv)
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert (proc.returncode, proc.stdout, got_err) == (code, out, err)
    assert probe == [True, [True], False, 1]
    proc, got_err, probe = run_decide(["/dev/stdin", *argv[1:]], input=text)
    assert (proc.returncode, proc.stdout, got_err) == (code, out, err)
    assert probe == [True, [True], False, 1]


def one_cpu():
    """Pin the process about to start to one CPU of its mask."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="sets an affinity mask")
def test_one_cpu_decodes_a_large_file_serially(tmp_path, capsys):
    path = tmp_path / "large.json"
    path.write_text(CASES["off-scale"](), encoding="utf-8")
    argv = [str(path), "--report", "text"]
    code, out, err = in_process(argv, capsys)
    proc, got_err, probe = run_decide(argv, watch=False, preexec_fn=one_cpu)
    assert (proc.returncode, proc.stdout, got_err) == (code, out, err)
    assert probe == [False, [], False, 1]


def test_the_bundled_file_decodes_serially(tmp_path, capsys):
    path = tmp_path / "crisis.json"
    path.write_text(bundled_scenario_text(), encoding="utf-8")
    assert len(bundled_scenario_text()) < OVERLAP_CHARS
    argv = [str(path), "--report", "json"]
    code, out, err = in_process(argv, capsys)
    proc, got_err, probe = run_decide(argv, watch=False)
    assert (proc.returncode, proc.stdout, got_err) == (code, out, err)
    assert probe == [False, [], False, 1]


#: what a new interpreter runs: ``entry``, then an atexit hook prints the
#: process's thread count and whether the fork module was loaded
THREADS = (
    "import atexit, json, os, sys\n"
    "atexit.register(lambda: print(json.dumps([len(os.listdir('/proc/self/task')), "
    "'lingdecide.overlap' in sys.modules]), file=sys.stderr))\n"
    "from lingdecide.cli import entry; entry()\n"
)


def threads_at_exit(path):
    """The thread count and fork-module record of ``decide path`` run with two BLAS threads."""
    proc = subprocess.run(
        [sys.executable, "-c", THREADS, str(path), "--report", "json"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        env={**src_env(), "OPENBLAS_NUM_THREADS": "2"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts /proc/self/task")
def test_a_user_set_blas_thread_count_holds_when_the_child_decodes(tmp_path):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy is built on {blas}, not OpenBLAS")
    large = tmp_path / "large.json"
    large.write_text(CASES["clean"](), encoding="utf-8")
    bundled = tmp_path / "crisis.json"
    bundled.write_text(bundled_scenario_text(), encoding="utf-8")
    threads, forked = threads_at_exit(large)
    assert forked
    assert threads == threads_at_exit(bundled)[0]


def test_cli_import_loads_no_numpy():
    """The fork comes before numpy loads, so importing the command line
    and the child's reading code loads none."""
    code = (
        "import json, sys, lingdecide.cli, lingdecide.overlap; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
