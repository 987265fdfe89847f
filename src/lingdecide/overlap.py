"""A large scenario file decoded in a child process while ``decide`` imports the engine.

Only ``cli.entry`` loads this module, and only for a scenario large
enough to pay for a process (``cli.OVERLAP_BYTES``) on a host that lets
it pin two. ``start`` reads the file and forks before numpy loads. The
child pins itself to the last CPU of the process's affinity mask, runs
``reader._read`` on the text and sends the tree back through a pipe with
``marshal``, each walked matrix as its packed fields and its offset in
the text. Meanwhile the parent, pinned to the other CPUs so that the two
never share one, imports the engine; ``Decode.tree`` then reads the pipe
to its end, reaps the child, gives the parent its whole mask back and
places each matrix in the parent's own text, where wording a flagged cell
scans it again. Where the child sends no tree (the text does not parse,
a matrix needs the cell reader, the child fails), the caller decodes the
file serially, as without this module.
"""

from __future__ import annotations

import marshal
import os

from .reader import _MATRIX_WAYS, _read, _Walked


def _at_matrices(obj, way, change):
    """``obj`` with ``change`` applied to each value at a term matrix place (``_MATRIX_WAYS``)."""
    if way is True:
        return change(obj)
    if not way or type(obj) is not dict:
        return obj
    return {key: _at_matrices(value, way.get(key, way.get(None)), change) for key, value in obj.items()}


def _sent(matrix):
    """A walked matrix as the child sends it: a (fields, offset) tuple, which no JSON value is."""
    if type(matrix) is not _Walked:  # read by ``json.loads``, where ``_read`` fell back to it
        return matrix
    if matrix.fields is None:
        raise ValueError("a matrix for the cell reader")
    return matrix.fields, matrix.at


def _child(text: str, cpu: int, pipe: int, write_end: int):
    """Decode ``text`` on ``cpu`` and send the tree through ``write_end``; exits, 0 when sent."""
    code = 1
    try:
        os.close(pipe)
        os.sched_setaffinity(0, {cpu})
        sent = marshal.dumps(_at_matrices(_read(text), _MATRIX_WAYS, _sent))
        with open(write_end, "wb") as out:
            out.write(sent)
        code = 0
    finally:
        os._exit(code)


class Decode:
    """A child process decoding the scenario ``text``, with the parent pinned beside it."""

    def __init__(self, text: str, cpus: set[int]):
        child_cpu = max(cpus)
        self.text, self.cpus = text, cpus
        self.pipe, write_end = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            _child(text, child_cpu, self.pipe, write_end)
        os.close(write_end)
        os.sched_setaffinity(0, cpus - {child_cpu})

    def tree(self):
        """The tree the child decoded, each walked matrix placed in this process's
        text; None when the child sent none."""
        with open(self.pipe, "rb") as pipe:
            sent = pipe.read()
        try:
            failed = os.waitpid(self.pid, 0)[1]
        except ChildProcessError:  # reaped already, as SIGCHLD is ignored: marshal tells a short read
            failed = 0
        os.sched_setaffinity(0, self.cpus)
        try:
            tree = None if failed else marshal.loads(sent)
        except (EOFError, ValueError, TypeError):  # a short read
            tree = None
        del sent
        if tree is None:
            return None
        text = self.text
        return _at_matrices(tree, _MATRIX_WAYS, lambda m: _Walked(m[0], text, m[1]) if type(m) is tuple else m)


def start(path: str, cpus: set[int]) -> Decode | None:
    """A ``Decode`` of the file at ``path`` beside this process on ``cpus``; None
    when it cannot be read as UTF-8 text, so the serial decode words why, or
    when no pipe or process can be made."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return Decode(text, cpus)
    except (OSError, UnicodeDecodeError):
        return None
