"""A large scenario decoded in a child process while ``decide`` imports the engine.

Only ``cli.entry`` loads this module, and only for a scenario text large
enough to pay for a process (``cli.OVERLAP_CHARS``) on a host that lets
it pin two. ``Decode`` forks on the text ``cli._run`` read before numpy
loads. The child pins itself to the last CPU of the process's affinity
mask, runs ``reader._read`` on the text and sends the tree back through a
pipe with ``marshal`` as it is: each walked matrix is already a (packed
fields, offset in the text) tuple, and a matrix the bulk pass declines is
its JSON. Meanwhile the parent, pinned to the other CPUs so that the two
never share one, imports the engine; ``Decode.tree`` then reads the pipe
to its end, reaps the child, gives the parent its whole mask back and
loads the tree, which the parent validates against the text it holds.
Where the child sends no tree (the text does not parse, the child fails),
the parent decodes the text serially, as without this module.
"""

from __future__ import annotations

import marshal
import os

from .reader import _read


def _child(text: str, cpu: int, pipe: int, write_end: int):
    """Decode ``text`` on ``cpu`` and send the tree through ``write_end``; exits, 0 when sent."""
    code = 1
    try:
        os.close(pipe)
        os.sched_setaffinity(0, {cpu})
        sent = marshal.dumps(_read(text))
        with open(write_end, "wb") as out:
            out.write(sent)
        code = 0
    finally:
        os._exit(code)


class Decode:
    """A child process decoding the scenario ``text``, with the parent pinned beside it;
    raises ``OSError``, leaving no descriptor open, when no pipe or process can be made."""

    def __init__(self, text: str, cpus: set[int]):
        child_cpu = max(cpus)
        self.cpus = cpus
        self.pipe, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.pipe)
            os.close(write_end)
            raise
        if self.pid == 0:
            _child(text, child_cpu, self.pipe, write_end)
        os.close(write_end)
        os.sched_setaffinity(0, cpus - {child_cpu})

    def tree(self):
        """The tree the child read from the text (``reader._read``); None when it sent none."""
        with open(self.pipe, "rb") as pipe:
            sent = pipe.read()
        try:
            failed = os.waitpid(self.pid, 0)[1]
        except ChildProcessError:  # reaped already, as SIGCHLD is ignored: marshal tells a short read
            failed = 0
        os.sched_setaffinity(0, self.cpus)
        try:
            return None if failed else marshal.loads(sent)
        except (EOFError, ValueError, TypeError):  # a short read
            return None
