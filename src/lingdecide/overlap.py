"""A large scenario decoded in a child process while ``decide`` imports the engine.

Only ``cli.entry`` loads this module, for a scenario text large enough to
pay for a process (``cli.OVERLAP_CHARS``) on a host with two CPUs or more
in its affinity mask. ``Decode`` forks on the text ``cli._run`` read before
numpy loads; the child runs ``reader._read`` on it and sends the tree back
through a pipe with ``marshal`` as it is (each walked matrix is a (packed
fields, offset in the text) tuple, a matrix the bulk pass declines its
JSON), while the parent imports the engine. ``Decode.tree`` reads the pipe
to its end, reaps the child and loads the tree, which the parent validates
against its text. Where the child sends no tree (the text does not parse,
the child fails), the parent decodes the text serially.
"""

from __future__ import annotations

import marshal
import os

from .reader import _read


def _child(text: str, pipe: int, write_end: int):
    """Decode ``text`` and send the tree through ``write_end``; exits, 0 when sent."""
    code = 1
    try:
        os.close(pipe)
        sent = marshal.dumps(_read(text))
        with open(write_end, "wb") as out:
            out.write(sent)
        code = 0
    finally:
        os._exit(code)


class Decode:
    """A child process decoding the scenario ``text``; raises ``OSError``,
    leaving no descriptor open, when no pipe or process can be made."""

    def __init__(self, text: str):
        self.pipe, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.pipe)
            os.close(write_end)
            raise
        if self.pid == 0:
            _child(text, self.pipe, write_end)
        os.close(write_end)

    def tree(self):
        """The tree the child read from the text (``reader._read``); None when it sent none."""
        with open(self.pipe, "rb") as pipe:
            sent = pipe.read()
        try:
            failed = os.waitpid(self.pid, 0)[1]
        except ChildProcessError:  # reaped already, as SIGCHLD is ignored: marshal tells a short read
            failed = 0
        try:
            return None if failed else marshal.loads(sent)
        except (EOFError, ValueError, TypeError):  # a short read
            return None
