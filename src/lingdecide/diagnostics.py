"""Diagnostics collection.

Numerical edge cases (ties, entropy floors, missing indirect
paths) are never silent: operations that can hit one accept an optional
collector and record an event per occurrence. The pipeline threads one
collector through a run and the report lists every event.
"""

from __future__ import annotations

from . import records


@records.record(frozen=True)
class Event:
    """One numerical edge case met in a run: its kind and what happened."""

    kind: str
    detail: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


@records.record
class Diagnostics:
    """The events of one run, in the order they were recorded."""

    events: list[Event] = records.factory(list)

    def record(self, kind: str, detail: str) -> None:
        self.events.append(Event(kind, detail))

    def kinds(self) -> list[str]:
        return [e.kind for e in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def record(diag: Diagnostics | None, kind: str, detail: str) -> None:
    """Record an event if a collector was supplied."""
    if diag is not None:
        diag.record(kind, detail)
