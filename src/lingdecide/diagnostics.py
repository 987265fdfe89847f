"""Diagnostics collection.

Numerical edge cases (ties, entropy floors, missing indirect
paths) are never silent: operations that can hit one accept an optional
collector and record an event per occurrence. The pipeline threads one
collector through a run and the report lists every event.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Event:
    kind: str
    detail: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


@dataclass
class Diagnostics:
    events: list[Event] = field(default_factory=list)

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
