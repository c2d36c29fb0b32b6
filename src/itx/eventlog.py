"""Append-only run transcript.

Every orchestration step lands here as one line with a fixed shape:

    0007 verdict party=alpha accepted=True reason=ok

so a log can be grepped or diffed.  The log is the audit record
the tests and the CLI lean on: key releases must appear after the verdict
that authorized them, and every abort names its cause.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Event:
    seq: int
    kind: str
    fields: tuple[tuple[str, str], ...]

    def line(self) -> str:
        parts = [f"{self.seq:04d}", self.kind]
        parts.extend(f"{k}={shlex.quote(v)}" for k, v in self.fields)
        return " ".join(parts)


@dataclass
class EventLog:
    events: list[Event] = field(default_factory=list)

    def emit(self, kind: str, **fields) -> Event:
        event = Event(
            seq=len(self.events),
            kind=kind,
            fields=tuple((k, str(v)) for k, v in fields.items()),
        )
        self.events.append(event)
        return event

    def lines(self) -> list[str]:
        return [e.line() for e in self.events]

    def dump(self) -> str:
        return "\n".join(self.lines()) + ("\n" if self.events else "")
