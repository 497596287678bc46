"""Pass/fail reports shared by the axiom and conjecture checkers."""

from __future__ import annotations

from .record import record


@record
class ReportEntry:
    pair: tuple
    check: str
    ok: bool
    witness: dict | None = None

    def to_json(self) -> dict:
        return {"pair": list(self.pair), "check": self.check,
                "pass": self.ok, "witness": self.witness}


class Report:
    def __init__(self, name: str, entries: list | None = None):
        self.name = name
        self.entries = [] if entries is None else entries

    def add(self, entry: ReportEntry) -> None:
        self.entries.append(entry)

    def extend(self, other: "Report") -> None:
        self.entries.extend(other.entries)

    @property
    def violations(self) -> list:
        return [e for e in self.entries if not e.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        """Counts, and the entries of the violations alone."""
        return {"name": self.name,
                "checked": len(self.entries),
                "violations": len(self.violations),
                "entries": [e.to_json() for e in self.violations]}

    def entries_json(self) -> list:
        """The raw entry list: {pair, check, pass, witness} per check."""
        return [e.to_json() for e in self.entries]

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{self.name}: {len(self.entries)} checks, {len(self.violations)} violations [{status}]"
