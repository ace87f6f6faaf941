"""Structured pass/fail records shared by the verification suites."""

from __future__ import annotations

from typing import NamedTuple


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""
    exploratory: bool = False

    def as_dict(self) -> dict:
        status = "pass" if self.passed else "fail"
        if self.exploratory:
            status = f"exploratory-{status}"
        out = {"check": self.name, "status": status}
        if self.detail:
            out["detail"] = self.detail
        return out


class CheckReport:
    def __init__(self, checks: list[CheckResult] | None = None):
        self.checks = [] if checks is None else checks

    def __eq__(self, other):  # unhashable, as it is mutable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.checks == other.checks

    def add(self, name: str, passed: bool, detail: str = "",
            exploratory: bool = False) -> None:
        self.checks.append(CheckResult(name, bool(passed), detail, exploratory))

    @property
    def passed(self) -> bool:
        """True when every non-exploratory check passed."""
        return all(c.passed for c in self.checks if not c.exploratory)

    def as_dicts(self) -> list[dict]:
        return [c.as_dict() for c in self.checks]
