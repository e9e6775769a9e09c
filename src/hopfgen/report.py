"""Tiny pass/fail report container used by the verification routines."""

from __future__ import annotations


class Check:
    __slots__ = ("name", "passed", "details")

    def __init__(self, name: str, passed: bool, details: str = ""):
        self.name = name
        self.passed = passed
        self.details = details


class Report:
    __slots__ = ("title", "checks")

    def __init__(self, title: str = "", checks: list[Check] | None = None):
        self.title = title
        self.checks = [] if checks is None else checks

    def add(self, name: str, passed: bool, details: str = "") -> None:
        self.checks.append(Check(name, bool(passed), details))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }
