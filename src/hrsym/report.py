"""Structured pass/fail records shared by all verification operations."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    name: str
    passed: bool
    metrics: dict = field(default_factory=dict)
    detail: str = ""


@dataclass
class VerificationReport:
    """Ordered list of named checks with numeric evidence attached.

    `skipped` names the checks the operation could not run.
    """

    title: str
    checks: list[CheckRecord] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    def add(self, name: str, passed: bool, metrics: dict | None = None, detail: str = "") -> CheckRecord:
        rec = CheckRecord(name, bool(passed), dict(metrics or {}), detail)
        self.checks.append(rec)
        return rec

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> CheckRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "metrics": c.metrics, "detail": c.detail}
                for c in self.checks
            ],
        }
