"""Pass/fail reports produced by the verification suites.

Every verifier returns a ValidationReport: an ordered list of named checks,
each pass, fail (with a concrete witness) or inconclusive.  Reports are
plain data so they serialize deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class Check:
    name: str
    status: str
    witness: str = ""
    detail: str = ""

    def to_dict(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.witness:
            d["witness"] = self.witness
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class ValidationReport:
    title: str = ""
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, witness: str = "", detail: str = "") -> Check:
        c = Check(name, PASS if ok else FAIL, witness, detail)
        self.checks.append(c)
        return c

    def first(self, name: str, witnesses, detail: str = "") -> Check:
        """Pass when ``witnesses`` yields nothing; else fail with its first item as witness.

        The iterable is read lazily and no further than that first item.
        """
        w = next(iter(witnesses), None)
        return self.add(name, w is None, w or "", detail)

    def add_inconclusive(self, name: str, detail: str = "") -> Check:
        c = Check(name, INCONCLUSIVE, detail=detail)
        self.checks.append(c)
        return c

    def extend(self, other: "ValidationReport", prefix: str = "") -> None:
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else c.name
            self.checks.append(Check(name, c.status, c.witness, c.detail))

    @property
    def ok(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def summary(self) -> str:
        """The failed checks as ``name:witness``, joined by ``"; "``; empty when none fail."""
        return "; ".join(f"{c.name}:{c.witness}" for c in self.failures)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "verdict": "pass" if self.ok else "fail",
            "checks": [c.to_dict() for c in self.checks],
        }

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            tag = {PASS: "PASS", FAIL: "FAIL", INCONCLUSIVE: "????"}[c.status]
            msg = f"[{tag}] {c.name}"
            if c.witness:
                msg += f"  witness: {c.witness}"
            if c.detail:
                msg += f"  ({c.detail})"
            out.append(msg)
        return out
