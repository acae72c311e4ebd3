"""Structured pass/fail reports shared by all verification operations."""
from __future__ import annotations

PASS = "pass"
FAIL = "fail"
BOUND_RELATIVE = "bound-relative"


class Finding:
    __slots__ = ("clause", "locus", "ok", "detail", "bound_relative")

    def __init__(self, clause, locus, ok, detail="", bound_relative=False):
        self.clause = clause
        self.locus = locus
        self.ok = ok
        self.detail = detail
        self.bound_relative = bound_relative


class Report:
    __slots__ = ("findings",)

    def __init__(self, findings=None):
        self.findings = [] if findings is None else findings

    @property
    def ok(self):
        return all(f.ok for f in self.findings)

    @property
    def status(self):
        failures = self.failures()
        if failures:
            if all(f.bound_relative for f in failures):
                return BOUND_RELATIVE
            return FAIL
        if any(f.bound_relative for f in self.findings):
            return BOUND_RELATIVE
        return PASS

    def failures(self):
        return [f for f in self.findings if not f.ok]

    def extend(self, other):
        self.findings.extend(other.findings)
        return self

    def add(self, finding):
        self.findings.append(finding)
        return self

    def to_json(self):
        return {
            "status": self.status,
            "findings": [
                {
                    "clause": f.clause,
                    "locus": f.locus,
                    "ok": f.ok,
                    "detail": f.detail,
                    **({"bound_relative": True} if f.bound_relative else {}),
                }
                for f in self.findings
            ],
        }

    def to_text(self, verbose=False):
        lines = [f"status: {self.status}"]
        shown = self.findings if verbose else self.failures()
        if self.ok and not verbose:
            lines.append(f"checks: {len(self.findings)} passed")
        for f in shown:
            mark = "ok " if f.ok else "FAIL"
            extra = " [bound-relative]" if f.bound_relative else ""
            lines.append(f"  {mark} [{f.clause}] {f.locus}: {f.detail}{extra}")
        return "\n".join(lines)
