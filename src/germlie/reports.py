"""Check reports: a uniform JSON/CSV surface for all property sweeps.

Reports are deterministic given the inputs: no timestamps, sorted keys,
repr-exact floats.  Running the same seeded suite twice yields byte-identical
files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

REPORT_SCHEMA = 1


@dataclass
class Report:
    check: str
    params: dict
    trials: int = 0
    failures: list = field(default_factory=list)
    worst_margin: float | None = None
    status: str = "pass"  # "pass" | "fail" | "inconclusive"
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def fail(self, detail: dict):
        self.failures.append(detail)
        self.status = "fail"

    def inconclusive(self, reason: str) -> "Report":
        """Mark the check undecided, with ``reason`` in its extras."""
        self.status = "inconclusive"
        self.extras["reason"] = reason
        return self

    def note_margin(self, margin: float):
        """Track the smallest (worst) margin seen across trials."""
        if self.worst_margin is None or margin < self.worst_margin:
            self.worst_margin = float(margin)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "check": self.check,
            "params": self.params,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "passed": self.passed,
            "status": self.status,
            **({"extras": self.extras} if self.extras else {}),
        }


def dump_reports(reports: list, path) -> None:
    doc = {"schema": REPORT_SCHEMA, "reports": [r.to_dict() for r in reports]}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"), indent=None)
        fh.write("\n")


def dump_csv(rows: list[dict], path) -> None:
    """One-line-per-case CSV summary; column order fixed by first row."""
    with open(path, "w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
