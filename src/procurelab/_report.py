"""Verification report records and their JSON serialization."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class VerificationReport:
    """One named check with its worst observed violation.

    passed must equal max_violation <= tolerance; runtime is carried for
    display but kept out of the JSON payload so reruns under a fixed seed
    serialize identically.
    """

    check: str
    parameters: dict
    max_violation: float
    tolerance: float
    passed: bool
    worst: tuple = ()
    runtime_s: float = 0.0

    def __post_init__(self) -> None:
        ok = self.max_violation <= self.tolerance
        if math.isnan(self.max_violation):
            ok = False
        if self.passed is not ok:
            raise ValueError(
                f"report {self.check!r}: passed={self.passed} contradicts "
                f"max_violation={self.max_violation} vs tolerance={self.tolerance}"
            )

    def to_json(self) -> str:
        return json.dumps(
            {
                "check": self.check,
                "parameters": self.parameters,
                "max_violation": self.max_violation,
                "tolerance": self.tolerance,
                "pass": self.passed,
                "worst": list(self.worst),
            }
        )


def make_report(
    check: str,
    parameters: dict,
    max_violation: float,
    tolerance: float,
    worst: Sequence = (),
    runtime_s: float = 0.0,
) -> VerificationReport:
    # compare the converted floats: numpy scalars compare to np.bool_, which
    # the report's identity check would reject
    max_violation, tolerance = float(max_violation), float(tolerance)
    ok = max_violation <= tolerance and not math.isnan(max_violation)
    return VerificationReport(
        check, parameters, max_violation, tolerance, ok, tuple(worst), runtime_s
    )
