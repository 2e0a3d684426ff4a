"""Verification report records, their JSON serialization and the worst-violation reduction."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class VerificationReport:
    """One named check with its worst observed violation.

    passed is max_violation <= tolerance, so a NaN violation fails; runtime
    is carried for display but kept out of the JSON payload so reruns under
    a fixed seed serialize identically.
    """

    check: str
    parameters: dict
    max_violation: float
    tolerance: float
    worst: tuple = ()
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.max_violation <= self.tolerance)

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
    return VerificationReport(check, parameters, float(max_violation), float(tolerance),
                              tuple(worst), runtime_s)


def worst_of(pairs: Iterable[tuple]) -> tuple[float, list]:
    """(max_violation, [where]) of (violation, where) pairs: every check's reduction.

    A violation is a float, or an array whose where is a function of the
    index of its largest entry; that function is called before the next
    pair is drawn, so it may read the caller's loop variables.  A NaN ranks
    above every number and a NaN top stays on top, so a NaN violation is
    reported and fails its check.  On ties the first case is kept.  If no
    violation is above 0, the result is (0.0, []).
    """
    top, worst = 0.0, []
    for dev, where in pairs:
        if isinstance(dev, np.ndarray):
            k = int(dev.argmax())  # the first NaN, if any
            dev, where = dev[k], where(k)
        dev = float(dev)
        if not (dev <= top or math.isnan(top)):
            top, worst = dev, [where]
    return top, worst
