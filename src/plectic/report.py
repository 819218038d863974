"""Verification reports shared by the checking pipelines.

Verdicts: PASS for symbolic identities, EVIDENCE for checks certified
exactly at finitely many sample points (evidence, not proof), FAIL for a
detected violation.  FAIL reports always carry an explicit witness, and a
sampled check over zero points is a FAIL, never EVIDENCE.

Reports are frozen, and every sampled verdict is made by ``sampled_report``.
Its details echo, by ``sampling.echo``, the SampleConfig whenever the caller
gave one, and ``points_supplied`` only for points that came with no config.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence

from .record import Record, factory

PASS = "PASS"
EVIDENCE = "EVIDENCE"
FAIL = "FAIL"
# FAIL witness message of a sampled check that was given no points
NO_POINTS = "no sample points to check"
# details keys in which a sampled check states how many points it evaluated
POINT_COUNTS = ("points_checked", "samples_evaluated")


class VerificationReport(Record):
    name: str
    verdict: str
    details: Dict[str, Any] = factory(dict)
    witnesses: List[Any] = factory(list)
    timing_ms: float = 0.0

    def __post_init__(self):
        if self.verdict not in (PASS, EVIDENCE, FAIL):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FAIL and not self.witnesses:
            raise ValueError("FAIL reports must carry a witness")
        if self.verdict == EVIDENCE and any(self.details.get(k) == 0 for k in POINT_COUNTS):
            raise ValueError("EVIDENCE reports must evaluate at least one point")

    @property
    def ok(self) -> bool:
        return self.verdict in (PASS, EVIDENCE)

    def to_json_dict(self) -> Dict[str, Any]:
        # timing is excluded on purpose: --json output is byte-reproducible
        return {
            "check": self.name,
            "verdict": self.verdict,
            "details": self.details,
            "witnesses": self.witnesses,
        }

    def human_lines(self) -> List[str]:
        mode = " (sampled evidence)" if self.verdict == EVIDENCE else (
            " (symbolic)" if self.verdict == PASS else ""
        )
        lines = [f"{self.name}: {self.verdict}{mode}  [{self.timing_ms:.1f} ms]"]
        for key, value in self.details.items():
            lines.append(f"  {key}: {value}")
        for w in self.witnesses:
            lines.append(f"  witness: {w}")
        return lines


def sampled_report(
    name: str, points: Sequence[Any], details: Dict[str, Any], witnesses: List[Any], start: float
) -> VerificationReport:
    """Report of a check run at ``points``, timed from ``start`` (perf_counter).

    No points is a FAIL with the NO_POINTS witness; otherwise the verdict is
    EVIDENCE when no point gave a witness and FAIL when one did.
    """
    if not points:
        witnesses = witnesses + [{"error": NO_POINTS}]
    return VerificationReport(
        name, FAIL if witnesses else EVIDENCE, details, witnesses,
        (time.perf_counter() - start) * 1000,
    )
