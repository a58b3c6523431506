"""Shared result model: check outcomes, findings, severity scale.

Kept separate from the engine so probe modules can produce results without
importing the scheduler. There is no area-wide verdict: each check folds its
own outcomes, so a failed probe or an unreadable shared input costs only the
checks that read it.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Optional

from .wire import WireError
AREA_ORDER = ("NET", "DB", "OAUTH", "JWT", "WEB", "LOG")


class CheckStatus(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    NOT_ASSESSABLE = "NotAssessable"
    SKIPPED = "Skipped"


class Severity(enum.Enum):
    CRITICAL = "Critical"
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"


def check_sort_key(check_id: str) -> tuple[int, int]:
    """Catalog order: areas as listed, then numeric within the area."""
    area, number = check_id.rsplit("-", 1)
    return (AREA_ORDER.index(area), int(number))


@dataclass
class CheckResult:
    """Outcome of one registry check.

    evidence is an ordered trail: requests sent, responses observed, values
    measured. Volatile values (timings, sequence numbers, token bytes) are
    kept out of evidence so identical target states produce identical trails;
    elapsed time lives in duration_ms only.
    """

    check_id: str
    status: CheckStatus
    evidence: list[str] = field(default_factory=list)
    component_id: Optional[str] = None
    duration_ms: int = 0

    def __post_init__(self) -> None:
        if self.status in (CheckStatus.PASS, CheckStatus.FAIL) and not self.evidence:
            raise ValueError(f"{self.check_id}: {self.status.value} requires evidence")


@dataclass(frozen=True)
class Outcome:
    """One probe's contribution to a check: an evidence line and how it
    bears on the verdict. A status of None marks a note that never decides
    the verdict; component names the offender when the status is FAIL."""

    status: Optional[CheckStatus]
    line: str
    component: Optional[str] = None


def judged(failed: bool, line: str, component: Optional[str] = None) -> Outcome:
    return Outcome(CheckStatus.FAIL if failed else CheckStatus.PASS, line, component)


def unassessable(line: str) -> Outcome:
    return Outcome(CheckStatus.NOT_ASSESSABLE, line)


def note(line: str) -> Outcome:
    return Outcome(None, line)


def attempt(label: Optional[str], probe: Callable[[], list[Outcome]]) -> list[Outcome]:
    """Run one probe. A transport or I/O error gives that probe the single
    NotAssessable line "<label>: <error>" (the bare error without a label)
    and never ends the check, so outcomes of other probes keep their lines."""
    try:
        return probe()
    except (WireError, OSError) as exc:
        return [unassessable(f"{label}: {exc}" if label else str(exc))]


def fold(check_id: str, outcomes: Iterable[Outcome],
         pass_line: Optional[str] = None) -> CheckResult:
    """The verdict rule: Fail beats NotAssessable beats Pass, and a Pass
    needs at least one probe that passed. Evidence keeps every line in
    order; the pass line is appended only to a Pass."""
    outcomes = list(outcomes)
    evidence = [o.line for o in outcomes]
    statuses = [o.status for o in outcomes]
    if CheckStatus.FAIL in statuses:
        first = outcomes[statuses.index(CheckStatus.FAIL)]
        return CheckResult(check_id, CheckStatus.FAIL, evidence,
                           component_id=first.component)
    if CheckStatus.NOT_ASSESSABLE in statuses or CheckStatus.PASS not in statuses:
        return CheckResult(check_id, CheckStatus.NOT_ASSESSABLE, evidence)
    if pass_line:
        evidence.append(pass_line)
    return CheckResult(check_id, CheckStatus.PASS, evidence)


def aborted(exc: Exception) -> str:
    """Evidence for a check that raised instead of returning a verdict."""
    return f"probe aborted: {exc.__class__.__name__}: {exc}"


def run_checks(
    wanted: Collection[str],
    checks: Iterable[tuple[str, Callable[[], CheckResult]]],
) -> list[CheckResult]:
    """Run the wanted checks in the given order, each on its own.

    An exception costs only the check that raised it, which comes back
    NotAssessable with the error as evidence. duration_ms is the check's
    wall time.
    """
    results = []
    for check_id, check in checks:
        if check_id not in wanted:
            continue
        started = time.monotonic()
        try:
            result = check()
        except Exception as exc:  # surface, never abort the area
            result = CheckResult(check_id, CheckStatus.NOT_ASSESSABLE, [aborted(exc)])
        result.duration_ms = int((time.monotonic() - started) * 1000)
        results.append(result)
    return results


@dataclass(frozen=True)
class Finding:
    check_id: str
    severity: Severity
    title: str
    remediation: str
    component_id: Optional[str]
    evidence: tuple[str, ...]
