"""Check-report records shared by the verification pipelines and the CLI,
with the library's base error and the names every layer shares."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

# seed of every sampled check unless a caller passes one
DEFAULT_SEED = 0xC0FFEE


class NclbError(Exception):
    """Base of the library's own error classes; each subclass also keeps its
    own builtin base (ValueError, RuntimeError, ...).  Plain ValueError and
    TypeError are left for misuse of the API (operators over different
    variables, a singular exact matrix, a non-expression argument)."""


def worst(values, floor=0.0):
    """max(floor, *values), or NaN as soon as one value is NaN or infinite.

    Plain max() drops a NaN anywhere but in first place, so a check fed
    non-finite numbers could pass, or decide its verdict by sample order;
    here they make the figure non-finite and any `<= tol` gate on it fail.
    """
    out = floor
    for v in values:
        if not math.isfinite(v):
            return math.nan
        out = max(out, v)
    return out


@dataclass
class CheckRecord:
    check: str
    status: str
    max_residual: float | None = None
    samples_used: int = 0
    seed: int | None = None
    skipped_samples: int = 0
    detail: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.status == PASS

    def to_dict(self):
        doc = {
            "check": self.check,
            "status": self.status,
            "max_residual": self.max_residual,
            "samples_used": self.samples_used,
            "seed": self.seed,
            "skipped_samples": self.skipped_samples,
        }
        if self.detail:
            doc["detail"] = self.detail
        return doc


# The Airy domain, here so that the symbolic layer can test it and skip
# overflowing samples without importing `airyfun` (and numpy); `airyfun`
# re-exports these three names.
LEFT_CUT = -1.0e5  # Airy arguments below it raise AiryDomainError
BI_OVERFLOW = 103.0  # Bi and Bi' raise AiryOverflowError past it


class AiryOverflowError(NclbError, OverflowError):
    pass


class InconclusiveError(NclbError, RuntimeError):
    """A check could not reach a verdict: no sample evaluated, a field was
    numerically zero everywhere, or a quadrature did not settle."""


class VerificationError(NclbError, RuntimeError):
    """A strict verification run found failing checks."""

    def __init__(self, records):
        self.records = records
        bad = [r.check for r in records if not r.passed]
        super().__init__(f"failing checks: {', '.join(bad)}")


def overall_status(records):
    statuses = [r.status for r in records]
    if any(s == FAIL for s in statuses):
        return FAIL
    if any(s == INCONCLUSIVE for s in statuses):
        return INCONCLUSIVE
    return PASS
