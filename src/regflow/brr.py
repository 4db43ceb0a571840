"""Benefit-risk scoring and the authority's dynamic approval threshold.

A submission carries four integer scores on a 1-10 scale. The benefit-risk
ratio aggregates the three benefit scores and divides by the adverse-event
score:

    brr = (safety + effectiveness + compliance) / adverse

Approval requires brr >= threshold (a tie approves). The threshold itself
is not fixed: it tracks the median of recently decided ratios with a
responsiveness factor and is clipped to a configured band, so it drifts
with the market instead of reacting to any single submission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .dynamics import _count, _number, _store_number
from .errors import ArgumentError, DomainError

__all__ = [
    "Submission",
    "BRRDecision",
    "ThresholdConfig",
    "compute_brr",
    "decide",
    "update_threshold",
]

SCORE_FIELDS = ("safety", "effectiveness", "compliance", "adverse")


def _score(value, where: str) -> int:
    """A score read from JSON, an int as written (7.0 is refused); Submission checks the range."""
    _count(value, where, -math.inf)
    return value


_SCORE = {"load": _score}


@dataclass(frozen=True)
class Submission:
    """A manufacturer's compliance submission."""

    agent_id: str
    safety: int = field(metadata=_SCORE)
    effectiveness: int = field(metadata=_SCORE)
    compliance: int = field(metadata=_SCORE)
    adverse: int = field(metadata=_SCORE)
    regulation_ids: tuple[str, ...] = ()
    narrative: str = ""

    def __post_init__(self) -> None:
        for name in SCORE_FIELDS:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise DomainError(f"submission score {name} must be an integer, got {v!r}")
            if not 1 <= v <= 10:
                raise DomainError(f"submission score {name} must be in [1, 10], got {v}")


@dataclass(frozen=True)
class BRRDecision:
    brr: float
    threshold: float
    approved: bool


@dataclass(frozen=True)
class ThresholdConfig:
    """Dynamic-threshold settings.

    base is the cold-start threshold; kappa in [0, 1] sets how strongly the
    threshold follows the median of the last `window` decided ratios; the
    result is clipped to [floor, ceiling].
    """

    base: float = 4.0
    kappa: float = 0.3
    window: int = 10
    floor: float = 2.0
    ceiling: float = 8.0

    def __post_init__(self) -> None:
        for name in ("base", "floor", "ceiling"):
            _store_number(self, name, f"threshold config {name}", positive=True)
        _store_number(self, "kappa", "kappa", high=1.0)
        _count(self.window, "window")
        if not self.floor <= self.base <= self.ceiling:
            raise ArgumentError(
                f"threshold config needs floor <= base <= ceiling, got "
                f"{self.floor} / {self.base} / {self.ceiling}"
            )


def compute_brr(s: Submission) -> float:
    """Benefit-risk ratio of a submission; always in [3/10, 30]."""
    return (s.safety + s.effectiveness + s.compliance) / s.adverse


def decide(brr: float, threshold: float) -> BRRDecision:
    """Approve iff brr meets or exceeds the threshold (exact comparison)."""
    _number(brr, "brr", positive=True)
    _number(threshold, "threshold", positive=True)
    return BRRDecision(brr=brr, threshold=threshold, approved=brr >= threshold)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def update_threshold(cfg: ThresholdConfig, recent_brrs: Sequence[float]) -> float:
    """Next threshold given the rolling history of decided ratios.

    Empty history returns the base. Otherwise the base moves a fraction
    kappa toward the median of the last min(window, len) ratios, clipped
    into [floor, ceiling].
    """
    if not recent_brrs:
        return cfg.base
    tail = list(recent_brrs)[-cfg.window:]
    target = cfg.base + cfg.kappa * (_median(tail) - cfg.base)
    return min(max(target, cfg.floor), cfg.ceiling)
