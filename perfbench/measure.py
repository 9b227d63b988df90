"""The benchmark's arithmetic: percentiles, failure and settle fractions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank p-th percentile of n samples."""
    return n - math.ceil(p / 100 * n - 1e-9)


def tail_percentile(n: int) -> Optional[float]:
    """The highest of PERCENTILES with at least MIN_BEYOND samples beyond it."""
    for p in PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p = 100 gives the maximum)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def ratio(part: float, base: float) -> float:
    """part / base, or 0.0 on an empty base (the base is printed beside it)."""
    return part / base if base else 0.0


@dataclass
class Outcomes:
    """Items attempted and failed; an item that raised counts as failed."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    @property
    def fail_frac(self) -> float:
        return ratio(self.failed, self.attempted)


def walk_settle(counts: dict) -> tuple[float, int]:
    """Share of cover attempts settled by the first fixed-order walk, with its base.

    Attempts are the subsets the scan kernel walked plus the calls into the
    generic cover walk; settled ones needed neither escalation nor a verdict
    of non-basis from an abelian walk.
    """
    base = counts.get("sumsets.walk_attempts", 0)
    return ratio(counts.get("sumsets.walk_settled", 0), base), base
