"""The benchmark's own arithmetic: percentiles, tails and failure accounting,
plus the one process measurement every workload shares (peak RSS).

Kept free of any ``repro`` import so the tests in ``test_perfbench.py``
exercise it without building a simulator.
"""

from __future__ import annotations

import math
import statistics
import threading
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

#: Percentiles a tail is chosen from, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is only reported as a tail when at least this many samples
#: lie beyond it; below that it is one or two outliers, not a tail.
MIN_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` among ``count`` samples, in exact
    decimal arithmetic (``0.999 * 10000`` must be 9990, not 9990.000...02)."""
    return max(1, math.ceil(Fraction(str(pct)) * count / 100))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it.

    ``+inf`` samples (failed or refused requests) sort last, so they push
    the tail up instead of being dropped.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples rank above the nearest-rank ``pct``."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def latency_summary(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, p90 and the best-supported tail of one latency class."""
    summary: Dict[str, Optional[float]] = {
        "n": len(samples),
        "p50": median(samples),
        "p90": percentile(samples, 90.0) if samples else 0.0,
        "tail_pct": tail_percentile(len(samples)),
    }
    pct = summary["tail_pct"]
    summary["tail"] = percentile(samples, pct) if pct is not None else None
    return summary


class Ledger:
    """Attempted, failed and retried operations of one run (thread-safe).

    A failure is anything a user would see as a lost result: a quarantined
    trial, a failed or cancelled job, an HTTP error, a request still
    refused after the client's retries, or a failed output check.  Retries
    are counted apart: a request that succeeds after backing off is not a
    failure, but the count shows the backpressure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    def attempt(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def fail(self, problem: str, count: int = 1) -> None:
        with self._lock:
            self.failed += count
            self.problems.append(problem)

    def retry(self) -> None:
        with self._lock:
            self.retries += 1

    def check(self, ok: bool, problem: str) -> bool:
        """Count one attempted check; a false one is a failure."""
        self.attempt()
        if not ok:
            self.fail(problem)
        return ok

    @property
    def ok_ratio(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


#: A traced wall time may differ from the wall measured around the same
#: calls by this share of it, plus ``WALL_SLACK_S`` for the wrappers.
WALL_SHARE = 0.02
WALL_SLACK_S = 0.005


def walls_agree(traced_s: float, measured_s: float) -> bool:
    """Whether a traced wall time matches the wall measured around the same calls."""
    return abs(traced_s - measured_s) <= WALL_SHARE * measured_s + WALL_SLACK_S


def timed_request(latencies: List[float], elapsed: Optional[float]) -> None:
    """Record one request's latency; ``None`` (failed or refused) is ``+inf``."""
    latencies.append(math.inf if elapsed is None else elapsed)


def peak_rss_mb(pid: str = "self") -> float:
    """High-water resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
