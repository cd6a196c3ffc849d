"""What one measured phase of a workload yields."""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Tuple

from harness import busy_seconds, percentile


@dataclass
class Phase:
    """Requests measured in one phase, the serving process's peak RSS
    and, for a traced phase, the per-layer metrics.

    ``halves`` holds split timings a workload reports besides its
    requests; ``zero_work`` the per-layer metrics of the work its
    zero-work predictions cover.
    """

    intervals: List[Tuple[float, float]] = field(default_factory=list)
    rows: List[int] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)
    peak_rss_bytes: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    halves: Dict[str, float] = field(default_factory=dict)
    zero_work: Dict[str, float] = field(default_factory=dict)

    def add(self, start: float, end: float, rows: int, ok: bool) -> None:
        self.intervals.append((start, end))
        self.rows.append(rows)
        self.ok.append(bool(ok))

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def latencies(self) -> List[float]:
        return [end - start for start, end in self.intervals]

    def end_to_end(self) -> Dict[str, float]:
        """Request metrics; throughput counts only correct requests,
        per second in which at least one request was in flight."""
        busy = busy_seconds(self.intervals)
        good_rows = [rows for rows, ok in zip(self.rows, self.ok) if ok]
        return {
            "request_p50_s": median(self.latencies),
            "requests_per_s": len(good_rows) / busy,
            "rows_per_s": sum(good_rows) / busy,
            "peak_rss_bytes": float(self.peak_rss_bytes),
        }

    def tail(self) -> Dict[str, float]:
        """p90 latency when ten or more samples lie beyond it."""
        p90 = percentile(self.latencies, 0.9)
        return {} if p90 is None else {"request_p90_s": p90}
