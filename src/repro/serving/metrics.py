"""Serving metrics: request counters and log-bucketed latency histograms.

One :class:`ServingMetrics` per server process, updated by the HTTP
dispatch path and read by the ``/metrics`` endpoint (and, abbreviated,
by ``/healthz``). Everything is fixed-size: counters plus a
:class:`LatencyHistogram` per route, whose buckets are a static
logarithmic ladder — a server can run indefinitely without the metrics
object growing, and a snapshot is O(routes × buckets).

Quantiles are read from the bucket ladder the way Prometheus histograms
are: ``quantile_ms(0.99)`` returns the upper bound of the bucket the
99th-percentile observation fell into. That is an over-estimate by at
most one bucket width (~2× at this ladder's resolution) — the right
trade for an always-on histogram, and consistently conservative, so
benchmark floors asserted against it hold against the true p99 too.

Route cardinality is bounded by construction: the handler normalizes
unknown paths to ``"other"`` before observing, so a scanner probing
random URLs cannot grow the route map.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left

__all__ = ["LatencyHistogram", "ServingMetrics"]

# Upper bounds (ms) of the latency buckets: ~sub-ms to tens of seconds,
# roughly doubling. The final implicit bucket catches everything slower.
BUCKET_BOUNDS_MS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0, 30000.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram (not thread-safe on its own).

    :class:`ServingMetrics` serializes access under its lock; use that,
    or guard concurrent observers yourself.
    """

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_BOUNDS_MS) + 1)  # +1: overflow
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency observation (given in seconds)."""
        ms = seconds * 1000.0
        self.counts[bisect_left(BUCKET_BOUNDS_MS, ms)] += 1
        self.count += 1
        self.sum_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms

    def quantile_ms(self, q: float) -> float:
        """Upper bucket bound at quantile ``q`` (0.0 when empty).

        Overflow-bucket observations report the recorded maximum — the
        ladder has no upper bound to name, and the true value is ≤ max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, round(q * self.count))
        cumulative = 0
        for bucket, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if bucket < len(BUCKET_BOUNDS_MS):
                    return BUCKET_BOUNDS_MS[bucket]
                return self.max_ms
        return self.max_ms

    def snapshot(self) -> dict:
        """JSON-ready summary (counts, mean, p50/p90/p99, max)."""
        mean_ms = self.sum_ms / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_ms": round(mean_ms, 3),
            "p50_ms": round(self.quantile_ms(0.50), 3),
            "p90_ms": round(self.quantile_ms(0.90), 3),
            "p99_ms": round(self.quantile_ms(0.99), 3),
            "max_ms": round(self.max_ms, 3),
        }


class ServingMetrics:
    """Thread-safe request counters + per-route latency histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._histograms: dict[str, LatencyHistogram] = {}
        self.requests_total = 0
        self.shed_total = 0              # 429s: queue/in-flight saturation
        self.deadline_exceeded_total = 0  # 504s: budget spent
        self.errors_total = 0            # other 4xx/5xx responses

    def observe(self, route: str, status: int, seconds: float) -> None:
        """Record one completed request: route, response status, latency."""
        with self._lock:
            self.requests_total += 1
            if status == 429:
                self.shed_total += 1
            elif status == 504:
                self.deadline_exceeded_total += 1
            elif status >= 400:
                self.errors_total += 1
            histogram = self._histograms.get(route)
            if histogram is None:
                histogram = self._histograms[route] = LatencyHistogram()
            histogram.observe(seconds)

    def snapshot(self) -> dict:
        """The ``/metrics`` body (sans server-level in-flight fields)."""
        with self._lock:
            return {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "requests_total": self.requests_total,
                "shed_total": self.shed_total,
                "deadline_exceeded_total": self.deadline_exceeded_total,
                "errors_total": self.errors_total,
                "latency_ms": {
                    route: histogram.snapshot()
                    for route, histogram in sorted(self._histograms.items())
                },
            }

    def counters(self) -> dict:
        """The abbreviated view ``/healthz`` embeds (counters only)."""
        with self._lock:
            return {
                "requests_total": self.requests_total,
                "shed_total": self.shed_total,
                "deadline_exceeded_total": self.deadline_exceeded_total,
                "errors_total": self.errors_total,
            }
