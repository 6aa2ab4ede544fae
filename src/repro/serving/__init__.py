"""Concurrent query serving: coalescing, HTTP endpoints, replica routing.

The online half of the system (see ``docs/serving.md``,
``docs/resilience.md`` and ``docs/architecture.md``):
:mod:`~repro.serving.batcher` turns concurrent single-query callers into
batched engine calls (with bounded, load-shedding queues),
:mod:`~repro.serving.http` exposes the engine over stdlib HTTP
(``repro serve``) with per-request deadline budgets and ``/metrics``,
:mod:`~repro.serving.router` fronts N replicas with health-checked
round-robin and read retries (``repro route``),
:mod:`~repro.serving.metrics` holds the latency histograms, and
:mod:`~repro.serving.bootstrap` cold-starts a server from a
prepared-city snapshot.
"""

from repro.serving.batcher import (
    CoalescerStats,
    MicroBatcher,
    QueryCoalescer,
    SearchCoalescer,
)
from repro.serving.bootstrap import load_or_prepare
from repro.serving.http import (
    BadRequest,
    HttpError,
    ServingContext,
    ServingServer,
    filter_from_json,
)
from repro.serving.metrics import LatencyHistogram, ServingMetrics
from repro.serving.router import (
    Backend,
    ReplicaRouter,
    RetryPolicy,
    RouterServer,
)

__all__ = [
    "Backend",
    "BadRequest",
    "CoalescerStats",
    "HttpError",
    "LatencyHistogram",
    "MicroBatcher",
    "QueryCoalescer",
    "ReplicaRouter",
    "RetryPolicy",
    "RouterServer",
    "SearchCoalescer",
    "ServingContext",
    "ServingMetrics",
    "ServingServer",
    "filter_from_json",
    "load_or_prepare",
]
