"""Correctness gate: every timed response is checked against an oracle.

Geography comes from the dataset (never from the server), rankings from
an ``exact=True`` search over the same filter on an in-process load of
the same snapshot, and the first requests of the stream must return the
same ids over the socket as in-process (the batched == per-query
contract). Every mismatch counts as a failed request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import spec
from harness import Sample
from replay import ledger_totals
from workloads import Corpus, Request, geo_filter_json

from repro.core.pipeline import SemaSK
from repro.core.prepare import PreparedCity
from repro.core.query import SpatialKeywordQuery
from repro.serving.http import filter_from_json


@dataclass
class Findings:
    """What the oracle saw; ``problems`` keeps the first few messages."""

    attempted: int = 0
    failed: int = 0
    recalls: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    @property
    def recall(self) -> float:
        return sum(self.recalls) / len(self.recalls) if self.recalls else 0.0


def served_ids(request: Request, decoded: dict) -> list[str]:
    """Ids a response carries, ranked first (``/query``: both lists)."""
    if request.op == "search":
        return [hit["id"] for hit in decoded["hits"]]
    return [entry["business_id"]
            for entry in decoded["entries"] + decoded["filtered_out"]]


class Oracle:
    """Checks samples of one workload against the in-process snapshot."""

    def __init__(self, corpus: Corpus, prepared: PreparedCity,
                 system: SemaSK) -> None:
        self._corpus = corpus
        self._prepared = prepared
        self._system = system

    def _query_vector(self, request: Request) -> np.ndarray:
        if request.op == "query":
            return self._prepared.embedder.embed(request.body["text"])
        return np.asarray(request.body["vector"], dtype=np.float32)

    def _exact_ids(self, request: Request) -> list[str]:
        hits = self._prepared.client.search(
            spec.COLLECTION, self._query_vector(request), spec.K,
            flt=filter_from_json(geo_filter_json(request.box)),
            exact=True,
        )
        return [hit.id for hit in hits]

    def in_process_ids(self, request: Request) -> list[str]:
        """What the same request answers without a socket or a batch."""
        if request.op == "query":
            body = request.body
            result = self._system.query(SpatialKeywordQuery(
                range=request.box, text=body["text"]))
            return [e.business_id for e in result.entries + result.filtered_out]
        hits = self._prepared.client.search(
            spec.COLLECTION, self._query_vector(request), spec.K,
            flt=filter_from_json(request.body.get("filter")),
        )
        return [hit.id for hit in hits]

    def check_read(self, index: int, request: Request, sample: Sample,
                   findings: Findings, compare_in_process: bool) -> None:
        """Status, geography, ordering, hit count, recall, equality."""
        findings.attempted += 1
        if sample.status != 200:
            findings.fail(f"request {index}: status {sample.status}: "
                          f"{sample.body[:120]!r}")
            return
        try:
            decoded = json.loads(sample.body)
            ids = served_ids(request, decoded)
            scores = ([hit["score"] for hit in decoded["hits"]]
                      if request.op == "search"
                      else [e["score"] for e in decoded["entries"]])
        except (ValueError, KeyError, TypeError) as exc:
            findings.fail(f"request {index}: undecodable body ({exc!r})")
            return
        if any(a < b for a, b in zip(scores, scores[1:])):
            findings.fail(f"request {index}: scores increase: {scores}")
            return
        expected = spec.K
        if request.box is not None:
            inside = self._corpus.ids_inside(request.box)
            expected = min(spec.K, len(inside))
            if not set(ids) <= inside:
                findings.fail(f"request {index}: ids outside the box: "
                              f"{sorted(set(ids) - inside)}")
                return
        if len(ids) != expected or len(set(ids)) != len(ids):
            findings.fail(f"request {index}: {len(ids)} ids, "
                          f"expected {expected} distinct")
            return
        exact = self._exact_ids(request)
        findings.recalls.append(
            len(set(ids) & set(exact)) / len(exact) if exact else 1.0
        )
        if compare_in_process and ids != self.in_process_ids(request):
            findings.fail(f"request {index}: socket and in-process ids differ")

    def reference_tokens(self, queries) -> float:
        """Prompt + completion tokens per query over the fixed query set."""
        before = sum(ledger_totals(self._system.llm)[:2])
        for text, center in queries:
            self._system.query(SpatialKeywordQuery.around(
                center, text, spec.RANGE_KM, spec.RANGE_KM))
        return (sum(ledger_totals(self._system.llm)[:2]) - before) / len(queries)


def check_write(index: int, sample: Sample, findings: Findings,
                low: int, high: int) -> bool:
    """An ``/upsert`` ack: 200, one point received, a plausible count.

    With two concurrent writers the count at ack time depends on the
    interleaving, so it is checked against the range it can take; the
    exact total is checked once, from ``/collections``, after the phase.
    """
    findings.attempted += 1
    if sample.status != 200:
        findings.fail(f"upsert {index}: status {sample.status}: "
                      f"{sample.body[:120]!r}")
        return False
    try:
        ack = json.loads(sample.body)
        received, points = ack["received"], ack["points"]
    except (ValueError, KeyError, TypeError) as exc:
        findings.fail(f"upsert {index}: undecodable ack ({exc!r})")
        return False
    if received != 1 or not low <= points <= high:
        findings.fail(f"upsert {index}: received {received}, points {points} "
                      f"outside [{low}, {high}]")
        return False
    return True
