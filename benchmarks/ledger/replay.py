"""The traced replay: per-layer numbers, measured from outside.

After a workload's timed phase the first requests of the same seeded
stream are pushed, single-threaded, through the layers' public functions
on an in-process load of the same snapshot. A span (name, start, end,
parent span, request id) is recorded around each call; nothing inside
``src/`` is instrumented. Per request there are two span trees:

* ``request`` — the request as the server runs it: parse, the coalesced
  ``ServingContext`` call, serialise;
* ``probe`` — the same work again through each layer's own entry point
  (``client.search``, ``client.count``, per-shard ``search``,
  ``FilteringStage.run``, ...), so a layer's cost is its own span.

The probe spans are siblings, not a call tree the program does not
expose, so a layer's self time is its span minus the spans of the layers
it calls (``score_self = search - geo_eval``, ``pipeline.self = query -
filtering - refinement``, ``batcher.wait = coalesced - direct``), and
``trace.accounted_share`` reports how much of the ``request`` span those
layer times add up to.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import spec
from workloads import Corpus, Request

from repro.core.filtering import FilteringStage
from repro.core.prepare import PreparedCity
from repro.core.query import SpatialKeywordQuery
from repro.core.refinement import RefinementStage
from repro.core.storage import load_prepared
from repro.core.variants import semask
from repro.serving.http import ServingContext, filter_from_json
from repro.vectordb.collection import Collection, PointStruct
from repro.vectordb.filters import GeoBoundingBoxFilter


class SpanRecorder:
    """In-memory spans; single-threaded, nested by ``with`` blocks."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int | None = None):
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "request": request, "start": time.perf_counter(), "end": 0.0}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def ms(self, name: str) -> dict[int, float]:
        """Milliseconds per request id for spans called ``name``.

        Several spans of one name in one request (the per-shard calls)
        add up.
        """
        out: dict[int, float] = {}
        for span in self.spans:
            if span["name"] == name:
                took = (span["end"] - span["start"]) * 1e3
                out[span["request"]] = out.get(span["request"], 0.0) + took
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def ledger_totals(llm) -> tuple[int, int, float]:
    """``(prompt tokens, completion tokens, USD)`` the LLM has used so far."""
    ledger = llm.ledger
    return (sum(ledger.input_tokens.values()),
            sum(ledger.output_tokens.values()), ledger.total_cost_usd())


def _raw_body(request: Request) -> bytes:
    return request.wire.split(b"\r\n\r\n", 1)[1]


class Replay:
    """Replays one workload's first requests through the layers."""

    def __init__(self, corpus: Corpus, prepared: PreparedCity) -> None:
        self.recorder = SpanRecorder()
        self._corpus = corpus
        self._prepared = prepared
        self._client = prepared.client
        self._collection = prepared.client.get_collection(spec.COLLECTION)
        self._system = semask(prepared)
        self._filtering = FilteringStage(
            prepared.client, spec.COLLECTION, prepared.embedder)
        self._refinement = RefinementStage(self._system.llm, "gpt-4o")
        self._context = ServingContext(
            prepared.client, system=self._system,
            default_center=corpus.city.center, own_client=False,
        )
        self._extra: dict[str, list[float]] = {}

    def close(self) -> None:
        self._context.close()

    def _note(self, name: str, value: float) -> None:
        self._extra.setdefault(name, []).append(value)

    # -- one request through the layers ---------------------------------

    def _search(self, rid: int, request: Request, served: bytes) -> None:
        span = self.recorder.span
        raw = _raw_body(request)
        decoded = json.loads(served)
        with span("request", rid):
            with span("serving.http.parse"):
                body = json.loads(raw)
                flt = filter_from_json(body.get("filter"))
                vector = np.asarray(body["vector"], dtype=np.float32)
            with span("serving.context.coalesced"):
                self._context.search(spec.COLLECTION, vector, spec.K, flt=flt)
            with span("serving.http.serialize"):
                json.dumps(decoded)
        self._note("request_bytes", len(raw))
        self._note("response_bytes", len(served))
        with span("probe", rid):
            with span("serving.context.direct"):
                self._context.search(spec.COLLECTION, vector, spec.K, flt=flt,
                                     coalesce=False)
            self._probe_search(vector, flt)
            if flt is None:
                with span("vectordb.flat.exact_search"):
                    exact = self._client.search(
                        spec.COLLECTION, vector, spec.K, exact=True)
                with span("vectordb.hnsw.graph_search"):
                    graph = self._client.search(spec.COLLECTION, vector, spec.K)
                overlap = {h.id for h in graph} & {h.id for h in exact}
                self._note("hnsw_recall", len(overlap) / max(len(exact), 1))

    def _probe_search(self, vector: np.ndarray, flt) -> None:
        span = self.recorder.span
        with span("vectordb.collection.search"):
            self._client.search(spec.COLLECTION, vector, spec.K, flt=flt)
        if flt is not None:
            with span("vectordb.filters.geo_eval"):
                matched = self._client.count(spec.COLLECTION, flt)
            total = len(self._collection)
            self._note("selectivity", matched / total)
            if matched:
                self._note("scanned_per_match", total / matched)
            self._note("brute", float(matched <= Collection.BRUTE_FORCE_THRESHOLD))
        with span("vectordb.sharded.search"):
            self._collection.search(vector, spec.K, flt=flt)
        shard_ms = []
        for shard in self._collection.shard_collections:
            with span("vectordb.sharded.shard") as record:
                shard.search(vector, spec.K, flt=flt)
            shard_ms.append((record["end"] - record["start"]) * 1e3)
        self._note("shard_sum", sum(shard_ms))
        self._note("shard_max", max(shard_ms))

    def _query(self, rid: int, request: Request, served: bytes) -> None:
        span = self.recorder.span
        raw = _raw_body(request)
        decoded = json.loads(served)
        with span("request", rid):
            with span("serving.http.parse"):
                body = json.loads(raw)
            with span("serving.context.coalesced"):
                self._context.query(body["text"], lat=body["lat"],
                                    lon=body["lon"], range_km=body["range_km"])
            with span("serving.http.serialize"):
                json.dumps(decoded)
        self._note("request_bytes", len(raw))
        self._note("response_bytes", len(served))
        query = SpatialKeywordQuery(range=request.box, text=body["text"])
        with span("probe", rid):
            with span("serving.context.direct"):
                self._context.query(
                    body["text"], lat=body["lat"], lon=body["lon"],
                    range_km=body["range_km"], coalesce=False)
            before = ledger_totals(self._system.llm)
            with span("core.pipeline.query"):
                result = self._system.query(query)
            after = ledger_totals(self._system.llm)
            self._note("prompt_tokens", after[0] - before[0])
            self._note("completion_tokens", after[1] - before[1])
            self._note("cost_usd", after[2] - before[2])
            self._note("modeled_latency_s", result.timings.refine_modeled_s)
            with span("core.filtering.run"):
                candidates = self._filtering.run(query, k=spec.K)
            with span("embeddings.embed"):
                vector = self._prepared.embedder.embed(query.text)
            self._probe_search(
                vector, GeoBoundingBoxFilter("location", query.range))
            with span("core.refinement.run"):
                outcome = self._refinement.run(query.text, candidates)
            if candidates:
                self._note("accept_ratio",
                           len(outcome.accepted) / len(candidates))

    # -- a workload ----------------------------------------------------------

    def run(self, workload: str, requests: list[Request], first: int,
            served: dict[int, bytes], workdir: Path) -> dict[str, float]:
        """Replay the ``first`` requests of the stream; derive the metrics.

        ``served`` maps a request's stream index to the body the server
        answered it with; requests the timed phase never reached are
        skipped.
        """
        reads = [(rid, r) for rid, r in enumerate(requests[:first])
                 if r.op != "upsert" and rid in served]
        for rid, request in reads:
            if request.op == "query":
                self._query(rid, request, served[rid])
            else:
                self._search(rid, request, served[rid])
        metrics = self._derive(len(reads))
        if workload == "mixed_rw":
            metrics.update(self._writes(requests, reads, workdir))
        return metrics

    def _derive(self, replayed: int) -> dict[str, float]:
        rec, extra = self.recorder, self._extra
        request = rec.ms("request")
        coalesced = rec.ms("serving.context.coalesced")
        direct = rec.ms("serving.context.direct")
        search = rec.ms("vectordb.collection.search")
        geo = rec.ms("vectordb.filters.geo_eval")
        pipeline = rec.ms("core.pipeline.query")
        filtering = rec.ms("core.filtering.run")
        refinement = rec.ms("core.refinement.run")
        parse = rec.ms("serving.http.parse")
        serialize = rec.ms("serving.http.serialize")
        embed = rec.ms("embeddings.embed")
        wait = {r: coalesced[r] - direct[r] for r in coalesced}
        # the leaves, each under a span of its own: what they leave of the
        # request span is the glue between the layers (ServingContext,
        # FilteringStage and SemaSK.query outside the calls they make)
        accounted = [
            (parse[r] + wait[r] + embed.get(r, 0.0) + search[r]
             + refinement.get(r, 0.0) + serialize[r]) / request[r]
            for r in request
        ]
        score_self = ([search[r] - geo.get(r, 0.0) for r in search]
                      if geo else [])
        return {
            "trace.request_ms": _median(request.values()),
            "trace.accounted_share": _median(accounted),
            "serving.http.parse_ms": _median(parse.values()),
            "serving.http.request_bytes": _mean(extra.get("request_bytes", [])),
            "serving.http.serialize_ms": _median(serialize.values()),
            "serving.http.response_bytes": _mean(extra.get("response_bytes", [])),
            "serving.batcher.wait_ms": _median(wait.values()),
            "embeddings.embed_ms": _median(embed.values()),
            "vectordb.filters.geo_eval_ms": _median(geo.values()),
            "vectordb.filters.points_scanned_per_match":
                _mean(extra.get("scanned_per_match", [])),
            "vectordb.filters.selectivity": _mean(extra.get("selectivity", [])),
            "vectordb.collection.search_ms": _median(search.values()),
            "vectordb.collection.score_self_ms": _median(score_self),
            "vectordb.collection.brute_path_share": _mean(extra.get("brute", [])),
            "vectordb.hnsw.graph_search_ms":
                _median(rec.ms("vectordb.hnsw.graph_search").values()),
            "vectordb.flat.exact_search_ms":
                _median(rec.ms("vectordb.flat.exact_search").values()),
            "vectordb.hnsw.recall_at_10": _mean(extra.get("hnsw_recall", [])),
            "vectordb.sharded.shard_sum_ms": _median(extra.get("shard_sum", [])),
            "vectordb.sharded.shard_max_ms": _median(extra.get("shard_max", [])),
            "vectordb.sharded.total_ms":
                _median(rec.ms("vectordb.sharded.search").values()),
            "core.filtering.run_ms": _median(filtering.values()),
            "core.refinement.run_ms": _median(refinement.values()),
            "core.refinement.accept_ratio": _mean(extra.get("accept_ratio", [])),
            "core.pipeline.query_ms": _median(pipeline.values()),
            "core.pipeline.self_ms": _median(
                pipeline[r] - filtering[r] - refinement[r] for r in pipeline),
            "llm.prompt_tokens_per_query": _mean(extra.get("prompt_tokens", [])),
            "llm.completion_tokens_per_query":
                _mean(extra.get("completion_tokens", [])),
            "llm.cost_usd_per_query": _mean(extra.get("cost_usd", [])),
            "llm.modeled_latency_s": _mean(extra.get("modeled_latency_s", [])),
            "trace.replayed_requests": float(replayed),
        }

    def _writes(self, requests: list[Request], reads, workdir: Path) -> dict:
        """Upserts on a WAL-attached load of a snapshot copy, and the
        same reads timed before and after them."""
        copy = workdir / "replay-writes"
        shutil.copytree(self._corpus.snapshot, copy)
        prepared = load_prepared(copy, mmap=True, wal="batch")
        try:
            client = prepared.client
            collection = client.get_collection(spec.COLLECTION)
            span = self.recorder.span

            def time_reads(name: str) -> float:
                for rid, request in reads:
                    vector = np.asarray(request.body["vector"], dtype=np.float32)
                    flt = filter_from_json(request.body.get("filter"))
                    with span(name, rid):
                        client.search(spec.COLLECTION, vector, spec.K, flt=flt)
                return _median(self.recorder.ms(name).values())

            before = time_reads("vectordb.collection.search.pre_write")
            wal_before = collection.wal_stats() or {"records": 0, "bytes": 0}
            upserts = [(rid, r) for rid, r in enumerate(requests)
                       if r.op == "upsert"][:spec.REPLAY_UPSERTS]
            for rid, request in upserts:
                point = request.body["points"][0]
                struct = PointStruct(
                    id=point["id"],
                    vector=np.asarray(point["vector"], dtype=np.float32),
                    payload=point["payload"],
                )
                with span("vectordb.collection.upsert", rid):
                    client.upsert(spec.COLLECTION, [struct])
            wal_after = collection.wal_stats() or wal_before
            after = time_reads("vectordb.collection.search.post_write")
            records = wal_after["records"] - wal_before["records"]
            return {
                "vectordb.collection.upsert_ms": _median(
                    self.recorder.ms("vectordb.collection.upsert").values()),
                "vectordb.wal.records": float(records),
                "vectordb.wal.bytes_per_upsert":
                    (wal_after["bytes"] - wal_before["bytes"]) / max(records, 1),
                "vectordb.collection.post_write_search_ms": after - before,
            }
        finally:
            prepared.client.close()
            shutil.rmtree(copy, ignore_errors=True)  # the WAL sibling lives inside


def calibration() -> dict[str, float]:
    """Same-runner kernels: tell a slow box from a slow commit."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512)).astype(np.float32)
    started = time.perf_counter()
    for _ in range(20):
        a @ a
    numpy_ms = (time.perf_counter() - started) * 1e3
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    python_ms = (time.perf_counter() - started) * 1e3
    return {"calibration.numpy_ms": numpy_ms, "calibration.python_ms": python_ms}
