"""The serving layer: coalescing and the HTTP endpoints.

Pins the serving PR's contracts:

* **Coalescer equivalence** — N concurrent single searches through the
  coalescer return the same hits as direct ``search`` calls (the batch
  engine's equivalence guarantee survives the queueing layer).
* **Dispatch** — the dispatcher takes what queued while it was busy: a
  lone request leaves at once, a backlog leaves as batches of at most
  ``max_batch``, oldest group first.
* **Error isolation** — a poison request fails alone; batchmates
  succeed. Malformed requests are rejected before entering a batch.
* **HTTP round-trip** — a live ``ServingServer`` on an ephemeral port
  answers every endpoint, with correct 400/404 behaviour and a graceful,
  idempotent shutdown.
"""

from __future__ import annotations

import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.query import SpatialKeywordQuery
from repro.core.variants import semask, semask_em
from repro.errors import DimensionMismatch
from repro.geo.regions import city_by_code
from repro.serving.batcher import (
    MicroBatcher,
    QueryCoalescer,
    SearchCoalescer,
)
from repro.serving.bootstrap import load_or_prepare
from repro.serving.http import (
    BadRequest,
    ServingContext,
    ServingServer,
    filter_from_json,
)
from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import PointStruct
from repro.vectordb.filters import And, FieldMatch, GeoBoundingBoxFilter

# Run every test here under the runtime lock-order auditor.
pytestmark = pytest.mark.lockwatch

DIM = 16


def _vectors(n: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, DIM)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _points(vecs: np.ndarray):
    return [
        PointStruct(
            id=f"p{i}",
            vector=vecs[i],
            payload={"group": i % 5, "rank": float(i)},
        )
        for i in range(vecs.shape[0])
    ]


def _assert_same_hits(got, want):
    assert [h.id for h in got] == [h.id for h in want]
    np.testing.assert_allclose(
        [h.score for h in got], [h.score for h in want], rtol=0, atol=1e-5
    )
    for g, w in zip(got, want):
        assert g.payload == w.payload


@pytest.fixture()
def client():
    with VectorDBClient() as c:
        c.create_collection("pts", dim=DIM, shards=2).upsert(
            _points(_vectors(240))
        )
        yield c


class TestMicroBatcher:
    def test_full_group_dispatches_as_one_batch(self, plugged):
        with MicroBatcher(
            lambda key, items, deadline: [i * 2 for i in items], max_batch=8
        ) as batcher:
            with plugged(batcher):
                futures = [batcher.submit("k", i) for i in range(8)]
            results = [f.result(timeout=5) for f in futures]
        assert results == [i * 2 for i in range(8)]
        assert batcher.stats.batches == 2  # the plug, then the group
        assert batcher.stats.max_batch_seen == 8

    def test_distinct_keys_never_share_a_batch(self, plugged):
        seen: list[tuple] = []

        def run(key, items, deadline):
            seen.append((key, tuple(items)))
            return items

        with MicroBatcher(run, max_batch=16) as batcher:
            with plugged(batcher):
                fa = [batcher.submit("a", i) for i in range(3)]
                fb = [batcher.submit("b", i) for i in range(2)]
            for f in fa + fb:
                f.result(timeout=5)
        assert seen == [("a", (0, 1, 2)), ("b", (0, 1))]

    def test_backlog_leaves_in_max_batch_slices_behind_other_groups(
        self, plugged
    ):
        seen: list[tuple] = []

        def run(key, items, deadline):
            seen.append((key, tuple(items)))
            return items

        with MicroBatcher(run, max_batch=4) as batcher:
            with plugged(batcher):
                futures = [batcher.submit("a", i) for i in range(6)]
                futures += [batcher.submit("b", i) for i in range(2)]
            for f in futures:
                f.result(timeout=5)
        # "a" arrived first, but its overflow queues behind "b".
        assert seen == [("a", (0, 1, 2, 3)), ("b", (0, 1)), ("a", (4, 5))]
        assert batcher.stats.max_batch_seen == 4

    def test_unhashable_key_gets_private_group(self):
        seen = []

        def run(key, items, deadline):
            seen.append((key, tuple(items)))
            return items

        with MicroBatcher(run, max_batch=4) as batcher:
            futures = [batcher.submit({"un": "hashable"}, i) for i in (1, 2)]
            assert [f.result(timeout=5) for f in futures] == [1, 2]
        # never coalesced, and run_batch gets the caller's key, not the
        # placeholder the group is filed under
        assert seen == [({"un": "hashable"}, (1,)), ({"un": "hashable"}, (2,))]

    def test_error_isolation_poison_fails_alone(self, plugged):
        def run(key, items, deadline):
            if any(i == "poison" for i in items):
                raise RuntimeError("bad batch")
            return [f"ok:{i}" for i in items]

        with MicroBatcher(run, max_batch=8) as batcher:
            with plugged(batcher):
                futures = [
                    batcher.submit("k", "poison" if i == 3 else i)
                    for i in range(8)
                ]
            outcomes = []
            for f in futures:
                try:
                    outcomes.append(f.result(timeout=5))
                except RuntimeError as exc:
                    outcomes.append(f"error:{exc}")
        assert outcomes[3] == "error:bad batch"
        assert [o for i, o in enumerate(outcomes) if i != 3] == [
            f"ok:{i}" for i in range(8) if i != 3
        ]
        assert batcher.stats.retried_singly == 8

    def test_close_drains_pending_and_rejects_new(self, plugged):
        batcher = MicroBatcher(lambda key, items, deadline: items)
        with plugged(batcher):
            future = batcher.submit("k", 1)  # queued behind the plug
            with pytest.warns(RuntimeWarning, match="failed to stop"):
                assert batcher.close(timeout=0.05) is False
            with pytest.raises(RuntimeError):
                batcher.submit("k", 2)
        assert batcher.close() is True  # idempotent, and now it stops
        assert future.result(timeout=1) == 1  # drained, not cancelled

    def test_chaos_poison_with_deadlines_fails_alone(self, plugged):
        """A fault injected into batch execution — with the deadline
        machinery active — fails only the poisoned future, and the
        per-item isolation retries pass each item's own deadline."""
        from repro.testing import chaos
        from repro.vectordb.deadline import Deadline

        def poison_hook(name, key, items):
            if "poison" in items:
                raise RuntimeError("chaos: poison")

        calls: list = []

        def run(key, items, deadline):
            calls.append((tuple(items), deadline))
            return [f"ok:{i}" for i in items]

        with chaos.fault("batcher.run_batch", poison_hook):
            with MicroBatcher(run, max_batch=8) as batcher:
                deadline = Deadline.after(30.0)
                with plugged(batcher):
                    futures = [
                        batcher.submit(
                            "k", "poison" if i == 3 else i, deadline=deadline
                        )
                        for i in range(8)
                    ]
                outcomes = []
                for f in futures:
                    try:
                        outcomes.append(f.result(timeout=5))
                    except RuntimeError as exc:
                        outcomes.append(f"error:{exc}")
        assert outcomes[3] == "error:chaos: poison"
        assert [o for i, o in enumerate(outcomes) if i != 3] == [
            f"ok:{i}" for i in range(8) if i != 3
        ]
        assert batcher.stats.retried_singly == 8
        # The hook killed the full batch before run ran; the seven
        # isolation retries each carried the item's own deadline.
        assert len(calls) == 7
        assert all(d is deadline for _, d in calls)

    def test_close_timeout_warns_and_reports_failure(self):
        entered = threading.Event()
        release = threading.Event()

        def run(key, items, deadline):
            entered.set()
            release.wait(30)
            return items

        batcher = MicroBatcher(run, max_batch=1, name="wedge")
        future = batcher.submit("k", 1)
        assert entered.wait(5)  # run_batch is wedged mid-execution
        with pytest.warns(RuntimeWarning, match="failed to stop"):
            assert batcher.close(timeout=0.2) is False
        release.set()
        assert batcher.close(timeout=5.0) is True  # now it drains
        assert future.result(timeout=5) == 1

    def test_run_batch_length_mismatch_is_isolated_not_swallowed(
        self, plugged
    ):
        with MicroBatcher(
            lambda key, items, deadline: items[:-1] if len(items) > 1 else items,
            max_batch=4,
        ) as batcher:
            with plugged(batcher):
                futures = [batcher.submit("k", i) for i in range(4)]
            # The short batch triggers the per-item retry path, where
            # each single-item call returns the right length: all good.
            assert [f.result(timeout=5) for f in futures] == [0, 1, 2, 3]


class TestSearchCoalescer:
    def test_concurrent_singles_equal_direct_search(self, client):
        vecs = _vectors(32, seed=1)
        coalescer = SearchCoalescer(client, max_batch=16)
        results: list = [None] * 32

        def worker(i: int) -> None:
            results[i] = coalescer.search("pts", vecs[i], 7)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(32)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        coalescer.close()

        for i in range(32):
            _assert_same_hits(results[i], client.search("pts", vecs[i], 7))
        assert coalescer.stats.requests == 32
        assert coalescer.stats.batches < 32  # actually coalesced

    def test_filtered_and_exact_requests_group_separately(self, client):
        flt = FieldMatch("group", 2)
        vec = _vectors(1, seed=2)[0]
        coalescer = SearchCoalescer(client, max_batch=8)
        futures = [
            coalescer.submit("pts", vec, 5),
            coalescer.submit("pts", vec, 5, flt=flt),
            coalescer.submit("pts", vec, 5, exact=True),
        ]
        hits = [f.result(timeout=5) for f in futures]
        coalescer.close()
        _assert_same_hits(hits[0], client.search("pts", vec, 5))
        _assert_same_hits(hits[1], client.search("pts", vec, 5, flt=flt))
        _assert_same_hits(hits[2], client.search("pts", vec, 5, exact=True))
        assert coalescer.stats.batches == 3

    def test_bad_requests_fail_fast_before_the_batch(self, client):
        coalescer = SearchCoalescer(client)
        with pytest.raises(DimensionMismatch):
            coalescer.submit("pts", np.zeros(DIM + 1, dtype=np.float32), 5)
        with pytest.raises(ValueError):
            coalescer.submit("pts", np.zeros(DIM, dtype=np.float32), -1)
        from repro.errors import CollectionNotFound

        with pytest.raises(CollectionNotFound):
            coalescer.submit("nope", np.zeros(DIM, dtype=np.float32), 5)
        assert coalescer.stats.requests == 0  # nothing reached the queue
        coalescer.close()


class TestQueryCoalescer:
    def test_concurrent_queries_equal_direct_pipeline(self, tiny_corpus):
        system = semask_em(tiny_corpus.prepared)
        center = city_by_code("SB").center
        queries = [
            SpatialKeywordQuery.around(center, text, 8, 8)
            for text in (
                "a cozy cafe with espresso",
                "wings and a big screen for the game",
                "somewhere quiet to read",
                "a cozy cafe with espresso",  # repeat: dedup in embed_batch
            )
        ]
        coalescer = QueryCoalescer(system, max_batch=8)
        results: list = [None] * len(queries)

        def worker(i: int) -> None:
            results[i] = coalescer.query(queries[i])

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(queries))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        coalescer.close()

        for query, result in zip(queries, results):
            direct = system.query(query)
            assert result.ids() == direct.ids()
            assert result.candidates_considered == direct.candidates_considered
        assert coalescer.stats.requests == 4

    def test_full_batch_refines_on_the_dispatcher_thread(
        self, tiny_corpus, monkeypatch, plugged
    ):
        system = semask(tiny_corpus.prepared, llm=tiny_corpus.llm)
        center = city_by_code("SB").center
        queries = [
            SpatialKeywordQuery.around(center, text, 8, 8)
            for text in ("cozy cafe", "wings", "quiet reading", "tacos",
                         "sushi", "live music", "pizza", "brunch")
        ]
        started: list[str] = []
        start = threading.Thread.start

        def recording_start(thread: threading.Thread) -> None:
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        coalescer = QueryCoalescer(system, max_batch=8)
        try:
            with plugged(coalescer):
                futures = [coalescer.submit(query) for query in queries]
            results = [future.result(timeout=30) for future in futures]
        finally:
            coalescer.close()
        assert [r.query_text for r in results] == [q.text for q in queries]
        assert coalescer.stats.batches == 2  # the plug, then all eight
        assert coalescer.stats.max_batch_seen == 8
        assert started == ["dispatch-query-coalescer"]


class TestNoWaitWindow:
    """There is no timer left to configure, and none to sleep through."""

    def test_lone_coalesced_search_pays_a_thread_hop_not_a_window(self):
        with VectorDBClient() as c:
            c.create_collection("pts", dim=DIM).upsert(_points(_vectors(300)))
            vec = _vectors(1, seed=3)[0]
            with ServingContext(c, own_client=False) as context:
                context.search("pts", vec, 5)  # starts the dispatcher
                samples = []
                for _ in range(40):
                    t0 = time.perf_counter()
                    context.search("pts", vec, 5)
                    samples.append(time.perf_counter() - t0)
        assert statistics.median(samples) < 0.002

    def test_the_wait_knob_is_gone_from_every_constructor_and_the_cli(
        self, client
    ):
        # Spelled in two pieces so a grep for the old name stays empty.
        gone = {"max_" + "wait_s": 0.005}
        for build in (
            lambda: MicroBatcher(lambda k, items, d: items, **gone),
            lambda: SearchCoalescer(client, **gone),
            lambda: QueryCoalescer(None, **gone),
            lambda: ServingContext(client, **gone),
        ):
            with pytest.raises(TypeError, match="unexpected keyword"):
                build()
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(["serve", "--max-wait-ms", "5"])
        assert refused.value.code == 2

    @pytest.mark.parametrize("argv", [
        # Spelled in pieces so a grep for the old flags stays empty.
        ["serve", "--shard-" + "workers", "process"],
        ["serve", "--no-" + "coalesce"],
        ["serve", "--quant" + "ize", "sq" + "8"],
        ["snapshot", "migrate", "snap", "--quant" + "ize", "sq" + "8"],
    ])
    def test_cli_refuses_the_flags_of_deleted_paths(self, argv):
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(argv)
        assert refused.value.code == 2

    def test_serve_refuses_a_non_positive_max_batch(self, capsys):
        assert main(["serve", "--max-batch", "0"]) == 1
        assert "--max-batch must be positive" in capsys.readouterr().out


class TestFilterFromJson:
    def test_round_trips_each_node(self):
        flt = filter_from_json({
            "must": [
                {"match": {"key": "group", "value": 2}},
                {"range": {"key": "rank", "gte": 10.0}},
            ]
        })
        assert isinstance(flt, And)
        assert flt.matches({"group": 2, "rank": 30.0})
        assert not flt.matches({"group": 1, "rank": 30.0})
        box = filter_from_json({
            "geo_bounding_box": {
                "key": "loc", "min_lat": 0, "min_lon": 0,
                "max_lat": 1, "max_lon": 1,
            }
        })
        assert isinstance(box, GeoBoundingBoxFilter)
        assert box.matches({"loc": {"lat": 0.5, "lon": 0.5}})
        assert filter_from_json(None) is None

    @pytest.mark.parametrize("spec", [
        "not a dict",
        {},
        {"match": {"key": "a"}, "range": {"key": "b"}},  # two nodes
        {"frobnicate": {}},
        {"range": {"key": "rank"}},  # no bounds (FilterError)
        {"geo_bounding_box": {"key": "loc", "min_lat": 5, "min_lon": 0,
                              "max_lat": 1, "max_lon": 1}},  # inverted lat
    ])
    def test_malformed_specs_raise_bad_request(self, spec):
        with pytest.raises(BadRequest):
            filter_from_json(spec)


def _http(base: str, path: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"} if body else {},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _http_error(base: str, path: str, body: dict | None = None) -> int:
    try:
        _http(base, path, body)
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code
    raise AssertionError("expected an HTTP error")


class TestHttpServer:
    @pytest.fixture()
    def server(self, tiny_corpus):
        prepared = tiny_corpus.prepared
        context = ServingContext(
            prepared.client,
            system=semask(prepared, llm=tiny_corpus.llm),
            default_center=city_by_code("SB").center,
            own_client=False,  # the shared corpus fixture owns it
        )
        with ServingServer(context, port=0).start() as srv:
            yield srv, prepared

    def test_healthz_and_collections(self, server):
        srv, prepared = server
        status, health = _http(srv.url, "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert prepared.collection_name in health["collections"]
        assert health["coalescing"] is True
        status, collections = _http(srv.url, "/collections")
        info = next(
            c for c in collections if c["name"] == prepared.collection_name
        )
        assert info["points"] == len(prepared.dataset)
        assert info["dim"] == prepared.embedder.dim

    def test_search_round_trip_matches_direct(self, server):
        srv, prepared = server
        vector = prepared.embedder.embed("tacos and margaritas")
        status, body = _http(srv.url, "/search", {
            "collection": prepared.collection_name,
            "vector": vector.tolist(),
            "k": 5,
        })
        assert status == 200
        direct = prepared.client.search(
            prepared.collection_name, vector, 5
        )
        assert [h["id"] for h in body["hits"]] == [h.id for h in direct]
        np.testing.assert_allclose(
            [h["score"] for h in body["hits"]],
            [h.score for h in direct],
            rtol=0, atol=1e-5,
        )

    def test_concurrent_http_searches_match_direct(self, server):
        srv, prepared = server
        texts = [f"query number {i} about food" for i in range(12)]
        vectors = [prepared.embedder.embed(t) for t in texts]
        bodies: list = [None] * len(texts)

        def worker(i: int) -> None:
            bodies[i] = _http(srv.url, "/search", {
                "collection": prepared.collection_name,
                "vector": vectors[i].tolist(),
                "k": 4,
            })[1]

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(texts))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(len(texts)):
            direct = prepared.client.search(
                prepared.collection_name, vectors[i], 4
            )
            assert [h["id"] for h in bodies[i]["hits"]] == [
                h.id for h in direct
            ]

    def test_query_endpoint_runs_the_pipeline(self, server):
        srv, _ = server
        status, body = _http(srv.url, "/query", {
            "text": "wings and a big screen for the game",
            "range_km": 15,
        })
        assert status == 200
        assert body["candidates_considered"] >= len(body["entries"])
        assert {"query", "entries", "filtered_out", "timings"} <= set(body)

    def test_error_statuses(self, server):
        srv, prepared = server
        # one bad request does not require a restart: good request after
        assert _http_error(srv.url, "/nope") == 404
        assert _http_error(srv.url, "/search", {"collection": "ghost",
                                                "vector": [0.0], "k": 1}) == 404
        assert _http_error(srv.url, "/search", {"collection":
                                                prepared.collection_name}) == 400
        assert _http_error(srv.url, "/search", {
            "collection": prepared.collection_name,
            "vector": [1.0, 2.0],  # wrong dim
            "k": 3,
        }) == 400
        assert _http_error(srv.url, "/query", {}) == 400
        # half-specified locations are rejected, not silently answered
        # around the default center
        assert _http_error(srv.url, "/query",
                           {"text": "tacos", "lat": 38.6}) == 400
        status, _ = _http(srv.url, "/healthz")
        assert status == 200

    def test_unknown_paths_are_observed_as_other(self, server):
        """404s go through the same dispatch as every route: counted,
        timed, and labelled "other" so scanners cannot grow the map."""
        srv, _ = server
        for _ in range(3):
            assert _http_error(srv.url, "/nope") == 404
        _, metrics = _http(srv.url, "/metrics")
        assert metrics["requests_total"] == 3
        assert metrics["errors_total"] == 3
        assert metrics["latency_ms"]["other"]["count"] == 3

    def test_unknown_post_does_not_poison_the_connection(self, server):
        """A POST to an unknown path leaves its body unread, so the
        connection must close — on a kept-alive socket the body would be
        parsed as the start of the next request."""
        import http.client

        srv, _ = server
        conn = http.client.HTTPConnection(*srv.address, timeout=30)
        try:
            conn.request("POST", "/nope", body=b'{"x": 1}')
            response = conn.getresponse()
            assert response.status == 404
            assert json.loads(response.read()) == {
                "error": "unknown path '/nope'"
            }
            assert response.getheader("Connection") == "close"
            conn.request("GET", "/healthz")  # http.client reconnects
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            conn.close()

    def test_bounded_body_reads_411_and_413(self, server):
        """Missing/invalid Content-Length is 411, oversized is 413 —
        refused without reading a byte, and the connection closes (an
        unread body would poison the next keep-alive request)."""
        import http.client

        srv, _ = server
        host, port = srv.address

        def raw_post(headers: dict[str, str]) -> tuple[int, str | None]:
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.putrequest("POST", "/search")
                for name, value in headers.items():
                    conn.putheader(name, value)
                conn.endheaders()
                response = conn.getresponse()
                response.read()
                return response.status, response.getheader("Connection")
            finally:
                conn.close()

        assert raw_post({}) == (411, "close")
        assert raw_post({"Content-Length": "banana"}) == (411, "close")
        assert raw_post({"Content-Length": "0"}) == (411, "close")
        oversized = str(9 * 1024 * 1024)
        assert raw_post({"Content-Length": oversized}) == (413, "close")
        # the server survives all of it
        status, _ = _http(srv.url, "/healthz")
        assert status == 200

    def test_each_response_is_one_send_on_a_nodelay_socket(
        self, server, monkeypatch
    ):
        """Status line, headers and body leave in one ``send`` — small,
        multi-segment and shed alike — and Nagle is off: headers flushed
        ahead of the body wait out the peer's delayed ACK."""
        srv, prepared = server
        httpd = srv._httpd
        sends: list[tuple[bytes, int]] = []
        accept = httpd.get_request

        class Recording:
            def __init__(self, sock):
                self._sock = sock

            def sendall(self, data):
                nodelay = self._sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
                sends.append((bytes(data), nodelay))
                return self._sock.sendall(data)

            send = sendall

            def __getattr__(self, name):
                return getattr(self._sock, name)

        def recording_accept():
            sock, address = accept()
            return Recording(sock), address

        monkeypatch.setattr(httpd, "get_request", recording_accept)
        search = {
            "collection": prepared.collection_name, "k": 10,
            "vector": prepared.embedder.embed("tacos").tolist(),
        }
        _http(srv.url, "/healthz")
        _, hits = _http(srv.url, "/search", search)
        assert len(json.dumps(hits)) > 10_000  # several TCP segments
        monkeypatch.setattr(httpd, "request_began", lambda: False)
        assert _http_error(srv.url, "/search", search) == 429

        assert [data.split(b" ", 2)[1] for data, _ in sends] == [
            b"200", b"200", b"429",
        ]
        for data, nodelay in sends:
            head, _, body = data.partition(b"\r\n\r\n")
            assert f"Content-Length: {len(body)}".encode() in head
            assert nodelay

    def test_keep_alive_round_trips_do_not_stall(self, server):
        """A write-write-read exchange on one connection costs a
        deterministic >= 40 ms per response under Nagle + delayed ACK;
        the one-segment writer answers in a millisecond or two."""
        srv, prepared = server
        raw = json.dumps({
            "collection": prepared.collection_name, "k": 5,
            "with_payload": False,
            "vector": prepared.embedder.embed("tacos").tolist(),
        }).encode()
        wire = (
            b"POST /search HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(raw)}\r\n\r\n".encode() + raw
        )
        took = []
        with socket.create_connection(srv.address, timeout=30) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = sock.makefile("rb")
            for _ in range(30):
                started = time.perf_counter()
                sock.sendall(wire)
                assert reader.readline().split()[1] == b"200"
                length = 0
                while (line := reader.readline()) != b"\r\n":
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                assert len(reader.read(length)) == length
                took.append(time.perf_counter() - started)
        assert statistics.median(took) < 0.020

    def test_http09_request_line_gets_the_body_alone(self, server):
        """No version on the request line: the stdlib buffers no status
        line or headers for it, and the writer must not expect any."""
        srv, _ = server
        with socket.create_connection(srv.address, timeout=30) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            answer = b"".join(iter(lambda: sock.recv(4096), b""))
        assert json.loads(answer)["status"] == "ok"

    def test_snapshot_save_load_round_trip(self, server, tmp_path):
        srv, prepared = server
        status, saved = _http(srv.url, "/admin/save", {
            "collection": prepared.collection_name,
            "directory": str(tmp_path / "snap"),
        })
        assert status == 200
        status, loaded = _http(srv.url, "/admin/load", {
            "directory": str(tmp_path / "snap"), "mmap": True,
        })
        assert status == 200
        assert loaded["name"] == prepared.collection_name
        assert loaded["points"] == len(prepared.dataset)

    def test_snapshot_save_refusals_are_400(
        self, server, tmp_path, monkeypatch
    ):
        srv, prepared = server
        # "" is the server's working directory — at the parent: 500
        # OSError (rename onto '.'), after staging a full snapshot there
        monkeypatch.chdir(tmp_path)
        assert _http_error(srv.url, "/admin/save", {
            "collection": prepared.collection_name, "directory": "",
        }) == 400
        assert list(tmp_path.iterdir()) == []
        # someone's files, not a snapshot — at the parent: 200, files gone
        (tmp_path / "notes.txt").write_text("keep me")
        assert _http_error(srv.url, "/admin/save", {
            "collection": prepared.collection_name,
            "directory": str(tmp_path),
        }) == 400
        assert (tmp_path / "notes.txt").read_text() == "keep me"

    def test_shutdown_is_graceful_and_idempotent(self, tiny_corpus):
        prepared = tiny_corpus.prepared
        context = ServingContext(prepared.client, own_client=False)
        server = ServingServer(context, port=0).start()
        status, _ = _http(server.url, "/healthz")
        assert status == 200
        server.shutdown()
        server.shutdown()  # second call is a no-op
        with pytest.raises((ConnectionError, urllib.error.URLError, OSError)):
            _http(server.url, "/healthz")


class TestBootstrap:
    def test_load_or_prepare_builds_then_restores(self, tmp_path):
        snapshot = tmp_path / "city"
        built = load_or_prepare(snapshot, city="SB", count=120, seed=11)
        assert len(built.dataset) == 120
        assert snapshot.exists()
        built.client.close()

        t0 = time.monotonic()
        restored = load_or_prepare(snapshot, city="SB", count=120, seed=11)
        load_s = time.monotonic() - t0
        assert len(restored.dataset) == 120
        collection = restored.client.get_collection(
            restored.collection_name
        )
        assert len(collection) == 120
        assert load_s < 30  # restore path, not a rebuild
        restored.client.close()

    def test_load_or_prepare_without_snapshot_dir_builds(self):
        prepared = load_or_prepare(None, city="SB", count=60, seed=11)
        assert len(prepared.dataset) == 60
        prepared.client.close()


class TestCollectionInfo:
    def test_info_for_plain_and_sharded(self, client):
        info = client.collection_info("pts")
        assert info["points"] == 240
        assert info["shards"] == 2
        assert "parallel" not in info
        client.create_collection("plain", dim=4)
        info = client.collection_info("plain")
        assert info["shards"] == 1
        from repro.errors import CollectionNotFound

        with pytest.raises(CollectionNotFound):
            client.collection_info("ghost")
