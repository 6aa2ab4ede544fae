"""Fleet-ready serving: deadlines, backpressure, replica routing, chaos.

Pins the resilience PR's contracts, each proven under injected faults
(:mod:`repro.testing.chaos`) rather than assumed:

* **Deadline budgets** — a request's ``X-Repro-Deadline-Ms`` budget is
  carried to every choke point; an expired budget answers 504 *without*
  dispatching the shard fan-out, and over-budget items are dropped at
  batch pickup instead of executed.
* **Backpressure** — the coalescer's ``max_pending`` queue and the HTTP
  server's ``max_inflight`` cap shed with 429 + ``Retry-After`` instead
  of queueing without bound; admitted requests are unaffected.
* **Chaos harness** — :class:`~repro.testing.chaos.ChaosProxy` produces
  the fault menagerie (refuse, canned 500, first-byte delay, slow read,
  mid-stream reset) the router tests consume.
* **Replica router** — reads round-robin and fail over across replicas
  within one health-check interval of a backend dying; a dead backend is
  ejected and heals through half-open; writes are pinned to the primary
  and **never** retried.
* **Durability under fleet failure** — SIGKILLing the primary replica
  mid-write-burst loses zero acknowledged writes (WAL replay on reload)
  while interleaved reads keep succeeding through the router.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.errors import DeadlineExceeded, ServerOverloaded
from repro.serving.batcher import MicroBatcher
from repro.serving.http import ServingContext, ServingServer
from repro.serving.metrics import LatencyHistogram
from repro.serving.router import (
    Backend,
    ReplicaRouter,
    RetryPolicy,
    RouterServer,
)
from repro.testing import ChaosProxy, chaos
from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import Collection, PointStruct
from repro.vectordb.deadline import Deadline

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
            id=f"p{i}", vector=vecs[i], payload={"group": i % 5}
        )
        for i in range(vecs.shape[0])
    ]


def _search_body(vector: np.ndarray, k: int = 5) -> dict:
    return {"collection": "pts", "vector": vector.tolist(), "k": k}


def _http(base: str, path: str, body: dict | None = None,
          headers: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    all_headers = {"Content-Type": "application/json"} if body else {}
    all_headers.update(headers or {})
    request = urllib.request.Request(base + path, data=data,
                                     headers=all_headers)
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _serving_server(
    n_points: int = 120,
    coalesce: bool = False,
    max_pending: int | None = None,
    max_inflight: int | None = None,
) -> ServingServer:
    """A live server over a fresh 2-shard collection (owned: shutdown
    closes the client)."""
    client = VectorDBClient()
    client.create_collection("pts", dim=DIM, shards=2).upsert(
        _points(_vectors(n_points))
    )
    context = ServingContext(
        client, coalesce=coalesce, max_pending=max_pending
    )
    return ServingServer(
        context, port=0, max_inflight=max_inflight
    ).start()


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------


class TestDeadline:
    def test_construction_and_expiry(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        assert 59.0 < deadline.remaining_s() <= 60.0
        deadline.check("anything")  # no raise while live
        spent = Deadline.after(0.0)
        assert spent.expired
        assert spent.remaining_s() == 0.0
        with pytest.raises(DeadlineExceeded, match="before scoring"):
            spent.check("scoring")

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)
        with pytest.raises(ValueError):
            Deadline.after_ms(-5.0)

    def test_after_ms_matches_after(self):
        a = Deadline.after_ms(1500.0)
        b = Deadline.after(1.5)
        assert abs(a.expires_at - b.expires_at) < 0.1

    def test_engine_choke_points_refuse_expired_work(self):
        with VectorDBClient() as client:
            client.create_collection("pts", dim=DIM, shards=2).upsert(
                _points(_vectors(60))
            )
            vec = _vectors(1, seed=3)[0]
            live = client.search("pts", vec, 3, deadline=Deadline.after(30))
            assert len(live) == 3
            with pytest.raises(DeadlineExceeded):
                client.search("pts", vec, 3, deadline=Deadline.after(0))
            with pytest.raises(DeadlineExceeded):
                client.search_batch(
                    "pts", _vectors(2, seed=4), 3, deadline=Deadline.after(0)
                )

    def test_expired_deadline_never_reaches_shard_fan_out(self):
        with VectorDBClient() as client:
            collection = client.create_collection("pts", dim=DIM, shards=2)
            collection.upsert(_points(_vectors(60)))
            dispatched = []
            real_fan_out = collection._fan_out

            def counting_fan_out(*args, **kwargs):
                dispatched.append(args[0])
                return real_fan_out(*args, **kwargs)

            collection._fan_out = counting_fan_out
            vec = _vectors(1, seed=5)[0]
            with pytest.raises(DeadlineExceeded):
                collection.search(vec, 3, deadline=Deadline.after(0))
            assert dispatched == []  # refused before any shard saw work
            collection.search(vec, 3, deadline=Deadline.after(30))
            assert dispatched == ["search_batch"]


def _slow_first_shard(monkeypatch, sleep_s: float) -> list[str]:
    """Make the first shard search of the fan-out outlive ``sleep_s``;
    returns the (live) list of shard names whose search ran to the end."""
    finished: list[str] = []
    real_search_batch = Collection.search_batch

    def spy(self, *args, **kwargs):
        hits = real_search_batch(self, *args, **kwargs)
        if not finished:
            time.sleep(sleep_s)
        finished.append(self.name)
        return hits

    monkeypatch.setattr(Collection, "search_batch", spy)
    return finished


class TestDeadlineBetweenShards:
    """A budget the first shard spends stops the loop before the second:
    the remaining shards are never scored."""

    def test_engine_raises_and_skips_remaining_shards(self, monkeypatch):
        with VectorDBClient() as client:
            collection = client.create_collection("pts", dim=DIM, shards=4)
            collection.upsert(_points(_vectors(120)))
            finished = _slow_first_shard(monkeypatch, 0.2)
            with pytest.raises(DeadlineExceeded, match="search_batch"):
                collection.search(
                    _vectors(1, seed=8)[0], 3, deadline=Deadline.after(0.1)
                )
            assert finished == ["pts/shard-00"]

    def test_http_answers_504(self, monkeypatch):
        with _serving_server() as server:
            finished = _slow_first_shard(monkeypatch, 0.2)
            with pytest.raises(urllib.error.HTTPError) as caught:
                _http(server.url, "/search",
                      _search_body(_vectors(1, seed=8)[0]),
                      headers={"X-Repro-Deadline-Ms": "100"})
            assert caught.value.code == 504
            caught.value.read()
            assert finished == ["pts/shard-00"]


class TestHttpDeadline:
    @pytest.fixture()
    def server(self):
        with _serving_server() as srv:
            yield srv

    def test_expired_budget_is_504_without_fan_out(self, server):
        # Reach inside the live server to count fan-out dispatches.
        collection = server._context.client.get_collection("pts")
        dispatched = []
        real_fan_out = collection._fan_out

        def counting_fan_out(*args, **kwargs):
            dispatched.append(args[0])
            return real_fan_out(*args, **kwargs)

        collection._fan_out = counting_fan_out
        vec = _vectors(1, seed=6)[0]
        try:
            _http(server.url, "/search", _search_body(vec),
                  headers={"X-Repro-Deadline-Ms": "0"})
            raise AssertionError("expected 504")
        except urllib.error.HTTPError as exc:
            assert exc.code == 504
            exc.read()
        assert dispatched == []
        status, body = _http(server.url, "/search", _search_body(vec),
                             headers={"X-Repro-Deadline-Ms": "30000"})
        assert status == 200 and len(body["hits"]) == 5
        assert dispatched == ["search_batch"]
        status, metrics = _http(server.url, "/metrics")
        assert metrics["deadline_exceeded_total"] == 1

    def test_client_hanging_up_is_not_a_server_error(self, server, capfd):
        """A peer that closes before reading (the router's deadline-capped
        attempts do) gets no traceback, and the server keeps serving."""
        payload = json.dumps(_search_body(_vectors(1, seed=12)[0])).encode()
        entered, gone = threading.Event(), threading.Event()

        def hold(method, path):
            entered.set()
            gone.wait(5)

        with chaos.fault("http.request", hold):
            with socket.create_connection(server.address) as sock:
                sock.sendall(
                    b"POST /search HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(payload) + payload
                )
                assert entered.wait(5)
            gone.set()  # the handler now answers a closed socket
        assert server._httpd.wait_idle(timeout=5)
        status, body = _http(
            server.url, "/search", _search_body(_vectors(1, seed=12)[0])
        )
        assert status == 200 and len(body["hits"]) == 5
        assert capfd.readouterr().err == ""

    def test_malformed_deadline_header_is_400(self, server):
        vec = _vectors(1, seed=6)[0]
        for bad in ("banana", "-20"):
            try:
                _http(server.url, "/search", _search_body(vec),
                      headers={"X-Repro-Deadline-Ms": bad})
                raise AssertionError("expected 400")
            except urllib.error.HTTPError as exc:
                assert exc.code == 400
                exc.read()


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------


class TestBatcherBackpressure:
    def test_full_queue_sheds_instead_of_blocking(self):
        entered = threading.Event()
        release = threading.Event()

        def run(key, items, deadline):
            entered.set()
            release.wait(30)
            return items

        batcher = MicroBatcher(run, max_batch=1, max_pending=2, name="bp")
        try:
            first = batcher.submit("k", 1)
            assert entered.wait(5)  # item 1 dequeued, run_batch wedged
            queued = [batcher.submit("k", 2), batcher.submit("k", 3)]
            assert batcher.pending == 2
            with pytest.raises(ServerOverloaded, match="queue is full"):
                batcher.submit("k", 4)
            assert batcher.stats.shed == 1
        finally:
            release.set()
            batcher.close()
        assert first.result(timeout=5) == 1
        assert [f.result(timeout=5) for f in queued] == [2, 3]

    def test_expired_items_dropped_at_dispatch_not_executed(self):
        entered = threading.Event()
        release = threading.Event()
        executed = []

        def run(key, items, deadline):
            entered.set()
            release.wait(30)
            executed.extend(items)
            return items

        batcher = MicroBatcher(run, max_batch=1, name="exp")
        try:
            blocker = batcher.submit("a", "blocker")
            assert entered.wait(5)
            doomed = batcher.submit("b", "doomed",
                                    deadline=Deadline.after_ms(20))
            time.sleep(0.05)  # its budget expires while the queue is stuck
        finally:
            release.set()
            batcher.close()
        assert blocker.result(timeout=5) == "blocker"
        with pytest.raises(DeadlineExceeded):
            doomed.result(timeout=5)
        assert executed == ["blocker"]  # the expired item never ran
        assert batcher.stats.expired == 1

    def test_expired_deadline_refused_at_submit(self):
        with MicroBatcher(lambda k, items, deadline: items, name="sub") as batcher:
            with pytest.raises(DeadlineExceeded):
                batcher.submit("k", 1, deadline=Deadline.after(0))
            assert batcher.stats.requests == 0  # nothing was enqueued

    def test_max_pending_validated(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda k, items, deadline: items, max_pending=0)


class TestHttpBackpressure:
    def test_inflight_cap_sheds_429_with_retry_after(self):
        with _serving_server(max_inflight=2) as srv:
            entered = threading.Event()
            release = threading.Event()
            seen = []

            def hook(method, path):
                if path == "/search":
                    seen.append(path)
                    if len(seen) >= 2:
                        entered.set()
                    release.wait(30)

            vec = _vectors(1, seed=8)[0]
            statuses: list[int] = []

            def occupy():
                status, _ = _http(srv.url, "/search", _search_body(vec))
                statuses.append(status)

            with chaos.fault("http.request", hook):
                workers = [
                    threading.Thread(target=occupy) for _ in range(2)
                ]
                for t in workers:
                    t.start()
                assert entered.wait(5)  # both slots held by wedged handlers
                try:
                    _http(srv.url, "/search", _search_body(vec))
                    raise AssertionError("expected 429")
                except urllib.error.HTTPError as exc:
                    assert exc.code == 429
                    assert exc.headers.get("Retry-After") == "1"
                    exc.read()
                release.set()
                for t in workers:
                    t.join(timeout=10)
            assert statuses == [200, 200]  # admitted requests unharmed
            status, metrics = _http(srv.url, "/metrics")
            assert metrics["inflight_shed_total"] >= 1
            assert metrics["shed_total"] >= 1

    def test_coalescer_queue_full_sheds_429(self):
        with _serving_server(coalesce=True, max_pending=1) as srv:
            entered = threading.Event()
            release = threading.Event()

            def hook(name, key, items):
                entered.set()
                release.wait(30)

            vec = _vectors(1, seed=9)[0]
            statuses: list[int] = []

            def call():
                status, _ = _http(srv.url, "/search", _search_body(vec))
                statuses.append(status)

            context = srv._context
            with chaos.fault("batcher.run_batch", hook):
                wedged = threading.Thread(target=call)
                wedged.start()
                assert entered.wait(5)  # its batch holds the dispatcher
                queued = threading.Thread(target=call)
                queued.start()
                deadline = time.monotonic() + 5
                while context.queue_depths().get("search") != 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                try:
                    _http(srv.url, "/search", _search_body(vec))
                    raise AssertionError("expected 429")
                except urllib.error.HTTPError as exc:
                    assert exc.code == 429
                    assert exc.headers.get("Retry-After") == "1"
                    exc.read()
                release.set()
                wedged.join(timeout=10)
                queued.join(timeout=10)
            assert statuses == [200, 200]
            status, health = _http(srv.url, "/healthz")
            assert health["search_coalescer"]["shed"] >= 1
            assert health["backpressure"]["shed_total"] >= 1


class TestLatencyHistogram:
    def test_quantiles_are_conservative_upper_bounds(self):
        histogram = LatencyHistogram()
        for ms in (0.3, 1.5, 3.0, 8.0, 40.0, 150.0):
            histogram.observe(ms / 1000.0)
        snap = histogram.snapshot()
        assert snap["count"] == 6
        # Quantiles report the bucket's upper bound: never an
        # underestimate of the true latency at that rank.
        assert snap["p50_ms"] >= 3.0
        assert snap["p99_ms"] >= 150.0
        assert snap["max_ms"] == pytest.approx(150.0, rel=0.01)

    def test_overflow_bucket_reports_observed_max(self):
        histogram = LatencyHistogram()
        histogram.observe(120.0)  # 2 minutes: beyond every bucket bound
        assert histogram.quantile_ms(0.99) == pytest.approx(120000.0, rel=0.01)


# ----------------------------------------------------------------------
# chaos proxy
# ----------------------------------------------------------------------


class TestChaosProxy:
    @pytest.fixture()
    def backend(self):
        with _serving_server(n_points=60) as srv:
            yield srv

    def test_fault_menagerie_end_to_end(self, backend):
        host, port = backend.address
        with ChaosProxy(host, port) as proxy:
            # healthy pass-through
            status, body = _http(proxy.url, "/healthz")
            assert status == 200 and body["status"] == "ok"
            # canned 500 without touching the backend
            proxy.set_faults(respond_500=True)
            try:
                _http(proxy.url, "/healthz")
                raise AssertionError("expected 500")
            except urllib.error.HTTPError as exc:
                assert exc.code == 500
                exc.read()
            # connection reset
            proxy.set_faults(refuse=True)
            with pytest.raises((OSError, urllib.error.URLError,
                                http.client.HTTPException)):
                _http(proxy.url, "/healthz")
            # first-byte delay
            proxy.set_faults(delay_s=0.3)
            t0 = time.monotonic()
            status, _ = _http(proxy.url, "/healthz")
            assert status == 200
            assert time.monotonic() - t0 >= 0.25
            # slow read still completes intact
            proxy.set_faults(byte_rate=4000)
            status, body = _http(proxy.url, "/healthz")
            assert status == 200 and body["status"] == "ok"
            # mid-stream reset after 20 response bytes
            proxy.set_faults(reset_after_bytes=20)
            with pytest.raises((OSError, urllib.error.URLError,
                                http.client.HTTPException)):
                _http(proxy.url, "/healthz")
            # healed
            proxy.set_faults()
            status, _ = _http(proxy.url, "/healthz")
            assert status == 200
            assert proxy.connections_seen >= 7


# ----------------------------------------------------------------------
# replica router
# ----------------------------------------------------------------------


def _replica(n_points: int = 120) -> ServingServer:
    return _serving_server(n_points=n_points)


def _addr(server: ServingServer) -> str:
    host, port = server.address
    return f"{host}:{port}"


class TestRouterUnit:
    def test_backend_address_validation(self):
        backend = Backend("127.0.0.1:8080")
        assert backend.host == "127.0.0.1" and backend.port == 8080
        for bad in ("nohost", "host:", ":123", "host:port"):
            with pytest.raises(ValueError):
                Backend(bad)

    def test_router_constructor_validation(self):
        with pytest.raises(ValueError):
            ReplicaRouter([])
        with pytest.raises(ValueError):
            ReplicaRouter(["127.0.0.1:1"], eject_after=0)

    def test_retry_policy_backoff_bounds(self):
        policy = RetryPolicy(
            attempts=4, base_delay_s=0.1, multiplier=2.0,
            max_delay_s=0.5, jitter=0.5,
        )
        import random

        rng = random.Random(7)
        for attempt, cap in ((0, 0.1), (1, 0.2), (2, 0.4), (3, 0.5), (9, 0.5)):
            for _ in range(20):
                delay = policy.delay_s(attempt, rng)
                # jittered into [cap/2, cap]: spread out, never longer
                assert cap * 0.5 <= delay <= cap


class TestRouterRouting:
    @pytest.fixture()
    def pair(self):
        servers = [_replica(), _replica()]
        yield servers
        for server in servers:
            server.shutdown()  # idempotent: tests may already have

    def test_reads_round_robin_over_both(self, pair):
        router = ReplicaRouter([_addr(s) for s in pair],
                               health_interval_s=60.0)
        try:
            for _ in range(4):
                status, _ = router.forward("GET", "/collections", None, {})
                assert status == 200
            requests = [
                b["requests"] for b in router.snapshot()["backends"]
            ]
            assert requests == [2, 2]
        finally:
            router.close()

    def test_read_fails_over_when_a_replica_dies(self, pair):
        router = ReplicaRouter(
            [_addr(s) for s in pair], health_interval_s=60.0,
            eject_after=2, retry=RetryPolicy(attempts=2, base_delay_s=0.01),
        )
        try:
            pair[1].shutdown()
            # Rotation guarantees some reads start at the dead backend;
            # every one must still be answered by the survivor.
            for _ in range(4):
                status, body = router.forward("GET", "/collections", None, {})
                assert status == 200
                assert json.loads(body)[0]["points"] == 120
            assert router.failovers_total >= 1
            states = {
                b["address"]: b["state"]
                for b in router.snapshot()["backends"]
            }
            # Request-path failures alone eject it (no prober running).
            assert states[_addr(pair[1])] == "ejected"
        finally:
            router.close()

    def test_prober_ejects_a_dead_replica_within_interval(self, pair):
        interval = 0.05
        router = ReplicaRouter(
            [_addr(s) for s in pair], health_interval_s=interval,
            eject_after=2,
        ).start()
        try:
            killed_at = time.monotonic()
            pair[1].shutdown()
            while True:
                states = {
                    b["address"]: b["state"]
                    for b in router.snapshot()["backends"]
                }
                if states[_addr(pair[1])] == "ejected":
                    break
                assert time.monotonic() - killed_at < 5.0, (
                    "prober never ejected the dead replica"
                )
                time.sleep(0.01)
            # After ejection reads go straight to the survivor — no
            # failover penalty, well within one further interval.
            t0 = time.monotonic()
            status, _ = router.forward("GET", "/collections", None, {})
            assert status == 200
            assert time.monotonic() - t0 < 1.0
        finally:
            router.close()

    def test_writes_pin_to_primary_and_are_never_retried(self, pair):
        router = ReplicaRouter(
            [_addr(s) for s in pair], health_interval_s=60.0,
            retry=RetryPolicy(attempts=3, base_delay_s=0.01),
        )
        write = json.dumps({
            "collection": "pts",
            "points": [{
                "id": "fresh",
                "vector": _vectors(1, seed=20)[0].tolist(),
                "payload": {"group": 99},
            }],
        }).encode()
        headers = {"Content-Type": "application/json"}
        try:
            status, body = router.forward("POST", "/upsert", write, headers)
            assert status == 200
            assert json.loads(body)["points"] == 121  # primary grew
            # the secondary never saw the write
            status, body = router.forward("GET", "/collections", None, {})
            secondary = pair[1]._context.client.get_collection("pts")
            assert len(secondary) == 120

            pair[0].shutdown()  # kill the primary
            before = router.snapshot()["backends"][1]["requests"]
            status, body = router.forward("POST", "/upsert", write, headers)
            assert status == 502
            assert b"not retried" in body
            # one attempt only, and never against the secondary
            assert router.snapshot()["backends"][1]["requests"] == before
            assert len(secondary) == 120
        finally:
            router.close()

    def test_write_answers_503_once_primary_is_ejected(self, pair):
        router = ReplicaRouter([_addr(s) for s in pair],
                               health_interval_s=60.0, eject_after=1)
        try:
            pair[0].shutdown()
            router.probe_once()
            write = json.dumps({"collection": "pts", "points": []}).encode()
            status, body = router.forward(
                "POST", "/upsert", write,
                {"Content-Type": "application/json"},
            )
            assert status == 503
            assert b"primary" in body
        finally:
            router.close()

    def test_expired_deadline_is_504_without_an_attempt(self, pair):
        router = ReplicaRouter([_addr(s) for s in pair],
                               health_interval_s=60.0)
        try:
            vec = _vectors(1, seed=21)[0]
            body = json.dumps(_search_body(vec)).encode()
            status, payload = router.forward(
                "POST", "/search", body,
                {"Content-Type": "application/json",
                 "X-Repro-Deadline-Ms": "0"},
            )
            assert status == 504
            total = sum(
                b["requests"] for b in router.snapshot()["backends"]
            )
            assert total == 0  # no backend was bothered
        finally:
            router.close()

    def test_spent_budget_never_ejects_a_healthy_replica(self, pair):
        """A client's deadline running out mid-attempt is the client's
        problem: four such reads would be two strikes on each backend."""
        router = ReplicaRouter([_addr(s) for s in pair],
                               health_interval_s=60.0, eject_after=2)
        body = json.dumps(_search_body(_vectors(1, seed=22)[0])).encode()
        headers = {"Content-Type": "application/json"}

        def slow(method, path):
            time.sleep(0.2)  # ten budgets: every attempt is cut off

        try:
            with chaos.fault("http.request", slow):
                for _ in range(4):
                    status, _ = router.forward(
                        "POST", "/search", body,
                        {**headers, "X-Repro-Deadline-Ms": "20"},
                    )
                    assert status == 504
            snapshot = router.snapshot()
            assert [
                (b["state"], b["consecutive_failures"])
                for b in snapshot["backends"]
            ] == [("healthy", 0), ("healthy", 0)]
            assert snapshot["failovers_total"] == 0
            status, _ = router.forward("POST", "/search", body, headers)
            assert status == 200
        finally:
            router.close()

    def test_backend_504_is_an_answer_not_a_failure(self, pair):
        router = ReplicaRouter(
            [_addr(s) for s in pair], health_interval_s=60.0, eject_after=2,
            retry=RetryPolicy(attempts=3, base_delay_s=0.01),
        )
        body = json.dumps(_search_body(_vectors(1, seed=23)[0])).encode()
        headers = {"Content-Type": "application/json"}

        def out_of_budget(method, path):
            raise DeadlineExceeded("chaos: budget spent in the engine")

        try:
            with chaos.fault("http.request", out_of_budget):
                for _ in range(4):
                    status, payload = router.forward(
                        "POST", "/search", body,
                        {**headers, "X-Repro-Deadline-Ms": "30000"},
                    )
                    assert status == 504
                    assert b"budget spent in the engine" in payload
            snapshot = router.snapshot()
            # one attempt per read: returned as is, no failover, no retry
            assert [b["requests"] for b in snapshot["backends"]] == [2, 2]
            assert [b["state"] for b in snapshot["backends"]] == [
                "healthy", "healthy",
            ]
            assert snapshot["failovers_total"] == 0
            assert snapshot["retries_total"] == 0
            status, _ = router.forward("POST", "/search", body, headers)
            assert status == 200
        finally:
            router.close()


class TestRouterHealthStates:
    def test_ejected_heals_through_half_open(self):
        with _serving_server(n_points=60) as backend:
            host, port = backend.address
            with ChaosProxy(host, port) as proxy:
                proxy_host, proxy_port = proxy.address
                router = ReplicaRouter(
                    [f"{proxy_host}:{proxy_port}"],
                    health_interval_s=60.0, eject_after=2,
                    retry=RetryPolicy(attempts=1, base_delay_s=0.01),
                )
                try:
                    def state() -> str:
                        return router.snapshot()["backends"][0]["state"]

                    proxy.set_faults(refuse=True)
                    router.probe_once()
                    assert state() == "healthy"  # one strike is not enough
                    router.probe_once()
                    assert state() == "ejected"
                    status, _ = router.forward("GET", "/collections",
                                               None, {})
                    assert status == 503  # nothing in rotation

                    proxy.set_faults()  # backend recovers
                    router.probe_once()
                    assert state() == "half-open"  # on trial, in rotation
                    status, _ = router.forward("GET", "/collections",
                                               None, {})
                    assert status == 200
                    assert state() == "healthy"  # trial traffic healed it
                finally:
                    router.close()

    def test_half_open_re_ejects_on_one_strike(self):
        with _serving_server(n_points=60) as backend:
            host, port = backend.address
            with ChaosProxy(host, port) as proxy:
                proxy_host, proxy_port = proxy.address
                router = ReplicaRouter(
                    [f"{proxy_host}:{proxy_port}"],
                    health_interval_s=60.0, eject_after=2,
                )
                try:
                    proxy.set_faults(refuse=True)
                    router.probe_once()
                    router.probe_once()
                    proxy.set_faults()
                    router.probe_once()  # ejected -> half-open
                    proxy.set_faults(refuse=True)  # flaps again
                    router.probe_once()
                    state = router.snapshot()["backends"][0]["state"]
                    assert state == "ejected"  # one strike while on trial
                finally:
                    router.close()


class TestRouterServer:
    def test_http_front_forwards_and_bounds_bodies(self):
        with _serving_server(n_points=60) as backend:
            router = ReplicaRouter([_addr(backend)], health_interval_s=60.0)
            with RouterServer(router, port=0).start() as front:
                status, health = _http(front.url, "/router/healthz")
                assert status == 200
                assert health["backends"][0]["state"] == "healthy"
                # a real search, forwarded end to end
                vec = _vectors(1, seed=22)[0]
                status, body = _http(front.url, "/search", _search_body(vec))
                assert status == 200 and len(body["hits"]) == 5
                # deadline header rides through (and expires in the router)
                try:
                    _http(front.url, "/search", _search_body(vec),
                          headers={"X-Repro-Deadline-Ms": "0"})
                    raise AssertionError("expected 504")
                except urllib.error.HTTPError as exc:
                    assert exc.code == 504
                    exc.read()
                # bounded body reads, same contract as the serving server
                host, port = front.address
                conn = http.client.HTTPConnection(host, port, timeout=30)
                conn.putrequest("POST", "/search")
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 411
                response.read()
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
                conn.putrequest("POST", "/search")
                conn.putheader("Content-Length", str(9 * 1024 * 1024))
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 413
                response.read()
                conn.close()


def _unstarted_server(kind: str, **kwargs):
    """A bound-but-not-serving ServingServer or RouterServer (port 0)."""
    if kind == "serving":
        client = VectorDBClient()
        client.create_collection("pts", dim=DIM)
        context = ServingContext(client, coalesce=False)
        return ServingServer(context, port=0, **kwargs)
    router = ReplicaRouter(["127.0.0.1:1"], health_interval_s=60.0)
    return RouterServer(router, port=0, **kwargs)


class TestHttpServiceLifecycle:
    """Both fronts share one lifecycle; hold them to one set of assertions."""

    @pytest.mark.parametrize(
        "kind, probe",
        [("serving", "/healthz"), ("router", "/router/healthz")],
    )
    def test_lifecycle(self, kind, probe):
        with pytest.raises(ValueError, match="max_inflight"):
            _unstarted_server(kind, max_inflight=0)
        with _unstarted_server(kind, max_inflight=4) as server:
            host, port = server.address
            assert port != 0  # the ephemeral port is reported once bound
            assert server.url == f"http://{host}:{port}"
            assert server.start() is server
            assert server.start() is server  # second start is a no-op
            status, body = _http(server.url, probe)
            assert status == 200 and body["status"] == "ok"
        # the with block shut it down; further shutdowns are no-ops
        server.shutdown()
        server.shutdown()
        with pytest.raises(OSError):
            _http(server.url, probe)


# ----------------------------------------------------------------------
# fleet durability: SIGKILL the primary mid-burst
# ----------------------------------------------------------------------

_REPLICA_SCRIPT = """
import sys
from repro.serving.http import ServingContext, ServingServer
from repro.vectordb.client import VectorDBClient

snap, role = sys.argv[1], sys.argv[2]
client = VectorDBClient()
# Only the primary attaches the WAL (fsync="always": an HTTP 200 on
# /upsert promises durability); the replica serves the shared snapshot
# read-mostly off a memory map.
client.load(
    snap,
    mmap=(role != "primary"),
    wal=("always" if role == "primary" else None),
)
server = ServingServer(ServingContext(client, coalesce=False), port=0)
print(f"PORT {server.address[1]}", flush=True)
server.serve_forever()
"""


def _spawn_replica(snap: Path, role: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _REPLICA_SCRIPT, str(snap), role],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    line = child.stdout.readline()
    if not line.startswith("PORT "):
        child.kill()
        child.wait(timeout=30)
        pytest.fail(f"replica ({role}) died before binding: {line!r}")
    return child, int(line.split()[1])


def _burst_vector(i: int) -> np.ndarray:
    rng = np.random.default_rng(60_000 + i)
    v = rng.standard_normal(DIM).astype(np.float32)
    return v / np.linalg.norm(v)


class TestFleetDurability:
    def test_sigkilled_primary_loses_no_acked_write(self, tmp_path):
        snap = tmp_path / "snap"
        with VectorDBClient() as seeder:
            seeder.create_collection("pts", dim=DIM).upsert(
                _points(_vectors(20))
            )
            seeder.save("pts", snap)

        primary, p_port = _spawn_replica(snap, "primary")
        replica, r_port = _spawn_replica(snap, "replica")
        router = ReplicaRouter(
            [f"127.0.0.1:{p_port}", f"127.0.0.1:{r_port}"],
            # No probe fires within the test: one landing between the
            # kill and the next read would eject the primary (probe +
            # failed write = eject_after) before any read can fail over.
            health_interval_s=60.0, eject_after=2,
            retry=RetryPolicy(attempts=3, base_delay_s=0.01),
        ).start()
        n, kill_at = 30, 12
        acked: list[int] = []
        reads_after_kill = 0
        try:
            for i in range(n):
                if i == kill_at:
                    os.kill(primary.pid, signal.SIGKILL)
                    primary.wait(timeout=30)
                body = json.dumps({
                    "collection": "pts",
                    "points": [{
                        "id": f"w{i}",
                        "vector": _burst_vector(i).tolist(),
                        "payload": {"i": i},
                    }],
                }).encode()
                status, _ = router.forward(
                    "POST", "/upsert", body,
                    {"Content-Type": "application/json"},
                )
                if status == 200:
                    acked.append(i)
                # every interleaved read keeps being answered — by the
                # surviving replica once the primary is gone
                status, _ = router.forward("GET", "/collections", None, {})
                assert status == 200
                if i >= kill_at:
                    reads_after_kill += 1
        finally:
            router.close()
            for child in (primary, replica):
                if child.poll() is None:
                    child.kill()
                child.wait(timeout=30)
                child.stdout.close()

        # Writes to the live primary were all acked; nothing after the
        # kill was (a write whose backend died is 502/503, never a lie).
        assert acked == list(range(kill_at))
        assert reads_after_kill == n - kill_at
        assert router.failovers_total >= 1

        # Zero acked writes lost: reload the shared snapshot — the
        # primary's WAL tail replays — and every acked id is present.
        with VectorDBClient() as recovery:
            recovered = recovery.load(snap)
            ids = set(recovered.point_ids())
            missing = {f"w{i}" for i in acked} - ids
            assert not missing, f"acked writes lost in the kill: {missing}"
