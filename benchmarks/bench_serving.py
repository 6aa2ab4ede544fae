"""Serving throughput — request coalescing vs uncoalesced single queries.

What is asserted: 16 concurrent clients issuing single-query requests
through the coalescing serving layer get **identical results** to the
same 16 clients with coalescing off, at **≥ 1.5× their queries/sec**.
Both absolute q/s go into the artifact.

All 16 callers share one geo filter, which is a few array comparisons
over the collection's lat/lon column, so what the ratio measures is not
shared filter work but the GIL: sixteen threads running engine calls at
once convoy, while the coalescer runs them on one dispatcher thread
(docs/serving.md, "Reads across cores"). Measured 1.9–4.3× (median
2.8×, 25 runs) on the 2-core sandbox; the floor sits below that, and
whether the effect is worth a queue is ROADMAP's "let the re-measured
socket decide" item.

The layer test sends 120 requests a client because a request takes
≈ 0.1 ms: at 12 an arm is 20 ms, threads finish before their siblings
start, and the ratio is noise. The arms must overlap to compare.

Two measurements:

* ``test_serving_layer_coalescing_speedup`` — 16 threads through
  :meth:`ServingContext.search` (exactly what HTTP handler threads
  call), coalesced vs not. Carries the equivalence assertion and the
  1.5× floor; in-process, so it holds on one-core CI machines.
* ``test_http_end_to_end_throughput`` — the same comparison through
  real HTTP connections against a live server. Socket + request-parsing
  overhead is identical in both arms and *dilutes* the ratio — and on a
  one-core machine the benchmark's own 16 client threads contend with
  the server's handler threads and the dispatcher for the GIL, which
  can invert the measurement entirely (measured on the 2-core sandbox,
  alternated runs: 1.20 / 0.49 / 1.10 / 1.05× while the coalescer
  still had a 4 ms wait window, 1.15 / 0.97 / 1.12 / 1.29× and once
  2.33× with queue-draining dispatch; 1.03–1.16× at ≈ 750–880 q/s with
  one-segment responses and the geo column). This test therefore
  asserts result equivalence (the part that must always hold) and
  reports the throughput numbers for the record; ``docs/serving.md``
  discusses when the socket-level ratio is meaningful.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.regions import city_by_code
from repro.serving.http import ServingContext, ServingServer
from repro.vectordb.filters import GeoBoundingBoxFilter

CLIENTS = 16
REQUESTS_PER_CLIENT = 12
#: The in-process arms answer in ≈ 0.1 ms a request: long enough to be
#: sixteen threads at once rather than sixteen in a row.
LAYER_REQUESTS_PER_CLIENT = 120
#: Coalesced q/s over uncoalesced q/s.
RATIO_FLOOR = 1.5


def _query_vectors(prepared, sl_queries) -> list[np.ndarray]:
    return [prepared.embedder.embed(q.text) for q in sl_queries]


def _city_filter() -> GeoBoundingBoxFilter:
    center = city_by_code("SL").center
    return GeoBoundingBoxFilter(
        "location",
        BoundingBox(
            center.lat - 0.025, center.lon - 0.03,
            center.lat + 0.025, center.lon + 0.03,
        ),
    )


def _run_clients(worker) -> float:
    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(CLIENTS)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


def _assert_identical(coalesced, uncoalesced) -> None:
    """Same hits both ways: ids and payloads equal, scores to float noise."""
    for per_client_c, per_client_u in zip(coalesced, uncoalesced):
        for hits_c, hits_u in zip(per_client_c, per_client_u):
            assert [h.id for h in hits_c] == [h.id for h in hits_u]
            np.testing.assert_allclose(
                [h.score for h in hits_c],
                [h.score for h in hits_u],
                rtol=0, atol=1e-5,
            )


def test_serving_layer_coalescing_speedup(sl_corpus, sl_queries, bench_artifact):
    """16 concurrent clients: same results, coalescing costs ≤ 20 %."""
    prepared = sl_corpus.prepared
    vectors = _query_vectors(prepared, sl_queries)
    flt = _city_filter()
    name = prepared.collection_name
    with ServingContext(
        prepared.client, own_client=False, max_batch=64
    ) as context:

        def run_arm(coalesce: bool):
            results = [
                [None] * LAYER_REQUESTS_PER_CLIENT for _ in range(CLIENTS)
            ]

            def worker(ci: int) -> None:
                for j in range(LAYER_REQUESTS_PER_CLIENT):
                    results[ci][j] = context.search(
                        name, vectors[(ci + j) % len(vectors)], 10,
                        flt=flt, coalesce=coalesce,
                    )

            return _run_clients(worker), results

        run_arm(False), run_arm(True)  # warm-up both paths
        uncoalesced_s = min(run_arm(False)[0] for _ in range(3))
        coalesced_s = min(run_arm(True)[0] for _ in range(3))
        _, results_u = run_arm(False)
        _, results_c = run_arm(True)

    _assert_identical(results_c, results_u)
    total = CLIENTS * LAYER_REQUESTS_PER_CLIENT
    speedup = uncoalesced_s / coalesced_s
    print(
        f"\nserving layer, {CLIENTS} clients x {LAYER_REQUESTS_PER_CLIENT}: "
        f"uncoalesced {total / uncoalesced_s:.0f} q/s, "
        f"coalesced {total / coalesced_s:.0f} q/s, "
        f"speedup {speedup:.2f}x"
    )
    bench_artifact(
        "serving",
        {
            "clients": CLIENTS,
            "requests_per_client": LAYER_REQUESTS_PER_CLIENT,
            "uncoalesced_qps": round(total / uncoalesced_s),
            "coalesced_qps": round(total / coalesced_s),
            "speedup": round(speedup, 2),
            "floor": RATIO_FLOOR,
        },
    )
    assert speedup >= RATIO_FLOOR, (
        f"coalesced/uncoalesced {speedup:.2f}x below the {RATIO_FLOOR}x floor"
    )


def test_http_end_to_end_throughput(sl_corpus, sl_queries):
    """Live HTTP server: identical results; throughput reported."""
    prepared = sl_corpus.prepared
    vectors = [v.tolist() for v in _query_vectors(prepared, sl_queries)]
    flt = _city_filter()
    filter_json = {
        "geo_bounding_box": {
            "key": "location",
            "min_lat": flt.box.min_lat, "min_lon": flt.box.min_lon,
            "max_lat": flt.box.max_lat, "max_lon": flt.box.max_lon,
        }
    }
    name = prepared.collection_name
    context = ServingContext(
        prepared.client, own_client=False, max_batch=64
    )
    with ServingServer(context, port=0).start() as server:
        host, port = server.address

        def run_arm(coalesce: bool):
            results = [[None] * REQUESTS_PER_CLIENT for _ in range(CLIENTS)]

            def worker(ci: int) -> None:
                conn = http.client.HTTPConnection(host, port, timeout=60)
                for j in range(REQUESTS_PER_CLIENT):
                    body = json.dumps({
                        "collection": name,
                        "vector": vectors[(ci + j) % len(vectors)],
                        "k": 10,
                        "filter": filter_json,
                        "coalesce": coalesce,
                        "with_payload": False,  # ids+scores: tips are big
                    })
                    conn.request(
                        "POST", "/search", body,
                        {"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    results[ci][j] = json.loads(response.read())["hits"]
                conn.close()

            return _run_clients(worker), results

        run_arm(False), run_arm(True)  # warm-up: connections, caches
        uncoalesced_s = min(run_arm(False)[0] for _ in range(2))
        coalesced_s = min(run_arm(True)[0] for _ in range(2))
        _, results_u = run_arm(False)
        _, results_c = run_arm(True)

    for per_client_c, per_client_u in zip(results_c, results_u):
        for hits_c, hits_u in zip(per_client_c, per_client_u):
            assert [h["id"] for h in hits_c] == [h["id"] for h in hits_u]
            np.testing.assert_allclose(
                [h["score"] for h in hits_c],
                [h["score"] for h in hits_u],
                rtol=0, atol=1e-5,
            )
    total = CLIENTS * REQUESTS_PER_CLIENT
    ratio = uncoalesced_s / coalesced_s
    print(
        f"\nHTTP end-to-end, {CLIENTS} clients x {REQUESTS_PER_CLIENT}: "
        f"uncoalesced {total / uncoalesced_s:.0f} q/s, "
        f"coalesced {total / coalesced_s:.0f} q/s, ratio {ratio:.2f}x "
        "(report-only: socket overhead and client-side GIL share are "
        "identical in both arms and machine-dependent; the asserted "
        "floor lives in test_serving_layer_coalescing_speedup)"
    )
