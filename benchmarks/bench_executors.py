"""Fan-out executors, measured — in-process loop vs process-per-shard.

The measurement behind ``parallel="thread"|"process"``: the numbers the
ROADMAP kept asking to "re-run exactly" came from uncommitted scripts,
so executor decisions (ISSUE 18: the thread pool left, the process
executor stayed) cite this file's output instead of prose. Run it on
the parent commit too when comparing a change to the in-process side.

Report-only: no ratio floor, not a CI job, no pytest test. The SL
corpus is ``build_corpus`` with ``shards=4, summarize=False``;
queries are stored POI vectors, ``k=10``, either unfiltered (per-shard
HNSW traversal) or inside one of 4 000 distinct ≈10 km boxes (the
per-point geo scan dominates). Every {workload} × {executor} ×
{1, 2, 4 caller threads} cell runs closed-loop for ``SECONDS``, twice,
and prints both rounds' q/s — the 2-core sandbox drifts, so read the
pair as a range.

    PYTHONPATH=src python benchmarks/bench_executors.py [--pois 20000]
"""

from __future__ import annotations

import argparse
import os
import random
import threading
import time

from repro.eval.corpus import build_corpus
from repro.geo.bbox import BoundingBox
from repro.geo.point import GeoPoint
from repro.vectordb.filters import GeoBoundingBoxFilter

SHARDS = 4
K = 10
BOXES = 4000
BOX_KM = 10.0
CALLERS = (1, 2, 4)
SECONDS = 6.0
ROUNDS = 2


def _qps(collection, requests, callers: int) -> float:
    """Closed loop: ``callers`` threads, each over its own request slice."""
    done = [0] * callers
    stop_at = time.perf_counter() + SECONDS

    def caller(slot: int) -> None:
        mine = requests[slot::callers]
        count = 0
        while time.perf_counter() < stop_at:
            vector, flt = mine[count % len(mine)]
            collection.search(vector, K, flt=flt)
            count += 1
        done[slot] = count

    started = time.perf_counter()
    threads = [
        threading.Thread(target=caller, args=(slot,))
        for slot in range(callers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(done) / (time.perf_counter() - started)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pois", type=int, default=20000)
    pois = parser.parse_args().pois

    corpus = build_corpus(
        "SL", seed=7, count=pois, summarize=False, shards=SHARDS
    )
    prepared = corpus.prepared
    collection = prepared.client.get_collection(prepared.collection_name)

    rng = random.Random(11)
    ids = collection.point_order
    bounds = corpus.city.bounds
    geo = []
    for _ in range(BOXES):
        vector = collection.point_vector(rng.choice(ids))
        center = GeoPoint(
            rng.uniform(bounds.min_lat, bounds.max_lat),
            rng.uniform(bounds.min_lon, bounds.max_lon),
        )
        box = BoundingBox.around(center, BOX_KM, BOX_KM)
        geo.append((vector, GeoBoundingBoxFilter("location", box)))
    knn = [(vector, None) for vector, _ in geo]
    sample = geo[:40]
    selectivity = sum(
        collection.count(flt) for _, flt in sample
    ) / (len(sample) * len(collection))
    print(
        f"nproc={os.cpu_count()} pois={len(collection)} shards={SHARDS} "
        f"k={K} boxes={BOXES} (~{BOX_KM:g} km, selectivity "
        f"{selectivity:.2f}) {SECONDS:g} s x {ROUNDS} rounds"
    )
    print(f"{'workload':<10}{'executor':<10}{'callers':<9}q/s per round")
    try:
        for executor in ("thread", "process"):
            collection.set_parallel(executor)
            for workload, requests in (("geo", geo), ("knn", knn)):
                for callers in CALLERS:
                    rounds = "  ".join(
                        f"{_qps(collection, requests, callers):7.1f}"
                        for _ in range(ROUNDS)
                    )
                    print(
                        f"{workload:<10}{executor:<10}{callers:<9}{rounds}",
                        flush=True,
                    )
    finally:
        prepared.client.close()


# The process executor's forkserver context re-imports the main module.
if __name__ == "__main__":
    main()
