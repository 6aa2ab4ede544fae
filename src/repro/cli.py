"""Command-line interface: ``python -m repro <command>``.

Commands::

    build-data   generate + prepare the synthetic five-city dataset
    stats        corpus statistics for one city (paper §3.1)
    query        answer one semantics-aware query on a city
    table2       reproduce the paper's Table 2
    queries      show the harvested evaluation query set for a city
    reshard      re-route a collection snapshot to a new shard count
    snapshot     inspect or migrate saved collection snapshots
    serve        run the concurrent HTTP query server
    demo         write (or serve) the Figure-3 demo page
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.core.query import SpatialKeywordQuery
from repro.core.variants import semask, semask_em, semask_o1
from repro.eval.corpus import get_corpus
from repro.eval.experiments import build_test_queries, run_table2
from repro.eval.report import format_table, format_table2
from repro.geo.geocoder import ReverseGeocoder
from repro.geo.regions import EVALUATION_CITIES, city_by_code


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    parser.add_argument(
        "--pois", type=int, default=0,
        help="POIs per city (0 = the paper's counts)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="vector-store shards per city collection (1 = unsharded)",
    )


def _corpus(args: argparse.Namespace, city: str):
    return get_corpus(city, seed=args.seed, count=args.pois or None,
                      shards=args.shards)


def cmd_build_data(args: argparse.Namespace) -> int:
    from pathlib import Path

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for city in EVALUATION_CITIES:
        corpus = _corpus(args, city.code)
        path = out / f"{city.code.lower()}.jsonl.gz"
        corpus.dataset.save(path)
        stats = corpus.dataset.statistics()
        rows.append([city.code, len(corpus.dataset),
                     f"{stats['avg_tips']:.1f}",
                     f"{stats['avg_tip_tokens']:.0f}", str(path)])
    print(format_table(["City", "POIs", "tips/POI", "tokens/POI", "file"], rows))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    corpus = _corpus(args, args.city)
    stats = corpus.dataset.statistics()
    print(json.dumps(stats, indent=2))
    ledger = corpus.llm.ledger.summary()
    if ledger:
        print("LLM usage during preparation:")
        print(json.dumps(ledger, indent=2))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    corpus = _corpus(args, args.city)
    factory = {"semask": semask, "o1": semask_o1, "em": semask_em}[args.variant]
    if args.variant == "em":
        system = factory(corpus.prepared, candidate_k=args.k)
    else:
        system = factory(corpus.prepared, llm=corpus.llm, candidate_k=args.k)

    if args.neighborhood:
        center = ReverseGeocoder().neighborhood_center(
            args.city.upper(), args.neighborhood
        )
    else:
        center = city_by_code(args.city).center

    if args.batch:
        return _run_query_batch(args, corpus, system, center)

    query = SpatialKeywordQuery.around(center, args.text, args.range_km,
                                       args.range_km)
    result = system.query(query)
    print(f"{system.name}: {len(result.entries)} recommended, "
          f"{len(result.filtered_out)} filtered out "
          f"(filtering {result.timings.filter_s * 1000:.1f} ms, "
          f"modelled LLM {result.timings.refine_modeled_s:.1f} s)")
    _print_entries(corpus, result.entries)
    return 0


def _print_entries(corpus, entries) -> None:
    for entry in entries:
        record = corpus.dataset.get(entry.business_id)
        print(f"  * {entry.name} [{', '.join(record.categories[:2])}]")
        if entry.reason:
            print(f"      {entry.reason}")


def _run_query_batch(args: argparse.Namespace, corpus, system, center) -> int:
    """``--batch``: answer ';'-separated queries via the batched engine."""
    import time

    texts = [t.strip() for t in args.text.split(";") if t.strip()]
    if not texts:
        print("no query texts given (separate queries with ';')")
        return 1
    queries = [
        SpatialKeywordQuery.around(center, text, args.range_km, args.range_km)
        for text in texts
    ]

    t0 = time.perf_counter()
    results = system.query_many(queries)
    batch_s = time.perf_counter() - t0

    for result in results:
        print(f"\n[{result.query_text}]")
        print(f"{system.name}: {len(result.entries)} recommended, "
              f"{len(result.filtered_out)} filtered out")
        _print_entries(corpus, result.entries)
    print(f"\nbatch of {len(queries)}: {batch_s * 1000:.1f} ms")
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    result = run_table2(
        cities=tuple(args.cities),
        queries_per_city=args.queries,
        seed=args.seed,
        poi_count=args.pois or None,
    )
    print(format_table2(result))
    print(f"\nelapsed: {result.elapsed_s:.1f}s")
    return 0


def cmd_reshard(args: argparse.Namespace) -> int:
    """``reshard``: rewrite a saved snapshot for a new shard count.

    Re-routes every point, logged WAL tail included, without
    re-embedding anything; scroll order, counts, payload indexes and the
    HNSW config are preserved (see ``reshard_snapshot``).
    """
    from repro.vectordb.persistence import inspect_snapshot, reshard_snapshot

    if args.to_shards <= 0:
        print(f"--to must be positive, got {args.to_shards}")
        return 1
    written = reshard_snapshot(
        args.snapshot, args.to_shards, out_dir=args.out or None
    )
    print(
        f"resharded {args.snapshot} -> {written}: "
        f"{inspect_snapshot(written)['count']} points across "
        f"{args.to_shards} shard(s)"
    )
    return 0


def cmd_snapshot_inspect(args: argparse.Namespace) -> int:
    """``snapshot inspect``: summarize a snapshot without loading it.

    Prints schema version, point count, shard layout, and whether the
    vector files and persisted HNSW graphs are present.
    """
    from repro.vectordb.persistence import inspect_snapshot

    info = inspect_snapshot(args.snapshot)
    print(json.dumps(info, indent=2))
    if not info["graphs_persisted"]:
        print(
            f"\nhint: `python -m repro snapshot migrate {args.snapshot}` "
            "builds and persists this snapshot's HNSW graphs for "
            "near-instant cold starts",
            file=sys.stderr,
        )
    return 0


def cmd_snapshot_migrate(args: argparse.Namespace) -> int:
    """``snapshot migrate``: rewrite a snapshot as schema v4.

    Persists the HNSW graphs a snapshot is missing (built now unless
    ``--no-graphs``) so the next load skips reconstruction entirely. The
    rewrite is atomic — an interrupted migration leaves the original
    snapshot intact.
    """
    from repro.vectordb.persistence import inspect_snapshot, migrate_snapshot

    written = migrate_snapshot(
        args.snapshot,
        out_dir=args.out or None,
        build_graphs=not args.no_graphs,
    )
    info = inspect_snapshot(written)
    shards = info["shards"] or 1
    print(
        f"migrated {args.snapshot} -> {written}: schema {info['schema']}, "
        f"{info['count']} points across {shards} shard(s), "
        f"graphs {'persisted' if info['graphs_persisted'] else 'omitted'}"
    )
    return 0


def cmd_queries(args: argparse.Namespace) -> int:
    corpus = _corpus(args, args.city)
    queries = build_test_queries(corpus, count=args.count)
    rows = []
    for query in queries:
        rows.append([
            query.text[:70],
            len(query.answer_ids),
            ",".join(sorted(query.intent.required)),
        ])
    print(format_table(["query", "|answers|", "intent"], rows))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: the concurrent HTTP query server (see docs/serving.md).

    Boots from a prepared-city snapshot when ``--snapshot`` points at one
    (building and caching it on the first run), wires the collection and
    the SemaSK pipeline behind request coalescers, and serves until
    SIGINT/SIGTERM — shutting down gracefully (in-flight requests finish,
    coalescers flush).
    """
    import signal

    from repro.serving.bootstrap import load_or_prepare
    from repro.serving.http import ServingContext, ServingServer

    if args.shards <= 0:
        print(f"--shards must be positive, got {args.shards}")
        return 1
    if args.max_batch <= 0:
        print(f"--max-batch must be positive, got {args.max_batch}")
        return 1
    if args.wal and not args.snapshot:
        print("--wal requires --snapshot (the write-ahead log lives "
              "beside the collection snapshot)")
        return 1
    prepared = load_or_prepare(
        args.snapshot or None,
        city=args.city,
        count=args.pois or None,
        seed=args.seed,
        shards=args.shards,
        mmap=not args.no_mmap,
        refresh=args.refresh,
        wal=args.wal or None,
    )
    collection = prepared.client.get_collection(prepared.collection_name)
    if args.wal:
        stats = collection.wal_stats()
        depth = stats["records"] if stats else 0
        print(f"durable writes: wal fsync={args.wal}, "
              f"{depth} logged record(s) pending the next save")
    factory = {"semask": semask, "o1": semask_o1, "em": semask_em}
    system = factory[args.variant](prepared, candidate_k=args.k)
    context = ServingContext(
        prepared.client,
        system=system,
        default_center=city_by_code(args.city).center,
        max_batch=args.max_batch,
        max_pending=args.max_pending or None,
    )
    server = ServingServer(
        context, host=args.host, port=args.port,
        max_inflight=args.max_inflight or None,
    )

    def _terminate(signum, frame):  # SIGTERM parity with ^C
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    host, port = server.address
    print(f"serving {prepared.collection_name!r} "
          f"({len(collection)} points, {system.name}) "
          f"at http://{host}:{port} — try GET /healthz")
    server.serve_forever()
    print("server stopped")
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    """``route``: the replica router (see docs/resilience.md).

    Fronts N ``repro serve`` replicas with health-checked round-robin:
    reads retry across replicas with exponential backoff + jitter
    (honoring any ``X-Repro-Deadline-Ms`` budget), writes pin to the
    first backend and are never retried, dead backends are ejected and
    probed back in through a half-open trial.
    """
    import signal

    from repro.serving.router import ReplicaRouter, RetryPolicy, RouterServer

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not backends:
        print("--backends needs at least one host:port")
        return 1
    try:
        router = ReplicaRouter(
            backends,
            health_interval_s=args.health_interval_ms / 1000.0,
            eject_after=args.eject_after,
            retry=RetryPolicy(attempts=args.retries),
            request_timeout_s=args.request_timeout_s,
        )
    except ValueError as exc:
        print(str(exc))
        return 1
    server = RouterServer(
        router, host=args.host, port=args.port,
        max_inflight=args.max_inflight or None,
    )

    def _terminate(signum, frame):  # SIGTERM parity with ^C
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    host, port = server.address
    print(f"routing {len(backends)} backend(s) at http://{host}:{port} "
          f"— try GET /router/healthz")
    server.serve_forever()
    print("router stopped")
    return 0


def _demo_context(args: argparse.Namespace):
    """Demo state, cold-started from a snapshot when ``--snapshot`` is set.

    With a snapshot directory the demo boots through the PR 4 restore
    path (``load_collection``/``from_matrix`` — persisted graphs, no
    per-point upserts) instead of re-running data preparation on every
    start; the first run builds and caches the snapshot.
    """
    from repro.data.dataset import Dataset
    from repro.demo.app import DemoContext
    from repro.serving.bootstrap import load_or_prepare

    if args.snapshot:
        prepared = load_or_prepare(
            args.snapshot, city=args.city, count=args.pois or None,
            seed=args.seed, shards=args.shards,
        )
        dataset: Dataset = prepared.dataset
        system = semask(prepared)
    else:
        corpus = _corpus(args, args.city)
        prepared, dataset = corpus.prepared, corpus.dataset
        system = semask(prepared, llm=corpus.llm)
    geocoder = ReverseGeocoder()
    neighborhoods = geocoder.neighborhoods_of(args.city)
    return DemoContext(
        system=system,
        dataset=dataset,
        geocoder=geocoder,
        city_code=args.city.upper(),
        default_neighborhood=neighborhoods[0],
        default_query=args.text,
    )


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.demo.app import DemoServer, build_demo_page

    context = _demo_context(args)
    if args.serve:
        DemoServer(context, port=args.port).serve_forever()
        return 0
    page = build_demo_page(context)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(page)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SemaSK reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-data", help="generate + prepare the dataset")
    _add_common(p)
    p.add_argument("--out", default="data")
    p.set_defaults(func=cmd_build_data)

    p = sub.add_parser("stats", help="corpus statistics for one city")
    _add_common(p)
    p.add_argument("city", choices=[c.code for c in EVALUATION_CITIES] + ["MEL"])
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("query", help="answer one query")
    _add_common(p)
    p.add_argument("city")
    p.add_argument("text", help="the natural-language query")
    p.add_argument("--variant", choices=["semask", "o1", "em"],
                   default="semask")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--range-km", type=float, default=5.0)
    p.add_argument("--neighborhood", default="",
                   help="centre the range on a named neighbourhood")
    p.add_argument("--batch", action="store_true",
                   help="treat TEXT as ';'-separated queries and answer "
                        "them through the batched engine (query_many)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("table2", help="reproduce Table 2")
    _add_common(p)
    p.add_argument("--cities", nargs="+",
                   default=[c.code for c in EVALUATION_CITIES])
    p.add_argument("--queries", type=int, default=30)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("queries", help="show the evaluation query set")
    _add_common(p)
    p.add_argument("city")
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(func=cmd_queries)

    p = sub.add_parser("reshard",
                       help="re-route a snapshot to a new shard count")
    p.add_argument("snapshot", help="snapshot directory (save_collection)")
    p.add_argument("--to", dest="to_shards", type=int, required=True,
                   help="target shard count (1 = single logical shard)")
    p.add_argument("--out", default="",
                   help="output directory (default: rewrite in place)")
    p.set_defaults(func=cmd_reshard)

    p = sub.add_parser("snapshot",
                       help="inspect or migrate collection snapshots")
    snap_sub = p.add_subparsers(dest="snapshot_command", required=True)
    sp = snap_sub.add_parser(
        "inspect", help="summarize a snapshot without loading it"
    )
    sp.add_argument("snapshot", help="snapshot directory (save_collection)")
    sp.set_defaults(func=cmd_snapshot_inspect)
    sp = snap_sub.add_parser(
        "migrate",
        help="rewrite a snapshot as schema v4 (persist graphs)",
    )
    sp.add_argument("snapshot", help="snapshot directory (save_collection)")
    sp.add_argument("--out", default="",
                    help="output directory (default: rewrite in place)")
    sp.add_argument("--no-graphs", action="store_true",
                    help="do not build/persist HNSW graphs during migration")
    sp.set_defaults(func=cmd_snapshot_migrate)

    p = sub.add_parser("serve", help="run the concurrent HTTP query server")
    _add_common(p)
    p.add_argument("--city", default="SL")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 = pick an ephemeral port)")
    p.add_argument("--snapshot", default="",
                   help="prepared-city snapshot directory: loaded when "
                        "present, built + cached on the first run")
    p.add_argument("--refresh", action="store_true",
                   help="rebuild the corpus even if --snapshot exists")
    p.add_argument("--no-mmap", action="store_true",
                   help="load snapshot vectors into RAM instead of "
                        "memory-mapping them")
    p.add_argument("--wal", choices=["always", "batch", "off"], default="",
                   help="durable writes: log accepted writes to a "
                        "per-shard write-ahead log beside the snapshot "
                        "(replayed on restart); the value picks the "
                        "fsync policy. Requires --snapshot")
    p.add_argument("--variant", choices=["semask", "o1", "em"],
                   default="semask")
    p.add_argument("--k", type=int, default=10,
                   help="candidates fetched per query by the filtering stage")
    p.add_argument("--max-batch", type=int, default=64,
                   help="largest coalesced batch per engine call")
    p.add_argument("--max-pending", type=int, default=0,
                   help="bound each coalescer queue; a full queue sheds "
                        "with 429 (0 = unbounded)")
    p.add_argument("--max-inflight", type=int, default=0,
                   help="bound concurrently executing requests; excess "
                        "sheds with 429 (0 = unbounded)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "route",
        help="front N serve replicas with a health-checked router",
    )
    p.add_argument("--backends", required=True,
                   help="comma-separated host:port list of serve replicas; "
                        "the first is the write primary")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 = pick an ephemeral port)")
    p.add_argument("--health-interval-ms", type=float, default=250.0,
                   help="delay between /healthz probe rounds")
    p.add_argument("--eject-after", type=int, default=2,
                   help="consecutive failures before a backend leaves "
                        "rotation")
    p.add_argument("--retries", type=int, default=3,
                   help="read attempts across replicas before giving up "
                        "(writes are never retried)")
    p.add_argument("--request-timeout-s", type=float, default=30.0,
                   help="per-backend request timeout")
    p.add_argument("--max-inflight", type=int, default=0,
                   help="bound concurrently forwarded requests; excess "
                        "sheds with 429 (0 = unbounded)")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("demo", help="write or serve the demo page")
    _add_common(p)
    p.add_argument("--city", default="SL")
    p.add_argument("--text", default=(
        "I am looking for a bar to watch football that also serves "
        "delicious chicken. Do you have any recommendations?"
    ))
    p.add_argument("--out", default="semask_demo.html")
    p.add_argument("--serve", action="store_true")
    p.add_argument("--port", type=int, default=8808)
    p.add_argument("--snapshot", default="",
                   help="prepared-city snapshot directory: demo cold-starts "
                        "from it when present (built + cached on first run)")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
