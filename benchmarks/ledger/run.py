#!/usr/bin/env python3
"""The serving ledger: absolute POST /search and POST /query numbers
through real sockets, split by layer. See README.md beside this file.

    python3 benchmarks/ledger/run.py --workload search_geo --seed 11 \\
        --seconds 10 --trace 0         # one workload; last line is JSON
    python3 benchmarks/ledger/run.py --all --out result.json
    python3 benchmarks/ledger/run.py compare A.json B.json
    python3 benchmarks/ledger/run.py --selftest
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in the server it spawns: OpenBLAS's
# own pool oversubscribes the two cores once the HNSW build forks workers
# (the corpus build was bimodal, 5 s or 12 s, without this).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import closing, contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Snapshots, WALs and traces. Inside the checkout, not under /tmp: the
# benchmark may read and write only there. Gitignored.
SCRATCH = ROOT / ".ledger-run"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import spec  # noqa: E402
from harness import (  # noqa: E402
    Drive,
    HttpClient,
    Sample,
    ServedRepro,
    client_overhead_ms,
    drive,
)
from oracle import Findings, Oracle, check_write  # noqa: E402
from replay import Replay, calibration  # noqa: E402
from workloads import (  # noqa: E402
    Corpus,
    Request,
    RequestStream,
    build_corpus,
    reference_queries,
    upsert_request,
)

from repro.core.storage import load_prepared  # noqa: E402
from repro.core.variants import semask  # noqa: E402


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


@contextmanager
def _clock(into: dict[str, float], name: str):
    """Add the block's wall time to ``into[name]``."""
    started = time.perf_counter()
    try:
        yield
    finally:
        into[name] = into.get(name, 0.0) + time.perf_counter() - started


def _think(seed: int, purpose: str):
    """Seeded think times, uniform in [0, ``spec.THINK_SECONDS``)."""
    rng = random.Random(f"ledger:{seed}:{purpose}")
    return lambda: rng.random() * spec.THINK_SECONDS


@dataclass
class Observed:
    """What one served attempt produced, before any judging."""

    warm: list[Request]
    timed: list[Request]
    load: Drive
    boots: list[float]
    copy_s: float
    after: tuple[dict, dict]     # (/metrics, /healthz) after the timed
                                 # phase; ``load.noted``: after warm-up
    points: int                  # /collections, after the timed phase
    rss_mb: float
    probe: list[Sample]          # read-only workloads: the write probe

    def is_write(self, sample: Sample) -> bool:
        return self.timed[sample.index].op == "upsert"


def _write_probe(address, corpus: Corpus, seed: int) -> list[Sample]:
    """A few single-point upserts, one at a time, on the quiet server."""
    rng = random.Random(f"ledger:{seed}:probe")
    think = _think(seed, "probe-think")
    samples = []
    with HttpClient(address) as client:
        for i in range(spec.WRITE_PROBE):
            request = upsert_request(corpus, rng, f"ledger-probe{i}")
            time.sleep(think())
            status, body, took = client.send(request.wire)
            samples.append(Sample(i, status, body, took, 0.0))
    return samples


def observe(name: str, seed: int, seconds: float, corpus: Corpus,
            workdir: Path, phases: dict[str, float]) -> Observed:
    """Boot the server on the snapshot, load it, read its counters."""
    warm_n = spec.CLIENTS * spec.WARMUP_PER_CLIENT
    stream = RequestStream(name, corpus, seed)
    with _clock(phases, "requests"):
        warm = stream.take(warm_n)
    mixed = name == "mixed_rw"
    served_snapshot, copy_s = corpus.snapshot, 0.0
    if mixed:  # its own copy: the WAL must not leak into other workloads
        started = time.perf_counter()
        served_snapshot = workdir / "served"
        shutil.rmtree(served_snapshot, ignore_errors=True)
        shutil.copytree(corpus.snapshot, served_snapshot)
        copy_s = time.perf_counter() - started

    def served():
        return ServedRepro(ROOT, served_snapshot, spec.SHARDS, spec.CITY,
                           wal="batch" if mixed else None)

    def feed():
        with _clock(phases, "requests"):
            first = len(stream.requests) - warm_n
            return [(first + slot, request.wire) for slot, request
                    in enumerate(stream.take(spec.CLIENTS))]

    boots = []
    with _clock(phases, "boots"):
        for _ in range(spec.BOOTS - 1):
            with served() as server:
                boots.append(server.boot_s)
    with served() as server:
        boots.append(server.boot_s)
        warms = [[r.wire for r in warm[c::spec.CLIENTS]]
                 for c in range(spec.CLIENTS)]
        with HttpClient(server.address) as admin, _clock(phases, "load"):
            load = drive(
                server.address, feed, warms, seconds,
                lambda: (admin.get_json("/metrics"), admin.get_json("/healthz")),
                _think(seed, "think"),
            )
            after = (admin.get_json("/metrics"), admin.get_json("/healthz"))
            points = admin.get_json("/collections")[0]["points"]
        rss_mb = server.peak_rss_mb()
        with _clock(phases, "probe"):
            probe = ([] if mixed
                     else _write_probe(server.address, corpus, seed))
    # the traced replay applies the stream's first writes, sent or not
    while mixed and sum(r.op == "upsert" for r in stream.requests[warm_n:]
                        ) < spec.REPLAY_UPSERTS:
        stream.take(1)
    return Observed(warm, stream.requests[warm_n:], load, boots, copy_s,
                    after, points, rss_mb, probe)


def check(name: str, seen: Observed, oracle: Oracle) -> Findings:
    """Every timed response, every ack and the final point count."""
    findings = Findings()
    warm, timed, samples = seen.warm, seen.timed, seen.load.samples
    acked = {r.body["points"][0]["id"] for r in warm if r.op == "upsert"}
    base = spec.POIS + len(acked)
    writes = [(s, timed[s.index].body["points"][0]["id"]) for s in samples
              if seen.is_write(s)]
    for sample in samples:
        request = timed[sample.index]
        if request.op == "upsert":
            # the count an ack may carry: the points acked before this
            # write was sent (and itself), up to every point sent before
            # it was acked
            sent = sample.offset - sample.seconds
            point_id = request.body["points"][0]["id"]
            low = base + 1 + sum(w.status == 200 and w.offset < sent
                                 for w, _ in writes if w is not sample)
            high = base + sum(w.offset - w.seconds <= sample.offset
                              for w, _ in writes)
            if check_write(sample.index, sample, findings, low, high):
                acked.add(point_id)
        else:
            oracle.check_read(
                sample.index, request, sample, findings,
                compare_in_process=sample.index < spec.REPLAY_REQUESTS[name],
            )
    findings.attempted += 1
    if seen.points != spec.POIS + len(acked):
        findings.fail(f"/collections reports {seen.points} points, expected "
                      f"{spec.POIS} + {len(acked)} acked upserts")
    for i, sample in enumerate(seen.probe):
        expected = seen.points + i + 1
        check_write(i, sample, findings, expected, expected)
    return findings


def _thirds_p50(reads: list[Sample], seconds: float) -> list[float]:
    """Read p50 of each third of the timed phase (the noise gauge)."""
    thirds: list[list[float]] = [[], [], []]
    for sample in reads:
        third = min(2, int(sample.offset / seconds * 3))
        thirds[third].append(sample.seconds * 1e3)
    return [statistics.median(t) if t else 0.0 for t in thirds]


def _timed_mean(before: dict, after: dict, route: str) -> float:
    """Mean handler ms on ``route`` between two ``/metrics`` bodies."""
    b = before["latency_ms"].get(route, {"count": 0, "mean_ms": 0.0})
    a = after["latency_ms"].get(route, {"count": 0, "mean_ms": 0.0})
    served = a["count"] - b["count"]
    if served <= 0:
        return 0.0
    return (a["count"] * a["mean_ms"] - b["count"] * b["mean_ms"]) / served


def measure(name: str, seed: int, seconds: float, corpus: Corpus,
            workdir: Path, overhead_ms: float, layers: bool) -> dict:
    """One attempt at one workload: serve, load, check, derive metrics."""
    phases: dict[str, float] = {"build": corpus.build_s}
    seen = observe(name, seed, seconds, corpus, workdir, phases)
    samples = seen.load.samples
    load_started = time.perf_counter()
    prepared = load_prepared(corpus.snapshot, mmap=True)
    load_s = time.perf_counter() - load_started
    with closing(prepared.client):
        with _clock(phases, "oracle"):
            oracle = Oracle(corpus, prepared, semask(prepared))
            findings = check(name, seen, oracle)
            tokens = oracle.reference_tokens(reference_queries(corpus))

        reads = [s for s in samples
                 if s.status == 200 and not seen.is_write(s)]
        read_ms = sorted(s.seconds * 1e3 for s in reads)
        thirds = _thirds_p50(reads, seconds)
        spread = ((max(thirds) - min(thirds)) / statistics.median(thirds)
                  if statistics.median(thirds) else 0.0)
        acks = seen.probe or [s for s in samples if seen.is_write(s)]
        writes_ms = sorted(s.seconds * 1e3 for s in acks if s.status == 200)
        boot_s = statistics.median(seen.boots)
        attempt = {
            "workload": name, "seed": seed, "seconds": seconds,
            "attempted": findings.attempted, "failed": findings.failed,
            "problems": findings.problems,
            "samples": {"requests": len(samples), "reads": len(read_ms),
                        "beyond_p90": len(read_ms) - math.ceil(0.9 * len(read_ms)),
                        "writes": len(writes_ms)},
            "thirds_p50_ms": thirds,
            "noisy": spread > spec.NOISY_SPREAD,
            "phases_s": phases,
            "end_to_end": {
                "setup_s": (corpus.build_s + seen.copy_s + boot_s
                            + seen.load.warmup_s),
                "latency_p50_ms": percentile(read_ms, 0.50),
                "throughput_rps": (sum(s.status == 200 for s in samples)
                                   / (seen.load.wall_s or 1.0)),
                "peak_rss_mb": seen.rss_mb,
                "recall_at_10": findings.recall,
                "llm_tokens_per_query": tokens,
                "write_latency_p50_ms": percentile(writes_ms, 0.50),
            },
            "per_layer": {},
        }
        if layers:
            mean_ms = statistics.fmean(read_ms) if read_ms else 0.0
            handler_ms = _timed_mean(
                seen.load.noted[0], seen.after[0],
                "/query" if name == "query_nl" else "/search")
            with _clock(phases, "layers"):
                attempt["per_layer"] = _layers(
                    name, seed, corpus, workdir, seen, prepared, reads, {
                        "client.latency_mean_ms": mean_ms,
                        "client.latency_p90_ms": percentile(read_ms, 0.90),
                        "client.latency_p99_ms": percentile(read_ms, 0.99),
                        "client.segment_p50_spread": spread,
                        "client.overhead_ms": overhead_ms,
                        "client.write_latency_p90_ms": percentile(writes_ms, 0.90),
                        "serving.http.handler_mean_ms": handler_ms,
                        "serving.http.wire_ms": mean_ms - handler_ms,
                        "core.storage.load_s": load_s,
                        "serving.bootstrap.boot_s": boot_s,
                    })
        return attempt


def _layers(name: str, seed: int, corpus: Corpus, workdir: Path,
            seen: Observed, prepared, reads: list[Sample],
            known: dict[str, float]) -> dict:
    """Every per-layer metric: the server's counters, then the replay."""
    coalescer = "query_coalescer" if name == "query_nl" else "search_coalescer"
    stats_before = seen.load.noted[1][coalescer]
    stats_after = seen.after[1][coalescer]
    batches = stats_after["batches"] - stats_before["batches"]
    texts = [r.body["text"] for r in seen.timed if r.op == "query"]
    per_layer = dict.fromkeys((n for n, _, _ in spec.PER_LAYER), 0.0)
    per_layer.update(corpus.timings)
    per_layer.update(calibration())
    per_layer.update(known)
    per_layer.update({
        "serving.batcher.mean_batch_size":
            (stats_after["requests"] - stats_before["requests"]) / batches
            if batches else 0.0,
        **{f"serving.batcher.{key}":
           float(stats_after[key] - stats_before[key])
           for key in ("retried_singly", "shed", "expired")},
        "embeddings.distinct_text_ratio":
            len(set(texts)) / len(texts) if texts else 0.0,
        "vectordb.persistence.snapshot_bytes": float(corpus.snapshot_bytes()),
    })
    replay = Replay(corpus, prepared)
    try:
        per_layer.update(replay.run(
            name, seen.timed, spec.REPLAY_REQUESTS[name],
            {s.index: s.body for s in reads}, workdir))
    finally:
        replay.close()
    replay.recorder.dump(SCRATCH / "traces" / f"{name}-seed{seed}.jsonl")
    return per_layer


def run_workload(name: str, seed: int, seconds: float, corpus: Corpus,
                 workdir: Path, overhead_ms: float, layers: bool,
                 rerun_noisy: bool) -> dict:
    """Measure once; with ``rerun_noisy`` a noisy attempt is run again.

    Both attempts are printed; the one with the steadier thirds carries
    the metrics and the other is kept under ``also_ran``.
    """
    attempt = measure(name, seed, seconds, corpus, workdir, overhead_ms, layers)
    _report(attempt)
    if attempt["noisy"] and rerun_noisy:
        print(f"[{name}] re-running once", flush=True)
        again = measure(name, seed, seconds, corpus, workdir, overhead_ms, layers)
        _report(again)
        attempt, other = sorted(
            [attempt, again],
            key=lambda a: max(a["thirds_p50_ms"]) - min(a["thirds_p50_ms"]))
        attempt["failed"] += other["failed"]
        attempt["attempted"] += other["attempted"]
        attempt["also_ran"] = {k: other[k] for k in
                               ("thirds_p50_ms", "end_to_end", "noisy")}
    return attempt


def _report(attempt: dict) -> None:
    """Every metric by name, with its unit and the sample counts."""
    name = attempt["workload"]
    counts = attempt["samples"]
    print(f"[{name}] seed {attempt['seed']}, {attempt['seconds']} s, "
          f"{counts['requests']} requests; latency over all "
          f"{counts['reads']} answered reads ({counts['beyond_p90']} beyond "
          f"p90), {counts['writes']} write samples; attempted "
          f"{attempt['attempted']}, failed {attempt['failed']}")
    print(f"[{name}] p50 of each third (ms): "
          + ", ".join(f"{v:.2f}" for v in attempt["thirds_p50_ms"])
          + (" NOISY: they differ by more than the latency_p50_ms bound"
             if attempt["noisy"] else ""))
    print(f"[{name}] phases (s): "
          + ", ".join(f"{k} {v:.1f}" for k, v in attempt["phases_s"].items()))
    for problem in attempt["problems"]:
        print(f"[{name}] FAILED {problem}")
    for group in ("end_to_end", "per_layer"):
        for metric, value in attempt[group].items():
            print(f"[{name}] {metric:<46} {value:>14.4f} {spec.UNITS[metric]}")
    sys.stdout.flush()


def _prepare(workdir: Path) -> tuple[Corpus, float]:
    """A clean client and a newly built corpus."""
    overhead_ms = client_overhead_ms()
    if overhead_ms >= 1.0:
        sys.exit(f"ledger: the load generator costs {overhead_ms:.3f} ms per "
                 "request against a loopback echo (limit 1 ms); not measuring")
    return build_corpus(workdir / "snapshot"), overhead_ms


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="all four workloads, end-to-end and layers")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="--all: add the runs to this result "
                        "file (one set a side per pair, alternating)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return compare.selftest()
    if not args.all and not args.workload:
        parser.error("give --workload NAME, --all, --selftest or "
                     "`compare A B`")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        if args.workload:
            corpus, overhead_ms = _prepare(workdir)
            # no re-run here: the driver takes medians over many
            # invocations and its time cap cannot absorb a second attempt
            attempt = run_workload(args.workload, args.seed, args.seconds,
                                   corpus, workdir, overhead_ms,
                                   layers=bool(args.trace), rerun_noisy=False)
            group = "per_layer" if args.trace else "end_to_end"
            print(json.dumps({
                "correct": attempt["failed"] == 0,
                "attempted": max(attempt["attempted"], 1),
                "failed": attempt["failed"],
                "metrics": {metric: {"value": value, "unit": spec.UNITS[metric]}
                            for metric, value in attempt[group].items()},
            }))
            return 0 if attempt["failed"] == 0 else 1
        corpus, overhead_ms = _prepare(workdir)
        runs = [run_workload(name, args.seed, args.seconds, corpus, workdir,
                             overhead_ms, layers=True, rerun_noisy=True)
                for name in spec.WORKLOADS]
        if args.out:  # an existing result file gains this set of runs
            out = Path(args.out)
            document = (json.loads(out.read_text()) if out.exists()
                        else {"schema": 1, "pois": spec.POIS, "runs": []})
            document["runs"] += runs
            out.write_text(json.dumps(document, indent=1) + "\n")
        failed = sum(run["failed"] for run in runs)
        print(f"ledger: {len(runs)} runs, {failed} failed operations")
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
