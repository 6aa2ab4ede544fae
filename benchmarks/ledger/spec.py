"""What the ledger measures: the system under test and the load model here,
the workloads, metrics and bounds from ``BENCHMARK.json`` at the repo root
(the one list of them; ``compare`` judges by it). Workload and metric names
are normative: later issues cite them.
"""

from __future__ import annotations

import json
from pathlib import Path

_MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

# -- system under test (one configuration, no matrix) ----------------------
CITY = "SL"
CORPUS_SEED = 7
#: 3 000 POIs, not ROADMAP's 20 000: the corpus is rebuilt by every
#: invocation (so ``setup_s`` always takes the same path) and the driver
#: makes 92 invocations inside 3 420 s. 3 000 POIs prepare in ~10 s here
#: and keep the geo scan (~1 us/point) the largest engine cost.
POIS = 3000
SHARDS = 4
COLLECTION = f"poi_{CITY.lower()}"

# -- load model --------------------------------------------------------------
CLIENTS = 2           # closed loop: 2 threads = 2 keep-alive connections
WARMUP_PER_CLIENT = 20
BOOTS = 3             # server cold starts per run; boot_s is their median
RUN_SECONDS = _MANIFEST["run_seconds"]
#: Think time before each round, uniform in [0, one kernel tick): without
#: it every request starts on the 4 ms grid of the delayed-ACK timer that
#: ended the previous one, latencies come in 4 ms steps and a p50 moves
#: by 7 % or not at all.
THINK_SECONDS = 0.004
K = 10
RANGE_KM = 5.0
WRITE_SHARE = 0.2     # mixed_rw: share of requests that are upserts
WRITE_PROBE = 24      # upserts sent after a read-only workload's timed phase
REFERENCE_QUERIES = 24  # fixed query set behind llm_tokens_per_query
REPLAY_REQUESTS = {"search_geo": 60, "search_knn": 60, "query_nl": 24,
                   "mixed_rw": 60}
REPLAY_UPSERTS = 40

WORKLOADS: dict[str, str] = {w["name"]: w["why"] for w in _MANIFEST["workloads"]}

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END: tuple[tuple[str, str, str, float], ...] = tuple(
    (m["name"], m["unit"], m["better"], m["bound"])
    for m in _MANIFEST["end_to_end"])

#: (name, unit, better). A layer a workload does not call reports 0.
PER_LAYER: tuple[tuple[str, str, str], ...] = tuple(
    (m["name"], m["unit"], m["better"]) for m in _MANIFEST["per_layer"])

BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
#: A run whose thirds' p50s differ by more than the ``latency_p50_ms`` bound
#: marks itself noisy.
NOISY_SPREAD = BOUNDS["latency_p50_ms"]
UNITS = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})
