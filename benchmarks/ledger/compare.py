"""``compare A.json B.json``: judge B (the change) against A (the parent).

One row per (workload, end-to-end metric) with both medians, the bound
from ``spec`` and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — every run of B reads better than every run of A and
  the medians differ by more than the run-to-run spread (and by more
  than a third of the bound, the steadiness this benchmark is held to);
* ``unresolved`` — neither, and the spread is wider than the bound;
* ``unchanged``  — neither, and the spread is within the bound.

Then the layer rows that moved most (only moves that clear the runs'
own scatter: every run of B on one side of every run of A), and for each
regression the layer measured in the same unit whose median worsened by
the largest amount, so a regression names its stage. Exits non-zero on
any ``regressed``.
"""

from __future__ import annotations

import copy
import json
import statistics
import sys
from pathlib import Path

import spec

TOP_LAYERS = 12


def tabulate(document: dict) -> dict[str, dict[str, dict[str, list[float]]]]:
    """``{workload: {group: {metric: [value per run]}}}`` of a result."""
    table: dict[str, dict[str, dict[str, list[float]]]] = {}
    for run in document["runs"]:
        groups = table.setdefault(
            run["workload"], {"end_to_end": {}, "per_layer": {}})
        for group, metrics in groups.items():
            for metric, value in run.get(group, {}).items():
                metrics.setdefault(metric, []).append(float(value))
    return table


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(a: list[float], b: list[float], better: str,
          bound: float) -> tuple[str, float, float, float]:
    """``(verdict, median_a, median_b, worsening)`` for one metric.

    ``worsening`` is the change of the median in the bad direction as a
    share of A's median (negative = B is better).
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(med_a) or 1.0
    worsening = sign * (med_b - med_a) / scale
    spread = max(_iqr(a), _iqr(b)) / scale
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worsening > bound:
        verdict = "regressed"
    elif all_better and -worsening > max(spread, bound / 3):
        verdict = "improved"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return verdict, med_a, med_b, worsening


def compare(a_document: dict, b_document: dict) -> tuple[list, list]:
    """End-to-end rows and layer rows (largest relative move first).

    A layer row is ``(workload, metric, median_a, median_b, relative
    move, worse, resolved)``.
    """
    a, b = tabulate(a_document), tabulate(b_document)
    rows, layers = [], []
    for workload in spec.WORKLOADS:
        if workload not in a or workload not in b:
            continue
        for metric, _, better, bound in spec.END_TO_END:
            va = a[workload]["end_to_end"].get(metric)
            vb = b[workload]["end_to_end"].get(metric)
            if va and vb:
                rows.append((workload, metric, bound,
                             *judge(va, vb, better, bound)))
        for metric, _, better in spec.PER_LAYER:
            va = a[workload]["per_layer"].get(metric)
            vb = b[workload]["per_layer"].get(metric)
            if not va or not vb:
                continue
            med_a, med_b = statistics.median(va), statistics.median(vb)
            if med_a == med_b:
                continue
            move = (med_b - med_a) / abs(med_a) if med_a else float("inf")
            worse = (move > 0) == (better == "lower")
            resolved = max(vb) < min(va) or min(vb) > max(va)
            layers.append(
                (workload, metric, med_a, med_b, move, worse, resolved))
    layers.sort(key=lambda row: -abs(row[4]))
    return rows, layers


def render(rows: list, layers: list) -> str:
    out = [f"{'workload':<11} {'end-to-end metric':<22} {'A median':>12} "
           f"{'B median':>12} {'worse by':>9} {'bound':>6}  verdict"]
    for workload, metric, bound, verdict, med_a, med_b, worsening in rows:
        out.append(f"{workload:<11} {metric:<22} {med_a:>12.4f} {med_b:>12.4f} "
                   f"{worsening:>+9.1%} {bound:>6.0%}  {verdict}")
    out.append("")
    out.append("layer metrics that moved most (B against A, every run of B "
               "on one side of every run of A):")
    moved = [row for row in layers if row[6]][:TOP_LAYERS]
    for workload, metric, med_a, med_b, move, worse, _ in moved:
        out.append(f"  {workload:<11} {metric:<44} {med_a:>12.4f} -> "
                   f"{med_b:>12.4f} {move:>+8.1%} {'worse' if worse else 'better'}")
    if not moved:
        out.append("  none")
    for workload, metric, *_ in (r for r in rows if r[3] == "regressed"):
        same_unit = [row for row in layers if row[0] == workload and row[5]
                     and spec.UNITS[row[1]] == spec.UNITS[metric]]
        stage = max(same_unit, key=lambda row: abs(row[3] - row[2]),
                    default=None)
        named = (f"; the layer that worsened most there is {stage[1]} "
                 f"({stage[4]:+.1%})" if stage else "")
        out.append(f"REGRESSED {metric} on {workload}{named}")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    rows, layers = compare(*(json.loads(Path(p).read_text()) for p in argv))
    print(render(rows, layers))
    return 1 if any(row[3] == "regressed" for row in rows) else 0


# The selftest's scenario: the write path of mixed_rw gets 20 % slower. The
# write metric, because its bound (15 %) is the tightest of the timings: a
# 20 % slower layer cannot move a whole latency past a 25 % bound.
SLOWED_WORKLOAD = "mixed_rw"
SLOWED_LAYER = "vectordb.collection.upsert_ms"
SLOWED_METRIC = "write_latency_p50_ms"


def _synthetic() -> dict:
    """A plausible result document: every workload, every metric."""
    runs = []
    for workload in spec.WORKLOADS:
        for jitter in (0.999, 1.0, 1.001):
            layers = {name: 1.0 * jitter for name, _, _ in spec.PER_LAYER}
            layers[SLOWED_LAYER] = 40.0 * jitter
            end = {name: 10.0 * jitter for name, _, _, _ in spec.END_TO_END}
            end[SLOWED_METRIC] = (4.0 + 40.0) * jitter
            runs.append({"workload": workload, "end_to_end": end,
                         "per_layer": layers})
    return {"schema": 1, "runs": runs}


def selftest() -> int:
    """A 20 % slowdown in one layer must be named; a file equals itself."""
    problems = []
    base = _synthetic()
    slowed = copy.deepcopy(base)
    for run in slowed["runs"]:
        if run["workload"] == SLOWED_WORKLOAD:
            layer = run["per_layer"][SLOWED_LAYER]
            run["per_layer"][SLOWED_LAYER] = layer * 1.2
            run["end_to_end"][SLOWED_METRIC] += layer * 0.2
    rows, layers = compare(base, slowed)
    text = render(rows, layers)
    regressed = [(w, m) for w, m, _, v, *_ in rows if v == "regressed"]
    if regressed != [(SLOWED_WORKLOAD, SLOWED_METRIC)]:
        problems.append(f"expected exactly {SLOWED_WORKLOAD}/{SLOWED_METRIC} "
                        f"to regress, got {regressed}")
    if (f"REGRESSED {SLOWED_METRIC} on {SLOWED_WORKLOAD}; the layer that "
            f"worsened most there is {SLOWED_LAYER}") not in text:
        problems.append("the regression does not name its layer:\n" + text)
    same, moved = compare(base, base)
    if moved or any(v != "unchanged" for _, _, _, v, *_ in same):
        problems.append("a result compared with itself is not unchanged")
    for problem in problems:
        print(f"selftest FAILED: {problem}")
    if not problems:
        print("selftest passed: a 20 % slower layer is named; a file "
              "equals itself")
    return 1 if problems else 0
