"""Payload secondary indexes (Qdrant's "payload index" feature).

A :class:`PayloadIndexRegistry` maintains secondary indexes over chosen
payload fields so that filters resolve to candidate id sets without
scanning every payload — the optimization real vector databases apply
before falling back to per-point filter evaluation.

Two index shapes are kept per field:

* a hash index (value → node ids) answering equality/membership filters
  (:class:`~repro.vectordb.filters.FieldMatch`,
  :class:`~repro.vectordb.filters.FieldIn`);
* a sorted numeric column answering range filters
  (:class:`~repro.vectordb.filters.FieldRange`) with two
  ``np.searchsorted`` bisections over a cached ``(values, nodes)`` array
  pair instead of a per-id Python comparison loop. The sorted arrays are
  rebuilt lazily after writes (write-heavy phases pay nothing; the first
  range query after a batch of upserts pays one ``argsort``).

Bounding boxes need no ``create_index``: the first bounding-box filter
over a payload key builds that key's :class:`GeoColumn` — float64
lat/lon by node — and :func:`bbox_mask` answers the filter as array
comparisons over it. Radius filters, and any boolean tree, still
evaluate per point, over the reduced candidate set when combined under
``And``. Like the other indexes the columns are derived state: never
persisted, rebuilt on first use after a load.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.vectordb.filters import (
    And,
    FieldIn,
    FieldMatch,
    FieldRange,
    Filter,
    _payload_latlon,
)


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _numeric(value: Any) -> bool:
    """Values :class:`FieldRange` compares (bools are excluded there)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: The column row of a payload with no usable location: matches nothing.
_NOWHERE = (math.nan, math.nan)


class GeoColumn:
    """One geo payload key's ``(lat, lon)`` per node: a ``(2, capacity)``
    float64 array, NaN where the payload has no usable location.

    Writers hold the collection's write lock; readers do not. A reader
    takes :attr:`rows` once and slices it to the population it captured,
    and that prefix never changes under it: appends land beyond it (a
    full array is replaced by a grown copy) and a *changed* location
    replaces the array too, so a racing search sees a point's old or
    new location, never the latitude of one and the longitude of the
    other.
    """

    def __init__(self, key: str, payloads: Sequence[Mapping[str, Any]]) -> None:
        self.key = key
        self._count = len(payloads)
        self.rows = np.full(
            (2, max(1024, self._count)), np.nan, dtype=np.float64
        )
        self.rows[:, : self._count] = np.array(
            [_payload_latlon(payload, key) or _NOWHERE for payload in payloads],
            dtype=np.float64,
        ).reshape(self._count, 2).T

    def set(self, node: int, payload: Mapping[str, Any]) -> None:
        """Record ``node``'s location (a new node, or a replaced payload)."""
        row = _payload_latlon(payload, self.key) or _NOWHERE
        rows = self.rows
        if node < self._count:
            if np.array_equal(rows[:, node], row, equal_nan=True):
                return
            rows = rows.copy()
        elif node >= rows.shape[1]:
            rows = np.full(
                (2, max(2 * rows.shape[1], node + 1)), np.nan,
                dtype=np.float64,
            )
            rows[:, : self._count] = self.rows[:, : self._count]
        rows[:, node] = row
        self.rows = rows
        self._count = max(self._count, node + 1)


def bbox_mask(box: BoundingBox, rows: np.ndarray) -> np.ndarray:
    """Which columns of ``rows`` (a ``(2, n)`` lat/lon array) lie inside
    ``box``: ``box.contains_coords`` point by point, NaN rows outside."""
    lat, lon = rows
    inside = (lat >= box.min_lat) & (lat <= box.max_lat)
    if box.crosses_antimeridian:
        return inside & ((lon >= box.min_lon) | (lon <= box.max_lon))
    return inside & (lon >= box.min_lon) & (lon <= box.max_lon)


class PayloadIndexRegistry:
    """Hash + sorted-numeric indexes over payload fields, and the lazily
    built geo columns."""

    def __init__(self) -> None:
        self._fields: set[str] = set()
        self._indexes: dict[str, dict[Any, set[int]]] = {}
        #: per field: node id -> numeric value (the range index source).
        self._numeric: dict[str, dict[int, float]] = {}
        #: per field: nodes whose value the sorted column cannot place —
        #: NaN (``FieldRange.matches`` treats it as in-range: both
        #: comparisons are False) or ints too large for float. These stay
        #: in every range candidate set (a superset is fine; callers
        #: re-verify with ``matches``) — ``searchsorted`` would otherwise
        #: drop them from a bounded slice.
        self._unsortable: dict[str, set[int]] = {}
        #: per field: cached (sorted values, node ids) pair, or None when
        #: writes have invalidated it.
        self._sorted: dict[str, tuple[np.ndarray, np.ndarray] | None] = {}
        #: per geo payload key a filter has asked about: its column.
        self._geo: dict[str, GeoColumn] = {}

    def geo_column(self, key: str) -> GeoColumn | None:
        """``key``'s lat/lon column, if a geo filter has needed it yet."""
        return self._geo.get(key)

    def build_geo_column(
        self, key: str, payloads: Sequence[Mapping[str, Any]]
    ) -> GeoColumn:
        """Build ``key``'s column over ``payloads`` (node order) unless a
        racing reader already has; from here on every write maintains
        it. The caller holds the collection's write lock."""
        column = self._geo.get(key)
        if column is None:
            column = self._geo[key] = GeoColumn(key, payloads)
        return column

    def create_index(self, field: str) -> None:
        """Start indexing ``field`` (idempotent; backfilled by the caller)."""
        self._fields.add(field)
        self._indexes.setdefault(field, {})
        self._numeric.setdefault(field, {})
        self._unsortable.setdefault(field, set())
        self._sorted.setdefault(field, None)

    @property
    def indexed_fields(self) -> frozenset[str]:
        """Fields currently indexed."""
        return frozenset(self._fields)

    def index_point(self, node: int, payload: Mapping[str, Any]) -> None:
        """Add one point's indexed fields to the registry."""
        for column in self._geo.values():
            column.set(node, payload)
        for field in self._fields:
            value = payload.get(field)
            if value is None:
                continue
            if _hashable(value):
                self._indexes[field].setdefault(value, set()).add(node)
            if _numeric(value):
                try:
                    as_float = float(value)
                except OverflowError:
                    as_float = math.nan  # int too big: unsortable bucket
                if math.isnan(as_float):
                    self._unsortable[field].add(node)
                else:
                    self._numeric[field][node] = as_float
                self._sorted[field] = None

    def reindex_point(
        self,
        node: int,
        old_payload: Mapping[str, Any],
        new_payload: Mapping[str, Any],
    ) -> None:
        """Update the registry after a payload change."""
        for field in self._fields:
            old_value = old_payload.get(field)
            if old_value is not None and _hashable(old_value):
                bucket = self._indexes[field].get(old_value)
                if bucket is not None:
                    bucket.discard(node)
            if old_value is not None and _numeric(old_value):
                self._numeric[field].pop(node, None)
                self._unsortable[field].discard(node)
                self._sorted[field] = None
        self.index_point(node, new_payload)

    def _sorted_column(
        self, field: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """The field's ``(sorted values, node ids)`` pair, (re)built lazily."""
        cached = self._sorted.get(field)
        if cached is None:
            column = self._numeric[field]
            nodes = np.fromiter(column.keys(), dtype=np.int64,
                                count=len(column))
            values = np.fromiter(column.values(), dtype=np.float64,
                                 count=len(column))
            order = np.argsort(values, kind="stable")
            cached = (values[order], nodes[order])
            self._sorted[field] = cached
        return cached

    def _range_candidates(self, flt: FieldRange) -> set[int] | None:
        """Candidates for a range filter: two bisections over the sorted
        column (plus any NaN-valued nodes, which ``matches`` accepts).

        Bounds the bisection cannot place fall back to the scan (None):
        NaN (``matches`` treats it as unbounded — both comparisons are
        False) and ints too large for float. Finite bounds are compared
        as floats, which is safe because float conversion is monotonic:
        a value ``matches`` accepts can collapse onto the bound but
        never cross it, so the slice stays a superset.
        """
        try:
            gte = None if flt.gte is None else float(flt.gte)
            lte = None if flt.lte is None else float(flt.lte)
        except OverflowError:
            return None
        if (gte is not None and math.isnan(gte)) or (
            lte is not None and math.isnan(lte)
        ):
            return None
        values, nodes = self._sorted_column(flt.key)
        lo = (
            0 if gte is None
            else int(np.searchsorted(values, gte, side="left"))
        )
        hi = (
            values.size if lte is None
            else int(np.searchsorted(values, lte, side="right"))
        )
        result = set(nodes[lo:hi].tolist())
        result |= self._unsortable[flt.key]
        return result

    def candidates_for(self, flt: Filter) -> set[int] | None:
        """Node-id candidate set implied by ``flt``, or None if unknown.

        Returns a *superset* of the true matches (callers still verify the
        full filter per point). ``None`` means the filter gives no indexed
        constraint and the caller must scan.
        """
        if isinstance(flt, FieldMatch) and flt.key in self._fields:
            if not _hashable(flt.value):
                return None
            return set(self._indexes[flt.key].get(flt.value, ()))
        if isinstance(flt, FieldIn) and flt.key in self._fields:
            result: set[int] = set()
            for value in flt.values:
                if _hashable(value):
                    result |= self._indexes[flt.key].get(value, set())
            return result
        if isinstance(flt, FieldRange) and flt.key in self._fields:
            return self._range_candidates(flt)
        if isinstance(flt, And):
            best: set[int] | None = None
            for sub in flt.filters:
                candidates = self.candidates_for(sub)
                if candidates is None:
                    continue
                if best is None or len(candidates) < len(best):
                    best = candidates
            return best
        return None
