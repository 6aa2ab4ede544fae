"""Tests for payload filters and their payload-index acceleration."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FilterError
from repro.geo.bbox import BoundingBox
from repro.geo.point import GeoPoint, haversine_km
from repro.vectordb.collection import Collection, PointStruct
from repro.vectordb.filters import (
    And,
    FieldIn,
    FieldMatch,
    FieldRange,
    GeoBoundingBoxFilter,
    GeoRadiusFilter,
    Not,
    Or,
)
from repro.vectordb.payload_index import GeoColumn, PayloadIndexRegistry
from repro.vectordb.persistence import load_collection, save_collection
from repro.vectordb.sharded import ShardedCollection

PAYLOAD = {
    "city": "Saint Louis",
    "stars": 4.5,
    "is_open": 1,
    "location": {"lat": 38.627, "lon": -90.199},
}


class TestFieldMatch:
    def test_match(self):
        assert FieldMatch("city", "Saint Louis").matches(PAYLOAD)

    def test_mismatch(self):
        assert not FieldMatch("city", "Nashville").matches(PAYLOAD)

    def test_missing_field(self):
        assert not FieldMatch("ghost", 1).matches(PAYLOAD)


class TestFieldIn:
    def test_membership(self):
        assert FieldIn("city", ["Saint Louis", "Nashville"]).matches(PAYLOAD)

    def test_non_membership(self):
        assert not FieldIn("city", ["Nashville"]).matches(PAYLOAD)


class TestFieldRange:
    def test_inclusive_bounds(self):
        assert FieldRange("stars", gte=4.5).matches(PAYLOAD)
        assert FieldRange("stars", lte=4.5).matches(PAYLOAD)

    def test_outside_range(self):
        assert not FieldRange("stars", gte=4.6).matches(PAYLOAD)

    def test_non_numeric_value_never_matches(self):
        assert not FieldRange("city", gte=0).matches(PAYLOAD)

    def test_bool_value_never_matches(self):
        assert not FieldRange("flag", gte=0).matches({"flag": True})

    def test_no_bounds_raises(self):
        with pytest.raises(FilterError):
            FieldRange("stars")

    def test_empty_range_raises(self):
        with pytest.raises(FilterError):
            FieldRange("stars", gte=5, lte=4)


class TestGeoFilters:
    def test_bounding_box_inside(self):
        box = BoundingBox(38.6, -90.3, 38.7, -90.1)
        assert GeoBoundingBoxFilter("location", box).matches(PAYLOAD)

    def test_bounding_box_outside(self):
        box = BoundingBox(40, -75, 41, -74)
        assert not GeoBoundingBoxFilter("location", box).matches(PAYLOAD)

    def test_malformed_location_never_matches(self):
        box = BoundingBox(0, 0, 90, 90)
        assert not GeoBoundingBoxFilter("location", box).matches({"location": "x"})
        assert not GeoBoundingBoxFilter("location", box).matches(
            {"location": {"lat": "a", "lon": 1}}
        )

    def test_radius_inside(self):
        flt = GeoRadiusFilter("location", 38.627, -90.199, radius_km=1.0)
        assert flt.matches(PAYLOAD)

    def test_radius_outside(self):
        flt = GeoRadiusFilter("location", 40.0, -75.0, radius_km=10.0)
        assert not flt.matches(PAYLOAD)

    def test_radius_validation(self):
        with pytest.raises(FilterError):
            GeoRadiusFilter("location", 0, 0, radius_km=0)


class TestCombinators:
    def test_and(self):
        flt = And(FieldMatch("is_open", 1), FieldRange("stars", gte=4.0))
        assert flt.matches(PAYLOAD)
        assert not And(FieldMatch("is_open", 0), FieldRange("stars", gte=4.0)).matches(PAYLOAD)

    def test_or(self):
        flt = Or(FieldMatch("city", "Nashville"), FieldMatch("is_open", 1))
        assert flt.matches(PAYLOAD)

    def test_not(self):
        assert Not(FieldMatch("city", "Nashville")).matches(PAYLOAD)
        assert not Not(FieldMatch("city", "Saint Louis")).matches(PAYLOAD)

    def test_empty_combinators_raise(self):
        with pytest.raises(FilterError):
            And()
        with pytest.raises(FilterError):
            Or()

    def test_nested_composition(self):
        flt = And(
            Or(FieldMatch("city", "Saint Louis"), FieldMatch("city", "Nashville")),
            Not(FieldRange("stars", lte=2.0)),
        )
        assert flt.matches(PAYLOAD)


def _range_payloads() -> list[dict]:
    """Payloads exercising every FieldRange edge the index must honour:
    numeric ints/floats, duplicates, bools, strings, missing fields,
    and NaN (which ``matches`` treats as in-range)."""
    rng = np.random.default_rng(29)
    payloads: list[dict] = [
        {"stars": float(v)} for v in rng.integers(0, 10, size=60)
    ]
    payloads += [{"stars": int(v)} for v in rng.integers(0, 10, size=20)]
    payloads += [
        {"stars": True},          # bool: never matches a range
        {"stars": "4.5"},         # string: never matches
        {"other": 3.0},           # missing field: never matches
        {"stars": float("nan")},  # NaN: matches() accepts any range
        {"stars": 2.5},
        {"stars": 2.5},           # duplicate value
    ]
    return payloads


RANGE_FILTERS = [
    FieldRange("stars", gte=3),
    FieldRange("stars", lte=4),
    FieldRange("stars", gte=2.5, lte=7),
    FieldRange("stars", gte=2.5, lte=2.5),   # inclusive point range
    FieldRange("stars", gte=100),            # empty
    FieldRange("stars", gte=-50, lte=50),    # everything numeric
]


class TestFieldRangeIndex:
    """The sorted-column range index must agree with the scan exactly."""

    @pytest.mark.parametrize("flt", RANGE_FILTERS)
    def test_registry_candidates_equal_scan(self, flt):
        payloads = _range_payloads()
        registry = PayloadIndexRegistry()
        registry.create_index("stars")
        for node, payload in enumerate(payloads):
            registry.index_point(node, payload)
        want = {
            node for node, payload in enumerate(payloads)
            if flt.matches(payload)
        }
        got = registry.candidates_for(flt)
        assert got is not None
        # Candidates must be a superset of the true matches, and after
        # per-point verification (what collections do) exactly equal.
        assert want <= got
        assert {n for n in got if flt.matches(payloads[n])} == want

    def test_nan_bound_falls_back_to_scan(self):
        """A NaN bound defeats bisection but matches() treats it as
        unbounded — the index must decline (None → scan), not return a
        silently empty candidate set."""
        registry = PayloadIndexRegistry()
        registry.create_index("stars")
        registry.index_point(0, {"stars": 4.0})
        registry.index_point(1, {"stars": 2.0})
        nan = float("nan")
        assert registry.candidates_for(FieldRange("stars", gte=nan)) is None
        assert registry.candidates_for(FieldRange("stars", lte=nan)) is None
        assert registry.candidates_for(
            FieldRange("stars", gte=nan, lte=5.0)
        ) is None

    def test_huge_int_values_and_bounds_do_not_overflow(self):
        """Ints beyond float range must neither crash indexing nor
        range queries (regression: OverflowError from float()/isnan)."""
        registry = PayloadIndexRegistry()
        registry.create_index("stars")
        registry.index_point(0, {"stars": 10 ** 400})   # unsortable bucket
        registry.index_point(1, {"stars": 5.0})
        # huge value stays a candidate for every range (superset; the
        # caller's matches() verification does the exact comparison)
        got = registry.candidates_for(FieldRange("stars", gte=4))
        assert got == {0, 1}
        # huge bound falls back to the scan instead of overflowing
        assert registry.candidates_for(
            FieldRange("stars", gte=10 ** 400)
        ) is None
        assert registry.candidates_for(
            FieldRange("stars", lte=-(10 ** 400))
        ) is None

    def test_candidates_track_payload_updates(self):
        registry = PayloadIndexRegistry()
        registry.create_index("stars")
        registry.index_point(0, {"stars": 1.0})
        registry.index_point(1, {"stars": 9.0})
        flt = FieldRange("stars", gte=5)
        assert registry.candidates_for(flt) == {1}
        registry.reindex_point(0, {"stars": 1.0}, {"stars": 7.0})
        assert registry.candidates_for(flt) == {0, 1}
        registry.reindex_point(1, {"stars": 9.0}, {"stars": "gone"})
        assert registry.candidates_for(flt) == {0}

    def test_and_picks_narrowest_indexed_set(self):
        registry = PayloadIndexRegistry()
        registry.create_index("stars")
        registry.create_index("city")
        for node in range(10):
            registry.index_point(
                node, {"stars": float(node), "city": "SL" if node < 2 else "NS"}
            )
        flt = And(FieldRange("stars", gte=0), FieldMatch("city", "SL"))
        assert registry.candidates_for(flt) == {0, 1}

    @pytest.mark.parametrize("flt", RANGE_FILTERS)
    def test_collection_results_match_unindexed(self, flt):
        """count/scroll/search over an indexed collection are identical
        to the unindexed per-point scan."""
        payloads = _range_payloads()
        rng = np.random.default_rng(31)
        vectors = rng.standard_normal((len(payloads), 8)).astype(np.float32)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        plain = Collection("plain", dim=8)
        indexed = Collection("indexed", dim=8)
        points = [
            PointStruct(f"p{i}", vectors[i], payloads[i])
            for i in range(len(payloads))
        ]
        plain.upsert(points)
        indexed.upsert(points)
        indexed.create_payload_index("stars")

        assert indexed.count(flt) == plain.count(flt)
        assert (
            [h.id for h in indexed.scroll(flt)]
            == [h.id for h in plain.scroll(flt)]
        )
        query = vectors[0]
        want = plain.search(query, k=5, flt=flt, exact=True)
        got = indexed.search(query, k=5, flt=flt, exact=True)
        assert [(h.id, h.score) for h in want] == [(h.id, h.score) for h in got]


# ----------------------------------------------------------------------
# geo column ≡ per-payload scan
# ----------------------------------------------------------------------

_GEO_KEYS = ("location", "spot")
# Coordinates sit on a small grid so points land exactly on box edges;
# the rest is what a payload can hold that is not a place.
_LATS = (-90.0, -45.5, 0.0, 10.0, 10.5, 45.0, 89.999, 90.0)
_LONS = (-180.0, -179.5, -90.0, 0.0, 0.5, 90.0, 179.5, 180.0)
_JUNK = (
    float("nan"), float("inf"), float("-inf"), True, 7, 10 ** 400,
    1e300, 500.0,
)
_lat = st.sampled_from(_LATS * 3 + _JUNK)
_lon = st.sampled_from(_LONS * 3 + _JUNK)
_located = st.fixed_dictionaries({"lat": _lat, "lon": _lon})
_place = st.one_of(
    st.none(),
    st.just("downtown"),
    st.fixed_dictionaries({"lat": _lat}),
    _located, _located, _located,
)
_geo_payload = st.fixed_dictionaries(
    {"tag": st.integers(0, 3)},
    optional={key: _place for key in _GEO_KEYS},
)


@st.composite
def _boxes(draw) -> BoundingBox:
    if draw(st.integers(0, 4)) == 0:  # clamped at the pole
        return BoundingBox.around(
            GeoPoint(89.999, draw(st.sampled_from(_LONS))), 5.0, 5.0
        )
    lats = sorted(draw(st.tuples(*[st.sampled_from(_LATS)] * 2)))
    # min_lon > max_lon crosses the antimeridian; equal bounds are a line
    lons = draw(st.tuples(*[st.sampled_from(_LONS)] * 2))
    return BoundingBox(lats[0], lons[0], lats[1], lons[1])


@st.composite
def _radius_filters(draw) -> GeoRadiusFilter:
    key = draw(st.sampled_from(_GEO_KEYS))
    lat = draw(st.sampled_from(_LATS + (-91.0, 500.0)))
    lon = draw(st.sampled_from(_LONS + (-300.0,)))
    radius = draw(st.sampled_from((0.001, 5.0, 500.0, 5000.0, 20016.0, 1e9)))
    if draw(st.booleans()):  # a grid point exactly on the radius
        on_edge = haversine_km(
            lat, lon, draw(st.sampled_from(_LATS)), draw(st.sampled_from(_LONS))
        )
        radius = on_edge or radius
    return GeoRadiusFilter(key, lat, lon, radius)


_geo_leaf = st.one_of(
    st.builds(GeoBoundingBoxFilter, st.sampled_from(_GEO_KEYS), _boxes()),
    _radius_filters(),
)
_geo_tree = st.recursive(
    _geo_leaf,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.lists(sub, min_size=1, max_size=3).map(lambda fs: And(*fs)),
        st.lists(sub, min_size=1, max_size=3).map(lambda fs: Or(*fs)),
    ),
    max_leaves=4,
)
_geo_step = st.one_of(
    st.tuples(st.just("upsert"), _geo_payload),
    st.tuples(st.just("replace"), st.integers(0, 999), _geo_payload),
    st.tuples(
        st.just("set_payload"), st.integers(0, 999),
        st.fixed_dictionaries(
            {}, optional={key: _place for key in _GEO_KEYS}
        ),
    ),
    st.tuples(st.just("reload"), st.booleans()),
)
_DIM = 8


def _geo_vector(point_id: str) -> np.ndarray:
    seed = int.from_bytes(point_id.encode(), "big")
    vector = np.random.default_rng(seed).standard_normal(_DIM)
    return (vector / np.linalg.norm(vector)).astype(np.float32)


class TestGeoColumnEqualsScan:
    """A bounding box answered by the lat/lon column, and the radius
    filters and boolean trees that still scan, all agree with
    evaluating ``flt.matches`` payload by payload — through every write
    path, a snapshot reload and a WAL replay, single and sharded."""

    @staticmethod
    def _check(collection, order, payloads, flt, query, graph_branch):
        try:
            expected = [pid for pid in order if flt.matches(payloads[pid])]
        except ValueError:
            # math.sin(inf): the scalar radius test raises on an
            # infinite coordinate, and a radius filter is that test
            with pytest.raises(ValueError):
                collection.count(flt)
            return
        assert collection.count(flt) == len(expected)
        assert [hit.id for hit in collection.scroll(flt)] == expected
        scores = {pid: float(_geo_vector(pid) @ query) for pid in expected}
        ranked = sorted(expected, key=lambda pid: -scores[pid])[:5]
        found = [hit.id for hit in collection.search(query, 5, flt=flt)]
        if graph_branch:
            # ef covers these tiny populations, so the traversal is
            # exact; equal-score duplicates may still swap places
            assert sorted(found) == sorted(ranked)
        else:
            assert found == ranked

    def test_changed_location_never_tears_under_a_reader(self):
        """A reader holds the rows it took: a replaced payload's new
        location lands in a new array, an append in the spare capacity."""
        column = GeoColumn("location", [{"location": {"lat": 1.0, "lon": 2.0}}])
        held = column.rows
        column.set(0, {"location": {"lat": 3.0, "lon": 4.0}})
        column.set(1, {"location": {"lat": 5.0, "lon": 6.0}})
        assert held[:, 0].tolist() == [1.0, 2.0]
        assert column.rows[:, :2].tolist() == [[3.0, 5.0], [4.0, 6.0]]

    def test_unfloatable_location_written_after_the_column_is_built(self):
        """The column reads the location inside ``upsert``: an int too
        large for float must be nowhere, not an exception mid-write."""
        collection = Collection("geo", _DIM)
        here = {"location": {"lat": 10.0, "lon": 0.0}}
        collection.upsert([PointStruct("a", _geo_vector("a"), here)])
        flt = GeoBoundingBoxFilter(
            "location", BoundingBox(-90.0, -180.0, 90.0, 180.0)
        )
        assert collection.count(flt) == 1  # builds the column
        collection.upsert([PointStruct(
            "b", _geo_vector("b"), {"location": {"lat": 10 ** 400, "lon": 0}}
        )])
        collection.upsert([PointStruct("c", _geo_vector("c"), here)])
        assert [hit.id for hit in collection.scroll(flt)] == ["a", "c"]
        assert collection.count() == 3

    @pytest.mark.parametrize("shards", [1, 4])
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(
        seeded=st.lists(_geo_payload, min_size=4, max_size=12),
        steps=st.lists(_geo_step, min_size=1, max_size=8),
        filters=st.lists(_geo_tree, min_size=2, max_size=4),
    )
    def test_column_equals_scan(self, shards, seeded, steps, filters):
        with tempfile.TemporaryDirectory() as tmp:
            self._run(Path(tmp) / "snap", shards, seeded, steps, filters)

    def _run(self, snapshot, shards, seeded, steps, filters):
        collection = (
            Collection("geo", _DIM) if shards == 1
            else ShardedCollection("geo", _DIM, shards=shards)
        )
        order = [f"p{i}" for i in range(len(seeded))]
        payloads = {pid: dict(payload) for pid, payload in zip(order, seeded)}
        query = _geo_vector("query")
        collection.upsert([
            PointStruct(pid, _geo_vector(pid), payloads[pid]) for pid in order
        ])
        try:
            for step in [("check",), *steps]:
                kind = step[0]
                if kind == "check":  # the first filter builds the columns
                    pass
                elif kind == "upsert":
                    point_id = f"p{len(order)}"
                    order.append(point_id)
                    payloads[point_id] = dict(step[1])
                    collection.upsert([PointStruct(
                        point_id, _geo_vector(point_id), step[1])])
                elif kind == "replace":
                    point_id = order[step[1] % len(order)]
                    payloads[point_id] = dict(step[2])
                    collection.upsert([PointStruct(
                        point_id, _geo_vector(point_id), step[2])])
                elif kind == "set_payload":
                    point_id = order[step[1] % len(order)]
                    payloads[point_id].update(step[2])
                    collection.set_payload(point_id, step[2])
                else:  # snapshot reload; a WAL replay when not re-saved
                    if step[1] or not snapshot.exists():
                        save_collection(collection, snapshot)
                    collection.close()
                    collection = load_collection(
                        snapshot, mmap=True, wal="off"
                    )
                    # replay orders a shard's tail writes, not the
                    # shards' tails against each other (persistence.py)
                    reloaded = [hit.id for hit in collection.scroll()]
                    assert sorted(reloaded) == sorted(order)
                    order = reloaded
                for flt in filters:
                    self._check(
                        collection, order, payloads, flt, query, False
                    )
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
                        self._check(
                            collection, order, payloads, flt, query, True
                        )
        finally:
            collection.close()
