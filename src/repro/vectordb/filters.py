"""Payload filters, modelled on Qdrant's filter DSL.

The SemaSK pipeline stores each POI's attributes as the point payload and
filters by the query's spatial range at search time (the paper's
"filter the POIs by the given query range" step). Filters compose with
boolean combinators.

Example::

    flt = And(
        GeoBoundingBoxFilter("location", box),
        FieldMatch("city", "Saint Louis"),
    )
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.errors import FilterError
from repro.geo.bbox import BoundingBox
from repro.geo.point import haversine_km


class Filter(ABC):
    """A predicate over point payloads."""

    @abstractmethod
    def matches(self, payload: Mapping[str, Any]) -> bool:
        """Whether ``payload`` satisfies the filter."""


@dataclass(frozen=True)
class FieldMatch(Filter):
    """Exact equality on a payload field (missing field never matches)."""

    key: str
    value: Any

    def matches(self, payload: Mapping[str, Any]) -> bool:
        return self.key in payload and payload[self.key] == self.value


@dataclass(frozen=True)
class FieldIn(Filter):
    """Membership of a payload field in a set of allowed values."""

    key: str
    values: frozenset[Any]

    def __init__(self, key: str, values: Any) -> None:
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "values", frozenset(values))

    def matches(self, payload: Mapping[str, Any]) -> bool:
        return self.key in payload and payload[self.key] in self.values


@dataclass(frozen=True)
class FieldRange(Filter):
    """Numeric range test ``lo <= payload[key] <= hi`` (None = unbounded)."""

    key: str
    gte: float | None = None
    lte: float | None = None

    def __post_init__(self) -> None:
        if self.gte is None and self.lte is None:
            raise FilterError("FieldRange needs at least one bound")
        if self.gte is not None and self.lte is not None and self.gte > self.lte:
            raise FilterError(f"empty range: gte={self.gte} > lte={self.lte}")

    def matches(self, payload: Mapping[str, Any]) -> bool:
        value = payload.get(self.key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if self.gte is not None and value < self.gte:
            return False
        if self.lte is not None and value > self.lte:
            return False
        return True


def _payload_latlon(payload: Mapping[str, Any], key: str) -> tuple[float, float] | None:
    location = payload.get(key)
    if (
        isinstance(location, Mapping)
        and isinstance(location.get("lat"), (int, float))
        and isinstance(location.get("lon"), (int, float))
    ):
        try:
            return float(location["lat"]), float(location["lon"])
        except OverflowError:
            # An int too large for float is nowhere. The geo column reads
            # this inside upsert, where raising would tear the write.
            return None
    return None


@dataclass(frozen=True)
class GeoBoundingBoxFilter(Filter):
    """Point-in-rectangle test on a ``{"lat": .., "lon": ..}`` payload field."""

    key: str
    box: BoundingBox

    def matches(self, payload: Mapping[str, Any]) -> bool:
        coords = _payload_latlon(payload, self.key)
        if coords is None:
            return False
        return self.box.contains_coords(*coords)


@dataclass(frozen=True)
class GeoRadiusFilter(Filter):
    """Point-within-radius test (haversine, kilometres)."""

    key: str
    center_lat: float
    center_lon: float
    radius_km: float

    def __post_init__(self) -> None:
        if self.radius_km <= 0:
            raise FilterError(f"radius must be positive, got {self.radius_km}")

    def matches(self, payload: Mapping[str, Any]) -> bool:
        coords = _payload_latlon(payload, self.key)
        if coords is None:
            return False
        return (
            haversine_km(self.center_lat, self.center_lon, *coords)
            <= self.radius_km
        )


class And(Filter):
    """All sub-filters must match."""

    def __init__(self, *filters: Filter) -> None:
        if not filters:
            raise FilterError("And() needs at least one sub-filter")
        self.filters = filters

    def matches(self, payload: Mapping[str, Any]) -> bool:
        return all(f.matches(payload) for f in self.filters)


class Or(Filter):
    """At least one sub-filter must match."""

    def __init__(self, *filters: Filter) -> None:
        if not filters:
            raise FilterError("Or() needs at least one sub-filter")
        self.filters = filters

    def matches(self, payload: Mapping[str, Any]) -> bool:
        return any(f.matches(payload) for f in self.filters)


@dataclass(frozen=True)
class Not(Filter):
    """Negation of a sub-filter."""

    inner: Filter

    def matches(self, payload: Mapping[str, Any]) -> bool:
        return not self.inner.matches(payload)
