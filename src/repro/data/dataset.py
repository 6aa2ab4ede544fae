"""Dataset container: a city's POI records with lookup and persistence."""

from __future__ import annotations

import gzip
import json
from collections.abc import Iterator
from pathlib import Path

from repro.data.model import POIRecord
from repro.errors import DatasetError
from repro.geo.bbox import BoundingBox
from repro.text.tokenize import count_tokens


class Dataset:
    """An ordered collection of :class:`POIRecord` with id-based lookup."""

    def __init__(self, records: list[POIRecord], city_code: str = "") -> None:
        self._records = list(records)
        self._position = {
            r.business_id: i for i, r in enumerate(self._records)
        }
        if len(self._position) != len(self._records):
            raise DatasetError("duplicate business_id in dataset")
        self.city_code = city_code

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[POIRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> POIRecord:
        return self._records[index]

    def get(self, business_id: str) -> POIRecord:
        """Record by business id (KeyError when absent)."""
        return self._records[self._position[business_id]]

    def contains_id(self, business_id: str) -> bool:
        """Whether a record with ``business_id`` exists."""
        return business_id in self._position

    def in_range(self, box: BoundingBox) -> list[POIRecord]:
        """All records whose location lies inside ``box`` (linear scan)."""
        return [
            r for r in self._records if box.contains_coords(r.latitude, r.longitude)
        ]

    def replace(self, record: POIRecord) -> None:
        """Swap in an updated record with the same business id (in place)."""
        position = self._position.get(record.business_id)
        if position is None:
            raise DatasetError(f"unknown business_id {record.business_id!r}")
        self._records[position] = record

    def statistics(self) -> dict[str, float]:
        """Corpus statistics matching the paper's §3.1 reporting."""
        if not self._records:
            return {"poi_count": 0, "avg_tips": 0.0, "avg_tip_tokens": 0.0,
                    "avg_summary_tokens": 0.0}
        total_tips = sum(r.tip_count for r in self._records)
        total_tokens = sum(count_tokens(r.tips) for r in self._records)
        summaries = [r.tip_summary for r in self._records if r.tip_summary]
        avg_summary = (
            count_tokens(summaries) / len(summaries) if summaries else 0.0
        )
        n = len(self._records)
        return {
            "poi_count": n,
            "avg_tips": total_tips / n,
            "avg_tip_tokens": total_tokens / n,
            "avg_summary_tokens": avg_summary,
        }

    # ------------------------------------------------------------------
    # persistence (JSONL, optionally gzipped by file extension)
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the dataset as JSON Lines (``.gz`` suffix enables gzip)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"city_code": self.city_code}) + "\n")
            for record in self._records:
                fh.write(json.dumps(record.to_dict(), ensure_ascii=False) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        """Read a dataset written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise DatasetError(f"dataset file not found: {path}")
        opener = gzip.open if path.suffix == ".gz" else open
        records: list[POIRecord] = []
        city_code = ""
        with opener(path, "rt", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(
                        f"{path}:{line_no + 1}: invalid JSON ({exc})"
                    ) from exc
                if line_no == 0 and "business_id" not in data:
                    city_code = data.get("city_code", "")
                    continue
                records.append(POIRecord.from_dict(data))
        return cls(records, city_code=city_code)
