"""Tests for the Dataset container and persistence."""

from __future__ import annotations

import dataclasses

import pytest

from repro.data.dataset import Dataset
from repro.data.yelp import YelpStyleGenerator
from repro.errors import DatasetError
from repro.geo.bbox import BoundingBox
from repro.geo.regions import SANTA_BARBARA


@pytest.fixture(scope="module")
def dataset() -> Dataset:
    records = YelpStyleGenerator(seed=5).generate_city(SANTA_BARBARA, count=120)
    return Dataset(records, "SB")


class TestDataset:
    def test_len_and_iteration(self, dataset):
        assert len(dataset) == 120
        assert len(list(dataset)) == 120

    def test_get_by_id(self, dataset):
        record = dataset[0]
        assert dataset.get(record.business_id) is record

    def test_get_unknown_raises(self, dataset):
        with pytest.raises(KeyError):
            dataset.get("nope")

    def test_contains_id(self, dataset):
        assert dataset.contains_id(dataset[0].business_id)
        assert not dataset.contains_id("nope")

    def test_duplicate_ids_rejected(self, dataset):
        record = dataset[0]
        with pytest.raises(DatasetError, match="duplicate"):
            Dataset([record, record])

    def test_in_range_matches_linear_scan(self, dataset):
        box = BoundingBox.around(SANTA_BARBARA.center, 4, 4)
        expected = {
            r.business_id
            for r in dataset
            if box.contains_coords(r.latitude, r.longitude)
        }
        assert {r.business_id for r in dataset.in_range(box)} == expected

    def test_replace_swaps_record(self, dataset):
        record = dataset[3]
        updated = dataclasses.replace(record, tip_summary="A new summary.")
        dataset.replace(updated)
        assert dataset.get(record.business_id).tip_summary == "A new summary."
        assert dataset[3].tip_summary == "A new summary."

    def test_replace_keeps_iteration_order(self, dataset):
        before = [r.business_id for r in dataset]
        for record in reversed(list(dataset)):
            dataset.replace(dataclasses.replace(record, tip_summary="x"))
        assert [r.business_id for r in dataset] == before
        assert all(r.tip_summary == "x" for r in dataset)
        assert all(dataset.get(pid) is dataset[i] for i, pid in enumerate(before))

    def test_replace_unknown_raises(self, dataset):
        ghost = dataclasses.replace(dataset[0], business_id="ghost-id-123")
        with pytest.raises(DatasetError):
            dataset.replace(ghost)

    def test_statistics_keys(self, dataset):
        stats = dataset.statistics()
        assert set(stats) == {
            "poi_count", "avg_tips", "avg_tip_tokens", "avg_summary_tokens",
        }

    def test_statistics_empty_dataset(self):
        stats = Dataset([], "X").statistics()
        assert stats["poi_count"] == 0


class TestPersistence:
    def test_jsonl_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "sb.jsonl"
        dataset.save(path)
        loaded = Dataset.load(path)
        assert loaded.city_code == "SB"
        assert len(loaded) == len(dataset)
        assert loaded[0].to_dict() == dataset[0].to_dict()

    def test_gzip_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "sb.jsonl.gz"
        dataset.save(path)
        loaded = Dataset.load(path)
        assert len(loaded) == len(dataset)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            Dataset.load(tmp_path / "missing.jsonl")

    def test_load_corrupt_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"city_code": "X"}\nnot json\n')
        with pytest.raises(DatasetError, match="bad.jsonl:2"):
            Dataset.load(path)

    def test_profiles_survive_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "sb.jsonl"
        dataset.save(path)
        loaded = Dataset.load(path)
        assert loaded[0].profile == dataset[0].profile
