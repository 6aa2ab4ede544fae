"""Int8 scalar quantization: codebook laws, tier equivalence, v4 snapshots.

Locks down the sq8 tier's acceptance surface:

* property-based codebook laws (hypothesis): reconstruction error is
  bounded by half a quantization step, re-quantizing a dequantized
  matrix reproduces the codes exactly (float64 idempotence), constant
  columns and single-point fits decode exactly, extreme-but-finite
  inputs never overflow;
* the code-space kernels in :mod:`repro.vectordb.distance` score
  identically (up to float accumulation) to scoring the dequantized
  rows with the float32 kernels, for every metric;
* exact-rescore equivalence: with ``rescore_factor`` covering the whole
  population, a quantized search is bit-identical to the float32
  ``exact=True`` path — on both backends, sharded and unsharded,
  through save → ``mmap=True`` load → WAL replay;
* schema-v4 corruption fuzzing: a truncated or bit-flipped
  ``codes.npy``/``codebook.npz`` degrades the load to the float32 tier
  with a ``RuntimeWarning`` — never wrong results, never a failed load.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import (
    DEFAULT_RESCORE_FACTOR,
    Collection,
    PointStruct,
)
from repro.vectordb.distance import Metric, similarity, sq8_similarity
from repro.vectordb.persistence import (
    inspect_snapshot,
    load_collection,
    migrate_snapshot,
    save_collection,
)
from repro.vectordb.quantization import SQ8Codebook, SQ8Store, validate_quantize
from repro.vectordb.sharded import ShardedCollection

settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro")

DIM = 16
N = 320
K = 8


def _vectors(n: int = N, seed: int = 5, dim: int = DIM) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _points(vecs: np.ndarray, prefix: str = "p") -> list[PointStruct]:
    return [
        PointStruct(id=f"{prefix}{i}", vector=vecs[i], payload={"i": i})
        for i in range(vecs.shape[0])
    ]


def _make(kind: str, metric: Metric = Metric.COSINE):
    if kind == "sharded":
        return ShardedCollection(
            "sq8", DIM, metric=metric, shards=3, quantize="sq8"
        )
    return Collection("sq8", DIM, metric=metric, quantize="sq8")


def _hits(rows) -> list[list[tuple[str, float]]]:
    return [[(h.id, h.score) for h in row] for row in rows]


# ----------------------------------------------------------------------
# codebook laws (property-based)
# ----------------------------------------------------------------------


@st.composite
def quantizable_matrices(draw) -> np.ndarray:
    """Random float32 matrices spanning the codebook's tricky regimes.

    Mixes scales from denormal-adjacent to within a factor of ~100 of
    the float32 maximum (where float32 ``max - min`` would overflow),
    and optionally plants a constant column — the ``step == 0`` case.
    """
    n = draw(st.integers(1, 48))
    d = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**31))
    scale = draw(st.sampled_from([1.0, 1e-6, 1e6, 5e35]))
    rng = np.random.default_rng(seed)
    matrix = (rng.standard_normal((n, d)) * scale).astype(np.float32)
    if draw(st.booleans()):
        column = draw(st.integers(0, d - 1))
        matrix[:, column] = draw(
            st.sampled_from([0.0, 1.5, -2.75, 3e38, -3e38])
        )
    return matrix


class TestCodebookProperties:
    @settings(max_examples=60)
    @given(quantizable_matrices())
    def test_reconstruction_error_bounded_by_half_step(self, matrix):
        codebook = SQ8Codebook.fit(matrix)
        codes = codebook.encode(matrix)
        assert codes.dtype == np.uint8 and codes.shape == matrix.shape
        recon = codebook.decode(codes, dtype=np.float64)
        m64 = matrix.astype(np.float64)
        steps64 = codebook.steps.astype(np.float64)
        mins64 = codebook.mins.astype(np.float64)
        # Half a step of rounding, plus the float32 rounding of the
        # fitted bounds themselves (relative in the bound magnitudes).
        tol = (
            0.5 * steps64
            + 1e-4 * steps64
            + 1e-6 * np.abs(mins64)
            + 1e-6 * np.abs(mins64 + 255.0 * steps64)
        )
        assert np.all(np.abs(recon - m64) <= tol)

    @settings(max_examples=60)
    @given(quantizable_matrices())
    def test_requantization_is_idempotent(self, matrix):
        """encode(decode(codes)) == codes, exactly.

        The codes are a fixed point of the quantizer: dequantized values
        sit on the codebook grid, so quantizing again must reproduce
        them bit-for-bit (in float64 — see the quantization module
        docstring for why the float32 round-trip is weaker).
        """
        codebook = SQ8Codebook.fit(matrix)
        codes = codebook.encode(matrix)
        recon = codebook.decode(codes, dtype=np.float64)
        assert np.array_equal(codebook.encode(recon), codes)

    @settings(max_examples=40)
    @given(st.integers(1, 40), st.integers(1, 16),
           st.floats(-1e6, 1e6, allow_nan=False))
    def test_constant_columns_decode_exactly(self, n, d, value):
        matrix = np.full((n, d), np.float32(value), dtype=np.float32)
        codebook = SQ8Codebook.fit(matrix)
        assert np.all(codebook.steps == 0.0)
        codes = codebook.encode(matrix)
        assert np.all(codes == 0)
        assert np.array_equal(
            codebook.decode(codes, dtype=np.float32), matrix
        )

    @settings(max_examples=25)
    @given(st.integers(0, 2**31), st.integers(1, 24))
    def test_single_point_fit_round_trips_exactly(self, seed, d):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((1, d)).astype(np.float32)
        codebook = SQ8Codebook.fit(matrix)
        assert np.all(codebook.steps == 0.0)  # min == max per column
        decoded = codebook.decode(codebook.encode(matrix), dtype=np.float32)
        assert np.array_equal(decoded, matrix)

    @settings(max_examples=25)
    @given(st.integers(0, 2**31))
    def test_extreme_inputs_stay_finite(self, seed):
        """Columns spanning ±3e38: float32 ``max - min`` overflows, the
        float64 fit must not."""
        rng = np.random.default_rng(seed)
        matrix = np.clip(
            rng.standard_normal((20, 6)) * 1e38, -3e38, 3e38
        ).astype(np.float32)
        codebook = SQ8Codebook.fit(matrix)
        assert np.all(np.isfinite(codebook.steps))
        recon = codebook.decode(codebook.encode(matrix), dtype=np.float32)
        assert np.all(np.isfinite(recon))

    def test_fit_and_ctor_reject_bad_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            SQ8Codebook.fit(np.zeros((0, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="finite"):
            SQ8Codebook(
                np.array([np.inf], dtype=np.float32),
                np.array([1.0], dtype=np.float32),
            )
        with pytest.raises(ValueError, match="non-negative"):
            SQ8Codebook(
                np.array([0.0], dtype=np.float32),
                np.array([-1.0], dtype=np.float32),
            )
        with pytest.raises(ValueError, match="unknown quantize kind"):
            validate_quantize("pq")
        assert validate_quantize(None) is None
        assert validate_quantize("sq8") == "sq8"


class TestKernelAgreement:
    """The uint8-matmul kernels == float32 kernels over dequantized rows."""

    @pytest.mark.parametrize(
        "metric", [Metric.COSINE, Metric.DOT, Metric.EUCLIDEAN]
    )
    def test_sq8_similarity_matches_decoded_rows(self, metric):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((200, DIM)).astype(np.float32)
        codebook = SQ8Codebook.fit(matrix)
        codes = codebook.encode(matrix)
        decoded = codebook.decode(codes, dtype=np.float32)
        for seed in range(5):
            query = (
                np.random.default_rng(seed)
                .standard_normal(DIM)
                .astype(np.float32)
            )
            want = similarity(query, decoded, metric)
            got = sq8_similarity(
                query, codes, codebook.mins, codebook.steps, metric=metric
            )
            # Near-zero euclidean distances amplify accumulation error
            # through the sqrt; 1e-3 absolute still catches any real
            # kernel bug (wrong codes are off by whole steps).
            np.testing.assert_allclose(got, want, rtol=2e-4, atol=1e-3)

    def test_store_traversal_ordering_matches_decoded_scores(self):
        """The traversal rewrite (matrix_like @ w) must order rows like
        the float32 similarity of the dequantized rows — for euclidean
        too, where the rewrite is a constant minus the distance."""
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((150, DIM)).astype(np.float32)
        store = SQ8Store(DIM)
        store.sync(matrix)
        codebook = store.codebook()
        decoded = codebook.decode(store.codes(), dtype=np.float32)
        query = rng.standard_normal(DIM).astype(np.float32)
        for metric in (Metric.COSINE, Metric.DOT, Metric.EUCLIDEAN):
            matrix_like, w = store.traversal_query(query, metric)
            surrogate = np.asarray(
                matrix_like[np.arange(len(decoded))] @ w, dtype=np.float64
            )
            want = similarity(query, decoded, metric).astype(np.float64)
            assert np.array_equal(np.argsort(surrogate), np.argsort(want))


# ----------------------------------------------------------------------
# exact-rescore equivalence through the full lifecycle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["single", "sharded"])
@pytest.mark.parametrize("metric", [Metric.COSINE, Metric.EUCLIDEAN])
class TestExactRescoreEquivalence:
    def test_full_factor_bit_identical_across_lifecycle(
        self, kind, metric, tmp_path, monkeypatch
    ):
        """sq8 + population-covering rescore == float32 exact, through
        upsert → save → load(mmap) → WAL replay."""
        # Keep the sq8 path: below the threshold a search scans float32.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        vecs = _vectors()
        queries = vecs[:10]
        collection = _make(kind, metric)
        collection.upsert(_points(vecs))
        collection.build_hnsw()

        def assert_equivalent(target, n_rows):
            factor = float(n_rows)
            # Rescoring scores candidates with the single-query GEMV
            # kernel, so the bit-identical contract is against exact
            # *single-query* search; the batched exact path documents
            # last-ulp GEMM accumulation differences (see flat.py).
            want = [
                [(h.id, h.score) for h in target.search(q, K, exact=True)]
                for q in queries
            ]
            got = _hits(
                target.search_batch(queries, K, rescore_factor=factor)
            )
            assert got == want
            per_query = [
                [(h.id, h.score)
                 for h in target.search(q, K, rescore_factor=factor)]
                for q in queries
            ]
            assert per_query == want

        assert_equivalent(collection, N)

        snap = tmp_path / "snap"
        save_collection(collection, snap)
        collection.close()

        served = load_collection(snap, mmap=True, wal="always")
        assert served.quantize == "sq8"
        assert_equivalent(served, N)

        # Rows appended after the snapshot live only in the WAL; replay
        # must re-quantize them and keep the equivalence exact.
        served.upsert(_points(_vectors(n=30, seed=31), prefix="x"))
        assert_equivalent(served, N + 30)
        served.close()

        recovered = load_collection(snap, mmap=True)
        assert recovered.quantize == "sq8"
        assert len(recovered) == N + 30
        assert_equivalent(recovered, N + 30)
        recovered.close()

    def test_default_factor_scores_are_true_float32(
        self, kind, metric, monkeypatch
    ):
        """Whatever candidates the quantized traversal picks, returned
        scores must be exact float32 similarities — rescoring is never
        skipped at the default ``rescore_factor``."""
        # Keep the sq8 walk: below the threshold a search scans float32.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        vecs = _vectors(seed=23)
        collection = _make(kind, metric)
        collection.upsert(_points(vecs))
        collection.build_hnsw()
        assert DEFAULT_RESCORE_FACTOR >= 1.0
        truth = {
            h.id: h.score
            for h in collection.search(vecs[1], N, exact=True)
        }
        for hit in collection.search(vecs[1], K):
            assert hit.score == truth[hit.id]
        collection.close()


class TestRescoreFactorValidation:
    def test_sub_one_factor_rejected(self):
        collection = _make("single")
        collection.upsert(_points(_vectors(n=40)))
        with pytest.raises(ValueError, match="rescore_factor"):
            collection.search(_vectors(n=1, seed=2)[0], 5, rescore_factor=0.5)
        collection.close()

    def test_factor_ignored_without_tier(self):
        plain = Collection("plain", DIM)
        plain.upsert(_points(_vectors(n=40)))
        hits = plain.search(_vectors(n=1, seed=2)[0], 5, rescore_factor=2.0)
        assert len(hits) == 5
        plain.close()


# ----------------------------------------------------------------------
# schema v4: persistence + corruption fuzzing
# ----------------------------------------------------------------------


def _quantized_snapshot(tmp_path, kind: str = "single"):
    vecs = _vectors()
    collection = _make(kind)
    collection.upsert(_points(vecs))
    collection.build_hnsw()
    snap = tmp_path / "snap"
    save_collection(collection, snap)
    collection.close()
    return snap, vecs


class TestSchemaV4:
    def test_v4_snapshot_layout_and_inspect(self, tmp_path):
        snap, _ = _quantized_snapshot(tmp_path)
        assert (snap / "codes.npy").exists()
        assert (snap / "codebook.npz").exists()
        info = inspect_snapshot(snap)
        assert info["schema"] == 4
        assert info["quantize"] == "sq8"
        assert info["codes_persisted"]

    def test_unquantized_v4_has_no_code_files(self, tmp_path):
        plain = Collection("plain", DIM)
        plain.upsert(_points(_vectors(n=50)))
        snap = tmp_path / "snap"
        save_collection(plain, snap)
        plain.close()
        assert not (snap / "codes.npy").exists()
        info = inspect_snapshot(snap)
        assert info["schema"] == 4 and info["quantize"] is None
        loaded = load_collection(snap)
        assert loaded.quantize is None
        loaded.close()

    def test_migrate_adds_tier_to_v3_snapshot(self, tmp_path, monkeypatch):
        # Keep the sq8 path: below the threshold a search scans float32.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        plain = Collection("plain", DIM)
        vecs = _vectors(n=100)
        plain.upsert(_points(vecs))
        plain.build_hnsw()
        snap = tmp_path / "v3"
        save_collection(plain, snap)
        plain.close()
        meta = json.loads((snap / "meta.json").read_text())
        meta["schema"] = 3  # same layout; no writer emits v3 any more
        (snap / "meta.json").write_text(json.dumps(meta))
        migrate_snapshot(snap, tmp_path / "v4", quantize="sq8")
        info = inspect_snapshot(tmp_path / "v4")
        assert info["schema"] == 4 and info["quantize"] == "sq8"
        loaded = load_collection(tmp_path / "v4", mmap=True)
        assert loaded.quantize == "sq8"
        want = [
            [(h.id, h.score) for h in loaded.search(q, K, exact=True)]
            for q in vecs[:5]
        ]
        got = _hits(
            loaded.search_batch(vecs[:5], K, rescore_factor=100.0)
        )
        assert got == want
        loaded.close()

    def test_wal_only_rows_requantized_on_reload(self, tmp_path, monkeypatch):
        # Keep the sq8 path: below the threshold a search scans float32.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        snap, vecs = _quantized_snapshot(tmp_path)
        served = load_collection(snap, wal="always")
        served.upsert(_points(_vectors(n=20, seed=41), prefix="w"))
        served.close()
        reloaded = load_collection(snap, wal="always")
        assert len(reloaded) == N + 20
        store = reloaded.sq8_store
        hits = reloaded.search(vecs[0], K)  # triggers the lazy sync
        assert len(hits) == K
        assert reloaded.sq8_store.count == N + 20 or store.count == N + 20
        reloaded.close()


class TestQuantizedTierCorruption:
    """Damaged v4 code files degrade to float32 — never wrong results."""

    def _assert_degraded_but_correct(self, snap, vecs, mmap=False):
        with pytest.MonkeyPatch.context() as patch:
            # Keep the graph walk: below the threshold a search scans.
            patch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
            with pytest.warns(RuntimeWarning, match="unusable quantized tier"):
                loaded = load_collection(snap, mmap=mmap)
            assert loaded.quantize is None
            assert loaded.sq8_store is None
            with pytest.warns(RuntimeWarning, match="unusable quantized tier"):
                pristine = load_collection(snap, hnsw=None)  # f32 truth
            want = _hits(pristine.search_batch(vecs[:6], K, exact=True))
            assert _hits(loaded.search_batch(vecs[:6], K, exact=True)) == want
            # Approximate searches still work off the float32 graph, and a
            # rescore_factor on a degraded collection is simply ignored.
            assert len(loaded.search(vecs[0], K, rescore_factor=4.0)) == K
            pristine.close()
            loaded.close()

    def test_truncated_codes_degrade(self, tmp_path):
        snap, vecs = _quantized_snapshot(tmp_path)
        codes = snap / "codes.npy"
        codes.write_bytes(codes.read_bytes()[:40])
        self._assert_degraded_but_correct(snap, vecs)

    def test_bit_flipped_codes_fail_the_checksum(self, tmp_path):
        """A flipped byte mid-matrix loads cleanly (right shape, right
        dtype) — only the persisted checksum can catch it."""
        snap, vecs = _quantized_snapshot(tmp_path)
        codes = snap / "codes.npy"
        data = bytearray(codes.read_bytes())
        data[len(data) // 2] ^= 0xFF
        codes.write_bytes(bytes(data))
        self._assert_degraded_but_correct(snap, vecs, mmap=True)

    def test_garbage_codebook_degrades(self, tmp_path):
        snap, vecs = _quantized_snapshot(tmp_path)
        (snap / "codebook.npz").write_bytes(b"not a zipfile at all")
        self._assert_degraded_but_correct(snap, vecs)

    def test_codes_from_other_collection_degrade(self, tmp_path):
        """codes.npy copied from a smaller snapshot: row count disagrees
        with the collection — rejected by validation, not served."""
        snap, vecs = _quantized_snapshot(tmp_path)
        small = Collection("sq8", DIM, quantize="sq8")
        small.upsert(_points(_vectors(n=30, seed=77)))
        small_snap = tmp_path / "small"
        save_collection(small, small_snap)
        small.close()
        (snap / "codes.npy").write_bytes(
            (small_snap / "codes.npy").read_bytes()
        )
        self._assert_degraded_but_correct(snap, vecs)

    def test_one_sharded_corrupt_shard_degrades_alone(
        self, tmp_path, monkeypatch
    ):
        # Keep the sq8 path: below the threshold a search scans float32.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        snap, vecs = _quantized_snapshot(tmp_path, kind="sharded")
        victim = snap / "shard-01" / "codes.npy"
        victim.write_bytes(victim.read_bytes()[:40])
        with pytest.warns(RuntimeWarning, match="unusable quantized tier"):
            loaded = load_collection(snap)
        # The damaged shard serves float32; its siblings keep the tier,
        # so the collection still reports (and searches) quantized.
        tiers = [
            shard.quantize for shard in loaded.shard_collections
        ]
        assert tiers.count(None) == 1 and tiers.count("sq8") == 2
        assert loaded.quantize == "sq8"
        want = [
            [(h.id, h.score) for h in loaded.search(q, K, exact=True)]
            for q in vecs[:6]
        ]
        got = _hits(
            loaded.search_batch(vecs[:6], K, rescore_factor=float(N))
        )
        assert got == want
        loaded.close()


# ----------------------------------------------------------------------
# client facade plumbing
# ----------------------------------------------------------------------


class TestClientPlumbing:
    def test_create_collection_quantize_and_exist_ok(self):
        with VectorDBClient() as client:
            created = client.create_collection("q", DIM, quantize="sq8")
            assert created.quantize == "sq8"
            again = client.create_collection(
                "q", DIM, quantize="sq8", exist_ok=True
            )
            assert again is created
            with pytest.raises(Exception, match="quantize"):
                client.create_collection("q", DIM, exist_ok=True)
            info = client.collection_info("q")
            assert info["quantize"] == "sq8"

    def test_reshard_carries_quantize(self):
        with VectorDBClient() as client:
            client.create_collection("q", DIM, quantize="sq8")
            client.upsert("q", _points(_vectors(n=90)))
            resharded = client.reshard_collection("q", 3)
            assert resharded.quantize == "sq8"
            assert resharded.n_shards == 3
            want = _hits(
                [client.search("q", _vectors(n=1, seed=3)[0], K, exact=True)]
            )
            got = _hits(
                [client.search(
                    "q", _vectors(n=1, seed=3)[0], K, rescore_factor=90.0
                )]
            )
            assert got == want
