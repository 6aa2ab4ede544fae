"""Tests for the embedding substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import hashed
from repro.embeddings.base import EmbeddingModel
from repro.embeddings.cache import CachingEmbedder
from repro.embeddings.hashed import HashedNgramEmbedder
from repro.embeddings.semantic import SemanticEmbedder
from repro.text.similarity import cosine_dense


class TestHashedNgramEmbedder:
    def test_unit_norm(self):
        model = HashedNgramEmbedder(dim=64)
        vec = model.embed("crispy chicken wings")
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-5)

    def test_empty_text_zero_vector(self):
        model = HashedNgramEmbedder(dim=64)
        assert np.linalg.norm(model.embed("")) == 0.0

    def test_deterministic(self):
        model = HashedNgramEmbedder(dim=64)
        assert np.allclose(model.embed("pizza"), model.embed("pizza"))

    def test_shared_vocabulary_raises_similarity(self):
        model = HashedNgramEmbedder(dim=256)
        a = model.embed("fresh sushi rolls daily")
        b = model.embed("the best sushi rolls")
        c = model.embed("brake pads and rotors")
        assert cosine_dense(a, b) > cosine_dense(a, c)

    def test_no_semantics_in_pure_lexical_model(self):
        """Hashed n-grams cannot relate synonyms — that's the point."""
        model = HashedNgramEmbedder(dim=256, char_ngram_weight=0.0)
        a = model.embed("cafe")
        b = model.embed("espresso bar")
        assert abs(cosine_dense(a, b)) < 0.2

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            HashedNgramEmbedder(dim=0)

    def test_embed_batch_shape(self):
        model = HashedNgramEmbedder(dim=32)
        matrix = model.embed_batch(["a b", "c d", "e"])
        assert matrix.shape == (3, 32)

    def test_embed_batch_empty(self):
        model = HashedNgramEmbedder(dim=32)
        assert model.embed_batch([]).shape == (0, 32)

    def test_feature_memo_never_changes_a_vector(self, monkeypatch):
        """Cold, warm, full, or absent: the memo only saves digests."""
        texts = [
            "crispy chicken wings", "wings and cold beer on tap",
            "Mike's wood-fired pizza, est. 1998", "",
        ]
        monkeypatch.setattr(hashed, "_MEMO_ENTRIES", 0)
        unmemoized = [HashedNgramEmbedder(dim=64).embed(t) for t in texts]
        monkeypatch.setattr(hashed, "_MEMO_ENTRIES", 8)  # fills mid-text
        model = HashedNgramEmbedder(dim=64)
        cold = [model.embed(t) for t in texts]
        assert len(model._memo) == 8
        warm_and_full = [model.embed(t) for t in texts]
        batch = model.embed_batch(texts)
        for want, *got in zip(unmemoized, cold, warm_and_full, batch):
            for vector in got:
                assert vector.tobytes() == want.tobytes()


class TestSemanticEmbedder:
    @pytest.fixture(scope="class")
    def model(self) -> SemanticEmbedder:
        return SemanticEmbedder(dim=128)

    def test_unit_norm(self, model):
        assert np.linalg.norm(model.embed("great coffee")) == pytest.approx(
            1.0, abs=1e-5
        )

    def test_deterministic(self, model):
        text = "somewhere for a flat white"
        assert np.allclose(model.embed(text), model.embed(text))

    def test_synonym_similarity_beats_unrelated(self, model):
        query = model.embed("somewhere for a latte and a pastry")
        cafe = model.embed("Coffee & Tea, Cafes. Great espresso and croissants.")
        tires = model.embed("Tires, Automotive. brake service and alignment.")
        assert cosine_dense(query, cafe) > cosine_dense(query, tires) + 0.15

    def test_ancestor_propagation(self, model):
        """'espresso' should partially match a 'coffee' query via is-a."""
        query = model.embed("coffee")
        espresso_doc = model.embed("amazing macchiato and cortado")
        unrelated = model.embed("dog grooming and nail trims")
        assert cosine_dense(query, espresso_doc) > cosine_dense(query, unrelated)

    def test_knowledge_gap_exists(self, model, lexicon):
        """The default embedding model must miss some hard forms."""
        known = [
            f for f in lexicon.forms() if model.knowledge.knows(f)
        ]
        assert 0 < len(known) < len(lexicon.forms())
        hard = [f for f in lexicon.forms() if f.difficulty >= 0.6]
        hard_known = [f for f in hard if model.knowledge.knows(f)]
        assert len(hard_known) < len(hard)  # misses some hard paraphrases

    def test_concepts_in_diagnostic(self, model):
        assert "coffee" in model.concepts_in("a nice flat white") or (
            model.concepts_in("a nice flat white") == frozenset()
        )

    def test_out_of_lexicon_text_still_embeds(self, model):
        vec = model.embed("zxqv unknown blargh tokens")
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(st.text(max_size=100))
    def test_never_raises_norm_bounded(self, model, text):
        vec = model.embed(text)
        assert vec.shape == (128,)
        assert np.linalg.norm(vec) <= 1.0 + 1e-5


class TestCachingEmbedder:
    def test_cache_hit_returns_same_vector(self):
        cache = CachingEmbedder(HashedNgramEmbedder(dim=32))
        a = cache.embed("hello world")
        b = cache.embed("hello world")
        assert np.allclose(a, b)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_at_capacity(self):
        cache = CachingEmbedder(HashedNgramEmbedder(dim=16), max_entries=2)
        cache.embed("a")
        cache.embed("b")
        cache.embed("c")  # evicts "a"
        cache.embed("a")
        assert cache.misses == 4

    def test_clear(self):
        cache = CachingEmbedder(HashedNgramEmbedder(dim=16))
        cache.embed("a")
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CachingEmbedder(HashedNgramEmbedder(dim=16), max_entries=0)

    def test_dim_passthrough(self):
        cache = CachingEmbedder(HashedNgramEmbedder(dim=48))
        assert cache.dim == 48
        assert isinstance(cache, EmbeddingModel)
