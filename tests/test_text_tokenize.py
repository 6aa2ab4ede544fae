"""Tests for repro.text.tokenize."""

from __future__ import annotations

import string
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.tokenize import (
    char_ngrams,
    count_tokens,
    ngrams,
    normalize,
    sentences,
    tokenize,
)


class TestNormalize:
    def test_lowercases(self):
        assert normalize("HELLO World") == "hello world"

    def test_strips_accents(self):
        assert normalize("Café du Monde") == "cafe du monde"

    def test_collapses_whitespace(self):
        assert normalize("  a \t b \n c  ") == "a b c"

    def test_empty(self):
        assert normalize("") == ""

    def test_non_ascii_dropped(self):
        assert normalize("naïve 東京") == "naive"

    @given(st.text())
    def test_ascii_shortcut_agrees_with_the_nfkd_path(self, text):
        """ASCII skips NFKD; everything else still goes through it."""
        decomposed = unicodedata.normalize("NFKD", text)
        folded = decomposed.encode("ascii", "ignore").decode("ascii")
        assert normalize(text) == " ".join(folded.lower().split())
        # a non-ASCII neighbour must not change how the ASCII part reads
        assert tokenize(text + " é") == tokenize(text) + ["e"]


class TestTokenize:
    def test_basic_words(self):
        assert tokenize("the quick brown fox") == ["the", "quick", "brown", "fox"]

    def test_punctuation_split(self):
        assert tokenize("wings, beer & tvs!") == ["wings", "beer", "tvs"]

    def test_possessive_folding(self):
        assert tokenize("Mike's Ice Cream") == ["mikes", "ice", "cream"]

    def test_numbers_kept(self):
        assert tokenize("129 2nd Ave N") == ["129", "2nd", "ave", "n"]

    def test_hyphenation_splits(self):
        assert tokenize("wood-fired pizza") == ["wood", "fired", "pizza"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_only_punctuation(self):
        assert tokenize("?!...,;") == []

    @given(st.text())
    def test_never_raises_and_lowercase(self, text: str):
        tokens = tokenize(text)
        assert all(t == t.lower() for t in tokens)
        assert all(t for t in tokens)

    @given(st.text(alphabet=string.ascii_letters + " ", max_size=80))
    def test_idempotent_through_join(self, text: str):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestSentences:
    def test_splits_on_terminators(self):
        result = sentences("Great coffee. Will return! Really?")
        assert result == ["Great coffee.", "Will return!", "Really?"]

    def test_single_sentence(self):
        assert sentences("no terminator here") == ["no terminator here"]

    def test_empty(self):
        assert sentences("   ") == []


class TestNgrams:
    def test_bigrams(self):
        assert list(ngrams(["a", "b", "c"], 2)) == [("a", "b"), ("b", "c")]

    def test_n_longer_than_input(self):
        assert list(ngrams(["a"], 2)) == []

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            list(ngrams(["a"], 0))


class TestCharNgrams:
    def test_padding(self):
        assert char_ngrams("cafe", 3) == ["#ca", "caf", "afe", "fe#"]

    def test_short_token(self):
        assert char_ngrams("a", 3) == ["#a#"]

    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
    def test_all_grams_have_length_n(self, token: str):
        grams = char_ngrams(token, 3)
        assert all(len(g) <= 3 for g in grams)
        assert grams  # never empty for non-empty token


class TestCountTokens:
    def test_counts_across_texts(self):
        assert count_tokens(["a b", "c d e"]) == 5

    def test_empty_iterable(self):
        assert count_tokens([]) == 0
