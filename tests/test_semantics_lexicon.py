"""Tests for the lexicon, knowledge profiles, and concept extraction."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.semantics.lexicon import (
    MAX_PHRASE_TOKENS,
    ConceptExtractor,
    ConceptMention,
    KnowledgeProfile,
    Lexicon,
    SurfaceForm,
    full_knowledge,
    linear_knowledge,
)
from repro.text.tokenize import tokenize


@pytest.fixture
def small_lexicon() -> Lexicon:
    lex = Lexicon()
    lex.add_phrase("sports bar", "sports_bar", 0.1)
    lex.add_phrase("watch the game", "watch_sports", 0.5)
    lex.add_phrase("flat white", "coffee", 0.6)
    lex.add_phrase("coffee", "coffee", 0.05)
    lex.add_phrase("big screens and cold beer", "sports_bar", 0.65)
    return lex


class TestSurfaceForm:
    def test_difficulty_bounds(self):
        with pytest.raises(ValueError):
            SurfaceForm("x", ("x",), "c", 1.5)

    def test_empty_phrase_rejected(self):
        lex = Lexicon()
        with pytest.raises(ValueError):
            lex.add_phrase("!!!", "c", 0.5)

    def test_form_without_tokens_rejected_before_anything_is_stored(self):
        lex = Lexicon()
        with pytest.raises(ValueError):
            lex.add(SurfaceForm("", (), "c", 0.5))
        assert len(lex) == 0 and lex.forms_of("c") == []


class TestLexicon:
    def test_len_counts_forms(self, small_lexicon):
        assert len(small_lexicon) == 5

    def test_duplicate_mapping_ignored(self, small_lexicon):
        small_lexicon.add_phrase("coffee", "coffee", 0.05)
        assert len(small_lexicon) == 5

    def test_same_phrase_multiple_concepts(self):
        lex = Lexicon()
        lex.add_phrase("java", "coffee", 0.7)
        lex.add_phrase("java", "programming", 0.3)
        assert len(lex.lookup(("java",))) == 2

    def test_forms_of(self, small_lexicon):
        forms = small_lexicon.forms_of("sports_bar")
        assert {f.phrase for f in forms} == {
            "sports bar", "big screens and cold beer",
        }

    def test_forms_of_unknown_concept(self, small_lexicon):
        assert small_lexicon.forms_of("ghost") == []

    def test_oblique_forms_filter(self, small_lexicon):
        oblique = small_lexicon.oblique_forms_of("coffee", 0.45)
        assert [f.phrase for f in oblique] == ["flat white"]

    def test_concepts_listing(self, small_lexicon):
        assert set(small_lexicon.concepts()) == {
            "sports_bar", "watch_sports", "coffee",
        }


class TestKnowledgeProfiles:
    def test_full_knowledge_knows_everything(self, small_lexicon):
        profile = full_knowledge()
        assert all(profile.knows(f) for f in small_lexicon.forms())

    def test_zero_coverage_knows_nothing(self, small_lexicon):
        profile = KnowledgeProfile("void", lambda d: 0.0)
        assert not any(profile.knows(f) for f in small_lexicon.forms())

    def test_knowledge_is_stable_per_phrase(self, small_lexicon):
        profile = linear_knowledge("m", 0.7, 0.5)
        for form in small_lexicon.forms():
            assert profile.knows(form) == profile.knows(form)

    def test_different_models_miss_different_forms(self, lexicon):
        a = linear_knowledge("model-a", 0.6, 0.3)
        b = linear_knowledge("model-b", 0.6, 0.3)
        known_a = {f.phrase for f in lexicon.forms() if a.knows(f)}
        known_b = {f.phrase for f in lexicon.forms() if b.knows(f)}
        assert known_a != known_b  # same curve, different salt

    def test_linear_coverage_monotone(self):
        profile = linear_knowledge("m", 1.0, 0.8)
        assert profile.coverage(0.0) > profile.coverage(0.5) > profile.coverage(1.0)

    @given(st.floats(0, 1))
    def test_linear_clamped(self, difficulty):
        profile = linear_knowledge("m", 1.2, 2.0)
        assert 0.0 <= profile.coverage(difficulty) <= 1.0


class TestConceptExtractor:
    def test_extracts_multiword_phrases(self, small_lexicon):
        ex = ConceptExtractor(small_lexicon)
        found = ex.extract_concepts("a sports bar where we watch the game")
        assert found == {"sports_bar", "watch_sports"}

    def test_longest_match_wins(self, small_lexicon):
        ex = ConceptExtractor(small_lexicon)
        mentions = ex.extract("big screens and cold beer")
        assert [m.concept_id for m in mentions] == ["sports_bar"]

    def test_positions_reported(self, small_lexicon):
        ex = ConceptExtractor(small_lexicon)
        mentions = ex.extract("nice flat white today")
        assert mentions[0].position == 1

    def test_no_match_empty(self, small_lexicon):
        ex = ConceptExtractor(small_lexicon)
        assert ex.extract_concepts("completely unrelated text") == frozenset()

    def test_weak_model_misses_hard_forms(self, small_lexicon):
        weak = ConceptExtractor(
            small_lexicon, KnowledgeProfile("weak", lambda d: 1.0 if d < 0.3 else 0.0)
        )
        assert weak.extract_concepts("flat white") == frozenset()
        assert weak.extract_concepts("coffee") == {"coffee"}

    def test_full_ontology_demo_query(self, lexicon):
        ex = ConceptExtractor(lexicon)
        found = ex.extract_concepts(
            "I am looking for a bar to watch football that also serves "
            "delicious chicken. Do you have any recommendations?"
        )
        assert "sports_bar" in found
        assert "fried_chicken" in found

    @given(st.text(max_size=120))
    def test_extractor_never_raises(self, lexicon, text):
        ex = ConceptExtractor(lexicon)
        ex.extract(text)  # must not raise on arbitrary input


def _eight_window_extract(lexicon, knowledge, text):
    """The matcher as first written: at every position try all eight
    window lengths, longest first, asking the profile form by form."""
    tokens = tokenize(text)
    mentions, i = [], 0
    while i < len(tokens):
        step = 1
        for length in range(min(MAX_PHRASE_TOKENS, len(tokens) - i), 0, -1):
            known = [
                form for form in lexicon.lookup(tuple(tokens[i : i + length]))
                if knowledge.knows(form)
            ]
            if known:
                mentions += [
                    ConceptMention(f.concept_id, f.phrase, f.difficulty, i)
                    for f in known
                ]
                step = length
                break
        i += step
    return mentions


class TestExtractEqualsEightWindowMatcher:
    """``extract`` only tries the windows the first token allows and
    remembers what the profile knows; the mentions are the same."""

    @given(data=st.data())
    def test_streams_of_lexicon_phrases_and_noise(self, lexicon, data):
        phrases = [form.phrase for form in lexicon.forms()]
        # whole phrases, phrases cut short (a longer window that almost
        # matches), and words no phrase starts with
        piece = st.one_of(
            st.sampled_from(phrases),
            st.sampled_from(phrases).map(lambda p: p.rsplit(" ", 1)[0]),
            st.sampled_from(["zzz", "the", "and", "42"]),
        )
        text = " ".join(data.draw(st.lists(piece, max_size=8)))
        for knowledge in (
            full_knowledge(), linear_knowledge("half", 1.0, 0.8),
        ):
            extractor = ConceptExtractor(lexicon, knowledge)
            expected = _eight_window_extract(lexicon, knowledge, text)
            assert extractor.extract(text) == expected
            assert extractor.extract(text) == expected  # memo warm

    def test_a_phrase_added_later_is_matched(self, small_lexicon):
        extractor = ConceptExtractor(small_lexicon)
        assert extractor.extract_concepts("flat white with oat milk") == {
            "coffee"
        }
        small_lexicon.add_phrase("flat white with oat milk", "vegan", 0.4)
        assert extractor.extract_concepts("flat white with oat milk") == {
            "vegan"
        }
