"""Surface-form lexicon and concept extraction.

The lexicon maps natural-language phrases to concepts, each with a
*difficulty* grade (see :mod:`repro.semantics.ontology.surface`). A
:class:`ConceptExtractor` scans text for known phrases using greedy
longest-match over the token stream.

Model fidelity is expressed as *knowledge*: each simulated model (the
embedding model, simulated GPT-4o, simulated o1-mini) knows a
deterministic subset of the lexicon, chosen per surface form by hashing
the phrase against the model's coverage curve. Harder forms are less
likely to be known — exactly how a smaller embedding model "misses" the
connection from "flat white" to coffee while a stronger LLM does not. The
subset is a property of the model, not of the call: the same phrase is
always known or always unknown to a given model.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.text.tokenize import tokenize

#: Longest phrase length (in tokens) the matcher will consider.
MAX_PHRASE_TOKENS = 8


@dataclass(frozen=True, slots=True)
class SurfaceForm:
    """One phrase -> concept mapping."""

    phrase: str           # normalized phrase, e.g. "watch the game"
    tokens: tuple[str, ...]
    concept_id: str
    difficulty: float     # 0 = trivially lexical, 1 = deeply semantic

    def __post_init__(self) -> None:
        if not 0.0 <= self.difficulty <= 1.0:
            raise ValueError(
                f"difficulty must be in [0, 1], got {self.difficulty}"
            )


@dataclass(frozen=True, slots=True)
class ConceptMention:
    """A concept detected in text, with provenance."""

    concept_id: str
    phrase: str
    difficulty: float
    position: int  # token index where the phrase starts


class Lexicon:
    """All known surface forms, indexed for longest-match extraction."""

    def __init__(self, forms: Iterable[SurfaceForm] = ()) -> None:
        self._forms: dict[tuple[str, ...], list[SurfaceForm]] = {}
        self._by_concept: dict[str, list[SurfaceForm]] = {}
        #: first token -> token count of the longest phrase starting
        #: with it: the only windows extraction needs to try.
        self._longest: dict[str, int] = {}
        for form in forms:
            self.add(form)

    def __len__(self) -> int:
        return sum(len(v) for v in self._forms.values())

    def add(self, form: SurfaceForm) -> None:
        """Register a surface form (multiple concepts per phrase allowed)."""
        if not form.tokens:
            raise ValueError(f"phrase {form.phrase!r} has no tokens")
        if len(form.tokens) > MAX_PHRASE_TOKENS:
            raise ValueError(
                f"phrase {form.phrase!r} exceeds {MAX_PHRASE_TOKENS} tokens"
            )
        bucket = self._forms.setdefault(form.tokens, [])
        if any(f.concept_id == form.concept_id for f in bucket):
            return  # identical mapping already present
        bucket.append(form)
        self._by_concept.setdefault(form.concept_id, []).append(form)
        first = form.tokens[0]
        self._longest[first] = max(
            self._longest.get(first, 0), len(form.tokens)
        )

    def add_phrase(self, phrase: str, concept_id: str, difficulty: float) -> None:
        """Convenience wrapper building the :class:`SurfaceForm`."""
        tokens = tuple(tokenize(phrase))
        if not tokens:
            raise ValueError(f"phrase {phrase!r} tokenizes to nothing")
        self.add(SurfaceForm(" ".join(tokens), tokens, concept_id, difficulty))

    def forms_of(self, concept_id: str) -> list[SurfaceForm]:
        """All surface forms of a concept (copy; empty when unknown)."""
        return list(self._by_concept.get(concept_id, []))

    def forms(self) -> list[SurfaceForm]:
        """Every surface form, in insertion order per phrase bucket."""
        return [f for bucket in self._forms.values() for f in bucket]

    def concepts(self) -> list[str]:
        """All concept ids that have at least one surface form."""
        return list(self._by_concept)

    def lookup(self, tokens: tuple[str, ...]) -> list[SurfaceForm]:
        """Exact-match lookup of a token tuple."""
        return list(self._forms.get(tokens, ()))

    def oblique_forms_of(
        self, concept_id: str, min_difficulty: float
    ) -> list[SurfaceForm]:
        """Forms of a concept at or above ``min_difficulty``.

        Query generation draws from these so that test queries are "hard
        for keyword matching" per the paper's construction.
        """
        return [
            f
            for f in self._by_concept.get(concept_id, [])
            if f.difficulty >= min_difficulty
        ]


def _stable_unit_hash(text: str, salt: str) -> float:
    """Deterministic hash of ``text`` to [0, 1), independent of PYTHONHASHSEED."""
    digest = hashlib.sha256(f"{salt}:{text}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class KnowledgeProfile:
    """How much of the lexicon a simulated model knows.

    ``coverage(difficulty)`` gives the probability that a form of that
    difficulty is in the model's vocabulary; membership is then decided
    deterministically per phrase via hashing, salted by ``name`` so
    different models miss *different* forms.
    """

    name: str
    coverage: Callable[[float], float]

    def knows(self, form: SurfaceForm) -> bool:
        """Whether this model understands ``form`` (stable per model+phrase)."""
        p = self.coverage(form.difficulty)
        if p >= 1.0:
            return True
        if p <= 0.0:
            return False
        return _stable_unit_hash(f"{form.phrase}->{form.concept_id}", self.name) < p


def full_knowledge(name: str = "oracle") -> KnowledgeProfile:
    """A profile that knows every surface form (used for ground truth)."""
    return KnowledgeProfile(name=name, coverage=lambda d: 1.0)


def linear_knowledge(name: str, base: float, slope: float) -> KnowledgeProfile:
    """Coverage ``base - slope * difficulty`` clamped to [0, 1].

    E.g. ``linear_knowledge("embed", 1.0, 0.85)`` knows all trivial forms
    but only ~15% of the hardest ones.
    """
    def coverage(difficulty: float) -> float:
        return max(0.0, min(1.0, base - slope * difficulty))

    return KnowledgeProfile(name=name, coverage=coverage)


class ConceptExtractor:
    """Greedy longest-match concept extraction under a knowledge profile."""

    def __init__(self, lexicon: Lexicon, knowledge: KnowledgeProfile | None = None) -> None:
        self._lexicon = lexicon
        self._knowledge = knowledge or full_knowledge()
        #: ``knows`` per form: a profile's answer never changes, and
        #: asking costs a sha256.
        self._known: dict[SurfaceForm, bool] = {}

    @property
    def knowledge(self) -> KnowledgeProfile:
        """The profile governing which surface forms are recognized."""
        return self._knowledge

    def extract(self, text: str) -> list[ConceptMention]:
        """Return all concept mentions found in ``text``.

        Scans left to right; at each position tries the longest phrase
        first, and on a match emits every concept mapped to that phrase
        (that the model knows), then resumes after the phrase.
        """
        tokens = tokenize(text)
        forms_of = self._lexicon._forms
        longest = self._lexicon._longest
        mentions: list[ConceptMention] = []
        i = 0
        n = len(tokens)
        while i < n:
            matched_len = 0
            # No phrase starting with this token is longer than
            # longest[token], so longer windows cannot match.
            for length in range(min(longest.get(tokens[i], 0), n - i), 0, -1):
                forms = forms_of.get(tuple(tokens[i : i + length]))
                if not forms:
                    continue
                known = [f for f in forms if self._knows(f)]
                if known:
                    for form in known:
                        mentions.append(
                            ConceptMention(
                                concept_id=form.concept_id,
                                phrase=form.phrase,
                                difficulty=form.difficulty,
                                position=i,
                            )
                        )
                    matched_len = length
                    break
            i += matched_len if matched_len else 1
        return mentions

    def _knows(self, form: SurfaceForm) -> bool:
        known = self._known.get(form)
        if known is None:
            known = self._known[form] = self._knowledge.knows(form)
        return known

    def extract_concepts(self, text: str) -> frozenset[str]:
        """Just the set of concept ids mentioned in ``text``."""
        return frozenset(m.concept_id for m in self.extract(text))
