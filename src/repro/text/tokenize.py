"""Tokenization and text normalization.

Every component in the library (baselines, embeddings, the simulated LLM)
goes through this one tokenizer so that lexical comparisons are consistent.
The tokenizer is deliberately simple — lowercasing, punctuation splitting,
apostrophe folding — because the paper's baselines (TF-IDF, LDA) operate on
plain bag-of-words input.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Iterable, Iterator

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)?")
_WS_RE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Lowercase ``text``, strip accents, and collapse whitespace.

    >>> normalize("  Café   du  Monde ")
    'cafe du monde'
    """
    if not text.isascii():  # ASCII is its own NFKD form
        decomposed = unicodedata.normalize("NFKD", text)
        text = decomposed.encode("ascii", "ignore").decode("ascii")
    return _WS_RE.sub(" ", text.lower()).strip()


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase word tokens.

    Apostrophe suffixes are folded into the preceding token and the
    possessive marker is dropped (``"mike's" -> "mikes"``), matching how a
    user query such as "Mike's Ice Cream" should match the stored name.

    >>> tokenize("Mike's Ice-Cream, est. 1998!")
    ['mikes', 'ice', 'cream', 'est', '1998']
    """
    return [
        token.replace("'", "")
        for token in _TOKEN_RE.findall(normalize(text))
    ]


def sentences(text: str) -> list[str]:
    """Split ``text`` into sentences on terminal punctuation.

    Used by the tip summarizer to score candidate sentences. The splitter
    is heuristic (no abbreviation handling) which is adequate for the short,
    informal review tips it is applied to.
    """
    parts = re.split(r"(?<=[.!?])\s+", text.strip())
    return [p.strip() for p in parts if p.strip()]


def ngrams(tokens: list[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield the ``n``-grams of ``tokens`` in order.

    >>> list(ngrams(["a", "b", "c"], 2))
    [('a', 'b'), ('b', 'c')]
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    for i in range(len(tokens) - n + 1):
        yield tuple(tokens[i : i + n])


def char_ngrams(token: str, n: int = 3) -> list[str]:
    """Return padded character ``n``-grams of ``token``.

    The token is padded with ``#`` so that prefixes/suffixes are
    distinguishable; used by the hashed-ngram embedder for robustness to
    morphological variation.

    >>> char_ngrams("cafe", 3)
    ['#ca', 'caf', 'afe', 'fe#']
    """
    padded = f"#{token}#"
    if len(padded) <= n:
        return [padded]
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


def count_tokens(texts: Iterable[str]) -> int:
    """Total token count over ``texts`` (used for dataset statistics)."""
    return sum(len(tokenize(t)) for t in texts)
