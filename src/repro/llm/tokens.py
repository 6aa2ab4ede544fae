"""Approximate token counting (BPE-like, without a BPE vocabulary).

OpenAI-style tokenizers average ~0.75 words per token on English prose.
We approximate: words and punctuation runs count via a regex, long words
count extra. Used for usage accounting, cost estimates, and the latency
model; nothing downstream needs exact BPE equivalence.
"""

from __future__ import annotations

import re

#: Characters per extra token inside a long word.
_LONG_WORD_CHARS = 6
#: One match per token: a punctuation mark, or up to ``_LONG_WORD_CHARS``
#: characters of a word (so a word of L characters counts ceil(L / 6)).
_TOKEN_RE = re.compile(
    rf"[A-Za-z0-9]{{1,{_LONG_WORD_CHARS}}}|[^\sA-Za-z0-9]"
)


def estimate_tokens(text: str) -> int:
    """Approximate LLM token count of ``text``.

    >>> estimate_tokens("")
    0
    >>> estimate_tokens("hello world") >= 2
    True
    """
    return len(_TOKEN_RE.findall(text))
