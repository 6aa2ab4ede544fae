"""Chat-completion response caching.

The evaluation harness re-issues identical prompts constantly (the same 30
queries against the same candidate sets across k-sweeps and ablations).
:class:`CachingLLMClient` wraps any :class:`~repro.llm.base.LLMClient` with
an exact-prompt LRU cache. Cache hits are free and instantaneous, mirroring
how a production deployment would cache LLM calls; the wrapper still
*records* each logical call in its own ledger so cost accounting can report
both "calls issued" and "calls actually paid for".
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from repro.llm.base import ChatCompletion, ChatMessage, LLMClient


def _cache_key(model: str, messages: list[ChatMessage]) -> str:
    digest = hashlib.sha256()
    digest.update(model.encode())
    for message in messages:
        digest.update(b"\x00")
        digest.update(message.role.encode())
        digest.update(b"\x01")
        digest.update(message.content.encode())
    return digest.hexdigest()


class CachingLLMClient(LLMClient):
    """Exact-prompt LRU cache over another LLM client."""

    def __init__(self, inner: LLMClient, max_entries: int = 10_000) -> None:
        super().__init__()
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._inner = inner
        self._max_entries = max_entries
        self._cache: OrderedDict[str, ChatCompletion] = OrderedDict()
        # LRU reordering and hit/miss counters are read-modify-write;
        # serving threads share one client. The inner chat call
        # itself stays outside the lock. ``_pending`` maps
        # keys with an in-flight inner call to an event, so concurrent
        # misses on the same prompt pay the provider once and all receive
        # the identical completion (sequential-equivalence for duplicate
        # queries in flight together).
        self._cache_lock = threading.Lock()
        self._pending: dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0

    @property
    def inner(self) -> LLMClient:
        """The wrapped client (its ledger counts only paid calls)."""
        return self._inner

    def _complete(self, model: str, messages: list[ChatMessage]) -> str:
        raise NotImplementedError(
            "CachingLLMClient overrides chat() directly"
        )

    def chat(self, model: str, messages: list[ChatMessage]) -> ChatCompletion:
        """Serve from cache when possible; otherwise delegate and store."""
        if not messages:
            raise ValueError("messages must be non-empty")
        key = _cache_key(model, messages)
        while True:
            pending = None
            with self._cache_lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.hits += 1
                else:
                    pending = self._pending.get(key)
                    if pending is None:
                        self._pending[key] = threading.Event()
                        self.misses += 1
            if cached is not None:
                self.ledger.record(cached)
                return cached
            if pending is None:
                break  # this thread owns the miss and pays the inner call
            pending.wait()  # another thread is fetching; re-check after

        try:
            completion = self._inner.chat(model, messages)
        except BaseException:
            # Release waiters; they re-check, find nothing, and retry
            # as owners themselves.
            with self._cache_lock:
                event = self._pending.pop(key, None)
            if event is not None:
                event.set()
            raise
        with self._cache_lock:
            self._cache[key] = completion
            if len(self._cache) > self._max_entries:
                self._cache.popitem(last=False)
            event = self._pending.pop(key)
        event.set()
        self.ledger.record(completion)
        return completion

    def savings_usd(self) -> float:
        """Cost avoided by cache hits (logical minus paid)."""
        return self.ledger.total_cost_usd() - self._inner.ledger.total_cost_usd()

    def clear(self) -> None:
        """Drop cached completions and reset hit/miss counters."""
        self._cache.clear()
        self.hits = 0
        self.misses = 0
