"""Chat-completions client interface and usage accounting."""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.llm.models import get_model
from repro.llm.tokens import estimate_tokens


@dataclass(frozen=True)
class ChatMessage:
    """One message in a chat-completions conversation."""

    role: str  # "system" | "user" | "assistant"
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"invalid role {self.role!r}")


@dataclass(frozen=True)
class Usage:
    """Token usage of one completion."""

    input_tokens: int
    output_tokens: int

    @property
    def total_tokens(self) -> int:
        """Input plus output tokens."""
        return self.input_tokens + self.output_tokens


@dataclass(frozen=True)
class ChatCompletion:
    """The result of one simulated chat call."""

    model: str
    content: str
    usage: Usage
    latency_s: float   # modelled latency — reported, never slept
    cost_usd: float


@dataclass
class UsageLedger:
    """Accumulates usage and cost across calls (per model).

    Recording is internally locked: serving threads refine against one
    shared client, and every client subclass (including ones that
    override ``chat``) records through this method.
    """

    calls: dict[str, int] = field(default_factory=dict)
    input_tokens: dict[str, int] = field(default_factory=dict)
    output_tokens: dict[str, int] = field(default_factory=dict)
    cost_usd: dict[str, float] = field(default_factory=dict)
    latency_s: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, completion: ChatCompletion) -> None:
        """Add one completion to the ledger (thread-safe)."""
        with self._lock:
            self._record_locked(completion)

    def _record_locked(self, completion: ChatCompletion) -> None:
        m = completion.model
        self.calls[m] = self.calls.get(m, 0) + 1
        self.input_tokens[m] = (
            self.input_tokens.get(m, 0) + completion.usage.input_tokens
        )
        self.output_tokens[m] = (
            self.output_tokens.get(m, 0) + completion.usage.output_tokens
        )
        self.cost_usd[m] = self.cost_usd.get(m, 0.0) + completion.cost_usd
        self.latency_s[m] = self.latency_s.get(m, 0.0) + completion.latency_s

    def total_cost_usd(self) -> float:
        """Cost summed over all models."""
        return sum(self.cost_usd.values())

    def total_calls(self) -> int:
        """Number of calls over all models."""
        return sum(self.calls.values())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-model usage summary (for reports)."""
        return {
            model: {
                "calls": self.calls[model],
                "input_tokens": self.input_tokens.get(model, 0),
                "output_tokens": self.output_tokens.get(model, 0),
                "cost_usd": round(self.cost_usd.get(model, 0.0), 6),
                "latency_s": round(self.latency_s.get(model, 0.0), 3),
            }
            for model in sorted(self.calls)
        }


class LLMClient(ABC):
    """Interface of a chat-completions provider."""

    def __init__(self) -> None:
        self.ledger = UsageLedger()

    @abstractmethod
    def _complete(self, model: str, messages: list[ChatMessage]) -> str:
        """Produce the assistant's reply text."""

    def chat(self, model: str, messages: list[ChatMessage]) -> ChatCompletion:
        """Run one chat completion, recording usage, cost, and latency."""
        if not messages:
            raise ValueError("messages must be non-empty")
        spec = get_model(model)
        content = self._complete(model, messages)
        input_tokens = sum(estimate_tokens(m.content) for m in messages)
        output_tokens = estimate_tokens(content)
        usage = Usage(input_tokens=input_tokens, output_tokens=output_tokens)
        completion = ChatCompletion(
            model=model,
            content=content,
            usage=usage,
            latency_s=spec.latency_for(output_tokens),
            cost_usd=spec.cost_usd(input_tokens, output_tokens),
        )
        self.ledger.record(completion)
        return completion
