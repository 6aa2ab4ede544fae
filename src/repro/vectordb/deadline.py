"""Per-request deadline budgets.

A :class:`Deadline` is an absolute point on the monotonic clock carried
alongside a request as it moves through the stack: HTTP handler →
serving context → coalescer → sharded fan-out → per-shard search. Every
layer that is about to start a non-trivial unit of work calls
:meth:`Deadline.check` first; once the budget is spent the request fails
fast with :class:`~repro.errors.DeadlineExceeded` instead of occupying a
worker to compute an answer nobody is waiting for.

The type lives in :mod:`repro.vectordb` (the bottom of the dependency
stack) so both the engine and the serving layer can use it without a
circular import. It is a frozen dataclass over one float on the
``time.monotonic`` clock.

Deadlines only ever *shorten* effective work; they are checked at choke
points, not preemptively — a shard that is already inside a numpy kernel
finishes that kernel. The contract is "abandon early at the next
checkpoint", not "interrupt mid-instruction".
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import DeadlineExceeded

__all__ = ["Deadline", "DeadlineExceeded"]


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry on the monotonic clock.

    Construct via :meth:`after` / :meth:`after_ms` rather than passing
    ``expires_at`` directly, unless you are forwarding an existing
    deadline across a process boundary.
    """

    expires_at: float  # time.monotonic() timestamp

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now; must be non-negative."""
        if not seconds >= 0:  # rejects NaN too, which ``< 0`` lets through
            raise ValueError(f"deadline must be non-negative, got {seconds}")
        return cls(expires_at=time.monotonic() + seconds)

    @classmethod
    def after_ms(cls, milliseconds: float) -> "Deadline":
        """A deadline ``milliseconds`` from now; must be non-negative."""
        return cls.after(milliseconds / 1000.0)

    def remaining_s(self) -> float:
        """Seconds of budget left (clamped to 0.0 once expired)."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        """True once the budget is spent."""
        return time.monotonic() >= self.expires_at

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent.

        ``what`` names the unit of work being declined, so the error
        message says where along the pipeline the budget ran out.
        """
        if self.expired:
            raise DeadlineExceeded(f"deadline exceeded before {what}")
