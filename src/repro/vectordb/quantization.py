"""Int8 scalar quantization — the ``sq8`` storage tier.

A collection created with ``quantize="sq8"`` keeps, next to its float32
matrix, a per-dimension affine codebook and a uint8 code matrix:

    code  = clip(rint((x - mins) / steps), 0, 255)
    x̂     = code * steps + mins        (steps = (max - min) / 255)

HNSW traversal and candidate scoring read the codes (1 byte/dim, 4×
smaller than float32) through the matmul kernels in
:mod:`repro.vectordb.distance`; the final top-``rescore_factor·k``
candidates are rescored *exactly* against the float32 matrix, so the
tier trades a little traversal fidelity — never result fidelity — for
memory.

Numerical contract: all encode/decode arithmetic runs in float64. Two
reasons, both load-bearing for the property suite:

* float32 intermediates overflow for extreme-but-finite inputs
  (``max - min`` exceeds float32 range when columns span ±3e38);
* re-encoding a dequantized matrix reproduces the codes *exactly* in
  float64 (``c·s`` and ``m`` are float32 values, exact in float64, and
  rint lands back on ``c``), which the idempotence test pins. The same
  claim is false for float32 round-trips when ``|mins| ≫ 255·steps``.

Concurrency contract: :class:`SQ8Store` mirrors the collection's
lock-free read path. All tier state a reader needs — codebook, code
buffer, row count, cached energies — lives in one immutable
:class:`_TierState` published by a single attribute store; readers grab
it once and never observe a codebook/codes mismatch across a refit.
Appends and refits serialize on an internal lock.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.vectordb.contracts import array_contract
from repro.vectordb.distance import Metric, sq8_energies, sq8_similarity

#: Supported values for the ``quantize=`` collection option.
QUANTIZE_KINDS = ("sq8",)

#: Largest code value: codes span 0..255 (uint8).
_LEVELS = 255.0


def validate_quantize(quantize: str | None) -> str | None:
    """Normalize/validate a ``quantize=`` option (None passes through)."""
    if quantize is None:
        return None
    kind = str(quantize)
    if kind not in QUANTIZE_KINDS:
        raise ValueError(
            f"unknown quantize kind {quantize!r}; expected one of "
            f"{QUANTIZE_KINDS} or None"
        )
    return kind


class SQ8Codebook:
    """Per-dimension affine codebook: ``x̂ = code · steps + mins``.

    ``mins``/``steps`` are float32 — they are the canonical on-disk
    representation — but all arithmetic promotes them to float64 (see
    module docstring). Constant columns fit to ``step == 0``; their
    codes are 0 and decode exactly to the column value.
    """

    __slots__ = ("mins", "steps", "_mins64", "_steps64", "_inv_steps64")

    def __init__(self, mins: np.ndarray, steps: np.ndarray) -> None:
        mins = np.asarray(mins, dtype=np.float32)
        steps = np.asarray(steps, dtype=np.float32)
        if mins.ndim != 1 or mins.shape != steps.shape:
            raise ValueError(
                f"codebook arrays must be matching 1-d vectors, got "
                f"mins {mins.shape} / steps {steps.shape}"
            )
        if mins.shape[0] == 0:
            raise ValueError("codebook dimension must be positive")
        if not np.all(np.isfinite(mins)) or not np.all(np.isfinite(steps)):
            raise ValueError("codebook entries must be finite")
        if np.any(steps < 0.0):
            raise ValueError("codebook steps must be non-negative")
        self.mins = mins
        self.steps = steps
        self._mins64 = mins.astype(np.float64, copy=False)
        self._steps64 = steps.astype(np.float64, copy=False)
        self._inv_steps64 = np.divide(
            1.0,
            self._steps64,
            out=np.zeros(self._steps64.shape, dtype=np.float64),
            where=self._steps64 > 0.0,
        )

    @property
    def dim(self) -> int:
        return self.mins.shape[0]

    @classmethod
    def fit(cls, matrix: np.ndarray) -> "SQ8Codebook":
        """Fit per-dimension min/max bounds over the rows of ``matrix``."""
        m64 = np.asarray(matrix, dtype=np.float64)
        if m64.ndim != 2 or m64.shape[0] == 0:
            raise ValueError(
                f"codebook fit needs a non-empty 2-d matrix, got {m64.shape}"
            )
        mins64 = m64.min(axis=0)
        steps64 = (m64.max(axis=0) - mins64) / _LEVELS
        # Cast to the canonical float32 representation here: encode and
        # decode must agree on the exact same (rounded) bounds.
        return cls(
            mins64.astype(np.float32, copy=False),
            steps64.astype(np.float32, copy=False),
        )

    @array_contract(returns="n,d:uint8")
    def encode(self, matrix: np.ndarray) -> np.ndarray:
        """Quantize float rows to uint8 codes (float64 internal math)."""
        shifted = (
            np.asarray(matrix, dtype=np.float64) - self._mins64
        ) * self._inv_steps64
        np.rint(shifted, out=shifted)
        np.clip(shifted, 0.0, _LEVELS, out=shifted)
        return shifted.astype(np.uint8, copy=False)

    def decode(self, codes: np.ndarray, dtype=np.float32) -> np.ndarray:
        """Dequantize codes (float64 internal math, ``dtype`` output)."""
        out = np.asarray(codes, dtype=np.float64) * self._steps64
        out += self._mins64
        return out.astype(dtype, copy=False)

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {"mins": self.mins, "steps": self.steps}


class _EnergyAdjustedRows:
    """A row block of :class:`EnergyAdjustedCodes`: scores as
    ``codes @ w - energies`` (float32)."""

    __slots__ = ("_codes", "_energies")

    def __init__(self, codes: np.ndarray, energies: np.ndarray) -> None:
        self._codes = codes
        self._energies = energies

    def __matmul__(self, w: np.ndarray):
        return self._codes @ w - self._energies


class EnergyAdjustedCodes:
    """Duck-typed code matrix for euclidean HNSW traversal.

    Euclidean ordering over dequantized rows is not a pure matmul:
    ``‖x̂ − q‖² = E − 2·codes@(steps·t) + ‖t‖²`` carries the per-row
    energy ``E``. This wrapper slots into the HNSW hot path
    (``self._vectors[block] @ query``) by making each indexed row block
    evaluate ``codes @ w − E`` — with ``w = 2·steps·(q − mins)`` that is
    ``‖t‖² − ‖x̂ − q‖²``, a per-query constant minus the distance, so
    beam ordering matches the exact float32 euclidean ordering of the
    dequantized rows.
    """

    __slots__ = ("_codes", "_energies")

    def __init__(self, codes: np.ndarray, energies: np.ndarray) -> None:
        if codes.ndim != 2 or energies.shape != (codes.shape[0],):
            raise ValueError(
                f"codes {codes.shape} and energies {energies.shape} disagree"
            )
        self._codes = codes
        self._energies = energies

    @property
    def shape(self) -> tuple[int, int]:
        return self._codes.shape

    def __len__(self) -> int:
        return self._codes.shape[0]

    def __getitem__(self, index) -> _EnergyAdjustedRows:
        return _EnergyAdjustedRows(self._codes[index], self._energies[index])


class _TierState:
    """One immutable published snapshot of the quantized tier.

    ``buffer`` may have spare capacity (like :class:`FlatIndex`);
    ``codes`` is the frozen ``[0, count)`` view readers score against.
    Energies (euclidean only) are computed lazily and cached — the cache
    race is benign: both writers compute identical values.
    """

    __slots__ = ("codebook", "buffer", "count", "codes", "_energies")

    def __init__(
        self, codebook: SQ8Codebook, buffer: np.ndarray, count: int
    ) -> None:
        self.codebook = codebook
        self.buffer = buffer
        self.count = count
        codes = buffer[:count].view()
        codes.flags.writeable = False
        self.codes = codes
        self._energies: np.ndarray | None = None

    def energies(self) -> np.ndarray:
        cached = self._energies
        if cached is None:
            cached = sq8_energies(self.codes, self.codebook.steps)
            self._energies = cached
        return cached


class SQ8Store:
    """The collection-side quantized tier: codes kept in lockstep with
    the float32 matrix.

    ``sync(matrix)`` is the only mutator: it encodes appended rows with
    the current codebook, or refits the codebook from scratch once the
    row count doubles past the fit point (2× policy — bounds drift as
    the corpus grows without re-encoding on every insert). Readers are
    lock-free; see the module docstring for the publishing contract.
    """

    def __init__(self, dim: int) -> None:
        if int(dim) <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self._dim = int(dim)
        self._lock = threading.Lock()
        self._state: _TierState | None = None
        self._fitted = 0

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def count(self) -> int:
        state = self._state
        return 0 if state is None else state.count

    def codebook(self) -> SQ8Codebook | None:
        state = self._state
        return None if state is None else state.codebook

    def codes(self) -> np.ndarray:
        """Frozen uint8 code matrix for rows ``[0, count)``."""
        state = self._state
        if state is None:
            return np.zeros((0, self._dim), dtype=np.uint8)
        return state.codes

    # -- mutation ------------------------------------------------------

    def sync(self, matrix: np.ndarray) -> None:
        """Quantize any rows of ``matrix`` the tier has not seen yet."""
        n = int(matrix.shape[0])
        state = self._state
        if state is not None and state.count >= n:
            return
        with self._lock:
            state = self._state
            if state is not None and state.count >= n:
                return
            if state is None or n >= 2 * max(self._fitted, 1):
                self._state = self._refit(matrix, n)
                self._fitted = n
                return
            codebook = state.codebook
            tail = codebook.encode(matrix[state.count : n])
            buffer = state.buffer
            if n > buffer.shape[0] or not buffer.flags.writeable:
                capacity = max(1024, n, 2 * buffer.shape[0])
                grown = np.zeros((capacity, self._dim), dtype=np.uint8)
                grown[: state.count] = state.codes
                buffer = grown
            # Rows >= the published count are invisible to readers of
            # the old state, so writing them in place is safe.
            buffer[state.count : n] = tail
            self._state = _TierState(codebook, buffer, n)

    def _refit(self, matrix: np.ndarray, n: int) -> _TierState:
        codebook = SQ8Codebook.fit(matrix[:n])
        buffer = np.zeros((max(1024, n), self._dim), dtype=np.uint8)
        buffer[:n] = codebook.encode(matrix[:n])
        return _TierState(codebook, buffer, n)

    # -- scoring -------------------------------------------------------

    def traversal_query(
        self, query: np.ndarray, metric: Metric
    ) -> tuple[np.ndarray | EnergyAdjustedCodes, np.ndarray]:
        """Rewrite ``query`` into code space for HNSW traversal.

        Returns ``(matrix_like, w)`` such that ``matrix_like[rows] @ w``
        orders rows identically to the float32 similarity of the
        *dequantized* rows — a pure uint8 matmul for cosine/dot, the
        energy-adjusted wrapper for euclidean.
        """
        state = self._state
        if state is None:
            raise RuntimeError("quantized tier has no rows; sync() first")
        codebook = state.codebook
        q = np.asarray(query, dtype=np.float32)
        if metric in (Metric.COSINE, Metric.DOT):
            return state.codes, codebook.steps * q
        w = np.float32(2.0) * codebook.steps * (q - codebook.mins)
        return EnergyAdjustedCodes(state.codes, state.energies()), w

    @array_contract(query="d:float32", returns="n:float32")
    def score(self, query: np.ndarray, metric: Metric) -> np.ndarray:
        """Similarity of ``query`` to every dequantized row (full scan)."""
        state = self._state
        if state is None:
            return np.zeros((0,), dtype=np.float32)
        codebook = state.codebook
        energies = state.energies() if metric is Metric.EUCLIDEAN else None
        return sq8_similarity(
            query, state.codes, codebook.mins, codebook.steps,
            metric=metric, energies=energies,
        )

    # -- persistence / adoption ----------------------------------------

    def as_arrays(self) -> dict[str, np.ndarray] | None:
        """Zero-copy arrays for snapshotting (None when tier is empty)."""
        state = self._state
        if state is None:
            return None
        return {
            "codes": state.codes,
            "mins": state.codebook.mins,
            "steps": state.codebook.steps,
        }

    @classmethod
    def from_arrays(
        cls, codes: np.ndarray, mins: np.ndarray, steps: np.ndarray
    ) -> "SQ8Store":
        """Adopt a persisted code matrix (possibly mmap'd) without copying."""
        codebook = SQ8Codebook(mins, steps)
        if codes.ndim != 2 or codes.dtype != np.uint8:
            raise ValueError(
                f"codes must be a uint8 matrix, got {codes.dtype} "
                f"{codes.shape}"
            )
        if codes.shape[1] != codebook.dim:
            raise ValueError(
                f"codes are {codes.shape[1]}-dimensional but the codebook "
                f"is {codebook.dim}-dimensional"
            )
        store = cls(codebook.dim)
        adopted = codes.view()
        adopted.flags.writeable = False  # freeze adopted storage
        store._state = _TierState(codebook, adopted, codes.shape[0])
        store._fitted = codes.shape[0]
        return store
