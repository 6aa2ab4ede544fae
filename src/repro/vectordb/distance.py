"""Distance/similarity metrics for the vector database.

Vectors are stored L2-normalized (the embedding models emit unit vectors),
so cosine similarity reduces to a dot product. Scores returned by searches
are *similarities* (higher is better), as in Qdrant's cosine mode.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.vectordb.contracts import array_contract


class Metric(str, Enum):
    """Supported similarity metrics."""

    COSINE = "cosine"
    DOT = "dot"
    EUCLIDEAN = "euclidean"


@array_contract(matrix="n,d", returns="n,d:float32")
def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalize ``matrix``, leaving zero rows untouched.

    float32 input normalizes in float32 and returns a fresh float32
    array with no extra conversion pass (``matrix / norms`` already
    allocated the result; ``copy=False`` makes the cast a no-op).
    """
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return (matrix / norms).astype(np.float32, copy=False)


@array_contract(query="d:float32", vectors="n,d:float32",
                returns="n:float32")
def similarity(
    query: np.ndarray, vectors: np.ndarray, metric: Metric = Metric.COSINE
) -> np.ndarray:
    """Similarity of ``query`` to each row of ``vectors``.

    For :attr:`Metric.COSINE` both sides are assumed unit-norm (enforced at
    insert time by the collection). Euclidean distances are negated so that
    "higher is better" holds for every metric.
    """
    if metric in (Metric.COSINE, Metric.DOT):
        return vectors @ query
    diffs = vectors - query
    return -np.sqrt(np.einsum("ij,ij->i", diffs, diffs))


@array_contract(a="n,d:float32", b="m,d:float32", returns="n,m:float32")
def pairwise_similarity(
    a: np.ndarray, b: np.ndarray, metric: Metric = Metric.COSINE
) -> np.ndarray:
    """Similarity matrix between rows of ``a`` and rows of ``b``.

    Cosine and dot multiply ``b`` by the few query columns of ``a`` and
    transpose the product: the same numbers as ``a @ b.T`` up to float
    accumulation order (bit-equal to a single query's GEMV), at about
    half its cost when ``a`` holds a handful of queries.
    """
    if metric in (Metric.COSINE, Metric.DOT):
        return (b @ a.T).T
    a_sq = np.sum(a * a, axis=1)[:, None]
    b_sq = np.sum(b * b, axis=1)[None, :]
    sq = np.maximum(a_sq + b_sq - 2.0 * (a @ b.T), 0.0)
    return -np.sqrt(sq)


# ----------------------------------------------------------------------
# int8 scalar-quantized kernels (the sq8 storage tier)
#
# A quantized row decodes as ``x̂ = codes · steps + mins`` (per-dimension
# affine codebook, see repro.vectordb.quantization). Because the decode
# is affine, every similarity against x̂ collapses into matmuls over the
# *raw uint8 codes* — numpy promotes ``uint8 @ float32`` to float32, so
# no float32 copy of the codes is ever materialized. That is the whole
# point of the tier: candidate scoring reads 1 byte per dimension.
# ----------------------------------------------------------------------


@array_contract(codes="n,d:uint8", steps="d:float32", returns="n:float32")
def sq8_energies(codes: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Per-row energies ``Σ_j (c_ij · s_j)²`` of quantized rows.

    The euclidean kernel's cacheable term: squaring the codes in int32
    (255² fits comfortably) and contracting with ``steps²`` in one
    dtype-pinned matmul avoids both a float32 materialization of the
    code matrix and numpy's int32@float32 → float64 promotion.
    """
    squared = np.square(codes, dtype=np.int32)
    return np.matmul(squared, np.square(steps), dtype=np.float32)


@array_contract(query="d:float32", codes="n,d:uint8", mins="d:float32",
                steps="d:float32", returns="n:float32")
def sq8_similarity(
    query: np.ndarray,
    codes: np.ndarray,
    mins: np.ndarray,
    steps: np.ndarray,
    metric: Metric = Metric.COSINE,
    energies: np.ndarray | None = None,
) -> np.ndarray:
    """Similarity of ``query`` to each *dequantized* row, computed on codes.

    Equal to ``similarity(query, decode(codes))`` up to float
    accumulation order, without dequantizing anything:

    * cosine/dot: ``x̂ · q = codes @ (steps·q) + mins·q`` — one uint8
      matmul plus a per-query constant;
    * euclidean: ``‖x̂ − q‖² = E − 2·codes @ (steps·t) + ‖t‖²`` with
      ``t = q − mins`` and the per-row energies ``E`` (pass the cached
      vector from :func:`sq8_energies`; recomputed here when omitted).
    """
    if metric in (Metric.COSINE, Metric.DOT):
        return codes @ (steps * query) + np.float32(mins @ query)
    t = query - mins
    if energies is None:
        energies = sq8_energies(codes, steps)
    sq = energies - 2.0 * (codes @ (steps * t)) + np.float32(t @ t)
    return -np.sqrt(np.maximum(sq, np.float32(0.0)))
