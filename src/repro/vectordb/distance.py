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

