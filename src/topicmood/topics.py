"""Topic discovery over cleaned documents.

Documents enter the topic stage as one :class:`DocMatrix` with unit-norm
rows: sparse TF-IDF weights over the corpus vocabulary, or pre-computed
dense document vectors supplied instead of the built-in TF-IDF backend.
The rows feed a seeded spherical k-means; clusters are described by their
top class-based TF-IDF terms and every document receives a soft topic
distribution from a temperature softmax over centroid cosines.

Products of the rows with the centroids are taken one dense row block at
a time. Blocks hold ``_BLOCK_ROWS`` rows and the remainder joins the last
block, so no block is smaller than that and fewer than ``2 * _BLOCK_ROWS``
rows form one block: the product over all rows at once. Every block must
be large enough for BLAS to sum each dot product the way it does in one
product over all rows; smaller blocks (single rows go to ``gemv``) can
round differently and change the report bytes.

The Lloyd steps screen with cheaper sums instead. An n x k screening
matrix holds :meth:`DocMatrix.dots` of every row with every centroid: the
k-means++ seeding dots first, then, after each update, fresh columns for
the centroids that moved. Those sums round differently from the block
products, but by at most about n_features * eps / 2 each, so a row whose
best two screening values lie more than ``4 * n_features * eps`` apart
has the block product's argmax. Every row block that holds a closer row
is multiplied out exactly, so labels, ties and report bytes stay those
of one full block product per step.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CleanDoc, _iter_jsonl

__all__ = [
    "DocMatrix",
    "TopicModel",
    "TopicDistribution",
    "vectorize",
    "load_vectors",
    "cluster",
    "ctfidf_weight",
    "ctfidf_top_terms",
    "check_temperature",
    "soft_assign",
    "topic_prevalence",
]


# Row-block size for dense products; 64-row blocks were the smallest
# checked to give bit-identical products with 1 and 2 OpenBLAS threads.
_BLOCK_ROWS = 1024


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Row ranges of ``_BLOCK_ROWS`` rows, the remainder folded into the last."""
    starts = [i * _BLOCK_ROWS for i in range(max(1, n // _BLOCK_ROWS))]
    return list(zip(starts, starts[1:] + [n]))


@dataclass(frozen=True)
class DocMatrix:
    """Documents as the rows of one feature matrix.

    TF-IDF rows from :func:`vectorize` are sparse: ``csr`` holds their CSR
    triplets ``(indptr, indices, data)`` over the ``terms`` columns, and no
    dense n x V array is built. Supplied embeddings from
    :func:`load_vectors` are one dense ``matrix`` and have no term names.
    Exactly one of the two is set. Both builders give rows of unit L2 norm,
    which :func:`cluster` and :func:`soft_assign` rely on; they read the
    rows through :meth:`rows`, :meth:`dots` and :meth:`label_sums` only.
    """

    post_ids: tuple[str, ...]
    terms: tuple[str, ...]
    matrix: np.ndarray | None = None  # dense, shape (len(post_ids), n_features)
    csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    _row_of: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.post_ids)
        if (self.matrix is None) == (self.csr is None):
            raise ValueError("give either a dense matrix or CSR rows")
        if self.matrix is not None:
            if self.matrix.ndim != 2 or self.matrix.shape[0] != n:
                raise ValueError(
                    f"matrix of shape {self.matrix.shape} does not hold one row per post id"
                )
            return
        indptr, indices, data = self.csr
        if len(indptr) != n + 1 or not indptr[-1] == len(indices) == len(data):
            raise ValueError("CSR triplets do not hold one row per post id")
        object.__setattr__(self, "_row_of", np.repeat(np.arange(n), np.diff(indptr)))

    def __len__(self) -> int:
        return len(self.post_ids)

    @property
    def n_features(self) -> int:
        return len(self.terms) if self.matrix is None else self.matrix.shape[1]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start`` to ``stop - 1`` as one dense array."""
        if self.matrix is not None:
            return self.matrix[start:stop]
        indptr, indices, data = self.csr
        lo, hi = indptr[start], indptr[stop]
        block = np.zeros((stop - start, self.n_features))
        block[self._row_of[lo:hi] - start, indices[lo:hi]] = data[lo:hi]
        return block

    def dots(self, vectors: np.ndarray) -> np.ndarray:
        """Dot products of every row with dense ``vectors`` of n_features.

        One vector gives shape (n,), a (m, n_features) stack gives (n, m).
        Sparse rows sum their products over their non-zeros in column
        order (one ``bincount`` per vector); dense rows take one BLAS
        ``gemv`` for a vector, one ``gemm`` for a stack. Either order can
        differ from the row-block products in the last bits.
        :func:`cluster` uses these sums to seed and to screen the Lloyd
        similarities.
        """
        if self.matrix is not None:
            return self.matrix @ vectors.T
        if vectors.ndim == 2:
            out = np.empty((len(self), len(vectors)))
            for j, vector in enumerate(vectors):
                out[:, j] = self.dots(vector)
            return out
        _, indices, data = self.csr
        return np.bincount(self._row_of, weights=data * vectors[indices], minlength=len(self))

    def label_sums(self, labels: np.ndarray, k: int) -> np.ndarray:
        """Per-label sums of the rows, shape (k, n_features).

        Each sum adds its rows in row order, as a column sum of the
        label's dense rows does, so sum / count rounds like their mean.
        """
        if self.matrix is not None:
            # At embedding widths k masked sums beat one bincount over all n·d cells.
            return np.array([self.matrix[labels == kk].sum(axis=0) for kk in range(k)])
        _, indices, data = self.csr
        cells = labels[self._row_of] * self.n_features + indices
        sums = np.bincount(cells, weights=data, minlength=k * self.n_features)
        return sums.reshape(k, self.n_features)


@dataclass
class TopicModel:
    """K cluster centroids over the documents' features plus hard assignments."""

    k: int
    vocabulary: tuple[str, ...]  # the DocMatrix terms; empty for embeddings
    centroids: np.ndarray  # shape (k, n_features), unit rows
    cluster_of: dict[str, int]  # post_id -> cluster index in [0, k)


@dataclass(frozen=True)
class TopicDistribution:
    """Row-stochastic document-topic membership matrix."""

    post_ids: tuple[str, ...]
    matrix: np.ndarray  # shape (len(post_ids), k)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        if mat.shape[0] != len(self.post_ids):
            raise ValueError(
                f"matrix has {mat.shape[0]} rows but {len(self.post_ids)} post ids"
            )
        if mat.size and (mat < 0).any():
            raise ValueError("matrix entries must be non-negative")
        if mat.shape[0]:
            sums = mat.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > 1e-9)[0]
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"row for post {self.post_ids[i]!r} sums to {sums[i]!r}, expected 1"
                )

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def column(self, topic: int) -> np.ndarray:
        return self.matrix[:, topic]


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    # The rows have already been scaled to unit norm once; this second pass
    # rounds them once more, and the reports' last digits depend on it.
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return mat / norms[:, None]


def vectorize(docs: Sequence[CleanDoc]) -> DocMatrix:
    """L2-normalized smoothed TF-IDF rows over the sorted corpus vocabulary.

    Weight of term t in a document is tf * (log((1 + D) / (1 + df)) + 1)
    with D the number of non-empty documents and df the number containing
    t. The rows are sparse (CSR, columns sorted within a row). Empty
    documents are excluded from the output (callers detect them by
    comparing lengths). Raises ValueError when every document is empty.
    """
    non_empty = [d for d in docs if d.tokens]
    if not non_empty:
        raise ValueError("all documents are empty after preprocessing")

    n_docs = len(non_empty)
    terms = tuple(sorted({t for doc in non_empty for t in doc.tokens}))
    column = {t: j for j, t in enumerate(terms)}
    n_terms = len(terms)

    # One key row * V + column per token; the sorted unique keys are the CSR
    # cells in row-major order, and their counts are the term frequencies.
    lengths = [len(doc.tokens) for doc in non_empty]
    token_cols = np.fromiter(
        (column[t] for doc in non_empty for t in doc.tokens), dtype=np.int64, count=sum(lengths)
    )
    keys, tf = np.unique(
        np.repeat(np.arange(n_docs), lengths) * n_terms + token_cols, return_counts=True
    )
    row_of, indices = np.divmod(keys, n_terms)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=n_docs))))
    df = np.bincount(indices, minlength=n_terms).tolist()
    idf = np.array([math.log((1 + n_docs) / (1 + c)) + 1.0 for c in df])

    raw = tf * idf[indices]
    squares = (raw * raw).tolist()
    # First pass: each row over its exactly rounded (fsum) norm.
    norms = np.sqrt([math.fsum(squares[a:b]) for a, b in zip(indptr[:-1], indptr[1:])])
    post_ids = tuple(d.post_id for d in non_empty)
    once = DocMatrix(post_ids, terms, csr=(indptr, indices, raw / norms[row_of]))

    # The second pass of _unit_rows, on dense row blocks: numpy's pairwise
    # sum over a dense row groups terms by column position, so a norm over
    # the non-zeros alone could round differently.
    norms = np.concatenate(
        [np.linalg.norm(once.rows(a, b), axis=1) for a, b in _row_blocks(n_docs)]
    )
    return DocMatrix(post_ids, terms, csr=(indptr, indices, once.csr[2] / norms[row_of]))


def load_vectors(path: str | Path) -> DocMatrix:
    """Load pre-computed document vectors from a JSON-lines file.

    Each line holds ``{"id": ..., "vector": [floats]}``; ids must be
    unique and all vectors of one length. Vectors are L2-normalized on
    load and become the rows of a :class:`DocMatrix` without term names.
    """
    path = Path(path)
    rows: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, record in _iter_jsonl(path, ValueError):
        post_id = record.get("id")
        values = record.get("vector")
        if not isinstance(post_id, str) or not isinstance(values, list) or not values:
            raise ValueError(f"{path}, line {lineno}: expected fields 'id' and non-empty 'vector'")
        if not {*map(type, values)} <= {int, float}:  # a bool, string, list or null
            raise ValueError(f"{path}, line {lineno}: 'vector' must hold numbers only")
        if post_id in rows:
            raise ValueError(f"{path}, line {lineno}: duplicate id {post_id!r}")
        dim = dim or len(values)
        if len(values) != dim:
            raise ValueError(f"{path}, line {lineno}: vector length {len(values)} != {dim}")
        arr = np.asarray(values, dtype=float)
        norm = float(np.linalg.norm(arr))
        if norm <= 0.0 or not np.isfinite(norm):
            raise ValueError(f"{path}, line {lineno}: vector for {post_id!r} has no norm")
        rows[post_id] = arr / norm
    mat = np.array(list(rows.values())).reshape(len(rows), dim or 0)
    return DocMatrix(tuple(rows), (), _unit_rows(mat))


def _similarities(docs: DocMatrix, centroids: np.ndarray) -> np.ndarray:
    """Every row's dot product with every centroid, one row block at a time."""
    sims = np.empty((len(docs), centroids.shape[0]))
    for start, stop in _row_blocks(len(docs)):
        np.matmul(docs.rows(start, stop), centroids.T, out=sims[start:stop])
    return sims


def _nearest(docs: DocMatrix, centroids: np.ndarray, sims: np.ndarray) -> np.ndarray:
    """Index of every row's nearest centroid, as the row-block products give it.

    ``sims`` screens the similarities: each cell may differ from the block
    product by at most about n_features * eps / 2 (see the module docstring).
    A row whose best two screening values lie more than ``4 * n_features *
    eps`` apart keeps the screening argmax, which no such error can flip.
    Every row block that holds a closer row is multiplied out exactly, so
    ties and near-ties are decided as the block product decides them.
    """
    k = centroids.shape[0]
    tolerance = 4 * docs.n_features * np.finfo(float).eps
    labels = np.empty(len(docs), dtype=np.intp)
    for start, stop in _row_blocks(len(docs)):
        block = sims[start:stop]
        if k > 1:
            best_two = np.partition(block, k - 2, axis=1)[:, k - 2 :]
            if (best_two[:, 1] - best_two[:, 0] <= tolerance).any():
                block = docs.rows(start, stop) @ centroids.T
        labels[start:stop] = block.argmax(axis=1)  # the lowest index on ties
    return labels


def cluster(docs: DocMatrix, k: int, seed: int, max_iters: int = 100) -> TopicModel:
    """Spherical k-means with seeded k-means++ initialization.

    Distances are cosine-based (rows and centroids are unit length, so
    similarity is a dot product). Each centroid is the normalized mean of
    its members, summed in row order. Labels are the argmax of the dense
    row-block products (see the module docstring): nearest-centroid ties
    break toward the lowest cluster index, and a cluster that empties out
    is re-seeded with the most isolated document. The result is a
    deterministic function of (docs, k, seed).

    The labels come without a full product per iteration: an n x k
    screening matrix holds :meth:`DocMatrix.dots` of every row with every
    centroid, starting as the seeding dots, and after an update only the
    columns of centroids that moved are taken again (a centroid that keeps
    its members comes out bit-identical). :func:`_nearest` keeps the
    screening argmax only where the best two values lie further apart
    than rounding can bridge (``4 * n_features * eps``, see the module
    docstring) and multiplies out exactly every row block where they do
    not. A re-seed orders the documents by one full product.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(docs):
        raise ValueError(f"k = {k} exceeds the number of documents ({len(docs)})")

    n = len(docs)
    rng = np.random.default_rng(seed)
    sims = np.empty((n, k))  # sims[:, kk] screens centroid kk

    # k-means++ seeding on cosine distance.
    centroids = np.empty((k, docs.n_features))
    nxt = int(rng.integers(n))
    dist = np.inf  # each row's distance to its nearest seed so far
    for kk in range(k):
        if kk:
            total = float(dist.sum())
            if total <= 1e-12:
                nxt = int(rng.integers(n))
            else:
                nxt = int(rng.choice(n, p=dist / total))
        centroids[kk] = docs.rows(nxt, nxt + 1)[0]
        sims[:, kk] = docs.dots(centroids[kk])
        dist = np.minimum(dist, np.maximum(1.0 - sims[:, kk], 0.0))

    labels = np.full(n, -1)
    for _ in range(max_iters):
        new_labels = _nearest(docs, centroids, sims)

        # Re-seed empty clusters with the most isolated document, stealing
        # only from clusters that keep at least one member.
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            best = _similarities(docs, centroids).max(axis=1)
            order = [int(i) for i in np.argsort(best, kind="stable")]
            for kk in range(k):
                if counts[kk] > 0:
                    continue
                pick = next(i for i in order if counts[new_labels[i]] > 1)
                counts[new_labels[pick]] -= 1
                new_labels[pick] = kk
                counts[kk] = 1
                centroids[kk] = docs.rows(pick, pick + 1)[0]
                sims[:, kk] = docs.dots(centroids[kk])

        if (new_labels == labels).all():
            break
        labels = new_labels
        means = docs.label_sums(labels, k) / counts[:, None]
        moved = []  # only a moved centroid is screened again
        for kk, mean in enumerate(means):
            norm = np.linalg.norm(mean)
            if norm > 0:
                mean = mean / norm
                if (mean != centroids[kk]).any():
                    centroids[kk] = mean
                    moved.append(kk)
        if moved:
            sims[:, moved] = docs.dots(centroids[moved])

    cluster_of = {post_id: int(labels[i]) for i, post_id in enumerate(docs.post_ids)}
    return TopicModel(k=k, vocabulary=docs.terms, centroids=centroids, cluster_of=cluster_of)


def ctfidf_weight(tf_tc: float, tf_t: float, avg_words: float) -> float:
    """Class-based TF-IDF weight: tf_tc * ln(1 + avg_words / tf_t).

    ``tf_tc`` is the term count inside the cluster, ``tf_t`` the total
    count across all clusters, ``avg_words`` the average token count per
    cluster. Zero in-cluster count always yields zero weight.
    """
    if tf_tc == 0:
        return 0.0
    if tf_t <= 0:
        raise ValueError("tf_t must be positive when tf_tc > 0")
    return tf_tc * math.log(1.0 + avg_words / tf_t)


def ctfidf_top_terms(
    cluster_docs: Sequence[Sequence[CleanDoc]], n_terms: int = 7
) -> list[list[tuple[str, float]]]:
    """Top class-based TF-IDF terms per cluster, ties broken alphabetically."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if any(not docs for docs in cluster_docs):
        raise ValueError("every cluster must contain at least one document")

    per_cluster: list[Counter[str]] = []
    total: Counter[str] = Counter()
    n_tokens = 0
    for docs in cluster_docs:
        counts: Counter[str] = Counter()
        for doc in docs:
            counts.update(doc.tokens)
        per_cluster.append(counts)
        total.update(counts)
        n_tokens += sum(counts.values())
    avg_words = n_tokens / len(cluster_docs)

    result = []
    for counts in per_cluster:
        scored = [
            (term, ctfidf_weight(count, total[term], avg_words))
            for term, count in counts.items()
        ]
        scored.sort(key=lambda tw: (-tw[1], tw[0]))
        result.append(scored[:n_terms])
    return result


def check_temperature(temperature: float) -> None:
    """Raise ValueError unless the softmax in :func:`soft_assign` stays finite.

    Cosines lie in [-1, 1] up to the rounding of unit rows (a row's cosine
    with itself can exceed 1 by a few ulps), so the scaled cosines differ by a
    little more than 2 / temperature. Keeping 4 / temperature finite leaves
    room for that spread without an overflow.
    """
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    if not math.isfinite(4.0 / temperature):
        raise ValueError(f"temperature {temperature} is too small: 4 / temperature overflows")


def soft_assign(
    docs: DocMatrix, model: TopicModel, temperature: float = 0.25
) -> TopicDistribution:
    """Soft topic memberships from a softmax over centroid cosines.

    Row i is softmax(cos(row_i, centroid_k) / temperature); lower
    temperatures sharpen rows toward the hard assignment. ``docs`` must
    have the features the model was clustered on. The products are the
    row-block products that decide the labels in :func:`cluster`.
    """
    check_temperature(temperature)
    if model.k < 1:
        raise ValueError("model has no centroids")
    if docs.terms != model.vocabulary:
        raise ValueError("documents and model have different features")

    # The softmax runs in place: one n x k array, the values of the
    # out-of-place expressions.
    dist = _similarities(docs, model.centroids)
    dist /= temperature
    dist -= dist.max(axis=1, keepdims=True)
    np.exp(dist, out=dist)
    dist /= dist.sum(axis=1, keepdims=True)
    return TopicDistribution(docs.post_ids, dist)


def topic_prevalence(dist: TopicDistribution) -> np.ndarray:
    """Per-topic mass: column sums of the distribution matrix."""
    if dist.matrix.shape[0] == 0:
        return np.zeros(dist.k)
    return dist.matrix.sum(axis=0)
