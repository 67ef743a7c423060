"""Topic discovery over cleaned documents.

Documents enter the topic stage as one :class:`DocMatrix` with unit-norm
rows: TF-IDF weights over the corpus vocabulary, or pre-computed document
vectors supplied instead of the built-in TF-IDF backend. The rows feed a
seeded spherical k-means; clusters are described by their top class-based
TF-IDF terms and every document receives a soft topic distribution from a
temperature softmax over centroid cosines.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CleanDoc

__all__ = [
    "DocMatrix",
    "TopicModel",
    "TopicDistribution",
    "vectorize",
    "load_vectors",
    "cluster",
    "ctfidf_weight",
    "ctfidf_top_terms",
    "soft_assign",
    "topic_prevalence",
]


@dataclass(frozen=True)
class DocMatrix:
    """Documents as the rows of one feature matrix.

    ``terms`` names the columns of a TF-IDF matrix and is empty for
    supplied embeddings. :func:`vectorize` and :func:`load_vectors` build
    rows of unit L2 norm, which :func:`cluster` and :func:`soft_assign`
    rely on.
    """

    post_ids: tuple[str, ...]
    terms: tuple[str, ...]
    matrix: np.ndarray  # shape (len(post_ids), n_features)

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.post_ids):
            raise ValueError(
                f"matrix of shape {self.matrix.shape} does not hold one row per post id"
            )

    def __len__(self) -> int:
        return len(self.post_ids)


@dataclass
class TopicModel:
    """K cluster centroids over the documents' features plus hard assignments."""

    k: int
    vocabulary: tuple[str, ...]  # the DocMatrix terms; empty for embeddings
    centroids: np.ndarray  # shape (k, n_features), unit rows
    cluster_of: dict[str, int]  # post_id -> cluster index in [0, k)
    top_terms: list[list[tuple[str, float]]] = field(default_factory=list)


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
    # The builders have already scaled each row to unit norm; this second
    # pass rounds the rows once more, and the reports' last digits depend on it.
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return mat / norms[:, None]


def vectorize(docs: Sequence[CleanDoc]) -> DocMatrix:
    """L2-normalized smoothed TF-IDF rows over the sorted corpus vocabulary.

    Weight of term t in a document is tf * (log((1 + D) / (1 + df)) + 1)
    with D the number of non-empty documents and df the number containing
    t. Empty documents are excluded from the output (callers detect them
    by comparing lengths). Raises ValueError when every document is empty.
    """
    non_empty = [d for d in docs if d.tokens]
    if not non_empty:
        raise ValueError("all documents are empty after preprocessing")

    n_docs = len(non_empty)
    df: Counter[str] = Counter()
    for doc in non_empty:
        df.update(set(doc.tokens))
    idf = {t: math.log((1 + n_docs) / (1 + c)) + 1.0 for t, c in df.items()}
    terms = tuple(sorted(df))
    column = {t: j for j, t in enumerate(terms)}

    mat = np.zeros((n_docs, len(terms)))
    for row, doc in enumerate(non_empty):
        tf = Counter(doc.tokens)
        raw = {t: count * idf[t] for t, count in tf.items()}
        norm = math.sqrt(math.fsum(v * v for v in raw.values()))
        for t, v in raw.items():
            mat[row, column[t]] = v / norm
    return DocMatrix(tuple(d.post_id for d in non_empty), terms, _unit_rows(mat))


def load_vectors(path: str | Path) -> DocMatrix:
    """Load pre-computed document vectors from a JSON-lines file.

    Each line holds ``{"id": ..., "vector": [floats]}``; ids must be
    unique and all vectors of one length. Vectors are L2-normalized on
    load and become the rows of a :class:`DocMatrix` without term names.
    """
    path = Path(path)
    rows: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {lineno}: invalid JSON ({exc.msg})") from exc
            post_id = record.get("id")
            values = record.get("vector")
            if not isinstance(post_id, str) or not isinstance(values, list) or not values:
                raise ValueError(
                    f"{path}, line {lineno}: expected fields 'id' and non-empty 'vector'"
                )
            if post_id in rows:
                raise ValueError(f"{path}, line {lineno}: duplicate id {post_id!r}")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise ValueError(
                    f"{path}, line {lineno}: vector length {len(values)} != {dim}"
                )
            arr = np.asarray(values, dtype=float)
            norm = float(np.linalg.norm(arr))
            if norm <= 0.0 or not np.isfinite(norm):
                raise ValueError(f"{path}, line {lineno}: vector for {post_id!r} has no norm")
            rows[post_id] = arr / norm
    mat = np.array(list(rows.values())).reshape(len(rows), dim or 0)
    return DocMatrix(tuple(rows), (), _unit_rows(mat))


def cluster(docs: DocMatrix, k: int, seed: int, max_iters: int = 100) -> TopicModel:
    """Spherical k-means with seeded k-means++ initialization.

    Distances are cosine-based (rows and centroids are unit length, so
    similarity is a dot product). Nearest-centroid ties break toward the
    lowest cluster index; a cluster that empties out is re-seeded with the
    most isolated document. The result is a deterministic function of
    (docs, k, seed).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(docs):
        raise ValueError(f"k = {k} exceeds the number of documents ({len(docs)})")

    mat = docs.matrix
    n = mat.shape[0]
    rng = np.random.default_rng(seed)

    # k-means++ seeding on cosine distance.
    first = int(rng.integers(n))
    chosen = [first]
    dist = np.maximum(1.0 - mat @ mat[first], 0.0)
    for _ in range(1, k):
        total = float(dist.sum())
        if total <= 1e-12:
            nxt = int(rng.integers(n))
        else:
            nxt = int(rng.choice(n, p=dist / total))
        chosen.append(nxt)
        dist = np.minimum(dist, np.maximum(1.0 - mat @ mat[nxt], 0.0))
    centroids = mat[chosen].copy()

    labels = np.full(n, -1)
    for _ in range(max_iters):
        sims = mat @ centroids.T
        new_labels = sims.argmax(axis=1)  # argmax takes the lowest index on ties

        # Re-seed empty clusters with the most isolated document, stealing
        # only from clusters that keep at least one member.
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            order = [int(i) for i in np.argsort(sims.max(axis=1), kind="stable")]
            for kk in range(k):
                if counts[kk] > 0:
                    continue
                pick = next(i for i in order if counts[new_labels[i]] > 1)
                counts[new_labels[pick]] -= 1
                new_labels[pick] = kk
                counts[kk] = 1
                centroids[kk] = mat[pick]

        if (new_labels == labels).all():
            break
        labels = new_labels
        for kk in range(k):
            members = mat[labels == kk]
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0:
                centroids[kk] = mean / norm

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


def soft_assign(
    docs: DocMatrix, model: TopicModel, temperature: float = 0.25
) -> TopicDistribution:
    """Soft topic memberships from a softmax over centroid cosines.

    Row i is softmax(cos(row_i, centroid_k) / temperature); lower
    temperatures sharpen rows toward the hard assignment. ``docs`` must
    have the features the model was clustered on.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if model.k < 1:
        raise ValueError("model has no centroids")
    if docs.terms != model.vocabulary:
        raise ValueError("documents and model have different features")

    sims = (docs.matrix @ model.centroids.T) / temperature
    sims -= sims.max(axis=1, keepdims=True)
    expd = np.exp(sims)
    dist = expd / expd.sum(axis=1, keepdims=True)
    return TopicDistribution(docs.post_ids, dist)


def topic_prevalence(dist: TopicDistribution) -> np.ndarray:
    """Per-topic mass: column sums of the distribution matrix."""
    if dist.matrix.shape[0] == 0:
        return np.zeros(dist.k)
    return dist.matrix.sum(axis=0)
