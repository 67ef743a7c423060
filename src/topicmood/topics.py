"""Topic discovery over cleaned documents.

Documents enter the topic stage as one :class:`DocMatrix` with unit-norm
rows: sparse TF-IDF weights over the corpus vocabulary, or pre-computed
dense document vectors supplied instead of the built-in TF-IDF backend.
The rows feed a seeded spherical k-means, whose k-means++ draws replay
numpy's ``default_rng(seed)`` PCG64 stream without importing numpy.random
(a test holds the two equal); clusters are described by their top
class-based TF-IDF terms and every document receives a soft topic
distribution from a temperature softmax over centroid cosines.

Cosines are :meth:`DocMatrix.dots`. A TF-IDF row adds its non-zero
products in column order, and each centroid is normalised by numpy's
pairwise sum of its squares: fixed-order sums that no BLAS touches, so
TF-IDF labels, ties and soft rows do not depend on the BLAS kernel.
Supplied embeddings take one dense BLAS product, which does.

:func:`cluster` keeps these cosines in one docs-major n x k buffer: the
k-means++ seeding dots first, then fresh columns for the centroids that
moved; sparse rows skip the zero products through a column index. A label
is its row's argmax, the lowest index winning ties. The model carries the
buffer as its k x n ``sims`` view of the rows in ``sims_of``, which
:func:`soft_assign` spends on those rows only: its softmax runs in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

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

def _runs(lo: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The positions lo[i], ..., lo[i] + size[i] - 1 of every run i, runs in turn."""
    at = np.repeat(lo - np.cumsum(size) + size, size)
    return np.add(at, np.arange(len(at)), out=at)  # in place: two cell-length arrays, not three


@dataclass(frozen=True)
class DocMatrix:
    """Documents as the rows of one feature matrix.

    TF-IDF rows from :func:`vectorize` are sparse: ``csr`` holds their CSR
    triplets ``(indptr, indices, data)`` over the ``terms`` columns, columns
    ascending within a row; no dense n x V array is built. Supplied
    embeddings from :func:`load_vectors` are one dense ``matrix`` and have
    no term names. Exactly one of the two is set. Both builders give rows of
    unit L2 norm, which :func:`cluster` and :func:`soft_assign` rely on;
    they read the rows through the methods below only.
    """

    post_ids: tuple[str, ...]
    terms: tuple[str, ...]
    matrix: np.ndarray | None = None  # dense, shape (len(post_ids), n_features)
    csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

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
        rows = np.repeat(np.arange(stop - start), np.diff(indptr[start : stop + 1]))
        block[rows, indices[lo:hi]] = data[lo:hi]
        return block

    def column_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Non-zeros sorted by column (stably), each column's start among them, each one's row."""
        indptr, indices, _ = self.csr
        starts = np.concatenate(([0], np.cumsum(np.bincount(indices, minlength=self.n_features))))
        row_of = np.repeat(np.arange(len(self)), np.diff(indptr))
        return np.argsort(indices, kind="stable"), starts, row_of

    def dots(self, vectors: np.ndarray, index=None) -> np.ndarray:
        """Dot products of every row with dense ``vectors`` of n_features.

        One vector gives shape (n,), a (m, n_features) stack gives (m, n) as
        the transpose of a docs-major array. Sparse rows add their products
        over their non-zeros in column order (one ``bincount`` per vector),
        so a stack gives the bits of one vector at a time. They go through a
        :meth:`column_index`, built per call unless given, and skip the
        columns where a vector is zero: those products are ±0.0, which never
        move a sum that starts at +0.0. Dense rows take one BLAS ``gemv`` for
        a vector, one ``gemm`` for a stack.
        """
        if self.matrix is not None:
            return (self.matrix @ vectors.T).T
        if index is None:
            index = self.column_index()
        if vectors.ndim == 2:
            out = np.empty((len(self), len(vectors))).T
            for row, vector in zip(out, vectors):
                row[:] = self.dots(vector, index)
            return out
        # Column by column: each row still meets its non-zeros in column order.
        order, starts, row_of = index
        cols = np.flatnonzero(vectors)
        lo, size = starts[cols], starts[cols + 1] - starts[cols]
        at = order[_runs(lo, size)]
        return np.bincount(row_of[at], self.csr[2][at] * np.repeat(vectors[cols], size), len(self))

    def label_sums(self, labels: np.ndarray, k: int) -> Iterator[tuple[int, np.ndarray]]:
        """(label, sum of its rows) for labels 0 to k - 1, one sum built at a time.

        A label's rows are added in row order (one ``bincount`` of its sparse cells), as a
        column sum of its dense rows adds them, so sum / count rounds like their mean.
        """
        if self.matrix is not None:  # embeddings: k masked sums beat one n·d-cell bincount
            yield from ((kk, self.matrix[labels == kk].sum(axis=0)) for kk in range(k))
            return
        indptr, indices, data = self.csr
        # Label by label, rows in order: a stable sort that numpy radix-sorts for k < 2^16.
        rows = np.argsort(labels.astype(np.min_scalar_type(k)), kind="stable")
        at = _runs(indptr[rows], indptr[rows + 1] - indptr[rows])
        ends = np.cumsum(np.bincount(labels, np.diff(indptr), k)).astype(int).tolist()
        for kk, (a, b) in enumerate(zip([0] + ends, ends)):
            yield kk, np.bincount(indices[at[a:b]], data[at[a:b]], self.n_features)


@dataclass
class TopicModel:
    """K cluster centroids over the documents' features plus hard assignments."""

    k: int
    vocabulary: tuple[str, ...]  # the DocMatrix terms; empty for embeddings
    centroids: np.ndarray  # shape (k, n_features), unit rows
    labels: np.ndarray  # cluster index in [0, k) of each DocMatrix row, in post_ids order
    # DocMatrix.dots of the clustered rows with the centroids, shape (k, n): a view
    # of cluster's docs-major buffer, which soft_assign spends (None after)
    sims: np.ndarray | None = field(default=None, repr=False)
    sims_of: DocMatrix | None = field(default=None, repr=False, compare=False)  # those rows
    steps: int = 0  # the centroid updates cluster made
    converged: bool = False  # whether its last step left every label unchanged, before max_iters


def improper_row(matrix: np.ndarray) -> tuple[int, str] | None:
    """The first row of the 2-D ``matrix`` that is not a probability vector, and why; else None.

    A negative cell in any row comes first, then a total (numpy's pairwise sum) that is
    non-finite or more than 1e-9 from 1. No n x k temporary is made.
    """
    if np.fmin.reduce(matrix, axis=None, initial=0.0) < 0:  # skips NaN: the totals catch it
        return int(np.argmax(np.fmin.reduce(matrix, axis=1) < 0)), "negative probability"
    with np.errstate(over="ignore"):
        totals = matrix.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(totals - 1.0) <= 1e-9))  # a NaN total fails too
    if not bad.size:
        return None
    total = float(totals[bad[0]])
    if not math.isfinite(total):
        return int(bad[0]), "non-finite probability"
    return int(bad[0]), f"probabilities sum to {total!r}, expected 1"


@dataclass(frozen=True)
class TopicDistribution:
    """Row-stochastic document-topic matrix; ``row for post '<id>': <reason>`` names a bad row."""

    post_ids: tuple[str, ...]
    matrix: np.ndarray  # shape (len(post_ids), k)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        if mat.shape[0] != len(self.post_ids):
            raise ValueError(f"matrix has {mat.shape[0]} rows but {len(self.post_ids)} post ids")
        if fault := improper_row(mat):
            raise ValueError(f"row for post {self.post_ids[fault[0]]!r}: {fault[1]}")

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def column(self, topic: int) -> np.ndarray:
        return self.matrix[:, topic]


def _term_counts(docs: Sequence[CleanDoc]):
    """The sorted vocabulary, and the row, column and count of every (doc, term) cell."""
    terms = tuple(sorted({t for doc in docs for t in doc.tokens}))
    column = {t: j for j, t in enumerate(terms)}
    n_terms = len(terms)
    # One key row * V + column per token; the sorted unique keys are the
    # cells in row-major order, and their counts are the term frequencies.
    lengths = [len(doc.tokens) for doc in docs]
    token_cols = np.fromiter(
        (column[t] for doc in docs for t in doc.tokens), dtype=np.int64, count=sum(lengths)
    )
    keys, counts = np.unique(
        np.repeat(np.arange(len(docs)), lengths) * n_terms + token_cols, return_counts=True
    )
    rows, cols = np.divmod(keys, n_terms)
    return terms, rows, cols, counts


def vectorize(docs: Sequence[CleanDoc], term_counts=None) -> DocMatrix:
    """L2-normalized smoothed TF-IDF rows over the sorted corpus vocabulary.

    Weight of term t in a document is tf * (log((1 + D) / (1 + df)) + 1)
    with D the number of non-empty documents and df the number containing
    t. The rows are sparse (CSR, columns sorted within a row). Empty
    documents are excluded from the output (callers detect them by
    comparing lengths). Raises ValueError when every document is empty.
    ``term_counts``, if given, is ``_term_counts`` of the non-empty documents.
    """
    non_empty = [d for d in docs if d.tokens]
    if not non_empty:
        raise ValueError("all documents are empty after preprocessing")

    n_docs = len(non_empty)
    terms, row_of, indices, tf = term_counts or _term_counts(non_empty)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=n_docs))))
    df = np.bincount(indices, minlength=len(terms)).tolist()
    idf = np.array([math.log((1 + n_docs) / (1 + c)) + 1.0 for c in df])

    raw = tf * idf[indices]
    squares, bounds = raw * raw, indptr.tolist()
    # Each row over its exactly rounded (fsum) norm.
    norms = np.sqrt([math.fsum(squares[a:b].tolist()) for a, b in zip(bounds, bounds[1:])])
    post_ids = tuple(d.post_id for d in non_empty)
    return DocMatrix(post_ids, terms, csr=(indptr, indices, raw / norms[row_of]))


# The smallest norm whose squares sum without rounding in subnormals.
_SAFE_NORM = math.sqrt(np.finfo(float).tiny)


def load_vectors(path: str | Path) -> DocMatrix:
    """Load pre-computed document vectors from a JSON-lines file.

    Each line holds ``{"id": ..., "vector": [floats]}``; ids must be
    unique and all vectors of one length. Vectors are L2-normalized on load
    and become the rows of a :class:`DocMatrix` without term names, held once
    in one flat buffer that the matrix views. Their clusters still depend on
    the BLAS kernel, through the ``gemm`` dots :func:`cluster` takes.
    """
    path = Path(path)
    ids: dict[str, None] = {}  # in file order
    flat = bytearray()
    dim = 0
    for lineno, record in _iter_jsonl(path, ValueError):
        post_id = record.get("id")
        values = record.get("vector")
        if not (isinstance(post_id, str) and post_id) or not isinstance(values, list) or not values:
            raise ValueError(f"{path}, line {lineno}: expected a non-empty 'id' and 'vector'")
        if not {*map(type, values)} <= {int, float}:  # a bool, string, list or null
            raise ValueError(f"{path}, line {lineno}: 'vector' must hold numbers only")
        if post_id in ids:
            raise ValueError(f"{path}, line {lineno}: duplicate id {post_id!r}")
        dim = dim or len(values)
        if len(values) != dim:
            raise ValueError(f"{path}, line {lineno}: vector length {len(values)} != {dim}")
        try:
            arr = np.asarray(values, dtype=float)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{path}, line {lineno}: 'vector' entry too large") from None
        with np.errstate(over="ignore"):
            norm = float(np.sqrt(np.add.reduce(arr * arr)))
        if not _SAFE_NORM <= norm < math.inf and np.isfinite(arr).all() and arr.any():
            # The squares overflow, or underflow into subnormals or zero.
            arr = arr / np.abs(arr).max()
            norm = float(np.sqrt(np.add.reduce(arr * arr)))
        if norm <= 0.0 or not np.isfinite(norm):
            raise ValueError(f"{path}, line {lineno}: vector for {post_id!r} has no norm")
        ids[post_id] = None
        flat += (arr / norm).tobytes()
    return DocMatrix(tuple(ids), (), np.frombuffer(flat).reshape(len(ids), dim))


class _PCG64:
    """numpy's ``default_rng(seed)`` for the two draws k-means++ makes, without numpy.random:
    PCG64 (a 128-bit LCG, XSL-RR output after each step) seeded by ``SeedSequence(seed)``."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
        h = [0x43B0D7E5, 0x931E8875]  # SeedSequence's running hash constant and its multiplier

        def hashmix(value):
            value ^= h[0]
            h[0] = h[0] * h[1] & 0xFFFFFFFF
            value = value * h[0] & 0xFFFFFFFF
            return value ^ value >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(max(4, len(words))):  # each pool word into the others, then later words
            word = pool[src] if src < 4 else words[src]
            for dst in range(4):
                if dst != src:
                    x = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(word)) & 0xFFFFFFFF
                    pool[dst] = x ^ x >> 16
        h[:] = 0x8B51F9DD, 0x58F38DED  # generate_state(4, np.uint64): 32-bit words paired
        w = [hashmix(pool[i % 4]) | hashmix(pool[i % 4 + 1]) << 32 for i in (0, 2, 4, 6)]
        self.inc = ((w[2] << 64 | w[3]) << 1 | 1) % (1 << 128)
        self.state, self.half = self.inc + (w[0] << 64 | w[1]), []  # half: next32's spare half
        self.next64()  # PCG's srandom: state 0 steps to inc; add the initial state, step again

    def next64(self) -> int:
        self.state = (self.state * 0x2360ED051FC65DA44385DF649FCCF645 + self.inc) % (1 << 128)
        rot, x = self.state >> 122, (self.state >> 64 ^ self.state) & (1 << 64) - 1
        return (x >> rot | x << (64 - rot)) & (1 << 64) - 1

    def next32(self) -> int:
        if not self.half:
            x = self.next64()
            self.half = [x >> 32, x & 0xFFFFFFFF]
        return self.half.pop()

    def integers(self, n: int) -> int:
        """numpy's ``integers(n)``: Lemire's method, on 32-bit draws up to n = 2**32."""
        bits, draw = (32, self.next32) if n <= 1 << 32 else (64, self.next64)
        m = draw() * n if n > 1 else 0  # numpy draws nothing for one value
        while m % (1 << bits) < (1 << bits) % n:
            m = draw() * n
        return m >> bits

    def choice(self, n: int, p: np.ndarray) -> int:
        """numpy's ``choice(n, p=p)``: the right-sided search of one 53-bit uniform in p's CDF."""
        if len(p) != n or not (p >= 0).all() or not abs(p.sum() - 1.0) <= 2.0**-26:
            raise ValueError("probabilities must be n non-negative numbers that sum to 1")
        cdf = p.cumsum()
        return int((cdf / cdf[-1]).searchsorted((self.next64() >> 11) * 2.0**-53, "right"))


def cluster(docs: DocMatrix, k: int, seed: int, max_iters: int = 100) -> TopicModel:
    """Spherical k-means with seeded k-means++ initialization.

    The seeding draws replay numpy's ``default_rng(seed)`` PCG64 stream
    (:class:`_PCG64`, which imports no numpy.random; a test holds the two
    equal on every supported numpy). Distances are cosine-based (rows and
    centroids are unit length, so similarity is a dot product). Each centroid
    is the normalized mean of its members, summed in row order one cluster at
    a time: no k x V array is held beside the centroids. One docs-major n x k
    buffer holds :meth:`DocMatrix.dots` of every row with every centroid,
    starting as the seeding dots; after an update only the columns of
    centroids that moved are taken again (a centroid that keeps its members
    comes out bit-identical), sparse rows via a :meth:`DocMatrix.column_index`
    dropped on return.
    Dense rows take all k columns again in one product instead. Labels are
    the buffer's row argmaxes, so nearest-centroid ties break toward the
    lowest cluster index, and a cluster that empties out is re-seeded with
    the most isolated document by that buffer. The result, with the buffer
    as its k x n ``sims`` view, is a deterministic function of (docs, k, seed).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(docs):
        raise ValueError(f"k = {k} exceeds the number of documents ({len(docs)})")

    n = len(docs)
    rng = _PCG64(seed)
    index = None if docs.csr is None else docs.column_index()
    sims = np.empty((n, k))  # sims[:, kk]: every row's dot with centroid kk

    def retake(changed):
        if index is None:
            # Dense rows take every centroid again: BLAS sums a lone vector
            # (gemv) in another order than a stack (gemm).
            sims[:] = docs.dots(centroids).T
            return
        for kk in changed:
            sims[:, kk] = docs.dots(centroids[kk], index)

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
        sims[:, kk] = col = docs.dots(centroids[kk], index)
        dist = np.minimum(dist, np.maximum(1.0 - col, 0.0))
    retake([])  # dense rows: the seeds' gemv sums become one gemm's

    labels, steps, converged = np.full(n, -1), 0, False
    for _ in range(max_iters):
        new_labels = sims.argmax(axis=1)  # along contiguous rows; the lowest index wins ties

        # Re-seed empty clusters with the most isolated document, stealing
        # only from clusters that keep at least one member.
        counts = np.bincount(new_labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            order = [int(i) for i in np.argsort(sims.max(axis=1), kind="stable")]
            for kk in empty:
                pick = next(i for i in order if counts[new_labels[i]] > 1)
                counts[new_labels[pick]] -= 1
                new_labels[pick] = kk
                counts[kk] = 1
                centroids[kk] = docs.rows(pick, pick + 1)[0]
            retake(empty)

        if converged := (new_labels == labels).all():
            break
        labels, steps = new_labels, steps + 1
        moved = []  # only a moved centroid is dotted again
        for kk, total in docs.label_sums(labels, k):
            mean = total / counts[kk]
            norm = np.sqrt(np.add.reduce(mean * mean))  # numpy's pairwise sum, no BLAS
            if norm > 0:
                mean = mean / norm
                if (mean != centroids[kk]).any():
                    centroids[kk] = mean
                    moved.append(kk)
        if moved:
            retake(moved)

    return TopicModel(k, docs.terms, centroids, labels, sims.T, docs, steps, bool(converged))


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
    docs: Sequence[CleanDoc], labels: np.ndarray, k: int, n_terms: int = 7, term_counts=None
) -> list[list[tuple[str, float]]]:
    """Top class-based TF-IDF terms per cluster, ties broken alphabetically.

    ``labels[i]`` in [0, k) is the cluster of ``docs[i]``. The top terms come from one
    count over (cluster, term) pairs of ``term_counts``, else of ``_term_counts(docs)``.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if len(labels) != len(docs):
        raise ValueError(f"{len(labels)} labels for {len(docs)} documents")
    # A range test and one count: np.unique would import numpy.ma.
    in_range = len(labels) and 0 <= labels.min() and labels.max() < k
    if not (in_range and np.bincount(labels, minlength=k).all()):
        raise ValueError(f"labels must lie in [0, {k}), and every cluster needs a document")

    terms, rows, cols, counts = term_counts or _term_counts(docs)
    cells, cell_of = np.unique(labels[rows] * len(terms) + cols, return_inverse=True)
    cell_cluster, cell_term = np.divmod(cells, len(terms))
    in_cluster = np.bincount(cell_of, weights=counts).astype(np.int64).tolist()
    total = np.bincount(cols, weights=counts).astype(np.int64)[cell_term].tolist()
    avg_words = int(counts.sum()) / k
    weights = [ctfidf_weight(c, t, avg_words) for c, t in zip(in_cluster, total)]
    # Cells run by cluster, then by term; a stable sort on -weight keeps ties alphabetical.
    order = np.lexsort((-np.array(weights), cell_cluster))
    starts = np.searchsorted(cell_cluster, range(k + 1)).tolist()  # ints: a + n_terms never overflows
    return [
        [(terms[cell_term[i]], weights[i]) for i in order[a : min(b, a + n_terms)]]
        for a, b in zip(starts, starts[1:])
    ]


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
    have the features the model was clustered on. The cosines are the
    model's ``sims`` when ``docs`` is the very DocMatrix they were taken
    from (``sims_of``), else ``docs.dots`` of the centroids, the same
    values for those rows. The softmax overwrites the carried docs-major
    buffer, so it spends ``sims``: the model carries ``None`` afterwards.
    """
    check_temperature(temperature)
    if model.k < 1:
        raise ValueError("model has no centroids")
    if docs.terms != model.vocabulary or docs.n_features != model.centroids.shape[1]:
        raise ValueError("documents and model have different features")
    if model.sims is not None and model.sims_of is docs:
        sims, model.sims, model.sims_of = model.sims, None, None
    else:
        sims = docs.dots(model.centroids)

    # In place on the buffer under sims, each row summed as a contiguous row.
    dist = np.ascontiguousarray(sims.T)
    dist /= temperature
    dist -= dist.max(axis=1, keepdims=True)
    np.exp(dist, out=dist)
    dist /= dist.sum(axis=1, keepdims=True)
    return TopicDistribution(docs.post_ids, dist)


def topic_prevalence(dist: TopicDistribution) -> np.ndarray:
    """Per-topic mass: column sums of the distribution matrix."""
    return dist.matrix.sum(axis=0)
