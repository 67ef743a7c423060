"""Independent reference implementations used to cross-check the library.

Everything here is coded straight from the defining formulas, on plain
floats, without importing the code under test.
"""

import math
from collections import Counter

import numpy as np


def spreadsheet_weighted_stats(values, weights):
    """Long-hand weighted mean and corrected weighted standard deviation."""
    total = sum(weights)
    mean = sum(w * x for w, x in zip(weights, values)) / total
    m_active = sum(1 for w in weights if w > 0)
    if m_active == 1:
        return mean, 0.0
    num = sum(w * (x - mean) ** 2 for w, x in zip(weights, values))
    sigma = math.sqrt(num / (((m_active - 1) / m_active) * total))
    return mean, sigma


def one_token_polarity(tokens, entries, negators, intensifiers):
    """Mean of the lexicon hits, each modified by the one token before it.

    A hit's value is negated when the previous token is a negator and
    multiplied by its multiplier when that token is an intensifier. The hits
    are added left to right (``sum`` is compensated from Python 3.12 on), the
    mean is clamped to [-1, 1], and a document without hits scores 0.
    """
    hits = []
    for i, tok in enumerate(tokens):
        if tok not in entries:
            continue
        value = entries[tok]
        if i > 0:
            prev = tokens[i - 1]
            if prev in negators:
                value = -value
            elif prev in intensifiers:
                value *= intensifiers[prev]
        hits.append(value)
    if not hits:
        return 0.0
    total = 0.0
    for value in hits:
        total += value
    return min(1.0, max(-1.0, total / len(hits)))


GRID_STEP = 1e-4
GRID = np.arange(-2.0, 2.0 + GRID_STEP / 2, GRID_STEP)


def grid_possibility(a, m, b, kind, ramp):
    """Brute-force sup-min over a fixed grid on [-2, 2].

    Only meaningful for non-degenerate triangles; a zero-width spike can
    fall between grid points.
    """
    x = GRID
    tri = np.zeros_like(x)
    if m > a:
        leg = (x >= a) & (x <= m)
        tri[leg] = (x[leg] - a) / (m - a)
    if b > m:
        leg = (x >= m) & (x <= b)
        tri[leg] = (b - x[leg]) / (b - m)

    if kind == "positive":
        concept = np.clip(x / ramp, 0.0, 1.0)
        concept[x <= 0] = 0.0
    elif kind == "negative":
        concept = np.clip(-x / ramp, 0.0, 1.0)
        concept[x >= 0] = 0.0
    else:
        raise ValueError(kind)
    return float(np.minimum(tri, concept).max())


def dense_tfidf(token_lists, second_pass=False):
    """Smoothed TF-IDF rows built on one dense n x V array.

    Returns the sorted vocabulary and the matrix whose rows follow the
    non-empty token lists. Weight of term t is tf * (ln((1 + D) / (1 + df)) + 1);
    each row is divided by its exactly summed (fsum) norm. ``second_pass``
    divides the whole matrix once more by numpy's row norms, which moves
    cells by a few ulps.
    """
    docs = [tokens for tokens in token_lists if tokens]
    n_docs = len(docs)
    terms = sorted({t for tokens in docs for t in tokens})
    column = {t: j for j, t in enumerate(terms)}
    df = {t: sum(1 for tokens in docs if t in tokens) for t in terms}
    mat = np.zeros((n_docs, len(terms)))
    for i, tokens in enumerate(docs):
        tf = {}
        for t in tokens:
            tf[t] = tf.get(t, 0) + 1
        raw = {t: c * (math.log((1 + n_docs) / (1 + df[t])) + 1.0) for t, c in tf.items()}
        norm = math.sqrt(math.fsum(v * v for v in raw.values()))
        for t, v in raw.items():
            mat[i, column[t]] = v / norm
    if second_pass:
        mat = mat / np.linalg.norm(mat, axis=1)[:, None]
    return terms, mat


def fixed_order_dots(rows, centroids):
    """Every row's dot product with every centroid, shape (n, k).

    Each row adds the products of its non-zero cells one at a time, in
    column order, starting from 0.0: the order that defines the cosines
    of sparse rows. Step q adds the q-th non-zero product of every row
    that has one.
    """
    nonzero = [np.flatnonzero(row) for row in rows]
    sims = np.zeros((len(rows), len(centroids)))
    for q in range(max(map(len, nonzero), default=0)):
        live = [i for i, cols in enumerate(nonzero) if len(cols) > q]
        cols = [nonzero[i][q] for i in live]
        sims[live] += rows[live, cols][:, None] * centroids[:, cols].T
    return sims


def lloyd_reference(docs, k, seed, max_iters=100):
    """Seeded spherical k-means with one full similarity product per step.

    This is the Lloyd loop of ``topics.cluster`` before it kept its
    similarity matrix between steps: every iteration multiplies out all
    rows against all centroids. Sparse rows take :func:`fixed_order_dots`
    of their dense copies; dense rows take the BLAS products that define
    their cosines (``gemv`` for one seed, ``gemm`` for all centroids).
    Each centroid sums its members' dense rows long-hand, one row at a
    time in row order, and divides by the count. Returns the labels, the
    centroids and the rows' similarities with those centroids, shape (n, k).
    """
    n = len(docs)
    rows = docs.rows(0, n)

    def dots(centroids):
        if docs.csr is None:
            return rows @ centroids.T
        return fixed_order_dots(rows, centroids)

    def seed_distances(i):
        sims = rows @ rows[i] if docs.csr is None else dots(rows[[i]])[:, 0]
        return np.maximum(1.0 - sims, 0.0)

    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))
    chosen = [first]
    dist = seed_distances(first)
    for _ in range(1, k):
        total = float(dist.sum())
        if total <= 1e-12:
            nxt = int(rng.integers(n))
        else:
            nxt = int(rng.choice(n, p=dist / total))
        chosen.append(nxt)
        dist = np.minimum(dist, seed_distances(nxt))
    centroids = rows[chosen]

    labels = np.full(n, -1)
    for _ in range(max_iters):
        sims = dots(centroids)
        new_labels = sims.argmax(axis=1)
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
                centroids[kk] = rows[pick]
        if (new_labels == labels).all():
            break
        labels = new_labels
        for kk in range(k):
            total = np.zeros(docs.n_features)
            for i in np.flatnonzero(labels == kk):  # one member row at a time, in row order
                total += rows[i]
            mean = total / counts[kk]
            norm = np.sqrt(np.add.reduce(mean * mean))
            if norm > 0:
                centroids[kk] = mean / norm
    return labels, centroids, dots(centroids)


def ctfidf_weight(tf_tc, tf_t, avg_words):
    """Class-based TF-IDF weight tf_tc * ln(1 + avg_words / tf_t); 0 when tf_tc is 0."""
    if tf_tc == 0:
        return 0.0
    return tf_tc * math.log(1.0 + avg_words / tf_t)


def ctfidf_reference(cluster_docs, n_terms=7):
    """Top class-based TF-IDF terms per cluster, ties broken alphabetically.

    The ``Counter`` version that ``topics.ctfidf_top_terms`` replaced, with its
    body unchanged: one list of documents per cluster, counted term by term.
    """
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
