"""Independent reference implementations used to cross-check the library.

Everything here is coded straight from the defining formulas, on plain
floats, without importing the code under test.
"""

import math

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


def dense_tfidf(token_lists):
    """Smoothed TF-IDF rows built on one dense n x V array.

    Returns the sorted vocabulary and the matrix whose rows follow the
    non-empty token lists. Weight of term t is tf * (ln((1 + D) / (1 + df)) + 1);
    each row is divided by its exactly summed (fsum) norm, then the whole
    matrix once more by numpy's row norms.
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
    return terms, mat / np.linalg.norm(mat, axis=1)[:, None]
