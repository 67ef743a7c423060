"""Tests for vectorization, clustering, c-TF-IDF and soft assignment."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topicmood import topics
from topicmood.corpus import CleanDoc, Post, default_stopwords, preprocess
from topicmood.topics import (
    DocMatrix,
    TopicDistribution,
    TopicModel,
    cluster,
    ctfidf_top_terms,
    ctfidf_weight,
    load_vectors,
    soft_assign,
    topic_prevalence,
    vectorize,
)

from fuzzfiles import DEEP_NESTING, assert_loads_or_names_line, vectors_jsonl_bytes
from oracles import ctfidf_reference, dense_tfidf, fixed_order_dots, lloyd_reference
from synthdata import IN_RANGE_WEIGHTS, many_group_records, write_one_topic_fixture


def doc(post_id, *tokens):
    return CleanDoc(post_id, tuple(tokens))


def cluster_map(model, docs):
    """post_id -> cluster of a model clustered on ``docs``."""
    return dict(zip(docs.post_ids, model.labels.tolist()))


def two_group_docs(n_per_group=8):
    """Disjoint-vocabulary groups: cosine across groups is zero."""
    a_vocab = ["tram", "bus", "ticket", "route"]
    b_vocab = ["park", "tree", "bench", "pond"]
    docs = []
    for i in range(n_per_group):
        docs.append(doc(f"a{i}", *(a_vocab[j % 4] for j in range(i, i + 3))))
    for i in range(n_per_group):
        docs.append(doc(f"b{i}", *(b_vocab[j % 4] for j in range(i, i + 3))))
    return docs


class TestVectorize:
    def test_identical_docs_get_identical_vectors(self):
        vecs = vectorize([doc("x", "a", "b"), doc("y", "a", "b")])
        np.testing.assert_array_equal(vecs.rows(0, 1), vecs.rows(1, 2))

    def test_single_doc_equal_weights_unit_norm(self):
        vecs = vectorize([doc("x", "alpha", "beta")])
        (row,) = vecs.rows(0, 1)
        vec = dict(zip(vecs.terms, row))
        assert vec["alpha"] == pytest.approx(vec["beta"])
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-9)

    def test_rare_term_gets_higher_idf(self):
        docs = [doc(f"d{i}", "common", *(["rare"] if i == 0 else [])) for i in range(5)]
        vecs = vectorize(docs)
        v0 = dict(zip(vecs.terms, vecs.rows(0, 1)[0]))
        # Equal term frequency inside doc 0, so the idf factor decides.
        assert v0["rare"] > v0["common"]

    def test_empty_docs_excluded(self):
        vecs = vectorize([doc("x", "word"), doc("y")])
        assert vecs.post_ids == ("x",)

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            vectorize([doc("x"), doc("y")])

    def test_norms_and_nonnegativity(self):
        docs = two_group_docs()
        vecs = vectorize(docs)
        for row in vecs.rows(0, len(vecs)):
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-9)
            assert all(w >= 0 for w in row)

    @pytest.mark.parametrize("n_docs,n_groups", [(16, 2), (600, 42)])
    def test_shared_term_counts_give_same_bits(self, n_docs, n_groups):
        # The counts a run takes once serve TF-IDF and c-TF-IDF as each would count them.
        docs = synth_docs(n_docs, n_groups)
        counts = topics._term_counts(docs)
        alone, shared = vectorize(docs), vectorize(docs, counts)
        assert alone.terms == shared.terms and alone.post_ids == shared.post_ids
        for mine, theirs in zip(alone.csr, shared.csr):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        labels = cluster(shared, n_groups, seed=3).labels
        assert ctfidf_top_terms(docs, labels, n_groups, 7, counts) == ctfidf_top_terms(
            docs, labels, n_groups, 7
        )


class TestCluster:
    def test_k1_centroid_is_normalized_mean(self):
        vecs = vectorize(two_group_docs(3))
        model = cluster(vecs, 1, seed=5)
        assert set(model.labels.tolist()) == {0}
        mean = vecs.rows(0, len(vecs)).mean(axis=0)
        np.testing.assert_allclose(model.centroids[0], mean / np.linalg.norm(mean), atol=1e-12)

    def test_separates_disjoint_groups(self):
        vecs = vectorize(two_group_docs())
        cluster_of = cluster_map(cluster(vecs, 2, seed=3), vecs)
        labels_a = {cluster_of[f"a{i}"] for i in range(8)}
        labels_b = {cluster_of[f"b{i}"] for i in range(8)}
        assert len(labels_a) == 1 and len(labels_b) == 1
        assert labels_a != labels_b

    def test_deterministic_for_fixed_seed(self):
        vecs = vectorize(two_group_docs())
        m1 = cluster(vecs, 2, seed=11)
        m2 = cluster(vecs, 2, seed=11)
        np.testing.assert_array_equal(m1.labels, m2.labels)
        np.testing.assert_array_equal(m1.centroids, m2.centroids)

    def test_partition_stable_under_document_permutation(self):
        docs = two_group_docs()
        vecs = vectorize(docs)
        base = cluster(vecs, 2, seed=7)
        permuted = DocMatrix(vecs.post_ids[::-1], vecs.terms, vecs.rows(0, len(vecs))[::-1])
        other = cluster(permuted, 2, seed=7)

        def partition(model, docs):
            groups = {}
            for pid, c in cluster_map(model, docs).items():
                groups.setdefault(c, set()).add(pid)
            return {frozenset(g) for g in groups.values()}

        assert partition(base, vecs) == partition(other, permuted)

    def test_k_bounds(self):
        vecs = vectorize(two_group_docs(2))
        with pytest.raises(ValueError):
            cluster(vecs, 0, seed=1)
        with pytest.raises(ValueError):
            cluster(vecs, len(vecs) + 1, seed=1)

    def test_k_equals_n(self):
        vecs = vectorize([doc("x", "aa"), doc("y", "bb"), doc("z", "cc")])
        model = cluster(vecs, 3, seed=2)
        assert sorted(model.labels.tolist()) == [0, 1, 2]

    def test_exact_tie_goes_to_lowest_index(self):
        # Row 2 lies halfway between rows 0 and 1: its sums with those two
        # seeds are exactly equal, and the first step labels it 0.
        h = math.sqrt(0.5)
        docs = as_docs(np.array([[1.0, 0.0], [0.0, 1.0], [h, h]]), sparse=True)
        tied = 0
        for seed in range(10):
            seeds = cluster(docs, 2, seed, max_iters=0)
            if {tuple(c) for c in seeds.centroids} != {(1.0, 0.0), (0.0, 1.0)}:
                continue
            assert seeds.sims[0, 2] == seeds.sims[1, 2]
            assert cluster(docs, 2, seed, max_iters=1).labels[2] == 0
            tied += 1
        assert tied > 0

    def test_no_cluster_left_empty_on_duplicate_heavy_corpora(self):
        # Duplicates collapse onto one centroid under lowest-index tie
        # breaking; the re-seeding rule must still fill every cluster.
        rng = np.random.default_rng(0)
        docs = [doc(f"e{i}", *(str(t) for t in rng.choice(["aa", "bb"], 3))) for i in range(8)]
        vecs = vectorize(docs)
        for k in (2, 4, 7, 8):
            for seed in range(12):
                model = cluster(vecs, k, seed)
                assert len(set(model.labels.tolist())) == k, (k, seed)

    def test_says_whether_it_converged(self):
        vecs = vectorize(synth_docs(300, 7))
        full = cluster(vecs, 7, seed=0)
        assert full.converged and full.steps > 1
        cut = cluster(vecs, 7, seed=0, max_iters=1)
        assert (cut.converged, cut.steps) == (False, 1)
        assert (cut.labels != full.labels).any()
        seeds = cluster(vecs, 7, seed=0, max_iters=0)
        assert (seeds.converged, seeds.steps) == (False, 0)


# Both Lemire widths, both sides of 2**32 and one value (no draw at all).
_LEMIRE_NS = [1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40]
# An int n is one integers(n) draw, a list of weights one choice(len, p=weights / sum).
_DRAWS = st.lists(
    st.sampled_from(_LEMIRE_NS) | st.integers(1, 2**40)
    | st.lists(st.floats(0, 1), min_size=1, max_size=9).filter(any),
    max_size=40,
)


class TestSeedingStream:
    """``topics._PCG64`` against numpy's ``default_rng``, the stream k-means++ draws from."""

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**160), draws=_DRAWS)
    @example(seed=0, draws=[1, 2**31, [0.5, 0.5], 2**31, 2**40, 2**32, 2**32 - 1, 2**32 + 1])
    @example(seed=2**32, draws=[2, [1.0], 2, 2**40, 2])
    @example(seed=2**128 - 1, draws=[2**32 - 1, [0.25, 0.0, 0.75], 2**32 - 1])
    @example(seed=2**128 + 1, draws=[2**31, 2**31, 2**31, [0.0, 1.0]])
    def test_replays_default_rng(self, seed, draws):
        ours, numpy_rng = topics._PCG64(seed), np.random.default_rng(seed)
        assert np.random.PCG64(seed).state["state"] == {"state": ours.state, "inc": ours.inc}
        for draw in draws:
            if isinstance(draw, int):
                assert ours.integers(draw) == numpy_rng.integers(draw), draw
            else:
                p = np.array(draw) / sum(draw)
                assert ours.choice(len(p), p=p) == numpy_rng.choice(len(p), p=p), draw

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_refused(self, seed):
        with pytest.raises(ValueError):
            np.random.default_rng(seed)
        with pytest.raises(ValueError):
            topics._PCG64(seed)

    @pytest.mark.parametrize(
        "p", [[0.5, -0.1, 0.6], [math.nan, 0.5, 0.5], [0.5, 0.6, 0.1], [math.inf, 0.0, 0.0]],
        ids=["negative", "nan", "sum-1.2", "inf"],
    )
    def test_bad_probabilities_refused(self, p):
        p = np.array(p)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, p=p)
        with pytest.raises(ValueError):
            topics._PCG64(0).choice(3, p=p)


def synth_docs(n_docs, n_groups):
    stopwords = default_stopwords()
    return [
        preprocess(Post(r["id"], r["text"]), stopwords)
        for r in many_group_records(n_docs, n_groups)
    ]


def duplicate_heavy_docs():
    rng = np.random.default_rng(0)
    return [doc(f"e{i}", *(str(t) for t in rng.choice(["aa", "bb"], 3))) for i in range(8)]


# Clusters one synthetic corpus and prints the SHA-256 of its centroids and soft rows.
_KERNEL_RUN = """
import hashlib, sys
sys.path[:0] = sys.argv[1:]
from synthdata import IN_RANGE_WEIGHTS, many_group_records, write_one_topic_fixture
from topicmood.corpus import Post, default_stopwords, preprocess
from topicmood.topics import cluster, soft_assign, vectorize
stop = default_stopwords()
docs = [preprocess(Post(r["id"], r["text"]), stop) for r in many_group_records(1000, 20)]
vecs = vectorize([d for d in docs if not d.is_empty])
model = cluster(vecs, 20, seed=0)
print(hashlib.sha256(model.centroids.tobytes()).hexdigest())
print(hashlib.sha256(soft_assign(vecs, model, 0.25).matrix.tobytes()).hexdigest())
"""


def _cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def _kernels():
    """The OpenBLAS kernels (``OPENBLAS_CORETYPE``) this CPU runs; skips below two.

    A BLAS that ignores the variable runs one kernel every time, and there a
    test over these kernels passes without testing anything.
    """
    features = _cpu_features()
    kernels = [
        name for name, feature in
        (("Prescott", "SSE3"), ("Sandybridge", "AVX"), ("Haswell", "AVX2"),
         ("SkylakeX", "AVX512F"))
        if features.get(feature)
    ]
    if len(kernels) < 2:
        pytest.skip("fewer than two OpenBLAS kernels run on this CPU")
    return kernels


class TestBlasKernel:
    def test_tfidf_clusters_do_not_depend_on_the_blas_kernel(self):
        """Centroid and soft-row bits are equal under each OpenBLAS kernel this CPU runs."""
        kernels = _kernels()
        root = Path(__file__).resolve().parents[1]
        paths = [str(root / "src"), str(root / "tests")]
        outputs = set()
        for kernel in kernels:
            proc = subprocess.run(
                [sys.executable, "-c", _KERNEL_RUN, *paths],
                capture_output=True, text=True, encoding="utf-8",
                env=dict(os.environ, OPENBLAS_CORETYPE=kernel), timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, (kernels, outputs)

    def test_topic_totals_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # A BLAS gemv of these weights passed the float range under some kernels only.
        posts_path, matrix_path = write_one_topic_fixture(tmp_path, IN_RANGE_WEIGHTS)
        src = str(Path(__file__).resolve().parents[1] / "src")
        for kernel in _kernels():
            proc = subprocess.run(
                [sys.executable, "-m", "topicmood", "run", "--input", str(posts_path),
                 "--dist-matrix", str(matrix_path), "--min-chars", "1",
                 "--out", str(tmp_path / kernel)],
                capture_output=True, text=True, encoding="utf-8", timeout=120,
                env=dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=src),
            )
            assert proc.returncode == 0, (kernel, proc.stderr)


class TestSparseRows:
    """CSR TF-IDF rows against references built on the same rows stored dense."""

    @pytest.mark.parametrize("n_docs", [40, 2500])
    def test_densified_rows_match_dense_reference(self, n_docs):
        docs = synth_docs(n_docs, 42) + [doc("empty")]
        vecs = vectorize(docs)
        terms, ref = dense_tfidf([d.tokens for d in docs])
        assert vecs.terms == tuple(terms)
        assert vecs.csr is not None and vecs.matrix is None
        np.testing.assert_array_equal(vecs.rows(0, len(vecs)), ref)
        indptr, indices, data = vecs.csr
        assert len(data) == np.count_nonzero(ref)
        for a, b in zip(indptr[:-1], indptr[1:]):
            assert (np.diff(indices[a:b]) > 0).all()

    def test_rows_within_few_ulps_of_twice_normalized_reference(self):
        # A second division by numpy's row norms moves no cell by more
        # than a few ulps: dropping it changes only the last bits.
        docs = synth_docs(2500, 42)
        vecs = vectorize(docs)
        _, ref = dense_tfidf([d.tokens for d in docs], second_pass=True)
        np.testing.assert_array_max_ulp(vecs.rows(0, len(vecs)), ref, maxulp=2)

    def test_dots_match_dense_products(self):
        vecs = vectorize(synth_docs(300, 7))
        dense = vecs.rows(0, len(vecs))
        for j in (0, 17, 299):
            np.testing.assert_allclose(vecs.dots(dense[j]), dense @ dense[j], rtol=0, atol=1e-15)

    def test_dots_of_a_stack_match_one_vector_at_a_time(self):
        vecs = vectorize(synth_docs(300, 7))
        dense = vecs.rows(0, len(vecs))
        stack = dense[[0, 17, 299]]
        rows = np.vstack([vecs.dots(v) for v in stack])
        np.testing.assert_array_equal(vecs.dots(stack), rows)
        as_dense = DocMatrix(vecs.post_ids, vecs.terms, dense)
        np.testing.assert_allclose(as_dense.dots(stack), stack @ dense.T, rtol=0, atol=1e-15)

    def test_dots_are_fixed_order_sums(self):
        vecs = vectorize(synth_docs(300, 7))
        dense = vecs.rows(0, len(vecs))
        stack = dense[[0, 17, 299]]
        np.testing.assert_array_equal(vecs.dots(stack), fixed_order_dots(dense, stack).T)

    @pytest.mark.parametrize("case", ["below-one-block", "two-blocks", "re-seed"])
    def test_cluster_and_soft_assign_match_dense_rows(self, case):
        # Labels, centroids and soft rows are those of the fixed-order sums
        # over the dense rows' non-zero cells, taken in full every step.
        if case == "below-one-block":
            vecs, k = vectorize(synth_docs(300, 7)), 7
        elif case == "two-blocks":
            vecs, k = vectorize(synth_docs(2500, 42)), 42
        else:
            # 8 documents with at most 4 distinct rows: k = 7 seeds a
            # duplicate centroid, which loses its ties and must be re-seeded.
            vecs, k = vectorize(duplicate_heavy_docs()), 7
            assert len(np.unique(vecs.rows(0, len(vecs)), axis=0)) < k
        for seed in (0, 3):
            model = cluster(vecs, k, seed)
            labels, centroids, sims = lloyd_reference(vecs, k, seed)
            np.testing.assert_array_equal(model.labels, labels)
            assert len(set(model.labels.tolist())) == k
            np.testing.assert_array_equal(model.centroids, centroids)
            scaled = sims / 0.25
            weights = np.exp(scaled - scaled.max(axis=1, keepdims=True))
            np.testing.assert_array_equal(
                soft_assign(vecs, model, 0.25).matrix,
                weights / weights.sum(axis=1, keepdims=True),
            )

    def test_centroids_are_normalized_member_means(self):
        vecs = vectorize(synth_docs(2500, 42))
        model = cluster(vecs, 42, seed=1)
        dense = vecs.rows(0, len(vecs))
        labels = model.labels
        for kk in range(42):
            mean = dense[labels == kk].mean(axis=0)
            np.testing.assert_array_equal(model.centroids[kk], mean / np.sqrt(np.add.reduce(mean * mean)))

    def test_no_dense_doc_term_array(self):
        # No step densifies more than one row, so the peak stays below the
        # size of one dense n x V array.
        docs = synth_docs(12000, 42)
        tracemalloc.start()
        try:
            vecs = vectorize(docs)
            cluster(vecs, 8, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_bytes = len(vecs) * len(vecs.terms) * 8
        assert peak < dense_bytes, (peak, dense_bytes)


def as_docs(mat, sparse):
    """The rows of ``mat`` as a DocMatrix: CSR (no stored zeros) or dense."""
    n, d = mat.shape
    ids = tuple(f"d{i}" for i in range(n))
    terms = tuple(f"t{j}" for j in range(d))
    if not sparse:
        return DocMatrix(ids, terms, mat)
    rows, cols = np.nonzero(mat)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return DocMatrix(ids, terms, csr=(indptr, cols, mat[rows, cols]))


def tied_rows(m=12, n_perm=30, n_probe=30):
    """Unit rows whose first Lloyd step is full of ties.

    Each of ``n_perm`` rows holds one permutation of the same m values, so
    all have one norm. Each probe row is constant on those m columns plus
    one private column: its cosines with every permutation row are equal
    in exact arithmetic, and their rounded values depend on the order in
    which each product sums its terms.
    """
    rng = np.random.default_rng(0)
    values = rng.uniform(0.5, 1.5, m)
    mat = np.zeros((n_perm + n_probe, m + n_probe))
    for i in range(n_perm):
        mat[i, :m] = rng.permutation(values)
    mat[n_perm:, :m] = 0.5 / math.sqrt(m)
    mat[np.arange(n_perm, n_perm + n_probe), m + np.arange(n_probe)] = math.sqrt(0.75)
    return mat / np.linalg.norm(mat, axis=1)[:, None]


def near_duplicate_rows():
    """4 random directions in d = 5, each repeated 5 times with 1.5e-7 noise.

    All 20 unit rows are distinct, so no block product ties exactly, but
    the k-means++ seeding total can fall below 1e-12; seeding may then
    pick one row twice, and the duplicate seed has to be re-seeded.
    """
    rng = np.random.default_rng(0)
    mat = np.repeat(rng.normal(size=(4, 5)), 5, axis=0) + 1.5e-7 * rng.normal(size=(20, 5))
    return mat / np.linalg.norm(mat, axis=1)[:, None]


class TestLloydOracle:
    """``cluster`` gives the labels and centroids of one full product per step."""

    @pytest.mark.parametrize(
        "case",
        ["below-one-block", "two-blocks", "re-seed", "ties", "k=1", "k=n", "near-duplicates"],
    )
    @pytest.mark.parametrize("sparse", [True, False], ids=["csr", "dense"])
    def test_matches_full_product_loop(self, case, sparse):
        if case == "ties":
            mat, k = tied_rows(), 8
        elif case == "near-duplicates":
            mat = near_duplicate_rows()
        elif case == "two-blocks":
            # 2,500 rows: a 1,024-row block and a 1,476-row block.
            vecs, k = vectorize(synth_docs(2500, 42)), 42
        elif case in ("re-seed", "k=n"):
            # 8 documents with at most 4 distinct rows: duplicate seeds lose
            # their ties and must be re-seeded.
            vecs = vectorize(duplicate_heavy_docs())
            k = 7 if case == "re-seed" else len(vecs)
        else:
            vecs, k = vectorize(synth_docs(300, 7)), 7 if case == "below-one-block" else 1
        if case not in ("ties", "near-duplicates"):
            mat = vecs.rows(0, len(vecs))
        docs = as_docs(mat, sparse)
        ks, seeds = ((6, 8), range(6)) if case == "near-duplicates" else ((k,), (0, 3))
        for k in ks:
            for seed in seeds:
                labels, centroids, _ = lloyd_reference(docs, k, seed)
                model = cluster(docs, k, seed)
                np.testing.assert_array_equal(model.labels, labels)
                np.testing.assert_array_equal(model.centroids, centroids)

    def test_tied_rows_tie_exactly_in_first_step(self):
        # The fixed-order sums of the first step (centroids = seeds) tie
        # exactly on some rows.
        docs = as_docs(tied_rows(), True)
        tied = 0
        for seed in (0, 3):
            _, _, sims = lloyd_reference(docs, 8, seed, max_iters=0)
            best_two = np.sort(sims, axis=1)[:, -2:]
            tied += int((best_two[:, 1] == best_two[:, 0]).sum())
        assert tied > 0


@st.composite
def unit_rows(draw, max_rows=40, max_dim=12):
    """A unit-row matrix; when drawn so, about 60 % of its cells are zero."""
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.normal(size=(n, d))
    if draw(st.booleans()):
        mat *= rng.random((n, d)) < 0.4
        mat[np.arange(n), rng.integers(d, size=n)] = rng.normal(size=n) + 3.0
    return mat / np.linalg.norm(mat, axis=1)[:, None]


@st.composite
def unit_centroids(draw, d):
    """k unit rows; each may copy an earlier one, which makes exact ties."""
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centroids = rng.normal(size=(k, d))
    centroids /= np.linalg.norm(centroids, axis=1)[:, None]
    for j in range(1, k):
        source = draw(st.integers(0, j))
        centroids[j] = centroids[source]
    return centroids


class TestCarriedSims:
    @settings(deadline=None)
    @given(unit_rows(), st.booleans(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_soft_assign_from_carried_sims_matches_fresh_dots(self, mat, sparse, k, seed):
        docs = as_docs(mat, sparse)
        model = cluster(docs, min(k, len(docs)), seed)
        assert model.sims.shape == (model.k, len(docs))
        np.testing.assert_array_equal(
            soft_assign(docs, model, 0.25).matrix,
            soft_assign(docs, replace(model, sims=None), 0.25).matrix,
        )

    def test_carried_sims_of_other_rows_not_used(self):
        vecs = vectorize(two_group_docs())
        model = cluster(vecs, 2, seed=1)
        half = DocMatrix(vecs.post_ids[:8], vecs.terms, vecs.rows(0, 8))
        fresh = soft_assign(half, replace(model, sims=None), 0.25).matrix
        assert same_bits(soft_assign(half, model, 0.25).matrix, fresh)
        assert model.sims is not None  # kept for the rows they came from

    def test_rows_of_the_same_length_take_fresh_dots(self):
        # B = -A has A's length and features but other cosines: A's carried sims must not serve it.
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(20, 5))
        mat /= np.linalg.norm(mat, axis=1)[:, None]
        a = DocMatrix(tuple(f"a{i}" for i in range(20)), (), mat)
        b = DocMatrix(tuple(f"b{i}" for i in range(20)), (), -mat)
        model = cluster(a, 3, seed=0)
        got = soft_assign(b, model, 0.25)
        assert got.post_ids == b.post_ids
        assert same_bits(got.matrix, soft_assign(b, replace(model, sims=None), 0.25).matrix)
        assert not same_bits(got.matrix, soft_assign(a, model, 0.25).matrix)
        assert model.sims is None


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestDocsMajorSims:
    """One docs-major n x k buffer, sparse dots through a column index, and a spent ``sims``."""

    @settings(deadline=None)
    @given(unit_rows(), st.booleans(), st.data())
    def test_cluster_matches_lloyd_reference(self, mat, sparse, data):
        # Copied rows make exact ties, duplicate seeds and re-seeds.
        for i in data.draw(st.lists(st.integers(0, len(mat) - 1), max_size=len(mat))):
            mat[i] = mat[data.draw(st.integers(0, len(mat) - 1))]
        docs = as_docs(mat, sparse)
        k = data.draw(st.integers(1, len(mat)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        labels, centroids, sims = lloyd_reference(docs, k, seed)
        model = cluster(docs, k, seed)
        # Equal values; a zero's sign may differ, since cluster keeps a centroid
        # whose new mean compares equal to it.
        np.testing.assert_array_equal(model.labels, labels)
        np.testing.assert_array_equal(model.centroids, centroids)
        np.testing.assert_array_equal(model.sims, sims.T)

    @settings(deadline=None)
    @given(unit_rows(), st.integers(1, 4), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_sparse_dots_skip_zero_columns_exactly(self, mat, m, share, seed):
        # Rows with negative cells make -0.0 products in the columns a vector skips;
        # vectors run from no or one non-zero column up to every column.
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(m, mat.shape[1])) * (rng.random((m, mat.shape[1])) < share)
        docs = as_docs(mat, sparse=True)
        expected = fixed_order_dots(mat, vectors).T
        assert same_bits(docs.dots(vectors), expected)
        index = docs.column_index()
        for vector, row in zip(vectors, expected):
            assert same_bits(docs.dots(vector, index), row)

    @settings(deadline=None)
    @given(unit_rows(), st.booleans(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_soft_assign_spends_sims_and_a_second_call_gives_the_same_bits(
        self, mat, sparse, k, seed
    ):
        docs = as_docs(mat, sparse)
        model = cluster(docs, min(k, len(docs)), seed)
        first = soft_assign(docs, model, 0.25).matrix
        assert model.sims is None
        assert same_bits(soft_assign(docs, model, 0.25).matrix, first)

    def test_cluster_holds_no_k_by_v_array_beside_the_centroids(self):
        # 150 rows of 12 cells over 40,000 columns: a k x V array dwarfs the rows.
        n, width, n_features, k = 150, 12, 40_000, 20
        rng = np.random.default_rng(0)
        cols = np.concatenate([np.sort(rng.choice(n_features, width, replace=False)) for _ in range(n)])
        cells = rng.random((n, width)) + 0.1
        cells /= np.linalg.norm(cells, axis=1)[:, None]
        indptr = np.arange(0, n * width + 1, width)
        docs = DocMatrix(
            tuple(f"d{i}" for i in range(n)),
            tuple(f"t{j}" for j in range(n_features)),
            csr=(indptr, cols, cells.ravel()),
        )
        tracemalloc.start()
        try:
            model = cluster(docs, k, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = model.centroids.nbytes + model.sims.nbytes + k * n_features * 8 / 2
        assert peak < bound, (peak, bound)

    def test_soft_assign_holds_no_second_copy_of_sims(self):
        vecs = vectorize(synth_docs(3000, 42))
        model = cluster(vecs, 42, seed=1)
        tracemalloc.start()
        try:
            soft_assign(vecs, model, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_copy = len(vecs) * 42 * 8
        assert peak < one_copy / 2, (peak, one_copy)


def top_terms_of(clusters, n_terms):
    """``ctfidf_top_terms`` on documents given as one list per cluster."""
    docs = [d for group in clusters for d in group]
    labels = np.repeat(np.arange(len(clusters)), [len(group) for group in clusters])
    return ctfidf_top_terms(docs, labels, len(clusters), n_terms)


@st.composite
def labelled_docs(draw):
    """Documents over a small vocabulary (some empty) and labels covering every cluster."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 20))
    vocab = st.sampled_from(["a", "b", "ab", "B", "c", "tram", "zeta"])
    token_lists = draw(st.lists(st.lists(vocab, max_size=6), min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = draw(st.permutations(list(range(k)) + extra))
    docs = [doc(f"p{i}", *tokens) for i, tokens in enumerate(token_lists)]
    return docs, np.array(labels), k


class TestCtfidf:
    def test_direct_evaluation(self):
        assert ctfidf_weight(5, 10, 100) == pytest.approx(5 * math.log(11), abs=1e-9)

    def test_zero_cluster_count(self):
        assert ctfidf_weight(0, 10, 100) == 0.0
        assert ctfidf_weight(0, 0, 100) == 0.0

    def test_decreasing_in_global_frequency(self):
        weights = [ctfidf_weight(3, tf_t, 50) for tf_t in (3, 5, 10, 40)]
        assert all(w1 > w2 for w1, w2 in zip(weights, weights[1:]))

    def test_non_negative_and_zero_iff_absent(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            tf_tc = int(rng.integers(0, 20))
            tf_t = tf_tc + int(rng.integers(0, 30))
            avg_words = float(rng.uniform(1, 500))
            if tf_tc == 0:
                assert ctfidf_weight(tf_tc, tf_t, avg_words) == 0.0
            else:
                assert ctfidf_weight(tf_tc, tf_t, avg_words) > 0.0

    def test_top_terms_ranking(self):
        clusters = [
            [doc("a", "tram", "tram", "tram", "bus"), doc("b", "tram", "ticket")],
            [doc("c", "park", "tree", "tram")],
        ]
        (top_a, top_b) = top_terms_of(clusters, 2)
        assert top_a[0][0] == "tram"
        assert all(w > 0 for _, w in top_a + top_b)
        assert [t for t, _ in top_b] == sorted(
            [t for t, _ in top_b],
            key=lambda term: (-dict(top_b)[term], term),
        )

    def test_equal_cluster_count_rarer_global_term_wins(self):
        # "rare" and "dup" both appear twice in cluster 0, but "dup" also
        # appears elsewhere, so its global count is higher.
        clusters = [
            [doc("a", "rare", "rare", "dup", "dup")],
            [doc("b", "dup", "other")],
        ]
        top = top_terms_of(clusters, 3)[0]
        scores = dict(top)
        assert scores["rare"] > scores["dup"]

    def test_lexicographic_tie_break(self):
        clusters = [[doc("a", "zeta", "alpha")], [doc("b", "zeta", "alpha")]]
        top = top_terms_of(clusters, 2)[0]
        assert [t for t, _ in top] == ["alpha", "zeta"]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            top_terms_of([[doc("a", "x")], []], 2)

    @settings(deadline=None)
    @given(labelled_docs(), st.integers(1, 8))
    def test_matches_counter_reference(self, case, n_terms):
        docs, labels, k = case
        grouped = [[d for d, c in zip(docs, labels) if c == kk] for kk in range(k)]
        assert ctfidf_top_terms(docs, labels, k, n_terms) == ctfidf_reference(grouped, n_terms)

    @pytest.mark.parametrize(
        "labels,k,pattern",
        [
            ([0, 1], 2, "2 labels for 3 documents"),
            ([0, 1, 2], 2, r"labels must lie in \[0, 2\)"),
            ([0, -1, 1], 2, r"labels must lie in \[0, 2\)"),
            ([0, 0, 2], 3, "every cluster needs a document"),
        ],
        ids=["wrong-length", "too-large", "negative", "empty-cluster"],
    )
    def test_bad_labels_rejected(self, labels, k, pattern):
        docs = [doc("a", "x"), doc("b", "y"), doc("c", "x", "y")]
        with pytest.raises(ValueError, match=pattern):
            ctfidf_top_terms(docs, np.array(labels), k, 2)

    def test_n_terms_below_one_rejected(self):
        with pytest.raises(ValueError, match="n_terms"):
            ctfidf_top_terms([doc("a", "x")], np.array([0]), 1, 0)


def unit_model(k):
    """Model with axis-aligned unit centroids for closed-form checks."""
    vocab = tuple(f"t{i}" for i in range(k))
    return TopicModel(k=k, vocabulary=vocab, centroids=np.eye(k), labels=np.zeros(0, int))


class TestSoftAssign:
    def test_single_topic_row_is_one(self):
        vecs = vectorize(two_group_docs(2))
        model = cluster(vecs, 1, seed=0)
        dist = soft_assign(vecs, model, 0.25)
        np.testing.assert_allclose(dist.matrix, 1.0)

    def test_equidistant_vector_splits_evenly(self):
        model = unit_model(2)
        h = math.sqrt(0.5)
        dist = soft_assign(DocMatrix(("x",), model.vocabulary, np.array([[h, h]])), model, 0.25)
        np.testing.assert_allclose(dist.matrix[0], [0.5, 0.5], atol=1e-12)

    def test_closed_form_at_temperature_tenth(self):
        model = unit_model(2)
        dist = soft_assign(DocMatrix(("x",), model.vocabulary, np.array([[1.0, 0.0]])), model, 0.1)
        expected = 1.0 / (1.0 + math.exp(-10.0))
        assert dist.matrix[0, 0] == pytest.approx(expected, abs=1e-12)
        assert dist.matrix[0, 1] == pytest.approx(1.0 - expected, abs=1e-12)

    def test_rows_sum_to_one(self):
        vecs = vectorize(two_group_docs())
        model = cluster(vecs, 2, seed=1)
        dist = soft_assign(vecs, model, 0.25)
        np.testing.assert_allclose(dist.matrix.sum(axis=1), 1.0, atol=1e-9)
        assert (dist.matrix >= 0).all()

    def test_low_temperature_approaches_hard_assignment(self):
        vecs = vectorize(two_group_docs())
        model = cluster(vecs, 2, seed=1)
        dist = soft_assign(vecs, model, 0.01)
        hard = dist.matrix.argmax(axis=1)
        for i in range(len(vecs)):
            assert hard[i] == model.labels[i]
            assert dist.matrix[i, hard[i]] > 0.999

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            soft_assign(
                DocMatrix(("x",), ("t0", "t1"), np.array([[1.0, 0.0]])), unit_model(2), 0.0
            )

    @pytest.mark.parametrize(
        # 1e-308: the reciprocal is finite, but 2 / temperature overflows.
        "temperature", [-1.0, math.nan, math.inf, 1e-320, 1e-308]
    )
    def test_non_finite_or_overflowing_temperature_rejected(self, temperature):
        docs = DocMatrix(("x",), ("t0", "t1"), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="temperature"):
            soft_assign(docs, unit_model(2), temperature)

    def test_tiny_accepted_temperature_stays_finite(self):
        # Opposite centroids: the scaled cosines span the full 2 / temperature.
        model = TopicModel(2, ("t0", "t1"), np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(0, int))
        docs = DocMatrix(("x", "y"), model.vocabulary, np.array([[1.0, 0.0], [-1.0, 0.0]]))
        dist = soft_assign(docs, model, 1e-307)
        np.testing.assert_array_equal(dist.matrix, [[1.0, 0.0], [0.0, 1.0]])


def smallest_accepted_temperature():
    """Bisect the bit patterns of the positive floats, which sort as the floats do."""

    def accepted(bits):
        try:
            topics.check_temperature(float(np.int64(bits).view(np.float64)))
        except ValueError:
            return False
        return True

    rejected, admitted = 0, int(np.float64(1.0).view(np.int64))
    while admitted - rejected > 1:
        mid = (rejected + admitted) // 2
        rejected, admitted = (rejected, mid) if accepted(mid) else (mid, admitted)
    return float(np.int64(admitted).view(np.float64))


SMALLEST_TEMPERATURE = smallest_accepted_temperature()


class TestSoftAssignProperties:
    def test_smallest_accepted_temperature_is_the_bound(self):
        with pytest.raises(ValueError, match="temperature"):
            topics.check_temperature(math.nextafter(SMALLEST_TEMPERATURE, 0.0))

    def test_cosine_past_one_at_smallest_temperature(self):
        # A unit row whose rounded cosine with itself exceeds 1 by two ulps,
        # against itself and its opposite: the scaled cosines spread wider
        # than 2 / temperature.
        rows = np.random.default_rng(0).normal(size=(2000, 5))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        past_one = np.nextafter(1.0, 2.0)
        row = next(x for x in rows if (x[None, :] @ np.vstack([x, -x]).T)[0, 0] > past_one)
        docs = DocMatrix(("x",), tuple("abcde"), row[None, :])
        model = TopicModel(2, docs.terms, np.vstack([row, -row]), np.zeros(0, int))
        dist = soft_assign(docs, model, SMALLEST_TEMPERATURE)
        np.testing.assert_array_equal(dist.matrix, [[1.0, 0.0]])

    @settings(deadline=None)
    @given(
        st.data(),
        unit_rows(),
        st.booleans(),
        st.one_of(
            st.just(SMALLEST_TEMPERATURE),
            st.floats(SMALLEST_TEMPERATURE, 1e300, allow_nan=False, allow_infinity=False),
        ),
    )
    def test_rows_finite_and_stochastic_at_every_accepted_temperature(
        self, data, mat, sparse, temperature
    ):
        docs = as_docs(mat, sparse)
        centroids = data.draw(unit_centroids(docs.n_features))
        # Centroids equal and opposite to documents spread the cosines over
        # all of [-1, 1], and past it by the rounding of the unit norms.
        for j in range(len(centroids)):
            sign = data.draw(st.sampled_from([0.0, 1.0, -1.0]))
            if sign:
                centroids[j] = sign * mat[data.draw(st.integers(0, len(mat) - 1))]
        model = TopicModel(len(centroids), docs.terms, centroids, np.zeros(0, int))
        dist = soft_assign(docs, model, temperature).matrix
        assert np.isfinite(dist).all()
        assert (dist >= 0).all()
        np.testing.assert_allclose(dist.sum(axis=1), 1.0, rtol=0, atol=1e-9)


class TestTopicDistribution:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError, match=r"^row for post 'a': probabilities sum to 0\.9, "):
            TopicDistribution(("a",), np.array([[0.5, 0.4]]))

    @pytest.mark.parametrize(
        "row", [[np.nan, 1.0], [np.inf, 0.0], [1e308, 1e308]], ids=["nan", "inf", "overflow"]
    )
    def test_non_finite_row_rejected(self, row):
        with pytest.raises(ValueError, match=r"^row for post 'a': non-finite probability$"):
            TopicDistribution(("a",), np.array([row]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match=r"^row for post 'a': negative probability$"):
            TopicDistribution(("a",), np.array([[1.5, -0.5]]))

    def test_negative_cell_beside_nan_is_negative(self):
        with pytest.raises(ValueError, match=r"^row for post 'b': negative probability$"):
            TopicDistribution(("a", "b"), np.array([[np.nan, 1.0], [1.5, -0.5]]))

    def test_negative_zero_accepted(self):
        assert TopicDistribution(("a",), np.array([[-0.0, 1.0]])).k == 2

    def test_checks_make_no_cell_sized_temporary(self):
        n, k = 1000, 200
        matrix = np.full((n, k), 1.0 / k)
        ids = tuple(f"p{i}" for i in range(n))
        tracemalloc.start()
        try:
            TopicDistribution(ids, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * k // 2, peak  # half of one n x k boolean

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            TopicDistribution(("a", "b"), np.array([[1.0]]))


class TestTopicPrevalence:
    def test_worked_example_column_sums(self):
        matrix = np.array(
            [
                [0.5, 0.3, 0.2],
                [0.3, 0.4, 0.3],
                [0.2, 0.2, 0.6],
            ]
        )
        dist = TopicDistribution(("p1", "p2", "p3"), matrix)
        np.testing.assert_allclose(topic_prevalence(dist), [1.0, 0.9, 1.1], atol=1e-12)

    def test_one_hot_rows_count_cluster_sizes(self):
        matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        dist = TopicDistribution(("a", "b", "c"), matrix)
        np.testing.assert_allclose(topic_prevalence(dist), [2.0, 1.0])

    def test_empty_matrix_all_zeros(self):
        dist = TopicDistribution((), np.zeros((0, 3)))
        np.testing.assert_allclose(topic_prevalence(dist), [0.0, 0.0, 0.0])

    def test_total_mass_equals_row_count(self):
        vecs = vectorize(two_group_docs())
        model = cluster(vecs, 2, seed=9)
        dist = soft_assign(vecs, model, 0.25)
        assert topic_prevalence(dist).sum() == pytest.approx(len(vecs), abs=1e-6)


_ONE_ROW = (np.array([0, 1]), np.array([0]), np.array([1.0]))


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: DocMatrix(("a",), ("t",)), "give either a dense matrix or CSR rows"),
        (
            lambda: DocMatrix(("a",), ("t",), np.ones((1, 1)), _ONE_ROW),
            "give either a dense matrix or CSR rows",
        ),
        (
            lambda: DocMatrix(("a", "b"), (), np.ones((1, 2))),
            "matrix of shape (1, 2) does not hold one row per post id",
        ),
        (
            lambda: DocMatrix(("a",), (), np.ones(2)),
            "matrix of shape (2,) does not hold one row per post id",
        ),
        (
            lambda: DocMatrix(("a", "b"), ("t",), csr=_ONE_ROW),
            "CSR triplets do not hold one row per post id",
        ),
        (lambda: TopicDistribution(("a",), np.ones(1)), "matrix must be two-dimensional"),
        (lambda: ctfidf_weight(1, 0, 2.0), "tf_t must be positive when tf_tc > 0"),
        (
            lambda: soft_assign(
                DocMatrix(("a",), (), np.ones((1, 1))),
                TopicModel(0, (), np.empty((0, 1)), np.zeros(0, int)),
            ),
            "model has no centroids",
        ),
        (
            lambda: soft_assign(
                DocMatrix(("a",), ("t",), csr=_ONE_ROW),
                TopicModel(1, ("u",), np.ones((1, 1)), np.zeros(1, int)),
            ),
            "documents and model have different features",
        ),
        (
            lambda: soft_assign(
                DocMatrix(("a",), (), np.ones((1, 2))),
                TopicModel(1, (), np.ones((1, 3)), np.zeros(1, int)),
            ),
            "documents and model have different features",
        ),
    ],
    ids=[
        "no-rows", "both-rows", "dense-row-count", "dense-one-dimensional", "csr-row-count",
        "distribution-one-dimensional", "tf_t-zero", "no-centroids", "other-features",
        "other-width",
    ],
)
def test_refusals(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


class TestLoadVectors:
    def test_load_and_normalize(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        lines = [
            json.dumps({"id": "a", "vector": [3.0, 4.0]}),
            json.dumps({"id": "b", "vector": [0.0, 2.0]}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        vecs = load_vectors(path)
        assert vecs.post_ids == ("a", "b")
        assert vecs.terms == ()
        assert np.linalg.norm(vecs.matrix[0]) == pytest.approx(1.0, abs=1e-12)
        assert vecs.matrix[0, 0] == pytest.approx(0.6)
        assert vecs.matrix[0, 1] == pytest.approx(0.8)

    def test_negative_components_allowed(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        path.write_text(json.dumps({"id": "a", "vector": [-1.0, 1.0]}) + "\n", encoding="utf-8")
        (row,) = load_vectors(path).matrix
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        path.write_text(
            json.dumps({"id": "a", "vector": [1.0, 0.0]})
            + "\n"
            + json.dumps({"id": "b", "vector": [1.0]})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="line 2"):
            load_vectors(path)

    def test_empty_id_names_line(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        path.write_text(
            json.dumps({"id": "a", "vector": [1.0, 0.0]})
            + "\n"
            + json.dumps({"id": "", "vector": [0.0, 1.0]})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as err:
            load_vectors(path)
        assert str(err.value) == f"{path}, line 2: expected a non-empty 'id' and 'vector'"

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        path.write_text(
            json.dumps({"id": "a", "vector": [1.0, 0.0]})
            + "\n"
            + json.dumps({"id": "a", "vector": [0.0, 1.0]})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="line 2: duplicate id 'a'"):
            load_vectors(path)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        path.write_bytes(b'{"id": "a", "vector": [1.0]}\n{"id": "caf\xff", "vector": [1.0]}\n')
        pattern = r"vecs\.jsonl, line 2: invalid UTF-8 \(byte 0xff"
        with pytest.raises(ValueError, match=pattern) as err:
            load_vectors(path)
        assert not isinstance(err.value, UnicodeDecodeError)

    @pytest.mark.parametrize(
        "line,pattern",
        [
            ("[1, 2]", "line 2: record must be a JSON object"),
            ('{"id": "b", "vector": ["x", 1]}', "line 2: 'vector' must hold numbers only"),
            ('{"id": "b", "vector": [[1, 2]]}', "line 2: 'vector' must hold numbers only"),
            ('{"id": "b", "vector": [true, 1]}', "line 2: 'vector' must hold numbers only"),
            ('{"id": "b", "vector": [1%s, 1]}' % ("0" * 400), "line 2: 'vector' entry too large"),
            (DEEP_NESTING, r"line 2: invalid JSON \("),
            ('{"id": "b", "vector": [1%s, 1]}' % ("0" * 4400), r"line 2: invalid JSON \("),
        ],
        ids=[
            "not-an-object", "string", "nested-list", "boolean", "huge-integer", "deep-nesting",
            "integer-over-digit-limit",
        ],
    )
    def test_malformed_line_names_line(self, tmp_path, line, pattern):
        path = tmp_path / "vecs.jsonl"
        path.write_text('{"id": "a", "vector": [1, 2]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"vecs\.jsonl, {pattern}"):
            load_vectors(path)

    @pytest.mark.parametrize("big", ["1e300", "1" + "0" * 300], ids=["float", "integer"])
    def test_large_components_normalize_like_small_ones(self, tmp_path, big):
        path = tmp_path / "vecs.jsonl"
        path.write_text(
            '{"id": "a", "vector": [%s, %s]}\n{"id": "b", "vector": [1, 1]}\n' % (big, big),
            encoding="utf-8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vecs = load_vectors(path)
        assert vecs.matrix[0].tobytes() == vecs.matrix[1].tobytes()

    @pytest.mark.parametrize(
        "small", ["1e-200", "1e-160"], ids=["squares-vanish", "subnormal-squares"]
    )
    def test_small_components_normalize_like_ordinary_ones(self, tmp_path, small):
        path = tmp_path / "vecs.jsonl"
        path.write_text(
            '{"id": "a", "vector": [%s, %s]}\n{"id": "b", "vector": [1, 1]}\n' % (small, small),
            encoding="utf-8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vecs = load_vectors(path)
        assert vecs.matrix[0].tobytes() == vecs.matrix[1].tobytes()

    @settings(deadline=None, max_examples=200)
    @given(vectors_jsonl_bytes())
    @example(DEEP_NESTING.encode()).via("the deep-nesting case")
    def test_any_file_loads_or_names_line(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz-vectors.jsonl"
        path.write_bytes(data)
        assert_loads_or_names_line(load_vectors, path, ValueError)

    def test_holds_about_one_matrix(self, tmp_path):
        # The rows go into one flat buffer that the matrix views: no second copy.
        n, d = 2000, 384
        path = tmp_path / "vecs.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i, row in enumerate(np.random.default_rng(0).standard_normal((n, d))):
                fh.write(json.dumps({"id": f"p{i}", "vector": row.tolist()}) + "\n")
        tracemalloc.start()
        try:
            vecs = load_vectors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vecs.matrix.shape == (n, d) and vecs.matrix.flags.writeable
        assert peak <= 1.35 * vecs.matrix.nbytes, peak / vecs.matrix.nbytes

    def test_zero_vector_rejected(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        path.write_text(json.dumps({"id": "a", "vector": [0.0, 0.0]}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="norm"):
            load_vectors(path)

    def test_clusters_follow_supplied_vectors(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        rows = []
        for i in range(4):
            rows.append(json.dumps({"id": f"x{i}", "vector": [1.0, 0.05 * i]}))
        for i in range(4):
            rows.append(json.dumps({"id": f"y{i}", "vector": [0.05 * i, 1.0]}))
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        vecs = load_vectors(path)
        cluster_of = cluster_map(cluster(vecs, 2, seed=4), vecs)
        xs = {cluster_of[f"x{i}"] for i in range(4)}
        ys = {cluster_of[f"y{i}"] for i in range(4)}
        assert len(xs) == 1 and len(ys) == 1 and xs != ys
