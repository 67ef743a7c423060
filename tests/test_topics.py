"""Tests for vectorization, clustering, c-TF-IDF and soft assignment."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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

from oracles import dense_tfidf, lloyd_reference
from synthdata import many_group_records


def doc(post_id, *tokens):
    return CleanDoc(post_id, tuple(tokens))


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


class TestCluster:
    def test_k1_centroid_is_normalized_mean(self):
        vecs = vectorize(two_group_docs(3))
        model = cluster(vecs, 1, seed=5)
        assert set(model.cluster_of.values()) == {0}
        mean = vecs.rows(0, len(vecs)).mean(axis=0)
        np.testing.assert_allclose(model.centroids[0], mean / np.linalg.norm(mean), atol=1e-12)

    def test_separates_disjoint_groups(self):
        docs = two_group_docs()
        model = cluster(vectorize(docs), 2, seed=3)
        labels_a = {model.cluster_of[f"a{i}"] for i in range(8)}
        labels_b = {model.cluster_of[f"b{i}"] for i in range(8)}
        assert len(labels_a) == 1 and len(labels_b) == 1
        assert labels_a != labels_b

    def test_deterministic_for_fixed_seed(self):
        vecs = vectorize(two_group_docs())
        m1 = cluster(vecs, 2, seed=11)
        m2 = cluster(vecs, 2, seed=11)
        assert m1.cluster_of == m2.cluster_of
        np.testing.assert_array_equal(m1.centroids, m2.centroids)

    def test_partition_stable_under_document_permutation(self):
        docs = two_group_docs()
        vecs = vectorize(docs)
        base = cluster(vecs, 2, seed=7)
        permuted = DocMatrix(vecs.post_ids[::-1], vecs.terms, vecs.rows(0, len(vecs))[::-1])
        other = cluster(permuted, 2, seed=7)

        def partition(model):
            groups = {}
            for pid, c in model.cluster_of.items():
                groups.setdefault(c, set()).add(pid)
            return {frozenset(g) for g in groups.values()}

        assert partition(base) == partition(other)

    def test_k_bounds(self):
        vecs = vectorize(two_group_docs(2))
        with pytest.raises(ValueError):
            cluster(vecs, 0, seed=1)
        with pytest.raises(ValueError):
            cluster(vecs, len(vecs) + 1, seed=1)

    def test_k_equals_n(self):
        vecs = vectorize([doc("x", "aa"), doc("y", "bb"), doc("z", "cc")])
        model = cluster(vecs, 3, seed=2)
        assert sorted(model.cluster_of.values()) == [0, 1, 2]

    def test_no_cluster_left_empty_on_duplicate_heavy_corpora(self):
        # Duplicates collapse onto one centroid under lowest-index tie
        # breaking; the re-seeding rule must still fill every cluster.
        rng = np.random.default_rng(0)
        docs = [doc(f"e{i}", *(str(t) for t in rng.choice(["aa", "bb"], 3))) for i in range(8)]
        vecs = vectorize(docs)
        for k in (2, 4, 7, 8):
            for seed in range(12):
                model = cluster(vecs, k, seed)
                assert len(set(model.cluster_of.values())) == k, (k, seed)


def synth_docs(n_docs, n_groups):
    stopwords = default_stopwords()
    return [
        preprocess(Post(r["id"], r["text"]), stopwords)
        for r in many_group_records(n_docs, n_groups)
    ]


def duplicate_heavy_docs():
    rng = np.random.default_rng(0)
    return [doc(f"e{i}", *(str(t) for t in rng.choice(["aa", "bb"], 3))) for i in range(8)]


class TestSparseRows:
    """CSR TF-IDF rows give the bytes that the same rows stored dense give."""

    def test_row_blocks(self):
        b = topics._BLOCK_ROWS
        assert topics._row_blocks(0) == [(0, 0)]
        assert topics._row_blocks(b - 1) == [(0, b - 1)]
        assert topics._row_blocks(2 * b - 1) == [(0, 2 * b - 1)]
        assert topics._row_blocks(2 * b) == [(0, b), (b, 2 * b)]
        assert topics._row_blocks(2500) == [(0, b), (b, 2500)]

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

    def test_dots_match_dense_products(self):
        vecs = vectorize(synth_docs(300, 7))
        dense = vecs.rows(0, len(vecs))
        for j in (0, 17, 299):
            np.testing.assert_allclose(vecs.dots(dense[j]), dense @ dense[j], rtol=0, atol=1e-15)

    def test_dots_of_a_stack_match_one_vector_at_a_time(self):
        vecs = vectorize(synth_docs(300, 7))
        dense = vecs.rows(0, len(vecs))
        stack = dense[[0, 17, 299]]
        columns = np.column_stack([vecs.dots(v) for v in stack])
        np.testing.assert_array_equal(vecs.dots(stack), columns)
        as_dense = DocMatrix(vecs.post_ids, vecs.terms, dense)
        np.testing.assert_allclose(as_dense.dots(stack), dense @ stack.T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("case", ["below-one-block", "two-blocks", "re-seed"])
    def test_cluster_and_soft_assign_match_dense_rows(self, case):
        if case == "below-one-block":
            vecs, k = vectorize(synth_docs(300, 7)), 7
        elif case == "two-blocks":
            # 2,500 rows: a 1,024-row block and a 1,476-row block.
            vecs, k = vectorize(synth_docs(2500, 42)), 42
            assert len(topics._row_blocks(len(vecs))) == 2
        else:
            # 8 documents with at most 4 distinct rows: k = 7 seeds a
            # duplicate centroid, which loses its ties and must be re-seeded.
            vecs, k = vectorize(duplicate_heavy_docs()), 7
            assert len(np.unique(vecs.rows(0, len(vecs)), axis=0)) < k
        dense = DocMatrix(vecs.post_ids, vecs.terms, vecs.rows(0, len(vecs)))
        for seed in (0, 3):
            sparse_model = cluster(vecs, k, seed)
            dense_model = cluster(dense, k, seed)
            assert sparse_model.cluster_of == dense_model.cluster_of
            assert len(set(sparse_model.cluster_of.values())) == k
            np.testing.assert_array_equal(sparse_model.centroids, dense_model.centroids)
            np.testing.assert_array_equal(
                soft_assign(vecs, sparse_model, 0.25).matrix,
                soft_assign(dense, dense_model, 0.25).matrix,
            )

    def test_centroids_are_normalized_member_means(self):
        vecs = vectorize(synth_docs(2500, 42))
        model = cluster(vecs, 42, seed=1)
        dense = vecs.rows(0, len(vecs))
        labels = np.array([model.cluster_of[pid] for pid in vecs.post_ids])
        for kk in range(42):
            mean = dense[labels == kk].mean(axis=0)
            np.testing.assert_array_equal(model.centroids[kk], mean / np.linalg.norm(mean))

    def test_no_dense_doc_term_array(self):
        # Dense row blocks stay below 2,048 rows, a small share of 12,000, so
        # the peak stays below the size of one dense n x V array.
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


def labels_of(model, docs):
    return np.array([model.cluster_of[pid] for pid in docs.post_ids])


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
                labels, centroids = lloyd_reference(docs, k, seed)
                model = cluster(docs, k, seed)
                np.testing.assert_array_equal(labels_of(model, docs), labels)
                np.testing.assert_array_equal(model.centroids, centroids)

    def test_tied_rows_tie_exactly_in_first_step(self):
        # The block products of the first step (centroids = seeds) tie
        # exactly on some rows; the screening sums need not.
        docs = as_docs(tied_rows(), True)
        tied = 0
        for seed in (0, 3):
            _, seeds = lloyd_reference(docs, 8, seed, max_iters=0)
            best_two = np.sort(docs.rows(0, len(docs)) @ seeds.T, axis=1)[:, -2:]
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


def block_products(docs, centroids):
    return np.vstack([docs.rows(a, b) @ centroids.T for a, b in topics._row_blocks(len(docs))])


class TestNearest:
    @settings(deadline=None)
    @given(st.data(), unit_rows(), st.booleans())
    def test_screen_within_quarter_tolerance_gives_block_argmax(self, data, mat, sparse):
        docs = as_docs(mat, sparse)
        centroids = data.draw(unit_centroids(docs.n_features))
        exact = block_products(docs, centroids)
        tolerance = 4 * docs.n_features * np.finfo(float).eps
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sims = exact + rng.uniform(-1.0, 1.0, exact.shape) * (tolerance / 4)
        np.testing.assert_array_equal(
            topics._nearest(docs, centroids, sims), exact.argmax(axis=1)
        )


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
        (top_a, top_b) = ctfidf_top_terms(clusters, 2)
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
        top = ctfidf_top_terms(clusters, 3)[0]
        scores = dict(top)
        assert scores["rare"] > scores["dup"]

    def test_lexicographic_tie_break(self):
        clusters = [[doc("a", "zeta", "alpha")], [doc("b", "zeta", "alpha")]]
        top = ctfidf_top_terms(clusters, 2)[0]
        assert [t for t, _ in top] == ["alpha", "zeta"]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ctfidf_top_terms([[doc("a", "x")], []], 2)


def unit_model(k):
    """Model with axis-aligned unit centroids for closed-form checks."""
    vocab = tuple(f"t{i}" for i in range(k))
    return TopicModel(k=k, vocabulary=vocab, centroids=np.eye(k), cluster_of={})


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
        for i, post_id in enumerate(vecs.post_ids):
            assert hard[i] == model.cluster_of[post_id]
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
        model = TopicModel(2, ("t0", "t1"), np.array([[1.0, 0.0], [-1.0, 0.0]]), {})
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
        model = TopicModel(2, docs.terms, np.vstack([row, -row]), {})
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
        model = TopicModel(len(centroids), docs.terms, centroids, {})
        dist = soft_assign(docs, model, temperature).matrix
        assert np.isfinite(dist).all()
        assert (dist >= 0).all()
        np.testing.assert_allclose(dist.sum(axis=1), 1.0, rtol=0, atol=1e-9)


class TestTopicDistribution:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError, match="sums to"):
            TopicDistribution(("a",), np.array([[0.5, 0.4]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TopicDistribution(("a",), np.array([[1.5, -0.5]]))

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
        ],
        ids=["not-an-object", "string", "nested-list", "boolean"],
    )
    def test_malformed_line_names_line(self, tmp_path, line, pattern):
        path = tmp_path / "vecs.jsonl"
        path.write_text('{"id": "a", "vector": [1, 2]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"vecs\.jsonl, {pattern}"):
            load_vectors(path)

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
        model = cluster(vecs, 2, seed=4)
        xs = {model.cluster_of[f"x{i}"] for i in range(4)}
        ys = {model.cluster_of[f"y{i}"] for i in range(4)}
        assert len(xs) == 1 and len(ys) == 1 and xs != ys
