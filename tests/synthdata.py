"""Deterministic synthetic corpora and fixture files for pipeline tests."""

import csv
import json

import numpy as np

# Three disjoint seed vocabularies; the planted words are the only lexicon
# entries and belong to their group's vocabulary.
POS_VOCAB = ("tram", "bus", "timetable", "ticket", "route", "station", "metro", "rail")
NEG_VOCAB = ("park", "tree", "bench", "playground", "garden", "meadow", "flower", "pond")
MIX_VOCAB = ("rent", "apartment", "housing", "tenant", "landlord", "lease", "tower", "block")
POS_PLANTED = ("good", "great")
NEG_PLANTED = ("bad", "terrible")
MIX_PLANTED = ("nice", "poor")

GROUPS = (
    ("pos", POS_VOCAB, POS_PLANTED),
    ("neg", NEG_VOCAB, NEG_PLANTED),
    ("mix", MIX_VOCAB, MIX_PLANTED),
)


def _build_doc(rng, vocab, planted_word, min_chars):
    words = [vocab[int(j)] for j in rng.integers(0, len(vocab), size=9)]
    words.insert(int(rng.integers(0, len(words) + 1)), planted_word)
    text = " ".join(words)
    while len(text) < min_chars:
        text += " " + vocab[int(rng.integers(0, len(vocab)))]
    return text


def three_group_records(n_per_group=20, seed=71, min_chars=60):
    """60 synthetic posts: one positive, one negative, one mixed group."""
    rng = np.random.default_rng(seed)
    records = []
    for name, vocab, planted in GROUPS:
        for i in range(n_per_group):
            text = _build_doc(rng, vocab, planted[i % len(planted)], min_chars)
            records.append({"id": f"{name}{i:03d}", "text": text})
    return records


def many_group_records(n_docs=3000, n_groups=42, seed=9, min_chars=60):
    """Large corpus spread over n_groups disjoint vocabularies."""
    names = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel")
    planted_cycle = ("good", "bad", "nice", "poor", "great", "terrible")
    vocabs = []
    for g in range(n_groups):
        code = chr(97 + g // 26) + chr(97 + g % 26)
        vocabs.append(tuple(code + w for w in names))
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_docs):
        g = i % n_groups
        text = _build_doc(rng, vocabs[g], planted_cycle[g % len(planted_cycle)], min_chars)
        records.append({"id": f"doc{i:05d}", "text": text})
    return records


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


# Worked three-post example: supplied polarities and distribution matrix.
TABLE_POLARITIES = (0.5, 0.35, -0.2)
TABLE_MATRIX = (
    (0.5, 0.3, 0.2),
    (0.3, 0.4, 0.3),
    (0.2, 0.2, 0.6),
)


def write_table_fixture(tmp_path, negate=False):
    """Posts + distribution files for the three-post worked example."""
    posts_path = tmp_path / ("posts_neg.jsonl" if negate else "posts.jsonl")
    texts = (
        "the new tram line makes the commute downtown much faster",
        "station platforms were renovated and feel safer at night",
        "construction noise around the depot has been dragging on",
    )
    records = []
    for i, (pol, text) in enumerate(zip(TABLE_POLARITIES, texts), start=1):
        records.append({"id": f"p{i}", "text": text, "polarity": -pol if negate else pol})
    write_jsonl(posts_path, records)

    matrix_path = tmp_path / "dist.csv"
    with open(matrix_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["post_id", "topic_0", "topic_1", "topic_2"])
        for i, row in enumerate(TABLE_MATRIX, start=1):
            writer.writerow([f"p{i}", *row])
    return posts_path, matrix_path


MAX = float(np.finfo(float).max)
# Post weights near the float limit, for one topic of 1s. Exactly summed, these eight come to
# MAX * (1 + 2**-55), which rounds to MAX, but numpy's pairwise sum passes the float range.
PAST_RANGE_WEIGHTS = tuple(
    MAX * f for f in (2**-55, 0.25, 2**-54, 1 / 16, 1 / 16, 1 / 16, 1 / 16, 0.5 - 2**-54)
)
# These nine stay in range pairwise; the BLAS gemv of several OpenBLAS kernels overflows on them.
IN_RANGE_WEIGHTS = (
    4.4942328371557893e307, 2.4948003869184e291, 2.2471164185778946e307, 4.9896007738368e291,
    4.4942328371557893e307, 2.2471164185778946e307, 0.9999999999999999, 4.4942328371557893e307,
    0.9999999999999999,
)


def write_one_topic_fixture(directory, weights, polarities=(-0.5, 0.5)):
    """Posts of ``weights`` with the ``polarities`` in turn, and a matrix of one topic of 1s.

    The texts are short: run with ``min_chars=1``.
    """
    records = [
        {"id": f"p{i}", "text": f"post {i}", "weight": w, "polarity": polarities[i % len(polarities)]}
        for i, w in enumerate(weights)
    ]
    posts_path = write_jsonl(directory / "one_topic.jsonl", records)
    matrix_path = directory / "one_topic.csv"
    rows = "".join(f"p{i},1\n" for i in range(len(weights)))
    matrix_path.write_text("post_id,t0\n" + rows, encoding="utf-8")
    return posts_path, matrix_path
