"""Seeded input generator for the topicmood benchmark.

``generate(workload, seed, part, out_dir)`` writes every file the program reads
(posts, lexicon, stopwords and, per workload, a distribution matrix or
document vectors) and returns the truth the output checks need: the
expected counts, every post's expected polarity and weight, and its planted
group. The same (workload, seed, part) always gives the same files; a
benchmark run measures several parts of one seed.

The group vocabularies follow ``tests/synthdata.py`` (``many_group_records``):
group g owns eight words made of a two-letter code plus a NATO name, and
each group has one dominant planted sentiment word.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# name -> (kind, posts, topics). Sizes are chosen so one CLI run takes a few
# seconds on a 2-core machine; see README.md for the make-up of each.
WORKLOADS = {
    "tweets-8k-k42": ("tweets", 8_000, 42),
    "topics-4k-k200": ("topics", 4_000, 200),
    "fixture-8k-k200": ("fixture", 8_000, 200),
    "embed-2k-k42": ("embed", 2_000, 42),
}

MIN_CHARS = 60
EMBED_DIM = 384

NAMES = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel")
PLANTED_CYCLE = ("good", "bad", "nice", "poor", "great", "terrible")
# The opposite-leaning word a tweet may carry as its second sentiment hit.
COUNTER_WORD = {
    "good": "poor", "bad": "nice", "nice": "bad",
    "poor": "great", "great": "terrible", "terrible": "good",
}

LEXICON = {
    "good": 0.7, "great": 0.8, "nice": 0.6,
    "bad": -0.7, "terrible": -0.9, "poor": -0.6,
}
NEGATORS = ("not", "never", "no")
INTENSIFIERS = {"very": 1.5, "really": 1.4, "extremely": 1.8, "slightly": 0.6}
STOPWORDS = (
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "has",
    "have", "i", "in", "is", "it", "its", "of", "on", "or", "our", "that", "the",
    "their", "this", "to", "was", "we", "were", "with", "you",
)
PUNCT = ("!", ",", ".", "?", "!!", "...")


@dataclass
class Truth:
    """What the checks compare the program's output against."""

    kind: str
    n_topics: int
    argv: list[str]
    # One entry per post, in file order.
    ids: list[str] = field(default_factory=list)
    status: list[str] = field(default_factory=list)  # live | short | empty | excluded
    group: list[int] = field(default_factory=list)
    polarity: list[float] = field(default_factory=list)  # expected score, 0.0 if not live
    weight: list[float] = field(default_factory=list)
    # Fixture mode: supplied sparse rows, post_id -> [(topic, value), ...].
    dist_rows: dict[str, list[tuple[int, float]]] = field(default_factory=dict)

    @property
    def documents_in(self) -> int:
        return len(self.ids)

    @property
    def filtered_short(self) -> int:
        return self.status.count("short")

    @property
    def empty_after_cleaning(self) -> int:
        return self.status.count("empty")

    @property
    def excluded(self) -> int:
        return self.status.count("excluded")

    @property
    def contributing(self) -> int:
        return self.status.count("live")


def group_vocab(g: int) -> tuple[str, ...]:
    code = chr(97 + g // 26) + chr(97 + g % 26)
    return tuple(code + w for w in NAMES)


def expected_polarity(tokens: list[str]) -> float:
    """Mean of the modified lexicon hits, neg_window=1, clamped to [-1, 1]."""
    hits = []
    for i, tok in enumerate(tokens):
        if tok not in LEXICON:
            continue
        value = LEXICON[tok]
        if i > 0:
            prev = tokens[i - 1]
            if prev in NEGATORS:
                value = -value
            elif prev in INTENSIFIERS:
                value *= INTENSIFIERS[prev]
        hits.append(value)
    if not hits:
        return 0.0
    return min(1.0, max(-1.0, sum(hits) / len(hits)))


def _noise_chunk(rng: random.Random) -> str:
    """A whitespace chunk that preprocessing removes entirely."""
    r = rng.random()
    if r < 0.2:
        return f"https://t.co/{rng.randrange(16**6):06x}"
    if r < 0.35:
        return f"www.city{rng.randrange(100)}.org/news"
    if r < 0.5:
        return f"@user_{rng.randrange(10_000)}"
    if r < 0.65:
        return "#" + rng.choice(NAMES) + str(rng.randrange(100))
    if r < 0.8:
        return rng.choice(("2024", "10:30", "3/4", "+49", "100%", "#1"))
    return rng.choice(STOPWORDS).capitalize() if rng.random() < 0.3 else rng.choice(STOPWORDS)


def _surface(rng: random.Random, token: str) -> str:
    """Mixed case and trailing punctuation that cleaning must strip."""
    r = rng.random()
    if r < 0.15:
        token = token.upper()
    elif r < 0.35:
        token = token.capitalize()
    if rng.random() < 0.15:
        token += rng.choice(PUNCT)
    return token


def _clean_tokens(rng: random.Random, vocab, planted: str, tweet: bool) -> list[str]:
    words = [vocab[rng.randrange(len(vocab))] for _ in range(9)]
    units = [[planted]]
    if tweet and rng.random() < 0.3:
        units.append([COUNTER_WORD[planted]])
    if tweet:
        for unit in units:
            r = rng.random()
            if r < 0.2:
                unit.insert(0, rng.choice(NEGATORS))
            elif r < 0.4:
                unit.insert(0, rng.choice(tuple(INTENSIFIERS)))
    for unit in units:
        pos = rng.randrange(len(words) + 1)
        words[pos:pos] = unit
    return words


def _render(rng: random.Random, tokens: list[str], vocab, tweet: bool) -> str:
    """Raw text whose cleaned token list is exactly ``tokens`` (plus padding)."""
    if not tweet:
        text = " ".join(tokens)
        while len(text) < MIN_CHARS:
            pad = vocab[rng.randrange(len(vocab))]
            tokens.append(pad)
            text += " " + pad
        return text
    chunks = []
    for tok in tokens:
        while rng.random() < 0.25:
            chunks.append(_noise_chunk(rng))
        chunks.append(_surface(rng, tok))
    text = " ".join(chunks)
    while len(text) < MIN_CHARS:
        text += " " + _noise_chunk(rng)
    return text


def _write_lexicon(path: Path) -> None:
    lines = [f"{w}\t{v}" for w, v in LEXICON.items()]
    lines += ["[negators]", *NEGATORS, "[intensifiers]"]
    lines += [f"{w}\t{v}" for w, v in INTENSIFIERS.items()]
    path.write_text("\n".join(lines) + "\n", "utf-8")


def generate(workload: str, seed: int, part: int, out_dir: Path) -> Truth:
    kind, n, k = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{part}")
    out_dir.mkdir(parents=True, exist_ok=True)
    posts_path = out_dir / "posts.jsonl"
    lexicon_path = out_dir / "lexicon.txt"
    stopwords_path = out_dir / "stopwords.txt"
    _write_lexicon(lexicon_path)
    stopwords_path.write_text("\n".join(STOPWORDS) + "\n", "utf-8")

    argv = [
        "run", "--input", str(posts_path), "--lexicon", str(lexicon_path),
        "--stopwords", str(stopwords_path), "--min-chars", str(MIN_CHARS),
        "--seed", "0", "--topics", str(k),
    ]
    truth = Truth(kind, k, argv)
    n_groups = 42 if kind in ("tweets", "embed") else k
    tweet = kind == "tweets"
    fixture = kind == "fixture"

    records = []
    for i in range(n):
        g = i % n_groups
        vocab = group_vocab(g)
        post_id = f"p{i:06d}"
        record = {"id": post_id}
        r = rng.random()
        if r < 0.005:
            status = "short"
            record["text"] = f"{vocab[0]} {PLANTED_CYCLE[g % 6]}"
            tokens: list[str] = []
        elif r < 0.01:
            status = "empty"
            chunks = []
            while len(" ".join(chunks)) < MIN_CHARS:
                chunks.append(_noise_chunk(rng))
            record["text"] = " ".join(chunks)
            tokens = []
        else:
            status = "live"
            tokens = _clean_tokens(rng, vocab, PLANTED_CYCLE[g % 6], tweet)
            record["text"] = _render(rng, tokens, vocab, tweet)
        polarity = expected_polarity(tokens) if status == "live" else 0.0
        weight = 1.0
        if fixture:
            # Supplied polarity and engagement weight bypass the scorer.
            polarity = round(rng.uniform(-1.0, 1.0), 4)
            weight = round(1.0 + rng.paretovariate(2.0), 3)
            record["polarity"] = polarity
            record["weight"] = weight
        truth.ids.append(post_id)
        truth.status.append(status)
        truth.group.append(g)
        truth.polarity.append(polarity)
        truth.weight.append(weight)
        records.append(record)

    with open(posts_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")

    if fixture:
        _write_fixture(rng, truth, out_dir / "dist.csv", k)
        truth.argv += ["--dist-matrix", str(out_dir / "dist.csv")]
    elif kind == "embed":
        _write_vectors([seed, part], truth, out_dir / "vectors.jsonl", n_groups)
        truth.argv += ["--vectors", str(out_dir / "vectors.jsonl")]
    if tweet:
        truth.argv.append("--svg")

    return truth


def _write_fixture(rng: random.Random, truth: Truth, path: Path, k: int) -> None:
    """Sparse stochastic rows: up to three non-zero cells, all others exact 0.

    Every tenth live post has no row and is excluded; rows of short and empty
    posts are present and must be dropped by the program. Topic ``i % k`` is
    always one of a live row's cells, so every topic gets positive weight.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["post_id", *(f"topic_{j}" for j in range(k))])
        for i, post_id in enumerate(truth.ids):
            if truth.status[i] == "live" and i % 10 == 9:
                truth.status[i] = "excluded"
                continue
            topics = [i % k]
            while len(topics) < 1 + rng.randrange(3):
                t = rng.randrange(k)
                if t not in topics:
                    topics.append(t)
            raw = [rng.random() + 0.05 for _ in topics]
            total = sum(raw)
            cells = ["0"] * k
            row = []
            for t, v in zip(topics, raw):
                value = float(repr(v / total))
                cells[t] = repr(value)
                row.append((t, value))
            if truth.status[i] == "live":
                truth.dist_rows[post_id] = row
            writer.writerow([post_id, *cells])


def _write_vectors(seed: list[int], truth: Truth, path: Path, n_groups: int) -> None:
    """Planted clusters: a unit centre per group plus Gaussian noise."""
    gen = np.random.default_rng(seed)
    centres = gen.standard_normal((n_groups, EMBED_DIM))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    noise = gen.standard_normal((len(truth.ids), EMBED_DIM)) * (0.9 / EMBED_DIM**0.5)
    vectors = centres[np.asarray(truth.group)] + noise
    with open(path, "w", encoding="utf-8") as fh:
        for post_id, vec in zip(truth.ids, vectors):
            cells = ",".join(f"{x:.5f}" for x in vec)
            fh.write(f'{{"id": "{post_id}", "vector": [{cells}]}}\n')
