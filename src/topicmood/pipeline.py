"""End-to-end run orchestration: corpus -> sentiment -> topics -> fuzzy.

A run is a pure function of its input files, configuration and seed; the
emitted reports are byte-reproducible. A fixture mode accepts supplied
polarities plus a supplied topic-distribution matrix and skips sentiment
scoring and topic discovery, which makes small worked examples first-class
regression inputs.

The topic stage has two sources: ``_supplied_topics`` reads a supplied
distribution matrix, ``_clustered_topics`` clusters supplied vectors or the
built-in TF-IDF rows. Both return the TopicDistribution over the
contributing posts, each topic's top terms (empty for a supplied matrix),
an array of each contributing post's hard topic in the distribution's row
order, and the live post ids a supplied file does not cover.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, is_dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from . import corpus as corpus_mod
from . import sentiment as sentiment_mod
from . import topics as topics_mod
from .fuzzy import TFN, aggregate_topic
from .svgplot import emit_tfn_svg

__all__ = [
    "RunConfig",
    "TopicReport",
    "RunResult",
    "StageError",
    "run_pipeline",
    "load_dist_matrix",
    "emit_report",
    "emit_tfn_svg",
]


class StageError(RuntimeError):
    """A module error tagged with the pipeline stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


@dataclass
class RunConfig:
    """Everything a reproducible run depends on besides the input files."""

    input_path: str | Path
    input_format: str = "jsonl"
    n_topics: int | None = None  # may be omitted in fixture mode
    seed: int = 0
    min_chars: int = 60
    temperature: float = 0.25
    scale: float = 1.0
    ramp: float = 0.2
    n_terms: int = 7
    stopwords_path: str | Path | None = None
    lexicon_path: str | Path | None = None
    vectors_path: str | Path | None = None
    dist_matrix_path: str | Path | None = None
    out_dir: str | Path = "out"
    report_format: str = "json"
    emit_svg: bool = False
    svg_topics: tuple[int, ...] | None = None

    def validate(self) -> None:
        if self.input_format not in ("jsonl", "csv"):
            raise ValueError(f"input format must be jsonl or csv, got {self.input_format!r}")
        if self.report_format not in ("json", "csv"):
            raise ValueError(f"report format must be json or csv, got {self.report_format!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.min_chars < 1:
            raise ValueError("min_chars must be >= 1")
        if self.n_topics is None and self.dist_matrix_path is None:
            raise ValueError("a topic count is required unless a distribution matrix is supplied")
        if self.n_topics is not None and self.n_topics < 1:
            raise ValueError("topic count must be >= 1")
        topics_mod.check_temperature(self.temperature)
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")
        if not 0 < self.ramp <= 1:
            raise ValueError("ramp must lie in (0, 1]")
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        if self.vectors_path is not None and self.dist_matrix_path is not None:
            raise ValueError(
                "a supplied distribution matrix bypasses clustering; "
                "it cannot be combined with supplied vectors"
            )

    def echo(self) -> dict:
        """Flat JSON-friendly snapshot of the effective configuration."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith(("_path", "_dir")) and value is not None:
                # A path byte that is not UTF-8 shows as a \xNN escape.
                value = os.fsencode(value).decode("utf-8", "backslashreplace")
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


@dataclass(frozen=True)
class TopicReport:
    """One row of the final decision-support report."""

    topic_id: int
    top_terms: list[tuple[str, float]]
    prevalence: float
    tfn: TFN
    positivity: float
    negativity: float
    doc_count: int


@dataclass
class RunResult:
    reports: list[TopicReport]
    config: dict
    metadata: dict


def load_dist_matrix(path: str | Path) -> topics_mod.TopicDistribution:
    """Read a supplied topic-distribution matrix.

    CSV with a header row: first column ``post_id``, remaining columns one
    per topic. Every row must be a probability vector: non-negative, with
    numpy's pairwise total within 1e-9 of 1, the rule TopicDistribution
    applies. A plain file (no quote, one cell per column on every line) is
    read once, as a stream: ``np.loadtxt`` parses its lines as they are
    checked, into the one array the distribution keeps. Any doubt sends it
    to a per-row loop, which alone raises.
    """
    path = Path(path)
    ids: list[str] = []
    # Invalid UTF-8, a cell loadtxt refuses, a row TopicDistribution refuses: the row loop decides.
    with suppress(OSError, ValueError), np.errstate(all="ignore"):
        with open(path, encoding="utf-8", newline="") as fh:  # CR, LF and CRLF end a line
            header = fh.readline()
            k = header.count(",")
            rows = _plain_lines(chain([header], fh), k, ids)
            # The header is checked as a row. A file without data rows never
            # reaches loadtxt, which would warn.
            if k > 0 and next(rows) and ids == ["post_id"] and (first := next(rows, None)):
                mat = np.loadtxt(
                    chain([first], rows), delimiter=",", comments=None,
                    usecols=range(1, k + 1), ndmin=2,
                )
                post_ids = tuple(ids[1:])
                if "" not in post_ids and len(set(post_ids)) == len(post_ids):
                    return topics_mod.TopicDistribution(post_ids, mat)
    return _dist_matrix_rows(path)


# csv.reader refuses a field over its size limit, and float() refuses the
# \x1c-\x1f that loadtxt strips around a cell.
_DOUBTFUL = '"\0\x1c\x1d\x1e\x1f'


def _plain_lines(lines, k: int, ids: list[str]):
    """The non-blank ``lines`` without their ends; each adds its first cell, stripped, to ``ids``.

    A line with other than ``k`` commas, a character of ``_DOUBTFUL`` or
    more than ``csv.field_size_limit()`` characters raises ValueError.
    """
    limit = csv.field_size_limit()
    for line in lines:
        line = line.rstrip("\r\n")
        if not line:
            continue
        if len(line) > limit or line.count(",") != k or any(map(line.__contains__, _DOUBTFUL)):
            raise ValueError("not a plain line")
        ids.append(line[: line.find(",")].strip())
        yield line


def _dist_matrix_rows(path: Path) -> topics_mod.TopicDistribution:
    """The per-row reader: names the line of the first fault it meets."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(corpus_mod.utf8_lines(fh, ValueError))
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty distribution matrix") from None
        if not header or header[0].strip() != "post_id":
            raise ValueError(f"{path}: first column must be named 'post_id'")
        k = len(header) - 1
        if k < 1:
            raise ValueError(f"{path}: no topic columns")

        ids: list[str] = []
        rows: list[np.ndarray] = []
        seen: set[str] = set()
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != k + 1:
                raise ValueError(f"{path}, line {lineno}: expected {k + 1} columns, got {len(row)}")
            post_id = row[0].strip()
            if not post_id:
                raise ValueError(f"{path}, line {lineno}: empty post_id")
            if post_id in seen:
                raise ValueError(f"{path}, line {lineno}: duplicate post_id {post_id!r}")
            seen.add(post_id)
            try:
                values = np.array([float(cell) for cell in row[1:]])
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: non-numeric probability") from None
            if (values < 0).any():
                raise ValueError(f"{path}, line {lineno}: negative probability")
            with np.errstate(over="ignore"):
                total = float(values.sum())  # TopicDistribution's pairwise total
            if not math.isfinite(total):  # a NaN or inf cell
                raise ValueError(f"{path}, line {lineno}: non-finite probability")
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"{path}, line {lineno}: probabilities sum to {total!r}, expected 1"
                )
            ids.append(post_id)
            rows.append(values)

    return topics_mod.TopicDistribution(tuple(ids), np.array(rows).reshape(len(rows), k))


def _keep_live(supplied, source: str, all_ids: set[str], live_docs):
    """Restrict a supplied per-post matrix to the rows of live documents.

    ``supplied`` is a TopicDistribution or a DocMatrix with a dense
    matrix. The live rows move to the front of that matrix in place, one
    row at a time and in order, and the result holds a view of them, so no
    second array is made; ``supplied`` itself is spent. Returns the restricted matrix and
    the ids of the live documents it does not cover. An id that names no
    input post is an error, and so is a file that covers no live document.
    """
    ids = supplied.post_ids
    unknown = [i for i in ids if i not in all_ids]
    if unknown:
        raise ValueError(f"{source} references unknown post id {unknown[0]!r}")
    live_ids = {d.post_id for d in live_docs}
    keep = [i for i, pid in enumerate(ids) if pid in live_ids]
    if not keep:
        raise ValueError("no documents left for topic modeling")
    matrix = supplied.matrix
    for row, i in enumerate(keep):  # keep ascends, so no live row is overwritten before it moves
        matrix[row] = matrix[i]
    kept = replace(supplied, post_ids=tuple(ids[i] for i in keep), matrix=matrix[: len(keep)])
    covered = set(kept.post_ids)
    return kept, [d.post_id for d in live_docs if d.post_id not in covered]


def _supplied_topics(config: RunConfig, all_ids: set[str], live_docs):
    """Fixture-mode topics: the live rows of a supplied distribution matrix."""
    full_dist = load_dist_matrix(config.dist_matrix_path)
    if config.n_topics is not None and config.n_topics != full_dist.k:
        raise ValueError(
            f"configured topic count {config.n_topics} disagrees with the "
            f"supplied matrix ({full_dist.k} columns)"
        )
    dist, excluded_ids = _keep_live(full_dist, "distribution matrix", all_ids, live_docs)
    return dist, [[] for _ in range(dist.k)], dist.matrix.argmax(axis=1), excluded_ids


def _clustered_topics(config: RunConfig, all_ids: set[str], live_docs):
    """Topics from k-means over supplied vectors or the built-in TF-IDF rows."""
    if config.vectors_path is None:
        rows, excluded_ids = topics_mod.vectorize(live_docs), []
    else:
        rows, excluded_ids = _keep_live(
            topics_mod.load_vectors(config.vectors_path), "vectors file", all_ids, live_docs
        )
    model = topics_mod.cluster(rows, config.n_topics, config.seed)
    doc_of = {doc.post_id: doc for doc in live_docs}
    docs = [doc_of[post_id] for post_id in rows.post_ids]
    top_terms = topics_mod.ctfidf_top_terms(docs, model.labels, model.k, config.n_terms)
    dist = topics_mod.soft_assign(rows, model, config.temperature)
    return dist, top_terms, model.labels, excluded_ids


def run_pipeline(config: RunConfig) -> RunResult:
    """Execute the full pipeline and return prevalence-sorted topic reports.

    Errors raised by individual modules propagate as :class:`StageError`
    tagged with the stage name (config, corpus, sentiment, topics, fuzzy).
    The CLI tags failures to read its config file with config, and
    failures to write the report or the SVG with report.
    """
    with _stage("config"):
        config.validate()

    with _stage("corpus"):
        posts = corpus_mod.load_posts(config.input_path, config.input_format)
        kept = corpus_mod.filter_short(posts, config.min_chars)
        if config.stopwords_path is not None:
            stopwords = corpus_mod.load_stopwords(config.stopwords_path)
        else:
            stopwords = corpus_mod.default_stopwords()
        docs = [corpus_mod.preprocess(p, stopwords) for p in kept]

    empty_ids = [d.post_id for d in docs if d.is_empty]
    live_docs = [d for d in docs if not d.is_empty]

    with _stage("sentiment"):
        if config.lexicon_path is not None:
            lexicon = sentiment_mod.load_lexicon(config.lexicon_path)
        else:
            lexicon = sentiment_mod.default_lexicon()
        scores = [sentiment_mod.resolve_polarity(p, d, lexicon) for p, d in zip(kept, docs)]

    with _stage("topics"):
        if not live_docs:
            raise ValueError("no documents left for topic modeling")
        source = _clustered_topics if config.dist_matrix_path is None else _supplied_topics
        dist, top_terms, hard, excluded_ids = source(config, {p.id for p in posts}, live_docs)
        doc_counts = np.bincount(hard, minlength=dist.k).tolist()

    with _stage("fuzzy"):
        prevalence = topics_mod.topic_prevalence(dist)
        row_of = {p.id: i for i, p in enumerate(kept)}
        take = [row_of[pid] for pid in dist.post_ids]
        polarities = np.array([scores[i].value for i in take], dtype=float)
        post_weights = np.array([kept[i].weight for i in take], dtype=float)
        reports = []
        for kk in range(dist.k):
            try:
                tfn, conf = aggregate_topic(
                    polarities, dist.column(kk), post_weights, scale=config.scale, ramp=config.ramp
                )
            except ValueError as exc:
                raise ValueError(f"topic {kk}: {exc}") from exc
            reports.append(
                TopicReport(
                    topic_id=kk,
                    top_terms=list(top_terms[kk]),
                    prevalence=float(prevalence[kk]),
                    tfn=tfn,
                    positivity=conf.positivity,
                    negativity=conf.negativity,
                    doc_count=doc_counts[kk],
                )
            )
        reports.sort(key=lambda r: (-r.prevalence, r.topic_id))

    source_counts = {sentiment_mod.COMPUTED: 0, sentiment_mod.SUPPLIED: 0}
    for score in scores:
        source_counts[score.source] += 1

    metadata = {
        "mode": "standard" if config.dist_matrix_path is None else "fixture",
        "documents_in": len(posts),
        "filtered_short": len(posts) - len(kept),
        "empty_after_cleaning": len(empty_ids),
        "excluded": len(excluded_ids),
        "contributing": sum(doc_counts),
        "empty_doc_ids": sorted(empty_ids),
        "excluded_doc_ids": sorted(excluded_ids),
        "polarity_sources": source_counts,
        "seed": config.seed,
    }
    return RunResult(reports=reports, config=config.echo(), metadata=metadata)


def _round6(value):
    if isinstance(value, float):
        return round(value, 6)
    if is_dataclass(value):  # fields in declaration order, without asdict's deep copies
        return {f.name: _round6(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def _report_dict(report: TopicReport) -> dict:
    beyond = bool(report.tfn.a < -1.0 or report.tfn.b > 1.0)
    return {**_round6(report), "support_exceeds_polarity_range": beyond}


def emit_report(
    reports: Sequence[TopicReport],
    fmt: str,
    path: str | Path,
    config: dict | None = None,
    metadata: dict | None = None,
) -> Path:
    """Write the topic reports to ``path`` as JSON or CSV.

    The JSON document carries the config echo and run metadata alongside
    the topic array; the CSV holds one row per topic with fixed columns
    (topic_id, top_terms, prevalence, tfn_a, tfn_m, tfn_b, positivity,
    negativity). Numbers are serialized at 6 decimal places. A non-finite
    number or text that is not UTF-8 in a JSON document raises ValueError
    and nothing is written.
    """
    path = Path(path)
    if fmt == "json":
        document = {
            "config": _round6(config or {}),
            "metadata": _round6(metadata or {}),
            "topics": [_report_dict(r) for r in reports],
        }
        # Strict JSON (RFC 8259): a NaN or infinity raises instead of being written.
        text = json.dumps(document, indent=2, ensure_ascii=False, allow_nan=False)
        path.write_bytes((text + "\n").encode("utf-8"))
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["topic_id", "top_terms", "prevalence", "tfn_a", "tfn_m", "tfn_b",
                 "positivity", "negativity"]
            )
            for r in reports:
                numbers = (r.prevalence, r.tfn.a, r.tfn.m, r.tfn.b, r.positivity, r.negativity)
                terms = ";".join(term for term, _ in r.top_terms)
                writer.writerow([r.topic_id, terms, *(f"{x:.6f}" for x in numbers)])
    else:
        raise ValueError(f"unknown report format {fmt!r} (expected 'json' or 'csv')")
    return path
