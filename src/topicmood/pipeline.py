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
each row's hard topic and its position in the kept posts. For either
source the stage then refuses a topic whose cells times the post weights
sum, as the fuzzy stage sums them, to zero or past the float range.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from . import corpus as corpus_mod
from . import sentiment as sentiment_mod
from . import topics as topics_mod
from .fuzzy import TFN, aggregate_topic, check_ramp, check_scale
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


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_topic_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"not a comma-separated topic id list: {text!r}") from None


def _require(ok, message: str):
    """A check that raises ValueError(message.format(value)) unless ``ok(value)``."""
    def check(value) -> None:
        if not ok(value):
            raise ValueError(message.format(value))
    return check


def _at_least(low: int, name: str):
    return _require(lambda value: value >= low, f"{name} must be >= {low}, got {{}}")


def _setting(flag, help, cast=str, default=None, check=None, choices=None):
    """A RunConfig field, declared once: the ``run`` flag ``--flag`` and config-file key ``flag``.

    ``cast`` reads the text of either; a setting that defaults to False is a switch, a flag
    without a value. ``check`` raises ValueError for a value out of range or outside ``choices``.
    """
    if choices:
        check = _require(choices.__contains__, f"{flag} must be {' or '.join(choices)}, got {{!r}}")
    metadata = {"flag": flag, "help": help, "cast": cast, "choices": choices, "check": check}
    return field(default=default, metadata=metadata)


def _file(flag, help, default=None):
    """A file's setting: empty text names no file (``Path("")`` is the working directory)."""
    check = _require(lambda path: path != "", "an empty path names no file")
    return _setting(flag, help, str, default, check)


@dataclass
class RunConfig:
    """Everything a reproducible run depends on besides the input files; see :func:`_setting`."""

    input_path: str | Path = _file("input", "posts file (jsonl or csv)", MISSING)
    input_format: str = _setting("format", "input format", str, "jsonl", choices=("jsonl", "csv"))
    n_topics: int | None = _setting(  # may be omitted in fixture mode
        "topics", "number of topics K", int, None, _at_least(1, "topic count")
    )
    seed: int = _setting("seed", "random seed", int, 0, _at_least(0, "seed"))
    min_chars: int = _setting(
        "min-chars", "minimum raw text length", int, 60, _at_least(1, "min_chars")
    )
    temperature: float = _setting(
        "temperature", "soft assignment temperature", float, 0.25, topics_mod.check_temperature
    )
    scale: float = _setting("scale", "TFN support scaling constant", float, 1.0, check_scale)
    ramp: float = _setting("ramp", "opinion concept ramp endpoint", float, 0.2, check_ramp)
    n_terms: int = _setting("n-terms", "top terms per topic", int, 7, _at_least(1, "n_terms"))
    stopwords_path: str | Path | None = _file("stopwords", "stopword file, else a bundled list")
    lexicon_path: str | Path | None = _file("lexicon", "lexicon file, else a bundled one")
    vectors_path: str | Path | None = _file("vectors", "pre-computed document vectors (jsonl)")
    dist_matrix_path: str | Path | None = _file("dist-matrix", "fixture-mode topic matrix (csv)")
    out_dir: str | Path = _setting("out", "output directory", default="out")
    report_format: str = _setting("report", "report format", str, "json", choices=("json", "csv"))
    emit_svg: bool = _setting("svg", "also emit a TFN plot", _parse_bool, False)
    svg_topics: tuple[int, ...] | None = _setting(
        "svg-topics", "comma-separated topic ids to plot, else all", _parse_topic_list
    )

    def validate(self) -> None:
        for f in fields(self):
            if f.metadata["check"] and (value := getattr(self, f.name)) is not None:
                f.metadata["check"](value)
        if self.n_topics is None and self.dist_matrix_path is None:
            raise ValueError("a topic count is required unless a distribution matrix is supplied")
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

    CSV with a header row: first column ``post_id``, ids as written, then one
    column per topic; a UTF-8 byte-order mark is skipped. Each row must pass
    the one row rule, :func:`topics.improper_row`; the first that fails is
    named by its line. A plain file (no quote, one cell per column on every
    line) is read once, as a stream: ``np.loadtxt`` parses its lines as they
    are checked, into the one array the distribution keeps. Any doubt sends
    the same handle back to the start, to a per-row loop which alone raises;
    a doubtful file that cannot seek, such as a named pipe, is an error.
    """
    path = Path(path)
    ids: list[str] = []
    with corpus_mod.open_text(path) as fh:
        # Bad UTF-8, a cell loadtxt refuses, a row TopicDistribution refuses: the row loop decides.
        with suppress(ValueError), np.errstate(all="ignore"):
            lines = corpus_mod.utf8_lines(fh, ValueError)
            header = next(lines, "")
            k = header.count(",")
            rows = _plain_lines(chain([header], lines), k, ids)
            # The header is checked as a row. A file without data rows never
            # reaches loadtxt, which would warn.
            if k > 0 and next(rows) and ids[0].strip() == "post_id" and (first := next(rows, None)):
                mat = np.loadtxt(
                    chain([first], rows), delimiter=",", comments=None,
                    usecols=range(1, k + 1), ndmin=2,
                )
                post_ids = tuple(ids[1:])
                if "" not in post_ids and len(set(post_ids)) == len(post_ids):
                    return topics_mod.TopicDistribution(post_ids, mat)
        if not fh.seekable():  # a pipe: the lines the bulk pass read are gone
            raise ValueError(f"{path}: not a plain matrix, and cannot be reread row by row")
        fh.seek(0)
        return _dist_matrix_rows(fh)


# csv.reader refuses a field over its size limit, and float() refuses the
# \x1c-\x1f that loadtxt strips around a cell.
_DOUBTFUL = '"\0\x1c\x1d\x1e\x1f'


def _plain_lines(lines, k: int, ids: list[str]):
    """The non-blank ``lines`` without their ends; each adds its first cell, as written, to ``ids``.

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
        ids.append(line[: line.find(",")])
        yield line


def _dist_matrix_rows(fh) -> topics_mod.TopicDistribution:
    """The per-row reader of the open file ``fh``: names the line of the first fault it meets."""
    path = fh.name
    reader = csv.reader(corpus_mod.utf8_lines(fh, ValueError))
    try:
        if (header := next(reader, None)) is None:
            raise ValueError(f"{path}: empty distribution matrix")
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
            post_id = row[0]
            if not post_id:
                raise ValueError(f"{path}, line {lineno}: empty post_id")
            if post_id in seen:
                raise ValueError(f"{path}, line {lineno}: duplicate post_id {post_id!r}")
            seen.add(post_id)
            try:
                values = np.array([float(cell) for cell in row[1:]])
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: non-numeric probability") from None
            if fault := topics_mod.improper_row(values[None]):
                raise ValueError(f"{path}, line {lineno}: {fault[1]}")
            ids.append(post_id)
            rows.append(values)
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return topics_mod.TopicDistribution(tuple(ids), np.array(rows).reshape(len(rows), k))


def _keep_live(supplied, source: str | Path, posts, docs, live):
    """Restrict a supplied per-post matrix to the rows of live documents.

    ``supplied`` is a TopicDistribution or a DocMatrix with a dense matrix, ``live`` the positions
    in ``docs`` of the non-empty documents. The live rows move to the front of that matrix in place,
    one at a time and in order, and the result holds a view of them, so no second array is made;
    ``supplied`` itself is spent. Returns the restricted matrix and, per row, its post's position in
    ``docs``. An id naming none of ``posts`` is an error that names ``source``, the file the
    matrix was read from. A file that covers no live post is an error too.
    """
    ids = supplied.post_ids
    all_ids = {p.id for p in posts}
    unknown = [i for i in ids if i not in all_ids]
    if unknown:
        raise ValueError(f"{source} references unknown post id {unknown[0]!r}")
    position = {docs[i].post_id: i for i in live}
    keep = [i for i, pid in enumerate(ids) if pid in position]
    if not keep:
        raise ValueError("no documents left for topic modeling")
    matrix = supplied.matrix
    for row, i in enumerate(keep):  # keep ascends, so no live row is overwritten before it moves
        matrix[row] = matrix[i]
    kept = replace(supplied, post_ids=tuple(ids[i] for i in keep), matrix=matrix[: len(keep)])
    return kept, [position[pid] for pid in kept.post_ids]


def _supplied_topics(config: RunConfig, posts, docs, live):
    """Fixture-mode topics: the live rows of a supplied distribution matrix."""
    full_dist = load_dist_matrix(config.dist_matrix_path)
    if config.n_topics is not None and config.n_topics != full_dist.k:
        raise ValueError(
            f"configured topic count {config.n_topics} disagrees with the "
            f"supplied matrix ({full_dist.k} columns)"
        )
    dist, rows = _keep_live(full_dist, config.dist_matrix_path, posts, docs, live)
    return dist, [[] for _ in range(dist.k)], dist.matrix.argmax(axis=1), rows


def _clustered_topics(config: RunConfig, posts, docs, live):
    """Topics from k-means over supplied vectors or the built-in TF-IDF rows."""
    if config.vectors_path is None:
        row_docs = [docs[i] for i in live]
        counts = topics_mod._term_counts(row_docs)  # one count for TF-IDF and the top terms
        vectors, rows = topics_mod.vectorize(row_docs, counts), live
    else:
        vectors, rows = _keep_live(
            topics_mod.load_vectors(config.vectors_path), config.vectors_path, posts, docs, live
        )
        row_docs, counts = [docs[i] for i in rows], None
    model = topics_mod.cluster(vectors, config.n_topics, config.seed)
    top_terms = topics_mod.ctfidf_top_terms(row_docs, model.labels, model.k, config.n_terms, counts)
    dist = topics_mod.soft_assign(vectors, model, config.temperature)
    return dist, top_terms, model.labels, rows


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
        vocab: dict[str, str] = {}  # each distinct token held once in the run
        docs = [corpus_mod.preprocess(p, stopwords, vocab) for p in kept]
        weight = np.array([p.weight for p in kept])

    live = [i for i, d in enumerate(docs) if not d.is_empty]

    with _stage("sentiment"):
        if config.lexicon_path is not None:
            lexicon = sentiment_mod.load_lexicon(config.lexicon_path)
        else:
            lexicon = sentiment_mod.default_lexicon()
        resolve = sentiment_mod.resolve_polarity
        polarity = np.array([resolve(p, d, lexicon).value for p, d in zip(kept, docs)])

    with _stage("topics"):
        if not live:
            raise ValueError("no documents left for topic modeling")
        source = _clustered_topics if config.dist_matrix_path is None else _supplied_topics
        dist, top_terms, hard, rows = source(config, posts, docs, live)
        doc_counts = np.bincount(hard, minlength=dist.k).tolist()
        post_weights = weight[rows]
        for topic in range(dist.k):
            with np.errstate(over="ignore"):  # check_sample's sum, bit for bit, on any BLAS
                mass = (dist.column(topic) * post_weights).sum()
            if not 0 < mass < np.inf:
                where = f"topic {topic}"
                if config.dist_matrix_path is not None:  # post_id is column 1
                    where = f"{config.dist_matrix_path}: {where} (column {topic + 2})"
                weighted = " times the post weights" if dist.column(topic).any() else ""
                total = "sums past the float range over" if mass else "is zero on all"
                raise ValueError(f"{where}{weighted} {total} {len(rows)} rows of live posts")

    with _stage("fuzzy"):
        prevalence = topics_mod.topic_prevalence(dist)
        polarities = polarity[rows]
        reports = []
        for kk in range(dist.k):
            try:
                tfn, conf = aggregate_topic(
                    polarities, dist.column(kk), post_weights, scale=config.scale, ramp=config.ramp
                )
            except ValueError as exc:
                raise ValueError(f"topic {kk}: {exc}") from exc
            reports.append(TopicReport(
                topic_id=kk, top_terms=list(top_terms[kk]), prevalence=float(prevalence[kk]),
                tfn=tfn, positivity=conf.positivity, negativity=conf.negativity,
                doc_count=doc_counts[kk],
            ))
        reports.sort(key=lambda r: (-r.prevalence, r.topic_id))

    supplied = sum(p.polarity is not None for p in kept)
    sources = {sentiment_mod.COMPUTED: len(kept) - supplied, sentiment_mod.SUPPLIED: supplied}
    metadata = {
        "mode": "standard" if config.dist_matrix_path is None else "fixture",
        "documents_in": len(posts),
        "filtered_short": len(posts) - len(kept),
        "empty_after_cleaning": len(kept) - len(live),
        "excluded": len(live) - len(rows),
        "contributing": sum(doc_counts),
        "empty_doc_ids": sorted(d.post_id for d in docs if d.is_empty),
        "excluded_doc_ids": sorted(docs[i].post_id for i in set(live).difference(rows)),
        "polarity_sources": sources,
        "seed": config.seed,
    }
    return RunResult(reports=reports, config=config.echo(), metadata=metadata)


def _round6(value):
    if isinstance(value, float):
        return round(value, 6)
    if is_dataclass(value):  # fields in declaration order, without asdict's deep copies
        return {f.name: _round6(getattr(value, f.name)) for f in fields(value)}
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

    The JSON document carries the config echo and run metadata as given,
    alongside the topic array; the CSV holds one row per topic with fixed
    columns (topic_id, top_terms, prevalence, tfn_a, tfn_m, tfn_b, positivity,
    negativity). Topic numbers are serialized at 6 decimal places. A non-finite
    number or text that is not UTF-8 in a JSON document raises ValueError
    and nothing is written.
    """
    path = Path(path)
    if fmt == "json":
        document = {
            "config": config or {},
            "metadata": metadata or {},
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
