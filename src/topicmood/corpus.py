"""Post ingestion and text preprocessing.

Reads post records from JSON-lines or CSV files and reduces raw text to
lowercase, letter-only, stopword-free token lists.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

__all__ = [
    "Post",
    "CleanDoc",
    "CorpusError",
    "load_posts",
    "filter_short",
    "preprocess",
    "load_stopwords",
    "default_stopwords",
]

URL_PREFIXES = ("http://", "https://", "www.")

# Everything outside Unicode letter categories (digits and underscore are
# word characters for `re` but not letters).
_NON_LETTER_RE = re.compile(r"[\W\d_]+")


class CorpusError(ValueError):
    """Raised for unreadable or malformed corpus input."""


@dataclass(frozen=True)
class Post:
    """One raw ingested record.

    ``weight`` is an optional engagement multiplier (likes, retweets, ...)
    used later as an aggregation weight factor. ``polarity`` is an optional
    pre-computed sentiment score that bypasses the lexicon scorer.
    """

    id: str
    text: str
    weight: float = 1.0
    polarity: float | None = None

    def __post_init__(self):
        if not self.id:
            raise CorpusError("post id must be non-empty")
        if not 0 < self.weight < math.inf:
            raise CorpusError(f"post {self.id!r}: weight must be finite and > 0, got {self.weight}")
        if self.polarity is not None and not -1.0 <= self.polarity <= 1.0:
            raise CorpusError(
                f"post {self.id!r}: polarity must lie in [-1, 1], got {self.polarity}"
            )


@dataclass(frozen=True)
class CleanDoc:
    """Preprocessed document: ordered lowercase letter-only tokens."""

    post_id: str
    tokens: tuple[str, ...] = field(default=())

    @property
    def clean_text(self) -> str:
        return " ".join(self.tokens)

    @property
    def is_empty(self) -> bool:
        return not self.tokens


def _coerce_post(record: dict, where: str) -> Post:
    post_id = record.get("id")
    if not isinstance(post_id, str) or not post_id:
        raise CorpusError(f"{where}: field 'id' must be a non-empty string")
    text = record.get("text")
    if not isinstance(text, str):
        raise CorpusError(f"{where}: required field 'text' missing or not a string")

    weight = record.get("weight", 1.0)
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise CorpusError(f"{where}: field 'weight' must be a number")
    if not 0 < weight < math.inf:
        raise CorpusError(f"{where}: weight must be finite and > 0, got {weight}")

    polarity = record.get("polarity")
    if polarity is not None:
        if isinstance(polarity, bool) or not isinstance(polarity, (int, float)):
            raise CorpusError(f"{where}: field 'polarity' must be a number")
        if not -1.0 <= polarity <= 1.0:
            raise CorpusError(f"{where}: polarity must lie in [-1, 1], got {polarity}")
        polarity = float(polarity)

    return Post(id=post_id, text=text, weight=float(weight), polarity=polarity)


def utf8_lines(fh, error: type[ValueError] = CorpusError):
    """The lines of a file opened as UTF-8 text, in order.

    Invalid UTF-8 raises ``error``: ``{path}, line N: invalid UTF-8 (byte
    0x.., reason)``. A text-mode file decodes ahead of the line being read,
    so the decoder's position does not give the line; only after the read
    has failed is the file decoded once more in full to find it.
    """
    try:
        yield from fh
    except UnicodeDecodeError:
        raw = Path(fh.name).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = raw.count(b"\n", 0, exc.start) + 1
            byte = f"byte 0x{raw[exc.start]:02x}: {exc.reason}"
            raise error(f"{fh.name}, line {lineno}: invalid UTF-8 ({byte})") from None
        raise error(f"{fh.name}: invalid UTF-8") from None


def _iter_jsonl(path: Path, error: type[ValueError] = CorpusError):
    """``(line number, record)`` per non-blank line; a bad line raises ``error``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(utf8_lines(fh, error), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}, line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise error(f"{path}, line {lineno}: record must be a JSON object")
            yield lineno, record


def _parse_csv_number(raw: str | None, name: str, where: str) -> float | None:
    if raw is None or not raw.strip():
        return None
    try:
        return float(raw)
    except ValueError:
        raise CorpusError(f"{where}: field {name!r} is not a number: {raw!r}") from None


def _iter_csv(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(utf8_lines(fh))
        if reader.fieldnames is None:
            return
        missing = {"id", "text"} - set(reader.fieldnames)
        if missing:
            raise CorpusError(f"{path}: missing required column(s): {', '.join(sorted(missing))}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            record: dict = {"id": row.get("id") or "", "text": row.get("text")}
            weight = _parse_csv_number(row.get("weight"), "weight", where)
            if weight is not None:
                record["weight"] = weight
            polarity = _parse_csv_number(row.get("polarity"), "polarity", where)
            if polarity is not None:
                record["polarity"] = polarity
            yield reader.line_num, record


def load_posts(path: str | Path, fmt: str = "jsonl") -> list[Post]:
    """Load posts from a JSON-lines or CSV file, in file order.

    Args:
        path: input file. JSONL: one object per line with fields ``id``,
            ``text`` and optional ``weight`` / ``polarity``. CSV: same
            column names, header row required.
        fmt: "jsonl" or "csv".

    Raises:
        CorpusError: unreadable file, invalid UTF-8 or malformed record
            (both messages carry the line number), duplicate id,
            non-positive weight, or polarity outside [-1, 1].
    """
    path = Path(path)
    if fmt == "jsonl":
        rows = _iter_jsonl(path)
    elif fmt == "csv":
        rows = _iter_csv(path)
    else:
        raise CorpusError(f"unknown input format {fmt!r} (expected 'jsonl' or 'csv')")

    try:
        posts = []
        seen: set[str] = set()
        for lineno, record in rows:
            post = _coerce_post(record, f"{path}, line {lineno}")
            if post.id in seen:
                raise CorpusError(f"{path}, line {lineno}: duplicate post id {post.id!r}")
            seen.add(post.id)
            posts.append(post)
        return posts
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc


def filter_short(posts: list[Post], min_chars: int = 60) -> list[Post]:
    """Drop posts whose raw text is shorter than ``min_chars`` characters.

    The length check runs on the raw ingested text, before any cleaning.
    """
    if min_chars < 1:
        raise ValueError("min_chars must be >= 1")
    return [p for p in posts if len(p.text) >= min_chars]


def preprocess(post: Post, stopwords: set[str] | frozenset[str]) -> CleanDoc:
    """Reduce a post's text to a CleanDoc token list.

    Applies, in order: URL removal (whitespace-delimited chunks starting
    with http://, https:// or www.), removal of whole hashtag (#...) and
    username (@...) tokens, replacement of every non-letter character with
    a space, lowercasing, whitespace tokenization, and stopword removal.
    A post may legitimately reduce to zero tokens.
    """
    kept = [
        chunk
        for chunk in post.text.split()
        if not chunk.startswith(URL_PREFIXES) and not chunk.startswith(("#", "@"))
    ]
    text = _NON_LETTER_RE.sub(" ", " ".join(kept)).lower()
    tokens = tuple(tok for tok in text.split() if tok not in stopwords)
    return CleanDoc(post_id=post.id, tokens=tokens)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one token per line, '#' lines are comments."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in utf8_lines(fh):
            word = line.strip()
            if not word or word.startswith("#"):
                continue
            words.add(word.lower())
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    """Small English stopword list bundled with the package.

    Negation words and intensity adverbs are deliberately absent so the
    sentiment stage still sees them.
    """
    data = resources.files("topicmood.data").joinpath("stopwords_en.txt")
    with resources.as_file(data) as path:
        return load_stopwords(path)
