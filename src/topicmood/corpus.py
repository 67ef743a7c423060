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
_DROPPED_PREFIXES = URL_PREFIXES + ("#", "@")  # URLs, hashtags and usernames

# Everything outside Unicode letter categories (digits and underscore are
# word characters for `re` but not letters).
_NON_LETTER_RE = re.compile(r"[\W\d_]+")


class CorpusError(ValueError):
    """Raised for unreadable or malformed corpus input."""


@dataclass(frozen=True, slots=True)
class Post:
    """One raw ingested record.

    ``weight`` is an optional engagement multiplier (likes, retweets, ...)
    used later as an aggregation weight factor. ``polarity`` is an optional
    pre-computed sentiment score that bypasses the lexicon scorer. Both are
    stored as floats; a value outside their range raises CorpusError.
    """

    id: str
    text: str
    weight: float = 1.0
    polarity: float | None = None

    def __post_init__(self):
        if not self.id:
            raise CorpusError("post id must be non-empty")
        if not 0 < self.weight < math.inf:
            raise CorpusError(f"weight must be finite and > 0, got {self.weight}")
        object.__setattr__(self, "weight", float(self.weight))  # OverflowError past the float range
        if self.polarity is not None:
            if not -1.0 <= self.polarity <= 1.0:
                raise CorpusError(f"polarity must lie in [-1, 1], got {self.polarity}")
            object.__setattr__(self, "polarity", float(self.polarity))


@dataclass(frozen=True, slots=True)
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
    try:
        post_id.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, written as a JSON escape
        raise CorpusError(f"{where}: field 'id' is not valid UTF-8 ({exc.reason})") from None
    text = record.get("text")
    if not isinstance(text, str):
        raise CorpusError(f"{where}: required field 'text' missing or not a string")

    weight, polarity = record.get("weight", 1.0), record.get("polarity")  # null: no polarity
    odd = [isinstance(v, bool) or not isinstance(v, (int, float)) for v in (weight, polarity)]
    if odd[0]:
        raise CorpusError(f"{where}: field 'weight' must be a number")
    try:  # the weight's faults come before a polarity that is not a number
        post = Post(post_id, text, weight, None if odd[1] else polarity)
    except CorpusError as exc:  # a range rule of Post
        raise CorpusError(f"{where}: {exc}") from None
    except OverflowError:  # an integer weight beyond the float range
        raise CorpusError(f"{where}: field 'weight' too large") from None
    if polarity is not None and odd[1]:
        raise CorpusError(f"{where}: field 'polarity' must be a number")
    return post


def open_text(path: str | Path):
    """Open a text input, as every one is opened: UTF-8 after an optional byte-order mark, CR, LF
    and CRLF each ending a line, a bad byte escaped (``surrogateescape``) for :func:`utf8_lines`."""
    return open(path, encoding="utf-8-sig", errors="surrogateescape", newline="")


def utf8_lines(fh, error: type[ValueError] = CorpusError):
    """The lines of a file from :func:`open_text`, each checked as it is read: a byte that is not
    UTF-8 raises ``error``, ``{path}, line N: invalid UTF-8 (byte 0x.., reason)``."""
    for lineno, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:  # an escaped byte: its line, decoded strictly, names it
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    byte = f"byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
                    raise error(f"{fh.name}, line {lineno}: invalid UTF-8 ({byte})") from None
        yield line


def content_lines(path: str | Path, error: type[ValueError] = CorpusError):
    """``(line number, stripped line)`` for each line that is neither blank nor a '#' comment.

    The one reader the config, stopword and lexicon files share; bad UTF-8 raises ``error``.
    """
    with open_text(path) as fh:
        for lineno, raw in enumerate(utf8_lines(fh, error), start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def _iter_jsonl(path: Path, error: type[ValueError] = CorpusError):
    """``(line number, record)`` per non-blank line; a bad line raises ``error``."""
    with open_text(path) as fh:
        for lineno, line in enumerate(utf8_lines(fh, error), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # syntax, over 4,300 digits, deep nesting
                reason = getattr(exc, "msg", exc)  # a JSONDecodeError's, without its position
                raise error(f"{path}, line {lineno}: invalid JSON ({reason})") from exc
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
    with open_text(path) as fh:
        reader = csv.DictReader(utf8_lines(fh))
        try:
            if reader.fieldnames is None:
                return
            missing = ", ".join(sorted({"id", "text"} - set(reader.fieldnames)))
            if missing:
                raise CorpusError(f"{path}, line 1: missing required column(s): {missing}")
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                record: dict = {"id": row.get("id") or "", "text": row.get("text")}
                for name in ("weight", "polarity"):
                    number = _parse_csv_number(row.get(name), name, where)
                    if number is not None:
                        record[name] = number
                yield reader.line_num, record
        except csv.Error as exc:  # DictReader.line_num lags a bad row; its reader's does not
            raise CorpusError(f"{path}, line {reader.reader.line_num}: {exc}") from None


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


def preprocess(post: Post, stopwords: set[str] | frozenset[str], vocab=None) -> CleanDoc:
    """Reduce a post's text to a CleanDoc token list.

    Applies, in order: URL removal (whitespace-delimited chunks starting
    with http://, https:// or www.), removal of whole hashtag (#...) and
    username (@...) tokens, replacement of every non-letter character with
    a space, lowercasing, whitespace tokenization, and stopword removal.
    A post may legitimately reduce to zero tokens. With ``vocab``, one dict
    per run, each token is ``vocab.setdefault(tok, tok)``: held once per run.
    """
    kept = [chunk for chunk in post.text.split() if not chunk.startswith(_DROPPED_PREFIXES)]
    text = _NON_LETTER_RE.sub(" ", " ".join(kept)).lower()
    tokens = [tok for tok in text.split() if tok not in stopwords]
    shared = tokens if vocab is None else map(vocab.setdefault, tokens, tokens)
    return CleanDoc(post_id=post.id, tokens=tuple(shared))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one token per line, '#' lines are comments."""
    return frozenset(word.lower() for _, word in content_lines(path))


def default_stopwords() -> frozenset[str]:
    """Small English stopword list bundled with the package.

    Negation words and intensity adverbs are deliberately absent so the
    sentiment stage still sees them.
    """
    data = resources.files("topicmood.data").joinpath("stopwords_en.txt")
    with resources.as_file(data) as path:
        return load_stopwords(path)
