"""Lexicon-based polarity scoring.

A small self-contained replacement for heavier sentiment backends: word
polarities are looked up in a lexicon, negated or scaled by a negator or
intensifier just before a hit, and averaged into a score in [-1, 1].
Posts that already carry a polarity value bypass the scorer entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .corpus import CleanDoc, Post, content_lines

__all__ = [
    "Lexicon",
    "PolarityScore",
    "LexiconError",
    "load_lexicon",
    "default_lexicon",
    "score_polarity",
    "resolve_polarity",
    "COMPUTED",
    "SUPPLIED",
]

COMPUTED = "computed"
SUPPLIED = "supplied"


class LexiconError(ValueError):
    """Raised for malformed lexicon files."""


def _bad_polarity(value: float) -> str:
    return "" if -1.0 <= value <= 1.0 else f"polarity {value} outside [-1, 1]"


def _bad_multiplier(value: float) -> str:
    return "" if 0 < value < math.inf else f"multiplier must be finite and > 0, got {value}"


# Each numeric section's name for a word and its one rule: why a value breaks it, else "".
_NUMBERS = {"entries": ("entry", _bad_polarity), "intensifiers": ("intensifier", _bad_multiplier)}


@dataclass(frozen=True)
class Lexicon:
    """Word polarities plus negator and intensifier word lists.

    A polarity lies in [-1, 1], a multiplier is finite and > 0, and the three key sets are
    disjoint. A bad number's error names its word: ``entry 'x': polarity 1.5 outside [-1, 1]``.
    """

    entries: Mapping[str, float]
    negators: frozenset[str] = frozenset()
    intensifiers: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        object.__setattr__(self, "negators", frozenset(self.negators))
        object.__setattr__(self, "intensifiers", MappingProxyType(dict(self.intensifiers)))
        for section, (label, fault) in _NUMBERS.items():
            for word, value in getattr(self, section).items():
                if reason := fault(value):
                    raise LexiconError(f"{label} {word!r}: {reason}")
        keys = set(self.entries)
        if keys & self.negators or keys & set(self.intensifiers) or self.negators & set(self.intensifiers):
            raise LexiconError("entries, negators and intensifiers must not share words")


@dataclass(frozen=True)
class PolarityScore:
    """Per-document sentiment in [-1, 1] (Post checks it, the scorer clamps it), with provenance."""

    post_id: str
    value: float
    source: str  # COMPUTED or SUPPLIED

    def __post_init__(self):
        if self.source not in (COMPUTED, SUPPLIED):
            raise ValueError(f"unknown source {self.source!r}")


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a lexicon file.

    Format: one ``word<TAB>polarity`` pair per line; a ``[negators]``
    section lists one word per line; an ``[intensifiers]`` section lists
    ``word<TAB>multiplier`` pairs. Blank lines and '#' comments are
    ignored. A duplicate word is an error, and so is a number that breaks
    Lexicon's rule for its section, whose reason follows ``{path}, line N: ``.
    """
    words: dict[str, dict] = {"entries": {}, "negators": {}, "intensifiers": {}}
    seen: dict[str, int] = {}
    section = "entries"

    for lineno, line in content_lines(path, LexiconError):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in words:
                raise LexiconError(f"{path}, line {lineno}: unknown section [{name}]")
            section = name
            continue

        parts = line.split("\t")
        word = parts[0].strip().lower()  # not empty: the line is stripped
        if word in seen:
            raise LexiconError(
                f"{path}, line {lineno}: duplicate word {word!r} (first on line {seen[word]})"
            )
        seen[word] = lineno

        if section == "negators":
            if len(parts) != 1:
                raise LexiconError(f"{path}, line {lineno}: negator lines carry a single word")
            words[section][word] = None
            continue

        if len(parts) != 2:
            raise LexiconError(f"{path}, line {lineno}: expected 'word<TAB>number'")
        try:
            number = float(parts[1])
        except ValueError:
            raise LexiconError(f"{path}, line {lineno}: not a number: {parts[1]!r}") from None

        if reason := _NUMBERS[section][1](number):
            raise LexiconError(f"{path}, line {lineno}: {reason}")
        words[section][word] = number

    return Lexicon(words["entries"], frozenset(words["negators"]), words["intensifiers"])


def default_lexicon() -> Lexicon:
    """Miniature English lexicon bundled with the package."""
    data = resources.files("topicmood.data").joinpath("lexicon_en.txt")
    with resources.as_file(data) as path:
        return load_lexicon(path)


def score_polarity(doc: CleanDoc, lex: Lexicon) -> PolarityScore:
    """Score a document as the mean of its lexicon hits, clamped to [-1, 1].

    A hit's polarity is negated when the token just before it is a
    negator and multiplied by the multiplier when that token is an
    intensifier. A document without hits scores 0.
    """
    total, n_hits, prev = 0.0, 0, None
    for token in doc.tokens:
        value = lex.entries.get(token)
        if value is not None:
            total += -value if prev in lex.negators else value * lex.intensifiers.get(prev, 1.0)
            n_hits += 1
        prev = token
    if not n_hits:
        return PolarityScore(doc.post_id, 0.0, COMPUTED)
    mean = total / n_hits
    return PolarityScore(doc.post_id, min(1.0, max(-1.0, mean)), COMPUTED)


def resolve_polarity(post: Post, doc: CleanDoc, lex: Lexicon) -> PolarityScore:
    """Use the post's supplied polarity when present, else compute one."""
    if post.polarity is not None:
        return PolarityScore(post.id, post.polarity, SUPPLIED)
    return score_polarity(doc, lex)
