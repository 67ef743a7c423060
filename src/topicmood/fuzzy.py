"""Fuzzy aggregation of weighted polarity samples.

Turns a set of polarity values with membership weights into a symmetric
triangular fuzzy number (TFN) and reduces that TFN to a (positivity,
negativity) tuple via the possibility measure against two piecewise-linear
opinion concepts.

Production aggregation (:func:`aggregate_topic`) runs in numpy.
:class:`WeightedSample`, :func:`weighted_mean` and :func:`weighted_std` are
the exactly rounded (``math.fsum``) references the tests compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "WeightedSample",
    "TFN",
    "OpinionConcept",
    "ConformityTuple",
    "weighted_mean",
    "weighted_std",
    "build_tfn",
    "tfn_membership",
    "possibility",
    "conformity",
    "aggregate_topic",
]

POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass(frozen=True)
class WeightedSample:
    """Polarity values paired with non-negative aggregation weights.

    Weights may be zero for individual entries, but the total weight must
    be strictly positive.
    """

    values: tuple[float, ...]
    weights: tuple[float, ...]

    def __init__(self, values: Iterable[float], weights: Iterable[float]):
        object.__setattr__(self, "values", tuple(float(v) for v in values))
        object.__setattr__(self, "weights", tuple(float(w) for w in weights))
        if len(self.values) != len(self.weights):
            raise ValueError(
                f"values ({len(self.values)}) and weights ({len(self.weights)}) "
                "must have equal length"
            )
        if not self.values:
            raise ValueError("sample must contain at least one value")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if math.fsum(self.weights) <= 0.0:
            raise ValueError("total weight must be strictly positive")

    @property
    def size(self) -> int:
        """Total sample size, zero-weight entries included."""
        return len(self.values)

    @property
    def n_active(self) -> int:
        """Number of entries with strictly positive weight."""
        return sum(1 for w in self.weights if w > 0)


@dataclass(frozen=True)
class TFN:
    """Triangular fuzzy number with support [a, b] and core m.

    Membership rises linearly from 0 at ``a`` to 1 at ``m`` and falls back
    to 0 at ``b``. A degenerate TFN (a == m == b) is the crisp number m.
    """

    a: float
    m: float
    b: float

    def __post_init__(self):
        if not (self.a <= self.m <= self.b):
            raise ValueError(f"TFN requires a <= m <= b, got ({self.a}, {self.m}, {self.b})")

    @property
    def is_degenerate(self) -> bool:
        return self.a == self.m == self.b

    @property
    def support_width(self) -> float:
        return self.b - self.a

    def mirrored(self) -> "TFN":
        """Reflection about zero: (a, m, b) -> (-b, -m, -a)."""
        return TFN(-self.b, -self.m, -self.a)


@dataclass(frozen=True)
class OpinionConcept:
    """Fuzzy set for 'positive opinion' or its mirror image.

    The positive concept is 0 for x <= 0, rises linearly to 1 at x = ramp
    and stays 1 beyond. The negative concept is the reflection about zero.
    """

    kind: str
    ramp: float = 0.2

    def __post_init__(self):
        if self.kind not in (POSITIVE, NEGATIVE):
            raise ValueError(f"kind must be {POSITIVE!r} or {NEGATIVE!r}, got {self.kind!r}")
        if self.ramp <= 0:
            raise ValueError("ramp must be positive")

    @classmethod
    def positive(cls, ramp: float = 0.2) -> "OpinionConcept":
        return cls(POSITIVE, ramp)

    @classmethod
    def negative(cls, ramp: float = 0.2) -> "OpinionConcept":
        return cls(NEGATIVE, ramp)

    def membership(self, x: float) -> float:
        if self.kind == NEGATIVE:
            x = -x
        if x <= 0.0:
            return 0.0
        if x >= self.ramp:
            return 1.0
        return x / self.ramp


class ConformityTuple(NamedTuple):
    """Possibility of a topic's TFN against both opinion concepts."""

    positivity: float
    negativity: float


def weighted_mean(sample: WeightedSample) -> float:
    """Weighted arithmetic mean: sum(w_i * x_i) / sum(w_i)."""
    num = math.fsum(w * x for w, x in zip(sample.weights, sample.values))
    return num / math.fsum(sample.weights)


def weighted_std(sample: WeightedSample) -> float:
    """Weighted standard deviation with an unbiasedness correction.

    Computes sqrt( sum w_i (x_i - x*)^2 / (((M - 1) / M) * sum w_i) ) where
    x* is the weighted mean and M the number of strictly positive weights.
    A sample with M == 1 carries no dispersion and returns 0 by convention
    (the correction factor would otherwise divide by zero).
    """
    m_active = sample.n_active
    if m_active == 1:
        return 0.0
    x_star = weighted_mean(sample)
    num = math.fsum(w * (x - x_star) ** 2 for w, x in zip(sample.weights, sample.values))
    den = ((m_active - 1) / m_active) * math.fsum(sample.weights)
    return math.sqrt(num / den)


def build_tfn(core: float, sigma: float, scale: float = 1.0) -> TFN:
    """Symmetric TFN around ``core`` with support half-width scale * sigma.

    The support is deliberately not clamped to [-1, 1]: the half-width can
    push the endpoints past the polarity range, and the possibility measure
    is well defined on all of the reals.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if scale <= 0:
        raise ValueError("scale must be positive")
    half = scale * sigma
    return TFN(core - half, core, core + half)


def tfn_membership(t: TFN, x: float) -> float:
    """Triangular membership degree of x in t, in [0, 1]."""
    if t.is_degenerate:
        return 1.0 if x == t.m else 0.0
    if x < t.a or x > t.b:
        return 0.0
    if x == t.m:
        return 1.0
    if x < t.m:
        return (x - t.a) / (t.m - t.a) if t.m > t.a else 0.0
    return (t.b - x) / (t.b - t.m) if t.b > t.m else 0.0


def possibility(t: TFN, concept: OpinionConcept) -> float:
    """Possibility measure sup_x min(mu_t(x), mu_concept(x)), in closed form.

    For the positive concept with ramp p the supremum is 1 when the core
    already sits on the plateau (m >= p), 0 when the support ends at or
    below zero (b <= 0), and otherwise the height of the crossing between
    the TFN's descending leg and the concept's rising ramp:

        b / (p + b - m)

    The negative concept is evaluated by mirror symmetry. Degenerate TFNs
    reduce to the concept membership at the core.
    """
    if concept.kind == NEGATIVE:
        return possibility(t.mirrored(), OpinionConcept(POSITIVE, concept.ramp))
    p = concept.ramp
    if t.m >= p:
        return 1.0
    if t.b <= 0.0:
        return 0.0
    return t.b / (p + t.b - t.m)


def conformity(t: TFN, ramp: float = 0.2) -> ConformityTuple:
    """(positivity, negativity) of t against the two opinion concepts."""
    return ConformityTuple(
        positivity=possibility(t, OpinionConcept.positive(ramp)),
        negativity=possibility(t, OpinionConcept.negative(ramp)),
    )


def aggregate_topic(
    polarities: Sequence[float],
    dist_column: Sequence[float],
    post_weights: Sequence[float] | None = None,
    scale: float = 1.0,
    ramp: float = 0.2,
) -> tuple[TFN, ConformityTuple]:
    """Aggregate one topic's polarity sample into a TFN and its conformity.

    The aggregation weight of post i is dist_column[i] * post_weights[i],
    so topic membership and the optional engagement multiplier combine
    multiplicatively. The core is the weighted mean and sigma the corrected
    weighted standard deviation, with the formulas of :func:`weighted_mean`
    and :func:`weighted_std`, computed in numpy; those two functions are the
    exactly rounded references it is tested against. Raises ValueError on
    unequal lengths, an empty sample, a non-finite value or weight, a
    negative weight, or when every combined weight is zero.
    """
    values = np.asarray(polarities, dtype=float)
    weights = np.asarray(dist_column, dtype=float)
    if post_weights is not None:
        engagement = np.asarray(post_weights, dtype=float)
        if len(engagement) != len(weights):
            raise ValueError("post_weights and dist_column must have equal length")
        if not np.isfinite(engagement).all():
            raise ValueError("post_weights must be finite")
    if len(values) != len(weights):
        raise ValueError(
            f"values ({len(values)}) and weights ({len(weights)}) must have equal length"
        )
    if not len(values):
        raise ValueError("sample must contain at least one value")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if post_weights is not None:
        weights = weights * engagement
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if not total > 0.0:
        raise ValueError("total weight must be strictly positive")
    if not np.isfinite(total):
        raise ValueError("total weight must be finite")
    # Elementwise products and numpy's pairwise sum, not a BLAS dot product:
    # a multithreaded dot splits long vectors by thread count, which would
    # make the last bits depend on the machine's BLAS settings.
    core = float((weights * values).sum() / total)
    m_active = np.count_nonzero(weights > 0)
    if m_active == 1:
        sigma = 0.0
    else:
        num = (weights * (values - core) ** 2).sum()
        sigma = float(np.sqrt(num / (((m_active - 1) / m_active) * total)))
    tfn = build_tfn(core, sigma, scale)
    return tfn, conformity(tfn, ramp)
