"""Output checks computed apart from the program.

Every check compares a report with the generator's truth, with long-hand
recomputation from the generated inputs, or with a property the method
must have. None compares with a saved report. A failed check raises
``CheckError`` naming what disagreed.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np

from gen import Truth

RAMP = 0.2  # the CLI default, which the benchmark does not override
SCALE = 1.0
HALF_ULP6 = 5e-7  # largest error of a value rounded to 6 decimals
SLACK = 1e-9  # summation-order differences between this code and the program


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def possibility_pos(a: float, m: float, b: float) -> float:
    """sup_x min(tfn(x), positive concept(x)) in closed form: b / (p + b - m)."""
    if m >= RAMP:
        return 1.0
    if b <= 0.0:
        return 0.0
    return b / (RAMP + b - m)


def possibility_neg(a: float, m: float, b: float) -> float:
    return possibility_pos(-b, -m, -a)


def long_hand_topic(pairs: list[tuple[float, float]]) -> tuple[float, float, float]:
    """(a, m, b) of one topic from (polarity, combined weight) pairs."""
    total = sum(w for _, w in pairs)
    mean = sum(w * p for p, w in pairs) / total
    active = sum(1 for _, w in pairs if w > 0)
    if active == 1:
        sigma = 0.0
    else:
        num = sum(w * (p - mean) ** 2 for p, w in pairs)
        sigma = math.sqrt(num / (((active - 1) / active) * total))
    return mean - SCALE * sigma, mean, mean + SCALE * sigma


def _close(reported: float, expected: float, what: str) -> None:
    _require(
        abs(reported - expected) <= HALF_ULP6 + SLACK * (1.0 + abs(expected)),
        f"{what}: report has {reported!r}, recomputed {expected!r}",
    )


def _topics_by_id(doc: dict, k: int) -> dict[int, dict]:
    topics = doc["topics"]
    by_id = {t["topic_id"]: t for t in topics}
    _require(len(topics) == k and sorted(by_id) == list(range(k)),
             f"expected topic ids 0..{k - 1}, got {len(topics)} topics")
    # The program sorts on unrounded prevalence, so topics whose rounded
    # prevalences tie may appear in any id order.
    prevalences = [t["prevalence"] for t in topics]
    _require(prevalences == sorted(prevalences, reverse=True),
             "topics are not sorted by descending prevalence")
    return by_id


def check_report(truth: Truth, report: bytes, svg: bytes | None) -> None:
    """Checks that hold for every workload, plus the fixture recomputation."""
    doc = json.loads(report)
    meta = doc["metadata"]
    for key in ("documents_in", "filtered_short", "empty_after_cleaning", "excluded",
                "contributing"):
        expected = getattr(truth, key)
        _require(meta[key] == expected, f"metadata {key} = {meta[key]}, generator says {expected}")
    by_id = _topics_by_id(doc, truth.n_topics)
    topics = list(by_id.values())
    _require(sum(t["doc_count"] for t in topics) == truth.contributing,
             "doc_count does not sum to the contributing documents")

    # Every TFN is symmetric and ordered; positivity and negativity follow
    # from the reported TFN. Rounding a, m, b moves the closed form by at
    # most 2 * HALF_ULP6 / RAMP (its gradient is 1 / (p + b - m) <= 1 / p).
    tol = HALF_ULP6 + 2 * HALF_ULP6 / RAMP
    for t in topics:
        a, m, b = t["tfn"]["a"], t["tfn"]["m"], t["tfn"]["b"]
        tid = t["topic_id"]
        _require(a <= m <= b, f"topic {tid}: TFN ({a}, {m}, {b}) is not ordered")
        _require(abs((m - a) - (b - m)) <= 4 * HALF_ULP6, f"topic {tid}: TFN is not symmetric")
        _require(abs(t["positivity"] - possibility_pos(a, m, b)) <= tol,
                 f"topic {tid}: positivity {t['positivity']} disagrees with b/(p+b-m)")
        _require(abs(t["negativity"] - possibility_neg(a, m, b)) <= tol,
                 f"topic {tid}: negativity {t['negativity']} disagrees with its mirror")

    prevalence = sum(t["prevalence"] for t in topics)
    _require(abs(prevalence - truth.contributing) <= truth.n_topics * HALF_ULP6 + 1e-6,
             f"prevalences sum to {prevalence}, rows are stochastic over "
             f"{truth.contributing} documents")

    if truth.kind == "fixture":
        _check_fixture(truth, by_id)
    else:
        # Unit post weights and stochastic rows: sum_k prevalence_k * m_k
        # equals the sum of the live posts' polarities.
        lhs = sum(t["prevalence"] * t["tfn"]["m"] for t in topics)
        rhs = sum(p for p, s in zip(truth.polarity, truth.status) if s == "live")
        bound = HALF_ULP6 * (prevalence + sum(abs(t["tfn"]["m"]) for t in topics) + 1.0)
        _require(abs(lhs - rhs) <= bound + 1e-9 * len(truth.ids),
                 f"sum of prevalence * m is {lhs!r}, generator's polarity sum is {rhs!r}")

    if svg is not None:
        root = ET.fromstring(svg)
        lines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        _require(len(lines) == truth.n_topics,
                 f"SVG holds {len(lines)} polylines for {truth.n_topics} topics")


def _check_fixture(truth: Truth, by_id: dict[int, dict]) -> None:
    """Recompute every topic from the supplied polarities, weights and matrix."""
    k = truth.n_topics
    pairs: list[list[tuple[float, float]]] = [[] for _ in range(k)]
    prevalence = [0.0] * k
    doc_count = [0] * k
    for i, post_id in enumerate(truth.ids):
        row = truth.dist_rows.get(post_id)
        if row is None:
            continue
        best_topic, best_value = -1, -1.0
        for topic, value in sorted(row):
            pairs[topic].append((truth.polarity[i], value * truth.weight[i]))
            prevalence[topic] += value
            if value > best_value:
                best_topic, best_value = topic, value
        doc_count[best_topic] += 1
    for kk in range(k):
        t = by_id[kk]
        a, m, b = long_hand_topic(pairs[kk])
        _close(t["tfn"]["a"], a, f"topic {kk} tfn.a")
        _close(t["tfn"]["m"], m, f"topic {kk} tfn.m")
        _close(t["tfn"]["b"], b, f"topic {kk} tfn.b")
        _close(t["positivity"], possibility_pos(a, m, b), f"topic {kk} positivity")
        _close(t["negativity"], possibility_neg(a, m, b), f"topic {kk} negativity")
        _close(t["prevalence"], prevalence[kk], f"topic {kk} prevalence")
        _require(t["doc_count"] == doc_count[kk],
                 f"topic {kk} doc_count {t['doc_count']}, argmax count {doc_count[kk]}")


def check_traced(truth: Truth, report: bytes, spans: dict, soft) -> list[str]:
    """Checks on values captured inside the traced run; returns skipped checks."""
    skipped = []
    captured = spans["polarities"]
    if not captured:
        skipped.append("polarity capture (resolve_polarity span absent)")
    for i, post_id in enumerate(truth.ids):
        if truth.status[i] == "short" or not captured:
            continue
        _require(post_id in captured, f"no polarity was computed for post {post_id}")
        _require(abs(captured[post_id] - truth.polarity[i]) <= 1e-12,
                 f"post {post_id}: polarity {captured[post_id]!r}, "
                 f"generator says {truth.polarity[i]!r}")
    if truth.kind == "fixture":
        return skipped
    if soft is None:
        skipped.append("TFNs from soft_assign (span absent)")
        return skipped

    ids, matrix = soft
    index = {post_id: i for i, post_id in enumerate(truth.ids)}
    rows = [index[post_id] for post_id in ids]
    _require(sorted(ids) == sorted(p for p, s in zip(truth.ids, truth.status) if s == "live"),
             "soft_assign rows are not exactly the live posts")
    pol = np.array([truth.polarity[r] for r in rows])
    weights = matrix * np.array([truth.weight[r] for r in rows])[:, None]
    total = weights.sum(axis=0)
    mean = (weights * pol[:, None]).sum(axis=0) / total
    active = (weights > 0).sum(axis=0)
    num = (weights * (pol[:, None] - mean[None, :]) ** 2).sum(axis=0)
    by_id = _topics_by_id(json.loads(report), truth.n_topics)
    for kk in range(truth.n_topics):
        sigma = 0.0 if active[kk] == 1 else math.sqrt(
            num[kk] / (((active[kk] - 1) / active[kk]) * total[kk]))
        a, m, b = mean[kk] - SCALE * sigma, mean[kk], mean[kk] + SCALE * sigma
        t = by_id[kk]
        _close(t["tfn"]["a"], a, f"topic {kk} tfn.a from soft_assign")
        _close(t["tfn"]["m"], m, f"topic {kk} tfn.m from soft_assign")
        _close(t["tfn"]["b"], b, f"topic {kk} tfn.b from soft_assign")
        _close(t["prevalence"], float(matrix[:, kk].sum()), f"topic {kk} prevalence")
    return skipped
