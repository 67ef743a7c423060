"""Run ``topicmood.cli.main(argv)`` in this process with layer spans recorded.

Usage: python perfbench/tracer.py OUT_DIR -- run --input ... (CLI arguments)

Each public layer function is wrapped under the name by which its caller
looks it up (``aggregate_topic`` is wrapped in ``topicmood.pipeline``, where
``run_pipeline`` finds it, not in ``topicmood.fuzzy``). A wrapper adds its
call's duration and a call count to its span, and the duration to its
parent span's child time. A function that no longer exists under that name
is reported absent instead of failing the run.

Writes OUT_DIR/spans.json (per-layer metrics, absent spans, captured
polarities) and, when ``soft_assign`` ran, OUT_DIR/soft.npy plus
OUT_DIR/soft_ids.json. Exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

# span name -> (module the caller looks the function up in, attribute)
SPANS = {
    "pipeline.run_pipeline": ("topicmood.cli", "run_pipeline"),
    "pipeline.emit_report": ("topicmood.cli", "emit_report"),
    "svgplot.emit_tfn_svg": ("topicmood.cli", "emit_tfn_svg"),
    "corpus.load_posts": ("topicmood.corpus", "load_posts"),
    "corpus.preprocess": ("topicmood.corpus", "preprocess"),
    "sentiment.resolve_polarity": ("topicmood.sentiment", "resolve_polarity"),
    "topics.vectorize": ("topicmood.topics", "vectorize"),
    "topics.load_vectors": ("topicmood.topics", "load_vectors"),
    "topics.cluster": ("topicmood.topics", "cluster"),
    "topics.ctfidf_top_terms": ("topicmood.topics", "ctfidf_top_terms"),
    "topics.soft_assign": ("topicmood.topics", "soft_assign"),
    "pipeline.load_dist_matrix": ("topicmood.pipeline", "load_dist_matrix"),
    "fuzzy.aggregate_topic": ("topicmood.pipeline", "aggregate_topic"),
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.total = {name: 0.0 for name in SPANS}
        self.calls = {name: 0 for name in SPANS}
        self.child_time = {name: 0.0 for name in SPANS}
        self.absent: list[str] = []
        self.stack: list[str] = []
        self.counts = {"corpus.tokens_out": 0, "sentiment.computed": 0, "topics.vocab_size": 0}
        self.cluster_rss_growth_mb = 0.0
        self.polarities: dict[str, float] = {}
        self.soft: tuple[list[str], np.ndarray] | None = None

    def install(self) -> None:
        for name, (module_name, attr) in SPANS.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            setattr(module, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            self.stack.append(name)
            rss_before = _maxrss_mb() if name == "topics.cluster" else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.total[name] += elapsed
                self.calls[name] += 1
                if parent is not None:
                    self.child_time[parent] += elapsed
            self._observe(name, result, rss_before)
            return result

        return wrapper

    def _observe(self, name, result, rss_before) -> None:
        """Counts and captured values, taken outside the span's own time."""
        if name == "corpus.preprocess":
            self.counts["corpus.tokens_out"] += len(getattr(result, "tokens", ()))
        elif name == "sentiment.resolve_polarity":
            self.polarities[result.post_id] = result.value
            if result.source == "computed":
                self.counts["sentiment.computed"] += 1
        elif name == "topics.cluster":
            self.cluster_rss_growth_mb += _maxrss_mb() - rss_before
            self.counts["topics.vocab_size"] = len(getattr(result, "vocabulary", ()))
        elif name == "topics.soft_assign":
            self.soft = (list(result.post_ids), np.asarray(result.matrix))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}_s"] = self.total[name]
        out["fuzzy.aggregate_topic_calls"] = self.calls["fuzzy.aggregate_topic"]
        out["pipeline.self_s"] = (
            self.total["pipeline.run_pipeline"] - self.child_time["pipeline.run_pipeline"]
        )
        out["topics.cluster_rss_growth_mb"] = self.cluster_rss_growth_mb
        out.update(self.counts)
        return out

    def dump(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)  # absent when the CLI failed
        document = {
            "metrics": self.metrics(),
            "absent": self.absent,
            "polarities": self.polarities,
        }
        (out_dir / "spans.json").write_text(json.dumps(document), "utf-8")
        if self.soft is not None:
            ids, matrix = self.soft
            np.save(out_dir / "soft.npy", matrix)
            (out_dir / "soft_ids.json").write_text(json.dumps(ids), "utf-8")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT_DIR -- CLI-ARGS...", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    import topicmood.cli as cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(argv[2:])
    tracer.dump(out_dir)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
