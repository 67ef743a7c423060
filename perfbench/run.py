"""topicmood benchmark: seeded workloads timed through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, traced and not

Run from the repository root. Inputs (PARTS corpora per seed) are generated
before timing starts, under perfbench/work/. The load is a closed loop with
one client: one ``python -m topicmood run`` at a time, started again as soon
as the previous one has exited and its outputs have been checked, in whole
rounds over the corpora until ``--seconds`` have passed.

--trace 0 reports the end-to-end metrics: run_s (median wall time of one
CLI run), peak_rss_mb (median high-water RSS of the CLI process) and
setup_s (median time of a fresh interpreter importing topicmood.cli).
--trace 1 alternates untraced CLI runs with in-process traced runs
(tracer.py) and reports the per-layer metrics. The last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import gen

HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 7
# Each run measures this many corpora of its seed in whole rounds, one CLI
# run per corpus, so that its median does not rest on how fast k-means
# happens to converge on a single input.
PARTS = 3
BLAS_THREADS = "1"

END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "topics.cluster_s": "s",
    "topics.cluster_rss_growth_mb": "MB",
    "topics.soft_assign_s": "s",
    "topics.vectorize_s": "s",
    "topics.ctfidf_top_terms_s": "s",
    "topics.vocab_size": "count",
    "topics.load_vectors_s": "s",
    "fuzzy.aggregate_topic_s": "s",
    "fuzzy.aggregate_topic_calls": "count",
    "pipeline.load_dist_matrix_s": "s",
    "pipeline.run_pipeline_s": "s",
    "pipeline.self_s": "s",
    "pipeline.emit_report_s": "s",
    "svgplot.emit_tfn_svg_s": "s",
    "corpus.load_posts_s": "s",
    "corpus.preprocess_s": "s",
    "corpus.tokens_out": "count",
    "sentiment.resolve_polarity_s": "s",
    "sentiment.computed": "count",
    "trace.overhead_s": "s",
}


class Corpus:
    """One generated input set with its truth and the first report it gave."""

    def __init__(self, work: Path, workload: str, seed: int, part: int):
        self.truth = gen.generate(workload, seed, part, work / f"in{part}")
        self.out = work / f"out{part}"
        self.argv = [*self.truth.argv, "--out", str(self.out)]
        self.reference: tuple[bytes, bytes | None] | None = None
        self.traced_checked = False

    def cli(self) -> list[str]:
        return [sys.executable, "-m", "topicmood", *self.argv]

    def traced_cli(self) -> list[str]:
        return [sys.executable, str(HERE / "tracer.py"), str(self.out), "--", *self.argv]


class Bench:
    """One workload at one seed: generated corpora plus the child environment."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.work = HERE / "work" / f"{workload}-s{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.corpora = [Corpus(self.work, workload, seed, part) for part in range(PARTS)]
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.attempted = 0
        self.failed = 0

    def spawn(self, cmd: list[str]) -> tuple[float, float, int, str]:
        """Run ``cmd`` to its end: (wall s, peak RSS MB, exit code, stderr)."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text("utf-8", "replace")

    def setup_s(self) -> float:
        cmd = [sys.executable, "-c", "import topicmood.cli"]
        times = []
        for _ in range(SETUP_REPEATS):
            wall, _, code, err = self.spawn(cmd)
            if code != 0:
                raise RuntimeError(f"import topicmood.cli failed:\n{err}")
            times.append(wall)
        return statistics.median(times)

    def operation(self, corpus: Corpus, cmd: list[str]) -> tuple[float, float] | None:
        """One CLI run plus its output checks; None when either failed."""
        shutil.rmtree(corpus.out, ignore_errors=True)
        self.attempted += 1
        wall, rss, code, err = self.spawn(cmd)
        try:
            if code != 0:
                raise checks.CheckError(f"exit code {code}: {err.strip()[-500:]}")
            self.check_outputs(corpus)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            print(f"FAILED operation {self.attempted}: {exc}", file=sys.stderr)
            return None
        return wall, rss

    def check_outputs(self, corpus: Corpus) -> None:
        report = (corpus.out / "report.json").read_bytes()
        svg = (corpus.out / "tfns.svg").read_bytes() if "--svg" in corpus.argv else None
        if corpus.reference is None:
            checks.check_report(corpus.truth, report, svg)
            corpus.reference = (report, svg)
        elif report != corpus.reference[0]:
            raise checks.CheckError("report.json differs from the first run's")
        elif svg != corpus.reference[1]:
            raise checks.CheckError("tfns.svg differs from the first run's")

    def check_traced(self, corpus: Corpus) -> list[str]:
        """Checks on the values the last traced run captured; returns skipped ones."""
        spans = json.loads((corpus.out / "spans.json").read_text("utf-8"))
        soft = None
        if (corpus.out / "soft.npy").exists():
            ids = json.loads((corpus.out / "soft_ids.json").read_text("utf-8"))
            soft = (ids, np.load(corpus.out / "soft.npy"))
        report = (corpus.out / "report.json").read_bytes()
        return checks.check_traced(corpus.truth, report, spans, soft)


def run_untraced(bench: Bench, seconds: float) -> dict[str, float]:
    setup = bench.setup_s()
    walls, rss = [], []
    start = time.perf_counter()
    rounds = 0
    # Two rounds at least, so every corpus is run twice and compared.
    while rounds < 2 or time.perf_counter() - start < seconds:
        rounds += 1
        for corpus in bench.corpora:
            result = bench.operation(corpus, corpus.cli())
            if result is not None:
                walls.append(result[0])
                rss.append(result[1])
        if bench.failed == bench.attempted:
            raise RuntimeError("no CLI run succeeded")
    return {
        "run_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": setup,
        "_samples": len(walls),
        "_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3,
    }


def run_traced(bench: Bench, seconds: float) -> tuple[dict[str, float], list[str]]:
    """Rounds of one untraced and one traced run on each corpus in turn."""
    untraced, traced, layers = [], [], []
    notes: set[str] = set()
    start = time.perf_counter()
    rounds = 0
    while rounds < PARTS or time.perf_counter() - start < seconds:
        corpus = bench.corpora[rounds % PARTS]
        rounds += 1
        result = bench.operation(corpus, corpus.cli())
        if result is not None:
            untraced.append(result[0])
        result = bench.operation(corpus, corpus.traced_cli())
        if not (corpus.out / "spans.json").exists():
            continue
        if not corpus.traced_checked:
            # Checked even when the report already failed, so both show.
            try:
                notes.update(f"skipped check: {name}" for name in bench.check_traced(corpus))
                corpus.traced_checked = True
            except checks.CheckError as exc:
                print(f"FAILED traced checks: {exc}", file=sys.stderr)
                if result is not None:
                    bench.failed += 1
                continue
        if result is None:
            continue
        spans = json.loads((corpus.out / "spans.json").read_text("utf-8"))
        traced.append(result[0])
        layers.append(spans["metrics"])
        notes.update(f"absent span: {name}" for name in spans["absent"])
    if not traced or not untraced:
        raise RuntimeError("no traced run succeeded")
    metrics = {
        name: statistics.median(float(m.get(name, 0.0)) for m in layers)
        for name in PER_LAYER_UNITS
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["_samples"] = len(traced)
    return metrics, sorted(notes)


def print_table(workload: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"== {workload} ({metrics['_samples']} samples, medians)")
    if "_quartiles" in metrics:
        q1, _, q3 = metrics["_quartiles"]
        print(f"  run_s quartiles {q1:.4f} .. {q3:.4f} s")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6f} {unit}")


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(root, workload, seed)
    if trace:
        metrics, notes = run_traced(bench, seconds)
        units = PER_LAYER_UNITS
        print_table(workload, metrics, units)
        for note in notes:
            print(f"  ({note})")
    else:
        metrics = run_untraced(bench, seconds)
        units = END_TO_END_UNITS
        print_table(workload, metrics, units)
    print(f"  operations: {bench.attempted} attempted, {bench.failed} failed")
    shutil.rmtree(bench.work, ignore_errors=True)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*gen.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    args = parser.parse_args(argv)

    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "topicmood" / "cli.py").is_file():
        print(f"perfbench: no topicmood sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2

    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    results = {}
    for workload in workloads:
        for trace in modes:
            results[(workload, trace)] = run_one(root, workload, args.seed, args.seconds, trace)
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}/{name}": value
                for (workload, _), r in results.items()
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
