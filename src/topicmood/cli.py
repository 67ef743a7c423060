"""Command line entry point."""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from itertools import takewhile
from pathlib import Path
from typing import Callable, NamedTuple

from .corpus import utf8_lines
from .pipeline import RunConfig, StageError, _stage, emit_report, emit_tfn_svg, run_pipeline


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


class _Flag(NamedTuple):
    """One ``run`` option: a command-line flag and the same key in a config file."""

    name: str
    field: str  # RunConfig attribute it sets
    cast: Callable[[str], object]  # parses its text; _parse_bool marks a switch
    help: str
    choices: tuple[str, ...] | None = None


_FLAGS = (
    _Flag("input", "input_path", str, "posts file (jsonl or csv)"),
    _Flag("format", "input_format", str, "input format (default jsonl)", ("jsonl", "csv")),
    _Flag("topics", "n_topics", int, "number of topics K"),
    _Flag("seed", "seed", int, "random seed (default 0)"),
    _Flag("min-chars", "min_chars", int, "minimum raw text length (default 60)"),
    _Flag("scale", "scale", float, "TFN support scaling constant (default 1.0)"),
    _Flag("ramp", "ramp", float, "opinion concept ramp endpoint (default 0.2)"),
    _Flag("temperature", "temperature", float, "soft assignment temperature (default 0.25)"),
    _Flag("n-terms", "n_terms", int, "top terms per topic (default 7)"),
    _Flag("stopwords", "stopwords_path", str, "stopword file (default: bundled English list)"),
    _Flag("lexicon", "lexicon_path", str, "lexicon file (default: bundled miniature lexicon)"),
    _Flag("vectors", "vectors_path", str, "pre-computed document vectors (jsonl)"),
    _Flag("dist-matrix", "dist_matrix_path", str, "supplied topic distribution CSV (fixture mode)"),
    _Flag("out", "out_dir", str, "output directory (default ./out)"),
    _Flag("report", "report_format", str, "report format (default json)", ("json", "csv")),
    _Flag("svg", "emit_svg", _parse_bool, "also emit a TFN plot"),
    _Flag("svg-topics", "svg_topics", _parse_topic_list,
          "comma-separated topic ids to plot (default: all)"),
)
_FLAG_NAMES = {flag.name for flag in _FLAGS}
_OPTIONS = {"-h", "--help", "--config", *(f"--{name}" for name in _FLAG_NAMES)}
_VALUE_FLAGS = {"--config", *(f"--{f.name}" for f in _FLAGS if f.cast is not _parse_bool)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topicmood",
        description="Aggregate per-topic social media sentiment into fuzzy numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute the full pipeline on a corpus file")
    run.add_argument("--config", help="key=value config file; explicit flags override it")
    for flag in _FLAGS:
        if flag.cast is _parse_bool:
            run.add_argument(f"--{flag.name}", action="store_const", const="true", help=flag.help)
        else:
            metavar = "{" + ",".join(flag.choices) + "}" if flag.choices else None
            run.add_argument(f"--{flag.name}", metavar=metavar, help=flag.help)
    return parser


def _read_config_file(path: str) -> dict[str, tuple[str, str]]:
    """Each key's place (file and line) and value text."""
    values: dict[str, tuple[str, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(utf8_lines(fh, ValueError), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}, line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FLAG_NAMES:
                raise ValueError(f"{path}, line {lineno}: unknown key {key!r}")
            values[key] = f"{path}, line {lineno}", value.strip()
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Each setting's flag text, else its config-file text, cast and checked in one place."""
    texts = _read_config_file(args.config) if args.config else {}
    values = {}
    for flag in _FLAGS:
        if (text := getattr(args, flag.name.replace("-", "_"))) is not None:
            texts[flag.name] = f"--{flag.name}", text
        if flag.name in texts:
            where, text = texts[flag.name]
            try:
                values[flag.field] = flag.cast(text)
                if flag.choices and text not in flag.choices:
                    raise ValueError(f"{flag.name} must be {' or '.join(flag.choices)}, got {text!r}")
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    if "input_path" not in values:
        raise ValueError("an input file is required (--input or config file)")
    return RunConfig(**values)


def _option(token: str) -> str:
    """The option argparse reads ``token`` as: itself, or the one option it abbreviates."""
    if token in _OPTIONS or not token.startswith("--"):
        return token
    matches = [option for option in _OPTIONS if option.startswith(token)]
    return matches[0] if len(matches) == 1 else token


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join ``--scale -1e-05`` (or ``--sca -1e-05``) into ``--scale=-1e-05``.

    argparse reads a token that starts with "-" as an option unless it looks
    like ``-1`` or ``-.5``, so ``-1e-05`` or ``-inf`` after a flag that takes
    a value would leave that flag without one.
    """
    out: list[str] = []
    for token in argv:
        flag = _option(out[-1]) if out else ""
        if flag in _VALUE_FLAGS and token.startswith("-") and _option(token) not in _OPTIONS:
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        with _stage("config"):
            config = _build_config(args)
        result = run_pipeline(config)
        with _stage("report"):
            out_dir = Path(config.out_dir)
            made = list(takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
                # The SVG goes first: a bad topic selection then leaves no report.
                if config.emit_svg:
                    svg_path = emit_tfn_svg(
                        result.reports, out_dir / "tfns.svg", config.svg_topics, config.ramp
                    )
                report_path = emit_report(
                    result.reports, config.report_format,
                    out_dir / f"report.{config.report_format}",
                    config=result.config, metadata=result.metadata,
                )
            except Exception:
                for made_dir in made:  # this run's directories, leaf first, if left empty
                    with suppress(OSError):
                        made_dir.rmdir()
                raise
        print(f"wrote {report_path}")
        if config.emit_svg:
            print(f"wrote {svg_path}")

        for r in result.reports:
            terms = ", ".join(term for term, _ in r.top_terms[:3]) or "-"
            print(
                f"topic {r.topic_id}: prevalence={r.prevalence:.3f} "
                f"pos={r.positivity:.3f} neg={r.negativity:.3f} [{terms}]"
            )
        return 0
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
