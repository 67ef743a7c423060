"""Command line entry point."""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from dataclasses import MISSING, fields
from itertools import takewhile
from pathlib import Path

from .corpus import content_lines
from .pipeline import RunConfig, StageError, _stage, emit_report, emit_tfn_svg, run_pipeline

_SETTINGS = {f.metadata["flag"]: f for f in fields(RunConfig)}  # config-file key -> field
_OPTIONS = {"-h", "--help", "--config", *(f"--{flag}" for flag in _SETTINGS)}
_VALUE_FLAGS = {"--config", *(f"--{k}" for k, f in _SETTINGS.items() if f.default is not False)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topicmood",
        description="Aggregate per-topic social media sentiment into fuzzy numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute the full pipeline on a corpus file")
    run.add_argument("--config", help="key=value config file; explicit flags override it")
    for flag, f in _SETTINGS.items():
        text = f.metadata["help"]
        if f.default not in (None, MISSING):
            text += f" (default {f.default})"
        if f.default is False:
            run.add_argument(f"--{flag}", action="store_const", const="true", help=text)
        else:
            metavar = "{" + ",".join(f.metadata["choices"]) + "}" if f.metadata["choices"] else None
            run.add_argument(f"--{flag}", metavar=metavar, help=text)
    return parser


def _read_config_file(path: str) -> dict[str, tuple[str, str]]:
    """Each key's place (file and line) and value text."""
    lines: dict[str, tuple[int, str]] = {}
    for lineno, line in content_lines(path, ValueError):
        if "=" not in line:
            raise ValueError(f"{path}, line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise ValueError(f"{path}, line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ValueError(
                f"{path}, line {lineno}: duplicate key {key!r} (first on line {lines[key][0]})"
            )
        lines[key] = lineno, value.strip()
    return {key: (f"{path}, line {lineno}", text) for key, (lineno, text) in lines.items()}


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Each setting's flag text, else its config-file text, cast and checked in one place."""
    texts = _read_config_file(args.config) if args.config else {}
    values = {}
    for flag, f in _SETTINGS.items():
        if (text := getattr(args, flag.replace("-", "_"))) is not None:
            texts[flag] = f"--{flag}", text
        if flag in texts:
            where, text = texts[flag]
            try:
                values[f.name] = f.metadata["cast"](text)
                if f.metadata["check"]:
                    f.metadata["check"](values[f.name])
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
