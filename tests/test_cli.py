"""Command line interface tests."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topicmood.cli import _build_config, build_parser, main
from topicmood.corpus import load_posts, load_stopwords
from topicmood.pipeline import RunConfig, _parse_bool, _parse_topic_list, load_dist_matrix
from topicmood.sentiment import load_lexicon
from topicmood.topics import load_vectors

from fuzzfiles import dist_matrix_bytes, vectors_jsonl_bytes
from synthdata import (
    IN_RANGE_WEIGHTS,
    PAST_RANGE_WEIGHTS,
    many_group_records,
    three_group_records,
    write_jsonl,
    write_one_topic_fixture,
    write_table_fixture,
)


# The posts of the README quick start.
QUICK_START_POSTS = [
    {"id": "t1", "text": "The new tram line is fantastic, commuting downtown is so much faster "
     "now for everyone"},
    {"id": "t2", "text": "Another delay on the tram line this morning, the timetable is broken "
     "and nobody cares"},
    {"id": "t3", "text": "Love the renovated central park, the playground is clean and the "
     "gardens look beautiful"},
    {"id": "t4", "text": "The park near the station is dirty and feels unsafe after dark, "
     "terrible maintenance"},
    {"id": "t5", "text": "Rents keep climbing while apartment quality gets worse, housing policy "
     "here is a failure"},
    {"id": "t6", "text": "Glad the city approved new affordable housing blocks, a good step for "
     "young tenants"},
]


@pytest.fixture()
def corpus_path(tmp_path):
    return write_jsonl(tmp_path / "posts.jsonl", three_group_records(n_per_group=6))


def run_args(corpus_path, out_dir, *extra):
    return [
        "run", "--input", str(corpus_path), "--topics", "3", "--seed", "5",
        "--out", str(out_dir), *extra,
    ]


class TestRunCommand:
    def test_writes_json_report(self, corpus_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(run_args(corpus_path, out_dir)) == 0
        report = out_dir / "report.json"
        assert report.exists()
        data = json.loads(report.read_text("utf-8"))
        assert len(data["topics"]) == 3
        assert data["config"]["seed"] == 5
        stdout = capsys.readouterr().out
        assert "report.json" in stdout
        assert "topic" in stdout

    def test_csv_report_and_svg(self, corpus_path, tmp_path):
        out_dir = tmp_path / "out"
        code = main(run_args(corpus_path, out_dir, "--report", "csv", "--svg"))
        assert code == 0
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "tfns.svg").exists()

    def test_repeat_runs_are_byte_identical(self, corpus_path, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(run_args(corpus_path, out_dir, "--svg")) == 0
            outputs.append(
                ((out_dir / "report.json").read_bytes(), (out_dir / "tfns.svg").read_bytes())
            )
        report_a = outputs[0][0].replace(bytes(str(tmp_path / "a"), "utf-8"), b"OUT")
        report_b = outputs[1][0].replace(bytes(str(tmp_path / "b"), "utf-8"), b"OUT")
        assert report_a == report_b
        assert outputs[0][1] == outputs[1][1]

    def test_n_terms_beyond_a_c_long_returns_every_term(self, corpus_path, tmp_path):
        reports = {}
        for n_terms in ("1000", "1" + "0" * 20):
            assert main(run_args(corpus_path, tmp_path / "out", "--n-terms", n_terms)) == 0
            reports[n_terms] = json.loads((tmp_path / "out" / "report.json").read_text("utf-8"))
        few, many = reports.values()
        assert many["config"]["n_terms"] == 10**20
        assert {**many, "config": None} == {**few, "config": None}

    def test_svg_topic_selection(self, corpus_path, tmp_path):
        out_dir = tmp_path / "out"
        code = main(run_args(corpus_path, out_dir, "--svg", "--svg-topics", "0,1"))
        assert code == 0
        svg = (out_dir / "tfns.svg").read_text("utf-8")
        assert svg.count("<polyline") == 2

    def test_fixture_mode_flags(self, tmp_path):
        posts_path, matrix_path = write_table_fixture(tmp_path)
        out_dir = tmp_path / "out"
        code = main(
            [
                "run", "--input", str(posts_path), "--dist-matrix", str(matrix_path),
                "--min-chars", "1", "--out", str(out_dir),
            ]
        )
        assert code == 0
        data = json.loads((out_dir / "report.json").read_text("utf-8"))
        assert data["metadata"]["mode"] == "fixture"
        by_id = {t["topic_id"]: t for t in data["topics"]}
        assert by_id[0]["tfn"]["m"] == pytest.approx(0.315, abs=1e-6)

    @pytest.mark.parametrize(
        "rows",
        [
            ["p1,1,0", "p2,1,0", "p3,1,0"],
            ["p1,1,0", "p4,0,1", "p2,1,0", "p3,1,0"],  # p4 is shorter than --min-chars
        ],
        ids=["zero-column", "mass-only-on-short-post"],
    )
    def test_supplied_topic_without_live_mass_fails_in_topics_stage(self, tmp_path, capsys, rows):
        posts_path, _ = write_table_fixture(tmp_path)
        records = [json.loads(line) for line in posts_path.read_text("utf-8").splitlines()]
        posts_path = write_jsonl(tmp_path / "posts.jsonl", [*records, {"id": "p4", "text": "tiny"}])
        matrix_path = tmp_path / "zero.csv"
        matrix_path.write_text("\n".join(["post_id,t0,t1", *rows]) + "\n", encoding="utf-8")
        code = main(
            [
                "run", "--input", str(posts_path), "--dist-matrix", str(matrix_path),
                "--min-chars", "30", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: [topics] {matrix_path}: topic 1 (column 3) "
            "is zero on all 3 rows of live posts\n"
        )
        assert not (tmp_path / "out").exists()

    def test_clustered_topic_without_weighted_mass_fails_in_topics_stage(self, tmp_path, capsys):
        # At this temperature every membership is near 1/3, and 5e-324 / 3 rounds to zero.
        records = [{**post, "weight": 5e-324} for post in QUICK_START_POSTS]
        posts_path = write_jsonl(tmp_path / "posts.jsonl", records)
        code = main(
            [
                "run", "--input", str(posts_path), "--topics", "3", "--min-chars", "40",
                "--seed", "7", "--temperature", "100", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: [topics] topic 0 times the post weights is zero on all 6 rows of live posts\n"
        )
        assert not (tmp_path / "out").exists()

    def test_clustered_topic_whose_weighted_total_overflows_fails_in_topics_stage(
        self, tmp_path, capsys
    ):
        # Six posts of weight 1e308 at memberships near 1/3 sum past the float range; the
        # topics stage refuses that before the fuzzy stage's sum can overflow and warn.
        records = [{**post, "weight": 1e308} for post in QUICK_START_POSTS]
        posts_path = write_jsonl(tmp_path / "posts.jsonl", records)
        code = main(
            [
                "run", "--input", str(posts_path), "--topics", "3", "--min-chars", "40",
                "--seed", "7", "--temperature", "100", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: [topics] topic 0 times the post weights sums past the float range "
            "over 6 rows of live posts\n"
        )
        assert not (tmp_path / "out").exists()

    def test_pairwise_total_past_the_float_range_fails_in_topics_stage(self, tmp_path, capsys):
        # The topics stage sums as the fuzzy stage does, so it refuses the topic before that
        # sum can overflow and warn; a BLAS gemv kept these weights in range and let them on.
        posts_path, matrix_path = write_one_topic_fixture(tmp_path, PAST_RANGE_WEIGHTS)
        code = main(
            [
                "run", "--input", str(posts_path), "--dist-matrix", str(matrix_path),
                "--min-chars", "1", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: [topics] {matrix_path}: topic 0 (column 2) times the post weights "
            "sums past the float range over 8 rows of live posts\n"
        )
        assert not (tmp_path / "out").exists()

    def test_pairwise_total_in_range_runs(self, tmp_path, capsys):
        posts_path, matrix_path = write_one_topic_fixture(tmp_path, IN_RANGE_WEIGHTS)
        code = main(
            [
                "run", "--input", str(posts_path), "--dist-matrix", str(matrix_path),
                "--min-chars", "1", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_infinite_tfn_support_fails_in_fuzzy_stage(self, tmp_path, capsys, fmt):
        # sigma is sqrt(2), and 1.5e308 * sqrt(2) passes the float range.
        posts_path, matrix_path = write_one_topic_fixture(tmp_path, (1.0, 1.0), (1.0, -1.0))
        code = main(
            [
                "run", "--input", str(posts_path), "--dist-matrix", str(matrix_path),
                "--min-chars", "1", "--scale", "1.5e308", "--report", fmt,
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: [fuzzy] topic 0: TFN requires finite a <= m <= b, got (-inf, 0.0, inf)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_missing_input_fails_with_stage_tag(self, tmp_path, capsys):
        code = main(["run", "--input", str(tmp_path / "nope.jsonl"), "--topics", "2"])
        assert code == 1
        assert "[corpus]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--temperature", "nan"),
            ("--temperature", "inf"),
            ("--temperature", "1e-320"),  # 1 / temperature overflows
            ("--scale", "nan"),
            ("--scale", "inf"),
            ("--ramp", "nan"),
        ],
    )
    def test_non_finite_setting_fails_in_config_stage(
        self, corpus_path, tmp_path, capsys, flag, value
    ):
        out_dir = tmp_path / "out"
        assert main(run_args(corpus_path, out_dir, flag, value)) == 1
        err = capsys.readouterr().err
        assert "[config]" in err and flag[2:] in err
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--seed", "-1", "--seed: seed must be >= 0, got -1"),
            ("--scale", "-1e-05", "--scale: scale must be finite and > 0, got -1e-05"),
            # argparse's prefix; the message names the flag it stands for.
            ("--sca", "-1e-05", "--scale: scale must be finite and > 0, got -1e-05"),
            ("--ramp", "-inf", "--ramp: ramp must lie in (0, 1]"),
            (
                "--temperature", "-1E3",
                "--temperature: temperature must be finite and > 0, got -1000.0",
            ),
        ],
        ids=["seed", "scale", "scale-prefix", "ramp", "temperature"],
    )
    def test_negative_setting_fails_in_config_stage(
        self, corpus_path, tmp_path, capsys, flag, value, message
    ):
        # argparse alone would read "-1e-05" or "-inf" as an option, not a value.
        out_dir = tmp_path / "out"
        assert main(run_args(corpus_path, out_dir, flag, value)) == 1
        assert capsys.readouterr().err == f"error: [config] {message}\n"
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("flag", ["input", "stopwords", "lexicon", "vectors", "dist-matrix"])
    def test_empty_path_fails_in_config_stage(self, corpus_path, tmp_path, capsys, flag):
        # Path("") is the working directory, so an empty path would fail in a later stage.
        out_dir = tmp_path / "out"
        assert main([*run_args(corpus_path, out_dir), f"--{flag}", ""]) == 1
        message = "an empty path names no file"
        assert capsys.readouterr().err == f"error: [config] --{flag}: {message}\n"
        config = tmp_path / "run.cfg"
        config.write_text(f"topics=3\n{flag}=\n", encoding="utf-8")
        args = ["run", "--config", str(config), "--out", str(out_dir)]
        args += [] if flag == "input" else ["--input", str(corpus_path)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: [config] {config}, line 2: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "extra,message",
        [
            (("--svg", "--svg-topics", "9"), "unknown topic id 9"),
            (("--svg", "--svg-topics", ""), "no topics selected for the SVG"),
        ],
        ids=["unknown-topic", "empty-selection"],
    )
    def test_bad_svg_selection_fails_in_report_stage(
        self, corpus_path, tmp_path, capsys, extra, message
    ):
        out_dir = tmp_path / "out"
        assert main(run_args(corpus_path, out_dir, *extra)) == 1
        assert capsys.readouterr().err == f"error: [report] {message}\n"
        assert not (out_dir / "report.json").exists()

    def test_failed_report_stage_removes_only_directories_it_made(self, corpus_path, tmp_path):
        bad_selection = ("--svg", "--svg-topics", "9")
        assert main(run_args(corpus_path, tmp_path / "new" / "out", *bad_selection)) == 1
        assert not (tmp_path / "new").exists()
        (tmp_path / "old").mkdir()
        assert main(run_args(corpus_path, tmp_path / "old", *bad_selection)) == 1
        assert (tmp_path / "old").is_dir()

    def test_out_naming_a_file_fails_in_report_stage(self, corpus_path, tmp_path, capsys):
        out_file = tmp_path / "taken"
        out_file.write_text("", encoding="utf-8")
        assert main(run_args(corpus_path, out_file)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [report] ") and err.count("\n") == 1, err
        assert "File exists" in err

    def test_id_not_utf8_fails_in_corpus_stage(self, tmp_path, capsys):
        # A JSON escape writes a lone surrogate; the post cleans to nothing, so
        # its id would reach the report's empty_doc_ids.
        records = three_group_records(n_per_group=6)
        records.append({"id": "\ud800x", "text": "@only #tags https://t.co/x " * 3})
        corpus = write_jsonl(tmp_path / "posts.jsonl", records)
        out_dir = tmp_path / "out"
        assert main(run_args(corpus, out_dir)) == 1
        err = capsys.readouterr().err
        assert "[corpus]" in err and "line 19: field 'id' is not valid UTF-8" in err
        assert not (out_dir / "report.json").exists()

    def test_input_name_not_utf8_is_echoed_escaped(self, corpus_path, tmp_path):
        odd = tmp_path / os.fsdecode(b"b\xff.jsonl")
        odd.write_bytes(corpus_path.read_bytes())
        out_dir = tmp_path / "out"
        assert main(run_args(odd, out_dir)) == 0
        data = json.loads((out_dir / "report.json").read_bytes().decode("utf-8"))
        assert data["config"]["input_path"] == os.path.join(str(tmp_path), "b\\xff.jsonl")

    def test_missing_topics_fails_in_config_stage(self, corpus_path, capsys):
        code = main(["run", "--input", str(corpus_path)])
        assert code == 1
        assert "[config]" in capsys.readouterr().err


class TestConfigFile:
    def test_file_supplies_values(self, corpus_path, tmp_path):
        out_dir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"# demo config\ninput={corpus_path}\ntopics=3\nseed=7\nout={out_dir}\nsvg=true\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg)]) == 0
        data = json.loads((out_dir / "report.json").read_text("utf-8"))
        assert data["config"]["seed"] == 7
        assert (out_dir / "tfns.svg").exists()

    def test_flags_override_file(self, corpus_path, tmp_path):
        out_dir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={corpus_path}\ntopics=3\nseed=7\n", encoding="utf-8")
        code = main(["run", "--config", str(cfg), "--seed", "9", "--out", str(out_dir)])
        assert code == 0
        data = json.loads((out_dir / "report.json").read_text("utf-8"))
        assert data["config"]["seed"] == 9

    @pytest.mark.parametrize(
        "text,message",
        [
            ("topics 3\n", "{config}, line 1: expected key=value"),
            ("topics = 3\n", "an input file is required (--input or config file)"),
        ],
        ids=["no-equals-sign", "no-input"],
    )
    def test_refusals(self, tmp_path, capsys, text, message):
        config = tmp_path / "run.cfg"
        config.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: [config] {message.format(config=config)}\n"

    def test_unknown_key_rejected(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("inptu=typo.jsonl\n", encoding="utf-8")
        code = main(["run", "--config", str(cfg)])
        assert code == 1
        assert "[config]" in capsys.readouterr().err

    def test_missing_file_fails_in_config_stage(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [config]") and "missing.cfg" in err

    def test_bad_value_names_line(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={corpus_path}\ntopics=abc\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"[config] {cfg}, line 2: invalid literal for int()" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,choices",
        [("format", "jsonl or csv"), ("report", "json or csv")],
        ids=["format", "report"],
    )
    def test_value_outside_choices_names_line(self, corpus_path, tmp_path, capsys, key, choices):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={corpus_path}\ntopics=3\n{key}=xml\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"[config] {cfg}, line 3: {key} must be {choices}, got 'xml'" in err

    def test_out_of_range_value_names_line(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={corpus_path}\ntopics=3\nseed=-1\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [config] {cfg}, line 3: seed must be >= 0, got -1\n"

    def test_repeated_key_names_both_lines(self, corpus_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input={corpus_path}\ntopics=3\ntopics=9\nout={out_dir}\n", encoding="utf-8"
        )
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [config] {cfg}, line 3: duplicate key 'topics' (first on line 2)\n"
        assert not out_dir.exists()

    def test_unknown_svg_topic_fails_in_report_stage(self, corpus_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input={corpus_path}\ntopics=3\nout={out_dir}\nsvg=true\nsvg-topics=7\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: [report] unknown topic id 7\n"
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize(
        "key,text,reason",
        [
            ("topics", "x", "invalid literal for int() with base 10: 'x'"),
            ("seed", "1.5", "invalid literal for int() with base 10: '1.5'"),
            ("min-chars", "", "invalid literal for int() with base 10: ''"),
            ("scale", "1,5", "could not convert string to float: '1,5'"),
            ("format", "xml", "format must be jsonl or csv, got 'xml'"),
            ("report", "JSON", "report must be json or csv, got 'JSON'"),
            ("svg-topics", "a,b", "not a comma-separated topic id list: 'a,b'"),
        ],
        ids=["topics", "seed", "min-chars", "scale", "format", "report", "svg-topics"],
    )
    def test_malformed_value_fails_alike_as_flag_and_key(
        self, corpus_path, tmp_path, capsys, key, text, reason
    ):
        values = {"input": str(corpus_path), "topics": "3", "svg": "true", key: text}
        argv = ["run", "--out", str(tmp_path / "flags")]
        for name, value in values.items():
            argv += ["--svg"] if name == "svg" else [f"--{name}", value]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: [config] --{key}: {reason}\n"
        assert not (tmp_path / "flags").exists()

        cfg = tmp_path / "run.cfg"
        values["out"] = str(tmp_path / "file")
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 1
        lineno = list(values).index(key) + 1
        assert capsys.readouterr().err == f"error: [config] {cfg}, line {lineno}: {reason}\n"
        assert not (tmp_path / "file").exists()

    @pytest.mark.parametrize(
        "extra",
        [("--topics",), ("--topic-count", "3"), ("--svg=yes",)],
        ids=["missing-value", "unknown-flag", "switch-with-value"],
    )
    def test_command_line_syntax_errors_exit_2(self, corpus_path, tmp_path, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", str(corpus_path), "--out", str(tmp_path / "out"), *extra])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: topicmood")
        assert not (tmp_path / "out").exists()

    def test_invalid_utf8_names_line(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"input={corpus_path}\n".encode() + b"seed=caf\xff\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"[config] {cfg}, line 2: invalid UTF-8 (byte 0xff" in capsys.readouterr().err


# Text for a setting, by its cast, and the value it reads as; no field has it as its default.
_OTHER_VALUES = {
    int: ("3", 3),
    float: ("0.5", 0.5),
    str: ("elsewhere", "elsewhere"),
    _parse_bool: ("true", True),
    _parse_topic_list: ("0,2", (0, 2)),
}


class TestSettingsTable:
    @pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
    def test_each_field_is_one_flag_and_one_key(self, tmp_path, capsys, field):
        flag = field.metadata["flag"]
        assert [f.name for f in fields(RunConfig) if f.metadata["flag"] == flag] == [field.name]
        text, value = _OTHER_VALUES[field.metadata["cast"]]
        if field.metadata["choices"]:
            text = value = next(c for c in field.metadata["choices"] if c != field.default)
        assert value != field.default
        expected = replace(RunConfig(input_path="posts.jsonl"), **{field.name: value})

        values = {"input": "posts.jsonl", flag: text}
        argv = ["run", *(f"--{key}={key_text}" for key, key_text in values.items())]
        if field.default is False:  # a switch takes no value
            argv[-1] = f"--{flag}"
        assert _build_config(build_parser().parse_args(argv)) == expected
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
        assert _build_config(build_parser().parse_args(["run", "--config", str(cfg)])) == expected

        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        options = " ".join(capsys.readouterr().out.partition("options:")[2].split())
        entry = re.search(rf"--{flag} (.*?)(?= --[a-z]|$)", options)
        if field.default not in (None, MISSING):
            assert entry[1].endswith(f" (default {field.default})")
        else:
            assert "(default" not in entry[1]


def src_env(**extra):
    """The environment of a child interpreter that imports this checkout's src/."""
    env = dict(os.environ, **extra)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _rows(load):
    """``load`` with its matrix's ids and rows as the result."""
    def rows(path):
        loaded = load(path)
        return loaded.post_ids, loaded.matrix.tolist()
    return rows


# Each kind of text input: a file name, its plain UTF-8 text and a loader
# whose result compares by value.
_TEXT_INPUTS = {
    "posts-jsonl": ("p.jsonl", '{"id": "a", "text": "fantastic", "weight": 2}\n', load_posts),
    "posts-csv": ("p.csv", "id,text,polarity\na,fantastic,0.5\n", lambda p: load_posts(p, "csv")),
    "lexicon": ("lex.txt", "fantastic\t0.9\n[intensifiers]\nvery\t1.5\n", load_lexicon),
    "stopwords": ("stop.txt", "the\nand\n", load_stopwords),
    "config": (
        "run.cfg", "topics = 3\ninput = p.jsonl\n",
        lambda p: _build_config(build_parser().parse_args(["run", "--config", str(p)])),
    ),
    "dist-matrix": ("m.csv", "post_id,t0,t1\na,0.25,0.75\n", _rows(load_dist_matrix)),
    "dist-matrix-row-loop": ("m.csv", 'post_id,t0,t1\n"a",0.25,0.75\n', _rows(load_dist_matrix)),
    "vectors": ("v.jsonl", '{"id": "a", "vector": [3, 4]}\n', _rows(load_vectors)),
}


class TestByteOrderMark:
    @pytest.mark.parametrize("kind", list(_TEXT_INPUTS))
    def test_copy_with_bom_loads_as_the_plain_file(self, tmp_path, kind):
        # Excel and Notepad save UTF-8 with a leading byte-order mark (EF BB BF).
        name, text, load = _TEXT_INPUTS[kind]
        plain, marked = tmp_path / "plain" / name, tmp_path / "bom" / name
        for path, prefix in ((plain, b""), (marked, b"\xef\xbb\xbf")):
            path.parent.mkdir()
            path.write_bytes(prefix + text.encode("utf-8"))
        assert load(marked) == load(plain)


class TestModuleInvocation:
    def test_python_dash_m_entry(self, corpus_path, tmp_path):
        out_dir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "topicmood", *run_args(corpus_path, out_dir)],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (out_dir / "report.json").exists()

    def test_import_does_not_load_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, topicmood, topicmood.cli; sys.exit('scipy' in sys.modules)"],
            env=src_env(),
        )
        assert proc.returncode == 0

    def test_clustered_run_does_not_load_numpy_ma(self, corpus_path, tmp_path):
        probe = "import sys, numpy; sys.exit('numpy.ma' in sys.modules)"
        if subprocess.run([sys.executable, "-c", probe]).returncode:
            pytest.skip("this numpy loads numpy.ma on import")
        out_dir = tmp_path / "out"
        run = (
            "import sys; from topicmood.cli import main; code = main(sys.argv[1:]); "
            "sys.exit(code or 3 * ('numpy.ma' in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", run, *run_args(corpus_path, out_dir)],
            capture_output=True, text=True, encoding="utf-8", env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (out_dir / "report.json").exists()

    def test_clustered_runs_do_not_load_numpy_random(self, corpus_path, tmp_path):
        # k-means++ replays default_rng's stream: numpy.random, and the secrets and
        # hashlib modules it pulls in, stay out of a TF-IDF run and a --vectors run.
        lines = corpus_path.read_text(encoding="utf-8").splitlines()
        vectors = tmp_path / "v.jsonl"
        vectors.write_text("".join(
            json.dumps({"id": json.loads(line)["id"], "vector": [1.0, i % 3, i % 5]}) + "\n"
            for i, line in enumerate(lines)
        ), encoding="utf-8")
        runs = [run_args(corpus_path, tmp_path / "tfidf"),
                run_args(corpus_path, tmp_path / "vectors", "--vectors", str(vectors))]
        run = (
            "import json, sys; from topicmood.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "loaded = [m for m in ('numpy.random', 'secrets', 'hashlib') if m in sys.modules]; "
            "sys.exit(f'exit codes {codes}, loaded {loaded}' if any(codes) or loaded else 0)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", run, json.dumps(runs)],
            capture_output=True, text=True, encoding="utf-8", env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "tfidf" / "report.json").exists()
        assert (tmp_path / "vectors" / "report.json").exists()


class TestBlasThreads:
    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 2,500 posts in 42 topics: products large enough for BLAS to split over threads.
        corpus = write_jsonl(tmp_path / "posts.jsonl", many_group_records(2500, 42))
        out_dir = tmp_path / "out"
        outputs = []
        # A second hash seed too: no set or dict order of strings may reach the bytes.
        for threads, hash_seed in (("1", "0"), ("2", "1")):
            proc = subprocess.run(
                [sys.executable, "-m", "topicmood", "run", "--input", str(corpus),
                 "--topics", "42", "--seed", "3", "--svg", "--out", str(out_dir)],
                capture_output=True,
                text=True,
                encoding="utf-8",
                env=src_env(OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                ((out_dir / "report.json").read_bytes(), (out_dir / "tfns.svg").read_bytes())
            )
        assert json.loads(outputs[0][0])["metadata"]["contributing"] == 2500
        assert outputs[0] == outputs[1]


# A POSIX file name: any bytes but "/" and NUL, and not "." or "..".
_FILE_NAMES = (
    st.lists(st.sampled_from([b for b in range(1, 256) if b != ord("/")]), min_size=1, max_size=6)
    .map(bytes)
    .filter(lambda b: b.strip(b"."))
)


class TestStrictJsonReport:
    @settings(deadline=None, max_examples=80)
    @given(
        ids=st.lists(st.text(min_size=1, max_size=4), min_size=2, max_size=9, unique=True),
        # A JSON escape can write a lone surrogate into a post id.
        surrogate_id=st.sampled_from([None, None, None, "\ud800x", "x\udcff"]),
        empty=st.lists(st.booleans(), min_size=9, max_size=9),
        names=st.tuples(_FILE_NAMES, _FILE_NAMES),
        topics=st.integers(1, 4),
        seed=st.integers(0, 2**32),
        min_chars=st.integers(1, 80),
        numbers=st.tuples(st.floats(0.01, 10.0), st.floats(0.05, 2.0), st.floats(0.01, 1.0)),
        n_terms=st.integers(1, 9),
        svg=st.booleans(),
    )
    def test_every_accepted_config_writes_strict_utf8_json(
        self, tmp_path_factory, ids, surrogate_id, empty, names, topics, seed, min_chars,
        numbers, n_terms, svg,
    ):
        work = tmp_path_factory.mktemp("strict")
        if surrogate_id is not None:
            ids[-1] = surrogate_id
        texts = [r["text"] for r in three_group_records(n_per_group=3)]
        records = [
            {"id": i, "text": "@only #tags https://t.co/x " * 3 if e else text}
            for i, e, text in zip(ids, empty, texts)
        ]
        corpus = write_jsonl(work / os.fsdecode(names[0]), records)
        out_dir = work / "out" / os.fsdecode(names[1])
        scale, temperature, ramp = numbers
        argv = [
            "run", "--input", str(corpus), "--topics", str(topics), "--seed", str(seed),
            "--min-chars", str(min_chars), "--scale", repr(scale), "--temperature",
            repr(temperature), "--ramp", repr(ramp), "--n-terms", str(n_terms),
            "--out", str(out_dir),
        ]
        code = main(argv + ["--svg"] if svg else argv)
        report = out_dir / "report.json"
        if code == 0:
            data = json.loads(report.read_bytes().decode("utf-8"))
            assert data["metadata"]["documents_in"] == len(records)
        else:
            assert not report.exists()


_STAGES = ("config", "corpus", "sentiment", "topics", "fuzzy", "report")
# A value that --scale, --ramp and --temperature all accept, or one they all refuse.
_FLOAT_SETTINGS = (
    st.floats(0.05, 1.0) | st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])
)


# Text that no integer setting parses ("3," and "" are --svg-topics lists).
_MALFORMED = st.sampled_from(["x", "1.5", "", "3,", " 2 x"])


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def run_to_stage(argv, out_dir):
    """Run the CLI and return None on success, else its one error line after ``error: ``.

    A run that fails leaves no ``out_dir``.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            raise AssertionError(f"exit {exc.code}: {err.getvalue()}") from None
    report = out_dir / "report.json"
    if code == 0:
        json.loads(report.read_bytes().decode("utf-8"), parse_constant=_refuse_constant)
        return None
    assert code == 1 and not out_dir.exists()
    match = re.fullmatch(r"error: (\[(\w+)\] [^\n]*)\n", err.getvalue())
    assert match and match[2] in _STAGES, err.getvalue()
    return match[1]


class TestAnySettingsExitCleanly:
    @settings(deadline=None, max_examples=80)
    @given(
        topics=st.integers(1, 4).map(str) | _MALFORMED,
        seed=st.integers(-(2**32), 2**32).map(str) | _MALFORMED,
        numbers=st.tuples(_FLOAT_SETTINGS, _FLOAT_SETTINGS, _FLOAT_SETTINGS),
        svg=st.booleans(),
        svg_topics=st.none()
        | st.lists(st.integers(-2, 5), max_size=3).map(lambda ids: ",".join(map(str, ids)))
        | _MALFORMED,
    )
    def test_flags_and_config_file_end_alike(
        self, tmp_path_factory, topics, seed, numbers, svg, svg_topics
    ):
        work = tmp_path_factory.mktemp("settings")
        corpus = write_jsonl(work / "posts.jsonl", three_group_records(n_per_group=3))
        values = {"input": str(corpus), "topics": topics, "seed": seed}
        for key, number in zip(("scale", "ramp", "temperature"), numbers):
            values[key] = repr(number)
        if svg_topics is not None:
            values["svg-topics"] = svg_topics

        argv = ["run", "--out", str(work / "flags")]
        for key, value in values.items():
            # A config line's value is stripped, so the flag gets the text the file holds.
            argv += [f"--{key}", value.strip()]
        by_flags = run_to_stage(argv + ["--svg"] if svg else argv, work / "flags")

        cfg = work / "run.cfg"
        values.update(out=str(work / "file"), svg=str(svg).lower())
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
        by_file = run_to_stage(["run", "--config", str(cfg)], work / "file")
        # A setting's error names where its text came from; the rest must agree.
        if by_flags is not None:
            by_flags = re.sub(r"^\[config\] --[\w-]+: ", "[config] ", by_flags)
            place = rf"^\[config\] {re.escape(str(cfg))}, line \d+: "
            by_file = re.sub(place, "[config] ", by_file)
        assert by_file == by_flags


def _config_lines(echo):
    """``report.json``'s config block as config-file lines: field names mapped to flag keys."""
    lines = []
    for f in fields(RunConfig):
        value = echo[f.name]
        if isinstance(value, list):
            value = ",".join(map(str, value))
        elif isinstance(value, bool):
            value = str(value).lower()
        if value is not None:
            lines.append(f"{f.metadata['flag']}={value}\n")
    return "".join(lines)


class TestEchoReproducesRun:
    @settings(deadline=None, max_examples=80)
    @given(
        topics=st.integers(1, 3),
        seed=st.integers(0, 2**40),
        min_chars=st.integers(1, 60),
        # Many of these carry more than six decimals; the echo must keep every one.
        numbers=st.tuples(st.floats(1e-7, 10.0), st.floats(1e-8, 2.0), st.floats(1e-7, 1.0)),
        n_terms=st.integers(1, 9),
        svg_topics=st.none() | st.lists(st.integers(0, 2), min_size=1, max_size=3),
    )
    @example(
        topics=3, seed=7, min_chars=40, numbers=(1.2e-07, 4e-07, 0.1234567),
        n_terms=7, svg_topics=None,
    )
    def test_config_echo_reruns_to_the_same_report(
        self, tmp_path_factory, topics, seed, min_chars, numbers, n_terms, svg_topics
    ):
        work = tmp_path_factory.mktemp("echo")
        corpus = write_jsonl(work / "posts.jsonl", three_group_records(n_per_group=3))
        out_dir = work / "out"
        scale, temperature, ramp = numbers
        argv = [
            "run", "--input", str(corpus), "--topics", str(topics), "--seed", str(seed),
            "--min-chars", str(min_chars), "--scale", repr(scale), "--temperature",
            repr(temperature), "--ramp", repr(ramp), "--n-terms", str(n_terms),
            "--out", str(out_dir), "--svg",
        ]
        if svg_topics is not None:
            argv += ["--svg-topics", ",".join(f"{t % topics}" for t in svg_topics)]
        assert run_to_stage(argv, out_dir) is None
        first = {name: (out_dir / name).read_bytes() for name in ("report.json", "tfns.svg")}

        cfg = work / "echo.cfg"
        echo = json.loads(first["report.json"])["config"]
        cfg.write_text(_config_lines(echo), encoding="utf-8")
        assert run_to_stage(["run", "--config", str(cfg)], out_dir) is None
        assert {name: (out_dir / name).read_bytes() for name in first} == first


def supplied_posts(work):
    """Posts p0-p5 for a supplied file with rows p0-p3: p1 is too short and
    p3 cleans to nothing, so their rows are dropped; p4 and p5 have no row."""
    texts = [r["text"] for r in three_group_records(n_per_group=2)]
    texts[1], texts[3] = "tiny", "@only #tags https://t.co/x " * 3
    records = [{"id": f"p{i}", "text": text} for i, text in enumerate(texts)]
    return write_jsonl(work / "posts.jsonl", records)


# Well-formed vectors for p0-p3, so that some runs get through the topic stage.
_PLAIN_VECTORS = st.lists(
    st.lists(st.floats(-1, 1), min_size=2, max_size=2), min_size=4, max_size=4
).map(lambda vs: "".join(f'{{"id": "p{i}", "vector": {v}}}\n' for i, v in enumerate(vs)).encode())


class TestSuppliedFilesExitCleanly:
    @settings(deadline=None, max_examples=150)
    @given(data=dist_matrix_bytes())
    def test_dist_matrix(self, tmp_path_factory, data):
        work = tmp_path_factory.mktemp("matrix")
        (work / "m.csv").write_bytes(data)
        argv = [
            "run", "--input", str(supplied_posts(work)), "--dist-matrix", str(work / "m.csv"),
            "--out", str(work / "out"),
        ]
        run_to_stage(argv, work / "out")

    @settings(deadline=None, max_examples=150)
    @given(data=vectors_jsonl_bytes() | _PLAIN_VECTORS, topics=st.integers(1, 3))
    def test_vectors(self, tmp_path_factory, data, topics):
        work = tmp_path_factory.mktemp("vectors")
        (work / "v.jsonl").write_bytes(data)
        argv = [
            "run", "--input", str(supplied_posts(work)), "--vectors", str(work / "v.jsonl"),
            "--topics", str(topics), "--out", str(work / "out"),
        ]
        run_to_stage(argv, work / "out")
