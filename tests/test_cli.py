"""Command line interface tests."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicmood.cli import main

from fuzzfiles import dist_matrix_bytes, vectors_jsonl_bytes
from synthdata import many_group_records, three_group_records, write_jsonl, write_table_fixture


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
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--scale", "-1e-05", "scale must be finite and > 0, got -1e-05"),
            ("--sca", "-1e-05", "scale must be finite and > 0, got -1e-05"),  # argparse's prefix
            ("--ramp", "-inf", "ramp must lie in (0, 1]"),
            ("--temperature", "-1E3", "temperature must be finite and > 0, got -1000.0"),
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

    def test_invalid_utf8_names_line(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"input={corpus_path}\n".encode() + b"seed=caf\xff\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"[config] {cfg}, line 2: invalid UTF-8 (byte 0xff" in capsys.readouterr().err


def src_env(**extra):
    """The environment of a child interpreter that imports this checkout's src/."""
    env = dict(os.environ, **extra)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


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


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def run_to_stage(argv, out_dir):
    """Run the CLI and return None on success, else the stage of its one error line.

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
    match = re.fullmatch(r"error: \[(\w+)\] [^\n]*\n", err.getvalue())
    assert match and match[1] in _STAGES, err.getvalue()
    return match[1]


class TestAnySettingsExitCleanly:
    @settings(deadline=None, max_examples=80)
    @given(
        topics=st.integers(1, 4),
        seed=st.integers(-(2**32), 2**32),
        numbers=st.tuples(_FLOAT_SETTINGS, _FLOAT_SETTINGS, _FLOAT_SETTINGS),
        svg=st.booleans(),
        svg_topics=st.none() | st.lists(st.integers(-2, 5), max_size=3),
    )
    def test_flags_and_config_file_end_alike(
        self, tmp_path_factory, topics, seed, numbers, svg, svg_topics
    ):
        work = tmp_path_factory.mktemp("settings")
        corpus = write_jsonl(work / "posts.jsonl", three_group_records(n_per_group=3))
        values = {"input": str(corpus), "topics": str(topics), "seed": str(seed)}
        for key, number in zip(("scale", "ramp", "temperature"), numbers):
            values[key] = repr(number)
        if svg_topics is not None:
            values["svg-topics"] = ",".join(map(str, svg_topics))

        argv = ["run", "--out", str(work / "flags")]
        for key, value in values.items():
            argv += [f"--{key}", value]
        by_flags = run_to_stage(argv + ["--svg"] if svg else argv, work / "flags")

        cfg = work / "run.cfg"
        values.update(out=str(work / "file"), svg=str(svg).lower())
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
        assert run_to_stage(["run", "--config", str(cfg)], work / "file") == by_flags


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
