"""Command line interface tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from topicmood.cli import main

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
        # 2,500 posts form two row blocks (1,024 and 1,476 rows).
        corpus = write_jsonl(tmp_path / "posts.jsonl", many_group_records(2500, 42))
        out_dir = tmp_path / "out"
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "topicmood", "run", "--input", str(corpus),
                 "--topics", "42", "--seed", "3", "--svg", "--out", str(out_dir)],
                capture_output=True,
                text=True,
                encoding="utf-8",
                env=src_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                ((out_dir / "report.json").read_bytes(), (out_dir / "tfns.svg").read_bytes())
            )
        assert json.loads(outputs[0][0])["metadata"]["contributing"] == 2500
        assert outputs[0] == outputs[1]
