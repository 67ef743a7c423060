"""End-to-end pipeline, report emission and SVG rendering tests."""

import csv
import json
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from topicmood.fuzzy import TFN
from topicmood.pipeline import (
    RunConfig,
    StageError,
    TopicReport,
    emit_report,
    load_dist_matrix,
    run_pipeline,
)
from topicmood.svgplot import MARGIN_LEFT, MARGIN_RIGHT, WIDTH, emit_tfn_svg

from oracles import grid_possibility, spreadsheet_weighted_stats
from synthdata import (
    TABLE_MATRIX,
    TABLE_POLARITIES,
    three_group_records,
    write_jsonl,
    write_table_fixture,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def fixture_config(posts_path, matrix_path, **overrides):
    cfg = RunConfig(
        input_path=posts_path,
        dist_matrix_path=matrix_path,
        min_chars=1,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestFixtureMode:
    def test_worked_example_reports(self, tmp_path):
        posts_path, matrix_path = write_table_fixture(tmp_path)
        result = run_pipeline(fixture_config(posts_path, matrix_path))

        assert [r.topic_id for r in result.reports] == [2, 0, 1]  # prevalence 1.1, 1.0, 0.9
        by_id = {r.topic_id: r for r in result.reports}

        topic1 = by_id[0]
        assert topic1.tfn.m == pytest.approx(0.315, abs=1e-12)
        mean, sigma = spreadsheet_weighted_stats(TABLE_POLARITIES, [r[0] for r in TABLE_MATRIX])
        assert topic1.tfn.a == pytest.approx(mean - sigma, abs=1e-12)
        assert topic1.tfn.b == pytest.approx(mean + sigma, abs=1e-12)
        assert topic1.positivity == pytest.approx(1.0, abs=1e-12)
        assert topic1.negativity == pytest.approx(
            grid_possibility(topic1.tfn.a, topic1.tfn.m, topic1.tfn.b, "negative", 0.2),
            abs=1e-4,
        )

        np.testing.assert_allclose(
            [by_id[k].prevalence for k in range(3)], [1.0, 0.9, 1.1], atol=1e-12
        )
        assert result.metadata["mode"] == "fixture"
        assert result.metadata["polarity_sources"]["supplied"] == 3
        assert all(r.top_terms == [] for r in result.reports)

    def test_mirrored_corpus_swaps_conformity_exactly(self, tmp_path):
        posts_path, matrix_path = write_table_fixture(tmp_path)
        neg_posts_path, _ = write_table_fixture(tmp_path, negate=True)
        base = run_pipeline(fixture_config(posts_path, matrix_path))
        flipped = run_pipeline(fixture_config(neg_posts_path, matrix_path))

        base_by_id = {r.topic_id: r for r in base.reports}
        flipped_by_id = {r.topic_id: r for r in flipped.reports}
        for k in range(3):
            b, f = base_by_id[k], flipped_by_id[k]
            assert f.tfn.a == -b.tfn.b
            assert f.tfn.m == -b.tfn.m
            assert f.tfn.b == -b.tfn.a
            assert f.positivity == b.negativity
            assert f.negativity == b.positivity

    def test_stage_accounting_with_all_buckets(self, tmp_path):
        posts_path, matrix_path = write_table_fixture(tmp_path)
        records = [json.loads(line) for line in posts_path.read_text(encoding="utf-8").splitlines()]
        records.append({"id": "p4", "text": "tiny"})
        records.append({"id": "p5", "text": "@user #hash http://link.example 1234 !!! ??? @more #tags 000 []"})
        records.append({"id": "p6", "text": "the tram network keeps improving downtown"})
        all_path = write_jsonl(tmp_path / "posts_all.jsonl", records)

        result = run_pipeline(fixture_config(all_path, matrix_path, min_chars=30))
        meta = result.metadata
        assert meta["documents_in"] == 6
        assert meta["filtered_short"] == 1
        assert meta["empty_after_cleaning"] == 1
        assert meta["excluded"] == 1
        assert meta["excluded_doc_ids"] == ["p6"]
        assert meta["contributing"] == 3
        assert meta["documents_in"] == (
            meta["contributing"] + meta["filtered_short"]
            + meta["empty_after_cleaning"] + meta["excluded"]
        )

    def test_topic_count_mismatch_is_topics_stage_error(self, tmp_path):
        posts_path, matrix_path = write_table_fixture(tmp_path)
        cfg = fixture_config(posts_path, matrix_path, n_topics=5)
        with pytest.raises(StageError, match=r"\[topics\]") as err:
            run_pipeline(cfg)
        assert err.value.stage == "topics"

    def test_zero_weight_topic_names_topic(self, tmp_path):
        posts_path, _ = write_table_fixture(tmp_path)
        matrix_path = tmp_path / "zero.csv"
        matrix_path.write_text(
            "post_id,t0,t1,t2\np1,0.5,0.0,0.5\np2,1.0,0.0,0.0\np3,0.0,0.0,1.0\n",
            encoding="utf-8",
        )
        with pytest.raises(StageError, match=r"\[fuzzy\] topic 1: total weight") as err:
            run_pipeline(fixture_config(posts_path, matrix_path))
        assert err.value.stage == "fuzzy"

    def test_matrix_with_unknown_post_id(self, tmp_path):
        posts_path, _ = write_table_fixture(tmp_path)
        matrix_path = tmp_path / "bad.csv"
        matrix_path.write_text("post_id,t0,t1\nghost,0.5,0.5\n", encoding="utf-8")
        with pytest.raises(StageError, match="unknown post id"):
            run_pipeline(fixture_config(posts_path, matrix_path))


class TestLoadDistMatrix:
    def test_valid_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("post_id,t0,t1\na,0.25,0.75\nb,1.0,0.0\n", encoding="utf-8")
        dist = load_dist_matrix(path)
        assert dist.post_ids == ("a", "b")
        assert dist.k == 2

    @pytest.mark.parametrize(
        "content,pattern",
        [
            ("wrong,t0\na,1.0\n", "post_id"),
            ("post_id,t0,t1\na,0.5,0.4\n", "sum"),
            ("post_id,t0,t1\na,0.5,0.5\na,0.5,0.5\n", "duplicate"),
            ("post_id,t0,t1\na,0.5,x\n", "non-numeric"),
            ("post_id,t0,t1\na,0.5\n", "columns"),
            ("post_id,t0,t1\na,1.5,-0.5\n", "negative"),
            ("post_id,t0,t1\na,nan,1.0\n", "line 2: non-finite"),
            ("post_id,t0,t1\na,inf,0.0\n", "line 2: non-finite"),
            ("post_id\n", "no topic columns"),
        ],
    )
    def test_malformed_matrices(self, tmp_path, content, pattern):
        path = tmp_path / "m.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ValueError, match=pattern):
            load_dist_matrix(path)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"post_id,t0\ncaf\xff,1.0\n")
        with pytest.raises(ValueError, match=r"m\.csv, line 2: invalid UTF-8 \(byte 0xff") as err:
            load_dist_matrix(path)
        assert not isinstance(err.value, UnicodeDecodeError)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "posts.jsonl"
    return write_jsonl(path, three_group_records())


class TestStandardMode:
    def test_end_to_end_run(self, corpus_path):
        cfg = RunConfig(input_path=corpus_path, n_topics=3, seed=5)
        result = run_pipeline(cfg)
        assert len(result.reports) == 3
        prevalences = [r.prevalence for r in result.reports]
        assert prevalences == sorted(prevalences, reverse=True)
        assert sum(prevalences) == pytest.approx(result.metadata["contributing"], abs=1e-6)
        meta = result.metadata
        assert meta["documents_in"] == (
            meta["contributing"] + meta["filtered_short"] + meta["empty_after_cleaning"]
        )
        assert meta["excluded"] == 0
        for report in result.reports:
            assert len(report.top_terms) == 7
            assert 0.0 <= report.positivity <= 1.0
            assert 0.0 <= report.negativity <= 1.0

    def test_byte_identical_reports_across_runs(self, corpus_path, tmp_path):
        cfg = RunConfig(input_path=corpus_path, n_topics=3, seed=5)
        paths = []
        for name in ("one.json", "two.json"):
            result = run_pipeline(cfg)
            out = tmp_path / name
            emit_report(result.reports, "json", out, result.config, result.metadata)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_short_and_empty_documents_accounted(self, tmp_path):
        records = three_group_records(n_per_group=4)
        records.append({"id": "shorty", "text": "too short"})
        records.append(
            {"id": "hollow", "text": "@user #hash http://link.example 1234 !!! ??? @more #tags 000 [] ::"}
        )
        path = write_jsonl(tmp_path / "posts.jsonl", records)
        result = run_pipeline(RunConfig(input_path=path, n_topics=3, seed=1))
        meta = result.metadata
        assert meta["documents_in"] == 14
        assert meta["filtered_short"] == 1
        assert meta["empty_after_cleaning"] == 1
        assert meta["empty_doc_ids"] == ["hollow"]
        assert meta["contributing"] == 12

    def test_supplied_vectors_override_text(self, tmp_path):
        records = [
            {"id": f"p{i}", "text": f"completely identical filler words repeated for every single post number {i}"}
            for i in range(6)
        ]
        posts_path = write_jsonl(tmp_path / "posts.jsonl", records)
        vec_path = tmp_path / "vectors.jsonl"
        rows = []
        for i in range(6):
            direction = [1.0, 0.0] if i < 3 else [0.0, 1.0]
            rows.append(json.dumps({"id": f"p{i}", "vector": direction}))
        vec_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

        cfg = RunConfig(input_path=posts_path, n_topics=2, seed=0, vectors_path=vec_path)
        result = run_pipeline(cfg)
        assert sorted(r.doc_count for r in result.reports) == [3, 3]

    def test_missing_vector_counts_as_excluded(self, tmp_path):
        records = [
            {"id": f"p{i}", "text": f"completely identical filler words repeated for every single post number {i}"}
            for i in range(4)
        ]
        posts_path = write_jsonl(tmp_path / "posts.jsonl", records)
        vec_path = tmp_path / "vectors.jsonl"
        rows = [json.dumps({"id": f"p{i}", "vector": [1.0, float(i)]}) for i in range(3)]
        vec_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

        cfg = RunConfig(input_path=posts_path, n_topics=2, seed=0, vectors_path=vec_path)
        result = run_pipeline(cfg)
        meta = result.metadata
        assert meta["excluded"] == 1
        assert meta["excluded_doc_ids"] == ["p3"]
        assert meta["documents_in"] == (
            meta["contributing"] + meta["filtered_short"]
            + meta["empty_after_cleaning"] + meta["excluded"]
        )


class TestNoUsablePost:
    """Every topic source stops a run without a usable post with one message."""

    @pytest.mark.parametrize(
        "source,min_chars,covered",
        [
            ("tfidf", 1000, ()),
            ("vectors", 1000, ("p1", "p2", "p3")),
            ("dist-matrix", 1000, ("p1", "p2", "p3")),
            ("vectors", 1, ("p4",)),  # p4 is empty after cleaning
            ("dist-matrix", 1, ("p4",)),
        ],
        ids=[
            "tfidf-all-short", "vectors-all-short", "dist-matrix-all-short",
            "vectors-cover-no-live-post", "dist-matrix-covers-no-live-post",
        ],
    )
    def test_no_documents_left(self, tmp_path, source, min_chars, covered):
        table_posts, _ = write_table_fixture(tmp_path)
        records = [json.loads(line) for line in table_posts.read_text("utf-8").splitlines()]
        records.append({"id": "p4", "text": "1234 !!!"})
        cfg = RunConfig(
            input_path=write_jsonl(tmp_path / "all.jsonl", records), n_topics=2, min_chars=min_chars
        )
        if source == "vectors":
            cfg.vectors_path = tmp_path / "vectors.jsonl"
            lines = [json.dumps({"id": pid, "vector": [1.0, 0.5]}) for pid in covered]
            cfg.vectors_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        elif source == "dist-matrix":
            cfg.dist_matrix_path = tmp_path / "two.csv"
            lines = ["post_id,t0,t1", *(f"{pid},0.5,0.5" for pid in covered)]
            cfg.dist_matrix_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(StageError, match=r"^\[topics\] no documents left for topic modeling$"):
            run_pipeline(cfg)


class TestConfigValidation:
    def test_missing_topics_without_matrix(self, tmp_path):
        cfg = RunConfig(input_path=tmp_path / "x.jsonl")
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "config"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("temperature", 0.0),
            ("scale", -1.0),
            ("ramp", 0.0),
            ("ramp", 1.5),
            ("min_chars", 0),
            ("n_terms", 0),
            ("input_format", "xml"),
            ("report_format", "yaml"),
            ("n_topics", 0),
        ],
    )
    def test_rejected_values(self, tmp_path, field, value):
        cfg = RunConfig(input_path=tmp_path / "x.jsonl", n_topics=2)
        setattr(cfg, field, value)
        with pytest.raises(StageError, match=r"\[config\]"):
            run_pipeline(cfg)

    def test_missing_input_is_corpus_stage(self, tmp_path):
        cfg = RunConfig(input_path=tmp_path / "absent.jsonl", n_topics=2)
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "corpus"

    def test_vectors_and_matrix_together_rejected(self, tmp_path):
        cfg = RunConfig(
            input_path=tmp_path / "x.jsonl",
            vectors_path=tmp_path / "v.jsonl",
            dist_matrix_path=tmp_path / "m.csv",
        )
        with pytest.raises(StageError, match=r"\[config\]"):
            run_pipeline(cfg)


def sample_reports():
    return [
        TopicReport(
            topic_id=0,
            top_terms=[("tram", 5.0), ("bus", 3.0), ("route", 2.5), ("stop", 1.0)],
            prevalence=2.5,
            tfn=TFN(-0.2, 0.0, 0.2),
            positivity=0.5,
            negativity=0.5,
            doc_count=3,
        ),
        TopicReport(
            topic_id=1,
            top_terms=[("park", 4.0)],
            prevalence=1.5,
            tfn=TFN(0.4, 0.4, 0.4),
            positivity=1.0,
            negativity=0.0,
            doc_count=2,
        ),
    ]


class TestEmitReport:
    def test_json_roundtrip_at_six_decimals(self, tmp_path):
        reports = sample_reports()
        path = emit_report(reports, "json", tmp_path / "r.json", {"seed": 5}, {"mode": "test"})
        data = json.loads(path.read_text("utf-8"))
        assert data["config"] == {"seed": 5}
        assert data["metadata"] == {"mode": "test"}
        assert len(data["topics"]) == 2
        first = data["topics"][0]
        assert first["topic_id"] == 0
        assert abs(first["tfn"]["a"] - reports[0].tfn.a) < 1e-6
        assert abs(first["prevalence"] - reports[0].prevalence) < 1e-6
        assert abs(first["positivity"] - reports[0].positivity) < 1e-6
        assert first["support_exceeds_polarity_range"] is False

    def test_out_of_range_support_flagged(self, tmp_path):
        report = TopicReport(0, [], 1.0, TFN(-1.4, 0.0, 1.4), 1.0, 1.0, 1)
        path = emit_report([report], "json", tmp_path / "r.json")
        data = json.loads(path.read_text("utf-8"))
        assert data["topics"][0]["support_exceeds_polarity_range"] is True

    def test_csv_row_shape(self, tmp_path):
        path = emit_report(sample_reports()[:1], "csv", tmp_path / "r.csv")
        rows = list(csv.reader(path.open(encoding="utf-8")))
        assert rows[0] == [
            "topic_id", "top_terms", "prevalence", "tfn_a", "tfn_m", "tfn_b",
            "positivity", "negativity",
        ]
        assert len(rows) == 2
        assert len(rows[1]) == 8
        assert rows[1][1] == "tram;bus;route;stop"
        assert rows[1][3] == "-0.200000"

    def test_empty_reports_json(self, tmp_path):
        path = emit_report([], "json", tmp_path / "r.json")
        data = json.loads(path.read_text("utf-8"))
        assert data["topics"] == []

    def test_empty_reports_csv_header_only(self, tmp_path):
        path = emit_report([], "csv", tmp_path / "r.csv")
        rows = list(csv.reader(path.open(encoding="utf-8")))
        assert len(rows) == 1

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "yaml", tmp_path / "r.yaml")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_number_never_written(self, tmp_path, value):
        report = replace(sample_reports()[0], prevalence=value)
        path = tmp_path / "r.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            emit_report([report], "json", path)
        with pytest.raises(ValueError, match="JSON compliant"):
            emit_report([], "json", path, config={"temperature": value})
        assert not path.exists()


class TestEmitTfnSvg:
    def test_well_formed_with_one_polyline_per_topic(self, tmp_path):
        path = emit_tfn_svg(sample_reports(), tmp_path / "t.svg")
        root = ET.parse(path).getroot()
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 2

    def test_selection_subset(self, tmp_path):
        path = emit_tfn_svg(sample_reports(), tmp_path / "t.svg", selection=[1])
        root = ET.parse(path).getroot()
        assert len(root.findall(f"{SVG_NS}polyline")) == 1

    def test_degenerate_tfn_is_vertical_segment(self, tmp_path):
        path = emit_tfn_svg(sample_reports(), tmp_path / "t.svg", selection=[1])
        root = ET.parse(path).getroot()
        (polyline,) = root.findall(f"{SVG_NS}polyline")
        points = [tuple(map(float, p.split(","))) for p in polyline.get("points").split()]
        xs = {x for x, _ in points}
        assert len(xs) == 1
        ys = sorted(y for _, y in points)
        assert ys[0] < ys[-1]  # reaches the y=1 level above the baseline

    def test_symmetric_triangle_geometry(self, tmp_path):
        path = emit_tfn_svg(sample_reports(), tmp_path / "t.svg", selection=[0])
        root = ET.parse(path).getroot()
        (polyline,) = root.findall(f"{SVG_NS}polyline")
        (left, apex, right) = [tuple(map(float, p.split(","))) for p in polyline.get("points").split()]
        assert left[1] == right[1]  # feet on the baseline
        assert apex[1] < left[1]  # apex above (smaller pixel y)
        assert apex[0] == pytest.approx((left[0] + right[0]) / 2, abs=0.02)

    def test_x_axis_covers_wide_supports(self, tmp_path):
        wide = TopicReport(0, [], 1.0, TFN(-1.6, 0.0, 1.8), 1.0, 1.0, 1)
        path = emit_tfn_svg([wide], tmp_path / "t.svg")
        root = ET.parse(path).getroot()
        (polyline,) = root.findall(f"{SVG_NS}polyline")
        for point in polyline.get("points").split():
            x = float(point.split(",")[0])
            assert MARGIN_LEFT - 0.01 <= x <= WIDTH - MARGIN_RIGHT + 0.01

    def test_reference_lines_present(self, tmp_path):
        path = emit_tfn_svg(sample_reports(), tmp_path / "t.svg")
        root = ET.parse(path).getroot()
        dashed = [e for e in root.findall(f"{SVG_NS}line") if e.get("stroke-dasharray")]
        assert len(dashed) == 3

    def test_unknown_topic_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown topic id"):
            emit_tfn_svg(sample_reports(), tmp_path / "t.svg", selection=[9])

    def test_empty_selection_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no topics"):
            emit_tfn_svg(sample_reports(), tmp_path / "t.svg", selection=[])
