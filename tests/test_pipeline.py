"""End-to-end pipeline, report emission and SVG rendering tests."""

import csv
import json
import math
import os
import random
import threading
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from dataclasses import astuple, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicmood import corpus, pipeline
from topicmood import topics as topics_mod
from topicmood.fuzzy import TFN, aggregate_topic, check_sample
from topicmood.pipeline import (
    RunConfig,
    StageError,
    TopicReport,
    emit_report,
    load_dist_matrix,
    run_pipeline,
)
from topicmood.svgplot import MARGIN_LEFT, MARGIN_RIGHT, WIDTH, emit_tfn_svg

from fuzzfiles import dist_matrix_bytes, load_from_pipe
from oracles import grid_possibility, spreadsheet_weighted_stats
from synthdata import (
    IN_RANGE_WEIGHTS,
    MAX,
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

    def test_overflowing_weight_topic_names_topic(self, tmp_path):
        # Topic 0 holds two posts of weight 1e308 in full: its total passes the float range.
        posts_path, _ = write_table_fixture(tmp_path)
        records = [json.loads(line) for line in posts_path.read_text("utf-8").splitlines()]
        posts_path = write_jsonl(
            tmp_path / "heavy.jsonl", [{**record, "weight": 1e308} for record in records]
        )
        matrix_path = tmp_path / "heavy.csv"
        matrix_path.write_text("post_id,t0,t1\np1,0,1\np2,1,0\np3,1,0\n", encoding="utf-8")
        with pytest.raises(StageError) as err:
            run_pipeline(fixture_config(posts_path, matrix_path))
        assert str(err.value) == (
            f"[topics] {matrix_path}: topic 0 (column 2) times the post weights "
            "sums past the float range over 3 rows of live posts"
        )

    def test_zero_weight_topic_names_topic(self, tmp_path):
        # Topic 1's only mass, the smallest subnormal, times p2's weight rounds to 0: the
        # column has live mass, but no weight for the fuzzy stage, so the topics stage refuses it.
        posts_path, _ = write_table_fixture(tmp_path)
        records = [json.loads(line) for line in posts_path.read_text("utf-8").splitlines()]
        records[1]["weight"] = 0.25
        posts_path = write_jsonl(tmp_path / "weighted.jsonl", records)
        matrix_path = tmp_path / "zero.csv"
        matrix_path.write_text(
            "post_id,t0,t1,t2\np1,0.5,0.0,0.5\np2,1.0,5e-324,0.0\np3,0.0,0.0,1.0\n",
            encoding="utf-8",
        )
        with pytest.raises(StageError) as err:
            run_pipeline(fixture_config(posts_path, matrix_path))
        assert str(err.value) == (
            f"[topics] {matrix_path}: topic 1 (column 3) times the post weights "
            "is zero on all 3 rows of live posts"
        )

    def test_matrix_with_unknown_post_id(self, tmp_path):
        posts_path, _ = write_table_fixture(tmp_path)
        matrix_path = tmp_path / "bad.csv"
        matrix_path.write_text("post_id,t0,t1\nghost,0.5,0.5\n", encoding="utf-8")
        with pytest.raises(StageError, match="unknown post id") as err:
            run_pipeline(fixture_config(posts_path, matrix_path))
        assert str(err.value) == f"[topics] {matrix_path} references unknown post id 'ghost'"

    @pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_NONNUMERIC],
                             ids=["bulk", "row-loop"])
    def test_post_ids_match_as_written(self, tmp_path, monkeypatch, quoting):
        # Posts, --vectors and --dist-matrix take ids byte for byte: " p1" is not "p1".
        # The header alone may be padded; a quote sends the file to the row loop.
        base_posts, base_matrix = write_table_fixture(tmp_path)
        records = [json.loads(line) for line in base_posts.read_text("utf-8").splitlines()]
        records[0]["id"] = " p1"
        posts_path = write_jsonl(tmp_path / "padded.jsonl", records)
        matrix_path = tmp_path / "padded.csv"
        with open(matrix_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, quoting=quoting)
            writer.writerow([" post_id ", "topic_0", "topic_1", "topic_2"])
            for post_id, row in zip((" p1", "p2", "p3"), TABLE_MATRIX):
                writer.writerow([post_id, *row])
        row_loop, entered = pipeline._dist_matrix_rows, []
        monkeypatch.setattr(
            pipeline, "_dist_matrix_rows", lambda fh: entered.append(fh) or row_loop(fh)
        )
        padded = run_pipeline(fixture_config(posts_path, matrix_path))
        assert len(entered) == (quoting == csv.QUOTE_NONNUMERIC)
        assert padded.reports == run_pipeline(fixture_config(base_posts, base_matrix)).reports

        stripped = tmp_path / "stripped.csv"
        stripped.write_text(base_matrix.read_text("utf-8"), encoding="utf-8")
        with pytest.raises(StageError) as err:
            run_pipeline(fixture_config(posts_path, stripped))
        assert str(err.value) == f"[topics] {stripped} references unknown post id 'p1'"

    def test_fuzzy_failure_names_its_topic(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("no aggregate")

        monkeypatch.setattr(pipeline, "aggregate_topic", refuse)
        with pytest.raises(StageError) as err:
            run_pipeline(fixture_config(*write_table_fixture(tmp_path)))
        assert str(err.value) == "[fuzzy] topic 0: no aggregate"


def dist_outcome(load, path):
    """The ids and matrix bits a loader returns, or the type and message it raises."""
    try:
        dist = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return dist.post_ids, dist.matrix.shape, dist.matrix.tobytes()


# Left to right these 19 cells total 1.000000001, outside the bound; numpy's
# pairwise sum is 1.0000000009999999, inside it.
_TOTAL_AT_BOUND_CELLS = [
    "0.0682014569126122", "0.07564655861106571", "0.0315119919400467",
    "0.06855061971810426", "0.06758043065105768", "0.060577188064013555",
    "0.057910392254037116", "0.06624963136436014", "0.03169561950015194",
    "0.06143821707158237", "0.024493676102782632", "0.04235759117325434",
    "0.0671312347489827", "0.06025330065317231", "0.02562743153657384",
    "0.08246311548983595", "0.05666096701870159", "0.050640605656810674",
    "0.0010099725328541137",
]
_TOTAL_AT_BOUND = "".join(
    ["post_id", *(f",t{j}" for j in range(19)), "\np0,", ",".join(_TOTAL_AT_BOUND_CELLS), "\n"]
).encode()


@pytest.mark.parametrize("refusal", ["not-a-boolean", "empty-matrix", "bom-only-matrix"])
def test_refusals(tmp_path, refusal):
    empty, bom = tmp_path / "empty.csv", tmp_path / "bom.csv"
    empty.write_bytes(b"")
    bom.write_bytes(b"\xef\xbb\xbf")
    make, message = {
        "not-a-boolean": (lambda: pipeline._parse_bool("maybe"), "not a boolean: 'maybe'"),
        "empty-matrix": (lambda: load_dist_matrix(empty), f"{empty}: empty distribution matrix"),
        "bom-only-matrix": (lambda: load_dist_matrix(bom), f"{bom}: empty distribution matrix"),
    }[refusal]
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


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
        path.write_bytes(b"post_id,t0\ra,1.0\rcaf\xff,1.0\r")  # CR-only line ends
        with pytest.raises(ValueError, match=r"m\.csv, line 3: invalid UTF-8 \(byte 0xff"):
            load_dist_matrix(path)

    @pytest.mark.parametrize("lineterminator", ["\r\n", "\n"], ids=["crlf", "lf"])
    def test_valid_files_take_bulk_path(self, tmp_path, monkeypatch, lineterminator):
        # Written as perfbench/gen.py writes its matrices: csv.writer, repr cells.
        rng = random.Random(7)
        path = tmp_path / "m.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator=lineterminator)
            writer.writerow(["post_id", *(f"topic_{j}" for j in range(6))])
            for i in range(40):
                cells = ["0"] * 6
                for j in rng.sample(range(6), 1 + i % 3):
                    cells[j] = repr(rng.random() + 0.05)
                total = sum(map(float, cells))
                writer.writerow([f"p{i:06d}", *(repr(float(c) / total) for c in cells)])
        expected = dist_outcome(read_rows, path)

        def row_loop(path):
            raise AssertionError("a valid file entered the row loop")

        monkeypatch.setattr(pipeline, "_dist_matrix_rows", row_loop)
        dist = load_dist_matrix(path)
        assert (dist.post_ids, dist.matrix.shape, dist.matrix.tobytes()) == expected

    def test_overflowing_row_sum_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("post_id,t0,t1\na,1e308,1e308\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: non-finite probability"):
            load_dist_matrix(path)

    def test_field_over_csv_limit_goes_to_row_loop(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("post_id,t0\na," + " " * csv.field_size_limit() + "1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"m\.csv, line 2: field larger than field limit"):
            load_dist_matrix(path)

    @pytest.mark.parametrize(
        "data",
        [
            _TOTAL_AT_BOUND,
            b"post_id,t0\np0,1\r \n",  # a lone CR ends a line, so " " is a row
            b'post_id,t0,t1\n"p0",0.5,0.5\n',
        ],
        ids=["total-at-bound", "lone-cr", "quoted-id"],
    )
    def test_doubtful_files_agree_with_row_loop(self, tmp_path, data):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        expected = dist_outcome(read_rows, path)
        assert dist_outcome(load_dist_matrix, path) == expected

    def test_total_at_bound_loads_its_cells(self, tmp_path):
        # Accepted by numpy's pairwise total, on every Python: sum() would add
        # left to right up to 3.11 and reject the row there.
        path = tmp_path / "m.csv"
        path.write_bytes(_TOTAL_AT_BOUND)
        dist = load_dist_matrix(path)
        assert dist.post_ids == ("p0",)
        expected = np.array([[float(cell) for cell in _TOTAL_AT_BOUND_CELLS]])
        assert dist.matrix.tobytes() == expected.tobytes()

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 300), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_row_totals_match_one_row_at_a_time(self, k, n, seed):
        # The bulk path checks mat.sum(axis=1) and the row loop one 1-D row
        # at a time; both apply one rule only if the bits agree.
        rng = np.random.default_rng(seed)
        mat = rng.random((n, k)) * (rng.random((n, k)) < 0.7)
        mat[:, 0] += 1e-3
        mat /= mat.sum(axis=1, keepdims=True)
        totals = mat.sum(axis=1)
        for row, total in zip(mat.tolist(), totals):
            assert np.array(row).sum().tobytes() == total.tobytes()

    def test_row_failing_only_the_pairwise_total_names_line(self, tmp_path):
        # Left to right these 31 cells total 1.0000000009999999, inside the
        # bound; numpy's pairwise sum, which TopicDistribution checks, is
        # 1.000000001, outside it.
        cells = [
            "0.05330480891233829", "0.016046843313510865", "0.04959131186504629",
            "0.03380096610772727", "0.0008649965983574272", "0.04433523706456483",
            "0.024568321737338195", "0.050812087644037815", "0.041159563264863086",
            "7.039993789717082e-05", "0.03040537616741308", "0.053446052882525075",
            "0.015025394100806664", "0.020033234171194163", "0.053622755503025726",
            "0.011770112043206564", "0.03495978794833371", "0.014699214778489378",
            "0.05960239967375349", "0.049477449360289125", "0.027595814675798955",
            "0.004955622081885098", "0.019715998853172028", "0.031290151677902556",
            "0.05746441494717671", "0.006718179754067118", "0.03395915644717151",
            "0.04352558514470943", "0.03372344663178191", "0.05017277523323837",
            "0.033282542478378224",
        ]
        path = tmp_path / "m.csv"
        header = "post_id" + "".join(f",t{j}" for j in range(31))
        path.write_text(f"{header}\np0,{','.join(cells)}\n", encoding="utf-8")
        pattern = r"m\.csv, line 2: probabilities sum to 1\.000000001, expected 1"
        for load in (load_dist_matrix, read_rows):
            with pytest.raises(ValueError, match=pattern):
                load(path)

    @settings(deadline=None, max_examples=200)
    @given(
        st.one_of(
            st.lists(st.floats(), min_size=1, max_size=6),
            st.lists(st.floats(0, 1), min_size=1, max_size=6)
            .filter(lambda row: sum(row) > 0)
            .map(lambda row: [x / sum(row) for x in row]),
        )
    )
    def test_reader_refuses_what_topic_distribution_refuses(self, tmp_path_factory, row):
        # One row rule: a single-row file and the TopicDistribution of the same
        # cells are accepted alike, or refused for the same reason.
        path = tmp_path_factory.getbasetemp() / "one-row.csv"
        header = "post_id" + "".join(f",t{j}" for j in range(len(row)))
        path.write_text(f"{header}\np,{','.join(map(repr, row))}\n", encoding="utf-8")
        direct = dist_outcome(lambda _: topics_mod.TopicDistribution(("p",), np.array([row])), path)
        read = dist_outcome(load_dist_matrix, path)
        if direct[0] is ValueError:
            assert read == (ValueError, direct[1].replace("row for post 'p'", f"{path}, line 2"))
        else:
            assert read == direct

    @settings(deadline=None, max_examples=300)
    @given(dist_matrix_bytes())
    def test_bulk_path_agrees_with_row_loop(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz-dist.csv"
        path.write_bytes(data)
        expected = dist_outcome(read_rows, path)
        assert dist_outcome(load_dist_matrix, path) == expected

    @pytest.mark.parametrize("data", [b"post_id,t0,t1\n", b"post_id,t0\r\n\n\r\n"])
    def test_header_only_file_warns_nothing(self, tmp_path, data):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = load_dist_matrix(path)
        assert dist.post_ids == () and dist.matrix.shape == (0, data.count(b","))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_loads_on_bulk_path(self, tmp_path, monkeypatch):
        # The file is read once: a pipe cannot be read a second time.
        path = tmp_path / "m.fifo"
        os.mkfifo(path)
        text = "post_id,t0,t1\na,0.25,0.75\nb,1,0\n"
        writer = threading.Thread(target=path.write_text, args=(text, "utf-8"), daemon=True)
        writer.start()
        monkeypatch.setattr(pipeline, "_dist_matrix_rows", refuse_row_loop)
        dist = load_dist_matrix(path)
        writer.join(timeout=10)
        assert dist.post_ids == ("a", "b")
        assert dist.matrix.tolist() == [[0.25, 0.75], [1.0, 0.0]]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize(
        "data", [b'post_id,t0,t1\n"a",0.5,0.5\n', b"post_id,t0\ncaf\xff,1\n"],
        ids=["quoted-id", "invalid-utf8"],
    )
    def test_doubtful_pipe_fails_instead_of_waiting(self, tmp_path, data):
        # The bulk pass has consumed the pipe, so the row loop cannot start over.
        message = load_from_pipe("topicmood.pipeline:load_dist_matrix", data, tmp_path)
        assert message == "ValueError: PIPE: not a plain matrix, and cannot be reread row by row"

    def test_bulk_path_holds_about_one_matrix(self, tmp_path, monkeypatch):
        # loadtxt grows one 5,000 x 200 array; the text and its line list are never held.
        path = tmp_path / "m.csv"
        n, k = 5000, 200
        lines = ["post_id" + "".join(f",t{j}" for j in range(k))]
        for i in range(n):
            lines.append(f"p{i}," + ",".join("1" if j == i % k else "0" for j in range(k)))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        del lines
        monkeypatch.setattr(pipeline, "_dist_matrix_rows", refuse_row_loop)
        tracemalloc.start()
        try:
            dist = load_dist_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.matrix.shape == (n, k)
        assert peak <= 1.35 * dist.matrix.nbytes, peak / dist.matrix.nbytes


def read_rows(path):
    """The per-row reader alone, on a file opened as load_dist_matrix opens it."""
    with corpus.open_text(path) as fh:
        return pipeline._dist_matrix_rows(fh)


def refuse_row_loop(path):
    raise AssertionError("a plain file entered the row loop")


def dense_rows(n, k):
    """A DocMatrix of n random rows p0, p1, ... of width k."""
    matrix = np.random.default_rng(0).random((n, k))
    return topics_mod.DocMatrix(tuple(f"p{i}" for i in range(n)), (), matrix)


class TestKeepLive:
    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 30), st.integers(1, 4), st.data())
    def test_matches_fancy_indexing(self, n, k, data):
        supplied = dense_rows(n, k)
        live = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        keep = sorted(live)
        expected = supplied.matrix[keep]
        docs = [SimpleNamespace(post_id=f"p{i}") for i in [*live, n]]
        posts = [SimpleNamespace(id=pid) for pid in [*supplied.post_ids, f"p{n}"]]
        kept, rows = pipeline._keep_live(supplied, "m", posts, docs, range(len(docs)))
        assert kept.post_ids == tuple(f"p{i}" for i in keep)
        assert kept.matrix.tobytes() == expected.tobytes()
        assert [docs[i].post_id for i in rows] == list(kept.post_ids)

    def test_live_rows_stay_in_the_loaded_array(self):
        n, k = 5000, 200
        supplied = dense_rows(n, k)
        expected = supplied.matrix[::2].copy()
        docs = [SimpleNamespace(post_id=f"p{i}") for i in range(0, n, 2)]
        posts = [SimpleNamespace(id=pid) for pid in supplied.post_ids]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept, _ = pipeline._keep_live(supplied, "m", posts, docs, range(len(docs)))
            added = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert added <= 0.2 * supplied.matrix.nbytes, added / supplied.matrix.nbytes
        assert np.shares_memory(kept.matrix, supplied.matrix)
        assert kept.matrix.tobytes() == expected.tobytes()


_TEXT_OF_KIND = {  # at --min-chars 20
    "short": "tiny",
    "empty": "@user #tag http://x.example 1234 !!!",
    "live": "the tram line keeps improving downtown",
}


class TestPositionalHandOff:
    """Rows of a supplied matrix reach aggregation as the posts their ids name."""

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_topics_aggregate_the_posts_the_file_names(self, tmp_path_factory, data):
        kinds = data.draw(
            st.lists(st.sampled_from(sorted(_TEXT_OF_KIND)), min_size=1, max_size=10)
            .filter(lambda kinds: "live" in kinds)
        )
        ids = [f"p{i}" for i in range(len(kinds))]
        live_ids = {pid for pid, kind in zip(ids, kinds) if kind == "live"}
        polarity = {pid: data.draw(st.floats(-1, 1)) for pid in ids}
        weight = {pid: data.draw(st.floats(0.125, 8)) for pid in ids}
        # A random subset of the ids, short and empty ones included, in shuffled order.
        covered = data.draw(
            st.lists(st.sampled_from(ids), min_size=1, unique=True)
            .filter(lambda covered: live_ids.intersection(covered))
        )
        k = data.draw(st.integers(1, 3))
        cells = {}
        for pid in covered:
            raw = data.draw(st.lists(st.floats(0.01, 1), min_size=k, max_size=k))
            cells[pid] = [x / sum(raw) for x in raw]

        base = tmp_path_factory.getbasetemp()
        records = [
            dict(id=pid, text=_TEXT_OF_KIND[kind], polarity=polarity[pid], weight=weight[pid])
            for pid, kind in zip(ids, kinds)
        ]
        posts_path = write_jsonl(base / "handoff.jsonl", records)
        matrix_path = base / "handoff.csv"
        lines = [",".join(["post_id", *(f"t{j}" for j in range(k))])]
        lines += [",".join([pid, *map(repr, cells[pid])]) for pid in covered]
        matrix_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        result = run_pipeline(fixture_config(posts_path, matrix_path, min_chars=20))
        meta = result.metadata
        assert meta["documents_in"] == (
            meta["contributing"] + meta["filtered_short"]
            + meta["empty_after_cleaning"] + meta["excluded"]
        )
        assert meta["excluded_doc_ids"] == sorted(live_ids.difference(covered))
        order = [pid for pid in covered if pid in live_ids]
        for report in result.reports:
            tfn, _ = aggregate_topic(
                [polarity[pid] for pid in order],
                [cells[pid][report.topic_id] for pid in order],
                [weight[pid] for pid in order],
            )
            assert [x.hex() for x in astuple(report.tfn)] == [x.hex() for x in astuple(tfn)]


class _Summed(np.ndarray):
    """A topic column whose products record their sums: the totals the topics stage takes."""

    totals: list[float] = []

    def sum(self, *args, **kwargs):
        total = float(super().sum(*args, **kwargs))
        _Summed.totals.append(total)
        return total


_CELL = st.sampled_from([0.0, 5e-324]) | st.floats(0.01, 1)
_POST_WEIGHT = st.sampled_from([5e-324, MAX / 4, MAX / 2, MAX, *IN_RANGE_WEIGHTS[:2]]) | st.floats(
    5e-324, MAX
)


class TestTopicTotals:
    """The topics stage sums each topic's weight as the fuzzy stage does, with no BLAS."""

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_topics_stage_refuses_exactly_the_fuzzy_total_faults(self, tmp_path_factory, data):
        n, k = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 3))
        rows = []
        for _ in range(n):
            raw = data.draw(st.lists(_CELL, min_size=k, max_size=k))
            raw[data.draw(st.integers(0, k - 1))] += data.draw(st.floats(0.01, 1))
            rows.append([x / sum(raw) for x in raw])
        weights = data.draw(st.lists(_POST_WEIGHT, min_size=n, max_size=n))
        polarities = data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))

        base = tmp_path_factory.getbasetemp()
        records = [
            {"id": f"p{i}", "text": f"post {i}", "weight": w, "polarity": x}
            for i, (w, x) in enumerate(zip(weights, polarities))
        ]
        posts_path = write_jsonl(base / "totals.jsonl", records)
        matrix_path = base / "totals.csv"
        lines = [",".join(["post_id", *(f"t{j}" for j in range(k))])]
        lines += [",".join([f"p{i}", *map(repr, row)]) for i, row in enumerate(rows)]
        matrix_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        _Summed.totals = []
        summed = lambda dist, topic: dist.matrix[:, topic].view(_Summed)  # noqa: E731
        with mock.patch.object(topics_mod.TopicDistribution, "column", summed):
            try:
                run_pipeline(fixture_config(posts_path, matrix_path))
                error = None
            except StageError as exc:
                error = str(exc)

        # The fuzzy stage's total for each topic, up to the first it refuses.
        expected, matrix = [], np.array(rows)
        for topic in range(k):
            fault = refusal(aggregate_topic, polarities, matrix[:, topic], weights)
            if fault is None:
                expected.append(float(check_sample(polarities, matrix[:, topic], weights)[2]))
                continue
            assert fault in ("total weight must be strictly positive", "total weight must be finite")
            expected.append(0.0 if fault.endswith("positive") else math.inf)
            assert error.startswith(f"[topics] {matrix_path}: topic {topic} (column {topic + 2})")
            break
        else:
            assert error is None
        assert [x.hex() for x in _Summed.totals] == [x.hex() for x in expected]


def refusal(make, *args):
    """The message ``make(*args)`` raises ValueError with, else None."""
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return None


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

    @pytest.mark.parametrize("source", ["tfidf", "vectors"])
    def test_term_counts_taken_once_over_shared_tokens(self, tmp_path, monkeypatch, source):
        records = three_group_records(n_per_group=6)
        cfg = RunConfig(input_path=write_jsonl(tmp_path / "posts.jsonl", records), n_topics=3)
        if source == "vectors":
            cfg.vectors_path = tmp_path / "vectors.jsonl"
            lines = [json.dumps({"id": r["id"], "vector": [1.0, i % 3, i % 5]}) for i, r in
                     enumerate(records)]
            cfg.vectors_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls = []
        count = topics_mod._term_counts

        def counted(docs):
            calls.append(docs)
            return count(docs)

        monkeypatch.setattr(topics_mod, "_term_counts", counted)
        run_pipeline(cfg)
        assert len(calls) == 1
        tokens = [token for doc in calls[0] for token in doc.tokens]
        objects = {}  # each token's value -> the first object seen with it
        assert all(objects.setdefault(token, token) is token for token in tokens)
        assert len(objects) < len(tokens)  # some token recurs

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

    def test_vector_with_unknown_post_id_names_file(self, tmp_path):
        # Ids are taken as written, so the padded " p3" names no post.
        records = [
            {"id": f"p{i}", "text": f"completely identical filler words repeated for every single post number {i}"}
            for i in range(4)
        ]
        posts_path = write_jsonl(tmp_path / "posts.jsonl", records)
        vec_path = tmp_path / "vectors.jsonl"
        rows = [json.dumps({"id": pid, "vector": [1.0, 0.5]}) for pid in ("p0", "p1", " p3")]
        vec_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

        cfg = RunConfig(input_path=posts_path, n_topics=2, seed=0, vectors_path=vec_path)
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert str(err.value) == f"[topics] {vec_path} references unknown post id ' p3'"


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
            ("seed", -1),
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

    def test_repeated_topic_id_drawn_once(self, tmp_path):
        path = emit_tfn_svg(sample_reports(), tmp_path / "t.svg", selection=[1, 0, 1, 1])
        root = ET.parse(path).getroot()
        assert len(root.findall(f"{SVG_NS}polyline")) == 2
        legend = [e.text for e in root.findall(f"{SVG_NS}text") if e.get("font-size") == "12"]
        assert [text.split(":")[0] for text in legend] == ["1", "0"]

    def test_empty_selection_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no topics"):
            emit_tfn_svg(sample_reports(), tmp_path / "t.svg", selection=[])
