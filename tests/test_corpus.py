"""Tests for post loading and text preprocessing."""

import json
from importlib import resources

import numpy as np
import pytest

from topicmood.corpus import (
    CleanDoc,
    CorpusError,
    Post,
    default_stopwords,
    filter_short,
    load_posts,
    load_stopwords,
    preprocess,
)

STOPWORDS = {"the", "a", "is", "and", "of", "to"}


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


class TestPostValidation:
    def test_defaults(self):
        p = Post("x", "hello")
        assert p.weight == 1.0 and p.polarity is None

    def test_empty_id(self):
        with pytest.raises(CorpusError):
            Post("", "hello")

    def test_bad_weight(self):
        with pytest.raises(CorpusError):
            Post("x", "hello", weight=0.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight(self, weight):
        with pytest.raises(CorpusError, match="finite"):
            Post("x", "hello", weight=weight)

    def test_bad_polarity(self):
        with pytest.raises(CorpusError):
            Post("x", "hello", polarity=1.5)


class TestLoadPostsJsonl:
    def test_three_records_in_file_order(self, tmp_path):
        path = write_jsonl(
            tmp_path / "posts.jsonl",
            [
                {"id": "a", "text": "first"},
                {"id": "b", "text": "second", "weight": 2.5},
                {"id": "c", "text": "third", "polarity": -0.25},
            ],
        )
        posts = load_posts(path, "jsonl")
        assert [p.id for p in posts] == ["a", "b", "c"]
        assert posts[0].weight == 1.0 and posts[0].polarity is None
        assert posts[1].weight == 2.5
        assert posts[2].polarity == -0.25

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_posts(path, "jsonl") == []

    def test_polarity_out_of_range_names_line(self, tmp_path):
        path = write_jsonl(
            tmp_path / "posts.jsonl",
            [{"id": "a", "text": "ok"}, {"id": "b", "text": "bad", "polarity": 1.5}],
        )
        with pytest.raises(CorpusError, match="line 2"):
            load_posts(path, "jsonl")

    def test_duplicate_id_names_line(self, tmp_path):
        path = write_jsonl(
            tmp_path / "posts.jsonl",
            [{"id": "a", "text": "x"}, {"id": "a", "text": "y"}],
        )
        with pytest.raises(CorpusError, match="line 2.*duplicate"):
            load_posts(path, "jsonl")

    def test_missing_text(self, tmp_path):
        path = write_jsonl(tmp_path / "posts.jsonl", [{"id": "a"}])
        with pytest.raises(CorpusError, match="text"):
            load_posts(path, "jsonl")

    def test_non_positive_weight(self, tmp_path):
        path = write_jsonl(tmp_path / "posts.jsonl", [{"id": "a", "text": "x", "weight": -1}])
        with pytest.raises(CorpusError, match="weight"):
            load_posts(path, "jsonl")

    @pytest.mark.parametrize("weight", ["NaN", "Infinity"])
    def test_non_finite_weight_names_line(self, tmp_path, weight):
        path = tmp_path / "posts.jsonl"
        path.write_text(
            '{"id": "a", "text": "x"}\n{"id": "b", "text": "y", "weight": %s}\n' % weight,
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="line 2: weight must be finite"):
            load_posts(path, "jsonl")

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{oops\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_posts(path, "jsonl")

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_bytes(b'{"id": "a", "text": "x"}\n{"id": "b", "text": "caf\xff"}\n')
        with pytest.raises(CorpusError, match=r"posts\.jsonl, line 2: invalid UTF-8"):
            load_posts(path, "jsonl")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n\n{"id": "b", "text": "y"}\n', encoding="utf-8")
        assert [p.id for p in load_posts(path, "jsonl")] == ["a", "b"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            load_posts(tmp_path / "nope.jsonl", "jsonl")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(CorpusError, match="format"):
            load_posts(tmp_path / "posts.xml", "xml")


class TestLoadPostsCsv:
    def test_roundtrip_with_optionals(self, tmp_path):
        path = tmp_path / "posts.csv"
        path.write_text(
            "id,text,weight,polarity\n"
            "a,first post,,\n"
            "b,second post,3.0,0.5\n",
            encoding="utf-8",
        )
        posts = load_posts(path, "csv")
        assert [p.id for p in posts] == ["a", "b"]
        assert posts[0].weight == 1.0 and posts[0].polarity is None
        assert posts[1].weight == 3.0 and posts[1].polarity == 0.5

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "posts.csv"
        path.write_text("id,weight\na,1\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="text"):
            load_posts(path, "csv")

    def test_non_numeric_weight_names_line(self, tmp_path):
        path = tmp_path / "posts.csv"
        path.write_text("id,text,weight\na,post one,1\nb,post two,heavy\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 3"):
            load_posts(path, "csv")

    def test_nan_weight_names_line(self, tmp_path):
        path = tmp_path / "posts.csv"
        path.write_text("id,text,weight\na,post one,1\nb,post two,nan\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 3: weight must be finite"):
            load_posts(path, "csv")

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "posts.csv"
        path.write_bytes(b'id,text\na,"one\ntwo"\nb,caf\xe9\n')
        # The quoted field spans lines 2-3, so the bad byte is on line 4.
        with pytest.raises(CorpusError, match=r"posts\.csv, line 4: invalid UTF-8"):
            load_posts(path, "csv")

    def test_polarity_range_checked(self, tmp_path):
        path = tmp_path / "posts.csv"
        path.write_text("id,text,polarity\na,post,-2\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="polarity"):
            load_posts(path, "csv")


class TestFilterShort:
    def test_boundary_at_min_chars(self):
        posts = [Post(str(n), "x" * n) for n in (59, 60, 61)]
        kept = filter_short(posts, 60)
        assert [len(p.text) for p in kept] == [60, 61]

    def test_min_chars_one_keeps_everything(self):
        posts = [Post("a", "hi"), Post("b", "yo")]
        assert filter_short(posts, 1) == posts

    def test_all_too_short(self):
        assert filter_short([Post("a", "hi")], 10) == []

    def test_idempotent(self):
        posts = [Post(str(n), "x" * n) for n in range(1, 100, 7)]
        once = filter_short(posts, 60)
        assert filter_short(once, 60) == once

    def test_invalid_min_chars(self):
        with pytest.raises(ValueError):
            filter_short([], 0)


# Hand-derived expectations for the cleaning rules (applied in order: URLs,
# #/@ tokens, non-letters to spaces, lowercase, split, stopword drop).
PREPROCESS_TABLE = [
    ("Check https://x.co NOW! #city @mayor roads", ["check", "now", "roads"]),
    ("hello world", ["hello", "world"]),
    ("@user #tag http://a.b", []),
    ("The ROAD is CLOSED!!!", ["road", "closed"]),
    ("Visit www.example.com for info", ["visit", "for", "info"]),
    ("Great event!!! 100% recommended", ["great", "event", "recommended"]),
    ("email me at test@example.com please", ["email", "me", "at", "test", "example", "com", "please"]),
    ("multi-word hyphen-case stays split", ["multi", "word", "hyphen", "case", "stays", "split"]),
    ("#OnlyHashtags #Here", []),
    ("Ends with url http://x.co", ["ends", "with", "url"]),
    ("http://start.co then text", ["then", "text"]),
    ("weird   spacing\tand\ttabs", ["weird", "spacing", "tabs"]),
    ("CAFÉ naïve Zürich", ["café", "naïve", "zürich"]),
    ("don't stop believing", ["don", "t", "stop", "believing"]),
    ("a to of and is the", []),
    ("Numbers 123 456 mixed789with letters", ["numbers", "mixed", "with", "letters"]),
    ("@Mayor thanks for fixing potholes on 5th street", ["thanks", "for", "fixing", "potholes", "on", "th", "street"]),
    ("short", ["short"]),
    ("UPPER lower MiXeD", ["upper", "lower", "mixed"]),
    ("underscore_token and snake_case", ["underscore", "token", "snake", "case"]),
]


class TestPreprocess:
    @pytest.mark.parametrize("text,expected", PREPROCESS_TABLE)
    def test_hand_derived_tokens(self, text, expected):
        doc = preprocess(Post("t", text), STOPWORDS)
        assert list(doc.tokens) == expected

    @pytest.mark.parametrize("text,expected", PREPROCESS_TABLE)
    def test_idempotent_on_table(self, text, expected):
        once = preprocess(Post("t", text), STOPWORDS)
        twice = preprocess(Post("t", once.clean_text), STOPWORDS)
        assert twice.tokens == once.tokens

    def test_empty_stopword_list_identity(self):
        doc = preprocess(Post("t", "hello world"), set())
        assert list(doc.tokens) == ["hello", "world"]

    def test_empty_doc_flagged(self):
        doc = preprocess(Post("t", "@user #tag http://a.b"), STOPWORDS)
        assert doc.is_empty and doc.tokens == ()

    def test_clean_text_roundtrip(self):
        doc = preprocess(Post("t", "The quick brown fox!"), STOPWORDS)
        assert tuple(doc.clean_text.split(" ")) == doc.tokens

    def test_tokens_are_letters_only_and_lowercase(self):
        rng = np.random.default_rng(31)
        pool = ["Word", "#tag", "@who", "http://u.rl", "a1b2", "x,y", "ALL", "the", "é'è", "55", "_"]
        for _ in range(200):
            parts = [pool[int(i)] for i in rng.integers(0, len(pool), size=8)]
            doc = preprocess(Post("t", " ".join(parts)), STOPWORDS)
            for token in doc.tokens:
                assert token
                assert token == token.lower()
                assert all(ch.isalpha() for ch in token)
                assert token not in STOPWORDS

    def test_token_order_preserved(self):
        doc = preprocess(Post("t", "zebra yak xylophone walrus"), set())
        assert list(doc.tokens) == ["zebra", "yak", "xylophone", "walrus"]


class TestStopwordFiles:
    def test_load_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nThe\n\nand\n", encoding="utf-8")
        assert load_stopwords(path) == {"the", "and"}

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"the\ncaf\xff\n")
        with pytest.raises(CorpusError, match=r"stop\.txt, line 2: invalid UTF-8 \(byte 0xff"):
            load_stopwords(path)

    def test_default_list_keeps_sentiment_markers(self):
        words = default_stopwords()
        bundled = resources.files("topicmood.data").joinpath("stopwords_en.txt")
        with resources.as_file(bundled) as path:
            assert words == load_stopwords(path) and len(words) == 110
        assert "the" in words
        for marker in ("not", "no", "never", "very", "really"):
            assert marker not in words


class TestCleanDoc:
    def test_clean_text_join(self):
        doc = CleanDoc("x", ("alpha", "beta"))
        assert doc.clean_text == "alpha beta"
        assert not doc.is_empty
