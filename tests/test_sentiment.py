"""Tests for lexicon parsing and polarity scoring."""

import gc
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topicmood.corpus import CleanDoc, Post
from topicmood.sentiment import (
    COMPUTED,
    SUPPLIED,
    Lexicon,
    LexiconError,
    PolarityScore,
    default_lexicon,
    load_lexicon,
    resolve_polarity,
    score_polarity,
)

from fuzzfiles import assert_loads_or_names_line, lexicon_bytes
from oracles import one_token_polarity

LEX = Lexicon(
    entries={"good": 0.7, "bad": -0.7, "great": 0.8},
    negators=frozenset({"not", "never"}),
    intensifiers={"very": 1.5, "barely": 0.4},
)


def doc(*tokens):
    return CleanDoc("d", tuple(tokens))


class TestLexiconValidation:
    def test_polarity_range(self):
        with pytest.raises(LexiconError):
            Lexicon(entries={"good": 1.5})

    def test_intensifier_positive(self):
        with pytest.raises(LexiconError):
            Lexicon(entries={}, intensifiers={"very": 0.0})

    @pytest.mark.parametrize("mult", [float("nan"), float("inf")])
    def test_intensifier_finite(self, mult):
        with pytest.raises(LexiconError, match="finite"):
            Lexicon(entries={}, intensifiers={"very": mult})

    def test_overlapping_word_sets(self):
        with pytest.raises(LexiconError, match="share"):
            Lexicon(entries={"not": 0.1}, negators=frozenset({"not"}))
        with pytest.raises(LexiconError, match="share"):
            Lexicon(entries={}, negators=frozenset({"very"}), intensifiers={"very": 1.5})

    def test_default_intensifiers_read_only_and_unshared(self):
        a = Lexicon(entries={"good": 0.5})
        b = Lexicon(entries={"good": 0.5})
        assert a.intensifiers == {}
        with pytest.raises(TypeError):
            a.intensifiers["very"] = 1.5
        # A mappingproxy's only referent is the dict it wraps.
        assert gc.get_referents(a.intensifiers)[0] is not gc.get_referents(b.intensifiers)[0]


class TestLoadLexicon:
    def test_small_file(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("good\t0.7\nbad\t-0.7\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.entries == {"good": 0.7, "bad": -0.7}
        assert not lex.negators and not lex.intensifiers

    def test_sections(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text(
            "# comment\ngood\t0.7\n[negators]\nnot\n[intensifiers]\nvery\t1.5\n",
            encoding="utf-8",
        )
        lex = load_lexicon(path)
        assert lex.entries == {"good": 0.7}
        assert lex.negators == {"not"}
        assert lex.intensifiers == {"very": 1.5}

    def test_out_of_range_polarity_names_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("good\t1.5\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="line 1"):
            load_lexicon(path)

    @pytest.mark.parametrize("mult", ["nan", "inf", "0"])
    def test_bad_multiplier_names_line(self, tmp_path, mult):
        path = tmp_path / "lex.txt"
        path.write_text(f"good\t0.7\n[intensifiers]\nvery\t{mult}\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="line 3: multiplier must be finite"):
            load_lexicon(path)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes(b"good\t0.7\ncaf\xff\t0.5\n")
        with pytest.raises(LexiconError, match=r"lex\.txt, line 2: invalid UTF-8 \(byte 0xff"):
            load_lexicon(path)
        path.write_bytes(b"good\t0.7\r# CR-only line ends\rcaf\xff\t0.5\r")
        with pytest.raises(LexiconError, match=r"lex\.txt, line 3: invalid UTF-8 \(byte 0xff"):
            load_lexicon(path)

    def test_duplicate_word_names_both_lines(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("good\t0.7\ngood\t0.5\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="line 2.*line 1"):
            load_lexicon(path)

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("", encoding="utf-8")
        lex = load_lexicon(path)
        assert not lex.entries
        assert score_polarity(doc("anything"), lex).value == 0.0

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("good 0.7\n", encoding="utf-8")  # space, not tab
        with pytest.raises(LexiconError, match="line 1"):
            load_lexicon(path)

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("[emoji]\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="section"):
            load_lexicon(path)

    def test_bundled_lexicon_loads(self):
        lex = default_lexicon()
        assert lex.entries["good"] == 0.7
        assert "not" in lex.negators
        assert lex.intensifiers["very"] == 1.5

    @settings(deadline=None, max_examples=200)
    @given(
        st.sampled_from([("entries", "entry"), ("intensifiers", "intensifier")]),
        st.lists(st.one_of(st.floats(-1.5, 1.5), st.floats()), max_size=6),
    )
    def test_reader_refuses_what_lexicon_refuses(self, tmp_path_factory, section, numbers):
        # A file with one numeric section and the Lexicon of the same words are
        # refused alike: the same first word, for the same reason.
        name, label = section
        words = {f"w{i}": x for i, x in enumerate(numbers)}
        path = tmp_path_factory.getbasetemp() / "one-section.txt"
        lines = [f"[{name}]", *(f"{word}\t{x!r}" for word, x in words.items())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outcomes = []
        for build in (lambda: Lexicon(**{"entries": {}, name: words}), lambda: load_lexicon(path)):
            try:
                build()
            except LexiconError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(None)
        direct, read = outcomes
        if direct is None:
            assert read is None
        else:
            word, reason = re.fullmatch(rf"{label} '(w\d+)': (.*)", direct).groups()
            assert read == f"{path}, line {int(word[1:]) + 2}: {reason}"  # line 1 is the header

    @settings(deadline=None, max_examples=200)
    @given(lexicon_bytes())
    def test_any_file_loads_or_names_line(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz-lexicon.txt"
        path.write_bytes(data)
        assert_loads_or_names_line(load_lexicon, path, LexiconError)


@pytest.mark.parametrize("refusal", ["unknown-source", "line-without-a-word"])
def test_refusals(tmp_path, refusal):
    # A lexicon line is stripped before it is split, so no line has an empty word:
    # a line of a tab and a number has no word and no tab left.
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("\t0.5\n", encoding="utf-8")
    make, message = {
        "unknown-source": (lambda: PolarityScore("p1", 0.0, "guessed"), "unknown source 'guessed'"),
        "line-without-a-word": (
            lambda: load_lexicon(lexicon), f"{lexicon}, line 1: expected 'word<TAB>number'"
        ),
    }[refusal]
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


class TestScorePolarity:
    def test_single_hit_identity(self):
        assert score_polarity(doc("good"), LEX).value == 0.7

    def test_negation_flips_sign(self):
        assert score_polarity(doc("not", "good"), LEX).value == -0.7

    def test_no_hits_scores_zero(self):
        score = score_polarity(doc("the", "sky"), LEX)
        assert score.value == 0.0 and score.source == COMPUTED

    def test_mean_over_hits(self):
        assert score_polarity(doc("good", "bad"), LEX).value == 0.0
        assert score_polarity(doc("good", "great"), LEX).value == pytest.approx(0.75)

    def test_hits_added_left_to_right(self):
        # sum() from Python 3.12 on is compensated and gives 0.6 / 3 here.
        lex = Lexicon({"a": 0.1, "b": 0.2, "c": 0.3})
        assert score_polarity(doc("a", "b", "c"), lex).value == ((0.1 + 0.2) + 0.3) / 3

    def test_double_negation_cancels(self):
        # Only the token just before a hit counts: "never" negates, "not" does not reach.
        assert score_polarity(doc("not", "never", "good"), LEX).value == -0.7

    def test_intensifier_scales(self):
        assert score_polarity(doc("very", "good"), LEX).value == pytest.approx(1.0)  # clamped
        assert score_polarity(doc("barely", "good"), LEX).value == pytest.approx(0.28)

    def test_negator_and_intensifier_combine(self):
        # "very" is the token before the hit; "not" is one token too far.
        assert score_polarity(doc("not", "very", "good"), LEX).value == 1.0  # 0.7 * 1.5 clamped

    def test_window_limits_negation_reach(self):
        assert score_polarity(doc("not", "the", "good"), LEX).value == 0.7

    @settings(deadline=None, max_examples=300)
    @given(
        values=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        mults=st.tuples(*[st.floats(0.01, 4.0)] * 2),
        tokens=st.lists(
            st.sampled_from(["good", "bad", "meh", "not", "never", "very", "barely", "the"]),
            max_size=12,
        ),
    )
    @example(values=(0.7, -0.7, 0.1), mults=(1.5, 0.4), tokens=["not", "not", "good"])
    @example(values=(0.7, -0.7, 0.1), mults=(1.5, 0.4), tokens=["very", "not", "good"])
    @example(values=(0.7, -0.7, 0.1), mults=(1.5, 0.4), tokens=["not", "very", "good"])
    def test_matches_one_token_oracle(self, values, mults, tokens):
        entries = dict(zip(("good", "bad", "meh"), values))
        negators = frozenset({"not", "never"})
        intensifiers = dict(zip(("very", "barely"), mults))
        lex = Lexicon(entries, negators, intensifiers)
        got = score_polarity(CleanDoc("d", tuple(tokens)), lex).value
        assert got.hex() == one_token_polarity(tokens, entries, negators, intensifiers).hex()

    def test_clamped_to_unit_interval(self):
        wide = Lexicon(entries={"great": 0.9}, intensifiers={"very": 3.0})
        assert score_polarity(doc("very", "great"), wide).value == 1.0

    def test_monotonic_example(self):
        assert score_polarity(doc("good", "good"), LEX).value >= score_polarity(
            doc("good", "bad"), LEX
        ).value

    def test_determinism(self):
        tokens = ("not", "good", "very", "bad", "great")
        a = score_polarity(CleanDoc("d", tokens), LEX)
        b = score_polarity(CleanDoc("d", tokens), LEX)
        assert a == b

    def test_antisymmetry_under_lexicon_negation(self):
        rng = np.random.default_rng(41)
        words = [f"w{i}" for i in range(12)]
        for _ in range(200):
            entries = {w: float(rng.uniform(-1, 1)) for w in words}
            lex = Lexicon(entries, frozenset({"not"}), {"very": 1.5})
            neg_lex = Lexicon({w: -p for w, p in entries.items()}, frozenset({"not"}), {"very": 1.5})
            pool = words + ["not", "very", "filler"]
            tokens = tuple(pool[int(i)] for i in rng.integers(0, len(pool), size=10))
            d = CleanDoc("d", tokens)
            assert score_polarity(d, neg_lex).value == -score_polarity(d, lex).value

    def test_range_on_random_inputs(self):
        rng = np.random.default_rng(42)
        words = [f"w{i}" for i in range(8)]
        for _ in range(200):
            entries = {w: float(rng.uniform(-1, 1)) for w in words}
            intens = {"very": float(rng.uniform(0.1, 4.0))}
            lex = Lexicon(entries, frozenset({"not"}), intens)
            pool = words + ["not", "very"]
            tokens = tuple(pool[int(i)] for i in rng.integers(0, len(pool), size=12))
            value = score_polarity(CleanDoc("d", tokens), lex).value
            assert -1.0 <= value <= 1.0


class TestResolvePolarity:
    def test_supplied_passthrough(self):
        post = Post("p", "whatever text", polarity=0.5)
        score = resolve_polarity(post, doc("bad"), LEX)
        assert score == PolarityScore("p", 0.5, SUPPLIED)

    def test_computed_delegation(self):
        post = Post("p", "good stuff here")
        score = resolve_polarity(post, CleanDoc("p", ("good",)), LEX)
        assert score.value == 0.7 and score.source == COMPUTED

    def test_empty_doc_scores_zero(self):
        post = Post("p", "@only #tags")
        score = resolve_polarity(post, CleanDoc("p", ()), LEX)
        assert score.value == 0.0 and score.source == COMPUTED
