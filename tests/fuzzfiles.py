"""Hypothesis strategies for input files around the valid shape, and the
boundary rule every loader keeps: a file loads, or raises the loader's own
error with a ``{path}, line N: ...`` message."""

import csv
import re

from hypothesis import strategies as st

# Lines that json.loads refuses, or that hold no JSON object.
DEEP_NESTING = "[" * 100_000  # json raises RecursionError, not JSONDecodeError
# An integer over the 4,300 digits int() parses: json raises a bare ValueError.
LONG_INTEGER = '{"id": "n", "text": "x", "weight": 1%s}' % ("0" * 4400)
_ODD_JSON_LINES = [
    "{oops", "[1, 2]", "null", '"text"', "{}", " ", "\ufeff{}", "{} {}",
    DEEP_NESTING, '{"id": "d", "vector": ' + "[" * 100_000, LONG_INTEGER,
]
# JSON values around the valid ones: wrong types, NaN and infinities, huge
# integers, subnormal and overflowing floats.
_ODD_NUMBERS = [
    "0", "-1", "0.5", "-0.0", "1.5", "1e-320", "1e309", "NaN", "Infinity", "-Infinity",
    "1" + "0" * 400, "1" + "0" * 4400, "true", "null", '"1"', "[1]", "{}",
]
_ODD_IDS = ['"p0"', '""', '" "', '"\\ud800"', "1", "null", "true", '["p1"]']


def _line_ends(draw, lines):
    """Join lines with mixed line ends, and now and then put in invalid UTF-8."""
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _json_record(draw, i, body):
    """One JSON-lines record: an odd raw line, or an object with odd members."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(_ODD_JSON_LINES))
    post_id = draw(st.sampled_from([f'"p{i}"'] * 4 + _ODD_IDS))
    return "{" + ", ".join([f'"id": {post_id}', *body]) + "}"


@st.composite
def posts_jsonl_bytes(draw):
    """JSON-lines post files with odd ids, texts, weights and polarities."""
    lines = []
    for i in range(draw(st.integers(0, 4))):
        text = draw(st.sampled_from(['"a post"'] * 4 + ['""', "1", "null", "[]"]))
        body = [f'"text": {text}']
        for name in ("weight", "polarity"):
            if draw(st.booleans()):
                body.append(f'"{name}": {draw(st.sampled_from(_ODD_NUMBERS))}')
        lines.append(_json_record(draw, i, body))
    return _line_ends(draw, lines)


@st.composite
def vectors_jsonl_bytes(draw):
    """JSON-lines vector files with odd ids, components and lengths."""
    lines = []
    for i in range(draw(st.integers(0, 4))):
        components = draw(st.lists(st.sampled_from(_ODD_NUMBERS + ["1"] * 8), max_size=3))
        vector = f"[{', '.join(components)}]"
        vector = draw(st.sampled_from([vector] * 6 + ['"v"', "null", "[[1]]"]))
        lines.append(_json_record(draw, i, [f'"vector": {vector}']))
    return _line_ends(draw, lines)


# A field one character over the csv module's limit, which csv.reader refuses.
OVER_CSV_LIMIT = "x" * (csv.field_size_limit() + 1)
_CSV_HEADERS = ["id,text", "id,text,weight,polarity", "text,id,weight", "id,weight", "", "id"]
_CSV_CELLS = [
    "p", "a post", "", " ", "1", "0.5", "-1", "2", "nan", "inf", "1e999", "1e-320", "x",
    "0x1p-2", "1_0", "\x00", '"a, quoted\npost"', '"open', 'mid"quote', OVER_CSV_LIMIT,
]


@st.composite
def posts_csv_bytes(draw):
    """CSV post files with odd headers and cells, ragged rows and quoted line breaks."""
    header = draw(st.sampled_from(_CSV_HEADERS))
    width = header.count(",") + 1
    lines = [header]
    for i in range(draw(st.integers(0, 4))):
        cells = [f"p{i}", "a post", "1", "0.5"][:width]
        for j in draw(st.lists(st.integers(0, width), max_size=2)):
            cells = cells[:j] + [draw(st.sampled_from(_CSV_CELLS))] + cells[j + 1:]
        if draw(st.integers(0, 5)) == 0:
            cells = cells[:-1]  # a short row
        lines.append(",".join(cells))
    return _line_ends(draw, lines)


_LEXICON_LINES = [
    "good\t0.5", "bad\t-0.7", "Good\t0.1", "very\t1.5", "not", "good", "\t0.5", " \t0.5",
    "odd\t1.5", "odd\tnan", "odd\tinf", "odd\t0", "odd\t-0", "odd\tx", "odd\t", "odd\t1e-400",
    "odd\t0.5\t0.5", "[negators]", "[intensifiers]", "[entries]", "[ Negators ]", "[bogus]",
    "[]", "# comment", "", "  ", "\x0b", "\x1c", "[x]\t0.5",
]


@st.composite
def lexicon_bytes(draw):
    """Lexicon files with odd sections, words, numbers and duplicates."""
    return _line_ends(draw, draw(st.lists(st.sampled_from(_LEXICON_LINES), max_size=8)))


# Cells that sum to 1 (within 1e-9), a negative row among them.
_UNIT_CELLS = {
    1: [["1"], ["1.0"], ["1e0"]],
    2: [["0.5", "0.5"], ["0.25", "0.75"], ["1", "0"], ["0.1", "0.9"], ["1.5", "-0.5"]],
    3: [["0.2", "0.3", "0.5"], ["0", "-0", "1"], ["0.1", "0.2", "0.7"], [".5", "0.75", "-.25"]],
}
_ODD_MATRIX_CELLS = [
    "1_0", "\u0663", "nan", "inf", "-inf", "-0.5", "1.5", "", "x", "0x1p-2", "1e-400",
    '"0.5"', "0.5\x1c", "\x1f1", "0.5\x00", "1" + "0" * 400, "0.5\r0.5",
]
_PADS = [""] * 6 + [" ", "\t", "\x0b", "\x0c", "\xa0", "\u2028", "\x85", "\x1c"]
_ODD_MATRIX_IDS = ["p0", "", " ", "\t"] * 3 + [
    "#c", "#", "\x0bd", '"a"', 'e"f', "\xe9", "g\x0ch", "\x1dh",
]
_MATRIX_HEADERS = ["post_id"] * 15 + [" post_id\t", "wrong", '"post_id"', "", "\ufeffpost_id"]


@st.composite
def dist_matrix_bytes(draw):
    """Topic-distribution CSV files around the valid shape: odd cells and
    ids, quotes, padding, ragged and blank lines, mixed line ends, and now
    and then invalid UTF-8."""
    k = draw(st.integers(1, 3))
    lines = [draw(st.sampled_from(_MATRIX_HEADERS)) + "".join(f",t{j}" for j in range(k))]
    for i in range(draw(st.integers(0, 4))):
        kinds = ["row"] * 4 + ["odd cell", "odd id", "quoted", "ragged", "blank"]
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "", " ", "\t"])))
            continue
        cells = list(draw(st.sampled_from(_UNIT_CELLS[k])))
        if kind == "odd cell":
            cells[draw(st.integers(0, k - 1))] = draw(st.sampled_from(_ODD_MATRIX_CELLS))
        pad = st.sampled_from(_PADS)
        cells = [draw(pad) + cell + draw(pad) for cell in cells]
        if kind == "ragged":
            cells = (cells + ["0"])[: k + draw(st.sampled_from([-1, 1]))]
        post_id = (
            draw(st.sampled_from(_ODD_MATRIX_IDS)) if kind == "odd id" else draw(pad) + f"p{i}"
        )
        if kind == "quoted":
            post_id = f'"{post_id}"'
            cells = [f'"{cell}"' if draw(st.booleans()) else cell for cell in cells]
        lines.append(",".join([post_id, *cells]))
    return _line_ends(draw, lines)


def assert_loads_or_names_line(load, path, error):
    """``load(path)`` returns, or raises exactly ``error`` naming the path and a line."""
    try:
        load(path)
    except error as exc:
        assert type(exc) is error, repr(exc)
        assert re.match(rf"{re.escape(str(path))}, line \d+: ", str(exc)), str(exc)
