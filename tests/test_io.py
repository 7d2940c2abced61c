"""The portable fixture generator against a pure-Python SplitMix64, and the
parsers' errors."""

import re

import numpy as np
import pytest

from genmi import DomainError, ParseError, make_channel, make_pmf
from genmi.io import (
    _splitmix64_words,
    format_float,
    format_vector,
    parse_channel_text,
    parse_gain_text,
    random_channel_text,
)

MASK = (1 << 64) - 1


def splitmix64(state):
    """The SplitMix64 stream on Python integers, one word at a time."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        yield z ^ (z >> 31)


def reference_text(nx, ny, seed):
    """random_channel_text written word by word, one make_pmf per row."""
    gen = splitmix64(seed & MASK)
    lines = [f"x {nx}", f"y {ny}"]
    for _ in range(nx):
        vals = [((next(gen) >> 11) + 1) * 2.0 ** -53 for _ in range(ny)]
        lines.append("row " + format_vector(make_pmf(vals).probs))
    return "\n".join(lines) + "\n"


SEEDS = (0, 1, 123456789, MASK, 1 << 64, (1 << 64) + 12345, 3 << 70, -1, -987654321)
SHAPES = ((1, 1), (1, 2), (2, 3), (3, 1), (4, 4), (8, 256), (64, 64), (256, 8))


@pytest.mark.parametrize("nx, ny", SHAPES)
def test_matches_word_by_word_reference(nx, ny):
    for seed in SEEDS:
        assert random_channel_text(nx, ny, seed) == reference_text(nx, ny, seed), seed


def test_rows_are_format_float_of_every_value():
    # each row is printed by one "%.12g" format string: the bytes of
    # format_float applied value by value, over a seeded sweep of shapes and seeds
    rng = np.random.default_rng(11)
    for _ in range(60):
        nx, ny = (int(n) for n in rng.integers(1, 48, size=2))
        seed = int(rng.integers(-(1 << 62), 1 << 62)) << int(rng.integers(0, 10))
        words = _splitmix64_words(seed, nx * ny).reshape(nx, ny)
        rows = make_channel(((words >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53).rows
        lines = [f"x {nx}", f"y {ny}"] + ["row " + " ".join(format_float(v) for v in r) for r in rows]
        assert random_channel_text(nx, ny, seed) == "\n".join(lines) + "\n", (nx, ny, seed)


def test_first_words_of_the_stream():
    # SplitMix64 from state 0: its first output word is 0xE220A8397B1DCDAF
    gen = splitmix64(0)
    want = [next(gen) for _ in range(5)]
    assert want[0] == 0xE220A8397B1DCDAF
    assert [int(u) for u in _splitmix64_words(0, 5)] == want


@pytest.mark.parametrize("nx, ny", [(0, 3), (3, 0), (-1, -3)])
def test_empty_shape_rejected(nx, ny):
    with pytest.raises(DomainError):
        random_channel_text(nx, ny, 1)


KEYED = "x 2\ny 2\nrow 1 0\nrow 0 1\n"

#: (parser, document, the ParseError message it gives), one per branch
PARSE_ERRORS = [
    (parse_channel_text, "", "channel file is empty"),
    (parse_channel_text, "# a comment\n\n", "channel file is empty"),
    (parse_channel_text, "0.9 0.1\n0.5\n", "delimited channel rows have inconsistent lengths"),
    (parse_channel_text, "0.9 0.1\n0.5 half\n", "channel row: expected numbers, got '0.5 half'"),
    (parse_channel_text, KEYED + "rows 1 0\n", "unknown channel-file key 'rows'"),
    (parse_channel_text, "y 2\nrow 1 0\n", "keyed channel file must declare x and y sizes"),
    (parse_channel_text, "x 1\nrow 1 0\n", "keyed channel file must declare x and y sizes"),
    (parse_channel_text, "x 1 2\ny 2\n", "x takes exactly one value"),
    (parse_channel_text, "x 1\ny\n", "y takes exactly one value"),
    (parse_channel_text, "x 1.5\ny 2\n", "x must be an integer"),
    (parse_channel_text, "x 1\ny 0\n", "y must be at least 1"),
    (parse_channel_text, "x 2\ny 2\nrow 1 0\n", "expected 2 rows, found 1"),
    (parse_channel_text, "x 2\ny 2\nrow 1 0\nrow 1\n", "every row must have 2 entries"),
    (parse_channel_text, "x 1\ny 2\nrow 1 zero\n", "row: expected numbers, got '1 zero'"),
    (parse_channel_text, KEYED + "prior 1\n", "prior must have 2 entries"),
    (parse_channel_text, KEYED + "prior half half\n", "prior: expected numbers"),
    (parse_gain_text, "", "gain-matrix file is empty"),
    (parse_gain_text, "kind utility\nrow 1\n", "kind must be 'gain' or 'loss'"),
    (parse_gain_text, "kind gain loss\nrow 1\n", "kind must be 'gain' or 'loss'"),
    (parse_gain_text, "c 1 2\nrow 1\n", "c takes exactly one value"),
    (parse_gain_text, "c one\nrow 1\n", "c: expected numbers, got 'one'"),
    (parse_gain_text, "kind loss\nc -1\n", "gain-matrix file has no rows"),
    (parse_gain_text, "row 1 0\nrow 1\n", "gain-matrix rows have inconsistent lengths"),
    (parse_gain_text, "row 1 z\n", "row: expected numbers, got '1 z'"),
    (parse_gain_text, "1 0\ngain 1\n", "gain row: expected numbers, got 'gain 1'"),
]


@pytest.mark.parametrize("parse, text, message", PARSE_ERRORS,
                         ids=[f"{p.__name__}-{i}" for i, (p, _, _) in enumerate(PARSE_ERRORS)])
def test_parse_error(parse, text, message):
    with pytest.raises(ParseError, match="^" + re.escape(message)):
        parse(text)


def test_the_documents_the_errors_start_from_parse():
    chan, prior = parse_channel_text(KEYED + "prior 0.5 0.5\n")
    assert chan.rows.tolist() == [[1.0, 0.0], [0.0, 1.0]] and prior.probs.tolist() == [0.5, 0.5]
    matrix, c = parse_gain_text("kind loss\nc -1\nrow 1 0\n0 1\n")
    assert (matrix.kind, c, matrix.values.tolist()) == ("loss", -1.0, [[1.0, 0.0], [0.0, 1.0]])
