"""The portable fixture generator against a pure-Python SplitMix64."""

import pytest

from genmi import DomainError, make_pmf
from genmi.io import _splitmix64_words, format_vector, random_channel_text

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
