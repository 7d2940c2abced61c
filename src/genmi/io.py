"""Channel and gain-matrix file formats, plus deterministic text output.

Channel files come in two accepted forms:

keyed (canonical)                      delimited
    x 2                                    0.9 0.1
    y 2                                    0.1 0.9
    row 0.9 0.1
    row 0.1 0.9
    prior 0.5 0.5        # optional

Blank lines and lines starting with '#' are ignored in both forms.  Rows
are sanitized like any other distribution input (tiny negatives clamped,
renormalized).  Gain-matrix files use the same keyed shape with an
optional `kind gain|loss` line and an optional `c <value>` line declaring
the multiplicative constant.

All numeric output is rendered with 12 significant digits so that fixed
inputs produce byte-identical documents across runs and platforms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ParseError
from .scoring import GainMatrix
from .simplex import Channel, Pmf, make_channel, make_pmf


def format_float(v: float) -> str:
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def format_vector(values) -> str:
    return " ".join(format_float(float(v)) for v in values)


def render_document(tree: dict) -> str:
    """Render a nested mapping as an indented key-value document.

    Scalars print on the key's line; nested mappings indent by two
    spaces.  Insertion order is preserved, so identical trees render to
    identical bytes.
    """
    lines: list[str] = []
    _render(tree, 0, lines)
    return "\n".join(lines) + "\n"


def _render(tree: dict, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    for key, value in tree.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            _render(value, depth + 1, lines)
        else:
            lines.append(f"{pad}{key}: {_scalar(value)}")


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value + 0.0)  # a zero prints as 0, never -0
    if isinstance(value, (list, tuple, np.ndarray)):
        return format_vector(value)
    return str(value)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _content_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def _floats(tokens: list[str], context: str) -> list[float]:
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"{context}: expected numbers, got {' '.join(tokens)!r}") from exc


def parse_channel_text(text: str) -> tuple[Channel, Pmf | None]:
    """Parse a channel document; returns the channel and its optional prior."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("channel file is empty")

    def _is_number(tok: str) -> bool:
        try:
            float(tok)
            return True
        except ValueError:
            return False

    if _is_number(lines[0][0]):
        rows = [_floats(tokens, "channel row") for tokens in lines]
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ParseError("delimited channel rows have inconsistent lengths")
        return make_channel(np.array(rows)), None

    nx = ny = None
    rows: list[list[float]] = []
    prior: list[float] | None = None
    for tokens in lines:
        key, rest = tokens[0], tokens[1:]
        if key == "x":
            nx = _parse_size(rest, "x")
        elif key == "y":
            ny = _parse_size(rest, "y")
        elif key == "row":
            rows.append(_floats(rest, "row"))
        elif key == "prior":
            prior = _floats(rest, "prior")
        else:
            raise ParseError(f"unknown channel-file key {key!r}")
    if nx is None or ny is None:
        raise ParseError("keyed channel file must declare x and y sizes")
    if len(rows) != nx:
        raise ParseError(f"expected {nx} rows, found {len(rows)}")
    if any(len(r) != ny for r in rows):
        raise ParseError(f"every row must have {ny} entries")
    if prior is not None and len(prior) != nx:
        raise ParseError(f"prior must have {nx} entries")
    chan = make_channel(np.array(rows))
    return chan, (make_pmf(prior) if prior is not None else None)


def parse_channel_file(path: str) -> tuple[Channel, Pmf | None]:
    return parse_channel_text(_read(path))


def parse_gain_text(text: str) -> tuple[GainMatrix, float | None]:
    """Parse a gain-matrix document; returns the matrix and optional constant c."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("gain-matrix file is empty")
    kind = "gain"
    c: float | None = None
    rows: list[list[float]] = []
    for tokens in lines:
        key, rest = tokens[0], tokens[1:]
        if key == "kind":
            if len(rest) != 1 or rest[0] not in ("gain", "loss"):
                raise ParseError("kind must be 'gain' or 'loss'")
            kind = rest[0]
        elif key == "row":
            rows.append(_floats(rest, "row"))
        elif key == "c":
            if len(rest) != 1:
                raise ParseError("c takes exactly one value")
            c = _floats(rest, "c")[0]
        else:
            rows.append(_floats(tokens, "gain row"))
    if not rows:
        raise ParseError("gain-matrix file has no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("gain-matrix rows have inconsistent lengths")
    return GainMatrix(np.array(rows), kind=kind), c


def parse_gain_file(path: str) -> tuple[GainMatrix, float | None]:
    return parse_gain_text(_read(path))


def _parse_size(tokens: list[str], key: str) -> int:
    if len(tokens) != 1:
        raise ParseError(f"{key} takes exactly one value")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise ParseError(f"{key} must be an integer") from exc
    if n < 1:
        raise ParseError(f"{key} must be at least 1")
    return n


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# Portable fixture generator
# ---------------------------------------------------------------------------


def _splitmix64_words(seed: int, n: int) -> np.ndarray:
    """The first n words of the SplitMix64 stream seeded with seed mod 2**64;
    identical on every platform (uint64 arithmetic wraps modulo 2**64)."""
    state = np.uint64(seed & ((1 << 64) - 1))
    z = state + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def random_channel_text(nx: int, ny: int, seed: int) -> str:
    """Deterministic random channel in keyed form.

    Entries are ((u >> 11) + 1) * 2**-53 for consecutive SplitMix64 words
    u, taken row by row and normalized; the algorithm is fixed so that a
    (nx, ny, seed) triple names the same channel everywhere.
    """
    if nx < 1 or ny < 1:
        raise DomainError(f"a channel needs at least one input and one output, got {nx}x{ny}")
    words = _splitmix64_words(seed, nx * ny).reshape(nx, ny)
    rows = make_channel(((words >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53).rows
    lines = [f"x {nx}", f"y {ny}"]
    lines += ["row " + format_vector(r) for r in rows]
    return "\n".join(lines) + "\n"
