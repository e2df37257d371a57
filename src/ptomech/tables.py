"""Tables of named columns as CSV or JSON text.

A table is a dict of equal-length columns: a float ndarray, or a list (or a
:class:`Coded`) of str/int cells. CSV writes each float as '%.{p-1}e' at the
precision p (-0.0 as 0, NaN as ``nan``) and other cells by ``str``; JSON
writes the float the CSV text reads back as, as json.dumps writes it (NaN as
null), and other cells by json.dumps, with the same bytes as ``json.dumps(
payload, indent=2)``. One consequence, kept on purpose: a value whose
rounded decimal lies past float range differs between the two, e.g.
1.5e308 at p = 1 is ``2e+308`` in CSV and ``Infinity`` in JSON.

Floats take one numpy digit pass for p <= 12: e = floor(log10|v|) and
m = rint(|v| 10**(p-1-e)) give each value's p digits once, and CSV and JSON
lay them out from there, JSON in repr's positional form for -4 <= e <= 15
and with trailing zeros dropped. A decimal of at most 15 digits reads back
as a float whose repr has those digits, so JSON needs no parse-back. The
per-cell '%' rule (and, for JSON, ``float.__repr__`` of the value read
back) remains as the exact path, taken only where the math needs it:
non-finite values, |v| outside [1e-290, 1e290], |v| 10**(p-1-e) below
10**(p-1) or m above 10**p (a misjudged e), a scaled mantissa within 2e-3
of a rounding tie, every value for p > 12, and arrays too short to repay
the numpy calls.

Rows go out in blocks of ``_BLOCK_ROWS``: the float columns of a block in one
call, each distinct str/int cell encoded once and gathered, all laid out at
fixed positions on a canvas of 4-byte words with a keep mask, compacted once
per block by ``np.compress`` and decoded to one string.
"""

from __future__ import annotations

import functools
import json

import numpy as np

# Rows laid out per block: bounds the memory of a block's canvas.
_BLOCK_ROWS = 2048
# Below this many floats per call the per-cell '%' rule is faster than the
# fixed cost of the digit pass's numpy calls.
_FAST_MIN_CELLS = 64
# The digit pass holds its scaled mantissa (< 10**12) to ~2 ulp(1e12) = 2.4e-4;
# one within _TIE_MARGIN of a rounding tie takes the exact path.
_FAST_PRECISION = 12
_TIE_MARGIN = 2e-3
_FAST_MIN, _FAST_MAX = 1e-290, 1e290
# The JSON text of the non-finite floats, keyed by their repr. A CSV cell such
# as "2e+308" reads back as inf.
_JSON_NONFINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}
# Text is laid out in 4-byte words, byte 0 first; a keep word holds 0 or 1 per byte.
_WORD = np.dtype("<u4")
_KEEP_ALL = 0x01010101
# Words per float cell: [-] d . 11 digits e +/- 3 digits in CSV, and
# [-] 16 integer digits . 16 fraction digits e +/- 3 digits in JSON. An exact
# text (at most 24 characters) fits either.
_CSV_WORDS, _JSON_WORDS = 7, 12


def _word(text: str) -> int:
    """The 4 bytes of ``text`` as a word."""
    return int.from_bytes(text.encode(), "little")


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """For each q in 0..9999: its 4 ASCII digits as a word, and the keep words
    that drop its leading and its trailing zeros; then 10.0**k for k in
    0..301, correctly rounded, and 10**k as int64 for k in 0..18."""
    q = np.arange(10000, dtype=_WORD)
    digits = lead = trail = 0
    for byte, power in enumerate((1000, 100, 10, 1)):
        # The digit of ``power``; any nonzero digit at or before it (lead)
        # or at or after it (trail).
        digits = digits | (q // power % 10 + ord("0")) << 8 * byte
        lead = lead | (q >= power).astype(_WORD) << 8 * byte
        trail = trail | (q % (10 * power) != 0).astype(_WORD) << 8 * byte
    pow10 = np.array([f"1e{k}" for k in range(302)]).astype(float)
    return digits, lead, trail, pow10, 10 ** np.arange(19, dtype=np.int64)


def _put_digits(n: np.ndarray, chars: np.ndarray, keep: np.ndarray | None, drop: str = "") -> None:
    """Write the ASCII digits of int64s 0 <= n < 10**(4 G), zero-padded, into
    the G word columns of ``chars``; ``keep`` drops the leading or trailing zeros."""
    digit_words, lead, trail = _digit_tables()[:3]
    nonzero_below = False
    for g in reversed(range(chars.shape[1])):
        # // by a constant is much faster than divmod or %.
        q = n
        n = n // 10000
        q = q - n * 10000
        chars[:, g] = digit_words[q]
        if drop == "leading":
            keep[:, g] = np.where(n != 0, _KEEP_ALL, lead[q])
        elif drop == "trailing":
            keep[:, g] = np.where(nonzero_below, _KEEP_ALL, trail[q])
            nonzero_below = nonzero_below | (q != 0)


def _exact_texts(values: list, p: int, json_text: bool) -> list[str]:
    """'%.{p-1}e' of each float; for JSON, the float that text reads back as,
    written by ``float.__repr__`` as json.dumps writes it (NaN as null)."""
    fmt = f"%.{p - 1}e"
    texts = [fmt % v for v in values]
    if json_text:
        texts = list(map(float.__repr__, map(float, texts)))
        texts = list(map(_JSON_NONFINITE.get, texts, texts))
    return texts


def _fast_cells(v: np.ndarray, p: int, json_text: bool, chars: np.ndarray,
                keep: np.ndarray) -> np.ndarray:
    """Lay out the cells of :func:`_float_cells` from one numpy digit pass.

    Fills ``chars`` and ``keep`` for every value and returns where the pass is
    exact: zeros, and |v| in [1e-290, 1e290] whose scaled mantissa is not
    within the tie margin (p <= 12).
    """
    digit_words, _, _, pow10, ipow10 = _digit_tables()
    a = np.abs(v)
    zero = a == 0
    fast = zero | ((a >= _FAST_MIN) & (a <= _FAST_MAX))
    a = np.where(fast & ~zero, a, 1.0)
    # e = floor(log10 a), m = rint(a 10**(p-1-e)). The power multiplies or
    # divides, so one of the two is 1 and, up to 10**22, both are exact.
    e = np.floor(np.log10(a)).astype(np.int64)
    shift = p - 1 - e
    s = a * pow10[np.maximum(shift, 0)] / pow10[np.maximum(-shift, 0)]
    m = np.rint(s)
    # A misjudged e gives s below 10**(p-1) or m above 10**p; m == 10**p carries.
    fast &= (s >= pow10[p - 1]) & (m <= pow10[p]) & (np.abs(s - np.floor(s) - 0.5) > _TIE_MARGIN)
    m = m.astype(np.int64)
    carry = m == ipow10[p]
    e += carry
    m[carry] = ipow10[p - 1]
    m[zero] = e[zero] = 0
    neg = (v < 0).view(np.uint8).astype(_WORD)
    exponent = np.abs(e)
    big = (exponent >= 100).view(np.uint8).astype(_WORD) << 8  # a third exponent digit
    if json_text:
        # repr's positional form (-4 <= e <= 15) splits m 10**(e-p+1) into its
        # integer part and fraction; the exponent form splits d.ddd, the same
        # split at e = p-1.
        pos = (e >= -4) & (e <= 15)
        shift = np.where(pos, p - 1 - e, p - 1)
        up = np.maximum(shift, 0)
        n_int = m // ipow10[up] * ipow10[np.maximum(-shift, 0)]
        n_frac = m % ipow10[up] * ipow10[p + 3 - up]
        chars[:, 0] = _word("   -")
        keep[:, 0] = neg << 24
        _put_digits(n_int, chars[:, 1:5], keep[:, 1:5], "leading")
        keep[:, 4] |= 1 << 24  # the units digit
        chars[:, 5] = _word("   .")
        keep[:, 5] = (pos | (n_frac != 0)).view(np.uint8).astype(_WORD) << 24
        # The fraction's p+3 digits, left-aligned in 16.
        _put_digits(n_frac * ipow10[13 - p], chars[:, 6:10], keep[:, 6:10], "trailing")
        keep[:, 6] |= pos  # one fraction digit in positional form
        shown = (~pos).view(np.uint8).astype(_WORD)
        chars[:, 10] = np.where(e < 0, _word("  e-"), _word("  e+"))
        keep[:, 10] = shown * 0x01010000
        chars[:, 11] = digit_words[exponent]
        keep[:, 11] = shown * (0x01010000 | big)
    else:
        top = ipow10[p - 1]
        chars[:, 0] = digit_words[m // top] & 0xFF000000 | ord("-") << 16
        keep[:, 0] = 0x01000000 | neg << 16
        chars[:, 1] = _word("   .")
        keep[:, 1] = (p > 1) << 24
        _put_digits(m % top, chars[:, 2:5], None)
        keep[:, 2:5] = (np.arange(12) >= 13 - p).astype(np.uint8).view(_WORD)
        chars[:, 5] = np.where(e < 0, _word("  e-"), _word("  e+"))
        keep[:, 5] = 0x01010000
        chars[:, 6] = digit_words[exponent]
        keep[:, 6] = 0x01010000 | big
    return fast


def _float_cells(values: np.ndarray, p: int, json_text: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each float of a 1-d array at p significant digits, as fixed-width cells.

    Returns (chars, keep), word arrays with one row per value; the text of
    value i is the bytes of ``chars[i]`` where ``keep[i]`` has a 1. A CSV cell
    is '%.{p-1}e' of the value; a JSON cell is the text json.dumps writes for
    the float that reads back from it. -0.0 prints as 0. For p <= 12 one
    numpy digit pass lays out the cells; the values it cannot place exactly,
    every value of a short array and every value for p > 12 take the
    per-cell '%' rule of :func:`_exact_texts`.
    """
    v = values + 0.0  # -0.0 becomes 0.0; every other value stays as it is
    width = _JSON_WORDS if json_text else _CSV_WORDS
    chars = np.empty((len(v), width), _WORD)
    keep = np.empty((len(v), width), _WORD)
    if p <= _FAST_PRECISION and len(v) >= _FAST_MIN_CELLS:
        slow = np.flatnonzero(~_fast_cells(v, p, json_text, chars, keep))
    else:
        slow = np.arange(len(v))
    if slow.size:
        chars[slow], keep[slow] = _word_table(_exact_texts(v[slow].tolist(), p, json_text), width)
    return chars, keep


def _text(chars: np.ndarray, keep: np.ndarray) -> str:
    """The kept bytes of word arrays, in order, as text."""
    kept = np.compress(keep.view(bool).ravel(), chars.view(np.uint8).ravel())
    return kept.tobytes().decode("utf-8", "surrogatepass")


def float_text(value: float, p: int) -> str:
    """The CSV text of one float at p significant digits."""
    return _text(*_float_cells(np.array([value]), p, json_text=False))


class Coded:
    """A column of str/int cells: its distinct cells, and each row's index into them."""

    def __init__(self, values: tuple, codes: np.ndarray):
        self.values, self.codes = values, codes

    def __len__(self) -> int:
        return len(self.codes)


def _coded(cells: list) -> Coded:
    index: dict = {}
    codes = np.fromiter((index.setdefault(cell, len(index)) for cell in cells), np.intp, len(cells))
    return Coded(tuple(index), codes)


def _word_table(texts: list[str], width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Texts as rows of ``width`` words (by default the fewest that hold each):
    (chars, keep)."""
    data = [text.encode("utf-8", "surrogatepass") for text in texts]
    if width is None:
        width = -(-max(map(len, data), default=0) // 4)
    chars = np.frombuffer(b"".join([d.ljust(4 * width) for d in data]), _WORD)
    lengths = np.array(list(map(len, data)), dtype=np.intp)
    keep = (np.arange(4 * width) < lengths[:, None]).view(_WORD)
    return chars.reshape(len(data), width), keep.reshape(len(data), width)


def _pieces(first: str, between: str, labels: list[str], last: str) -> list[str]:
    """The text before each cell of a row (``first`` or ``between``, then the
    cell's label) and, last, the text after the row's last cell."""
    return [(between if i else first) + label for i, label in enumerate(labels)] + [last]


def _row_blocks(columns: dict, pieces: list[str], p: int, json_text: bool):
    """The rows of ``columns`` as text, ``pieces[i]`` before cell i and
    ``pieces[-1]`` after the last cell, one string per block of rows.

    A float column (ndarray) is formatted by :func:`_float_cells`, the float
    columns of a block in one call; a str/int column (a list or a
    :class:`Coded`) is encoded once per distinct cell (``str`` for CSV,
    json.dumps for JSON) and gathered. Each block is laid out on a canvas of
    words at fixed positions and compacted once by its keep words.
    """
    n_rows = min(map(len, columns.values()), default=0)
    cell_width = _JSON_WORDS if json_text else _CSV_WORDS
    # The row template holds the pieces, each padded to whole words, and
    # after each piece its column's slot: floats (offset, column) and str/int
    # columns (offset, codes, chars, keep).
    template, template_keep = bytearray(), bytearray()

    def add_piece(piece: str) -> None:
        data = piece.encode("utf-8", "surrogatepass")
        pad = bytes(-len(data) % 4)
        template.extend(data + pad)
        template_keep.extend(b"\x01" * len(data) + pad)

    floats, slots = [], []
    for piece, col in zip(pieces, columns.values()):
        add_piece(piece)
        offset = len(template) // 4
        if isinstance(col, np.ndarray):
            floats.append((offset, col))
            width = cell_width
        else:
            coded = col if isinstance(col, Coded) else _coded(col)
            table = _word_table([json.dumps(c) if json_text else str(c) for c in coded.values])
            slots.append((offset, coded.codes, *table))
            width = table[0].shape[1]
        template.extend(bytes(4 * width))
        template_keep.extend(bytes(4 * width))
    add_piece(pieces[-1])
    template = np.frombuffer(template, _WORD)
    template_keep = np.frombuffer(template_keep, _WORD)
    for start in range(0, n_rows, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, n_rows))
        n = rows.stop - rows.start
        chars = np.empty((n, len(template)), _WORD)
        keep = np.empty((n, len(template)), _WORD)
        chars[:] = template
        keep[:] = template_keep
        if floats:
            block = np.stack([col[rows] for _, col in floats], axis=1).ravel()
            cells, cells_keep = _float_cells(block, p, json_text)
            cells = cells.reshape(n, len(floats), cell_width)
            cells_keep = cells_keep.reshape(n, len(floats), cell_width)
            for k, (at, _) in enumerate(floats):
                chars[:, at:at + cell_width] = cells[:, k]
                keep[:, at:at + cell_width] = cells_keep[:, k]
        for at, codes, table, table_keep in slots:
            width = table.shape[1]
            chars[:, at:at + width] = table[codes[rows]]
            keep[:, at:at + width] = table_keep[codes[rows]]
        yield _text(chars, keep)


def one_row(record: dict) -> dict:
    """The columns of a one-row table: floats as float arrays, other cells as they are."""
    return {name: np.array([v]) if isinstance(v, float) else [v] for name, v in record.items()}


def json_pieces(head: dict, columns: dict, footer: dict, p: int):
    """The JSON document in pieces, the same text as ``json.dumps(payload, indent=2)``
    for payload = {**head, rows, summary}, at p significant digits.

    The head goes through json.dumps; the rows and the summary (a one-row
    table) go through :func:`_row_blocks`, between keys json.dumps writes.
    """
    yield json.dumps(head, indent=2)[:-2]  # without the closing "\n}"
    keys = [json.dumps(name) + ": " for name in columns]
    # Each row carries its leading separator; the first row drops it.
    rows = _row_blocks(columns, _pieces(",\n    {\n      ", ",\n      ", keys, "\n    }"),
                       p, json_text=True)
    first = next(rows, None)
    if first is None:
        yield ',\n  "rows": []'
    else:
        yield ',\n  "rows": [\n' + first[2:]
        yield from rows
        yield "\n  ]"
    if footer:
        keys = [json.dumps(name) + ": " for name in footer]
        yield from _row_blocks(one_row(footer),
                               _pieces(',\n  "summary": {\n    ', ",\n    ", keys, "\n  }"),
                               p, json_text=True)
    yield "\n}\n"


def csv_pieces(columns: dict, footer: dict, p: int):
    """The CSV text in pieces at p significant digits: the header, the rows,
    then one ``# key=value`` line per footer entry (a one-row table)."""
    yield ",".join(columns) + "\n"
    yield from _row_blocks(columns, _pieces("", ",", [""] * len(columns), "\n"), p, False)
    if footer:
        keys = [f"{name}=" for name in footer]
        yield from _row_blocks(one_row(footer), _pieces("# ", "\n# ", keys, "\n"), p, False)
