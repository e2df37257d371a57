"""Tables of named columns as CSV or JSON bytes.

A table is a dict of equal-length columns: a float ndarray, a list of str/int
cells, or a :class:`Coded` column of str/int cells or floats. CSV writes each
float as '%.{p-1}e' at the precision p (-0.0 as 0, NaN as ``nan``) and other
cells by ``str``; JSON writes the float the CSV text reads back as, as
json.dumps writes it (NaN as null), and other cells by json.dumps, with the
same bytes as ``json.dumps(payload, indent=2)``. One consequence, kept on
purpose: a value whose rounded decimal lies past float range differs between
the two, e.g. 1.5e308 at p = 1 is ``2e+308`` in CSV and ``Infinity`` in JSON.

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

Rows go out in blocks of ``_BLOCK_ROWS``, each laid out at fixed positions
on one canvas of 4-byte words: each distinct cell of a coded or str/int
column formatted once and gathered, and the float cells copied from a digit
pass. One pass formats the float columns of whole blocks, the fewest that
hold ``_PASS_VALUES`` floats, since much of its cost is fixed per call; a
larger canvas was slower. A run of adjacent coded columns sharing one codes
array is one gathered slot, which holds its separators and keys too. Bytes
between texts are 0xFF, which no UTF-8 (or surrogatepass) encoding has: one
``bytes.translate`` pass that deletes them compacts a block. The pieces
:func:`csv_pieces` and :func:`json_pieces` yield are those bytes, UTF-8 with
lone surrogates passed through; the writer decodes them only for a text-only
stdout.
"""

from __future__ import annotations

import functools

import numpy as np

# Rows laid out per block: bounds the memory of a block's canvas.
_BLOCK_ROWS = 2048
# Floats per digit pass, at least: much of the pass's cost is fixed per call,
# so it formats several blocks at once (see _row_blocks).
_PASS_VALUES = 14336
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
# Text is laid out in 4-byte words, byte 0 first; 0xFF pads the bytes between texts.
_WORD = np.dtype("<u4")
_PAD = b"\xff"
# Two adjacent words read as one item: numpy gathers 1-d items several times
# faster than rows of a 2-d table, and copies the gathered words into two
# canvas columns faster than as (n, 2) rows.
_PAIR = np.dtype("<u8")
# Words per float cell. CSV: [-]d, '.' and p-1 digits right-aligned in 12
# places, e+/- and 2-3 exponent digits; an exact text of p <= 17 (at most 24
# characters) fits too. JSON: _JSON_WORDS for [-] (or -0), '.' (or '.0'), 16
# fraction digits and the exponent, plus 1-4 for the integer part (see
# _cell_words); an exact text (at most 24 characters) fits any.
_CSV_WORDS, _JSON_WORDS = 6, 8
# The exponent table has a row for each of -_EXP..+_EXP, then an empty row.
_EXP = 330


def _word(text: str) -> int:
    """The bytes of ``text`` (at most 4), padded, as a word."""
    return int.from_bytes(text.encode().ljust(4, _PAD), "little")


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """For each q in 0..9999: its 4 ASCII digits as a word, and that word with
    its leading and with its trailing zeros as pads; a JSON cell's first word
    by negative | (zero integer part) << 1; the exponent table, the 2 words of
    'e%+03d' per entry as one _PAIR; 10.0**k for k in 0..301, correctly
    rounded; and 10**k as int64 for k in 0..18."""
    q = np.arange(10000, dtype=_WORD)
    digits = lead = trail = 0
    for byte, power in enumerate((1000, 100, 10, 1)):
        # The digit of ``power``, kept in lead where a nonzero digit is at or
        # before it and in trail where one is at or after it.
        digit, pad = (q // power % 10 + ord("0")) << 8 * byte, 0xFF << 8 * byte
        digits = digits | digit
        lead = lead | np.where(q >= power, digit, pad)
        trail = trail | np.where(q % (10 * power) != 0, digit, pad)
    signs = np.array([_word(t) for t in ("", "-", "0", "-0")], _WORD)
    exponents = _word_table([b"e%+03d" % k for k in range(-_EXP, _EXP + 1)] + [b""], 2)
    exponents = exponents.view(_PAIR)[:, 0]
    pow10 = np.array([f"1e{k}" for k in range(302)]).astype(float)
    return digits, lead, trail, signs, exponents, pow10, 10 ** np.arange(19, dtype=np.int64)


def _put_digits(n: np.ndarray, chars: np.ndarray, drop: str = "") -> None:
    """Write the ASCII digits of int64s 0 <= n < 10**(4 G), zero-padded, into
    the G word columns of ``chars``; ``drop`` pads the leading or trailing zeros."""
    digit_words, lead, trail = _digit_tables()[:3]
    nonzero_below = False
    for g in reversed(range(chars.shape[1])):
        # // by a constant is much faster than divmod or %.
        q = n
        n = n // 10000
        q = q - n * 10000
        if drop == "leading":
            # Nothing lies above the first word.
            chars[:, g] = np.where(n != 0, digit_words[q], lead[q]) if g else lead[q]
        elif drop == "trailing":
            chars[:, g] = np.where(nonzero_below, digit_words[q], trail[q])
            nonzero_below = nonzero_below | (q != 0)
        else:
            chars[:, g] = digit_words[q]


def _exact_texts(values: list, p: int, json_text: bool) -> list[str]:
    """'%.{p-1}e' of each float; for JSON, the float that text reads back as,
    written by ``float.__repr__`` as json.dumps writes it (NaN as null)."""
    fmt = f"%.{p - 1}e"
    texts = [fmt % v for v in values]
    if json_text:
        texts = list(map(float.__repr__, map(float, texts)))
        texts = list(map(_JSON_NONFINITE.get, texts, texts))
    return texts


def _fast_cells(v: np.ndarray, p: int, json_text: bool, chars: np.ndarray) -> np.ndarray:
    """Lay out the cells of :func:`_float_cells` from one numpy digit pass.

    Fills ``chars`` for every value and returns where the pass is exact:
    zeros, and |v| in [1e-290, 1e290] whose scaled mantissa is not within the
    tie margin (p <= 12).
    """
    digit_words, _, _, signs, exponents, pow10, ipow10 = _digit_tables()
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
    neg = v < 0
    if json_text:
        # repr's positional form (-4 <= e <= 15) splits m 10**(e-p+1) into its
        # integer part and fraction; the exponent form splits d.ddd, the same
        # split at e = p-1.
        pos = (e >= -4) & (e <= 15)
        shift = np.where(pos, p - 1 - e, p - 1)
        up = np.maximum(shift, 0)
        n_int = m // ipow10[up] * ipow10[np.maximum(-shift, 0)]
        n_frac = m % ipow10[up] * ipow10[p + 3 - up]
        point = len(chars[0]) - 7
        # The sign, and the 0 of a zero integer part, whose words are all pads.
        chars[:, 0] = signs[neg | (n_int == 0) << 1]
        _put_digits(n_int, chars[:, 1:point], "leading")
        # One fraction digit in positional form: '.0' where the fraction is 0.
        chars[:, point] = np.where(n_frac != 0, _word("."), np.where(pos, _word(".0"), _word("")))
        # The fraction's p+3 digits, left-aligned in 16.
        _put_digits(n_frac * ipow10[13 - p], chars[:, point + 1:point + 5], "trailing")
        words = exponents[np.where(pos, -1, e + _EXP)].view(_WORD).reshape(-1, 2)
        chars[:, point + 5], chars[:, point + 6] = words.T
    else:
        # '-' (0x2D) or a pad in byte 0, the first digit in byte 3; then the
        # other p-1 digits, zero-padded to 12 places, with pads and '.' over the zeros.
        top = ipow10[p - 1]
        chars[:, 0] = digit_words[m // top] & 0xFF000000 | np.where(neg, 0xFFFF2D, 0xFFFFFF)
        _put_digits(m % top, chars[:, 1:4])
        fill = _PAD * (12 - p) + b"." if p > 1 else _PAD * 12
        chars.view(np.uint8)[:, 4:17 - p] = np.frombuffer(fill, np.uint8)
        words = exponents[e + _EXP].view(_WORD).reshape(-1, 2)
        chars[:, 4], chars[:, 5] = words.T
    return fast


def _cell_words(floats: list[np.ndarray], p: int, json_text: bool) -> int:
    """Words per float cell for the values of ``floats`` at p.

    A CSV cell needs more than _CSV_WORDS only for an exact text longer than 24
    characters (p > 17). A JSON cell's integer part takes a word per 4 digits of
    the largest positional |v| (below 1e16) and one more digit, for a rounding
    carry such as 999.6 -> 1000.
    """
    if not json_text:
        return max(_CSV_WORDS, -(-(p + 7) // 4))
    top = max([np.max(a, where=a < 1e16, initial=0.0) for a in map(np.abs, floats)], default=0)
    return _JSON_WORDS + 1 + (top >= 1e3) + (top >= 1e7) + (top >= 1e11)


def _float_cells(values: np.ndarray, p: int, json_text: bool,
                 width: int | None = None) -> np.ndarray:
    """Each float of a 1-d array at p significant digits, as a row of ``width``
    words (by default :func:`_cell_words` of the values), pads as 0xFF.

    A CSV cell is '%.{p-1}e' of the value; a JSON cell is the text json.dumps
    writes for the float that reads back from it. -0.0 prints as 0. For p <= 12
    one numpy digit pass lays out the cells; the values it cannot place
    exactly, every value of a short array and every value for p > 12 take the
    per-cell '%' rule of :func:`_exact_texts`.
    """
    v = values + 0.0  # -0.0 becomes 0.0; every other value stays as it is
    width = width or _cell_words([v], p, json_text)
    chars = np.empty((len(v), width), _WORD)
    if p <= _FAST_PRECISION and len(v) >= _FAST_MIN_CELLS:
        slow = np.flatnonzero(~_fast_cells(v, p, json_text, chars))
    else:
        slow = np.arange(len(v))
    if slow.size:
        texts = _exact_texts(v[slow].tolist(), p, json_text)
        chars[slow] = _word_table(list(map(str.encode, texts)), width)
    return chars


def _text(chars: np.ndarray) -> bytes:
    """The bytes of word arrays, in order and without pads: one
    ``bytes.translate`` pass deletes the 0xFF bytes. They stay bytes up to
    the output file or stdout."""
    return chars.tobytes().translate(None, _PAD)


def _encode(text: str) -> bytes:
    """UTF-8 bytes of ``text``; a lone surrogate (possible in a str cell) passes through."""
    return text.encode("utf-8", "surrogatepass")


def float_text(value: float, p: int) -> str:
    """The CSV text of one float at p significant digits."""
    return _text(_float_cells(np.array([value]), p, json_text=False)).decode()


class Coded:
    """A column by its distinct cells (a tuple of str/int, or a float ndarray)
    and each row's index into them; each distinct cell is formatted once."""

    def __init__(self, values: tuple | np.ndarray, codes: np.ndarray):
        self.values, self.codes = values, codes

    def __len__(self) -> int:
        return len(self.codes)


def _coded(cells: list) -> Coded:
    index: dict = {}
    codes = np.fromiter((index.setdefault(cell, len(index)) for cell in cells), np.intp, len(cells))
    return Coded(tuple(index), codes)


def _word_table(data: list[bytes], width: int | None = None) -> np.ndarray:
    """Texts' bytes as rows of ``width`` words (by default the fewest that hold each), padded."""
    if width is None:
        width = -(-max(map(len, data), default=0) // 4)
    chars = np.frombuffer(b"".join([d.ljust(4 * width, _PAD) for d in data]), _WORD)
    return chars.reshape(len(data), width)


def _pieces(first: str, between: str, labels: list[str], last: str) -> list[bytes]:
    """The bytes before each cell of a row (``first`` or ``between``, then the
    cell's label) and, last, the bytes after the row's last cell."""
    texts = [(between if i else first) + label for i, label in enumerate(labels)] + [last]
    return [_encode(text) for text in texts]


def _row_blocks(columns: dict, pieces: list[bytes], p: int, json_text: bool):
    """The rows of ``columns`` as bytes, ``pieces[i]`` before cell i and
    ``pieces[-1]`` after the last cell, one bytes object per block of rows.

    A float column (ndarray) is formatted by :func:`_float_cells`, the float
    columns of a pass in one call; a coded or str/int column once per distinct
    cell (floats by :func:`_float_cells`, other cells by ``str`` for CSV and
    json.dumps for JSON) and gathered by code. Adjacent coded columns sharing
    one ``codes`` array gather from one table, whose rows hold each column's
    piece and cell without pads between them. Each block is laid out on a
    canvas of words at fixed positions and compacted once by dropping its pads.

    The two sizes differ. A block has ``_BLOCK_ROWS`` rows: canvases of 4096
    and 9039 rows measured slower. A pass is the fewest whole blocks that
    hold ``_PASS_VALUES`` floats, so no block straddles two passes: the
    digit pass costs some 65 numpy calls and the exact path's set-up per
    call, a large share of its time at 2048 values, and a table with one
    float column, such as a sweep, would pay that once per block. A table
    with that many floats per block, or of one block, keeps one pass per
    block.
    """
    n_rows = min(map(len, columns.values()), default=0)
    float_columns = [col for col in columns.values() if isinstance(col, np.ndarray)]
    cell_width = _cell_words(float_columns, p, json_text)
    # Each cell's piece and slot: [piece, None, column] for a float column and
    # [b"", codes, texts] for a run of coded columns, each text the run's pieces
    # and cells for one code. No float text holds "\n", so it ends each cell.
    slots = []
    for piece, col in zip(pieces, columns.values()):
        if isinstance(col, np.ndarray):
            slots.append([piece, None, col])
            continue
        coded = col if isinstance(col, Coded) else _coded(col)
        if isinstance(coded.values, np.ndarray):
            cells = _float_cells(coded.values, p, json_text)
            ends = np.full((len(cells), 1), _word("\n"), _WORD)
            texts = _text(np.hstack([cells, ends])).split(b"\n")[:-1]
        elif json_text:
            import json  # only JSON output reads it: CSV calls skip the import

            texts = [json.dumps(value).encode() for value in coded.values]
        else:
            texts = [_encode(str(value)) for value in coded.values]
        texts = [piece + text for text in texts]
        if slots and slots[-1][1] is coded.codes:
            slots[-1][2] = [a + b for a, b in zip(slots[-1][2], texts)]
        else:
            slots.append([b"", coded.codes, texts])
    # The row template holds the pieces, each padded to whole words, and
    # after each piece its slot: floats (offset, column) and coded runs
    # (offset, codes, table). Each block starts as a copy of it: one broadcast
    # copy of the whole row is faster than a strided copy per piece.
    template = bytearray()

    def add_piece(piece: bytes) -> None:
        template.extend(piece + _PAD * (-len(piece) % 4))

    floats, coded_slots = [], []
    for piece, codes, col in slots:
        add_piece(piece)
        if codes is None:
            floats.append((len(template) // 4, col))
            width = cell_width
        else:
            table = _word_table(col)
            coded_slots.append((len(template) // 4, codes, table))
            width = table.shape[1]
        template.extend(_PAD * (4 * width))
    add_piece(pieces[-1])
    template = np.frombuffer(template, _WORD)
    # Whole blocks per digit pass: the fewest that hold _PASS_VALUES floats.
    pass_rows = _BLOCK_ROWS * -(-_PASS_VALUES // (_BLOCK_ROWS * max(len(floats), 1)))
    for start in range(0, n_rows, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, n_rows))
        chars = np.empty((rows.stop - rows.start, len(template)), _WORD)
        chars[:] = template
        if floats and start % pass_rows == 0:
            # A pass starts at this block and holds the cells of its blocks.
            first, stop = start, min(start + pass_rows, n_rows)
            values = np.stack([col[first:stop] for _, col in floats], axis=1).ravel()
            cells = _float_cells(values, p, json_text, cell_width).reshape(stop - first, -1,
                                                                           cell_width)
        for k, (at, _) in enumerate(floats):
            chars[:, at:at + cell_width] = cells[rows.start - first:rows.stop - first, k]
        for at, codes, table in coded_slots:
            # take gathers whole rows about twice as fast as table[index].
            chars[:, at:at + table.shape[1]] = table.take(codes[rows], axis=0)
        yield _text(chars)


def one_row(record: dict) -> dict:
    """The columns of a one-row table: floats as float arrays, other cells as they are."""
    return {name: np.array([v]) if isinstance(v, float) else [v] for name, v in record.items()}


def json_pieces(head: dict, columns: dict, footer: dict, p: int):
    """The JSON document as bytes in pieces, the same text as
    ``json.dumps(payload, indent=2)`` for payload = {**head, rows, summary},
    at p significant digits.

    The head goes through json.dumps; the rows and the summary (a one-row
    table) go through :func:`_row_blocks`, between keys json.dumps writes.
    The writer decodes the pieces only for a text-only stdout.
    """
    import json

    yield json.dumps(head, indent=2)[:-2].encode()  # without the closing "\n}"
    keys = [json.dumps(name) + ": " for name in columns]
    # Each row carries its leading separator; the first row drops it.
    rows = _row_blocks(columns, _pieces(",\n    {\n      ", ",\n      ", keys, "\n    }"),
                       p, json_text=True)
    first = next(rows, None)
    if first is None:
        yield b',\n  "rows": []'
    else:
        yield b',\n  "rows": [\n' + first[2:]
        yield from rows
        yield b"\n  ]"
    if footer:
        keys = [json.dumps(name) + ": " for name in footer]
        yield from _row_blocks(one_row(footer),
                               _pieces(',\n  "summary": {\n    ', ",\n    ", keys, "\n  }"),
                               p, json_text=True)
    yield b"\n}\n"


def csv_pieces(columns: dict, footer: dict, p: int):
    """The CSV text as bytes in pieces at p significant digits: the header, the
    rows, then one ``# key=value`` line per footer entry (a one-row table).
    The writer decodes the pieces only for a text-only stdout."""
    yield _encode(",".join(columns) + "\n")
    yield from _row_blocks(columns, _pieces("", ",", [""] * len(columns), "\n"), p, False)
    if footer:
        keys = [f"{name}=" for name in footer]
        yield from _row_blocks(one_row(footer), _pieces("# ", "\n# ", keys, "\n"), p, False)
