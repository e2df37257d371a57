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

Rows go out in blocks of ``_BLOCK_ROWS``, each laid out on a byte canvas at
fixed byte positions: the pieces between cells as they are, the float cells
copied from a digit pass, and each distinct cell of a coded or str/int
column formatted once and gathered. Each slot is as wide as the widest text
it can take in the block, so the canvas carries only the pads that vary from
row to row. One pass formats the float columns of whole blocks, the fewest
that hold ``_PASS_VALUES`` floats, since much of its cost is fixed per call;
a larger canvas was slower. A run of adjacent coded columns sharing one codes
array is one gathered slot, which holds its separators and keys too. Bytes
between texts are 0xFF, which no UTF-8 (or surrogatepass) encoding has: one
``bytes.translate`` pass that deletes them, at a cost per canvas byte,
compacts a block. A footer skips all of that: one join writes its entries.
The pieces :func:`csv_pieces` and :func:`json_pieces` yield are those bytes,
UTF-8 with lone surrogates passed through; the writer decodes them only for
a text-only stdout.
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
# The digit pass writes 4 digits as one word, byte 0 first, a JSON sign or
# point as 2 bytes and an exponent 'e%+03d' as 8; 0xFF pads the bytes between texts.
_WORD, _HALF, _EXPONENT = np.dtype("<u4"), np.dtype("<u2"), np.dtype("<u8")
_PAD = b"\xff"
# The exponent table has a row for each of -_EXP..+_EXP, then an empty row.
_EXP = 330


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """For each q in 0..9999: its 4 ASCII digits as a word, and that word with
    its leading and with its trailing zeros as pads; a JSON cell's 2 bytes
    of sign ('', '-', '0', '-0') and of point ('.', '.0'); the exponent
    table, the 8 bytes of 'e%+03d' per entry as one _EXPONENT; 10.0**k for
    k in 0..301, correctly rounded; and 10**k as int64 for k in 0..18."""
    q = np.arange(10000, dtype=_WORD)
    digits = lead = trail = 0
    for byte, power in enumerate((1000, 100, 10, 1)):
        # The digit of ``power``, kept in lead where a nonzero digit is at or
        # before it and in trail where one is at or after it.
        digit, pad = (q // power % 10 + ord("0")) << 8 * byte, 0xFF << 8 * byte
        digits = digits | digit
        lead = lead | np.where(q >= power, digit, pad)
        trail = trail | np.where(q % (10 * power) != 0, digit, pad)
    halves = _byte_table([b"", b"-", b"0", b"-0", b".", b".0"], 2).view(_HALF)[:, 0]
    exponents = _byte_table([b"e%+03d" % k for k in range(-_EXP, _EXP + 1)] + [b""], 8)
    exponents = exponents.view(_EXPONENT)[:, 0]
    pow10 = np.array([f"1e{k}" for k in range(302)]).astype(float)
    return digits, lead, trail, halves, exponents, pow10, 10 ** np.arange(19, dtype=np.int64)


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


def _words(chars: np.ndarray, end: int, places: int) -> np.ndarray:
    """The fewest 4-byte word columns of ``chars`` that end at byte ``end``
    and hold ``places`` digits; they may start before the digits."""
    return chars[:, end - 4 * -(-places // 4):end].view(_WORD)


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
                places: int) -> np.ndarray:
    """Lay out the cells of :func:`_float_cells` from one numpy digit pass.

    Fills the bytes of each cell in ``chars`` (see :func:`_cell_rows`) for
    every value and returns where the pass is exact: zeros, and |v| in
    [1e-290, 1e290] whose scaled mantissa is not within the tie margin
    (p <= 12). ``places`` is a JSON cell's integer places.
    """
    _, _, _, halves, exponents, pow10, ipow10 = _digit_tables()
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
        # Bytes 1-2: the sign, and the 0 of a zero integer part. Then the
        # integer part's places (its words start at byte 0 at the earliest,
        # before the sign is written over them), 2 bytes for '.' or '.0' and
        # the fraction's p+3 digits, left-aligned in words of p+4 to p+7.
        point = 3 + places
        _put_digits(n_int, _words(chars, point, places), "leading")
        chars[:, 1:3].view(_HALF)[:, 0] = halves[neg | (n_int == 0) << 1]
        chars[:, point:point + 2].view(_HALF)[:, 0] = halves[np.where(n_frac != 0, 4, pos * 5)]
        fraction = chars[:, point + 2:point + 2 + (p + 7) // 4 * 4].view(_WORD)
        _put_digits(n_frac * ipow10[fraction.shape[1] * 4 - p - 3], fraction, "trailing")
        # The exponent form has p-1 fraction digits and the positional form no
        # exponent, so the exponent overlays the fraction's last places: every
        # byte of the two is a pad in one of them, and pads are all ones.
        overlay = chars[:, point + p + 1:point + p + 9].view(_EXPONENT)[:, 0]
        overlay &= exponents[np.where(pos, -1, e + _EXP)]
    else:
        # Byte 1: '-' or a pad; byte 2: the first digit; then '.' and the other
        # p-1 digits, whose zero-padded words are written first, and the exponent.
        top = ipow10[p - 1]
        after = p + 2 + (p > 1)
        _put_digits(m % top, _words(chars, after, p - 1))
        chars[:, 1] = np.where(neg, ord("-"), 0xFF)
        chars[:, 2] = m // top + ord("0")
        if p > 1:
            chars[:, 3] = ord(".")
        chars[:, after:after + 8].view(_EXPONENT)[:, 0] = exponents[e + _EXP]
    return fast


def _cell_layout(values: np.ndarray, p: int, json_text: bool) -> tuple[int, int]:
    """Bytes per float cell for ``values`` at p, and a JSON cell's integer places.

    A CSV cell is [-]d.ddde+dd, p + 6 bytes (p + 5 at p = 1). A JSON cell has
    2 bytes for [-] or [-]0, a place per digit of the largest positional |v|
    (below 1e16) and one for a rounding carry such as 999.6 -> 1000, 2 for '.'
    or '.0' and the fraction's p+3 places, which the exponent form's p-1
    digits and 'e+dd' share. Either takes a byte more where an exponent may
    have 3 digits. An exact text has the same form, or is 'nan', 'inf' or
    '-Infinity', and fits too. (np.max and np.min add a fixed cost per call.)
    """
    a = np.abs(values)
    wide = bool(np.maximum.reduce(a, where=a < np.inf, initial=0.0) >= 1e99
                or np.minimum.reduce(a, where=a > 0, initial=1.0) < 1e-99)
    if not json_text:
        return p + 5 + (p > 1) + wide, 0
    top = np.maximum.reduce(a, where=a < 1e16, initial=0.0)
    places = len(str(int(top))) + (top >= 1)
    return places + p + 7 + wide, places


def _cell_rows(n: int, width: int, rows: np.ndarray | None = None) -> np.ndarray:
    """n rows for cells of ``width`` bytes at [1, 1 + width), of ``rows`` if it
    has room: the digit pass writes from a byte before a cell to 4 past it."""
    if rows is None or len(rows) < n or rows.shape[1] < width + 5:
        rows = np.empty((n, width + 5), np.uint8)
    return rows[:n]


def _float_cells(values: np.ndarray, p: int, json_text: bool, layout: tuple[int, int] | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Each float of a 1-d array at p significant digits, as a row of the
    ``layout`` bytes (by default :func:`_cell_layout` of the values), pads as
    0xFF: a view of the :func:`_cell_rows` of ``out``.

    A CSV cell is '%.{p-1}e' of the value; a JSON cell is the text json.dumps
    writes for the float that reads back from it. -0.0 prints as 0. For p <= 12
    one numpy digit pass lays out the cells; the values it cannot place
    exactly, every value of a short array and every value for p > 12 take the
    per-cell '%' rule of :func:`_exact_texts`.
    """
    v = values + 0.0  # -0.0 becomes 0.0; every other value stays as it is
    width, places = layout or _cell_layout(v, p, json_text)
    chars = _cell_rows(len(v), width, out)
    if p <= _FAST_PRECISION and len(v) >= _FAST_MIN_CELLS:
        slow = np.flatnonzero(~_fast_cells(v, p, json_text, chars, places))
    else:
        slow = np.arange(len(v))
    if slow.size:
        texts = _exact_texts(v[slow].tolist(), p, json_text)
        chars[slow, 1:1 + width] = _byte_table(list(map(str.encode, texts)), width)
    return chars[:, 1:1 + width]


def _text(chars: np.ndarray) -> bytes:
    """The bytes of an array, in order and without pads: one
    ``bytes.translate`` pass deletes the 0xFF bytes. They stay bytes up to
    the output file or stdout."""
    return chars.tobytes().translate(None, _PAD)


def _encode(text: str) -> bytes:
    """UTF-8 bytes of ``text``; a lone surrogate (possible in a str cell) passes through."""
    return text.encode("utf-8", "surrogatepass")


def float_text(value: float, p: int) -> str:
    """The CSV text of one float at p significant digits (-0.0 as 0)."""
    return _exact_texts([value + 0.0], p, json_text=False)[0]


def _summary_texts(footer: dict, p: int, dumps=None) -> list[str]:
    """Each footer value's text as :func:`_row_blocks` writes a cell: a float by
    the exact path, others by ``str`` for CSV or ``dumps`` (json.dumps) for JSON."""
    return [_exact_texts([v + 0.0], p, dumps is not None)[0] if isinstance(v, float)
            else dumps(v) if dumps else str(v) for v in footer.values()]


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


def _byte_table(data: list[bytes], width: int | None = None) -> np.ndarray:
    """Texts' bytes as rows of ``width`` bytes (by default the longest text's), padded."""
    if width is None:
        width = max(map(len, data), default=0)
    chars = np.frombuffer(b"".join([d.ljust(width, _PAD) for d in data]), np.uint8)
    return chars.reshape(len(data), width)


def _items(chars: np.ndarray) -> np.ndarray:
    """The rows of a 2-d byte array whose rows are contiguous, as 1-d void
    items: numpy gathers and copies those several times faster than rows."""
    return chars.view(f"V{chars.shape[1]}")[:, 0]


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
    piece and cell without pads between them.

    The rows of a block share one byte layout: each piece as it is, each
    float cell in its pass's :func:`_cell_layout` bytes and each coded slot
    in those of its longest text in the block. A canvas, pieces included,
    is made only where the layout changes, once for most tables: each block
    overwrites every byte of its slots before :func:`_text` copies it out.
    One array of cell rows likewise serves every pass it has room for.

    The two sizes differ. A block has ``_BLOCK_ROWS`` rows: canvases of 4096
    and 9039 rows measured slower. A pass is the fewest whole blocks that
    hold ``_PASS_VALUES`` floats, so no block straddles two passes: the
    digit pass costs some 65 numpy calls and the exact path's set-up per
    call, a large share of its time at 2048 values, and a table with one
    float column, such as a sweep, would pay that once per block. A table
    with that many floats per block, or of one block, keeps one pass per
    block.
    """
    lengths = [len(col) for col in columns.values()]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal lengths {lengths}")
    n_rows = lengths[0] if lengths else 0
    if not n_rows:
        return
    # Each cell's piece and slot: [piece, None, k] for the k-th float column
    # and [b"", codes, texts] for a run of coded columns, each text the run's
    # pieces and cells for one code. No float text holds "\n", so it ends each cell.
    slots, float_columns = [], []
    for piece, col in zip(pieces, columns.values()):
        if isinstance(col, np.ndarray):
            slots.append([piece, None, len(float_columns)])
            float_columns.append(col)
            continue
        coded = col if isinstance(col, Coded) else _coded(col)
        if isinstance(coded.values, np.ndarray):
            cells = _float_cells(coded.values, p, json_text)
            ends = np.full((len(cells), 1), ord("\n"), np.uint8)
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
    starts = range(0, n_rows, _BLOCK_ROWS)
    # Each coded run's width per block, the longest text among the block's
    # codes, and its texts as a padded table; a float slot's is its pass's.
    for slot in slots:
        if slot[1] is None:
            slot.append(None)
            continue
        sizes = np.array([len(text) for text in slot[2]])
        slot[2] = _byte_table(slot[2])
        if sizes.min() < sizes.max():
            slot.append(np.maximum.reduceat(sizes[slot[1]], starts).tolist())
        else:
            slot.append([int(sizes[0])] * len(starts))
    # Whole blocks per digit pass: the fewest that hold _PASS_VALUES floats.
    n_floats = len(float_columns)
    pass_rows = _BLOCK_ROWS * -(-_PASS_VALUES // (_BLOCK_ROWS * max(n_floats, 1)))
    cell_rows = shape = None
    for b, start in enumerate(starts):
        stop = min(start + _BLOCK_ROWS, n_rows)
        if n_floats and start % pass_rows == 0:
            # A pass starts at this block and holds the cells of its blocks,
            # in the layout of its values.
            first = start
            values = np.stack([col[first:first + pass_rows] for col in float_columns], 1).ravel()
            layout = _cell_layout(values, p, json_text)
            cell_rows = _cell_rows(len(values), layout[0], cell_rows)
            cells = _float_cells(values, p, json_text, layout, cell_rows)
            cells = _items(cells).reshape(-1, n_floats)
        widths = [layout[0] if codes is None else sizes[b] for _, codes, _, sizes in slots]
        if widths != shape:
            # A new layout: the pieces, pads in the slots as yet, and per slot
            # its items on the canvas and the cells it takes.
            shape, template, targets = widths, bytearray(), []
            for (piece, codes, col, _), width in zip(slots, shape):
                template += piece
                targets.append((len(template), width, codes, col))
                template += _PAD * width
            chars = np.empty((min(n_rows, _BLOCK_ROWS), len(template) + len(pieces[-1])), np.uint8)
            chars[:] = np.frombuffer(template + pieces[-1], np.uint8)
            targets = [(_items(chars[:, at:at + width]), codes,
                        col if codes is None else _items(col[:, :width]))
                       for at, width, codes, col in targets if width]
        for target, codes, cells_of in targets:
            if codes is None:
                target[:stop - start] = cells[start - first:stop - first, cells_of]
            else:
                # take gathers into a new array, then one copy: faster than take(out=).
                target[:stop - start] = cells_of.take(codes[start:stop])
        yield _text(chars[:stop - start])


def one_row(record: dict) -> dict:
    """The columns of a one-row table: floats as float arrays, other cells as they are."""
    return {name: np.array([v]) if isinstance(v, float) else [v] for name, v in record.items()}


def json_pieces(head: dict, columns: dict, footer: dict, p: int):
    """The JSON document as bytes in pieces, the same text as
    ``json.dumps(payload, indent=2)`` for payload = {**head, rows, summary},
    at p significant digits.

    The head goes through json.dumps; the rows go through :func:`_row_blocks`,
    between keys json.dumps writes, and the summary's entries are joined into
    one piece, each value as a row's cell (see :func:`_summary_texts`). The
    writer decodes the pieces only for a text-only stdout.
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
        items = [f"{json.dumps(name)}: {text}"
                 for name, text in zip(footer, _summary_texts(footer, p, json.dumps))]
        yield _encode(',\n  "summary": {\n    ' + ",\n    ".join(items) + "\n  }")
    yield b"\n}\n"


def csv_pieces(columns: dict, footer: dict, p: int):
    """The CSV text as bytes in pieces at p significant digits: the header, the
    rows, then one ``# key=value`` line per footer entry, its value as a row's
    cell (see :func:`_summary_texts`). The writer decodes the pieces only for
    a text-only stdout."""
    yield _encode(",".join(columns) + "\n")
    yield from _row_blocks(columns, _pieces("", ",", [""] * len(columns), "\n"), p, False)
    if footer:
        texts = _summary_texts(footer, p)
        yield _encode("".join(f"# {name}={text}\n" for name, text in zip(footer, texts)))
