"""Numeric columns spelled at word speed.

render_columns returns the bytes that '%.17g' % (float columns) and '%d' %
(bool columns) write for the .tolist() rows, each cell behind its column's
prefix and each row ending in a suffix; a bytes ("S") column is taken as it
is.  spell_floats spells floats as '%.17g' into such a column.  A block of
rows is rendered into one uint8 buffer, reused across blocks and calls and
grown only when a block needs more room, and read as little-endian 64-bit
words: a float cell takes 4 whole words (32 slots), a bool cell one slot ORed
into its word and a bytes cell its own bytes; the prefixes and the suffix fill
the slots between the cells, and every slot a row does not use holds NUL,
which bytes.translate deletes.  Every numpy operation runs over the rows, on
contiguous arrays or on one word column of the buffer.  serialize imports
this module lazily, so `import qsu2.cli` does not compile it.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

# The digit core.  With E = floor(log10 |x|), the 17 digits of a float64 are
# the integer D = round(R), R = |x| 10^k, k = 16 - E, rounded half to even.
# For |x| in (1e-6, 1e17), k is in [0, 22], where 10^k is a double (the
# double 1e-6 lies below 10^-6, so the range is open there).  R is then found
# exactly in float64: p = fl(|x| 10^k), and its error R - p is exact by
# Dekker's product, with Veltkamp's split of |x| and of 10^k into 26-bit
# halves (T. J. Dekker, Numer. Math. 18 (1971) 224); no partial product comes
# near underflow.  From R >= 2^53 on, p is an integer, even where ulp(p) >= 2,
# and where ulp(p) = 1 a tie R - p = +-1/2 has already rounded p to even; so
# p + rint(R - p) is round(R), half to even.  This needs only IEEE-754 double
# arithmetic rounded to nearest, so no platform check is left.  Every other
# cell but 0, nan and inf is spelled by '%' in one batch.  The digits of D
# are spelled four at a time from a table, and the slots of a cell from a
# table of layouts keyed by sign, exponent and digit count.

_CORE_MIN, _CORE_MAX = 1e-6, 1e17  # the open range of |x| the core spells
_POW10 = np.array([float(10**k) for k in range(23)])  # the powers of ten that are doubles
_VELTKAMP = 2.0**27 + 1


def _split(v: np.ndarray) -> tuple:
    """Veltkamp's split: v = hi + lo, each with 26 significant bits."""
    t = v * _VELTKAMP
    hi = t - (t - v)
    return hi, v - hi


_POW10_HALVES = np.array(_split(_POW10))

# The slots of a float cell, bytes 0..31 of its 4 words.  '%.17g' fills at
# most 0..28: the lead digit stands at 6, the other 16 digits at 7..22 ahead
# of the point or at 8..23 behind it (there two whole words), and the sign,
# the "0." of |x| < 1, the point and the exponent stand next to the digits,
# so a cell's text has no NUL inside.  29..31 are free for the text behind
# the cell.
_WORD = np.dtype("<u8")
FLOAT_WORDS = 4
FLOAT_SLOTS = 29
_LEAD_AT = 6
# the decimal exponents of the core's cells
_X_MIN, _X_MAX = -6, 16
_KEYS_PER_SIGN = (_X_MAX - _X_MIN + 1) * 17
# per word of digits 1..8 and 9..16: the float64 exponent bias less 8 times
# the place of the word's first digit
_LAST_BIAS = np.array([[1023 - 8], [1023 - 72]])

# '%.17g' of nan, 0, -0, inf and -inf, keyed after the layouts, and after
# them the key of a cell that '%' spells
_SPECIALS = (b"nan", b"0", b"-0", b"inf", b"-inf")
_REST_KEY = 2 * _KEYS_PER_SIGN + len(_SPECIALS)
# the key of a cell the layouts do not spell, by its sign, its biased
# exponent and whether its fraction is not 0
_SPECIAL_KEYS = np.full((2, 2048, 2), _REST_KEY)
_SPECIAL_KEYS[:, 2047, 1] = 2 * _KEYS_PER_SIGN  # nan
_SPECIAL_KEYS[:, 0, 0] = 2 * _KEYS_PER_SIGN + np.array([1, 2])  # 0, -0
_SPECIAL_KEYS[:, 2047, 0] = 2 * _KEYS_PER_SIGN + np.array([3, 4])  # inf, -inf
_SPECIAL_KEYS = _SPECIAL_KEYS.ravel()


def _spell_percent(values: list) -> list:
    return (b"%.17g\0" * len(values) % tuple(values)).split(b"\0")[:-1]


@functools.cache
def _quads() -> np.ndarray:
    """The digits of 0000..9999, four bytes each as one uint32, each byte
    the digit's value."""
    digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = digits.astype(np.uint8).view("<u4").ravel()
    quads.flags.writeable = False  # shared by every caller
    return quads


def _cell_words(texts) -> np.ndarray:
    """Each text as the (n, FLOAT_WORDS) words of a float cell."""
    return np.array(texts, dtype=f"S{8 * FLOAT_WORDS}").view(_WORD).reshape(-1, FLOAT_WORDS)


@functools.cache
def _float_layouts() -> np.ndarray:
    """The slots of a float cell that D's digits do not give, by key (sign,
    exponent, digit count; then the specials' and the rest's), as 9 rows of
    words: the constant slots (with "0" where a digit goes), the mask of
    words 0..2 of the digits ahead of the point, and the mask of words 1
    and 2 of the digits behind it."""
    size = 8 * FLOAT_WORDS
    const, ahead, behind = (bytearray(2 * _KEYS_PER_SIGN * size) for _ in range(3))
    at = 0
    for sign in (b"", b"-"):
        for x in range(_X_MIN, _X_MAX + 1):
            for nd in range(1, 18):
                small, fixed = -4 <= x < 0, 0 <= x < 17  # 0.000ddd, and no exponent
                left = nd if small else x + 1 if fixed else 1  # the digits ahead of the point
                right = max(nd - left, 0)
                head = sign + (b"0." + b"0" * (-x - 1) if small else b"")
                text = head + b"0" * left + (b"." + b"0" * right if right else b"")
                if not (small or fixed):
                    text += b"e%+03d" % x
                start = at + _LEAD_AT - len(head)
                const[start : start + len(text)] = text
                ahead[at + _LEAD_AT : at + _LEAD_AT + left] = b"\xff" * left
                behind[at + _LEAD_AT + 1 + left : at + _LEAD_AT + 1 + left + right] = b"\xff" * right
                at += size
    const, ahead, behind = (np.frombuffer(t, _WORD).reshape(-1, FLOAT_WORDS).T for t in (const, ahead, behind))
    const = np.concatenate([const, _cell_words(_SPECIALS + (b"",)).T], axis=1)
    ahead, behind = (np.pad(t, ((0, 0), (0, len(_SPECIALS) + 1))) for t in (ahead, behind))
    layouts = np.concatenate([const, ahead[:3], behind[1:3]]).copy(order="C")  # a row of keys per word
    layouts.flags.writeable = False  # shared by every caller
    return layouts


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """p + rint(err) in int64, p = fl(a 10^k) and err = a 10^k - p exactly."""
    p = a * _POW10.take(k)
    hi, lo = _split(a)
    ten_hi, ten_lo = _POW10_HALVES.take(k, axis=1)
    err = p - hi * ten_hi
    err -= lo * ten_hi
    err -= hi * ten_lo
    np.subtract(lo * ten_lo, err, out=err)
    d = p.astype(np.int64)
    d += np.rint(err, out=err).astype(np.int64)
    return d


def _digit_core(a: np.ndarray) -> tuple:
    """For |x| = a in (_CORE_MIN, _CORE_MAX): k = 16 - E and D = round(a 10^k)
    in int64, rounded half to even, with 10^16 <= D < 10^17."""
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    d = _scaled(a, k)
    # floor(log10) can be one off next to a power of ten, and R can round up
    # to 10^17 (one step down then gives 10^16); D says which way k moves
    step = np.subtract(d < 10**16, d >= 10**17, dtype=np.int64)
    moved = step.nonzero()[0]
    if moved.size:
        k[moved] += step[moved]
        d[moved] = _scaled(a[moved], k[moved])
    return k, d


def _spell_floats(x: np.ndarray, cells: np.ndarray, tail: int = 0) -> None:
    """Spell each float64 of x into its row of cells ((n, FLOAT_WORDS)
    words) as '%.17g', NUL in the slots it does not use but for the bytes of
    tail, ORed into the last word of every cell."""
    if not len(x):
        return
    a = np.abs(x)
    # 0, nan and inf have keys of their own, and every other |x| outside the
    # core's range goes to the '%' batch; the core gets them as 1.5
    core = (a > _CORE_MIN) & (a < _CORE_MAX)
    k, d = _digit_core(np.where(core, a, 1.5))

    # D = lead 10^16 + hi 10^8 + lo, and hi and lo are two 4-digit groups
    # each; v 109951163 >> 40 is v // 10^4 for v < 10^8 (109951163 is
    # 2^40 / 10^4 rounded up, and errs by less than 10^-4)
    top = d // 10**8
    lead = top // 10**8
    halves = np.empty((2, len(x)), np.int64)
    np.subtract(top, lead * 10**8, out=halves[0])
    np.subtract(d, top * 10**8, out=halves[1])
    high = (halves * 109951163) >> 40
    groups = np.empty((2, len(x), 2), np.intp)  # word, cell, group
    groups[..., 0] = high
    np.subtract(halves, high * 10**4, out=groups[..., 1])
    digits = _quads().take(groups).view(_WORD).reshape(2, -1)  # digits 1..8 and 9..16
    # the last digit that is not 0, by the top byte that is not 0 of each
    # word, read off the exponent of its float64 (exact to the byte: the top
    # byte is at most 9); 0 for the lead digit alone
    last = digits.view(np.int64).astype(np.float64).view(np.int64) >> 52
    last -= _LAST_BIAS
    key = np.maximum(last[0], last[1])
    np.maximum(key, 0, out=key)
    key >>= 3
    k *= -17
    key += k
    key += (16 - _X_MIN) * 17
    key += np.signbit(x) * _KEYS_PER_SIGN

    # the cells '%.17g' spells: nan, 0, -0, inf and -inf by their keys,
    # the rest in one batch, whose key has no slots
    bad = (~core).nonzero()[0]
    if bad.size:
        bits = x[bad].view(_WORD)
        special = _SPECIAL_KEYS.take(((bits >> 52) << 1) + ((bits << 12) != 0))
        key[bad] = special
        bad = bad[special == _REST_KEY]
    slots = _float_layouts().take(key, axis=1)
    const, ahead, behind = slots[:4], slots[4:7], slots[7:]
    if bad.size:
        const[:, bad] = _cell_words(_spell_percent(x[bad].tolist())).T

    # D's digits one slot down, ahead of the point: lead at 6, the words at 7..22
    spelled = np.empty((3, len(x)), _WORD)
    np.right_shift(digits, 8, out=spelled[1:])
    np.left_shift(digits[0], 56, out=spelled[0])
    spelled[1] |= digits[1] << 56
    spelled[0] |= lead.view(_WORD) << 48
    spelled &= ahead
    behind &= digits
    spelled[1:] |= behind
    np.bitwise_or(spelled, const[:3], out=cells.T[:3])
    np.bitwise_or(const[3], tail, out=cells[:, 3])


def spell_floats(x: np.ndarray) -> np.ndarray:
    """Each float64 of x as '%.17g', a NUL-padded bytes ("S") array."""
    cells = np.empty((len(x), FLOAT_WORDS), _WORD)
    _spell_floats(x, cells)
    return np.ndarray((len(x),), f"S{FLOAT_SLOTS}", cells, 0, (8 * FLOAT_WORDS,))


def _align(at: int) -> int:
    return -(-at // 8) * 8


@functools.lru_cache(maxsize=64)
def _row_layout(kinds: tuple, prefixes: tuple, suffix: bytes) -> tuple:
    """Where a row puts its cells and its text, for columns of the given
    kinds ("f" float, "b" bool, or a bytes cell's width): the row's width in
    bytes, the row as words (each prefix and the suffix in place, "0" where
    a bool goes, NUL elsewhere), the offset of each cell, and the (offset,
    bytes) of each run of slots outside the float and bytes cells.  A float
    cell takes 4 whole words and the text behind it may fill its 3 free
    slots; a bool cell is the one slot behind its prefix."""
    text = bytearray()
    cells, spans = [], []
    free = 0  # the first slot past the float and bytes cells
    for kind, prefix in zip(kinds, prefixes):
        text += prefix
        if kind == "f":
            start = _align(max(len(text), free))
            free = start + 8 * FLOAT_WORDS
            spans.append((start, free))
            text += bytes(start + FLOAT_SLOTS - len(text))
        elif kind == "b":
            start = len(text)
            text += b"0"
        else:
            start = max(len(text), free)
            free = start + kind
            spans.append((start, free))
            text += bytes(free - len(text))
        cells.append(start)
    text += suffix
    width = _align(max(len(text), free))
    text += bytes(width - len(text))
    runs, at = [], 0
    for lo, hi in spans + [(width, width)]:
        if at < lo:
            runs.append((at, bytes(text[at:lo])))
        at = hi
    return width, np.frombuffer(bytes(text), _WORD), tuple(cells), tuple(runs)


class _Block(threading.local):
    """The buffer a thread renders its blocks into, grown as blocks need."""

    buf = np.empty(0, np.uint8)


_BLOCK = _Block()


def _slots(buf: np.ndarray, n: int, width: int, at: int, size: int) -> np.ndarray:
    """The slots at..at+size of each of n rows of width bytes, as one "S" array."""
    return np.ndarray((n,), f"S{size}", buf, at, (width,))


def render_columns(columns, prefixes=None, suffix=b"\n") -> bytes:
    """The lines of equal-length float, bool or bytes ("S") columns, byte for
    byte as % renders their .tolist() rows: each cell behind its prefix
    (default: a comma, none for the first), each row ending in suffix.  Float
    cells are spelled as '%.17g', bool cells as '%d', bytes cells as they are
    less their NUL padding."""
    if prefixes is None:
        prefixes = [b""] + [b","] * (len(columns) - 1)
    kinds = tuple(c.dtype.itemsize if c.dtype.kind == "S" else "b" if c.dtype.kind == "b" else "f" for c in columns)
    width, text, cells, runs = _row_layout(kinds, tuple(prefixes), suffix)
    n = len(columns[0])
    if _BLOCK.buf.size < n * width:
        _BLOCK.buf = np.empty(n * width, np.uint8)
    buf = _BLOCK.buf[: n * width]
    words = buf.view(_WORD).reshape(n, width // 8)
    for at, run in runs:
        _slots(buf, n, width, at, len(run))[...] = run
    for column, kind, at in zip(columns, kinds, cells):
        w = at // 8
        if kind == "f":
            _spell_floats(column.astype(np.float64, copy=False), words[:, w : w + FLOAT_WORDS], text[w + 3])
        elif kind != "b":
            _slots(buf, n, width, at, kind)[...] = column
    for column, kind, at in zip(columns, kinds, cells):
        if kind == "b":  # into the "0" in place, the float cells written
            words[:, at // 8] |= np.left_shift(column, 8 * (at % 8), dtype=_WORD)
    return buf.tobytes().translate(None, b"\0")
