"""Numeric columns spelled, and read back, at word speed.

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
contiguous arrays or on one word column of the buffer.  read_columns reads
rows of float and 0/1 cells back, each value correctly rounded, as
np.loadtxt reads it.  serialize and cli import this module lazily, so
`import qsu2.cli` does not compile it.
"""

from __future__ import annotations

import functools
import re
import threading

import numpy as np

from .serialize import _spell_percent

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


# The reader: rows of float and 0/1 cells, as render_columns writes them,
# read back with whole-buffer numpy passes.  A float cell [-]I[.F] is read
# from the 24 bytes ahead of its end as three little-endian words, its
# point's byte cleared, each word one 8-digit group (D. Lemire, Softw.
# Pract. Exp. 51 (2021) 1700): that gives V = I 10^(q+1) + F for the q
# digits of F, and M = V - 9 I 10^q = I 10^q + F.  With n digits in M, the
# cell's value is D 10^-k, D = M 10^(17 - n) in [10^16, 10^17) and
# k = 17 - n + q, as the digit core has it for the double '%.17g' spells as
# this cell.  For n <= 17 and k <= 22 the candidate fl(fl(M) / 10^q) is
# within 2 ulp of the value; it, or its neighbour one ulp towards D, is
# accepted where _scaled rounds it to exactly D at k.  It is then within
# 10^-k / 2 of the value, which is 5.0e-17 of itself (D >= 10^16), less
# than half its gap to either neighbour, which is at least 2^-54 (5.55e-17)
# of itself: the double nearest the value, the correctly rounded one that
# strtod and np.loadtxt read (a candidate checked so, as in W. D. Clinger,
# PLDI 1990, with no bignum).  Every other cell of the grammar '%.17g'
# writes (0, nan, inf, the exponent spellings, and the cells neither
# candidate rounds to D) is read by float(), which parses it as np.loadtxt
# does; one cell outside that grammar refuses the whole body.

_READ_SLOTS = 24  # a float cell is read from the 24 bytes ahead of its end
_ONES = np.uint64(0x0101010101010101)
_LOW7 = _ONES * np.uint64(0x7F)
_TENS = _ONES * np.uint64(0x76)  # + 0x76 sets the top bit of a byte from 10 on
_TOPS = _ONES * np.uint64(0x80)
_POINT = np.uint64(ord(".") ^ ord("0"))  # the point, XORed as the digits are
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
# by j = 0..24: the words of a window that keep its last j bytes, and those
# bytes as "0"
_KEEP = np.zeros((2, _READ_SLOTS + 1, _READ_SLOTS), np.uint8)
for _j in range(1, _READ_SLOTS + 1):
    _KEEP[:, _j, -_j:] = [[0xFF], [ord("0")]]
_KEEP_BITS, _KEEP_ZEROS = _KEEP.view(_WORD)
# a float cell of the grammar '%.17g' writes
_FLOAT_CELL = re.compile(rb"-?(?:[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?|inf|nan)")


def _eight_digits(w: np.ndarray) -> None:
    """In place, each little-endian word of eight digit values (0..9, the
    first the most significant) as its integer."""
    t = np.empty_like(w)
    for shift, scale, lanes in ((8, 10, 0x00FF00FF00FF00FF), (16, 100, 0x0000FFFF0000FFFF), (32, 10**4, 0xFFFFFFFF)):
        np.right_shift(w, np.uint64(shift), out=t)
        w *= np.uint64(scale)
        w += t
        w &= np.uint64(lanes)


def _cell_digits(body, buf: np.ndarray, ends: np.ndarray, size: np.ndarray) -> tuple:
    """For the cells of size bytes ending at ends, their digits as one
    integer V (the point read as 0), the digits behind the point q (0 with
    none), whether the cell has a point, and whether its bytes are digits
    and at most one point, within 24 bytes."""
    # the 24 bytes ahead of each cell's end, NUL ahead of the body
    wide = buf if len(buf) >= _READ_SLOTS else np.zeros(_READ_SLOTS, np.uint8)
    windows = np.lib.stride_tricks.as_strided(wide, (len(wide) - _READ_SLOTS + 1, _READ_SLOTS), (1, 1))
    w = windows[np.maximum(ends - _READ_SLOTS, 0)].view(_WORD)
    for c in np.flatnonzero(ends < _READ_SLOTS).tolist():
        w[c] = np.frombuffer(bytes(body[: ends[c]]).rjust(_READ_SLOTS, b"\0"), _WORD)
    # the cell's bytes alone, each as its value: a digit's, and 0x1e for a point
    kept = np.minimum(size, _READ_SLOTS)
    w &= _KEEP_BITS.take(kept, axis=0)
    w ^= _KEEP_ZEROS.take(kept, axis=0)
    # 1 in each byte that holds a point (exact: no carry crosses a byte)
    at = w ^ _POINT * _ONES
    point = np.bitwise_and(at, _LOW7)
    point += _LOW7
    point |= at
    point |= _LOW7
    np.invert(point, out=point)
    point >>= np.uint64(7)
    # the point cleared, every byte must be a digit: none reaches 10
    np.multiply(point, _POINT, out=at)
    w ^= at
    np.bitwise_and(w, _LOW7, out=at)
    at += _TENS
    at |= w
    at &= _TOPS
    fine = (at[:, 0] | at[:, 1] | at[:, 2]) == 0
    # the point's column c from its bit 2^(8 c) as a float, and the points
    # of each cell summed in a word's top byte
    bit = point[:, 2] * 2.0**64
    bit += point[:, 1]
    bit *= 2.0**64
    bit += point[:, 0]
    q = _READ_SLOTS - 1 - (((bit.view(np.int64) >> 52) - 1023) >> 3)
    point *= _ONES
    point >>= np.uint64(56)
    points = point[:, 0] + point[:, 1] + point[:, 2]
    pointed = points == 1
    fine &= (points <= 1) & (size <= _READ_SLOTS)
    q = np.where(pointed, q, 0)
    _eight_digits(w)
    v = w.view(np.int64)
    fine &= v[:, 0] < 100  # V < 10^18
    value = v[:, 0] * 10**16
    value += v[:, 1] * 10**8
    value += v[:, 2]
    return value, q, pointed, fine


def _read_block(body, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """For the cells body[starts:ends], the float64 of each and whether it
    was read here; the value of a cell not read here is undefined."""
    neg = buf.take(starts) == ord("-")
    value, q, pointed, fast = _cell_digits(body, buf, ends, ends - starts - neg)
    # M, its digits n, D and k
    m = value - 9 * (value // _POW10_INT.take(np.where(pointed, q + 1, 18), mode="clip")) * _POW10_INT.take(q, mode="clip")
    n = _POW10_INT[:18].searchsorted(m, side="right")
    k = 17 - n + q
    fast &= (m > 0) & (m < 10**17) & (k <= 22)
    d = m * _POW10_INT.take(17 - n, mode="clip")
    # the candidate, and 1.5 at k = 0 where the cell is not read here
    k[~fast] = 0
    y = m.astype(np.float64)
    y /= _POW10.take(q, mode="clip")
    y[~fast] = 1.5
    got = _scaled(y, k)
    read = fast & (got == d)
    near = np.flatnonzero(fast & ~read)
    if near.size:
        y_near = np.nextafter(y[near], np.where(got[near] < d[near], np.inf, 0.0))
        hit = _scaled(y_near, k[near]) == d[near]
        y[near[hit]] = y_near[hit]
        read[near[hit]] = True
    np.negative(y, out=y, where=neg)
    return y, read


# cells a block of the reader: its (n, 3) word arrays stay below the 128 KiB
# from which glibc maps each allocation afresh, and then faults on every page
READ_BLOCK_CELLS = 4096


def _read_floats(body, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The float64 of each cell body[starts:ends], or None if one is neither
    read here nor in the grammar '%.17g' writes."""
    values = np.empty(len(ends))
    unread = []
    for lo in range(0, len(ends), READ_BLOCK_CELLS):
        hi = lo + READ_BLOCK_CELLS
        values[lo:hi], read = _read_block(body, buf, starts[lo:hi], ends[lo:hi])
        unread.append(np.flatnonzero(~read) + lo)
    for c in np.concatenate(unread).tolist():
        cell = bytes(body[starts[c] : ends[c]])
        if not _FLOAT_CELL.fullmatch(cell):
            return None
        values[c] = float(cell)
    return values


def read_columns(body, kinds: str):
    """The columns np.loadtxt reads, as float64 arrays, from the rows of
    body: one cell a column separated by commas, each row ending in a
    newline; a float column ("f") of '%.17g' cells or plain decimals, a
    bool column ("b") of 0 and 1.  None if a row or cell is outside that
    grammar, for np.loadtxt to read or refuse."""
    buf = np.frombuffer(body, np.uint8)
    width = len(kinds)
    # "," and "\n" end the cells: of the bytes below "-", the grammar has
    # only them and the "+" of an exponent
    ends = np.flatnonzero(buf < ord("-"))
    seps = buf.take(ends)
    if (seps == ord("+")).any():
        ends, seps = ends[seps != ord("+")], seps[seps != ord("+")]
    n = len(ends) // width
    if not n or len(ends) != n * width or ends[-1] != len(buf) - 1:
        return None
    ends, seps = ends.reshape(n, width), seps.reshape(n, width)
    if not ((seps[:, :-1] == ord(",")).all() and (seps[:, -1] == ord("\n")).all()):
        return None
    columns = []
    for j, kind in enumerate(kinds):
        end = ends[:, j]
        start = ends[:, j - 1] + 1 if j else np.concatenate(([0], ends[:-1, -1] + 1))
        if kind == "b":
            flag = buf.take(start)
            if not ((end - start == 1).all() and ((flag | 1) == ord("1")).all()):
                return None
            columns.append(np.subtract(flag, ord("0"), dtype=np.float64))
        else:
            columns.append(_read_floats(body, buf, start, end))
            if columns[-1] is None:
                return None
    return columns
