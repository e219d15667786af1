"""Numeric columns spelled at array speed.

A block of columns becomes one uint8 buffer with a row per line and a fixed
run of slots per cell; the slots a cell does not use hold NUL, which
bytes.translate deletes.  render_columns returns the bytes that '%.17g' %
(float columns) and '%d' % (bool columns) write for the .tolist() rows, each
cell behind its column's prefix and each row ending in a suffix; a bytes
column is taken as it is.  spell_floats spells floats as '%.17g' into such a
column.  serialize imports this module lazily, so `import qsu2.cli` does not
compile it.
"""

from __future__ import annotations

import functools

import numpy as np

# The digit core.  With E = floor(log10 |x|), the 17 digits of a float64 are
# the integer D17 = round(R), R = |x| 10^(16-E), rounded half to even.
# P = fl(|x| * 10^k) (k >= 0) or fl(|x| / 10^-k) (k < 0), k = 16 - E, is R
# with one long-double rounding when |k| <= 27: |x| has 53 bits,
# 10^27 = 2^27 5^27 has 5^27 < 2^63, and a 64-bit significand holds both
# exactly.  Since 10^16 <= R <= 10^17 < 2^57, |P - R| <= ulp(P)/2 <= 2^-8.
# So round(P) = round(R) unless the fraction of P is within 2^-8 of 1/2
# (exact ties included), and R >= 10^16 follows from P >= 10^16 + 2^-8, or
# from |x| = 10^E exactly.  The cells left undecided, the ones outside
# |k| <= 27 and every cell where long double cannot carry the bound are
# spelled by '%' in one batch.  The digits of D are spelled four at a time
# from a table, and the slots of a cell from a table of layouts keyed by
# sign, exponent and digit count.

_LD = np.longdouble
_POW10 = np.cumprod(np.array([1] + [10] * 27, dtype=_LD))  # 10^0..10^27
_POW10_F64 = 10.0 ** np.arange(23)  # the powers of ten that are doubles
_ERR = 2.0**-8


def _long_double_exact() -> bool:
    """Whether long double arithmetic here carries the kernel's error bound:
    64 significand bits or more, exact 10^0..10^27, round-to-nearest products."""
    bits = np.finfo(_LD).nmant + 1
    if bits < 64 or any(int(p) != 10**k for k, p in enumerate(_POW10)):
        return False
    exact = (2**53 - 1) * 10**27
    shift = exact.bit_length() - bits
    q, r = divmod(exact, 1 << shift)
    q += r > (1 << (shift - 1)) or (r == 1 << (shift - 1) and q & 1)
    return int(_LD(2**53 - 1) * _POW10[27]) == q << shift


LONG_DOUBLE_EXACT = _long_double_exact()

# a float cell's slots: sign, the "0.000" of 1e-4 <= |x| < 1, 18 for the
# digits and their point, and e, the exponent's sign and 3 digits
FLOAT_SLOTS = 29
_DIGITS_AT = 6
# decimal exponents with a layout: |16 - X| <= 27 and a carry, and the ones
# a cell outside that range (which the formatter spells) may reach by one correction
_X_MIN, _X_MAX = -12, 45


# '%.17g' of nan, 0, -0, inf and -inf
_SPECIALS = (b"nan", b"0", b"-0", b"inf", b"-inf")


def _spell_percent(values: list) -> list:
    return (b"%.17g\0" * len(values) % tuple(values)).split(b"\0")[:-1]


@functools.cache
def _quads() -> tuple:
    """The digits of 0000..9999, four bytes each as one uint32, and how many
    of each group's digits are trailing zeros."""
    digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    spelled = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    zeros = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    spelled.flags.writeable = zeros.flags.writeable = False  # shared by every caller
    return spelled, zeros


@functools.cache
def _float_layouts() -> tuple:
    """Three tables of slot rows, indexed by the key (sign, exponent, digit
    count): the constant bytes, the mask of the digits that stand where D
    puts them, and the mask of the digits one slot to the right, behind the
    point; and the specials' slot rows."""
    table = np.zeros((2, _X_MAX - _X_MIN + 1, 17, 3, FLOAT_SLOTS), np.uint8)
    table[1, :, :, 0, 0] = ord("-")
    nd = np.arange(1, 18)[:, None]
    at = np.arange(FLOAT_SLOTS) - _DIGITS_AT  # the digit a slot holds
    for x in range(_X_MIN, _X_MAX + 1):
        const, left, right = table[:, x - _X_MIN].transpose(2, 0, 1, 3)
        if -4 <= x < 0:
            prefix = b"0." + b"0" * (-x - 1)
            const[..., 1 : 1 + len(prefix)] = list(prefix)
            left[:] = np.where((at >= 0) & (at < nd), 0xFF, 0)
            continue
        fixed = 0 <= x < 17  # %.17g writes no exponent below its precision
        point = x + 1 if fixed else 1  # digits ahead of the point
        shown = np.maximum(nd, point)
        left[:] = np.where((at >= 0) & (at < point), 0xFF, 0)
        right[:] = np.where((at > point) & (at <= shown), 0xFF, 0)
        const[..., _DIGITS_AT + point] = np.where(shown > point, ord("."), 0)[:, 0]
        if not fixed:
            exponent = b"e%+03d" % x
            const[..., FLOAT_SLOTS - len(exponent) :] = list(exponent)
    # one contiguous (keys, slots) table per row kind, shared by every caller
    layouts = table.reshape(-1, 3, FLOAT_SLOTS).transpose(1, 0, 2).copy()
    specials = np.array(_SPECIALS, dtype=f"S{FLOAT_SLOTS}").view(np.uint8).reshape(5, -1)
    layouts.flags.writeable = specials.flags.writeable = False
    return layouts, specials


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a 10^k in long double, with one rounding for |k| <= 27."""
    scaled = a.astype(_LD) * _POW10.take(np.maximum(k, 0))
    return scaled if k.min() >= 0 else scaled / _POW10.take(np.maximum(-k, 0))


def _digit_core(a: np.ndarray) -> tuple:
    """For |x| = a: k = 16 - E, P = a 10^k in long double, D = floor(P) in
    int64, the fraction P - D in float64, and the mask of the cells where
    10^16 <= R <= 10^17 is proven (False at 0, inf and nan)."""
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        ok = np.abs(16.0 - e) <= 27.0
        k = np.where(ok, 16.0 - e, 0.0).astype(np.int64)
        p = _scaled(a, k)
        d = p.astype(np.int64)
        # floor(log10) can be one off next to a power of ten; D says which way
        step = np.subtract(d < 10**16, d >= 10**17, dtype=np.int64)
        moved = np.flatnonzero(ok & (step != 0))
        if moved.size:
            k[moved] += step[moved]
            ok[moved] &= np.abs(k[moved]) <= 27
            p[moved] = _scaled(a[moved], np.clip(k[moved], -27, 27))
            d[moved] = p[moved].astype(np.int64)
        frac = (p - d).astype(np.float64)  # a multiple of 2^-10, exact
    ok &= (d >= 10**16) & (d <= 10**17)
    # within the bound above 10^16, R >= 10^16 is proven only where |x| is 10^E
    edge = np.flatnonzero(ok & (d == 10**16) & (frac <= _ERR))
    ok[edge] = a[edge] == _POW10_F64[np.clip(16 - k[edge], 0, 22)]
    if not LONG_DOUBLE_EXACT:
        ok[:] = False
    return k, d, frac, ok


def _spell_floats(x: np.ndarray, cells: np.ndarray) -> None:
    """Spell each float64 of x into its row of cells (n, FLOAT_SLOTS) as
    '%.17g', NUL in the slots it does not use."""
    n = len(x)
    if not n:
        return
    k, d, frac, ok = _digit_core(np.abs(x))
    ok &= np.abs(frac - 0.5) > _ERR
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    x10 = 16 - k + carry

    # D = lead 10^16 + hi 10^8 + lo, and hi and lo are two 4-digit groups each.
    # Below 10^9 the quotients of float64 divisions floor exactly, faster than
    # int64 ones
    top = d // 10**8
    halves = np.empty((n, 2))
    halves[:, 1] = d - top * 10**8
    top = top.astype(np.float64)
    lead = np.floor(top / 1e8)
    halves[:, 0] = top - lead * 1e8
    high = np.floor(halves / 1e4)
    groups = np.empty((n, 2, 2), np.intp)
    groups[..., 0] = high
    groups[..., 1] = halves - high * 1e4
    groups = groups.reshape(n, 4)
    digits = np.empty((n, 17), np.uint8)
    digits[:, 0] = lead + ord("0")
    quads, quad_zeros = _quads()
    digits[:, 1:] = quads.take(groups).view(np.uint8)
    # trailing zeros of D, a group at a time from the last (the lead digit is not 0)
    zeros = quad_zeros.take(groups)
    tail = zeros[:, 0]
    for j in (1, 2, 3):
        tail = zeros[:, j] + (zeros[:, j] == 4) * tail

    key = (np.signbit(x) * (_X_MAX - _X_MIN + 1) + (x10 - _X_MIN)) * 17 + (16 - tail)
    (const, left, right), specials = _float_layouts()
    spelled = left.take(key, axis=0)  # NUL outside the digits
    spelled[:, _DIGITS_AT : _DIGITS_AT + 17] &= digits
    shifted = right.take(key, axis=0)
    shifted[:, _DIGITS_AT + 1 : _DIGITS_AT + 18] &= digits
    spelled |= shifted
    spelled |= const.take(key, axis=0, out=shifted)
    cells[:] = spelled

    bad = np.flatnonzero(~ok)
    if bad.size:
        xb = x[bad]
        special = ~np.isfinite(xb) | (xb == 0)
        code = np.where(np.isnan(xb), 0, np.where(xb == 0, 1, 3) + np.signbit(xb))
        cells[bad[special]] = specials.take(code[special], axis=0)
        rest = bad[~special]
        if rest.size:
            texts = _spell_percent(x[rest].tolist())
            cells[rest] = np.array(texts, dtype=f"S{FLOAT_SLOTS}").view(np.uint8).reshape(-1, FLOAT_SLOTS)


def spell_floats(x: np.ndarray) -> np.ndarray:
    """Each float64 of x as '%.17g', a NUL-padded bytes ("S") array."""
    cells = np.empty((len(x), FLOAT_SLOTS), np.uint8)
    _spell_floats(x, cells)
    return cells.view(f"S{FLOAT_SLOTS}").ravel()


def render_columns(columns, prefixes=None, suffix=b"\n") -> bytes:
    """The lines of equal-length float, bool or bytes ("S") columns, byte for
    byte as % renders their .tolist() rows: each cell behind its prefix
    (default: a comma, none for the first), each row ending in suffix.  Float
    cells are spelled as '%.17g', bool cells as '%d', bytes cells as they are
    less their NUL padding."""
    if prefixes is None:
        prefixes = [b""] + [b","] * (len(columns) - 1)
    widths = [{"b": 1, "S": c.dtype.itemsize}.get(c.dtype.kind, FLOAT_SLOTS) for c in columns]
    buf = np.empty((len(columns[0]), sum(map(len, prefixes)) + sum(widths) + len(suffix)), np.uint8)
    at = 0
    for column, prefix, slots in zip(columns, prefixes, widths):
        buf[:, at : at + len(prefix)] = np.frombuffer(prefix, np.uint8)
        at += len(prefix)
        if column.dtype.kind == "b":
            buf[:, at] = column
            buf[:, at] += ord("0")
        elif column.dtype.kind == "S":
            buf[:, at : at + slots] = column.view(np.uint8).reshape(-1, slots)
        else:
            _spell_floats(column.astype(np.float64, copy=False), buf[:, at : at + slots])
        at += slots
    buf[:, at:] = np.frombuffer(suffix, np.uint8)
    return buf.tobytes().translate(None, b"\0")
