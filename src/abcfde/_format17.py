"""``format(x, ".17g")`` for whole float64 arrays: the text of the trace
CSVs that :mod:`abcfde.cli` writes.

The CLI imports this module on its first write, so ``import abcfde.cli``
neither compiles it nor builds its tables.
"""

from __future__ import annotations

import functools

import numpy as np

# Each value gets a row of FIELD bytes, six 8-byte words, that holds its
# text with zero bytes as holes the writer drops: a '-', the "0." and up to
# three '0's of 1e-4 <= |x| < 1, the 17 digits each followed by a possible
# '.', then "e", the exponent's sign and three digits, and the ',' that
# ends the field.  Which bytes are holes depends only on the sign, the
# decimal exponent X and the number of digits left once trailing zeros go,
# so a table row per (sign, layout of X, digits) holds the constant bytes
# and 0xFF where digits go; the value's digits are and-ed in a word at a
# time.

FIELD = 48
_LAYOUTS = 23  # X = -4 .. 16 printed fixed, then exponents of two and three digits
# |x| with floor(log10 |x|) in this range is converted in numpy; the range
# covers any trace value short of a blow-up, and sets the first-use cost
X_MIN, X_MAX = -100, 100
_S_MIN = 16 - X_MAX - 1  # the scales 10^s cover X = X_MIN - 1 .. X_MAX + 1
# |x| 10^(16 - X) < 2^57 comes out within 5 * 2^-106 of itself, under 2^-46;
# one nearer than this to a rounding tie goes to format()
_TIE_MARGIN = 2.0**-40
# values formatted at a time: bounds the temporaries
_CHUNK = 2**12


def _words(table) -> np.ndarray:
    """Rows of 8 bytes as one uint64 each."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint64)[..., 0]


@functools.cache
def _format_tables() -> tuple:
    """Built on first use: the scales 10^s as ph + pl with ph's halves for
    Dekker's product, the words that and in digits and exponents, the
    trailing zeros of each 4-digit chunk, and the layout rows."""
    ph, pl = [], []
    for s in range(_S_MIN, 16 - X_MIN + 2):
        if s >= 0:
            power = 10**s
            high = float(power)
            low = float(power - int(high))
        else:
            power = 10**-s
            high = 1 / power  # int / int rounds correctly
            num, den = high.as_integer_ratio()
            low = (den - num * power) / (power * den)
        ph.append(high)
        pl.append(low)
    ph = np.array(ph)
    spread = ph * 134217729.0
    upper = spread - (spread - ph)  # Veltkamp's split
    powers = ph, upper, ph - upper, np.array(pl)

    digit = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48  # "0000" .. "9999"
    n = np.arange(10000)
    trailing = sum((n % 10**k == 0).astype(np.uint8) for k in (1, 2, 3)) + (n == 0)
    chunk = np.full((10000, 8), 0xFF, np.uint8)
    chunk[:, ::2] = digit
    lead = np.full((10, 8), 0xFF, np.uint8)
    lead[:, 6] = np.arange(48, 58)

    x = np.arange(X_MIN - 1, X_MAX + 3)  # every X the tables index
    size = np.abs(x)
    exponent = np.zeros((x.size, 8), np.uint8)
    exponent[:, [0, 7]] = 0xFF
    exponent[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    exponent[:, 2:5] = size[:, None] // [100, 10, 1] % 10 + 48
    layout = np.where(size < 100, _LAYOUTS - 2, _LAYOUTS - 1)
    layout = np.where((x >= -4) & (x < 17), x + 4, layout)

    def char(keep, c):
        return np.where(keep, ord(c), 0)

    neg = np.arange(2)[:, None, None]
    x = np.arange(_LAYOUTS)[None, :, None] - 4  # X of each layout, where it is one
    kept = np.arange(18)[None, None, :]
    fixed = x < 17
    small = x < 0
    rows = np.zeros((2, _LAYOUTS, 18, FIELD), np.uint8)
    rows[..., 0] = char(neg == 1, "-")
    rows[..., 1] = char(small, "0")
    rows[..., 2] = char(small, ".")
    for i in range(3):
        rows[..., 3 + i] = char(small & (i < -x - 1), "0")
    for i in range(17):
        rows[..., 6 + 2 * i] = np.where((i < kept) | fixed & (i <= x), 0xFF, 0)
        point = (fixed & (x == i) | ~fixed & (i == 0)) & (kept > i + 1)
        rows[..., 7 + 2 * i] = char(point, ".")
    rows[..., 40] = char(~fixed, "e")
    rows[..., 41:45] = np.where(~fixed, 0xFF, 0)[..., None]
    rows[..., 42] = np.where(x == _LAYOUTS - 5, 0xFF, 0)
    rows[..., 47] = ord(",")
    return (
        powers, _words(lead), _words(chunk), trailing, layout * 18,
        _words(exponent), rows.reshape(-1, FIELD).view(np.uint64),
    )


def _scaled(a, exps, powers):
    """a 10^(16 - exps) as p + t, p an integer-valued double, within 5 * 2^-106
    of it: Dekker's exact product of a and the scale's leading double, plus
    a times the rest."""
    ph, phh, phl, pl = (np.take(table, 16 - _S_MIN - exps) for table in powers)
    p = a * ph
    ah = a * 134217729.0
    ah -= ah - a
    al = a - ah
    t = ah * phh
    t -= p
    t += ah * phl
    t += al * phh
    t += al * phl
    t += a * pl
    return p, t


def csv_fields(values) -> np.ndarray:
    """``format(x, ".17g")`` of each value, in rows of :data:`FIELD` bytes
    with zero bytes as holes, each ending in ','.

    A value with 1e-100 <= |x| < 1e101 gets its 17 digits
    D = round(|x| 10^(16 - X)), ties to even, X = floor(log10 |x|), from the
    exact binary value (the digits of Gay's correctly rounded conversion),
    and +-0.0 gets "0" or "-0"; other values, and those within
    :data:`_TIE_MARGIN` of a tie, go through ``format`` one by one.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    fields = np.empty((x.size, FIELD), np.uint8)
    for lo in range(0, x.size, _CHUNK):
        _fill_fields(x[lo : lo + _CHUNK], fields[lo : lo + _CHUNK])
    return fields


def _round17(x, powers):
    """The 17 digits D and the exponent X of each value's ``.17g`` text, and
    whether the vector conversion decided them."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        exps = np.floor(np.log10(a))
    vector = (exps >= X_MIN) & (exps <= X_MAX)
    exps = np.where(vector, exps, 0).astype(np.int64)
    a = np.where(vector, a, 1.0)

    # log10 may miss X by one next to a power of ten; p + t up to 0.01 below
    # 1e16 or 1 above 1e17 prints as its neighbour across it would
    p, t = _scaled(a, exps, powers)
    shift = ((p - 1e17) + t >= 1.0).astype(np.int64) - ((p - 1e16) + t < -0.01)
    missed = np.flatnonzero(shift)
    if missed.size:
        exps[missed] += shift[missed]
        p[missed], t[missed] = _scaled(a[missed], exps[missed], powers)
        vector[missed] &= ((p - 1e16) + t >= -0.01)[missed] & ((p - 1e17) + t < 1.0)[missed]
    whole = np.floor(t)
    t -= whole
    vector &= np.abs(t - 0.5) > _TIE_MARGIN
    digits = p.astype(np.int64) + whole.astype(np.int64) + (t > 0.5)
    carry = digits >= 10**17
    digits[carry] = 10**16
    exps += carry
    # log10(0) = -inf left +-0.0 out of the vector pass above, standing in
    # as 1.0 with X = 0; with the digits 0, the layout of X = 0 keeps one
    # digit: "0" or "-0", as format() gives
    zero = x == 0.0
    digits[zero] = 0
    return digits, exps, vector | zero


def _fill_fields(x, fields) -> None:
    powers, lead_words, chunk_words, trailing, layout_keys, exp_words, layouts = (
        _format_tables()
    )
    digits, exps, vector = _round17(x, powers)

    # 17 digits as a lead digit and four 4-digit chunks, in int32 past 10^9
    high = digits // 10**8
    low = (digits - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    lead = high // 10**8
    mid = high - lead * 10**8
    upper, lower = mid // 10**4, low // 10**4
    chunks = upper, mid - upper * 10**4, lower, low - lower * 10**4
    zeros = [np.take(trailing, chunk) for chunk in chunks]
    zeros_mid = np.where(chunks[1] != 0, zeros[1], zeros[0] + 4)
    zeros_low = np.where(chunks[3] != 0, zeros[3], zeros[2] + 4)
    kept = 17 - np.where(low != 0, zeros_low, zeros_mid + 8)
    exps -= X_MIN - 1  # the index of X in the exponent tables
    key = np.take(layout_keys, exps) + kept + np.signbit(x) * (_LAYOUTS * 18)
    words = fields.view(np.uint64)
    np.take(layouts, key, axis=0, out=words, mode="clip")  # clip: no copy; keys are in range
    words[:, 0] &= np.take(lead_words, lead)
    for col, chunk in enumerate(chunks, start=1):
        words[:, col] &= np.take(chunk_words, chunk)
    words[:, 5] &= np.take(exp_words, exps)

    odd = np.flatnonzero(~vector)
    if odd.size:
        text = [format(v, ".17g") for v in x[odd].tolist()]
        fields[odd] = 0
        fields[odd, :24] = np.array(text, "S24").view(np.uint8).reshape(-1, 24)
        fields[odd, -1] = ord(",")
