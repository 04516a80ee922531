"""Text of float64 and integer arrays, byte for byte as ``repr`` writes each value, in numpy.

``float_text`` finds each float's shortest round-trip digits with Ryu (Adams, "Ryū: fast
float-to-string conversion", PLDI 2018), vectorised over uint64 arrays, and lays them out as
``float.__repr__`` does in fixed notation, while the decimal point sits at -4 < decpt <= 16
(value = 0.d1d2... x 10**decpt); zero, the powers of two and the few values in exponent notation
(``d.ddde±XX``) it leaves to ``repr``.  ``int_text`` writes non-negative ints.  Each returns one
row per value: its text right-aligned in uint8, NUL-padded on the left to the longest, so that
``join`` can lay such rows beside ``literals`` in one array, and ``compact`` drops every NUL.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_BITCOUNT = 125  # bits of Ryu's 5**i and 2**j / 5**q multipliers
_SHIFT = 128  # each multiplier is widened so that one shift by 128 bits ends every multiply
_MASK32, _32, _10 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(10)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_NUL, _DOT, _MINUS = 0, ord("."), ord("-")


# The tables are built on first use, in whichever process formats first: a run that exports
# little (a replicate's band) builds them after its memory peak rather than at import.  They
# are read-only.
@cache
def _exponent_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per biased exponent, as columns: the widened multiplier C as five 32-bit limbs, low first,
    and as its two 64-bit words below 2**128; H and the words (high, low) of T, 2C = H 2**128 + T,
    and of ~T.  Then e10 (vr's decimal exponent) and mv's hidden bit.  Then, for exact halves, a
    mask of the bits of mv that are all zero where vr is an exact product (all ones where it is not).

    Ryu's multipliers are 2**j / 5**q, rounded up (for e2 >= 0), and 5**i, each scaled to 125
    bits (Python ints); with the shift that ends each multiply they depend on e2 alone."""
    powers = [5**k for k in range(326)]
    bits = np.array([p.bit_length() for p in powers])
    inverse = [(1 << p.bit_length() - 1 + _BITCOUNT) // p + 1 for p in powers[:292]]
    scaled = [p >> b - _BITCOUNT if b >= _BITCOUNT else p << _BITCOUNT - b for p, b in zip(powers, bits.tolist())]
    table = b"".join(m.to_bytes(16, "little") for m in inverse + scaled)
    limbs = np.frombuffer(table, "<u4").reshape(-1, 4).astype(np.uint64)
    e2 = np.maximum(np.arange(2048), 1) - 1077
    up = e2 >= 0
    # q is floor(e2 log10 2), less one past e2 = 3; or floor(-e2 log10 5), less one past -e2 = 1
    q = np.where(up, (e2 * 78913 >> 18) - (e2 > 3), (-e2 * 732923 >> 20) - (-e2 > 1))
    i = np.where(up, q, -e2 - q)
    shift = np.where(up, q - e2 + _BITCOUNT + bits[i] - 1, q + _BITCOUNT - bits[i])  # 118..125
    limbs = limbs[np.where(up, i, len(inverse) + i)].T
    widen = (_SHIFT - shift).astype(np.uint64)
    carried = [limb >> (_32 - widen) for limb in limbs]
    c = [(limbs[0] << widen) & _MASK32] + [(limbs[k] << widen | carried[k - 1]) & _MASK32 for k in (1, 2, 3)]
    one, low, high = np.uint64(1), c[0] | c[1] << _32, c[2] | c[3] << _32
    t_low, t_high = low << one, high << one | low >> np.uint64(63)
    h = carried[3] << one | high >> np.uint64(63)
    bounds = np.array([*c, carried[3], low, high, h, t_high, t_low, ~t_high, ~t_low])
    e10 = np.where(up, q, q + e2).astype(np.uint64)
    digits = np.array([e10, np.where(np.arange(2048) > 0, np.uint64(1 << 54), 0)], dtype=np.uint64)
    mask = np.where(~up & (q < 63), (np.uint64(1) << np.minimum(q, 63).astype(np.uint64)) - np.uint64(1), ~np.uint64(0))
    return bounds.T.copy(), digits.T.copy(), mask


def _product(m: np.ndarray, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m * C for m < 2**55 and C given as five 32-bit limbs (low first), then as its low and
    high 64-bit words: floor(m C / 2**128), and the high and low words of m C mod 2**128."""
    m0, m1 = m & _MASK32, m >> _32
    high = []
    for k in (0, 2):  # the high word of m times C's word of limbs k, k + 1, by 32-bit columns
        low, cross = m0 * c[k], m0 * c[k + 1]
        column = (low >> _32) + (cross & _MASK32) + m1 * c[k]  # < 2**56
        high.append((column >> _32) + (cross >> _32) + m1 * c[k + 1])
    low_high = m * c[6] + high[0]  # numpy's uint64 products keep the low 64 bits
    return high[1] + m * c[4] + (low_high < high[0]), low_high, m * c[5]


def _interval(mv: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ryu's vr, vp and vm, floor((mv + d) C / 2**128) for d = 0, 2 and -2, from one product:
    mv C +- 2C = (vr +- H) 2**128 + (low +- T), where low carries (low > ~T) or borrows (low < T),
    compared word by word.  T's high word is never all ones, so one more or less on it (or on
    ~T's) cannot wrap."""
    c = _exponent_tables()[0].take(key, axis=0).T
    vr, low_high, low_low = _product(mv, c)
    vp = vr + c[7] + (low_high > c[10] - (low_low > c[11]))
    vm = vr - c[7] - (low_high < c[8] + (low_low < c[9]))
    return vr, vp, vm


def shortest_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, exponent, no_fraction) with |value| = digits * 10**exponent, digits as short as
    round-trips and closest to the value among those: Ryu's d2d on finite float64 values, without
    the steps of two cases.  Zero and the powers of two (``no_fraction``) have an interval half as
    wide below.  In Ryu's exact-product window, 2**54 <= |value| < 2**131 (e2 >= 0, q <= 21), vm,
    vr or vp may be exact with trailing decimal zeros, so the digits may be too long or one off in
    the last; the value and the digits are past 10**16 all the same, in exponent notation."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64).ravel()
    key = bits >> np.uint64(52) & np.uint64(0x7FF)
    _, exponents, mask = _exponent_tables()
    e10, hidden = exponents.take(key, axis=0).T
    fraction = bits << np.uint64(12) >> np.uint64(10)
    mv = fraction | hidden
    vr, vp, vm = _interval(mv, key)
    # Ryu's step 4: drop the digits below the highest place at which vp and vm still differ.
    # Most values drop 1-3; the few that may drop more find the rest by binary lifting.  Outside
    # the window vm never ends in dropped zeros (at -4 <= e2 < 0 its bounds cannot).
    removed = np.zeros(len(bits), np.intp)
    p, m = vp, vm
    for _ in range(3):
        p, m = p // _10, m // _10
        removed += p > m
    more = np.flatnonzero(p // _10 > m // _10)
    if more.size:
        p, m, extra = p[more], m[more], 0
        for step in (16, 8, 4, 2, 1):
            go = p // _POW10[step] > m // _POW10[step]
            p, m, extra = np.where(go, p // _POW10[step], p), np.where(go, m // _POW10[step], m), extra + go * step
        removed[more] += extra
    # round vr up past the last dropped digit's half, or where vm's digits equal vr's; an exact
    # half rounds to even
    scale = _POW10.take(removed)
    digits = vr // scale
    base = digits * scale
    dropped, half = vr - base, scale - (vr - base)
    up = dropped >= half
    ties = np.flatnonzero(dropped == half)
    if ties.size:
        even = (mv[ties] & mask[key[ties]] == 0) & (digits[ties] & np.uint64(1) == 0)
        up[ties[even]] = False
    up |= vm >= base
    digits += up
    return digits, e10.view(np.int64) + removed, fraction == 0


@cache
def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as one uint32 each, in memory order, and entry 10000 two
    NULs and two zeros (the places of 10**21 and 10**20 that a zero-filled value may reach);
    byte masks and literals of a 24-byte row, indexed by the code ``_rows`` takes: digits kept in
    place right of the point, digits to move one place left of it, and point and sign.  Then
    ``float_text``'s fixed-notation layout by exponent (-20..15), digit count and sign: the code,
    10**pad (the zeros that fill it) and the row's width, or 0, 1 and 0 (no text) as at key 0."""
    k = np.arange(10000, dtype=np.int16)
    four = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1) + ord("0")
    four = np.vstack([four, [0, 0, ord("0"), ord("0")]]).astype(np.uint8).view(np.uint32).ravel()
    shape = (22, 21, 2, 2, 24)
    length, tail, sign, point = (np.arange(n, dtype=np.int8).reshape([n if k == axis else 1 for k in range(5)])
                                 for axis, n in enumerate(shape[:4]))
    r = np.arange(23, -1, -1, dtype=np.int8)  # place from the right
    full, dot, minus = np.uint8(0xFF), np.uint8(_DOT), np.uint8(_MINUS)
    right = (r < tail) * full
    left = ((r >= tail) & (r < length)) * full
    marks = (r == tail) * (point * dot) + (r == length + 1) * (sign * minus)
    masks = (np.broadcast_to(a, shape).reshape(-1, 24).astype(np.uint8) for a in (right, left, marks))
    exponent, count, sign = np.meshgrid(np.arange(-20, 16), np.arange(18), np.arange(2), indexing="ij")
    decpt = exponent + count
    fixed = (decpt > -4) & (decpt <= 16)
    # every digit of digits * 10**pad, zero-filled to `length`, with the point before the last `tail`
    tail = np.where(exponent < 0, -exponent, 1)
    length = np.maximum(decpt, 1) + tail
    code = np.where(fixed, ((length * 21 + tail) * 2 + sign) * 2 + 1, 0)
    layout = np.stack([code, 10 ** np.where(fixed & (exponent >= 0), exponent + 1, 0), fixed * (length + 1 + sign)],
                      axis=-1)
    return four, *masks, layout.reshape(-1, 3).astype(np.uint64)


def _rows(v: np.ndarray, code: np.ndarray) -> np.ndarray:
    """(n, 24) rows of uint64 ``v`` in the layouts of ``code``: its digits zero-filled to a length
    (at most 21), a point (or a NUL) before the last digits of a tail, and maybe a sign before the
    first, right-aligned and NUL-padded."""
    top = v // _POW10[16]
    rest = v - top * _POW10[16]
    high = rest // _POW10[8]
    low = rest - high * _POW10[8]
    groups = np.empty((len(v), 6), np.intp)
    groups[:, 0], groups[:, 1] = 10000, top
    for k, part in ((2, high), (4, low)):
        groups[:, k] = quotient = part // _POW10[4]
        groups[:, k + 1] = part - quotient * _POW10[4]
    four, right, left, marks = _layout_tables()[:4]
    rows = four.take(groups).view(np.uint8)
    moved = left.take(code, axis=0)
    moved &= rows  # the digits left of the point, each moved one place left to make room for it
    rows &= right.take(code, axis=0)
    rows.ravel()[:-1] |= moved.ravel()[1:]
    rows |= marks.take(code, axis=0, out=moved)
    return rows


def _digit_count(v: np.ndarray) -> np.ndarray:
    """Decimal digits of each uint64 (1 for 0), from its bit length: floor(bits log10 2) or one more."""
    t = np.frexp(v.astype(np.float64))[1] * 1233 >> 12
    return np.maximum(t + (v >= _POW10.take(t)), 1)


def float_text(values: np.ndarray) -> np.ndarray:
    """``repr`` of each finite float64 of ``values`` (flattened), as uint8 rows right-aligned and
    NUL-padded to the longest.  Rows in fixed notation are laid out from ``shortest_digits``; zero,
    the powers of two and the rows in exponent notation are ``repr``'s text, at most 24 bytes."""
    values = np.ravel(values)
    digits, exponent, no_fraction = shortest_digits(values)
    count = _digit_count(digits)
    decpt = exponent + count
    rare = np.flatnonzero(no_fraction | (decpt <= -4) | (decpt > 16))
    key = (exponent + 20) * 36 + count * 2 + np.signbit(values)
    key[rare] = 0  # a row of NULs, for repr's text below
    code, scale, width = _layout_tables()[4].take(key, axis=0).T
    rows = _rows(digits * scale, code)
    widest = int(width.max(initial=1))
    if rare.size:  # repr's text, right-aligned in 24 NUL-padded bytes
        text = ("{:\0>24}" * rare.size).format(*map(repr, values[rare].tolist())).encode()
        rows[rare] = text = np.frombuffer(text, np.uint8).reshape(-1, 24)
        widest = max(widest, 24 - int(text.any(axis=0).argmax()))
    return rows[:, 24 - widest:]


def int_text(values: np.ndarray) -> np.ndarray:
    """``repr`` of each int of ``values`` (flattened) in 0..2**64 - 1, as right-aligned uint8
    rows as wide as the longest, NUL-padded."""
    v = np.ravel(values).astype(np.uint64)
    length = _digit_count(v)
    return _rows(v, length * 88)[:, 24 - int(length.max(initial=1)):]  # 88 length: tail = length, no point


def literals(strings) -> np.ndarray:
    """ASCII strings as NUL-padded uint8 rows, one per string."""
    return np.array([text.encode() for text in strings]).view(np.uint8).reshape(len(strings), -1)


def join(shape: tuple, pieces) -> np.ndarray:
    """The uint8 pieces side by side along a last axis, each broadcast to ``shape`` + its width;
    a str piece is that literal in every row."""
    pieces = [literals([p])[0] if isinstance(p, str) else p for p in pieces]
    joined = np.empty((*shape, sum(p.shape[-1] for p in pieces)), np.uint8)
    at = 0
    for piece in pieces:
        joined[..., at : at + piece.shape[-1]] = piece
        at += piece.shape[-1]
    return joined


def compact(rows: np.ndarray) -> bytes:
    """The bytes of ``rows`` in order, without their NULs."""
    flat = rows.ravel()
    return flat[flat != _NUL].tobytes()
