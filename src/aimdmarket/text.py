"""Text of float64 and integer arrays, byte for byte as ``repr`` writes each value, in numpy.

``float_text`` finds each float's shortest round-trip digits with Ryu (Adams, "Ryū: fast
float-to-string conversion", PLDI 2018), vectorised over uint64 arrays, and lays them out as
``float.__repr__`` does in fixed notation, while the decimal point sits at -4 < decpt <= 16
(value = 0.d1d2... x 10**decpt), that is for 1e-4 <= |value| < 1e16.  There Ryu's multiplier is
a power of five below 2**52, so its quotients come exact from one small product, with no table.
Zero, the powers of two and the few values in exponent notation (``d.ddde±XX``) it leaves to
``repr``.  ``int_text`` writes non-negative ints.  Each returns one row per value: its text
right-aligned in uint8, NUL-padded on the left to the longest, so that ``join`` can lay such
rows beside ``literals`` in one array, and ``compact`` drops every NUL.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_MASK32, _1, _32, _63, _10 = (np.uint64(n) for n in (0xFFFFFFFF, 1, 32, 63, 10))
_POW5 = 5 ** np.arange(23, dtype=np.uint64)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_NUL, _DOT, _MINUS = 0, ord("."), ord("-")


def _quotients(mv: np.ndarray, e2: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ryu's e10 = q + e2, with q = floor(-e2 log10 5) less one past -e2 = 1, and vr, vp and vm,
    floor((mv + d) 5**i / 2**q) for d = 0, 2 and -2 and i = -e2 - q; then whether vr is exact.  For
    mv < 2**55 and -68 <= e2 <= -1, so i <= 22 and 5**i < 2**52, each quotient is exact: the product
    mv 5**i = hi 2**64 + lo < 2**107 is summed in 32-bit columns, and its remainder r mod 2**q plus
    or minus 2 5**i carries into vp or borrows from vm.  vr is exact where r is 0 (5**i is odd, so
    where mv has q trailing zero bits)."""
    q = (-e2 * 732923 >> 20) - (e2 < -1)
    shift, five = q.astype(np.uint64), _POW5.take(-e2 - q)
    m0, m1, f0, f1 = mv & _MASK32, mv >> _32, five & _MASK32, five >> _32
    hi = m1 * f1 + ((m0 * f0 >> _32) + m1 * f0 + m0 * f1 >> _32)  # the middle column is < 2**56
    lo = mv * five  # numpy's uint64 products keep the low 64 bits
    vr = hi << _63 - shift << _1 | lo >> shift  # hi << 64 - q in two shifts, for q = 0
    below = (_1 << shift) - _1
    r, two = lo & below, five << _1
    return q + e2, vr, vr + (r + two >> shift), vr - (below - r + two >> shift), r == 0


def shortest_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent) with |value| = digits * 10**exponent, digits as short as round-trips and
    closest to the value among those: Ryu's d2d on the float64 values that have fraction bits and
    lie in 2**-14 <= |value| < 2**54 (Ryu's e2 in -68..-1), which holds every value ``float_text``
    writes in fixed notation.  Any other value runs on a clipped exponent, and its digits are not
    its own."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64).ravel()
    e2 = np.clip((bits >> np.uint64(52) & np.uint64(0x7FF)).view(np.int64), 1009, 1076) - 1077
    mv = bits << np.uint64(12) >> np.uint64(10) | np.uint64(1 << 54)
    e10, vr, vp, vm, exact = _quotients(mv, e2)
    # Ryu's step 4: drop the digits below the highest place at which vp and vm still differ.
    # Most values drop 1-3; the few that may drop more find the rest by binary lifting.  Here vm
    # never ends in dropped zeros (at -4 <= e2 < 0 its bounds cannot).
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
        even = exact[ties] & (digits[ties] & _1 == 0)
        up[ties[even]] = False
    up |= vm >= base
    digits += up
    return digits, e10 + removed


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
    NUL-padded to the longest.  Rows in fixed notation are laid out from ``shortest_digits``.  Zero,
    the powers of two, and |value| < 1e-4 or >= 1e16, where ``repr`` writes exponent notation, are
    ``repr``'s text, at most 24 bytes."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    digits, exponent = shortest_digits(values)
    count = _digit_count(digits)
    magnitude = np.abs(values)
    rare = np.flatnonzero((values.view(np.uint64) << np.uint64(12) == 0) | (magnitude < 1e-4) | (magnitude >= 1e16))
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


def join(shape: tuple, pieces, joined=None) -> np.ndarray:
    """The uint8 pieces side by side along a last axis, each broadcast to ``shape`` + its width, in
    ``joined`` if given; a str piece is that literal in every row."""
    pieces = [literals([p])[0] if isinstance(p, str) else p for p in pieces]
    joined = np.empty((*shape, sum(p.shape[-1] for p in pieces)), np.uint8) if joined is None else joined
    at = 0
    for piece in pieces:
        joined[..., at : at + piece.shape[-1]] = piece
        at += piece.shape[-1]
    return joined


def compact(rows: np.ndarray) -> bytes:
    """The bytes of ``rows`` in order, without their NULs."""
    flat = rows.ravel()
    return flat[flat != _NUL].tobytes()
