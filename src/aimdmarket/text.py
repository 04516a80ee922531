"""Text of float64 and integer arrays, byte for byte as ``repr`` writes each value, in numpy.

``float_text`` finds each float's shortest round-trip digits with Ryu (Adams, "Ryū: fast
float-to-string conversion", PLDI 2018), vectorised over uint64 arrays, and lays them out as
``float.__repr__`` does: fixed notation while the decimal point sits at -4 < decpt <= 16
(value = 0.d1d2... x 10**decpt), else ``d.ddde±XX``.  ``int_text`` writes non-negative ints.
Each returns one uint8 row per value, padded with NUL bytes, so that ``join`` can lay such rows
beside ``literals`` in one array, and ``compact`` drops every NUL at the end.  The layouts
themselves hold NULs where ``repr`` writes nothing (a third exponent digit, the point of a
one-digit mantissa), which ``compact`` drops too.
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
def _exponent_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per biased exponent 0..2046 (columns): the widened multiplier as five 32-bit limbs, low
    first, and Ryu's e2 (the binary exponent of ``m2``, less 2), q and e10 (vr's exponent).

    Ryu's multipliers are 2**j / 5**q, rounded up (for e2 >= 0), and 5**i, each scaled to 125
    bits (Python ints); with the shift that ends each multiply they depend on e2 alone."""
    powers = [5**k for k in range(326)]
    bits = np.array([p.bit_length() for p in powers])
    inverse = [(1 << p.bit_length() - 1 + _BITCOUNT) // p + 1 for p in powers[:292]]
    scaled = [p >> b - _BITCOUNT if b >= _BITCOUNT else p << _BITCOUNT - b for p, b in zip(powers, bits.tolist())]
    table = b"".join(m.to_bytes(16, "little") for m in inverse + scaled)
    limbs = np.frombuffer(table, "<u4").reshape(-1, 4).astype(np.uint64)
    e2 = np.maximum(np.arange(2047), 1) - 1077
    up = e2 >= 0
    # q is floor(e2 log10 2), less one past e2 = 3; or floor(-e2 log10 5), less one past -e2 = 1
    q = np.where(up, (e2 * 78913 >> 18) - (e2 > 3), (-e2 * 732923 >> 20) - (-e2 > 1))
    i = np.where(up, q, -e2 - q)
    shift = np.where(up, q - e2 + _BITCOUNT + bits[i] - 1, q + _BITCOUNT - bits[i])  # 118..125
    limbs = limbs[np.where(up, i, len(inverse) + i)].T
    widen = (_SHIFT - shift).astype(np.uint64)
    carried = [limb >> (_32 - widen) for limb in limbs]
    wide = [(limbs[0] << widen) & _MASK32] + [(limbs[k] << widen | carried[k - 1]) & _MASK32 for k in (1, 2, 3)]
    return np.array(wide + [carried[3]]), np.array([e2, q, np.where(up, q, q + e2)])


def _mul_shift(m: np.ndarray, c: list[np.ndarray]) -> np.ndarray:
    """floor(m * C / 2**128) for m < 2**55 and C given as five 32-bit limbs (low first)."""
    m0, m1 = m & _MASK32, m >> _32
    carry = (m0 * c[0]) >> _32
    for k in (1, 2, 3):  # carry + low half + m1 * limb < 2**56
        low = m0 * c[k]
        carry = ((carry + (low & _MASK32) + m1 * c[k - 1]) >> _32) + (low >> _32)
    return carry + m0 * c[4] + m1 * c[3] + ((m1 * c[4]) << _32)


def shortest_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent) with |value| = digits * 10**exponent, digits as short as round-trips
    and closest to the value among those: Ryu's d2d on finite float64 values.  Zero is (0, 0)."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64).ravel()
    biased = (bits >> np.uint64(52)).astype(np.intp) & 0x7FF
    mantissa = bits & np.uint64((1 << 52) - 1)
    zero = (biased == 0) & (mantissa == 0)
    m2 = mantissa | np.where(biased == 0, zero, np.uint64(1 << 52))  # zero runs as 5e-324
    limbs, exponents = _exponent_tables()
    e2, q, e10 = exponents.take(biased, axis=1)
    accept = (m2 & np.uint64(1)) == 0  # even mantissas round-trip from the interval's bounds
    mm_shift = ((mantissa != 0) | (biased <= 1)).astype(np.uint64)
    mv = m2 << np.uint64(2)
    c = limbs.take(biased, axis=1)
    vr, vp, vm = (_mul_shift(m, c) for m in (mv, mv + np.uint64(2), mv - np.uint64(1) - mm_shift))

    # Ryu's step 3: is vr, or vm, an exact product with trailing decimal zeros?
    vr_zeros = np.zeros(len(bits), bool)
    vm_zeros = np.zeros(len(bits), bool)
    small = np.flatnonzero((e2 >= 0) & (q <= 21))
    if small.size:
        pow5 = np.uint64(5) ** q[small].astype(np.uint64)
        m, ok = mv[small], accept[small]
        on_five = m % np.uint64(5) == 0
        vr_zeros[small] = on_five & (m % pow5 == 0)
        vm_zeros[small] = ~on_five & ok & ((m - np.uint64(1) - mm_shift[small]) % pow5 == 0)
        vp[small] -= (~on_five & ~ok & ((m + np.uint64(2)) % pow5 == 0)).astype(np.uint64)
    tiny = (e2 < 0) & (q <= 1)
    vr_zeros |= tiny
    vm_zeros |= tiny & accept & (mm_shift == 1)
    vp -= (tiny & ~accept).astype(np.uint64)
    low_bits = (np.uint64(1) << np.minimum(q, 63).astype(np.uint64)) - np.uint64(1)
    vr_zeros |= (e2 < 0) & (q > 1) & (q < 63) & (mv & low_bits == 0)

    # Step 4: drop the digits below the highest place at which vp and vm still differ, found
    # by binary lifting (at most 19 go).  Ryu's loop tracks the last digit dropped and whether
    # those under it, and all of vm's, were zeros; they are read off the products afterwards.
    exact_vr, exact_vm = vr.copy(), vm
    removed = np.zeros(len(bits), np.intp)
    for step in (16, 8, 4, 2, 1):
        p, m = vp // _POW10[step], vm // _POW10[step]
        go = p > m
        if go.any():
            vp, vm, vr = np.where(go, p, vp), np.where(go, m, vm), np.where(go, vr // _POW10[step], vr)
            removed += go * step
    last = exact_vr // _POW10.take(removed - 1)  # then its last digit, where any was dropped
    last = np.where(removed > 0, last - last // _10 * _10, 0)
    ends = np.flatnonzero(vm_zeros)
    vm_zeros[ends] = exact_vm[ends] % _POW10[removed[ends]] == 0
    ends = ends[vm_zeros[ends]]
    while ends.size:  # vm's own trailing zeros go too, where vm itself round-trips
        ends = ends[vm[ends] % _10 == 0]
        last[ends] = vr[ends] % _10
        vr[ends] //= _10
        vm[ends] //= _10
        removed[ends] += 1
    half = np.flatnonzero(vr_zeros & (last == 5))  # an exact half rounds to even
    exact = (exact_vr[half] % _POW10[removed[half] - 1] == 0) & (vr[half] & np.uint64(1) == 0)
    last[half[exact]] = 4
    up = ((vr == vm) & (~accept | ~vm_zeros)) | (last >= 5)
    digits = np.where(zero, np.uint64(0), vr + up.astype(np.uint64))
    return digits, np.where(zero, 0, e10 + removed)


@cache
def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as one uint32 each, in memory order, and entry 10000 two
    NULs and two zeros (the places of 10**21 and 10**20 that a zero-filled value may reach);
    then byte masks and literals of a 24-byte row, indexed by the code ``_rows`` computes:
    digits kept in place right of the point, digits shifted left of it, and point and sign."""
    k = np.arange(10000, dtype=np.int16)
    four = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1) + ord("0")
    four = np.vstack([four, [0, 0, ord("0"), ord("0")]]).astype(np.uint8).view(np.uint32).ravel()
    shape = (22, 21, 2, 2, 24)
    length, tail, sign, point = (np.arange(n, dtype=np.int8).reshape([n if k == axis else 1 for k in range(5)])
                                 for axis, n in enumerate(shape[:4]))
    r = np.arange(23, -1, -1, dtype=np.int8)  # place from the right
    full, dot, minus = np.uint8(0xFF), np.uint8(_DOT), np.uint8(_MINUS)
    right = (r < tail) * full
    left = ((r > tail) & (r <= length)) * full
    marks = (r == tail) * (point * dot) + (r == length + 1) * (sign * minus)
    return four, *(np.broadcast_to(a, shape).reshape(-1, 24).astype(np.uint8) for a in (right, left, marks))


def _rows(v: np.ndarray, length: np.ndarray, tail, sign, point) -> np.ndarray:
    """(n, 24) rows of uint64 ``v``: its digits zero-filled to ``length`` (at most 21), a point
    (if ``point``, else a NUL) before the last ``tail`` of them, a sign (if ``sign``) before
    the first, right-aligned and NUL-padded."""
    top = v // _POW10[16]
    rest = v - top * _POW10[16]
    high = rest // _POW10[8]
    low = rest - high * _POW10[8]
    groups = np.empty((len(v), 6), np.intp)
    groups[:, 0], groups[:, 1] = 10000, top
    for k, part in ((2, high), (4, low)):
        groups[:, k] = quotient = part // _POW10[4]
        groups[:, k + 1] = part - quotient * _POW10[4]
    four, right, left, marks = _layout_tables()
    digits = four.take(groups).view(np.uint8)
    shifted = np.empty_like(digits)
    shifted.ravel()[:-1], shifted.ravel()[-1] = digits.ravel()[1:], _NUL
    code = ((length * 21 + tail) * 2 + sign) * 2 + point
    rows = digits & right.take(code, axis=0)
    rows |= shifted & left.take(code, axis=0)
    rows |= marks.take(code, axis=0)
    return rows


def _digit_count(v: np.ndarray) -> np.ndarray:
    """Decimal digits of each uint64 (1 for 0), from its bit length: floor(bits log10 2) or one more."""
    t = np.frexp(v.astype(np.float64))[1] * 1233 >> 12
    return np.maximum(t + (v >= _POW10.take(t)), 1)


def float_text(values: np.ndarray) -> np.ndarray:
    """``repr`` of each finite float64 of ``values`` (flattened), as uint8 rows as wide as the
    longest, NUL-padded: on the left, and on the right of fixed-notation rows where some value
    needs an exponent."""
    digits, exponent = shortest_digits(values)
    count = _digit_count(digits)
    decpt = exponent + count
    fixed = (decpt > -4) & (decpt <= 16)
    # Fixed notation writes every digit of digits * 10**pad, zero-filled to `length`, with the
    # point before the last `tail`; an exponent's mantissa the digits, the point before count - 1.
    below = decpt < count
    tail = np.where(fixed, np.where(below, count - decpt, 1), count - 1)
    pad = np.where(fixed & ~below, decpt - count + 1, 0)
    length = np.where(fixed, np.maximum(decpt, 1) + tail, count)
    negative = np.signbit(np.ravel(values))
    rows = _rows(digits * _POW10[pad], length, tail, negative, fixed | (count > 1))
    rows = rows[:, 23 - int((length + negative).max(initial=1)):]
    if fixed.all():
        return rows
    power = np.abs(decpt - 1)  # "e±XX" or "e±XXX", NUL where the third digit is unused
    suffix = np.stack([np.full(len(rows), ord("e")), np.where(decpt > 0, ord("+"), _MINUS),
                       np.where(power >= 100, power // 100 + ord("0"), _NUL),
                       power // 10 % 10 + ord("0"), power % 10 + ord("0")], axis=1)
    suffix[fixed] = _NUL
    return np.concatenate([rows, suffix.astype(np.uint8)], axis=1)


def int_text(values: np.ndarray) -> np.ndarray:
    """``repr`` of each int of ``values`` (flattened) in 0..2**64 - 1, as right-aligned uint8
    rows as wide as the longest, NUL-padded."""
    v = np.ravel(values).astype(np.uint64)
    length = _digit_count(v)
    return _rows(v, length, length, 0, 0)[:, 24 - int(length.max(initial=1)):]


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
