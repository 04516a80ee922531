"""The numpy text kernel against ``repr``, its oracle.

Each value's row, with its NULs dropped, must be exactly ``repr`` of the
value: random bit patterns, every power of two and both of its neighbours,
and the values at which ``repr`` changes layout (``test_metrics`` formats
``scalar_oracle.REPR_LAYOUTS``, a value in each layout).  An export-sized
batch goes through in one call, as the exporters send a chunk's column, and
pins which of its values ``float_text`` hands to ``repr``: zero, the powers
of two and exponent notation, never an exact half.  Each branch of Ryu that
can change a digit has a value set of its own, and so do the bounds of the
magnitude rule that picks exponent notation; the sets for Ryu's
exact-product window, mantissa 0 and vm's trailing zeros pin that those
values reach ``repr`` in any batch.  Ryu's three quotients, the only
arithmetic that depends on the exponent, are checked against Python ints
for every exponent whose digits are kept.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aimdmarket import text
from aimdmarket.market import run
from aimdmarket.metrics import EXPORT_CHUNK, FLOAT_COLUMNS
from aimdmarket.scenario import reference_configs
from aimdmarket.text import _quotients, compact, float_text, int_text, join
from scalar_oracle import run_columns


def _assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    got = [compact(row).decode() for row in float_text(values)]
    mismatched = [(v, text) for v, text in zip(values.tolist(), got) if text != repr(v)]
    assert mismatched == []


def _texts(rows):
    """Each row's text without its NULs."""
    return compact(join((len(rows),), [rows, "\n"])).decode().split("\n")[:-1]


def _assert_batch_reprs(values):
    """One call on all of ``values``; the first few mismatches are named."""
    values = np.asarray(values, dtype=np.float64)
    got = _texts(float_text(values))
    mismatched = [(v, text) for v, text in zip(values.tolist(), got) if text != repr(v)]
    assert len(got) == len(values) and mismatched[:5] == []


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return values[np.isfinite(values)]


def _from_ryu(m2, e2):
    """The double m2 * 2**(e2 + 2), which Ryu decodes as (m2, e2), for 2**52 <= m2 < 2**53."""
    return np.ldexp(np.asarray(m2, dtype=np.float64), np.asarray(e2) + 2)


# any finite float64 bit pattern, in batches as the exporters call the kernel
_FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda bits: bits >> 52 & 0x7FF != 0x7FF)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_FINITE_BITS, min_size=1, max_size=64))
def test_random_bit_patterns_format_as_repr(patterns):
    _assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_powers_of_two_and_their_neighbours_format_as_repr():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    values = np.concatenate([powers, below, above[np.isfinite(above)]])
    _assert_reprs(values)
    _assert_reprs(-values)


def test_layout_boundaries_format_as_repr():
    # where fixed notation gives way to exponents, with each neighbour, and integers near 2**53
    bounds = np.array([1e-05, 0.0001, 0.001, 1e15, 1e16, 1e17, 9999999999999998.0, 1e22, 1e100, 1e-100, 1e300,
                       2.0**53, 2.0**53 - 1, 2.0**63, 2.0**64, 123456789012345680.0])
    largest = np.array([1.7976931348623157e308])
    _assert_reprs(np.concatenate([bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, np.inf), largest]))
    _assert_reprs(-bounds)
    _assert_reprs(-np.arange(-1000, 1000) / 8)  # short exact values, and -0.0


def test_ints_format_as_repr():
    values = [0, 1, 9, 10, 99, 100, 12345, 10**19 - 1, 10**19, 2**64 - 1]
    values += [10**k + d for k in range(1, 19) for d in (-1, 0, 1)]
    got = [compact(row).decode() for row in int_text(np.array(values, dtype=np.uint64))]
    assert got == [repr(v) for v in values]
    assert int_text(np.array([7, 42])).tobytes() == b"\x007" b"42"  # right-aligned, NUL-padded


def test_compact_drops_only_nuls():
    rows = np.array([[0, 0, 49, 46, 53], [45, 48, 46, 48, 0]], dtype=np.uint8)
    assert compact(rows) == b"1.5-0.0"


def _to_repr(values):
    """The values ``float_text`` must hand to ``repr``: no fraction bits (zero and the powers of
    two), or in exponent notation (which holds Ryu's exact-product window, 2**54 <= |value| < 2**131)."""
    exponent = np.array(["e" in repr(v) for v in values.tolist()], dtype=bool)
    return (values.view(np.uint64) << np.uint64(12) == 0) | exponent


def _exact_halves(values):
    """The values exactly halfway between their shortest digits and the neighbour they round from."""
    with localcontext() as context:
        context.prec = 800  # every float64 and every difference of two is exact
        shortest = [Decimal(repr(v)) for v in values.tolist()]
        return np.array([abs(Decimal(v) - s) * 2 == Decimal(1).scaleb(s.as_tuple().exponent)
                         for v, s in zip(values.tolist(), shortest)], dtype=bool)


def _assert_routed(monkeypatch, values):
    """``_assert_batch_reprs``, and ``repr`` called on exactly the values of ``_to_repr``, in order;
    those values are returned."""
    sent = []
    monkeypatch.setattr(text, "repr", lambda v: sent.append(v) or repr(v), raising=False)
    _assert_batch_reprs(values)
    sent = np.array(sent, dtype=np.float64)
    assert sent.view(np.uint64).tolist() == values[_to_repr(values)].view(np.uint64).tolist()
    return sent


def test_an_export_sized_batch_formats_as_repr(monkeypatch):
    # random bit patterns and the first chunk of every float column of both reference runs, in
    # one call: the exporters' mixes reach the paths that depend on the whole batch
    bits = np.random.default_rng(20181).integers(0, 2**64, 2 * 65536, dtype=np.uint64, endpoint=False)
    bits = bits[(bits >> np.uint64(52) & np.uint64(0x7FF)) != 0x7FF][:65536]
    columns = []
    for reference in ("paper-a", "paper-b"):
        recorded = run_columns(run(*reference_configs()[reference]).trajectory)
        for name in (*FLOAT_COLUMNS, "total_supply", "total_consumption", "sum_of_utilities"):
            columns.append(recorded[name][1 : 1 + EXPORT_CHUNK].ravel())
    recorded = np.concatenate(columns)
    values = np.concatenate([bits.view(np.float64), recorded])
    assert len(bits) == 65536 and len(values) == 65536 + 2 * EXPORT_CHUNK * (5 * 27 + 3)
    _assert_routed(monkeypatch, values)
    # the runs' exact halves, which round to even, stay vectorised
    halves = _exact_halves(recorded)
    assert halves.any() and not (halves & _to_repr(recorded)).any()


def _exact_window():
    # e2 >= 0 and q <= 21, where step 3 tests the exact product: for each e2, the m2 that put mv
    # (on_five), mv - 2 (vm) or mv + 2 (vp) on a multiple of 5**q, each with both parities (accept)
    m2s, e2s = [], []
    for e2 in range(80):
        q = (e2 * 78913 >> 18) - (e2 > 3)  # floor(e2 log10 2), less one past e2 = 3
        if q > 21:
            break
        power = 5**q
        for residue in (0, 2, -2):
            m2 = residue * pow(4, -1, power) % power
            m2 += (2**52 - m2 + power - 1) // power * power
            m2s += [m2, m2 + power]
            e2s += [e2, e2]
    return _from_ryu(m2s, e2s)


def _tiny_window():
    # e2 in -4..-1 (q <= 1): the doubles between 2**50 and 2**54, at both ends of each binade
    m2 = np.concatenate([2**52 + np.arange(64), 2**53 - 1 - np.arange(64)])
    return np.concatenate([_from_ryu(m2, e2) for e2 in range(-4, 0)])


BRANCH_VALUES = {
    "exact-product window": _exact_window,
    "tiny window": _tiny_window,
    # short binary fractions: vr is exact, so its dropped digits may all be zeros
    "vr trailing zeros": lambda: np.concatenate([np.arange(1, 200) / 2.0**j for j in range(80)]),
    # decimal integers past 2**54, whose lower bound vm ends in zeros
    "vm trailing zeros": lambda: np.concatenate([np.arange(1, 1000) * 10.0**j for j in range(16, 40)]),
    # an exact ...5 below the last kept digit rounds to the even neighbour
    "half to even": lambda: np.concatenate([2.0**50 + np.arange(64) + 0.25, [6.151199340820312e-05,
                                            2.9802322387695312e-08, 1130000000000000.2]]),
    # mantissa 0: the interval below a power of two is half as wide
    "mantissa 0": lambda: np.ldexp(1.0, np.arange(-1074, 1024)),
    # the bounds of the magnitude rule (1e-4 <= |value| < 1e16 is fixed notation) and of the exponents
    # whose digits are kept (2**-14 <= |value| < 2**54), with the largest value below 1e16
    "notation bounds": lambda: np.array([1e-4, 1e16, 9999999999999998.0, 2.0**-14, 2.0**52, 2.0**53, 2.0**54]),
    "subnormals": lambda: np.concatenate([np.arange(4096), np.random.default_rng(7).integers(1, 2**52, 4096),
                                          2**52 - 1 - np.arange(64)]).astype(np.uint64).view(np.float64),
}


@pytest.mark.parametrize("branch", sorted(BRANCH_VALUES))
def test_each_digit_changing_branch_formats_as_repr(branch, monkeypatch):
    values = _with_neighbours(BRANCH_VALUES[branch]())
    values = np.concatenate([values, -values])
    sent = _assert_routed(monkeypatch, values)
    if branch in ("exact-product window", "mantissa 0", "vm trailing zeros"):  # Ryu's steps for these are left out
        own = BRANCH_VALUES[branch]()
        assert np.isin(np.concatenate([own, -own]), sent).all()


def test_the_quotients_equal_python_ints():
    # every e2 whose digits are kept, including q = 0 at e2 = -1 and -2, where the product's high
    # word would be shifted left by 64
    mantissas = [0, 1, 2**52 - 1, *np.random.default_rng(25).integers(0, 2**52, 64).tolist()]
    mv = [4 * (2**52 + m) for m in mantissas]
    for e2 in range(-68, 0):
        q = len(str(5**-e2)) - 1 - (e2 < -1)  # floor(-e2 log10 5), less one past -e2 = 1
        assert (q == 0) == (e2 > -3)
        e10, *quotients, exact = _quotients(np.array(mv, dtype=np.uint64), np.full(len(mv), e2))
        assert e10.tolist() == [q + e2] * len(mv)
        for got, d in zip(quotients, (0, 2, -2)):
            assert got.tolist() == [(m + d) * 5 ** (-e2 - q) >> q for m in mv]
        assert exact.tolist() == [m * 5 ** (-e2 - q) % 2**q == 0 for m in mv]


def test_a_column_is_as_wide_as_its_longest_repr():
    # each row is its repr right-aligned, exponent rows too: one 1e-05 does not widen the column
    assert float_text(np.array([0.5, 1e-05, 123.456])).tobytes() == b"\0\0\0\x000.5" b"\0\x001e-05" b"123.456"
    assert float_text(np.array([-1e-100, 5e-324, 1e22])).tobytes() == b"-1e-100" b"\x005e-324" b"\0\x001e+22"
    values = np.concatenate([_exact_window(), _tiny_window(), np.random.default_rng(3).normal(0, 1e-5, 4096)])
    for column in (values, -values, np.ldexp(1.0, np.arange(-1074, 1024))):
        rows = float_text(column)
        texts = [repr(v).encode() for v in column.tolist()]
        width = max(map(len, texts))
        assert rows.shape == (len(column), width) and rows.tobytes() == b"".join(t.rjust(width, b"\0") for t in texts)

