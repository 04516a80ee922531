"""The numpy text kernel against ``repr``, its oracle.

Each value's row, with its NULs dropped, must be exactly ``repr`` of the
value: random bit patterns, every power of two and both of its neighbours,
and the values at which ``repr`` changes layout (``test_metrics`` formats
``scalar_oracle.REPR_LAYOUTS``, a value in each layout).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from aimdmarket.text import compact, float_text, int_text


def _assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    got = [compact(row).decode() for row in float_text(values)]
    mismatched = [(v, text) for v, text in zip(values.tolist(), got) if text != repr(v)]
    assert mismatched == []


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
