"""The CSV value kernel (`probability._format_block`) against Python's own
`"%.17g" % v`, byte for byte."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qarrival import probability as prob_mod


def kernel_text(values) -> bytes:
    """The kernel's texts of `values`, one a line, in _CSV_BLOCK blocks."""
    values = np.asarray(values, dtype=float)
    out = []
    for lo in range(0, values.size, prob_mod._CSV_BLOCK):
        cells = prob_mod._format_block(values[lo:lo + prob_mod._CSV_BLOCK])
        assert cells.shape == (min(values.size - lo, prob_mod._CSV_BLOCK), prob_mod._CSV_WIDTH)
        rows = np.full((len(cells), prob_mod._CSV_WIDTH + 1), ord("\n"), np.uint8)
        rows[:, :-1] = cells
        out.append(rows[rows != 0].tobytes())
    return b"".join(out)


def assert_matches_percent(values):
    values = np.asarray(values, dtype=float)
    got = kernel_text(values).split(b"\n")[:-1]
    expected = [("%.17g" % v).encode() for v in values.tolist()]
    wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert len(got) == len(expected) and not wrong, wrong[:5]


def neighbours(values) -> list:
    return [w for v in values for w in (math.nextafter(v, -math.inf), v,
                                        math.nextafter(v, math.inf))]


NAMED = {
    "signed zeros": [0.0, -0.0],
    "nan payloads and negative nan": np.array(
        [0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8000000000000,
         0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(float),
    "infinities": [math.inf, -math.inf],
    "extremes": [5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                 1.7976931348623157e308, -1.7976931348623157e308],
    "powers of ten and their neighbours": neighbours([10.0 ** k for k in range(-300, 301)]),
    # 18-digit values ending in 5: half-even keeps ...312 and raises ...937
    "exact ties": [2.0 ** -25, -2.0 ** -25, 3 * 2.0 ** -25, -3 * 2.0 ** -25],
    # the double 1e-14 is below 10^-14: 17 nines and 0.88 round up to 10^17
    "rounds up to 10^17": [1e-14, 1e-79, -1e-243],
    "%g switch at exponents -5/-4": neighbours([1e-5, 1e-4, 1.2345678901234567e-4,
                                                9.9999999999999991e-05]),
    "%g switch at exponents 16/17": neighbours([1e16, 1e17, 12345678901234567.0,
                                                123456789012345678.0, 9.9999999999999998e16]),
    "short and long digits": [1.0, -7.0, 42.0, 0.5, 0.1, 1 / 3, math.pi, 2.0 ** 53, 1e22,
                              1e23, 0.25 + 1e-3, 123.456, 1.5e-300, 1e280, 1.0000000000000002e280,
                              1e-280, 9.999999999999999e-281],
}


@pytest.mark.parametrize("values", NAMED.values(), ids=NAMED.keys())
def test_kernel_matches_percent_on_named_values(values):
    assert_matches_percent(values)


def test_kernel_matches_percent_on_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64)
    assert_matches_percent(bits.view(float))


def test_kernel_matches_percent_on_random_scales():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(2 ** 16) * 10.0 ** rng.integers(-25, 25, 2 ** 16)
    assert_matches_percent(np.concatenate([values, rng.random(2 ** 14),
                                           0.25 + 1e-3 * np.arange(2 ** 14)]))


def test_column_mostly_below_the_product_range(tmp_path):
    # nine in ten values fall back to Python's dtoa, a block at a time
    rng = np.random.default_rng(11)
    column = 10.0 ** rng.uniform(-323, -281, 5000) * rng.choice([-1.0, 1.0], 5000)
    column[::10] = rng.random(500)
    column[7::50] = np.array([1, 2, 3], dtype=np.uint64).view(float)[rng.integers(0, 3, 100)]
    assert np.mean(np.abs(column) < 1e-280) >= 0.9
    prob_mod.write_tables([(tmp_path / "tiny.csv", "v", (column,))])
    assert (tmp_path / "tiny.csv").read_bytes() == \
        b"v\n" + "".join("%.17g\n" % v for v in column.tolist()).encode()


def test_import_builds_no_formatter_table():
    code = ("import qarrival, qarrival.scenario, qarrival.cli\n"
            "from qarrival import probability as p\n"
            "assert p._csv_tables.cache_info().currsize == 0, 'tables built on import'\n"
            "p._format_block(p.np.array([1.5]))\n"
            "assert p._csv_tables.cache_info().currsize == 1\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(prob_mod.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


try:
    from hypothesis import given, settings, strategies as st
except ImportError:     # the property below needs hypothesis
    given = None

if given is not None:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_kernel_matches_percent_on_any_float(values):
        assert_matches_percent(values)
