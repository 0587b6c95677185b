"""Property tests of the number writer shared by the VTK, CSV and mesh files.

mesh._write_rows formats %+.16e and %{w}d with numpy kernels, one fixed
width per conversion.  For every row format efem writes, its bytes equal
(fmt * n) % tuple(rows.ravel().tolist()) in UTF-8, at every block size:
over raw 64-bit float patterns, hypothesis floats (signed zeros,
subnormals, nan, infinities), the edges of the kernels' exact window and of
the two-digit exponents, powers of ten one ulp either side, exact halfway
ties at 17 digits and the int64 extremes.  A block holding a value whose
text has another width (a three-digit exponent, nan, inf, a negative
integer or one wider than w) is written by % instead, and one that holds
none goes through the kernels.  A value whose decimal exponent does not
settle goes through % instead of looping.  %{w}d takes integer columns
only, and a format holds no other % than its conversions.
"""

import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efem import mesh as mesh_mod

FLOAT_FORMATS = {
    "vtk 2d points": "%+.16e %+.16e 0\n",
    "vtk 3d points": "%+.16e %+.16e %+.16e\n",
    "vtk phi": "%+.16e\n",
    "mesh 2d nodes": "%+.16e %+.16e\n",
    "csv 2d": ",".join(["%+.16e"] * 6) + "\r\n",
    "csv 3d": ",".join(["%+.16e"] * 8) + "\r\n",
}
INT_FORMATS = {         # {w}: the width of the largest index
    "vtk 2d cells": "3 %{w}d %{w}d %{w}d\n",
    "vtk 3d cells": "4 %{w}d %{w}d %{w}d %{w}d\n",
    "mesh 2d elements": "%{w}d %{w}d %{w}d\n",
    "mesh 3d elements": "%{w}d %{w}d %{w}d %{w}d\n",
}
BLOCKS = [1, 7, 1 << 15]        # rows per block (mesh._RUN); the last holds every example whole


def _edges():
    """Window edges, two-digit exponent edges and powers of ten, each with its
    neighbours one ulp away."""
    base = np.concatenate([10.0 ** np.arange(-12, 17), [1e-99, 1e-100, 1e99, 1e100],
                           [mesh_mod._E_LOW, mesh_mod._E_HIGH, 2.0**-34, 2.0**47, 2.0**53]])
    near = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, np.inf)])
    return sorted(set(np.concatenate([near, -near]).tolist()))


def _tie(q, o):
    """An odd integer times 2**-q with 18 significant digits, the last a 5: a tie at 17 digits.

    An odd o times 5**q ends in 5, and o < 2**53 keeps o / 2**q exact.
    """
    lo, hi = -(-10**17 // 5**q), min((10**18 - 1) // 5**q, 2**53 - 1)
    o = lo + o % (hi - lo + 1)
    if o % 2 == 0:
        o = o + 1 if o < hi else o - 1
    return o / 2**q


ties = st.builds(_tie, st.integers(2, 25), st.integers(0, 2**62))
floats = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.floats(),
    st.sampled_from(_edges()),
    ties,
    st.floats(1e-11, 1e15).map(lambda x: -x),
    st.floats(1e-11, 1e15),
)
int64s = st.one_of(st.integers(-2**63, 2**63 - 1),
                   st.sampled_from([-2**63, -2**63 + 1, -1, 0, 1, 9999, 10**4, 2**63 - 1]))


def _written(fmt, rows, block):
    f = io.BytesIO()
    with mock.patch.object(mesh_mod, "_RUN", block):
        mesh_mod._write_rows(f, fmt, rows)
    return f.getvalue()


def _check(fmt, rows, block):
    want = (fmt * rows.shape[0]) % tuple(rows.ravel().tolist())
    assert _written(fmt, rows, block) == want.encode()


def _kernel_results(fmt, rows):
    """What each kernel call returned while rows were written in one block:
    True where it filled its slots, False where the block went through %."""
    results = []

    def recording(kernel):
        return lambda *args: results.append(kernel(*args)) or results[-1]

    with mock.patch.object(mesh_mod, "_e_slots", recording(mesh_mod._e_slots)), \
            mock.patch.object(mesh_mod, "_d_slots", recording(mesh_mod._d_slots)):
        _check(fmt, rows, 1 << 15)
    return results


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(FLOAT_FORMATS)), values=st.lists(floats, min_size=1,
                                                                      max_size=60),
       block=st.sampled_from(BLOCKS))
def test_float_rows_match_percent_formatting(name, values, block):
    fmt = FLOAT_FORMATS[name]
    width = fmt.count("%")
    _check(fmt, np.resize(np.array(values, dtype=np.float64), (-(-len(values) // width), width)),
           block)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(INT_FORMATS)), values=st.lists(int64s, min_size=1, max_size=60),
       w=st.one_of(st.none(), st.integers(1, 21)), block=st.sampled_from(BLOCKS))
def test_int_rows_match_percent_formatting(name, values, w, block):
    if w is None:                   # as the writers fix it: the width of the largest value
        w = len(str(max(map(abs, values))))
    fmt = INT_FORMATS[name].format(w=w)
    width = fmt.count("%")
    _check(fmt, np.resize(np.array(values, dtype=np.int64), (-(-len(values) // width), width)),
           block)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=60),
       block=st.sampled_from(BLOCKS))
def test_indices_of_the_largest_width_match_percent_formatting(values, block):
    rows = np.array(values, dtype=np.int64)[:, None]
    _check(f"%{len(str(max(values)))}d\n", rows, block)
    _check(f"%{len(str(max(values)))}d\n", rows.astype(np.uint64), block)


@pytest.mark.parametrize("block", BLOCKS)
def test_every_edge_and_tie_matches(block):
    values = np.array(_edges() + [_tie(q, o) for q in range(2, 26) for o in (0, 7, 2**40)])
    _check("%+.16e\n", values[:, None], block)
    _check("%+.16e %+.16e %+.16e\n", np.resize(values, (values.size // 3, 3)), block)


def test_blocks_of_fixed_width_values_go_through_the_kernels():
    x = np.array([[0.0, -0.0, 1.5], [-2.0e-7, 3.0e13, 1e-99], [-9.5e99, 1e-20, 7.0]])
    assert _kernel_results("%+.16e %+.16e %+.16e\n", x) == [True] * 3
    cells = np.array([[0, 7, 99], [10, 5, 42]])
    assert _kernel_results("3 %2d %2d %2d\n", cells) == [True] * 3


@pytest.mark.parametrize("odd", [1e-100, -1e100, 5e-324, np.nan, np.inf, -np.inf],
                         ids=["three-digit exponent", "-1e100", "subnormal", "nan", "inf", "-inf"])
def test_a_float_of_another_width_sends_its_block_through_percent(odd):
    x = np.array([[1.5, 0.25], [-3.0, odd], [0.0, 2.0]])
    assert _kernel_results("%+.16e,%+.16e\r\n", x)[-1] is False
    for block in BLOCKS:
        _check("%+.16e,%+.16e\r\n", x, block)


@pytest.mark.parametrize("odd", [-1, -2**63, 1000, 2**63 - 1],
                         ids=["negative", "int64 min", "wider than w", "int64 max"])
def test_an_integer_of_another_width_sends_its_block_through_percent(odd):
    cells = np.array([[0, 1, 2], [3, odd, 5], [6, 7, 8]], dtype=np.int64)
    assert _kernel_results("3 %3d %3d %3d\n", cells)[-1] is False
    for block in BLOCKS:
        _check("3 %3d %3d %3d\n", cells, block)


def test_exponent_that_does_not_settle_goes_through_percent():
    def swapping(mant, e, k):
        # y below 1e16 at every odd k and N at 1e17 at every even k
        return np.full(k.size, 10**17, dtype=np.uint64), (k % 2).astype(bool)

    with mock.patch.object(mesh_mod, "_seventeen_digits", swapping):
        _check("%+.16e %+.16e\n", np.array([[1.5, -2.0e-7], [3.0e13, 0.0]]), 1)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_float_rows_under_percent_d_raise_naming_the_dtype(dtype):
    with pytest.raises(TypeError, match=f"dtype {np.dtype(dtype)}"):
        _written("%+.16e,%3d\n", np.array([[1.5, 2.0]], dtype=dtype), 1)


def test_literal_percent_and_empty_rows():
    for fmt in ("%% %+.16e\n", "%+.16e%%\n", "%3d 100%%\n"):
        with pytest.raises(ValueError, match=re.escape(repr(fmt))):
            _written(fmt, np.zeros((1, 1), dtype=np.int64), 1)
    assert _written("%+.16e\n", np.empty((0, 1)), mesh_mod._RUN) == b""


def test_literal_text_is_written_as_utf8():
    _check("é %+.16e\0%2d ✓\n", np.array([[3, 14], [15, 92]], dtype=np.int64), 1)


@pytest.mark.parametrize("fmt", ["%s\n", "%.16g\n", "%.17g\n", "%f\n", "%d\n", "%.16e\n", "%.17e\n",
                                 "% .16e\n", "%+.17e\n", "%05d\n", "%-5d\n", "%0d\n", "%i\n", "1 %"])
def test_other_conversions_are_rejected_naming_the_format(fmt):
    with pytest.raises(ValueError, match=re.escape(repr(fmt))):
        _written(fmt, np.zeros((1, 1)), 1)


def test_column_count_must_match_the_format():
    with pytest.raises(ValueError, match="2 conversions"):
        _written("%+.16e %+.16e\n", np.zeros((3, 3)), 1)
