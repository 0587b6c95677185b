"""Property tests of the number writer shared by the VTK, CSV and mesh files.

mesh._write_rows formats %.17g and %d with numpy kernels.  For every row
format efem writes, its text equals (fmt * n) % tuple(rows.ravel().tolist())
character for character, at every block size: over raw 64-bit float
patterns, hypothesis floats (signed zeros, subnormals, nan, infinities), the
edges of the kernels' exact window, powers of ten one ulp either side,
exact halfway ties at 17 digits and the int64 extremes.  A value whose
decimal exponent does not settle goes through % instead of looping.  %d
takes integer columns only, and a format holds no other % than its
conversions.
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
    "vtk 2d points": "%.17g %.17g 0\n",
    "vtk 3d points": "%.17g %.17g %.17g\n",
    "vtk phi": "%.17g\n",
    "mesh 2d nodes": "%.17g %.17g\n",
    "csv 2d": "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\r\n",
    "csv 3d": "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\r\n",
}
INT_FORMATS = {
    "vtk 2d cells": "3 %d %d %d\n",
    "vtk 3d cells": "4 %d %d %d %d\n",
    "mesh 2d elements": "%d %d %d\n",
    "mesh 3d elements": "%d %d %d %d\n",
}
BLOCKS = [1, 7, 1 << 15]        # rows per block (mesh._RUN); the last holds every example whole


def _edges():
    """Window edges and powers of ten, each with its neighbours one ulp away."""
    base = np.concatenate([10.0 ** np.arange(-12, 17),
                           [mesh_mod._G_LOW, mesh_mod._G_HIGH, 2.0**-34, 2.0**47, 2.0**53]])
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
    f = io.StringIO()
    with mock.patch.object(mesh_mod, "_RUN", block):
        mesh_mod._write_rows(f, fmt, rows)
    return f.getvalue()


def _check(fmt, rows, block):
    want = (fmt * rows.shape[0]) % tuple(rows.ravel().tolist())
    assert _written(fmt, rows, block).encode() == want.encode()


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
       block=st.sampled_from(BLOCKS))
def test_int_rows_match_percent_formatting(name, values, block):
    fmt = INT_FORMATS[name]
    width = fmt.count("%")
    _check(fmt, np.resize(np.array(values, dtype=np.int64), (-(-len(values) // width), width)),
           block)


@pytest.mark.parametrize("block", BLOCKS)
def test_every_edge_and_tie_matches(block):
    values = np.array(_edges() + [_tie(q, o) for q in range(2, 26) for o in (0, 7, 2**40)])
    _check("%.17g\n", values[:, None], block)
    _check("%.17g %.17g %.17g\n", np.resize(values, (values.size // 3, 3)), block)


def test_exponent_that_does_not_settle_goes_through_percent():
    def swapping(mant, e, k):
        # y below 1e16 at every odd k and N at 1e17 at every even k
        return np.full(k.size, 10**17, dtype=np.uint64), (k % 2).astype(bool)

    with mock.patch.object(mesh_mod, "_seventeen_digits", swapping):
        _check("%.17g %.17g\n", np.array([[1.5, -2.0e-7], [3.0e13, 0.0]]), 1)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_float_rows_under_percent_d_raise_naming_the_dtype(dtype):
    with pytest.raises(TypeError, match=f"dtype {np.dtype(dtype)}"):
        _written("%.17g,%d\n", np.array([[1.5, 2.0]], dtype=dtype), 1)


def test_literal_percent_and_empty_rows():
    for fmt in ("%% %.17g\n", "%.17g%%\n", "%d 100%%\n"):
        with pytest.raises(ValueError, match=re.escape(repr(fmt))):
            _written(fmt, np.zeros((1, 1), dtype=np.int64), 1)
    assert _written("%.17g\n", np.empty((0, 1)), mesh_mod._RUN) == ""


@pytest.mark.parametrize("fmt", ["%s\n", "%.16g\n", "%f\n", "%5d\n", "%.17e\n", "%i\n", "1 %"])
def test_other_conversions_are_rejected_naming_the_format(fmt):
    with pytest.raises(ValueError, match=re.escape(repr(fmt))):
        _written(fmt, np.zeros((1, 1)), 1)


def test_column_count_must_match_the_format():
    with pytest.raises(ValueError, match="2 conversions"):
        _written("%.17g %.17g\n", np.zeros((3, 3)), 1)
