"""The Hilbert curve index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtree import hilbert_index, hilbert_index_float
from repro.rtree.hilbert import hilbert_keys


class TestHilbertIndex:
    def test_bijective_on_small_2d_grid(self):
        bits = 4
        seen = set()
        for x in range(16):
            for y in range(16):
                seen.add(hilbert_index((x, y), bits))
        assert seen == set(range(16 * 16))

    def test_bijective_on_small_3d_grid(self):
        bits = 2
        seen = {hilbert_index((x, y, z), bits)
                for x in range(4) for y in range(4) for z in range(4)}
        assert seen == set(range(4 ** 3))

    def test_curve_is_continuous_2d(self):
        # Consecutive Hilbert positions must be grid neighbours: this is
        # the property that makes packing by Hilbert order local.
        bits = 4
        position = {hilbert_index((x, y), bits): (x, y)
                    for x in range(16) for y in range(16)}
        for h in range(16 * 16 - 1):
            (x1, y1), (x2, y2) = position[h], position[h + 1]
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    def test_one_dimensional_is_identity(self):
        for v in (0, 1, 5, 255):
            assert hilbert_index((v,), 8) == v

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_index((16, 0), 4)
        with pytest.raises(ValueError):
            hilbert_index((-1, 0), 4)

    def test_rejects_empty_coords(self):
        with pytest.raises(ValueError):
            hilbert_index((), 4)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            hilbert_index((0, 0), 0)


class TestHilbertFloat:
    def test_unit_coords(self):
        h = hilbert_index_float((0.5, 0.5), bits=8)
        assert 0 <= h < (1 << 16)

    def test_clamps_out_of_unit(self):
        a = hilbert_index_float((1.5, 0.5), bits=8)
        b = hilbert_index_float((1.0, 0.5), bits=8)
        assert a == b

    def test_locality_better_than_random(self):
        # Points close in space should usually be close on the curve:
        # compare average index distance of near pairs vs far pairs.
        near = abs(hilbert_index_float((0.30, 0.30))
                   - hilbert_index_float((0.30001, 0.30001)))
        far = abs(hilbert_index_float((0.1, 0.1))
                  - hilbert_index_float((0.9, 0.9)))
        assert near < far

    def test_deterministic(self):
        assert hilbert_index_float((0.123, 0.456)) == \
            hilbert_index_float((0.123, 0.456))


#: Coordinates at 0 and 1 exactly, on a lattice (ties), just inside and
#: outside the unit interval, and anywhere.
COORDS = (st.sampled_from([0.0, -0.0, 1.0, 0.5, 1.0 - 2 ** -53, 2 ** -17,
                           -1e-12, 1.0 + 1e-12, -3.0, 7.5])
          | st.integers(0, 16).map(lambda k: k / 16)
          | st.floats(-2.0, 3.0, allow_nan=False))


class TestHilbertKeys:
    """One Skilling transform over ``int64`` rows gives every point the
    key the scalar transform gives it."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda ndim: st.lists(
               st.lists(COORDS, min_size=ndim, max_size=ndim),
               min_size=1, max_size=40)),
           st.sampled_from([1, 3, 16]))
    def test_keys_equal_the_scalar_keys(self, points, bits):
        keys = hilbert_keys(np.array(points).T, bits)
        assert [int(k) for k in keys] \
            == [hilbert_index_float(p, bits) for p in points]

    def test_wide_keys_are_python_ints(self):
        points = [[0.1, 0.9, 0.5, 0.25, 1.0], [1.0, 0.0, 0.3, 0.7, 0.5]]
        keys = hilbert_keys(np.array(points).T)
        assert keys.dtype == object
        assert list(keys) == [hilbert_index_float(p) for p in points]
