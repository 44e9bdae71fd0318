"""NumPy behaviour the library relies on, each premise checked against plain
Python on a few hand-made arrays, so that a NumPy that breaks one fails here
by name rather than through a digest far from the cause.  So far: the
premises of `structure.decompose`."""

import numpy as np
import pytest

_ARRAYS = [
    [0],
    [3, 1, 3, 0, 1, 1],
    [7, 7, 7],
    [2**62, -(2**62), 5, 2**62 - 1, -(2**62), 0, 2**62],
    [9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
]


@pytest.mark.parametrize("values", _ARRAYS)
def test_memoryview_of_int64_yields_python_ints(values):
    view = memoryview(np.array(values, dtype=np.int64))
    got = [view[i] for i in range(len(values))]
    assert all(type(x) is int for x in got)
    assert got == values


@pytest.mark.parametrize("values", _ARRAYS)
def test_unique_return_index_gives_first_occurrences(values):
    uniq, first = np.unique(np.array(values, dtype=np.int64), return_index=True)
    assert uniq.tolist() == sorted(set(values))
    assert first.tolist() == [values.index(u) for u in sorted(set(values))]


@pytest.mark.parametrize("values", _ARRAYS)
def test_unique_return_inverse_of_1d_is_1d_and_rebuilds_the_input(values):
    a = np.array(values, dtype=np.int64)
    uniq, first, inverse = np.unique(a, return_index=True, return_inverse=True)
    assert inverse.ndim == 1 and inverse.shape == a.shape
    assert np.array_equal(uniq[inverse], a)
    assert inverse.tolist() == [sorted(set(values)).index(v) for v in values]
