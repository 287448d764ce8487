"""The numpy CSR count kernels against exact dense arithmetic on Python
integers, and the RotatE gradient scatter against np.add.at."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rulekbc import kb as kbmod
from rulekbc import rotate
from rulekbc.kb import SATURATION_CAP, KBError, SparseMatrix, sparse_hadamard, sparse_mul, sparse_transpose


@st.composite
def coords(draw, dim, max_value=3, min_value=1):
    """Coordinate entries of a dim x dim matrix, repeats allowed, and their
    exact sums as a dense matrix of Python integers."""
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), st.integers(min_value, max_value))
    entries = draw(st.lists(cells, max_size=3 * dim * dim))
    rows, cols, vals = (np.array([e[i] for e in entries], dtype=np.int64) for i in range(3))
    exact = np.zeros((dim, dim), dtype=object)
    for i, j, v in entries:
        exact[i, j] += v
    return rows, cols, vals, exact


@st.composite
def matrices(draw, dim, max_value=3):
    """A SparseMatrix and the dense Python-int matrix it holds; empty rows
    and columns are common."""
    rows, cols, vals, exact = draw(coords(dim, max_value=max_value))
    return SparseMatrix.from_coords(dim, rows, cols, vals), np.minimum(exact, SATURATION_CAP)


def assert_same(m: SparseMatrix, dense: np.ndarray):
    """m is the canonical CSR of the dense matrix: its nonzeros row by row,
    columns increasing within a row."""
    rows, cols = np.nonzero(dense)
    assert m.dim == len(dense)
    for arr in (m.indptr, m.indices, m.data):
        assert arr.dtype == np.int64
    np.testing.assert_array_equal(m.indptr, np.searchsorted(rows, np.arange(len(dense) + 1)))
    np.testing.assert_array_equal(m.indices, cols)
    assert m.data.tolist() == dense[rows, cols].tolist()


class TestFromCoords:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6))
    def test_duplicates_add_and_zero_sums_are_dropped(self, data, dim):
        rows, cols, vals, exact = data.draw(coords(dim, min_value=-3))
        if (exact < 0).any():
            with pytest.raises(KBError, match="negative"):
                SparseMatrix.from_coords(dim, rows, cols, vals)
        else:
            assert_same(SparseMatrix.from_coords(dim, rows, cols, vals), exact)

    def test_out_of_square_coordinates_rejected(self):
        with pytest.raises(KBError, match="square"):
            SparseMatrix.from_coords(2, [0], [2])

    def test_coordinate_sums_saturate(self, caplog):
        m = SparseMatrix.from_coords(1, [0], [0], [3 * 2**30])
        assert m.data.tolist() == [SATURATION_CAP]
        assert "saturating 1 count entries" in caplog.text
        # terms above the cap are held before adding, so no sum wraps int64
        m = SparseMatrix.from_coords(2, [0] * 4 + [1], [1] * 4 + [0], [2**62] * 4 + [SATURATION_CAP])
        assert (m.get(0, 1), m.get(1, 0)) == (SATURATION_CAP, SATURATION_CAP)
        assert "saturating 1 count entries" in caplog.text.splitlines()[-1]


class TestProduct:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 7), chunk=st.integers(1, 40))
    def test_matches_the_exact_product_in_any_chunking(self, data, dim, chunk):
        # dims from 1, empty rows and empty operands, products over many chunks
        a, da = data.draw(matrices(dim))
        b, db = data.draw(matrices(dim))
        with mock.patch.object(kbmod, "_PRODUCT_CHUNK", chunk):
            got = sparse_mul(a, b)
        assert_same(got, da @ db)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5), chunk=st.integers(1, 30))
    def test_saturates_at_the_cap(self, data, dim, chunk):
        # counts up to the cap: int64 products and their sums can wrap; the
        # oracle multiplies Python integers, which never do
        a, da = data.draw(matrices(dim, max_value=2**30))
        b, db = data.draw(matrices(dim, max_value=2**30))
        exact = da @ db
        with mock.patch.object(kbmod, "_PRODUCT_CHUNK", chunk), mock.patch.object(kbmod.logger, "warning") as warn:
            got = sparse_mul(a, b)
        assert_same(got, np.minimum(exact, SATURATION_CAP))
        assert warn.call_count == int((exact > SATURATION_CAP).any())

    def test_dimension_mismatch_raises(self):
        a = SparseMatrix.from_coords(3, [], [])
        b = SparseMatrix.from_coords(4, [], [])
        with pytest.raises(KBError, match="mismatch"):
            sparse_mul(a, b)
        with pytest.raises(KBError, match="mismatch"):
            sparse_hadamard(a, b)

    def test_factor_above_the_cap_saturates(self):
        m = SparseMatrix.from_coords(1, [0], [0], [3 * 2**30])
        assert sparse_mul(m, m).data.tolist() == [SATURATION_CAP]
        assert sparse_hadamard(m, m).data.tolist() == [SATURATION_CAP]

    def test_paths_summing_past_int64_saturate(self):
        # four paths of 2^62 each: their int64 sum wraps to 0
        a = SparseMatrix.from_coords(5, [0] * 4, [1, 2, 3, 4], [2**31] * 4)
        got = sparse_mul(a, sparse_transpose(a))
        assert got.nnz == 1 and got.get(0, 0) == SATURATION_CAP

    def test_hub_product_allocates_the_output_and_one_chunk(self):
        # k in-edges by k out-edges through node 0: k * k paths, each its own
        # output entry. Expanding every path at once would hold several
        # int64 arrays of k * k entries on top of the output.
        k = 800
        n = 2 * k + 1
        into = SparseMatrix.from_coords(n, np.arange(1, k + 1), np.zeros(k, dtype=np.int64))
        out_of = SparseMatrix.from_coords(n, np.zeros(k, dtype=np.int64), np.arange(k + 1, n))
        tracemalloc.start()
        try:
            got = sparse_mul(into, out_of)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.nnz == k * k and set(got.data.tolist()) == {1}
        output = got.indptr.nbytes + got.indices.nbytes + got.data.nbytes
        chunk = 96 * kbmod._PRODUCT_CHUNK  # about ten int64 arrays of one chunk of paths
        assert k * k > 4 * kbmod._PRODUCT_CHUNK
        assert peak < output + chunk, (peak, output, chunk)


class TestTransposeHadamardAccess:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 7))
    def test_match_exact_dense(self, data, dim):
        a, dense = data.draw(matrices(dim))
        b, db = data.draw(matrices(dim))
        assert_same(sparse_transpose(a), dense.T)
        assert_same(sparse_hadamard(a, b), dense * db)

        np.testing.assert_array_equal(a.to_dense(), dense)
        for i in range(dim):
            cols, vals = a.row(i)
            np.testing.assert_array_equal(cols, np.flatnonzero(dense[i]))
            np.testing.assert_array_equal(vals, dense[i][cols])
            for j in range(dim):
                assert a.get(i, j) == dense[i, j]
        heads = data.draw(st.lists(st.integers(0, dim - 1), max_size=2 * dim))
        pos, cols, vals = a.rows(heads)
        want = [(p, j, dense[h, j]) for p, h in enumerate(heads) for j in np.flatnonzero(dense[h])]
        assert list(zip(pos.tolist(), cols.tolist(), vals.tolist())) == want


class TestScatter:
    # widths past the column block and not a multiple of it: several
    # blocks, the last one narrower
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), width=st.integers(1, 40), stack=st.integers(0, 30))
    def test_bit_equal_to_add_at(self, data, n, width, stack):
        targets = data.draw(hnp.arrays(np.int64, stack, elements=st.integers(0, n - 1)))
        values = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300, 0.1, 1 / 3])
        rows = data.draw(hnp.arrays(np.float64, (stack, width), elements=values))
        want = np.zeros((n, width))
        np.add.at(want, targets, rows)
        got = rotate._scatter(targets, rows, n)
        assert got.shape == (n, width)
        assert got.tobytes() == want.tobytes()
