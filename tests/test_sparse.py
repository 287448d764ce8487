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


def csr_of(dense) -> SparseMatrix:
    """The canonical CSR of a dense matrix: its nonzeros row by row, columns
    increasing within a row, each stored as it is, above the cap too."""
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    indptr = np.searchsorted(rows, np.arange(len(dense) + 1))
    return SparseMatrix(*(arr.astype(np.int64) for arr in (indptr, cols, dense[rows, cols])))


@st.composite
def matrices(draw, dim, max_value=3):
    """A SparseMatrix and the dense Python-int matrix it holds: the sums of
    repeated cells, capped at SATURATION_CAP. Empty rows and columns are
    common."""
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), st.integers(1, max_value))
    dense = np.zeros((dim, dim), dtype=object)
    for i, j, v in draw(st.lists(cells, max_size=3 * dim * dim)):
        dense[i, j] += v
    dense = np.minimum(dense, SATURATION_CAP)
    return csr_of(dense), dense


def assert_same(m: SparseMatrix, dense: np.ndarray):
    """m holds the canonical CSR arrays of the dense matrix, as int64."""
    want = csr_of(dense)
    assert m.dim == len(dense)
    for got, exp in zip((m.indptr, m.indices, m.data), (want.indptr, want.indices, want.data)):
        assert got.dtype == np.int64
        assert got.tolist() == exp.tolist()


class TestFromKeys:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), count=st.integers(0, 4), dim=st.integers(1, 5))
    def test_each_piece_is_its_block_of_the_stack(self, data, count, dim):
        # any block may be empty, the first and the last too; count 0 is an
        # empty stack
        blocks = [
            data.draw(matrices(dim))[1] if data.draw(st.booleans()) else np.zeros((dim, dim), dtype=object)
            for _ in range(count)
        ]
        stack = np.concatenate(blocks) if blocks else np.zeros((0, dim), dtype=object)
        rows, cols = np.nonzero(stack)  # row k * dim + h is row h of block k
        got = kbmod._from_keys(count, dim, rows, cols, stack[rows, cols].astype(np.int64))
        assert len(got) == count
        for m, block in zip(got, blocks):
            assert_same(m, block)


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
        a = csr_of(np.zeros((3, 3), dtype=np.int64))
        b = csr_of(np.zeros((4, 4), dtype=np.int64))
        with pytest.raises(KBError, match="mismatch"):
            sparse_mul(a, b)
        with pytest.raises(KBError, match="mismatch"):
            sparse_hadamard(a, b)

    def test_factor_above_the_cap_saturates(self):
        m = csr_of([[3 * 2**30]])
        assert m.data.tolist() == [3 * 2**30]
        assert sparse_mul(m, m).data.tolist() == [SATURATION_CAP]
        assert sparse_hadamard(m, m).data.tolist() == [SATURATION_CAP]

    def test_paths_summing_past_int64_saturate(self):
        # four paths of 2^62 each: their int64 sum wraps to 0
        dense = np.zeros((5, 5), dtype=np.int64)
        dense[0, 1:] = 2**31
        a = csr_of(dense)
        got = sparse_mul(a, sparse_transpose(a))
        assert got.nnz == 1 and got.get(0, 0) == SATURATION_CAP

    def test_hub_product_allocates_the_output_and_one_chunk(self):
        # k in-edges by k out-edges through node 0: k * k paths, each its own
        # output entry. Expanding every path at once would hold several
        # int64 arrays of k * k entries on top of the output.
        k = 800
        n = 2 * k + 1
        into, out_of = np.zeros((2, n, n), dtype=np.int64)
        into[1 : k + 1, 0] = 1
        out_of[0, k + 1 :] = 1
        into, out_of = csr_of(into), csr_of(out_of)
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
