"""Triple store and sparse count-matrix behavior."""

import os

import numpy as np
import pytest

import synthetic
from rulekbc.kb import (
    SATURATION_CAP,
    KBError,
    SparseMatrix,
    Triple,
    Vocab,
    _canonical_csr,
    kb_fingerprint,
    load_kb,
    sparse_hadamard,
    sparse_mul,
    sparse_transpose,
)


class TestLoading:
    def test_round_trip_ids_and_splits(self, tmp_path):
        rows = {
            "train": [("a", "r1", "b"), ("b", "r2", "c"), ("a", "r1", "c")],
            "valid": [("c", "r1", "a")],
            "test": [("d", "r2", "a")],
        }
        paths = synthetic.write_kb_files(str(tmp_path), triples=rows)
        kb = load_kb(paths["train"], paths["valid"], paths["test"])
        assert kb.num_entities == 4
        assert kb.num_relations == 2
        # first-appearance ordering: train defines a,b,c then test adds d
        assert kb.entities.names == ["a", "b", "c", "d"]
        assert [tuple(t) for t in kb.valid] == [(2, 0, 0)]
        assert Triple(0, 0, 1) in kb.train
        assert Triple(2, 0, 0) not in kb.train

    def test_duplicates_dropped(self, tmp_path):
        rows = {"train": [("a", "r", "b")] * 3 + [("b", "r", "a")]}
        paths = synthetic.write_kb_files(str(tmp_path), triples=rows)
        kb = load_kb(paths["train"])
        assert len(kb.train) == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(KBError, match="cannot open"):
            load_kb(str(tmp_path / "nope.txt"))

    def test_malformed_line_reports_location(self, tmp_path):
        p = tmp_path / "train.txt"
        p.write_text("a\tr\tb\nbad line\n")
        with pytest.raises(KBError, match=r"train\.txt:2"):
            load_kb(str(p))

    def test_empty_field_rejected(self, tmp_path):
        p = tmp_path / "train.txt"
        p.write_text("a\t\tb\n")
        with pytest.raises(KBError):
            load_kb(str(p))

    def test_empty_train_rejected(self, tmp_path):
        p = tmp_path / "train.txt"
        p.write_text("\n")
        with pytest.raises(KBError, match="no triples"):
            load_kb(str(p))

    def test_relation_only_in_valid_gets_zero_matrix(self, tmp_path):
        rows = {"train": [("a", "r1", "b")], "valid": [("a", "r2", "b")]}
        paths = synthetic.write_kb_files(str(tmp_path), triples=rows)
        kb = load_kb(paths["train"], paths["valid"])
        assert kb.matrices[kb.relations.id("r2")].nnz == 0

    def test_fingerprint_tracks_train_only(self, tmp_path):
        rows = {"train": [("a", "r", "b")], "valid": [("b", "r", "a")]}
        paths = synthetic.write_kb_files(str(tmp_path), triples=rows)
        kb1 = load_kb(paths["train"], paths["valid"])
        kb2 = load_kb(paths["train"])
        # valid split adds no new names here, so the train structure matches
        assert kb_fingerprint(kb1) == kb_fingerprint(kb2)

    def test_fingerprint_digest_is_pinned(self):
        # the grounding cache is keyed by this digest: a change to it orphans
        # every cache written before
        kb = synthetic.build_kb("abc", "rs", [("a", "r", "b"), ("b", "s", "c"), ("a", "s", "c")])
        expected = "9dd19f650a65ee9aa29ca1cadd7d3d6a11fed6aee1df259e2eb5753c25320437"
        assert kb_fingerprint(kb) == expected
        assert kb.fingerprint == expected

    def test_train_by_relation_matches_scan(self):
        rng = np.random.default_rng(3)
        kb = synthetic.random_kb(rng)
        for r in range(kb.num_relations):
            got = kb.train_by_relation(r)
            assert got == [t for t in kb.train if t.relation == r]
            got.clear()  # a fresh list: the KB's index is untouched
            assert kb.train_by_relation(r) == [t for t in kb.train if t.relation == r]
        assert kb.train_by_relation(kb.num_relations) == []

    def test_unknown_name_raises_kb_error(self, tmp_path):
        paths = synthetic.write_kb_files(str(tmp_path), triples={"train": [("a", "r", "b")]})
        kb = load_kb(paths["train"])
        with pytest.raises(KBError, match="unknown relation 'no_such_rel'"):
            kb.relations.id("no_such_rel")
        with pytest.raises(KBError, match="unknown entity 'z'"):
            kb.entities.id("z")
        with pytest.raises(KBError, match="unknown name 'z'"):
            Vocab().id("z")


def random_sparse(rng, dim, density=0.3, max_val=3):
    mask = rng.random((dim, dim)) < density
    dense = rng.integers(1, max_val + 1, size=(dim, dim)) * mask
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coords(dim, rows, cols, dense[rows, cols]), dense.astype(np.int64)


class TestSparseOps:
    def test_product_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            dim = int(rng.integers(2, 20))
            a, da = random_sparse(rng, dim)
            b, db = random_sparse(rng, dim)
            np.testing.assert_array_equal(sparse_mul(a, b).to_dense(), da @ db)

    def test_transpose_and_hadamard_match_dense(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            dim = int(rng.integers(2, 20))
            a, da = random_sparse(rng, dim)
            b, db = random_sparse(rng, dim)
            np.testing.assert_array_equal(sparse_transpose(a).to_dense(), da.T)
            np.testing.assert_array_equal(sparse_hadamard(a, b).to_dense(), da * db)

    def test_product_associative(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dim = int(rng.integers(2, 20))
            a, _ = random_sparse(rng, dim)
            b, _ = random_sparse(rng, dim)
            c, _ = random_sparse(rng, dim)
            left = sparse_mul(sparse_mul(a, b), c)
            right = sparse_mul(a, sparse_mul(b, c))
            for k in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(left, k), getattr(right, k))

    def test_dimension_mismatch_raises(self):
        a = SparseMatrix.from_coords(3, [], [])
        b = SparseMatrix.from_coords(4, [], [])
        with pytest.raises(KBError, match="mismatch"):
            sparse_mul(a, b)
        with pytest.raises(KBError, match="mismatch"):
            sparse_hadamard(a, b)

    def test_negative_entries_rejected(self):
        with pytest.raises(KBError, match="negative"):
            SparseMatrix.from_coords(2, [0], [1], [-1])

    def test_rectangular_rejected(self):
        # a 2 x 3 matrix with an entry in column 2, as CSR arrays and as coordinates
        with pytest.raises(KBError, match="square"):
            _canonical_csr(2, 2, np.array([0, 1, 1]), np.array([2]), np.array([1]))
        with pytest.raises(KBError, match="square"):
            SparseMatrix.from_coords(2, [0], [2])

    def test_saturation_clips_instead_of_wrapping(self):
        big = SATURATION_CAP
        a = SparseMatrix.from_coords(2, [0], [0], [big])
        b = SparseMatrix.from_coords(2, [0], [0], [4])
        prod = sparse_mul(a, b)
        assert prod.get(0, 0) == SATURATION_CAP

    def test_coordinate_sums_saturate(self, caplog):
        m = SparseMatrix.from_coords(1, [0], [0], [3 * 2**30])
        assert m.data.tolist() == [SATURATION_CAP]
        assert "saturating 1 count entries" in caplog.text
        # terms above the cap are held before adding, so no sum wraps int64
        m = SparseMatrix.from_coords(2, [0] * 4 + [1], [1] * 4 + [0], [2**62] * 4 + [SATURATION_CAP])
        assert (m.get(0, 1), m.get(1, 0)) == (SATURATION_CAP, SATURATION_CAP)
        assert "saturating 1 count entries" in caplog.text.splitlines()[-1]

    def test_counts_above_the_cap_rejected(self):
        indptr, indices = np.array([0, 1, 1]), np.array([1])
        assert _canonical_csr(2, 2, indptr, indices, np.array([SATURATION_CAP]))[2].tolist() == [SATURATION_CAP]
        for count in (SATURATION_CAP + 1, 2**40):
            with pytest.raises(KBError, match="above"):
                _canonical_csr(2, 2, indptr, indices, np.array([count]))

    def test_row_access_matches_dense(self):
        rng = np.random.default_rng(14)
        a, da = random_sparse(rng, 9)
        for i in range(9):
            cols, vals = a.row(i)
            dense_row = np.zeros(9, dtype=np.int64)
            dense_row[cols] = vals
            np.testing.assert_array_equal(dense_row, da[i])

    def test_duplicate_coords_summed(self):
        m = SparseMatrix.from_coords(3, [1, 1], [2, 2], [2, 5])
        assert m.get(1, 2) == 7
        assert m.nnz == 1


class TestKBStructure:
    def test_incident_lists_cover_both_endpoints(self):
        kb = synthetic.family_kb()
        anna = kb.entities.id("Anna")
        bob = kb.entities.id("Bob")
        assert len(kb.incident[anna]) == 2  # parent out-edge + direct bridge edge
        assert len(kb.incident[bob]) == 2  # one in-edge, one out-edge

    def test_true_tails_span_all_splits(self, tmp_path):
        rows = {
            "train": [("a", "r", "b")],
            "valid": [("a", "r", "c")],
            "test": [("a", "r", "d")],
        }
        paths = synthetic.write_kb_files(str(tmp_path), triples=rows)
        kb = load_kb(paths["train"], paths["valid"], paths["test"])
        tails = kb.true_tails[(kb.entities.id("a"), kb.relations.id("r"))]
        assert tails == {kb.entities.id(x) for x in "bcd"}

    def test_unknown_split_raises(self):
        kb = synthetic.family_kb()
        with pytest.raises(KBError, match="unknown split"):
            kb.split("dev")


@pytest.mark.skipif(
    "RULEKBC_UMLS_DIR" not in os.environ,
    reason="set RULEKBC_UMLS_DIR to a directory with train/valid/test TSVs",
)
def test_umls_corpus_statistics():
    d = os.environ["RULEKBC_UMLS_DIR"]
    kb = load_kb(
        os.path.join(d, "train.txt"),
        os.path.join(d, "valid.txt"),
        os.path.join(d, "test.txt"),
    )
    assert kb.num_entities == 135
    assert kb.num_relations == 46
    assert len(kb.train) == 1959
