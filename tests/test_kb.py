"""Triple store and sparse count-matrix behavior."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthetic
from rulekbc import kb as kbmod
from rulekbc.kb import (
    SATURATION_CAP,
    KBError,
    KnowledgeBase,
    SparseMatrix,
    Triple,
    Vocab,
    kb_fingerprint,
    load_kb,
    not_utf8,
    sparse_hadamard,
    sparse_mul,
    sparse_transpose,
)
from rulekbc.grounding import _entry_counts
from rulekbc.trainer import _filtered


def line_by_line_read_split(path, entities, relations):
    """The loader as it was before splits became arrays, one Triple per line:
    the oracle of the array loader. Returns the triples and the duplicate
    count it warned about."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            numbered = list(enumerate(fh, start=1))
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from exc
    triples, seen, dups = [], set(), 0
    for lineno, raw in numbered:
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not all(parts):
            raise KBError("%s:%d: expected 3 tab-separated fields, got %d" % (path, lineno, len(parts)))
        h, r, t = parts
        triple = Triple(entities.add(h), relations.add(r), entities.add(t))
        if triple in seen:
            dups += 1
            continue
        seen.add(triple)
        triples.append(triple)
    return triples, dups


def line_by_line_load(paths):
    """(entity names, relation names, splits, warnings) or the KBError text,
    as the line-by-line loader gives them."""
    entities, relations = Vocab("entity"), Vocab("relation")
    splits, warnings = [], []
    try:
        for path in paths:
            triples, dups = line_by_line_read_split(path, entities, relations)
            if dups:
                warnings.append("%s: dropped %d duplicate triples" % (path, dups))
            if not splits and not triples:
                raise KBError("train split %s contains no triples" % path)
            splits.append(triples)
    except KBError as exc:
        return str(exc)
    return entities.names, relations.names, splits, warnings


# names with non-ASCII letters, a space, and line breaks that universal
# newlines do not split on (str.splitlines would)
NAMES = st.sampled_from(["a", "b", "c", "é", "名前", "x y", "v\x0bw", "p\x85q", "s\u2028t"])
GOOD_LINE = st.tuples(NAMES, st.sampled_from(["r", "s", "ü"]), NAMES).map(lambda t: "\t".join(t).encode())
BAD_LINE = st.sampled_from([b"a\tr", b"a\tr\tb\tc", b"a\t\tb", b"\tr\tb", b"a\tr\t", b"a b c", b"a\tr\t\xe9t\xe9"])
ENDING = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def triple_file(draw, bad):
    """A TSV file's bytes: repeated and blank lines, mixed line endings, with
    or without a final newline; with `bad`, a few malformed lines too."""
    pool = draw(st.lists(GOOD_LINE, min_size=1, max_size=6))
    choices = [st.sampled_from(pool), st.just(b"")] + ([BAD_LINE] if bad else [])
    lines = draw(st.lists(st.one_of(*choices), min_size=1, max_size=14))
    endings = draw(st.lists(ENDING, min_size=len(lines), max_size=len(lines)))
    body = b"".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        body = body[: -len(endings[-1])]
    return body


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
        # sha256 of the counts 3, 2 and the rows (0, 0, 1), (0, 1, 2), (1, 1, 2), as little-endian int64
        expected = "6077e3d3d36f0d2f375d3c972f09fc1a22fa20f057b308e0dbdfba7bb5bc8e06"
        assert kb_fingerprint(kb) == expected
        assert kb.fingerprint == expected

    def test_train_by_relation_matches_scan(self):
        rng = np.random.default_rng(3)
        kb = synthetic.random_kb(rng)
        for r in range(kb.num_relations):
            scan = [i for i, t in enumerate(kb.train) if t.relation == r]
            assert kb.train_by_relation(r).tolist() == scan
        assert kb.train_by_relation(kb.num_relations).tolist() == []

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
        # a 2 x 3 matrix with an entry in column 2, as a cache entry and as coordinates
        with pytest.raises(KBError, match="square"):
            _entry_counts(np.array([[0], [2], [1]]), 2, 2)
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
        def entry(count):
            return np.array([[0], [1], [count]], dtype=np.int64)

        assert _entry_counts(entry(SATURATION_CAP), 2, 2)[2].tolist() == [SATURATION_CAP]
        for count in (SATURATION_CAP + 1, 2**40):
            with pytest.raises(KBError, match="count outside"):
                _entry_counts(entry(count), 2, 2)

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


class TestArrayLoader:
    """The array loader against the line-by-line one it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(files=st.tuples(*[st.booleans().flatmap(triple_file) for _ in range(3)]))
    # a \r\n train file with a repeated line loads, with one duplicate dropped
    @example(files=(b"a\tr\tb\r\nb\tr\tc\r\na\tr\tb\r\n", b"", b""))
    def test_matches_the_line_by_line_loader(self, files):
        with tempfile.TemporaryDirectory() as d:
            paths = [os.path.join(d, name + ".txt") for name in ("train", "valid", "test")]
            for path, body in zip(paths, files):
                with open(path, "wb") as fh:
                    fh.write(body)
            expected = line_by_line_load(paths)
            with mock.patch.object(kbmod.logger, "warning") as warning:
                try:
                    kb = load_kb(*paths)
                except KBError as exc:
                    assert str(exc) == expected
                    return
            assert not isinstance(expected, str), expected
            names, relations, splits, warnings = expected
            assert kb.entities.names == names and kb.relations.names == relations
            assert [kb.train, kb.valid, kb.test] == splits
            assert [c.args[0] % c.args[1:] for c in warning.call_args_list] == warnings
            for split, triples in zip(("train", "valid", "test"), splits):
                np.testing.assert_array_equal(kb.arrays[split], np.array(triples, dtype=np.int64).reshape(-1, 3))


@st.composite
def small_kbs(draw):
    """KnowledgeBases built directly from Triple lists, with triples repeated
    within and across splits."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    triple = st.builds(Triple, st.integers(0, n - 1), st.integers(0, m - 1), st.integers(0, n - 1))
    splits = [draw(st.lists(triple, max_size=size)) for size in (20, 8, 8)]
    entities, relations = Vocab(), Vocab()
    for i in range(n):
        entities.add("e%d" % i)
    for r in range(m):
        relations.add("r%d" % r)
    return KnowledgeBase(entities, relations, *splits)


class TestDerivedIndices:
    @settings(max_examples=40, deadline=None)
    @given(kb=small_kbs())
    def test_repeated_train_triples_count(self, kb):
        n = kb.num_entities
        for r in range(kb.num_relations):
            dense = np.zeros((n, n), dtype=np.int64)
            for h, rel, t in kb.train:
                dense[h, t] += rel == r
            m = kb.matrices[r]
            np.testing.assert_array_equal(m.to_dense(), dense)
            # canonical: the nonzeros in row-major order, no others
            rows, cols = np.nonzero(dense)
            assert m.indptr.tolist() == [0] + np.cumsum(np.bincount(rows, minlength=n)).tolist()
            assert (m.indices.tolist(), m.data.tolist()) == (cols.tolist(), dense[rows, cols].tolist())

    def test_a_triple_listed_twice_counts_two(self):
        kb = synthetic.build_kb("ab", "r", [("a", "r", "b"), ("a", "r", "b"), ("b", "r", "a")])
        assert kb.matrices[0].to_dense().tolist() == [[0, 2], [1, 0]]

    @settings(max_examples=40, deadline=None)
    @given(kb=small_kbs(), data=st.data())
    def test_known_tails_and_filtered_pairs(self, kb, data):
        known = {}
        for split in (kb.train, kb.valid, kb.test):
            for h, r, t in split:
                known.setdefault((h, r), set()).add(t)
        for r in range(kb.num_relations):
            heads = data.draw(st.lists(st.integers(0, kb.num_entities - 1), max_size=6))
            golds = data.draw(st.lists(st.integers(0, kb.num_entities - 1), min_size=len(heads), max_size=len(heads)))
            query, tail = kb.known_tails(r, heads)
            assert np.all(np.diff(query) >= 0)
            for i, h in enumerate(heads):
                assert tail[query == i].tolist() == sorted(known.get((h, r), ()))
            # the filtered protocol's pairs, as the dict-of-sets version built them
            expected = {(i, t) for i, (h, g) in enumerate(zip(heads, golds)) for t in known.get((h, r), ()) if t != g}
            query, tail = _filtered(kb, r, heads, golds)
            assert set(zip(query.tolist(), tail.tolist())) == expected
            assert len(query) == len(expected)


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
        _, tails = kb.known_tails(kb.relations.id("r"), [kb.entities.id("a")])
        assert set(tails.tolist()) == {kb.entities.id(x) for x in "bcd"}


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
