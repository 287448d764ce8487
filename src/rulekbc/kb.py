"""Triple store: TSV loading, id vocabularies, per-relation adjacency matrices.

The adjacency and grounding counts are integer CSR matrices kept as plain
numpy arrays; the products that ground a rule are computed here, so no stage
loads scipy.
"""

import functools
import hashlib
import logging
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np

logger = logging.getLogger(__name__)

# Counts saturate here instead of wrapping; large enough for any desk-scale KB.
SATURATION_CAP = 2**31 - 1
# `from_coords` and the product kernels hold every count, factor and path
# count above the cap at this value before adding, so a sum of fewer than
# 2^32 terms cannot wrap int64 and `_saturate` still sees every entry whose
# exact count is above the cap.
_HELD = SATURATION_CAP + 1


class KBError(Exception):
    """Raised for malformed input files or inconsistent KB state."""


def not_utf8(path: str, exc: UnicodeDecodeError) -> KBError:
    """The KBError for a text file that failed to decode, naming its first
    line that is not UTF-8. A newline byte is never part of a multi-byte
    UTF-8 sequence, so the lines decode alone as they do together."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as line_exc:
                return KBError("%s:%d: not UTF-8 text: %s" % (path, lineno, line_exc))
    return KBError("%s: not UTF-8 text: %s" % (path, exc))


def text_lines(path: str, what: str) -> Iterator[Tuple[int, str]]:
    """(line number, line) of the UTF-8 text file `path`. KBError names the
    file, as `what`, when it cannot be opened, and the file and line where
    it is not UTF-8."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise KBError("cannot open %s %s: %s" % (what, path, exc)) from exc
    with fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from exc


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class Vocab:
    """Bidirectional name <-> integer id map, ids assigned by first appearance.

    `kind` ("entity", "relation") only words the error for an unknown name.
    """

    def __init__(self, kind: str = "name") -> None:
        self.kind = kind
        self.names: List[str] = []
        self.index: Dict[str, int] = {}

    def add(self, name: str) -> int:
        got = self.index.get(name)
        if got is not None:
            return got
        new_id = len(self.names)
        self.names.append(name)
        self.index[name] = new_id
        return new_id

    def id(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise KBError("unknown %s %r" % (self.kind, name)) from None

    def name(self, ident: int) -> str:
        return self.names[ident]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index


# Path pairs (a[i, k], b[k, j]) that `sparse_mul` expands at once. Its
# temporaries are about ten int64 arrays of that length (~5 MB), however
# many paths the whole product has.
_PRODUCT_CHUNK = 1 << 16


class SparseMatrix:
    """Square nonnegative integer count matrix in canonical CSR form.

    `indptr` (dim + 1 row offsets), `indices` (columns) and `data` (counts)
    are int64 arrays; each row's columns strictly increase and no stored
    count is zero. The arrays are read only and shared, never copied: the
    constructor takes them as they are, so only `from_coords`, the product
    kernels and a checked cache load build them. Every operation returns a
    new matrix and saturates entries at SATURATION_CAP instead of
    overflowing.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        self.indptr = indptr
        self.indices = indices
        self.data = data

    @classmethod
    def from_coords(cls, dim: int, rows, cols, vals=None) -> "SparseMatrix":
        """Counts `vals` (default 1) at (rows, cols); repeated coordinates add
        up, each count held at `_HELD` first, a sum above SATURATION_CAP
        saturates and a zero sum stores nothing."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.ones(len(rows), dtype=np.int64) if vals is None else np.asarray(vals, dtype=np.int64)
        if not len(rows) == len(cols) == len(vals):
            raise KBError("coordinate arrays differ in length")
        if len(rows) and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= dim):
            raise KBError("coordinates must lie in the %d x %d square matrix" % (dim, dim))
        keys, sums = _sum_keys(rows * dim + cols, np.minimum(vals, _HELD))
        return _from_keys(dim, keys, _saturate(sums))

    @property
    def dim(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.data)

    def get(self, i: int, j: int) -> int:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        at = lo + int(np.searchsorted(self.indices[lo:hi], j))
        return int(self.data[at]) if at < hi and self.indices[at] == j else 0

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row i (only stored entries)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def rows(self, heads) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored entries of rows `heads` (repeats allowed) as (position in
        heads, column, value) arrays, row after row, read straight from the
        CSR arrays."""
        heads = np.asarray(heads, dtype=np.int64)
        starts = self.indptr[heads]
        lens = self.indptr[heads + 1] - starts
        row = np.arange(len(heads)).repeat(lens)
        # output entry j, the k-th of row i, is stored at starts[i] + k
        pos = np.arange(len(row)) + (starts - lens.cumsum() + lens)[row]
        return row, self.indices[pos], self.data[pos]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim), dtype=np.int64)
        dense[_row_ids(self.indptr), self.indices] = self.data
        return dense


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry."""
    return np.arange(len(indptr) - 1).repeat(np.diff(indptr))


def _canonical_csr(rows: int, dim: int, indptr, indices, data) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int64 CSR arrays of a `rows` x `dim` matrix, which must already be
    canonical: row offsets from 0 to the entry count, never decreasing;
    columns in [0, dim), strictly increasing within a row; positive counts
    no larger than SATURATION_CAP. KBError names the first check that fails."""
    for name, arr in (("indptr", indptr), ("indices", indices), ("data", data)):
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise KBError("CSR %s is not a 1-d integer array" % name)
    indptr, indices, data = (arr.astype(np.int64, copy=False) for arr in (indptr, indices, data))
    if len(indptr) != rows + 1 or indptr[0] != 0 or indptr[-1] != len(indices) or len(indices) != len(data):
        raise KBError("CSR indptr does not span %d rows of %d entries" % (rows, len(data)))
    if np.any(np.diff(indptr) < 0):
        raise KBError("CSR indptr decreases")
    if len(indices) and (indices.min() < 0 or indices.max() >= dim):
        raise KBError("CSR column index outside the %d x %d square matrix" % (dim, dim))
    if len(data) and data.min() < 0:
        raise KBError("sparse count matrix cannot hold negative entries")
    if len(data) and data.min() == 0:
        raise KBError("CSR stores a zero count")
    if len(data) and data.max() > SATURATION_CAP:
        raise KBError("CSR stores a count above %d" % SATURATION_CAP)
    if np.any(np.diff(_row_ids(indptr) * dim + indices) <= 0):
        raise KBError("CSR columns do not strictly increase within a row")
    return indptr, indices, data


def _indptr(counts: np.ndarray) -> np.ndarray:
    """Row offsets from per-row entry counts."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _changes(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a sorted array starts a run of equal values."""
    new = np.ones(sorted_keys.size, dtype=bool)
    new[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return new


def _sum_keys(keys: np.ndarray, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct `keys` in increasing order with the exact int64 sums of their
    `vals`, zero sums dropped."""
    if not len(keys):
        return keys, vals
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    first = np.flatnonzero(_changes(keys))
    sums = np.add.reduceat(vals, first)
    kept = sums != 0
    return keys[first][kept], sums[kept]


def _from_keys(dim: int, keys: np.ndarray, vals: np.ndarray) -> SparseMatrix:
    """The matrix of distinct increasing keys row * dim + column and their
    nonzero counts."""
    rows = keys // dim
    return _checked(SparseMatrix(_indptr(np.bincount(rows, minlength=dim)), keys - rows * dim, vals))


def _checked(m: SparseMatrix) -> SparseMatrix:
    if m.nnz and m.data.min() < 0:
        raise KBError("sparse count matrix cannot hold negative entries")
    return m


def _saturate(data: np.ndarray) -> np.ndarray:
    if len(data) and data.max() > SATURATION_CAP:
        clipped = int((data > SATURATION_CAP).sum())
        logger.warning("saturating %d count entries at %d", clipped, SATURATION_CAP)
        np.minimum(data, SATURATION_CAP, out=data)
    return data


def _product_rows(a: SparseMatrix, b: SparseMatrix, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rows lo..hi-1 of a @ b as distinct increasing keys (row - lo) * dim +
    column and their summed counts: every path a[i, k] * b[k, j] of those
    rows is expanded, then paths with the same end points are added."""
    p0, p1 = a.indptr[lo], a.indptr[hi]
    # every path: the entry of a it leaves by, and b's column and count
    entry, column, count = b.rows(a.indices[p0:p1])
    keys = (_row_ids(a.indptr[lo : hi + 1] - p0) * a.dim)[entry]
    keys += column
    vals = np.minimum(a.data[p0:p1], _HELD)[entry]
    vals *= np.minimum(count, _HELD)
    np.minimum(vals, _HELD, out=vals)
    del entry, column, count
    return _sum_keys(keys, vals)


def sparse_mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Integer matrix product; counts compose (paths through shared middle index).

    Rows of a are taken in chunks of at most _PRODUCT_CHUNK paths (or one
    row that has more), so the temporaries are bounded by one chunk and the
    output grows in place.
    """
    if a.dim != b.dim:
        raise KBError("dimension mismatch in sparse_mul: %d vs %d" % (a.dim, b.dim))
    n = a.dim
    # paths before each row of a
    before = _indptr(np.diff(b.indptr)[a.indices])[a.indptr]
    counts = np.zeros(n, dtype=np.int64)
    indices = np.zeros(0, dtype=np.int64)
    data = np.zeros(0, dtype=np.int64)
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(before, before[lo] + _PRODUCT_CHUNK, side="right")) - 1
        hi = max(hi, lo + 1)
        keys, vals = _product_rows(a, b, lo, hi)
        rows = keys // n
        counts[lo:hi] = np.bincount(rows, minlength=hi - lo)
        at = len(data)
        # realloc in place: no second copy of the output so far
        indices.resize(at + len(keys), refcheck=False)
        data.resize(at + len(keys), refcheck=False)
        np.subtract(keys, rows * n, out=indices[at:])
        data[at:] = vals
        lo = hi
    return _checked(SparseMatrix(_indptr(counts), indices, _saturate(data)))


def sparse_transpose(a: SparseMatrix) -> SparseMatrix:
    # a stable sort by column keeps each column's rows increasing
    order = np.argsort(a.indices, kind="stable")
    counts = np.bincount(a.indices, minlength=a.dim)
    return SparseMatrix(_indptr(counts), _row_ids(a.indptr)[order], a.data[order])


def sparse_hadamard(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Elementwise product; used to intersect body support with head presence."""
    if a.dim != b.dim:
        raise KBError("dimension mismatch in sparse_hadamard: %d vs %d" % (a.dim, b.dim))
    n = a.dim
    a_keys = _row_ids(a.indptr) * n + a.indices
    b_keys = _row_ids(b.indptr) * n + b.indices
    # both key lists increase, so a's keys are looked up in b's by bisection
    at = np.minimum(np.searchsorted(b_keys, a_keys), max(b.nnz - 1, 0))
    hit = b_keys[at] == a_keys if b.nnz else np.zeros(a.nnz, dtype=bool)
    vals = np.minimum(a.data[hit], _HELD) * np.minimum(b.data[at[hit]], _HELD)
    kept = vals != 0
    return _from_keys(n, a_keys[hit][kept], _saturate(vals[kept]))


class KnowledgeBase:
    """Immutable triple store with id vocabularies and train adjacency matrices.

    Adjacency matrices are built from the train split only; relations that occur
    solely in valid/test keep an all-zero matrix so every relation id resolves.
    """

    def __init__(
        self,
        entities: Vocab,
        relations: Vocab,
        train: List[Triple],
        valid: List[Triple],
        test: List[Triple],
    ):
        self.entities = entities
        self.relations = relations
        self.train = train
        self.valid = valid
        self.test = test
        # relation -> its train triples, in train order
        self._train_by_rel: Dict[int, List[Triple]] = {r: [] for r in range(len(relations))}
        for tr in train:
            self._train_by_rel[tr.relation].append(tr)
        # entity -> incident train triples, both directions, insertion order
        self.incident: Dict[int, List[Triple]] = {}
        for tr in train:
            self.incident.setdefault(tr.head, []).append(tr)
            if tr.tail != tr.head:
                self.incident.setdefault(tr.tail, []).append(tr)
        # (head, relation) -> known true tails across all splits, for filtered ranking
        self.true_tails: Dict[Tuple[int, int], Set[int]] = {}
        for split in (train, valid, test):
            for h, r, t in split:
                self.true_tails.setdefault((h, r), set()).add(t)
        self._transposed: Dict[int, SparseMatrix] = {}

    @functools.cached_property
    def matrices(self) -> Dict[int, SparseMatrix]:
        """relation -> its train adjacency counts, built on first use: only
        the reasoning stages read them."""
        n = self.num_entities
        return {
            r: SparseMatrix.from_coords(n, [t.head for t in triples], [t.tail for t in triples])
            for r, triples in self._train_by_rel.items()
        }

    @functools.cached_property
    def fingerprint(self) -> str:
        """`kb_fingerprint` of this KB, hashed on first use only: the KB never
        changes after construction."""
        return kb_fingerprint(self)

    def transposed(self, relation: int) -> SparseMatrix:
        """Transpose of `matrices[relation]`, built on first use and kept."""
        got = self._transposed.get(relation)
        if got is None:
            got = self._transposed[relation] = sparse_transpose(self.matrices[relation])
        return got

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def entity_name(self, ident: int) -> str:
        return self.entities.name(ident)

    def relation_name(self, ident: int) -> str:
        return self.relations.name(ident)

    def triple_text(self, t: Triple) -> str:
        """The triple in names, as "(head, relation, tail)"."""
        names = self.entity_name(t.head), self.relation_name(t.relation), self.entity_name(t.tail)
        return "(%s, %s, %s)" % names

    def train_by_relation(self, relation: int) -> List[Triple]:
        return list(self._train_by_rel.get(relation, ()))

    def split(self, name: str) -> List[Triple]:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise KBError("unknown split %r" % name) from None


def _read_split(path: str, entities: Vocab, relations: Vocab) -> List[Triple]:
    triples: List[Triple] = []
    seen: Set[Triple] = set()
    dups = 0
    for lineno, raw in text_lines(path, "triple file"):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not all(parts):
            raise KBError(
                "%s:%d: expected 3 tab-separated fields, got %d" % (path, lineno, len(parts))
            )
        h, r, t = parts
        triple = Triple(entities.add(h), relations.add(r), entities.add(t))
        if triple in seen:
            dups += 1
            continue
        seen.add(triple)
        triples.append(triple)
    if dups:
        logger.warning("%s: dropped %d duplicate triples", path, dups)
    return triples


def load_kb(train_path: str, valid_path: Optional[str] = None, test_path: Optional[str] = None) -> KnowledgeBase:
    """Load train/valid/test TSV files (head<TAB>relation<TAB>tail per line).

    Ids are assigned by first appearance, train split first, so the same files
    always produce the same vocabulary. Missing valid/test paths yield empty splits.
    """
    entities = Vocab("entity")
    relations = Vocab("relation")
    train = _read_split(train_path, entities, relations)
    if not train:
        raise KBError("train split %s contains no triples" % train_path)
    valid = _read_split(valid_path, entities, relations) if valid_path else []
    test = _read_split(test_path, entities, relations) if test_path else []
    return KnowledgeBase(entities, relations, train, valid, test)


def kb_fingerprint(kb: KnowledgeBase) -> str:
    """Stable hex digest of the train structure; keys the grounding cache."""
    text = "%d|%d" % (kb.num_entities, kb.num_relations) + "".join("%d,%d,%d;" % t for t in sorted(kb.train))
    return hashlib.sha256(text.encode()).hexdigest()
