"""Triple store: TSV loading, id vocabularies, per-relation adjacency matrices.

Each split is held as an (n, 3) int64 array of (head, relation, tail) ids;
the Triple lists, the per-entity index, the adjacency matrices and the known
tails are built from those arrays on first use, so a stage pays only for
what it reads.

The adjacency and grounding counts are integer CSR matrices kept as plain
numpy arrays; the products that ground a rule are computed here, so no stage
loads scipy.
"""

import functools
import hashlib
import io
import itertools
import json
import logging
import os
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

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


def read_text(path: str, what: str) -> str:
    """The whole UTF-8 text file `path`, with universal newlines. KBError
    names the file, as `what`, when it cannot be opened, and the file and
    line where it is not UTF-8."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise KBError("cannot open %s %s: %s" % (what, path, exc)) from exc
    with fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from exc


def write_json(path: str, payload) -> None:
    """Write `payload` as indented JSON with sorted keys, making the
    directory first. A value that JSON cannot hold (NaN, Infinity) raises
    ValueError before the file is opened, so no partial file is left."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def text_lines(path: str, what: str) -> Iterator[Tuple[int, str]]:
    """(line number, line) of `read_text(path, what)`, each line with its
    newline, as iterating over the open file gives them."""
    return enumerate(io.StringIO(read_text(path, what)), start=1)


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

    def ids(self, names: List[str]) -> np.ndarray:
        """The ids of `names`, each new name added in order of first appearance."""
        for name in dict.fromkeys(names):
            self.add(name)
        return np.fromiter(map(self.index.__getitem__, names), np.int64, len(names))

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
        row, pos = _spans(starts, self.indptr[heads + 1] - starts)
        return row, self.indices[pos], self.data[pos]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim), dtype=np.int64)
        dense[_row_ids(self.indptr), self.indices] = self.data
        return dense


def _spans(starts: np.ndarray, lens: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(i, position) of every position in the spans starts[i] ..
    starts[i] + lens[i] - 1, span after span."""
    span = np.arange(len(starts)).repeat(lens)
    # entry j, the k-th of span i, is at starts[i] + k
    return span, np.arange(len(span)) + (starts - lens.cumsum() + lens)[span]


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry."""
    return np.arange(len(indptr) - 1).repeat(np.diff(indptr))


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
    """Immutable triple store: id vocabularies, and each split as an (n, 3)
    int64 array of (head, relation, tail) rows (`arrays`, read only).

    Everything derived from the splits is built on first use: the Triple
    lists `train`, `valid` and `test`, the per-entity `incident` index that
    subgraph sampling reads, the train adjacency `matrices` and the known
    tails of the filtered protocol. Adjacency matrices come from the
    train split only; relations that occur solely in valid/test keep an
    all-zero matrix so every relation id resolves.
    """

    def __init__(self, entities: Vocab, relations: Vocab, train, valid, test):
        """Each split is an (n, 3) integer array or a sequence of Triples."""
        self.entities = entities
        self.relations = relations
        self.arrays: Dict[str, np.ndarray] = {}
        for name, rows in (("train", train), ("valid", valid), ("test", test)):
            rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
            if len(rows) and (
                rows.min() < 0 or rows[:, [0, 2]].max() >= len(entities) or rows[:, 1].max() >= len(relations)
            ):
                raise KBError("%s split holds ids outside the vocabularies" % name)
            rows.flags.writeable = False
            self.arrays[name] = rows
        self._lists: Dict[str, List[Triple]] = {}
        self._transposed: Dict[int, SparseMatrix] = {}

    train = property(lambda self: self.split("train"), doc="The train split as Triples, in file order.")
    valid = property(lambda self: self.split("valid"), doc="The valid split as Triples, in file order.")
    test = property(lambda self: self.split("test"), doc="The test split as Triples, in file order.")

    def split(self, name: str) -> List[Triple]:
        """A split as a list of Triples, built on first use and kept."""
        got = self._lists.get(name)
        if got is None:
            if name not in self.arrays:
                raise KBError("unknown split %r" % name)
            got = self._lists[name] = list(map(Triple._make, self.arrays[name].tolist()))
        return got

    @functools.cached_property
    def incident(self) -> Dict[int, List[Triple]]:
        """entity -> its incident train triples, both directions, in train order."""
        incident: Dict[int, List[Triple]] = {}
        for tr in self.train:
            incident.setdefault(tr.head, []).append(tr)
            if tr.tail != tr.head:
                incident.setdefault(tr.tail, []).append(tr)
        return incident

    @functools.cached_property
    def matrices(self) -> Dict[int, SparseMatrix]:
        """relation -> its train adjacency counts, all built from one sort of
        the train rows; a triple listed k times counts k, as `from_coords`
        sums it."""
        n = self.num_entities
        h, r, t = self.arrays["train"].T
        keys, counts = np.unique(_keys(r, h, t, n, n), return_counts=True)
        rows = keys // n  # relation * n + head
        indptr = _indptr(np.bincount(rows, minlength=self.num_relations * n))
        cols, data = keys - rows * n, _saturate(counts.astype(np.int64))
        matrices = {}
        for rel in range(self.num_relations):
            lo, hi = indptr[rel * n], indptr[(rel + 1) * n]
            matrices[rel] = SparseMatrix(indptr[rel * n : (rel + 1) * n + 1] - lo, cols[lo:hi], data[lo:hi])
        return matrices

    @functools.cached_property
    def _known(self) -> np.ndarray:
        """Every distinct triple of the three splits as its sorted key
        (head * relations + relation) * entities + tail: a CSR of the known
        tails keyed by head * relations + relation, whose row offsets are
        found by bisection."""
        rows = np.concatenate(list(self.arrays.values()))
        return np.unique(_keys(rows[:, 0], rows[:, 1], rows[:, 2], self.num_relations, self.num_entities))

    def known_tails(self, relation: int, heads) -> Tuple[np.ndarray, np.ndarray]:
        """Every tail known true for (heads[i], relation) in any split, as
        (query i, tail) index arrays: i increasing, each query's tails
        increasing."""
        n = self.num_entities
        base = (np.asarray(heads, dtype=np.int64) * self.num_relations + relation) * n
        lo = np.searchsorted(self._known, base)
        query, pos = _spans(lo, np.searchsorted(self._known, base + n) - lo)
        return query, self._known[pos] - base[query]

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
        """The relation's train triples, in train order, as a new list."""
        train = self.train
        return [train[i] for i in np.flatnonzero(self.arrays["train"][:, 1] == relation).tolist()]


def _keys(x: np.ndarray, y: np.ndarray, z: np.ndarray, ny: int, nz: int) -> np.ndarray:
    """One int64 key per row, (x * ny + y) * nz + z, which orders the rows as
    the tuples (x, y, z) do for y < ny and z < nz. KBError where a key could
    overflow."""
    if len(x) and (int(x.max()) + 1) * ny * nz > np.iinfo(np.int64).max:
        raise KBError("%d x %d x %d triple keys overflow int64" % (int(x.max()) + 1, ny, nz))
    return (x * ny + y) * nz + z


def _read_split(path: str, entities: Vocab, relations: Vocab) -> np.ndarray:
    """The distinct triples of a TSV file as (n, 3) rows in file order, the
    first of each repeated line kept. Blank lines are skipped; any other
    line must hold 3 nonempty tab-separated fields."""
    lines = read_text(path, "triple file").split("\n")
    rows = list(filter(None, lines))
    if not rows:
        return np.zeros((0, 3), dtype=np.int64)
    fields = "\t".join(rows).split("\t")
    if set(map(str.count, rows, itertools.repeat("\t"))) != {2} or "" in fields:
        for lineno, line in enumerate(lines, start=1):
            parts = line.split("\t")
            if line and (len(parts) != 3 or not all(parts)):
                raise KBError("%s:%d: expected 3 tab-separated fields, got %d" % (path, lineno, len(parts)))
    ends = list(fields)
    del ends[1::3]  # head, tail of each line, so entities are numbered in that order
    triples = np.empty((len(rows), 3), dtype=np.int64)
    triples[:, 0::2] = entities.ids(ends).reshape(-1, 2)
    triples[:, 1] = relations.ids(fields[1::3])
    _, first = np.unique(_keys(*triples.T, len(relations), len(entities)), return_index=True)
    if len(first) < len(triples):
        logger.warning("%s: dropped %d duplicate triples", path, len(triples) - len(first))
        triples = triples[np.sort(first)]
    return triples


def load_kb(train_path: str, valid_path: Optional[str] = None, test_path: Optional[str] = None) -> KnowledgeBase:
    """Load train/valid/test TSV files (head<TAB>relation<TAB>tail per line).

    Ids are assigned by first appearance, train split first, so the same files
    always produce the same vocabulary. Missing valid/test paths yield empty splits.
    """
    entities = Vocab("entity")
    relations = Vocab("relation")
    train = _read_split(train_path, entities, relations)
    if not len(train):
        raise KBError("train split %s contains no triples" % train_path)
    valid = _read_split(valid_path, entities, relations) if valid_path else []
    test = _read_split(test_path, entities, relations) if test_path else []
    return KnowledgeBase(entities, relations, train, valid, test)


def kb_fingerprint(kb: KnowledgeBase) -> str:
    """Stable hex digest of the train structure; keys the grounding cache.
    It hashes the entity and relation counts, then every train row in
    increasing (head, relation, tail) order, each number as little-endian
    int64 bytes."""
    train = kb.arrays["train"]
    rows = train[np.argsort(_keys(*train.T, kb.num_relations, kb.num_entities))]
    h = hashlib.sha256(np.array([kb.num_entities, kb.num_relations], dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(rows, dtype="<i8").tobytes())
    return h.hexdigest()
