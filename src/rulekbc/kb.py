"""Triple store: TSV loading, id vocabularies, per-relation adjacency matrices.

scipy is imported only where a CSR matrix is built, so the stages that never
touch the adjacency matrices (`extract`, `propose`) do not load it.
"""

import functools
import hashlib
import logging
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

logger = logging.getLogger(__name__)

# Counts saturate here instead of wrapping; large enough for any desk-scale KB.
SATURATION_CAP = 2**31 - 1


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


class SparseMatrix:
    """Square nonnegative integer count matrix, no stored zeros.

    Thin wrapper over CSR storage; every operation returns a new matrix and
    saturates entries at SATURATION_CAP instead of overflowing.
    """

    def __init__(self, csr: "sp.csr_matrix"):
        if csr.shape[0] != csr.shape[1]:
            raise KBError("sparse matrix must be square, got %r" % (csr.shape,))
        csr = csr.astype(np.int64)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        if csr.nnz and csr.data.min() < 0:
            raise KBError("sparse count matrix cannot hold negative entries")
        self._m = csr

    @classmethod
    def from_coords(cls, dim: int, rows, cols, vals=None) -> "SparseMatrix":
        import scipy.sparse as sp

        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if vals is None:
            vals = np.ones(len(rows), dtype=np.int64)
        m = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=np.int64)
        return cls(m)

    @classmethod
    def zeros(cls, dim: int) -> "SparseMatrix":
        import scipy.sparse as sp

        return cls(sp.csr_matrix((dim, dim), dtype=np.int64))

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @property
    def nnz(self) -> int:
        return self._m.nnz

    def get(self, i: int, j: int) -> int:
        return int(self._m[i, j])

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row i (only stored entries)."""
        lo, hi = self._m.indptr[i], self._m.indptr[i + 1]
        return self._m.indices[lo:hi], self._m.data[lo:hi]

    def rows(self, heads) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored entries of rows `heads` (repeats allowed) as (position in
        heads, column, value) arrays, row after row, read straight from the
        CSR arrays."""
        heads = np.asarray(heads, dtype=np.int64)
        starts = self._m.indptr[heads]
        lens = self._m.indptr[heads + 1] - starts
        row = np.arange(len(heads)).repeat(lens)
        # output entry j, the k-th of row i, is stored at starts[i] + k
        pos = np.arange(len(row)) + (starts - lens.cumsum() + lens)[row]
        return row, self._m.indices[pos], self._m.data[pos]

    @property
    def csr(self) -> "sp.csr_matrix":
        """The canonical CSR storage; read only, shared with this matrix."""
        return self._m

    def to_dense(self) -> np.ndarray:
        return np.asarray(self._m.todense(), dtype=np.int64)

    def equals(self, other: "SparseMatrix") -> bool:
        return self.dim == other.dim and (self._m != other._m).nnz == 0


def _saturate(m: "sp.csr_matrix") -> "sp.csr_matrix":
    if m.nnz and m.data.max() > SATURATION_CAP:
        clipped = int((m.data > SATURATION_CAP).sum())
        logger.warning("saturating %d count entries at %d", clipped, SATURATION_CAP)
        m.data = np.minimum(m.data, SATURATION_CAP)
    return m


def sparse_mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Integer matrix product; counts compose (paths through shared middle index)."""
    if a.dim != b.dim:
        raise KBError("dimension mismatch in sparse_mul: %d vs %d" % (a.dim, b.dim))
    return SparseMatrix(_saturate((a._m @ b._m).tocsr()))


def sparse_transpose(a: SparseMatrix) -> SparseMatrix:
    return SparseMatrix(a._m.transpose().tocsr())


def sparse_hadamard(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Elementwise product; used to intersect body support with head presence."""
    if a.dim != b.dim:
        raise KBError("dimension mismatch in sparse_hadamard: %d vs %d" % (a.dim, b.dim))
    return SparseMatrix(_saturate(a._m.multiply(b._m).tocsr()))


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
        self._train_set = set(train)
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

    def in_train(self, triple: Triple) -> bool:
        return triple in self._train_set

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
    h = hashlib.sha256()
    h.update(("%d|%d" % (kb.num_entities, kb.num_relations)).encode())
    for t in sorted(kb.train):
        h.update(("%d,%d,%d;" % t).encode())
    return h.hexdigest()
