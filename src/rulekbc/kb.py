"""Triple store: TSV loading, id vocabularies, per-relation adjacency matrices."""

import functools
import hashlib
import logging
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)

# Counts saturate here instead of wrapping; large enough for any desk-scale KB.
SATURATION_CAP = 2**31 - 1


class KBError(Exception):
    """Raised for malformed input files or inconsistent KB state."""


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

    def __init__(self, csr: sp.csr_matrix):
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
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if vals is None:
            vals = np.ones(len(rows), dtype=np.int64)
        m = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=np.int64)
        return cls(m)

    @classmethod
    def zeros(cls, dim: int) -> "SparseMatrix":
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

    def coords(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        coo = self._m.tocoo()
        return coo.row, coo.col, coo.data

    def to_dense(self) -> np.ndarray:
        return np.asarray(self._m.todense(), dtype=np.int64)

    def equals(self, other: "SparseMatrix") -> bool:
        return self.dim == other.dim and (self._m != other._m).nnz == 0


def _saturate(m: sp.csr_matrix) -> sp.csr_matrix:
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
        self.matrices: Dict[int, SparseMatrix] = {}
        n = len(entities)
        # relation -> its train triples, in train order
        self._train_by_rel: Dict[int, List[Triple]] = {r: [] for r in range(len(relations))}
        for tr in train:
            self._train_by_rel[tr.relation].append(tr)
        for r, triples in self._train_by_rel.items():
            self.matrices[r] = SparseMatrix.from_coords(
                n, [t.head for t in triples], [t.tail for t in triples]
            )
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
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise KBError("cannot open triple file %s: %s" % (path, exc)) from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(parts):
                raise KBError(
                    "%s:%d: expected 3 tab-separated fields, got %d"
                    % (path, lineno, len(parts))
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
