"""Rule grounding against the train KB with sparse integer matrix algebra.

For a classified rule, C counts the variable bindings that satisfy the body for
every (head-subject, head-tail) pair: conjunction is matrix multiplication,
reversed atoms are transposed factors. A = C * M_head (elementwise) keeps the
bindings whose head triple is itself observed in train, so A <= C everywhere.
Only `score` reads A, so a grounding computes it on first read.
"""

import contextlib
import functools
import hashlib
import logging
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .kb import (
    SATURATION_CAP,
    KBError,
    KnowledgeBase,
    SparseMatrix,
    Triple,
    _indptr,
    _row_ids,
    kb_fingerprint,  # noqa: F401  re-exported
    sparse_hadamard,
    sparse_mul,
)
from .rules import CASE_FLAGS, UNCLASSIFIED, Rule, format_rule

logger = logging.getLogger(__name__)


class GroundingError(KBError):
    pass


@dataclass
class Grounding:
    rule: Rule
    body_count: SparseMatrix  # C: body-satisfying binding counts per (h, t)
    head_matrix: SparseMatrix  # M: the head relation's train counts, shared

    @functools.cached_property
    def joint_count(self) -> SparseMatrix:
        """A = C * M: C restricted to pairs whose head is in train."""
        return sparse_hadamard(self.body_count, self.head_matrix)


def _chain(factors: List[SparseMatrix]) -> SparseMatrix:
    """Multiply left to right, but start from the sparser end of a 3-chain."""
    if len(factors) == 1:
        return factors[0]
    if len(factors) == 2:
        return sparse_mul(factors[0], factors[1])
    if factors[0].nnz <= factors[2].nnz:
        return sparse_mul(sparse_mul(factors[0], factors[1]), factors[2])
    return sparse_mul(factors[0], sparse_mul(factors[1], factors[2]))


def _oriented_factors(kb: KnowledgeBase, rule: Rule, flags: Tuple[bool, ...]) -> List[SparseMatrix]:
    """Body matrices along the head path: row i of factor k lists the path
    nodes one step on from node i. Reversed atoms are transposed."""
    return [
        kb.transposed(a.relation) if rev else kb.matrices[a.relation]
        for a, rev in zip(rule.body, flags)
    ]


def _check_groundable(rule: Rule) -> None:
    if rule.case == UNCLASSIFIED or rule.case not in CASE_FLAGS:
        raise GroundingError("rule %r has no groundable case" % format_rule(rule))
    if not rule.mapped:
        raise GroundingError("rule %r must be relation-mapped first" % format_rule(rule))


def ground(kb: KnowledgeBase, rule: Rule) -> Grounding:
    """Ground one classified, relation-mapped rule."""
    _check_groundable(rule)
    body_count = _chain(_oriented_factors(kb, rule, CASE_FLAGS[rule.case]))
    return Grounding(rule, body_count, kb.matrices[rule.head.relation])


def score(g: Grounding, head: int, tail: int) -> int:
    """Signed grounding quality: +A when the pair is confirmed, -C when the
    body fires without the head triple, 0 without body support."""
    a = g.joint_count.get(head, tail)
    if a > 0:
        return a
    c = g.body_count.get(head, tail)
    return -c if c > 0 else 0


def support_row(g: Grounding, heads) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Body-support counts C(h, .) of every h of `heads` as (position in
    heads, tails, counts), stored entries only, row after row."""
    return g.body_count.rows(heads)


def ground_all(
    kb: KnowledgeBase, rules: List[Rule], cache_dir: Optional[str] = None
) -> Dict[int, List[Grounding]]:
    """Ground every classifiable rule, grouped by head relation; skips and
    counts UNCLASSIFIED entries. The rule set is one entry of `cache_dir`."""
    groundable = [rule for rule in rules if rule.case != UNCLASSIFIED]
    if len(groundable) < len(rules):
        logger.info("skipped %d unclassified rules during grounding", len(rules) - len(groundable))
    for rule in groundable:
        _check_groundable(rule)
    path = None if cache_dir is None else os.path.join(cache_dir, _cache_key(kb, groundable) + ".npy")
    counts = None if path is None else _cache_load(path, groundable, kb.num_entities)
    if counts is None:
        counts = [ground(kb, rule).body_count for rule in groundable]
        if path is not None:
            _cache_store(path, counts, kb.num_entities)
    grouped: Dict[int, List[Grounding]] = {}
    for rule, c in zip(groundable, counts):
        grouped.setdefault(rule.head.relation, []).append(Grounding(rule, c, kb.matrices[rule.head.relation]))
    return grouped


def witness_paths(
    kb: KnowledgeBase, rule: Rule, head: int, tail: int, limit: int = 3
) -> List[List[Triple]]:
    """Up to `limit` (>= 0) concrete body instantiations for (head, tail), as
    train triples in body-atom order. Presentation helper for explanations."""
    if limit < 0:
        raise ValueError("limit must be >= 0, got %d" % limit)
    flags = CASE_FLAGS.get(rule.case)
    if flags is None or limit == 0:
        return []
    factors = _oriented_factors(kb, rule, flags)
    last = len(factors) - 1
    paths: List[List[Triple]] = []

    def extend(idx: int, node: int, acc: List[Triple]) -> bool:
        # path node idx is bound to `node`; atom idx steps to node idx + 1
        cols, _ = factors[idx].row(node)
        if idx == last:
            cols = cols[cols == tail]
        rel = rule.body[idx].relation
        for nxt in cols.tolist():
            step = acc + [Triple(nxt, rel, node) if flags[idx] else Triple(node, rel, nxt)]
            if idx == last:
                paths.append(step)
                if len(paths) >= limit:
                    return True
            elif extend(idx + 1, nxt, step):
                return True
        return False

    extend(0, head, [])
    return paths


def _cache_key(kb: KnowledgeBase, rules: List[Rule]) -> str:
    """SHA-256 of the KB fingerprint, then "|case [relation ids]" of each
    rule: all that C depends on."""
    h = hashlib.sha256(kb.fingerprint.encode())
    for rule in rules:
        h.update(("|%s %s" % (rule.case, [a.relation for a in rule.body + (rule.head,)])).encode())
    return h.hexdigest()


def _entry_counts(entry: np.ndarray, rows: int, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, column, count) arrays of a cache entry, a (3, nnz) int64
    array of the stored counts of a `rows` x n matrix, after checking that
    it is one: keys row * n + column strictly increasing, rows in
    [0, rows), columns in [0, n) and counts in [1, SATURATION_CAP]. KBError
    names the first check that fails."""
    if entry.ndim != 2 or len(entry) != 3 or entry.dtype != np.int64:
        raise KBError("cache entry is not a (3, nnz) int64 array")
    row, col, count = entry
    if len(row) and (row.min() < 0 or row.max() >= rows):
        raise KBError("cache entry row outside the %d rows" % rows)
    if len(col) and (col.min() < 0 or col.max() >= n):
        raise KBError("cache entry column outside the %d x %d square matrix" % (n, n))
    if len(count) and (count.min() < 1 or count.max() > SATURATION_CAP):
        raise KBError("cache entry count outside [1, %d]" % SATURATION_CAP)
    keys = row * n + col
    if np.any(keys[1:] <= keys[:-1]):
        raise KBError("cache entry keys do not strictly increase")
    return row, col, count


def _cache_load(path: str, rules: List[Rule], n: int) -> Optional[List[SparseMatrix]]:
    """C of each rule, as views of a cache entry (the stored counts of every
    n x n C stacked into one len(rules) * n x n matrix, whose row k * n + h
    is row h of rule k's C), or None when there is no entry or it fails a
    check."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh:
            entry = np.lib.format.read_array(fh, allow_pickle=False)
        row, col, count = _entry_counts(entry, len(rules) * n, n)
    except Exception as exc:
        logger.warning("discarding invalid cache entry %s: %r", path, exc)
        return None
    indptr = _indptr(np.bincount(row, minlength=len(rules) * n))
    ends = indptr[::n]  # the first entry of each rule, then the entry count
    return [
        SparseMatrix(indptr[k * n : (k + 1) * n + 1] - lo, col[lo:hi], count[lo:hi])
        for k, (lo, hi) in enumerate(zip(ends[:-1], ends[1:]))
    ]


def _cache_store(path: str, body_counts: List[SparseMatrix], n: int) -> None:
    """Write the stacked entry, then remove every other entry of its
    directory: those of other rule sets and the `.npz` ones of old versions."""
    cache_dir = os.path.dirname(path)
    os.makedirs(cache_dir, exist_ok=True)
    entry = np.zeros((3, sum(c.nnz for c in body_counts)), dtype=np.int64)
    at = 0
    for k, c in enumerate(body_counts):
        entry[:, at : at + c.nnz] = _row_ids(c.indptr) + k * n, c.indices, c.data
        at += c.nnz
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, entry)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    for name in os.listdir(cache_dir):
        if name.endswith((".npy", ".npz")) and name != os.path.basename(path):
            with contextlib.suppress(FileNotFoundError):  # another process pruned it first
                os.unlink(os.path.join(cache_dir, name))
