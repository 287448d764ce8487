"""Rule grounding against the train KB with sparse integer matrix algebra.

For a classified rule, C counts the variable bindings that satisfy the body for
every (head-subject, head-tail) pair: conjunction is matrix multiplication,
reversed atoms are transposed factors. A = C * M_head (elementwise) keeps the
bindings whose head triple is itself observed in train, so A <= C everywhere.
Only `score` reads A, so a grounding computes it on first read.
"""

import functools
import hashlib
import logging
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .kb import (
    KBError,
    KnowledgeBase,
    SparseMatrix,
    Triple,
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


def ground(kb: KnowledgeBase, rule: Rule, cache_dir: Optional[str] = None) -> Grounding:
    """Ground one classified, relation-mapped rule; optionally disk-cached."""
    if rule.case == UNCLASSIFIED or rule.case not in CASE_FLAGS:
        raise GroundingError("rule %r has no groundable case" % format_rule(rule))
    if not rule.mapped:
        raise GroundingError("rule %r must be relation-mapped first" % format_rule(rule))
    path = None if cache_dir is None else os.path.join(cache_dir, _cache_key(kb, rule) + ".npz")
    body_count = None if path is None else _cache_load(path, kb.num_entities)
    if body_count is None:
        body_count = _chain(_oriented_factors(kb, rule, CASE_FLAGS[rule.case]))
        if path is not None:
            _cache_store(path, body_count)
    return Grounding(rule=rule, body_count=body_count, head_matrix=kb.matrices[rule.head.relation])


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
    counts UNCLASSIFIED entries."""
    grouped: Dict[int, List[Grounding]] = {}
    skipped = 0
    for rule in rules:
        if rule.case == UNCLASSIFIED:
            skipped += 1
            continue
        g = ground(kb, rule, cache_dir=cache_dir)
        grouped.setdefault(rule.head.relation, []).append(g)
    if skipped:
        logger.info("skipped %d unclassified rules during grounding", skipped)
    return grouped


def witness_paths(
    kb: KnowledgeBase, rule: Rule, head: int, tail: int, limit: int = 3
) -> List[List[Triple]]:
    """Up to `limit` concrete body instantiations for (head, tail), as train
    triples in body-atom order. Presentation helper for explanations."""
    flags = CASE_FLAGS.get(rule.case)
    if flags is None:
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


def _cache_key(kb: KnowledgeBase, rule: Rule) -> str:
    h = hashlib.sha256()
    h.update(kb.fingerprint.encode())
    h.update(b"|")
    h.update(format_rule(rule, kb).encode())
    return h.hexdigest()


def _cache_load(path: str, n: int) -> Optional[SparseMatrix]:
    """C from a cache entry (the indptr/indices/data arrays of its canonical
    n x n CSR matrix), or None when there is no entry or it fails a check."""
    if not os.path.exists(path):
        return None
    try:
        with np.load(path) as z:
            arrays = [z[name] for name in ("indptr", "indices", "data")]
        return SparseMatrix.from_csr(n, *arrays)
    except Exception as exc:
        logger.warning("discarding invalid cache entry %s: %r", path, exc)
        return None


def _cache_store(path: str, body_count: SparseMatrix) -> None:
    cache_dir = os.path.dirname(path)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, indptr=body_count.indptr, indices=body_count.indices, data=body_count.data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
