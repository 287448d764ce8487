"""Rule grounding against the train KB with sparse integer matrix algebra.

For a classified rule, C counts the variable bindings that satisfy the body for
every (head-subject, head-tail) pair: conjunction is matrix multiplication,
reversed atoms are transposed factors. A = C * M_head (elementwise) keeps the
bindings whose head triple is itself observed in train, so A <= C everywhere.
"""

import hashlib
import logging
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .kb import (
    KBError,
    KnowledgeBase,
    SparseMatrix,
    Triple,
    kb_fingerprint,  # noqa: F401  re-exported
    sparse_hadamard,
    sparse_mul,
    sparse_transpose,
)
from .rules import CASE_FLAGS, UNCLASSIFIED, Rule, format_rule

logger = logging.getLogger(__name__)


class GroundingError(KBError):
    pass


@dataclass
class Grounding:
    rule: Rule
    body_count: SparseMatrix  # C: body-satisfying binding counts per (h, t)
    joint_count: SparseMatrix  # A: C restricted to pairs whose head is in train


def _chain(factors: List[SparseMatrix]) -> SparseMatrix:
    """Multiply left to right, but start from the sparser end of a 3-chain."""
    if len(factors) == 1:
        return factors[0]
    if len(factors) == 2:
        return sparse_mul(factors[0], factors[1])
    if factors[0].nnz <= factors[2].nnz:
        return sparse_mul(sparse_mul(factors[0], factors[1]), factors[2])
    return sparse_mul(factors[0], sparse_mul(factors[1], factors[2]))


def ground(kb: KnowledgeBase, rule: Rule, cache_dir: Optional[str] = None) -> Grounding:
    """Ground one classified, relation-mapped rule; optionally disk-cached."""
    if rule.case == UNCLASSIFIED or rule.case not in CASE_FLAGS:
        raise GroundingError("rule %r has no groundable case" % format_rule(rule))
    if not rule.mapped:
        raise GroundingError("rule %r must be relation-mapped first" % format_rule(rule))
    if cache_dir is not None:
        cached = _cache_load(cache_dir, kb, rule)
        if cached is not None:
            return cached
    flags = CASE_FLAGS[rule.case]
    factors = []
    for atom, rev in zip(rule.body, flags):
        m = kb.matrices[atom.relation]
        factors.append(sparse_transpose(m) if rev else m)
    body_count = _chain(factors)
    joint_count = sparse_hadamard(body_count, kb.matrices[rule.head.relation])
    g = Grounding(rule=rule, body_count=body_count, joint_count=joint_count)
    if cache_dir is not None:
        _cache_store(cache_dir, kb, g)
    return g


def score(g: Grounding, head: int, tail: int) -> int:
    """Signed grounding quality: +A when the pair is confirmed, -C when the
    body fires without the head triple, 0 without body support."""
    a = g.joint_count.get(head, tail)
    if a > 0:
        return a
    c = g.body_count.get(head, tail)
    return -c if c > 0 else 0


def score_row(g: Grounding, head: int) -> Dict[int, int]:
    """Sparse signed score vector over tails for one head (zeros omitted)."""
    out: Dict[int, int] = {}
    cols, vals = g.body_count.row(head)
    for t, c in zip(cols, vals):
        out[int(t)] = -int(c)
    cols, vals = g.joint_count.row(head)
    for t, a in zip(cols, vals):
        out[int(t)] = int(a)
    return out


def support_row(g: Grounding, head: int) -> Dict[int, int]:
    """Body-support counts C(head, .); the rule evidence used when ranking."""
    cols, vals = g.body_count.row(head)
    return {int(t): int(c) for t, c in zip(cols, vals)}


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
    last = len(flags)
    paths: List[List[Triple]] = []

    def extend(idx: int, binding: Dict[int, int], acc: List[Triple]) -> bool:
        if idx == len(rule.body):
            paths.append(list(acc))
            return len(paths) >= limit
        atom, rev = rule.body[idx], flags[idx]
        # atom idx connects path positions idx and idx+1; at least one of the
        # two is already bound because atoms run along the path
        s_pos, o_pos = (idx + 1, idx) if rev else (idx, idx + 1)
        m = kb.matrices[atom.relation]
        subj, obj = binding.get(s_pos), binding.get(o_pos)
        if subj is not None and obj is not None:
            if m.get(subj, obj) > 0:
                return extend(idx + 1, binding, acc + [Triple(subj, atom.relation, obj)])
            return False
        if subj is not None:
            cols, _ = m.row(subj)
            for t in cols:
                binding[o_pos] = int(t)
                if extend(idx + 1, binding, acc + [Triple(subj, atom.relation, int(t))]):
                    return True
                del binding[o_pos]
            return False
        cols, _ = sparse_transpose(m).row(obj)
        for s in cols:
            binding[s_pos] = int(s)
            if extend(idx + 1, binding, acc + [Triple(int(s), atom.relation, obj)]):
                return True
            del binding[s_pos]
        return False

    extend(0, {0: head, last: tail}, [])
    return paths


def _cache_key(kb: KnowledgeBase, rule: Rule) -> str:
    h = hashlib.sha256()
    h.update(kb.fingerprint.encode())
    h.update(b"|")
    h.update(format_rule(rule, kb).encode())
    return h.hexdigest()


def _cache_load(cache_dir: str, kb: KnowledgeBase, rule: Rule) -> Optional[Grounding]:
    path = os.path.join(cache_dir, _cache_key(kb, rule) + ".npz")
    if not os.path.exists(path):
        return None
    try:
        with np.load(path) as z:
            n = int(z["dim"])
            arrays = {k: z[k] for k in ("c_rows", "c_cols", "c_vals", "a_rows", "a_cols", "a_vals")}
        problem = _cache_entry_problem(n, kb.num_entities, arrays)
        if problem is None:
            c = SparseMatrix.from_coords(n, arrays["c_rows"], arrays["c_cols"], arrays["c_vals"])
            a = SparseMatrix.from_coords(n, arrays["a_rows"], arrays["a_cols"], arrays["a_vals"])
            return Grounding(rule=rule, body_count=c, joint_count=a)
    except Exception as exc:
        logger.warning("discarding unreadable cache entry %s: %s", path, exc)
        return None
    logger.warning("discarding invalid cache entry %s: %s", path, problem)
    return None


def _cache_entry_problem(dim: int, num_entities: int, arrays: Dict[str, np.ndarray]) -> Optional[str]:
    """Why a stored grounding cannot belong to this KB, or None if it can."""
    if dim != num_entities:
        return "dimension %d, KB has %d entities" % (dim, num_entities)
    for key in ("c_rows", "c_cols", "a_rows", "a_cols"):
        idx = arrays[key]
        if idx.size and (idx.min() < 0 or idx.max() >= dim):
            return "%s index out of range [0, %d)" % (key, dim)
    return None


def _cache_store(cache_dir: str, kb: KnowledgeBase, g: Grounding) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, _cache_key(kb, g.rule) + ".npz")
    c_rows, c_cols, c_vals = g.body_count.coords()
    a_rows, a_cols, a_vals = g.joint_count.coords()
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                dim=g.body_count.dim,
                c_rows=c_rows,
                c_cols=c_cols,
                c_vals=c_vals,
                a_rows=a_rows,
                a_cols=a_cols,
                a_vals=a_vals,
            )
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
