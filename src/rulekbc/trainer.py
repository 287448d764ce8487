"""Joint significance weighting of grounded rules and the embedding scorer.

Each relation owns an independent parameter block: one logit per grounded rule
plus one for the embedding channel (softmaxed together into weights) and a
mixing logit whose sigmoid balances rule evidence against the embedding. Per
query, rules whose score row is entirely zero are dropped from the softmax, so
the remaining weights renormalize and an all-zero rule contributes exactly as
if it were absent.

Training minimizes per-query softmax cross-entropy over all entities of the
combined score, one full-batch AdamW step per epoch, with step-decay learning
rate and early stopping on validation MRR (on -loss for a relation without
validation queries). Without embeddings, a relation whose stopping metric
reads a block with no evidence cell stops after epoch 1: every score is 0
whatever the weights, so the metric repeats and epoch 1's parameters are the
ones kept. Each epoch runs with numpy overflow and invalid operations raised,
and a diverged one is a `TrainingDiverged` error.

`_evidence` builds the rule rows as body-support counts C. Training signs
them with the head relation's train matrix M (`_RelationData`): +C * M = +A
where the head triple is in train, -C wherever the body fires without it
(`grounding.score`).

Validation, evaluation and `rank` share one filtered rank, `_gold_ranks`: it
counts the scores above and tied with the gold over the whole row, less those
at the query's other known tails (`_filtered`); no candidate mask is built.

Rule evidence is kept sparse, as the nonzeros of each (heads, rules,
entities) block, and one kernel (`_score_chunks`) forms its scores Z, a chunk
of head rows at a time in one (chunk, entities) buffer per block, for the
training loss, validation, evaluation, `rank` and `combined_score` alike.
The training loss and its gradients need the scores only at the evidence and
gold cells plus a few statistics per head row, so without embeddings (every
row of F is zeros) training memory is O(nonzeros + heads x rules) and no Z
is formed; with them the buffer and F itself are what a relation holds.
"""

import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .grounding import Grounding, support_row
from .kb import KBError, KnowledgeBase, _changes, read_text, write_json
from .rotate import AdamW, RotateModel, check_finite, score_tails, training_epoch
from .rules import format_rule
from .settings import TrainerConfig

# floats of every score buffer (`_score_chunks`): it holds the scores of as
# many head rows as fit (at least one), 2 MiB
_SCORE_CHUNK = 1 << 18


@dataclass
class RelationParams:
    logits: np.ndarray  # (num_rules + 1,), last entry is the embedding slot
    mix_logit: float = 0.0
    rule_keys: List[str] = field(default_factory=list)
    epochs_trained: int = 0
    stopped: bool = False


# the parameter block of every KB relation, by relation id
ReasonerParams = Dict[int, RelationParams]


@dataclass
class RankEntry:
    tail: int
    score: float
    contributions: List[Tuple[str, float]] = field(default_factory=list)


@dataclass
class RankingResult:
    head: int
    relation: int
    entries: List[RankEntry]
    gold: Optional[int] = None
    gold_rank: Optional[float] = None
    candidate_count: int = 0


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax; outputs are positive and sum to 1 along the axis."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid(x: float) -> float:
    return float(1.0 / (1.0 + np.exp(-x))) if x >= 0 else float(np.exp(x) / (1.0 + np.exp(x)))


def masked_weights(logits: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Per-row softmax over the active rule logits plus the embedding logit.

    active: (..., n) boolean over rules. Inactive positions get exactly zero
    weight; the embedding slot is always active. Output shape (..., n + 1).
    The normaliser is a running sum in rule order, so the zeros of inactive
    rules leave every other weight bit-identical (a pairwise `.sum` would
    group the terms differently once a zero is inserted).
    """
    n = active.shape[-1]
    full = np.broadcast_to(logits, active.shape[:-1] + (n + 1,)).copy()
    full[..., :n][~active] = -np.inf
    e = np.exp(full - full.max(axis=-1, keepdims=True))
    return e / np.cumsum(e, axis=-1)[..., -1:]


def normalize_embedding_row(rows: np.ndarray) -> np.ndarray:
    """Min-max each row (last axis) to [0, 1] in place and return it; a flat
    row collapses to zeros."""
    lo = rows.min(axis=-1, keepdims=True)
    span = rows.max(axis=-1, keepdims=True) - lo
    span[span <= 0] = 1.0  # a flat row minus its minimum is already zeros
    rows -= lo
    rows /= span
    return rows


class _Block:
    """Rule evidence and embedding rows of one relation for a list of heads.

    The evidence is kept as the nonzeros of the (heads, rules, entities)
    tensor: `head`, `rule`, `value`, sorted by the cell `key` = head *
    entities + tail and by rule within a cell. `starts` indexes the first
    nonzero of each cell, `cells` holds that cell's key and `cell_row` its
    head, `cell_of` is the cell of each nonzero, `row_starts` indexes the
    first cell of each head that has one and `off_cells` counts each head's
    entities that are no cell. F holds the normalized embedding rows, or is
    None without an embedding model, where every row is zeros. Z is the
    buffer of one chunk of scores that `_score_chunks` overwrites, allocated
    on first use and grown only when a larger chunk is asked for, so an epoch
    allocates nothing of its size.
    """

    def __init__(
        self, head, rule, tail, value, n_rules: int, shape: Tuple[int, int], F=None
    ):
        H, E = self.shape = shape
        key = np.asarray(head, dtype=np.int64) * E + tail
        order = np.argsort(key, kind="stable")  # stable: rule order within a cell
        self.key = key[order]
        self.head = np.asarray(head, dtype=np.int64)[order]
        self.rule = np.asarray(rule, dtype=np.int64)[order]
        self.value = np.asarray(value, dtype=float)[order]
        self.widx = self.head * (n_rules + 1) + self.rule  # flat index into W
        new_cell = _changes(self.key)
        self.starts = np.flatnonzero(new_cell)
        self.cells = self.key[self.starts]
        self.cell_of = np.cumsum(new_cell) - 1
        self.cell_row = self.cells // E
        self.row_starts = np.flatnonzero(_changes(self.cell_row))
        self.off_cells = E - np.bincount(self.cell_row, minlength=H)
        self.active = np.zeros((H, n_rules), dtype=bool)
        self.active[self.head, self.rule] = True
        self.F = F
        self.Z: Optional[np.ndarray] = None


def _evidence(
    kb: KnowledgeBase,
    relation: int,
    groundings: List[Grounding],
    rotate_model: Optional[RotateModel],
    heads: Sequence[int],
) -> _Block:
    """The block of `heads` (repeats allowed) of one relation: the body
    counts C(h, .) of every rule, gathered for all heads at once from the
    CSR arrays, and the normalized embedding rows F (None without a model),
    one `score_tails` row per distinct head. A head's evidence and row are
    the same whatever heads come with it, so distinct sorted heads (every
    train block's) are scored in place and need no second copy of F."""
    heads = np.asarray(heads, dtype=np.int64)
    rows = [support_row(g, heads) for g in groundings]
    head, tail, value = (
        np.concatenate([np.zeros(0, np.int64)] + [r[k] for r in rows]) for k in range(3)
    )
    rule = np.repeat(np.arange(len(rows)), [len(r[0]) for r in rows])
    F = None
    if rotate_model is not None and np.all(heads[1:] > heads[:-1]):
        F = normalize_embedding_row(score_tails(rotate_model, heads, relation))
    elif rotate_model is not None:
        distinct, inverse = np.unique(heads, return_inverse=True)
        F = normalize_embedding_row(score_tails(rotate_model, distinct, relation))[inverse]
    return _Block(head, rule, tail, value, len(groundings), (len(heads), kb.num_entities), F)


def _weights(block: _Block, logits: np.ndarray, mix_logit: float):
    """The weights W (heads, rules + 1; embedding last), alpha, and the rule
    part of each cell: its nonzeros' sum of value * weight."""
    W = masked_weights(logits, block.active)
    alpha = sigmoid(mix_logit)
    rule_part = np.add.reduceat(block.value * W.reshape(-1)[block.widx], block.starts)
    return W, alpha, rule_part


def _score_chunks(block: _Block, W: np.ndarray, alpha: float, rule_part: np.ndarray):
    """The combined scores of the block's heads, a chunk of about _SCORE_CHUNK
    floats of head rows (at least one) at a time: yields (lo, hi, Z, cells),
    Z the scores of heads lo .. hi - 1 in block.Z, which the next chunk (and
    so any consumer) may overwrite, and `cells` the slice of the block's
    cells in those rows."""
    H, E = block.shape
    step = max(1, min(H, _SCORE_CHUNK // E))
    if block.Z is None or len(block.Z) < step:
        block.Z = np.empty((step, E))
    part = alpha * rule_part
    for lo in range(0, H, step):
        hi = min(lo + step, H)
        Z = block.Z[: hi - lo]
        if block.F is None:
            Z.fill(0.0)
        else:
            np.multiply(block.F[lo:hi], W[lo:hi, -1:], out=Z)
            Z *= 1.0 - alpha
        cells = slice(*np.searchsorted(block.cell_row, [lo, hi]))
        Z.reshape(-1)[block.cells[cells] - lo * E] += part[cells]
        yield lo, hi, Z, cells


def _filtered(
    kb: KnowledgeBase, relation: int, heads: Sequence[int], golds: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """What the filtered protocol removes: for each query i, the tails other
    than golds[i] known true for (heads[i], relation) in any split, as
    (query, tail) index arrays in increasing query order."""
    query, tail = kb.known_tails(relation, heads)
    keep = tail != np.asarray(golds, dtype=np.int64)[query]
    return query[keep], tail[keep]


def combined_score(
    params: RelationParams, rule_rows: Sequence, emb_row: np.ndarray
) -> np.ndarray:
    """Blend rule score rows with the normalized embedding row for one query.

    rule_rows holds one dense row per rule, aligned with params.logits[:-1]
    (a 2-D array or a sequence of 1-D rows). It is scored as a block of one
    head by the training kernel. Rules with an all-zero row get zero weight
    and no term in any sum, so deleting such a rule cannot change the result
    even in the last bit.
    """
    emb_row = np.asarray(emb_row, dtype=float)
    rows = np.asarray(rule_rows, dtype=float).reshape(-1, emb_row.shape[0])
    rule, tail = np.nonzero(rows)
    F = emb_row[None]
    block = _Block(np.zeros_like(rule), rule, tail, rows[rule, tail], len(rows), F.shape, F)
    [(_, _, Z, _)] = _score_chunks(block, *_weights(block, params.logits, params.mix_logit))
    return Z[0]


def _golds(block: _Block, cells: np.ndarray, counts: np.ndarray):
    """The `golds` of `relation_loss_and_grads` for `block`: the sorted flat
    indices head * entities + tail of its gold cells, how many queries each
    stands for, and each one's position in block.cells (-1 where the gold
    has no evidence)."""
    at = np.searchsorted(block.cells, cells)
    hit = at < block.cells.size
    hit[hit] = block.cells[at[hit]] == cells[hit]
    return cells, counts, np.where(hit, at, -1)


def relation_loss_and_grads(
    logits: np.ndarray,
    mix_logit: float,
    block: _Block,
    golds: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[float, np.ndarray, float]:
    """Mean cross-entropy over one relation's train queries and its gradients.

    golds: (cells, counts, positions) from `_golds`. Returns (loss,
    d logits, d mix_logit). The rule gradient reads dZ = (counts * softmax(Z)
    - Y) / total only at the evidence cells, and the embedding gradient
    sum(dZ * F) per head needs only the row sums of exp(Z - max) and of
    exp(Z - max) * F, so no dense dZ is formed. Without embedding rows Z is
    0 off the cells and no (heads, entities) array at all: a row's max and
    normaliser come from its cells and its count of other entries. With
    them Z comes from `_score_chunks`, a chunk of head rows at a time, and
    the gold cells of each chunk are found by bisection; each row's
    statistics are the same bits whatever the chunk, and the sums across
    heads run after the loop.
    """
    cells, weight, at = golds
    total = weight.sum()
    if total == 0:
        return 0.0, np.zeros_like(logits), 0.0
    W, alpha, rule_part = _weights(block, logits, mix_logit)
    H, E = block.shape
    rows = cells // E
    hit = at >= 0
    if block.F is None:
        z = alpha * rule_part  # Z at the cells
        zmax = np.where(block.off_cells > 0, 0.0, -np.inf)
        with_cells = block.cell_row[block.row_starts]
        zmax[with_cells] = np.maximum(zmax[with_cells], np.maximum.reduceat(z, block.row_starts))
        e = np.exp(z - zmax[block.cell_row])  # exp(Z - max) at the cells
        # each off-cell 0 adds exp(-max); where there is none, max may be
        # below -709 and min(-max, 0) keeps 0 * exp(-max) from being 0 * inf
        norm = block.off_cells * np.exp(np.minimum(-zmax, 0.0))
        norm += np.bincount(block.cell_row, weights=e, minlength=H)
        gold_z = np.zeros(len(cells))
        gold_z[hit] = z[at[hit]]
    else:
        zmax, norm, eF = np.empty(H), np.empty(H), np.empty(H)
        gold_z, e = np.empty(len(cells)), np.empty(len(block.cells))
        for lo, hi, Z, in_chunk in _score_chunks(block, W, alpha, rule_part):
            golds_in = slice(*np.searchsorted(cells, [lo * E, hi * E]))
            flat = Z.reshape(-1)
            gold_z[golds_in] = flat[cells[golds_in] - lo * E]
            zmax[lo:hi] = Z.max(axis=1)
            ez = np.exp(np.subtract(Z, zmax[lo:hi, None], out=Z), out=Z)  # Z is no longer needed
            norm[lo:hi] = ez.sum(axis=1)
            e[in_chunk] = flat[block.cells[in_chunk] - lo * E]
            eF[lo:hi] = np.einsum("ij,ij->i", ez, block.F[lo:hi])
    counts = np.bincount(rows, weights=weight, minlength=H)
    logsum = np.log(norm) + zmax
    gold_sum = np.bincount(rows, weights=weight * gold_z, minlength=H)
    loss = float((counts * logsum - gold_sum).sum() / total)
    dz = e / norm[block.cell_row]  # dZ at the cells
    dz *= counts[block.cell_row]
    dz[at[hit]] -= weight[hit]
    dz /= total
    # d alpha = sum(dZ * (rule part - embedding part)); the rule part lives
    # on the cells, the embedding part is W[:, -1] * F
    d_alpha = float((dz * rule_part).sum())
    # gradient w.r.t. the per-head weights, then through the masked softmax
    G = alpha * np.bincount(
        block.widx, weights=block.value * dz[block.cell_of], minlength=W.size
    ).reshape(W.shape)
    if block.F is not None:
        gold_F = np.bincount(rows, weights=weight * block.F.reshape(-1)[cells], minlength=H)
        g_emb = (counts * eF / norm - gold_F) / total  # sum(dZ * F) per head
        d_alpha -= float((W[:, -1] * g_emb).sum())
        G[:, -1] = (1.0 - alpha) * g_emb
    d_mix = d_alpha * alpha * (1.0 - alpha)
    # running sum for the same reason as in masked_weights
    inner = np.cumsum(W * G, axis=1)[:, -1:]
    d_logits = (W * (G - inner)).sum(axis=0)
    return loss, d_logits, d_mix


def _gold_ranks(
    Z: np.ndarray, golds: np.ndarray, filtered: Tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Filtered mean-of-ties rank of golds[i] in the scores Z[i], for every
    row i: the entities above the gold and those tied with it (the gold
    among them) are counted over the row, less those among the excluded
    (query, tail) pairs `filtered` from `_filtered`."""
    g = Z[np.arange(len(golds)), golds]
    query, tail = filtered
    z, gq = Z[query, tail], g[query]
    greater = np.count_nonzero(Z > g[:, None], axis=1) - np.bincount(query, z > gq, len(g))
    ties = np.count_nonzero(Z == g[:, None], axis=1) - np.bincount(query, z == gq, len(g))
    return greater + (ties + 1) / 2.0


class _Queries:
    """A block of one row per (head, relation, tail) query of one relation,
    in the order given (Triples or (n, 3) rows), with the golds and the
    `_filtered` tails."""

    def __init__(
        self,
        kb: KnowledgeBase,
        relation: int,
        groundings: List[Grounding],
        rotate_model: Optional[RotateModel],
        triples,
    ):
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        heads, self.golds = triples[:, 0], triples[:, 2]
        self.block = _evidence(kb, relation, groundings, rotate_model, heads)
        self.filtered = _filtered(kb, relation, heads, self.golds)

    def ranks(self, logits: np.ndarray, mix_logit: float) -> np.ndarray:
        """The filtered rank of every query: `_gold_ranks` of each chunk of
        rows, with that chunk's filtered pairs rebased to its first row."""
        query, tail = self.filtered
        ranks = np.empty(len(self.golds))
        for lo, hi, Z, _ in _score_chunks(self.block, *_weights(self.block, logits, mix_logit)):
            a, b = np.searchsorted(query, [lo, hi])
            ranks[lo:hi] = _gold_ranks(Z, self.golds[lo:hi], (query[a:b] - lo, tail[a:b]))
        return ranks


class _RelationData:
    """One relation's train block and gold cells, and its validation
    `_Queries`, built once.

    The train block holds one row per head of the relation's train matrix M,
    whose nonzeros are the gold cells; a (head, tail) pair is one query
    however often train lists it. Its evidence is signed as `grounding.score`:
    times M at a gold cell (+C * M = +A), negated at every other cell.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        relation: int,
        groundings: List[Grounding],
        rotate_model: Optional[RotateModel],
    ):
        M = kb.matrices[relation]
        train_heads = np.flatnonzero(np.diff(M.indptr))
        self.train = _evidence(kb, relation, groundings, rotate_model, train_heads)
        row, tail, multiplicity = M.rows(train_heads)
        self.golds = _golds(self.train, row * kb.num_entities + tail, np.ones(len(row)))
        at = self.golds[2]
        sign = np.full(len(self.train.cells), -1.0)
        sign[at[at >= 0]] = multiplicity[at >= 0]
        self.train.value *= sign[self.train.cell_of]
        # one row per validation query, in split order
        valid = kb.arrays["valid"]
        self.valid = _Queries(kb, relation, groundings, rotate_model, valid[valid[:, 1] == relation])

    def valid_mrr(self, logits: np.ndarray, mix_logit: float) -> float:
        return float(np.mean(1.0 / self.valid.ranks(logits, mix_logit)))


def _fit_relation(
    kb: KnowledgeBase,
    relation: int,
    groundings: List[Grounding],
    rotate_model: Optional[RotateModel],
    cfg: TrainerConfig,
) -> Tuple[RelationParams, Dict[str, List[float]]]:
    """Fit one relation's block from zero logits: its kept parameters and
    its loss/metric trace, empty (and the evidence not built) when it has no
    train triple or no epoch to run. One AdamW steps the logits and then the
    mixing logit as one vector; under `uniform_weights` the logits' gradient
    is zeroed, which leaves them at exactly 0. The metric is frozen when
    there is no embedding model and the block the metric reads (the
    validation queries', or the train block for -loss) has no evidence cell:
    every score is then 0, and the relation stops after epoch 1."""
    params = RelationParams(
        logits=np.zeros(len(groundings) + 1), rule_keys=[format_rule(g.rule, kb) for g in groundings]
    )
    trace: Dict[str, List[float]] = {"loss": [], "metric": []}
    if not (kb.matrices[relation].nnz and cfg.max_epochs):
        return params, trace
    data = _RelationData(kb, relation, groundings, rotate_model)
    theta = np.zeros(len(groundings) + 2)  # the logits, then mix_logit
    opt = AdamW(len(theta), cfg.weight_decay)
    use_valid = len(data.valid.golds) > 0
    frozen = data.train.F is None and not len((data.valid.block if use_valid else data.train).cells)
    best_metric, best = -np.inf, theta  # epoch 1's finite metric replaces it
    stale = 0
    what = "training of relation %r" % kb.relation_name(relation)
    for epoch in range(cfg.max_epochs):
        with training_epoch(what, epoch + 1, "[trainer] lr, weight_decay or step_gamma"):
            lr = cfg.lr * cfg.step_gamma ** (epoch // cfg.step_size)
            loss, d_logits, d_mix = relation_loss_and_grads(theta[:-1], float(theta[-1]), data.train, data.golds)
            grad = np.append(d_logits, d_mix)
            if cfg.uniform_weights:
                grad[:-1] = 0.0
            opt.step(theta, grad, lr)
            check_finite(loss, theta)
            metric = data.valid_mrr(theta[:-1], float(theta[-1])) if use_valid else -loss
        params.epochs_trained = epoch + 1
        trace["loss"].append(loss)
        trace["metric"].append(metric)
        if metric > best_metric:
            best_metric, best = metric, theta.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                params.stopped = True
                break
        if frozen:
            params.stopped = cfg.max_epochs > 1
            break
    params.logits, params.mix_logit = best[:-1], float(best[-1])
    return params, trace


def train(
    kb: KnowledgeBase,
    groundings: Dict[int, List[Grounding]],
    rotate_model: Optional[RotateModel],
    cfg: TrainerConfig,
) -> Tuple[ReasonerParams, Dict[str, Dict[str, List[float]]]]:
    """Fit every relation's parameter block (`_fit_relation`); blocks are
    independent. Deterministic given the config."""
    fits = {r: _fit_relation(kb, r, groundings.get(r, []), rotate_model, cfg) for r in range(kb.num_relations)}
    return {r: p for r, (p, _) in fits.items()}, {kb.relation_name(r): t for r, (_, t) in fits.items()}


def check_checkpoint_rules(
    params: ReasonerParams, kb: KnowledgeBase, groundings: Dict[int, List[Grounding]]
) -> None:
    """Raise KBError for the first checkpointed relation whose rule texts are
    not those of its grounded rules, in relation order."""
    for relation, rp in sorted(params.items()):
        if rp.rule_keys != [format_rule(g.rule, kb) for g in groundings.get(relation, [])]:
            raise KBError(
                "checkpoint rules for %r do not match the rule file" % kb.relation_name(relation)
            )


def rank(
    params: ReasonerParams,
    kb: KnowledgeBase,
    groundings: Dict[int, List[Grounding]],
    rotate_model: Optional[RotateModel],
    head: int,
    relation: int,
    gold: Optional[int] = None,
    top_k: int = 10,
) -> RankingResult:
    """Rank all tails for (head, relation, ?) by the combined score.

    With a gold tail the filtered protocol applies: other tails known true in
    any split are removed before ranking and the gold's mean-of-ties rank is
    reported. Without a gold nothing is filtered (exploratory queries).
    `top_k` entries are returned; top_k=0 returns the gold's rank alone. An
    entry's contributions are its nonzero rule terms, labelled by rule text,
    then the embedding's term if there is an embedding model.
    """
    if top_k < 0:
        raise ValueError("top_k must be >= 0, got %d" % top_k)
    rp = params[relation]
    block = _evidence(kb, relation, groundings.get(relation, []), rotate_model, [head])
    W, alpha, rule_part = _weights(block, rp.logits, rp.mix_logit)
    [(_, _, Z, _)] = _score_chunks(block, W, alpha, rule_part)
    scores, w = Z[0], W[0]

    if gold is None:
        excluded, gold_rank = np.zeros(0, dtype=np.int64), None
    else:
        filtered = _filtered(kb, relation, [head], [gold])
        excluded = filtered[1]
        gold_rank = float(_gold_ranks(Z, np.array([gold]), filtered)[0])

    order = np.argsort(-scores, kind="stable")  # stable: ties in tail order
    top = order[np.isin(order, excluded, invert=True)][:top_k]
    # attributions use the kernel's own weights, so entries sum to the score;
    # in a block of one head a cell's key is its tail
    los, his = np.searchsorted(block.key, top), np.searchsorted(block.key, top, side="right")
    entries = []
    for tail, lo, hi in zip(top.tolist(), los.tolist(), his.tolist()):
        contribs = []
        for i, value in zip(block.rule[lo:hi].tolist(), block.value[lo:hi].tolist()):
            v = float(alpha * w[i] * value)
            if v != 0.0:
                contribs.append((rp.rule_keys[i], v))
        if block.F is not None:
            contribs.append(("embedding", float((1.0 - alpha) * w[-1] * block.F[0, tail])))
        entries.append(RankEntry(tail=tail, score=float(scores[tail]), contributions=contribs))
    return RankingResult(
        head=head,
        relation=relation,
        entries=entries,
        gold=gold,
        gold_rank=gold_rank,
        candidate_count=kb.num_entities - len(excluded),
    )


def gold_ranks(
    params: ReasonerParams,
    kb: KnowledgeBase,
    groundings: Dict[int, List[Grounding]],
    rotate_model: Optional[RotateModel],
    triples,
) -> np.ndarray:
    """Filtered gold ranks of (head, relation, tail) queries, any (n, 3)
    array-like, in order: the `gold_rank` that `rank` gives each, with every
    relation's queries scored as one `_Queries` block, a chunk at a time."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    ranks = np.empty(len(triples))
    for relation in np.unique(triples[:, 1]).tolist():
        idx = np.flatnonzero(triples[:, 1] == relation)
        rp = params[relation]
        queries = _Queries(kb, relation, groundings.get(relation, []), rotate_model, triples[idx])
        ranks[idx] = queries.ranks(rp.logits, rp.mix_logit)
    return ranks


def save_params(path: str, params: ReasonerParams, kb: KnowledgeBase) -> None:
    """Human-readable JSON checkpoint with weights, alpha and epoch counters."""
    doc = {}
    for rel, rp in sorted(params.items()):
        w = softmax(rp.logits)  # unmasked: rule weights, then the embedding's
        doc[kb.relation_name(rel)] = {
            "alpha": sigmoid(rp.mix_logit),
            "epochs_trained": rp.epochs_trained,
            "logits": rp.logits.tolist(),
            "mix_logit": rp.mix_logit,
            "rules": [
                {"logit": float(rp.logits[i]), "text": key, "weight": float(w[i])}
                for i, key in enumerate(rp.rule_keys)
            ],
            "stopped": rp.stopped,
            "w_emb": float(w[-1]),
        }
    write_json(path, doc)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """False for NaN, +-Infinity (which `json` reads) and ints beyond a float."""
    return -sys.float_info.max <= v <= sys.float_info.max


# what `load_params` reads of a relation block: key -> (what it must be, test)
_BLOCK_KEYS = {
    "epochs_trained": ("an integer >= 0", lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0),
    "logits": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "mix_logit": ("a number", _is_number),
    "rules": (
        "a list of objects with a string text",
        lambda v: isinstance(v, list)
        and all(isinstance(r, dict) and isinstance(r.get("text"), str) for r in v),
    ),
    "stopped": ("a boolean", lambda v: isinstance(v, bool)),
}


def _block_problem(block) -> Optional[str]:
    if not isinstance(block, dict):
        return "block is not an object"
    for key, (what, ok) in _BLOCK_KEYS.items():
        if key not in block:
            return "missing key %r" % key
        if not ok(block[key]):
            return "%r must be %s" % (key, what)
    for key, values in (("logits", block["logits"]), ("mix_logit", [block["mix_logit"]])):
        if not all(map(_is_finite, values)):
            return "%r must be finite" % key
    if len(block["logits"]) != len(block["rules"]) + 1:
        return "%d logits for %d rules; need one per rule plus the embedding's" % (
            len(block["logits"]),
            len(block["rules"]),
        )
    return None


def load_params(path: str, kb: KnowledgeBase) -> ReasonerParams:
    """Read a `save_params` checkpoint. A file that cannot be opened, is not
    UTF-8 or not JSON, or a relation not in the KB, or a relation block with
    a missing key, a value of the wrong type, a non-finite logit or
    mix_logit, or not one logit per rule plus the embedding's raises a
    KBError naming the file; so does, once every block has passed, a KB
    relation without a block."""
    try:
        doc = json.loads(read_text(path, "parameter checkpoint"))
    except json.JSONDecodeError as exc:
        raise KBError("%s: not JSON: %s" % (path, exc)) from exc
    if not isinstance(doc, dict):
        raise KBError("%s: not an object of relation blocks" % path)
    params: ReasonerParams = {}
    for rel_name, block in doc.items():
        if rel_name not in kb.relations:
            raise KBError("%s: relation %r is not in the KB" % (path, rel_name))
        rel = kb.relations.id(rel_name)
        problem = _block_problem(block)
        if problem is not None:
            raise KBError("%s: relation %r: %s" % (path, rel_name, problem))
        params[rel] = RelationParams(
            logits=np.asarray(block["logits"], dtype=float),
            mix_logit=float(block["mix_logit"]),
            rule_keys=[r["text"] for r in block["rules"]],
            epochs_trained=int(block["epochs_trained"]),
            stopped=bool(block["stopped"]),
        )
    for rel in range(kb.num_relations):
        if rel not in params:
            raise KBError("%s: no block for relation %r" % (path, kb.relation_name(rel)))
    return params
