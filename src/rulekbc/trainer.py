"""Joint significance weighting of grounded rules and the embedding scorer.

Each relation owns an independent parameter block: one logit per grounded rule
plus one for the embedding channel (softmaxed together into weights) and a
mixing logit whose sigmoid balances rule evidence against the embedding. Per
query, rules whose score row is entirely zero are dropped from the softmax, so
the remaining weights renormalize and an all-zero rule contributes exactly as
if it were absent.

Training minimizes per-query softmax cross-entropy over all entities of the
combined score, one full-batch AdamW step per epoch, with step-decay learning
rate and early stopping on validation MRR. `_evidence` builds the rule rows:
body-support counts for validation and ranking, and for training the signed
rows that penalize body support contradicted by the train KB.

Rule evidence is kept sparse, as the nonzeros of each (heads, rules,
entities) block, and one kernel (`_scores`) scores it for training,
validation, evaluation, `rank` and `combined_score` alike. Training memory is
O(nonzeros + heads x entities): each relation allocates its (heads, entities)
buffers once and every epoch reuses them.
"""

import json
import logging
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .grounding import Grounding, signed_rows, support_row
from .kb import KBError, KnowledgeBase, Triple
from .rotate import AdamW, RotateModel, score_tails
from .rules import format_rule

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainerConfig:
    lr: float = 1e-3
    weight_decay: float = 0.1
    step_size: int = 100
    step_gamma: float = 0.01
    patience: int = 30
    max_epochs: int = 500
    seed: int = 0
    uniform_weights: bool = False  # freeze logits equal; ablation mode

    def __post_init__(self):
        if self.step_size < 1 or self.patience < 1 or self.max_epochs < 0:
            raise ValueError("step_size and patience must be positive, max_epochs >= 0")
        for name in ("lr", "weight_decay", "step_gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("trainer.%s must be finite, got %r" % (name, getattr(self, name)))


@dataclass
class RelationParams:
    logits: np.ndarray  # (num_rules + 1,), last entry is the embedding slot
    mix_logit: float = 0.0
    rule_keys: List[str] = field(default_factory=list)
    epochs_trained: int = 0
    stopped: bool = False

    def copy(self) -> "RelationParams":
        return RelationParams(
            logits=self.logits.copy(),
            mix_logit=self.mix_logit,
            rule_keys=list(self.rule_keys),
            epochs_trained=self.epochs_trained,
            stopped=self.stopped,
        )


@dataclass
class ReasonerParams:
    per_relation: Dict[int, RelationParams] = field(default_factory=dict)

    def relation(self, rel: int, num_rules: int = 0) -> RelationParams:
        got = self.per_relation.get(rel)
        if got is not None:
            return got
        return RelationParams(logits=np.zeros(num_rules + 1))


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
    nonzero of each cell and `cells` holds that cell's key. F holds the
    normalized embedding rows. Z and P are (heads, entities) buffers that
    every `_scores` and `relation_loss_and_grads` call overwrites, so an
    epoch allocates nothing of that size.
    """

    def __init__(self, head, rule, tail, value, n_rules: int, F: np.ndarray):
        key = np.asarray(head, dtype=np.int64) * F.shape[1] + tail
        order = np.argsort(key, kind="stable")  # stable: rule order within a cell
        self.key = key[order]
        self.head = np.asarray(head, dtype=np.int64)[order]
        self.rule = np.asarray(rule, dtype=np.int64)[order]
        self.value = np.asarray(value, dtype=float)[order]
        self.widx = self.head * (n_rules + 1) + self.rule  # flat index into W
        new_cell = np.concatenate(([self.key.size > 0], self.key[1:] != self.key[:-1]))
        self.starts = np.flatnonzero(new_cell)
        self.cells = self.key[self.starts]
        self.active = np.zeros((F.shape[0], n_rules), dtype=bool)
        self.active[self.head, self.rule] = True
        self.F = F
        self.Z = np.empty(F.shape)
        self.P = np.empty(F.shape)


def _evidence(
    kb: KnowledgeBase,
    relation: int,
    groundings: List[Grounding],
    rotate_model: Optional[RotateModel],
    heads: Sequence[int],
    signed: bool,
) -> _Block:
    """The block of `heads` (repeats allowed) of one relation: rule evidence
    C(h, .), or with `signed` `grounding.score`, gathered per rule for all
    heads at once from the CSR arrays, and the normalized embedding rows F
    (zeros without a model) from one `score_tails` call. A head's evidence
    and row are the same whatever other heads are asked for with it."""
    heads = np.asarray(heads, dtype=np.int64)
    rows = [signed_rows(g, heads) if signed else support_row(g, heads) for g in groundings]
    head, tail, value = (
        np.concatenate([np.zeros(0, np.int64)] + [r[k] for r in rows]) for k in range(3)
    )
    rule = np.repeat(np.arange(len(rows)), [len(r[0]) for r in rows])
    if rotate_model is None:
        F = np.zeros((len(heads), kb.num_entities))
    else:
        F = normalize_embedding_row(score_tails(rotate_model, heads, relation))
    return _Block(head, rule, tail, value, len(groundings), F)


def _scores(block: _Block, logits: np.ndarray, mix_logit: float):
    """Combined scores of every head of the block, into block.Z.

    Returns Z, the weights W (heads, rules + 1; embedding last), alpha, and
    the rule part of each cell: its nonzeros' sum of value * weight.
    """
    W = masked_weights(logits, block.active)
    alpha = sigmoid(mix_logit)
    rule_part = np.add.reduceat(block.value * W.reshape(-1)[block.widx], block.starts)
    Z = np.multiply(block.F, W[:, -1:], out=block.Z)
    Z *= 1.0 - alpha
    Z.reshape(-1)[block.cells] += alpha * rule_part
    return Z, W, alpha, rule_part


def _filtered(kb: KnowledgeBase, head: int, relation: int, gold: int) -> np.ndarray:
    """Filtered-protocol candidates: every entity but the other tails known
    true for (head, relation) in any split; the gold is kept."""
    keep = np.ones(kb.num_entities, dtype=bool)
    keep[[t for t in kb.true_tails.get((head, relation), ()) if t != gold]] = False
    return keep


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
    block = _Block(np.zeros_like(rule), rule, tail, rows[rule, tail], len(rows), emb_row[None])
    return _scores(block, params.logits, params.mix_logit)[0][0]


def relation_loss_and_grads(
    logits: np.ndarray,
    mix_logit: float,
    block: _Block,
    golds: Tuple[np.ndarray, np.ndarray],
) -> Tuple[float, np.ndarray, float]:
    """Mean cross-entropy over one relation's train queries and its gradients.

    golds: (cells, counts), the sorted flat indices head * entities + tail of
    the gold cells of the block and how many queries each stands for.
    Returns (loss, d logits, d mix_logit). Overwrites the block's buffers.
    """
    cells, weight = golds
    total = weight.sum()
    if total == 0:
        return 0.0, np.zeros_like(logits), 0.0
    Z, W, alpha, rule_part = _scores(block, logits, mix_logit)
    H, E = Z.shape
    rows = cells // E
    counts = np.bincount(rows, weights=weight, minlength=H)
    gold_z = np.bincount(rows, weights=weight * Z.reshape(-1)[cells], minlength=H)
    zmax = Z.max(axis=1, keepdims=True)
    P = np.exp(np.subtract(Z, zmax, out=block.P), out=block.P)
    norm = P.sum(axis=1, keepdims=True)
    logsum = np.log(norm[:, 0]) + zmax[:, 0]
    loss = float((counts * logsum - gold_z).sum() / total)
    P /= norm  # softmax of Z
    P *= counts[:, None]
    dZ = P.reshape(-1)
    dZ[cells] -= weight
    dZ /= total
    g_emb = np.multiply(P, block.F, out=Z).sum(axis=1)  # Z is no longer needed
    # d alpha = sum(dZ * (rule part - embedding part)); both parts are sparse
    # or per-head, so no (heads, entities) difference is formed
    d_alpha = float((dZ[block.cells] * rule_part).sum() - (W[:, -1] * g_emb).sum())
    d_mix = d_alpha * alpha * (1.0 - alpha)
    # gradient w.r.t. the per-head weights, then through the masked softmax
    G = alpha * np.bincount(
        block.widx, weights=block.value * dZ[block.key], minlength=W.size
    ).reshape(W.shape)
    G[:, -1] = (1.0 - alpha) * g_emb
    # running sum for the same reason as in masked_weights
    inner = np.cumsum(W * G, axis=1)[:, -1:]
    d_logits = (W * (G - inner)).sum(axis=0)
    return loss, d_logits, d_mix


def _gold_ranks(
    Z: np.ndarray, golds: np.ndarray, keep: np.ndarray, hit: Optional[np.ndarray] = None
) -> np.ndarray:
    """Mean-of-ties rank of golds[i] among the candidates keep[i] of scores
    Z[i] (the gold is kept), for every row i; `hit` is an optional boolean
    buffer shaped like Z."""
    g = Z[np.arange(len(golds)), golds][:, None]
    hit = np.greater(Z, g, out=hit)
    hit &= keep
    greater = np.count_nonzero(hit, axis=1)
    np.equal(Z, g, out=hit)
    hit &= keep
    ties = np.count_nonzero(hit, axis=1)
    return greater + (ties + 1) / 2.0


class _RelationData:
    """One relation's train and validation blocks, gold cells and filtered
    candidate masks, built once before its epochs."""

    def __init__(
        self,
        kb: KnowledgeBase,
        relation: int,
        train: List[Triple],
        groundings: List[Grounding],
        rotate_model: Optional[RotateModel],
    ):
        self.relation = relation
        self.train_heads = sorted({t.head for t in train})
        head_index = {h: i for i, h in enumerate(self.train_heads)}
        self.train = _evidence(
            kb, relation, groundings, rotate_model, self.train_heads, signed=True
        )
        # a (head, tail) pair is one query however often train lists it
        cells = np.unique(
            np.array([head_index[t.head] * kb.num_entities + t.tail for t in train], dtype=np.int64)
        )
        self.golds = (cells, np.ones(len(cells)))

        # one block row per validation query, in split order
        valid = [t for t in kb.valid if t.relation == relation]
        self.valid = _evidence(
            kb, relation, groundings, rotate_model, [t.head for t in valid], signed=False
        )
        self.valid_golds = np.array([t.tail for t in valid], dtype=np.int64)
        self.valid_keep = np.empty((len(valid), kb.num_entities), dtype=bool)
        for i, t in enumerate(valid):
            self.valid_keep[i] = _filtered(kb, t.head, relation, t.tail)
        self.hit = np.empty_like(self.valid_keep)

    def valid_mrr(self, logits: np.ndarray, mix_logit: float) -> float:
        if not len(self.valid_golds):
            return float("nan")
        Z = _scores(self.valid, logits, mix_logit)[0]
        return float(np.mean(1.0 / _gold_ranks(Z, self.valid_golds, self.valid_keep, self.hit)))


def _train_relation(
    data: _RelationData, params: RelationParams, cfg: TrainerConfig
) -> Dict[str, List[float]]:
    """Optimize one relation's block in place; returns its loss/metric trace.
    The relation has train heads and epochs left to run (see `train`)."""
    trace = {"loss": [], "metric": []}
    opt_logits = AdamW(len(params.logits), cfg.weight_decay)
    opt_mix = AdamW(1, cfg.weight_decay)
    mix = np.array([params.mix_logit])
    use_valid = len(data.valid_golds) > 0
    best_metric = -np.inf
    best_state: Optional[RelationParams] = None
    stale = 0
    for epoch in range(params.epochs_trained, cfg.max_epochs):
        lr = cfg.lr * cfg.step_gamma ** (epoch // cfg.step_size)
        loss, d_logits, d_mix = relation_loss_and_grads(
            params.logits, float(mix[0]), data.train, data.golds
        )
        if not cfg.uniform_weights:
            opt_logits.step(params.logits, d_logits, lr)
        opt_mix.step(mix, np.array([d_mix]), lr)
        params.mix_logit = float(mix[0])
        params.epochs_trained = epoch + 1
        metric = data.valid_mrr(params.logits, params.mix_logit) if use_valid else -loss
        trace["loss"].append(loss)
        trace["metric"].append(metric)
        if metric > best_metric:
            best_metric = metric
            best_state = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                params.stopped = True
                break
    if best_state is not None:
        params.logits = best_state.logits
        params.mix_logit = best_state.mix_logit
    return trace


def train(
    kb: KnowledgeBase,
    groundings: Dict[int, List[Grounding]],
    rotate_model: Optional[RotateModel],
    cfg: TrainerConfig,
    initial: Optional[ReasonerParams] = None,
) -> Tuple[ReasonerParams, Dict[str, Dict[str, List[float]]]]:
    """Fit every relation's parameter block; blocks are independent.

    Pass `initial` (a loaded checkpoint) to resume: epoch counters continue
    and early-stopped relations stay untouched. Deterministic given the config.
    """
    if initial is not None:
        check_checkpoint_rules(initial, kb, groundings)
    params = ReasonerParams()
    traces: Dict[str, Dict[str, List[float]]] = {}
    for relation in range(kb.num_relations):
        glist = groundings.get(relation, [])
        if initial is not None and relation in initial.per_relation:
            rp = initial.per_relation[relation].copy()
        else:
            keys = [format_rule(g.rule, kb) for g in glist]
            rp = RelationParams(logits=np.zeros(len(glist) + 1), rule_keys=keys)
        train_triples = kb.train_by_relation(relation)
        if train_triples and not rp.stopped and rp.epochs_trained < cfg.max_epochs:
            data = _RelationData(kb, relation, train_triples, glist, rotate_model)
            traces[kb.relation_name(relation)] = _train_relation(data, rp, cfg)
        else:  # nothing to train: its evidence is not built
            traces[kb.relation_name(relation)] = {"loss": [], "metric": []}
        params.per_relation[relation] = rp
    return params, traces


def check_checkpoint_rules(
    params: ReasonerParams, kb: KnowledgeBase, groundings: Dict[int, List[Grounding]]
) -> None:
    """Raise KBError for the first checkpointed relation whose rule texts are
    not those of its grounded rules, in relation order."""
    for relation, rp in sorted(params.per_relation.items()):
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
    `top_k` entries are returned; evaluation asks for none (top_k=0).
    """
    if top_k < 0:
        raise ValueError("top_k must be >= 0, got %d" % top_k)
    glist = groundings.get(relation, [])
    rp = params.relation(relation, num_rules=len(glist))
    block = _evidence(kb, relation, glist, rotate_model, [head], signed=False)
    Z, W, alpha, _ = _scores(block, rp.logits, rp.mix_logit)
    scores, w, emb = Z[0], W[0], block.F[0]

    if gold is None:
        keep, gold_rank = np.ones(kb.num_entities, dtype=bool), None
    else:
        keep = _filtered(kb, head, relation, gold)
        gold_rank = float(_gold_ranks(Z, np.array([gold]), keep[None])[0])

    labels = rp.rule_keys if rp.rule_keys else [format_rule(g.rule, kb) for g in glist]

    kept_ids = np.flatnonzero(keep)
    top = kept_ids[np.lexsort((kept_ids, -scores[kept_ids]))][:top_k] if top_k else kept_ids[:0]
    # attributions use the kernel's own weights, so entries sum to the score;
    # in a block of one head a cell's key is its tail
    los, his = np.searchsorted(block.key, top), np.searchsorted(block.key, top, side="right")
    entries = []
    for tail, lo, hi in zip(top.tolist(), los.tolist(), his.tolist()):
        contribs = []
        for i, value in zip(block.rule[lo:hi].tolist(), block.value[lo:hi].tolist()):
            v = float(alpha * w[i] * value)
            if v != 0.0:
                contribs.append((labels[i], v))
        contribs.append(("embedding", float((1.0 - alpha) * w[-1] * emb[tail])))
        entries.append(RankEntry(tail=tail, score=float(scores[tail]), contributions=contribs))
    return RankingResult(
        head=head,
        relation=relation,
        entries=entries,
        gold=gold,
        gold_rank=gold_rank,
        candidate_count=int(keep.sum()),
    )


def gold_ranks(
    params: ReasonerParams,
    kb: KnowledgeBase,
    groundings: Dict[int, List[Grounding]],
    rotate_model: Optional[RotateModel],
    triples: Sequence[Triple],
) -> np.ndarray:
    """Filtered gold ranks of (head, relation, tail) queries, in order: the
    `gold_rank` that `rank` gives each, with every relation's distinct heads
    scored as one block."""
    ranks = np.empty(len(triples))
    by_relation: Dict[int, List[int]] = {}
    for i, t in enumerate(triples):
        by_relation.setdefault(t.relation, []).append(i)
    for relation, idx in sorted(by_relation.items()):
        glist = groundings.get(relation, [])
        rp = params.relation(relation, num_rules=len(glist))
        heads = sorted({triples[i].head for i in idx})
        row = {h: k for k, h in enumerate(heads)}
        block = _evidence(kb, relation, glist, rotate_model, heads, signed=False)
        Z = _scores(block, rp.logits, rp.mix_logit)[0]
        queries = [triples[i] for i in idx]
        keep = np.array([_filtered(kb, t.head, relation, t.tail) for t in queries])
        golds = np.array([t.tail for t in queries], dtype=np.int64)
        ranks[idx] = _gold_ranks(Z[[row[t.head] for t in queries]], golds, keep)
    return ranks


def reporting_weights(rp: RelationParams) -> np.ndarray:
    """Unmasked softmax of the full logit vector; rule weights then embedding."""
    return softmax(rp.logits)


def save_params(path: str, params: ReasonerParams, kb: KnowledgeBase) -> None:
    """Human-readable JSON checkpoint with weights, alpha and epoch counters."""
    doc = {}
    for rel, rp in sorted(params.per_relation.items()):
        w = reporting_weights(rp)
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """False for NaN, +-Infinity (which `json` reads) and ints beyond a float."""
    return -sys.float_info.max <= v <= sys.float_info.max


# what `load_params` reads of a relation block: key -> (what it must be, test)
_BLOCK_KEYS = {
    "epochs_trained": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
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
    """Read a `save_params` checkpoint. A relation block with a missing key,
    a value of the wrong type, a non-finite logit or mix_logit, or not one
    logit per rule plus the embedding's raises KBError("<path>: ...")."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise KBError("%s: not an object of relation blocks" % path)
    params = ReasonerParams()
    for rel_name, block in doc.items():
        rel = kb.relations.id(rel_name)
        problem = _block_problem(block)
        if problem is not None:
            raise KBError("%s: relation %r: %s" % (path, rel_name, problem))
        params.per_relation[rel] = RelationParams(
            logits=np.asarray(block["logits"], dtype=float),
            mix_logit=float(block["mix_logit"]),
            rule_keys=[r["text"] for r in block["rules"]],
            epochs_trained=int(block["epochs_trained"]),
            stopped=bool(block["stopped"]),
        )
    return params
