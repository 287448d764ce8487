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
"""

import json
import logging
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .grounding import Grounding, support_row
from .kb import KBError, KnowledgeBase
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
    """
    n = active.shape[-1]
    full = np.broadcast_to(logits, active.shape[:-1] + (n + 1,)).copy()
    full[..., :n][~active] = -np.inf
    return softmax(full, axis=-1)


def normalize_embedding_row(rows: np.ndarray) -> np.ndarray:
    """Min-max each row (last axis) to [0, 1] in place and return it; a flat
    row collapses to zeros."""
    lo = rows.min(axis=-1, keepdims=True)
    span = rows.max(axis=-1, keepdims=True) - lo
    span[span <= 0] = 1.0  # a flat row minus its minimum is already zeros
    rows -= lo
    rows /= span
    return rows


def _evidence(
    kb: KnowledgeBase,
    relation: int,
    groundings: List[Grounding],
    rotate_model: Optional[RotateModel],
    heads: List[int],
    signed: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S (heads, rules, entities), its active mask and the normalized
    embedding rows F (zeros without a model) for `heads` of one relation.
    S is C(h, .), or with `signed` `grounding.score`: -C, then +A over it.
    Only stored entries are written, so no -0.0 appears. F is one
    `score_tails` call over all of `heads`, normalized in place; a head's row
    is the same whatever other heads are asked for with it."""
    S = np.zeros((len(heads), len(groundings), kb.num_entities))
    for hi, h in enumerate(heads):
        for gi, g in enumerate(groundings):
            tails, counts = support_row(g, h)
            if signed:
                S[hi, gi, tails] = -counts
                tails, counts = g.joint_count.row(h)
            S[hi, gi, tails] = counts
    if rotate_model is None:
        F = np.zeros((len(heads), kb.num_entities))
    else:
        F = normalize_embedding_row(score_tails(rotate_model, heads, relation))
    return S, (S != 0).any(axis=2), F


def _filtered(kb: KnowledgeBase, head: int, relation: int, gold: int) -> np.ndarray:
    """Filtered-protocol candidates: every entity but the other tails known
    true for (head, relation) in any split; the gold is kept."""
    keep = np.ones(kb.num_entities, dtype=bool)
    keep[[t for t in kb.true_tails.get((head, relation), ()) if t != gold]] = False
    return keep


def _blend(params: RelationParams, rule_rows: Sequence, emb_row: np.ndarray):
    """`combined_score` plus the pieces of its attributions: the dense rule
    rows, the full weight vector (0 for inactive rules, embedding last) and
    alpha."""
    emb_row = np.asarray(emb_row, dtype=float)
    rows = np.asarray(rule_rows, dtype=float).reshape(-1, emb_row.shape[0])
    idx = np.flatnonzero((rows != 0).any(axis=1))
    sub = softmax(np.concatenate([params.logits[idx], params.logits[-1:]]))
    alpha = sigmoid(params.mix_logit)
    scores = alpha * (sub[:-1] @ rows[idx]) + (1.0 - alpha) * sub[-1] * emb_row
    w = np.zeros(params.logits.shape[0])
    w[idx] = sub[:-1]
    w[-1] = sub[-1]
    return scores, rows, w, alpha


def combined_score(
    params: RelationParams, rule_rows: Sequence, emb_row: np.ndarray
) -> np.ndarray:
    """Blend rule score rows with the normalized embedding row for one query.

    rule_rows holds one dense row per rule, aligned with params.logits[:-1]
    (a 2-D array or a sequence of 1-D rows). Rules with an all-zero row are
    dropped before any arithmetic, so deleting such a rule cannot change the
    result even in the last bit.
    """
    return _blend(params, rule_rows, emb_row)[0]


def _forward(
    logits: np.ndarray, mix_logit: float, S: np.ndarray, F: np.ndarray, active: np.ndarray
):
    """Batched combined score for all heads of one relation.

    S: (H, n, E) rule rows, F: (H, E) normalized embedding rows,
    active: (H, n). Returns Z, W, rule part R and embedding part Emb.
    """
    W = masked_weights(logits, active)  # (H, n+1)
    alpha = sigmoid(mix_logit)
    R = np.einsum("hn,hne->he", W[:, :-1], S)
    Emb = W[:, -1:] * F
    Z = alpha * R + (1.0 - alpha) * Emb
    return Z, W, R, Emb


def relation_loss_and_grads(
    logits: np.ndarray,
    mix_logit: float,
    S: np.ndarray,
    F: np.ndarray,
    Y: np.ndarray,
    active: np.ndarray,
) -> Tuple[float, np.ndarray, float]:
    """Mean cross-entropy over one relation's train queries and its gradients.

    Y: (H, E) 0/1 gold-tail indicators; a head with several gold tails counts
    one query per gold. Returns (loss, d logits, d mix_logit).
    """
    Z, W, R, Emb = _forward(logits, mix_logit, S, F, active)
    counts = Y.sum(axis=1)
    total = counts.sum()
    if total == 0:
        return 0.0, np.zeros_like(logits), 0.0
    zmax = Z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(Z - zmax).sum(axis=1)) + zmax[:, 0]
    loss = float((counts * logsum - (Y * Z).sum(axis=1)).sum() / total)
    P = softmax(Z, axis=1)
    dZ = (counts[:, None] * P - Y) / total  # (H, E)
    alpha = sigmoid(mix_logit)
    d_alpha = float((dZ * (R - Emb)).sum())
    d_mix = d_alpha * alpha * (1.0 - alpha)
    # gradient w.r.t. the per-head weights, then through the masked softmax
    G = np.empty_like(W)
    G[:, :-1] = alpha * np.einsum("he,hne->hn", dZ, S)
    G[:, -1] = (1.0 - alpha) * (dZ * F).sum(axis=1)
    inner = (W * G).sum(axis=1, keepdims=True)
    d_logits = (W * (G - inner)).sum(axis=0)
    return loss, d_logits, d_mix


def _rank_of_gold(scores: np.ndarray, gold: int, keep: np.ndarray) -> float:
    """Mean-of-ties rank of the gold among kept candidates (gold always kept)."""
    gold_score = scores[gold]
    cand = scores[keep]
    greater = int((cand > gold_score).sum())
    ties = int((cand == gold_score).sum())
    return greater + (ties + 1) / 2.0


class _RelationData:
    """Precomputed dense tensors for one relation's training and validation."""

    def __init__(
        self,
        kb: KnowledgeBase,
        relation: int,
        groundings: List[Grounding],
        rotate_model: Optional[RotateModel],
    ):
        self.relation = relation
        train = kb.train_by_relation(relation)
        self.train_heads = sorted({t.head for t in train})
        head_index = {h: i for i, h in enumerate(self.train_heads)}
        self.S, self.active, self.F = _evidence(
            kb, relation, groundings, rotate_model, self.train_heads, signed=True
        )
        self.Y = np.zeros((len(self.train_heads), kb.num_entities))
        for t in train:
            self.Y[head_index[t.head], t.tail] = 1.0

        valid = [t for t in kb.valid if t.relation == relation]
        self.valid_heads = sorted({t.head for t in valid})
        vindex = {h: i for i, h in enumerate(self.valid_heads)}
        self.Sv, self.activev, self.Fv = _evidence(
            kb, relation, groundings, rotate_model, self.valid_heads, signed=False
        )
        self.valid_queries = [  # (head row, gold, keep mask)
            (vindex[t.head], t.tail, _filtered(kb, t.head, relation, t.tail)) for t in valid
        ]

    def valid_mrr(self, logits: np.ndarray, mix_logit: float) -> float:
        if not self.valid_queries:
            return float("nan")
        Z, _, _, _ = _forward(logits, mix_logit, self.Sv, self.Fv, self.activev)
        rr = [1.0 / _rank_of_gold(Z[hi], gold, keep) for hi, gold, keep in self.valid_queries]
        return float(np.mean(rr))


def _train_relation(
    data: _RelationData, params: RelationParams, cfg: TrainerConfig
) -> Dict[str, List[float]]:
    """Optimize one relation's block in place; returns its loss/metric trace."""
    trace = {"loss": [], "metric": []}
    if len(data.train_heads) == 0 or params.stopped or params.epochs_trained >= cfg.max_epochs:
        return trace
    opt_logits = AdamW(len(params.logits), cfg.weight_decay)
    opt_mix = AdamW(1, cfg.weight_decay)
    mix = np.array([params.mix_logit])
    use_valid = bool(data.valid_queries)
    best_metric = -np.inf
    best_state: Optional[RelationParams] = None
    stale = 0
    for epoch in range(params.epochs_trained, cfg.max_epochs):
        lr = cfg.lr * cfg.step_gamma ** (epoch // cfg.step_size)
        loss, d_logits, d_mix = relation_loss_and_grads(
            params.logits, float(mix[0]), data.S, data.F, data.Y, data.active
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
        data = _RelationData(kb, relation, glist, rotate_model)
        traces[kb.relation_name(relation)] = _train_relation(data, rp, cfg)
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
    S, _, F = _evidence(kb, relation, glist, rotate_model, [head], signed=False)
    emb = F[0]
    # attributions reuse the blend's own pieces, so entries sum to the score
    scores, dense, w, alpha = _blend(rp, S[0], emb)

    if gold is None:
        keep, gold_rank = np.ones(kb.num_entities, dtype=bool), None
    else:
        keep = _filtered(kb, head, relation, gold)
        gold_rank = _rank_of_gold(scores, gold, keep)

    labels = rp.rule_keys if rp.rule_keys else [format_rule(g.rule, kb) for g in glist]

    kept_ids = np.flatnonzero(keep)
    order = kept_ids[np.lexsort((kept_ids, -scores[kept_ids]))] if top_k else []
    entries = []
    for tail in order[:top_k]:
        contribs = []
        for i in range(len(glist)):
            v = float(alpha * w[i] * dense[i, tail])
            if v != 0.0:
                contribs.append((labels[i], v))
        contribs.append(("embedding", float((1.0 - alpha) * w[-1] * emb[tail])))
        entries.append(RankEntry(tail=int(tail), score=float(scores[tail]), contributions=contribs))
    return RankingResult(
        head=head,
        relation=relation,
        entries=entries,
        gold=gold,
        gold_rank=gold_rank,
        candidate_count=int(keep.sum()),
    )


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
