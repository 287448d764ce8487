"""Rotation embeddings: complex entity vectors, unit-modulus relation rotations.

score(h, r, t) = margin - || emb(h) * e^(i*phase(r)) - emb(t) ||_1 where the L1
norm sums the complex moduli per dimension. Entity vectors store the real parts
in the first half and the imaginary parts in the second half of each row.
`score_tails` scores whole tail rows for a list of heads, a block of heads at a
time; a head's row is the same bits whichever block it is scored in. Training
keeps the analytic gradients explicit so they can be checked against finite
differences.
"""

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .kb import KBError, KnowledgeBase

_MAGIC = b"RKE1"
_HEAD_BLOCK = 32  # heads per block in score_tails; (block, entities) buffers stay in cache


@dataclass(frozen=True)
class RotateConfig:
    dim: int = 64  # complex dimensions; entity rows hold 2*dim reals
    margin: float = 6.0
    negatives: int = 64
    epochs: int = 100
    lr: float = 1e-3
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.negatives < 1 or self.batch_size < 1:
            raise ValueError("dim, negatives and batch_size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs cannot be negative")


@dataclass
class RotateModel:
    entity: np.ndarray  # (num_entities, 2*dim)
    phase: np.ndarray  # (num_relations, dim), radians
    margin: float

    @property
    def dim(self) -> int:
        return self.phase.shape[1]

    @property
    def num_entities(self) -> int:
        return self.entity.shape[0]

    @property
    def num_relations(self) -> int:
        return self.phase.shape[0]


def init_model(num_entities: int, num_relations: int, cfg: RotateConfig) -> RotateModel:
    rng = np.random.default_rng(cfg.seed)
    spread = (cfg.margin + 2.0) / cfg.dim
    entity = rng.uniform(-spread, spread, size=(num_entities, 2 * cfg.dim))
    phase = rng.uniform(-np.pi, np.pi, size=(num_relations, cfg.dim))
    return RotateModel(entity=entity, phase=phase, margin=cfg.margin)


def _check_ids(model: RotateModel, heads, relations, tails) -> None:
    for name, ids, bound in (
        ("entity", heads, model.num_entities),
        ("relation", relations, model.num_relations),
        ("entity", tails, model.num_entities),
    ):
        arr = np.atleast_1d(np.asarray(ids))
        if arr.size and (arr.min() < 0 or arr.max() >= bound):
            raise KBError("%s id out of range [0, %d)" % (name, bound))


def _rotated_head(model: RotateModel, h, r) -> Tuple[np.ndarray, np.ndarray]:
    d = model.dim
    hre, him = model.entity[h, :d], model.entity[h, d:]
    cos, sin = np.cos(model.phase[r]), np.sin(model.phase[r])
    return hre * cos - him * sin, hre * sin + him * cos


def score(model: RotateModel, head: int, relation: int, tail: int) -> float:
    _check_ids(model, head, relation, tail)
    hr_re, hr_im = _rotated_head(model, head, relation)
    d = model.dim
    u_re = hr_re - model.entity[tail, :d]
    u_im = hr_im - model.entity[tail, d:]
    return float(model.margin - np.hypot(u_re, u_im).sum())


def score_tails(model: RotateModel, heads: Sequence[int], relation: int) -> np.ndarray:
    """Scores for (h, relation, t) over every head h of `heads` and every
    entity t, as a (len(heads), entities) array.

    Heads are rotated and scored in blocks: per complex dimension, the moduli
    sqrt(dre^2 + dim^2) against every entity are added into the block's rows,
    so each element sums its dimensions in order and a row does not depend on
    the other heads of its block. The result is within 1e-12 of summing
    `np.hypot` over the dimensions, not bit-equal to it.
    """
    heads = np.asarray(heads, dtype=np.int64).reshape(-1)
    _check_ids(model, heads, relation, heads)
    d, n = model.dim, model.num_entities
    out = np.empty((len(heads), n))
    cols = np.ascontiguousarray(model.entity.T)  # one contiguous row per coordinate
    re = np.empty((min(_HEAD_BLOCK, len(heads)), n))
    im = np.empty_like(re)
    for lo in range(0, len(heads), _HEAD_BLOCK):
        block = heads[lo : lo + _HEAD_BLOCK]
        hr_re, hr_im = _rotated_head(model, block, relation)
        acc, dre, dim = out[lo : lo + len(block)], re[: len(block)], im[: len(block)]
        acc.fill(0.0)
        for k in range(d):
            np.subtract(hr_re[:, k, None], cols[k], out=dre)
            np.subtract(hr_im[:, k, None], cols[d + k], out=dim)
            dre *= dre
            dim *= dim
            dre += dim
            acc += np.sqrt(dre, out=dre)
        np.subtract(model.margin, acc, out=acc)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def loss_and_grad(
    model: RotateModel, positives: np.ndarray, neg_tails: np.ndarray
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Sigmoid margin loss and its gradients w.r.t. entity rows and phases.

    positives: (B, 3) int array of (head, relation, tail); neg_tails: (B, K)
    corrupted tails. Loss = mean over the batch of -log sigmoid(s_pos) plus the
    mean over negatives of -log sigmoid(-s_neg).
    """
    d = model.dim
    E_re, E_im = model.entity[:, :d], model.entity[:, d:]
    h, r, t = positives[:, 0], positives[:, 1], positives[:, 2]
    B, K = neg_tails.shape
    cos, sin = np.cos(model.phase[r]), np.sin(model.phase[r])
    hre, him = E_re[h], E_im[h]
    hr_re = hre * cos - him * sin
    hr_im = hre * sin + him * cos

    g_Ere = np.zeros_like(E_re)
    g_Eim = np.zeros_like(E_im)
    g_phase = np.zeros_like(model.phase)
    g_hr_re = np.zeros_like(hr_re)
    g_hr_im = np.zeros_like(hr_im)

    # positive part
    u_re = hr_re - E_re[t]
    u_im = hr_im - E_im[t]
    m = np.hypot(u_re, u_im)
    s_pos = model.margin - m.sum(axis=1)
    loss = _softplus(-s_pos).mean()
    # d loss / d s_pos = -sigmoid(-s_pos) / B, then d s / d m = -1
    dldm = (_sigmoid(-s_pos) / B)[:, None]
    safe = np.where(m > 0, m, 1.0)
    gu_re = dldm * u_re / safe
    gu_im = dldm * u_im / safe
    g_hr_re += gu_re
    g_hr_im += gu_im
    np.add.at(g_Ere, t, -gu_re)
    np.add.at(g_Eim, t, -gu_im)

    # negative part: corrupted tails share the rotated head
    un_re = hr_re[:, None, :] - E_re[neg_tails]
    un_im = hr_im[:, None, :] - E_im[neg_tails]
    mn = np.hypot(un_re, un_im)
    s_neg = model.margin - mn.sum(axis=2)
    loss += _softplus(s_neg).mean()
    dldmn = (_sigmoid(s_neg) / (B * K))[:, :, None]  # d s / d m = -1, sign folded
    safe_n = np.where(mn > 0, mn, 1.0)
    gun_re = -dldmn * un_re / safe_n
    gun_im = -dldmn * un_im / safe_n
    g_hr_re += gun_re.sum(axis=1)
    g_hr_im += gun_im.sum(axis=1)
    np.add.at(g_Ere, neg_tails.ravel(), -gun_re.reshape(-1, d))
    np.add.at(g_Eim, neg_tails.ravel(), -gun_im.reshape(-1, d))

    # rotate the head gradient back and collect the phase gradient
    np.add.at(g_Ere, h, g_hr_re * cos + g_hr_im * sin)
    np.add.at(g_Eim, h, -g_hr_re * sin + g_hr_im * cos)
    np.add.at(g_phase, r, -g_hr_re * hr_im + g_hr_im * hr_re)

    return float(loss), np.concatenate([g_Ere, g_Eim], axis=1), g_phase


class AdamW:
    """Adam with decoupled weight decay; lr = 0 leaves parameters untouched.
    RotatE training uses it with weight_decay = 0, the trainer with its own."""

    def __init__(self, shape, weight_decay: float = 0.0):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.weight_decay = weight_decay

    def step(self, param: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        mhat = self.m / (1.0 - 0.9**self.t)
        vhat = self.v / (1.0 - 0.999**self.t)
        update = mhat / (np.sqrt(vhat) + 1e-8)
        if self.weight_decay:
            update += self.weight_decay * param
        param -= lr * update


def train_embeddings(kb: KnowledgeBase, cfg: RotateConfig) -> Tuple[RotateModel, List[float]]:
    """Pretrain embeddings on the train split; deterministic for a given seed.

    epochs=0 returns the seeded initialization untouched. The returned trace
    holds one mean batch loss per epoch.
    """
    model = init_model(kb.num_entities, kb.num_relations, cfg)
    trace: List[float] = []
    if cfg.epochs == 0:
        return model, trace
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    positives = np.asarray(kb.train, dtype=np.int64)
    n = len(positives)
    opt_e = AdamW(model.entity.shape)
    opt_p = AdamW(model.phase.shape)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for lo in range(0, n, cfg.batch_size):
            batch = positives[order[lo : lo + cfg.batch_size]]
            negs = rng.integers(0, kb.num_entities, size=(len(batch), cfg.negatives))
            loss, g_entity, g_phase = loss_and_grad(model, batch, negs)
            opt_e.step(model.entity, g_entity, cfg.lr)
            opt_p.step(model.phase, g_phase, cfg.lr)
            epoch_losses.append(loss)
        trace.append(float(np.mean(epoch_losses)))
    return model, trace


def save_embeddings(path: str, model: RotateModel) -> None:
    """Binary checkpoint: header (dim, entities, relations, margin) + raw arrays."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<qqqd", model.dim, model.num_entities, model.num_relations, model.margin
            )
        )
        fh.write(np.ascontiguousarray(model.entity, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.phase, dtype="<f8").tobytes())


def load_embeddings(path: str) -> RotateModel:
    """Read a `save_embeddings` checkpoint; a bad magic, header or length, or
    a non-finite margin, entity or phase value raises KBError("<path> ...")."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise KBError("%s is not an embedding checkpoint" % path)
        header = fh.read(32)
        if len(header) != 32:
            raise KBError("%s is truncated" % path)
        dim, n_e, n_r, margin = struct.unpack("<qqqd", header)
        if dim < 1 or n_e < 1 or n_r < 1:
            raise KBError("%s has an invalid header" % path)
        e_bytes = fh.read(n_e * 2 * dim * 8)
        p_bytes = fh.read(n_r * dim * 8)
        if len(e_bytes) != n_e * 2 * dim * 8 or len(p_bytes) != n_r * dim * 8:
            raise KBError("%s is truncated" % path)
        entity = np.frombuffer(e_bytes, dtype="<f8").reshape(n_e, 2 * dim)
        phase = np.frombuffer(p_bytes, dtype="<f8").reshape(n_r, dim)
        if fh.read(1):
            raise KBError("%s has trailing bytes" % path)
    for what, values in (("margin", margin), ("entity value", entity), ("phase value", phase)):
        if not np.isfinite(values).all():
            raise KBError("%s has a non-finite %s" % (path, what))
    return RotateModel(entity=entity.copy(), phase=phase.copy(), margin=margin)
