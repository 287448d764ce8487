"""Rotation embeddings: complex entity vectors, unit-modulus relation rotations.

score(h, r, t) = margin - || emb(h) * e^(i*phase(r)) - emb(t) ||_1 where the L1
norm sums the complex moduli sqrt(re^2 + im^2) over the dimensions. Entity
vectors store the real parts in the first half and the imaginary parts in the
second half of each row.
`score_tails` scores whole tail rows for a list of heads, a block of heads at a
time; a head's row is the same bits whichever block it is scored in. Training
keeps the analytic gradients explicit so they can be checked against finite
differences. Besides its (B*(K+2), 2*dim) stack of gradient rows, a batch of
B positives with K negatives each holds temporaries of fixed size: the
negative part's moduli go through one buffer a block of positives at a time,
and the scatter of the stack into entity rows a block of columns at a time.
"""

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .kb import KBError, KnowledgeBase
from .settings import RotateConfig

_MAGIC = b"RKE1"
_HEAD_BLOCK = 32  # heads per block in score_tails; (block, entities) buffers stay in cache
# floats of loss_and_grad's default moduli buffer, which holds the negative
# part's moduli for one block of positives (512 KiB)
_NEGATIVE_BLOCK = 1 << 16
# columns per bincount in _scatter: its cell index and the block's weights
# are (rows, 16) arrays, a quarter of a dense-shaped batch's gradient stack
_SCATTER_COLUMNS = 16


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


def _modulus(re: np.ndarray, im: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Complex moduli sqrt(re^2 + im^2), into `out` if given. Unlike np.hypot
    it does not guard the squares against overflow, which embedding values
    never come near, and it is several times faster."""
    out = np.multiply(re, re, out=out)
    out += im * im
    return np.sqrt(out, out=out)


def score(model: RotateModel, head: int, relation: int, tail: int) -> float:
    _check_ids(model, head, relation, tail)
    hr_re, hr_im = _rotated_head(model, head, relation)
    d = model.dim
    u_re = hr_re - model.entity[tail, :d]
    u_im = hr_im - model.entity[tail, d:]
    return float(model.margin - _modulus(u_re, u_im).sum())


def score_tails(model: RotateModel, heads: Sequence[int], relation: int) -> np.ndarray:
    """Scores for (h, relation, t) over every head h of `heads` and every
    entity t, as a (len(heads), entities) array.

    Heads are rotated and scored in blocks: per complex dimension, the moduli
    sqrt(dre^2 + dim^2) against every entity are added into the block's rows,
    so each element sums its dimensions in order and a row does not depend on
    the other heads of its block. `score` sums the same moduli pairwise, so
    the two agree within 1e-12 but are not bit-equal.
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


def _scatter(targets: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, row width) sums of `rows`, each added into row targets[j].

    One bincount per block of _SCATTER_COLUMNS columns, over the flattened
    (target, column) cells of that block; every block reuses one cell index.
    bincount adds its weights one after another from zero, so every target
    gets its terms in stack order and the sums are the bits `np.add.at`
    gives.
    """
    width = rows.shape[1]
    step = min(width, _SCATTER_COLUMNS)
    cells = targets[:, None] * step + np.arange(step)
    out = np.empty((n, width))
    for lo in range(0, width, step):
        w = min(step, width - lo)
        sums = np.bincount(cells[:, :w].ravel(), weights=rows[:, lo : lo + w].ravel(), minlength=n * step)
        out[:, lo : lo + w] = sums.reshape(n, step)[:, :w]
    return out


def _moduli_buffer(B: int, K: int, d: int) -> np.ndarray:
    """The default `moduli` of `loss_and_grad`: about _NEGATIVE_BLOCK floats,
    and at least one positive's K * d."""
    return np.empty(min(B, max(1, _NEGATIVE_BLOCK // (K * d))) * K * d)


def loss_and_grad(
    model: RotateModel,
    positives: np.ndarray,
    neg_tails: np.ndarray,
    rows: Optional[np.ndarray] = None,
    moduli: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Sigmoid margin loss and its gradients w.r.t. entity rows and phases.

    positives: (B, 3) int array of (head, relation, tail); neg_tails: (B, K)
    corrupted tails. Loss = mean over the batch of -log sigmoid(s_pos) plus the
    mean over negatives of -log sigmoid(-s_neg).

    rows and moduli are work buffers of at least (B*(K+2), 2*dim) and K*dim
    floats, overwritten by the call; a caller that runs many batches passes
    the same ones to every call. By default fresh ones are allocated, moduli
    of about _NEGATIVE_BLOCK floats. The negative part runs a block of as
    many positives as moduli holds at a time; every step of it is per
    positive, so the result is the same bits whatever the block.
    """
    d = model.dim
    h, r, t = positives[:, 0], positives[:, 1], positives[:, 2]
    B, K = neg_tails.shape
    # the entity row each stacked gradient row is added into
    targets = np.concatenate([t, neg_tails.ravel(), h])
    _check_ids(model, h, r, targets)
    if rows is None:
        rows = np.empty((len(targets), 2 * d))
    if moduli is None:
        moduli = _moduli_buffer(B, K, d)
    if rows.shape[0] < len(targets) or rows.shape[1] != 2 * d or moduli.size < K * d:
        raise ValueError("work buffers too small for a batch of %d x %d" % (B, K))
    if not rows.flags.c_contiguous:
        raise ValueError("rows must be C-contiguous")  # the in-place steps reshape it
    grads = rows[: len(targets)]
    pos, neg, head = grads[:B], grads[B : B + B * K], grads[B + B * K :]

    E = model.entity
    cos, sin = np.cos(model.phase[r]), np.sin(model.phase[r])
    hre, him = E[h, :d], E[h, d:]
    hr_re = hre * cos - him * sin
    hr_im = hre * sin + him * cos

    # positive part; pos ends as the tails' gradient rows, -d loss / d u
    np.take(E, t, axis=0, out=pos, mode="clip")  # ids checked above
    u_re, u_im = pos[:, :d], pos[:, d:]
    np.subtract(hr_re, u_re, out=u_re)
    np.subtract(hr_im, u_im, out=u_im)
    m = _modulus(u_re, u_im)
    s_pos = model.margin - m.sum(axis=1)
    loss = _softplus(-s_pos).mean()
    # d loss / d s_pos = -sigmoid(-s_pos) / B, then d s / d m = -1
    dldm = (_sigmoid(-s_pos) / B)[:, None]
    np.copyto(m, 1.0, where=m == 0)  # a zero modulus has zero differences
    pos *= -dldm
    pos.reshape(B, 2, d)[:] /= m[:, None]
    g_hr = -pos

    # negative part, a block of positives at a time: corrupted tails share
    # the rotated head; neg ends as their gradient rows, -d loss / d un
    np.take(E, neg_tails.ravel(), axis=0, out=neg, mode="clip")
    un_all = neg.reshape(B, K, 2 * d)
    s_neg = np.empty((B, K))
    step = min(B, moduli.size // (K * d))
    for lo in range(0, B, step):
        hi = min(lo + step, B)
        un, mn = un_all[lo:hi], moduli[: (hi - lo) * K * d].reshape(hi - lo, K, d)
        un_re, un_im = un[:, :, :d], un[:, :, d:]
        np.subtract(hr_re[lo:hi, None, :], un_re, out=un_re)
        np.subtract(hr_im[lo:hi, None, :], un_im, out=un_im)
        _modulus(un_re, un_im, out=mn)
        s_neg[lo:hi] = model.margin - mn.sum(axis=2)
        dldmn = (_sigmoid(s_neg[lo:hi]) / (B * K))[:, :, None]  # d s / d m = -1, sign folded
        np.copyto(mn, 1.0, where=mn == 0)
        un *= dldmn
        un.reshape(hi - lo, K, 2, d)[:] /= mn[:, :, None]
        g_hr[lo:hi] -= un.sum(axis=1)
    loss += _softplus(s_neg).mean()

    # rotate the head gradient back and collect the phase gradient
    g_re, g_im = g_hr[:, :d], g_hr[:, d:]
    np.multiply(g_re, cos, out=head[:, :d])
    head[:, :d] += g_im * sin
    np.multiply(g_im, cos, out=head[:, d:])
    head[:, d:] -= g_re * sin
    hr_re *= g_im
    hr_im *= g_re
    hr_re -= hr_im  # the phase rows

    g_entity = _scatter(targets, grads, model.num_entities)
    g_phase = _scatter(r, hr_re, model.num_relations)
    return float(loss), g_entity, g_phase


class TrainingDiverged(KBError):
    """A training loss or parameter that is no longer finite, or a numpy
    overflow or invalid operation on the way to one: raised in or after the
    epoch it appears in, before anything is written."""

    def __init__(self, what: str, epoch: int, lower: str):
        super().__init__(
            "%s diverged at epoch %d: its loss or parameters are not finite; lower %s" % (what, epoch, lower)
        )


@contextmanager
def training_epoch(what: str, epoch: int, lower: str):
    """Run one epoch of `what` (1-based `epoch`) with numpy's overflow and
    invalid-operation warnings raised as errors. Each, and a Python float
    overflow (a learning rate's decay factor raised to a power), is reported
    as the TrainingDiverged that names the settings to lower, so a diverging
    run ends with its error alone, not a RuntimeWarning or traceback."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise TrainingDiverged(what, epoch, lower) from exc


def check_finite(*values) -> None:
    """Raise FloatingPointError unless every value is finite; inside
    `training_epoch` it ends the run as TrainingDiverged."""
    if not all(np.isfinite(v).all() for v in values):
        raise FloatingPointError("a loss or parameter is not finite")


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


# how numpy's ValueError starts when it refuses a shape too large to size
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded")


def train_embeddings(kb: KnowledgeBase, cfg: RotateConfig) -> Tuple[RotateModel, List[float]]:
    """Pretrain embeddings on the train split; deterministic for a given seed.

    epochs=0 returns the seeded initialization untouched. The returned trace
    holds one mean batch loss per epoch. A model or work buffer that cannot
    be allocated raises KBError naming the [rotate] settings to lower.
    """
    trace: List[float] = []
    positives = kb.arrays["train"]
    n = len(positives)
    try:
        model = init_model(kb.num_entities, kb.num_relations, cfg)
        if cfg.epochs == 0:
            return model, trace
        opt_e = AdamW(model.entity.shape)
        opt_p = AdamW(model.phase.shape)
        # loss_and_grad's work buffers, sized for a full batch
        full = min(cfg.batch_size, n)
        rows = np.empty((full * (cfg.negatives + 2), 2 * cfg.dim))
        moduli = _moduli_buffer(full, cfg.negatives, cfg.dim)
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_BIG):
            raise
        raise KBError("%s; lower [rotate] dim, negatives or batch_size" % str(exc).rstrip(".")) from exc
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    for epoch in range(1, cfg.epochs + 1):
        with training_epoch("RotatE training", epoch, "[rotate] lr or margin"):
            order = rng.permutation(n)
            epoch_losses = []
            for lo in range(0, n, cfg.batch_size):
                batch = positives[order[lo : lo + cfg.batch_size]]
                negs = rng.integers(0, kb.num_entities, size=(len(batch), cfg.negatives))
                loss, g_entity, g_phase = loss_and_grad(model, batch, negs, rows, moduli)
                opt_e.step(model.entity, g_entity, cfg.lr)
                opt_p.step(model.phase, g_phase, cfg.lr)
                epoch_losses.append(loss)
            trace.append(float(np.mean(epoch_losses)))
            check_finite(trace[-1], model.entity, model.phase)
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
        # checked before any read, so a corrupt header allocates nothing
        size, expected = os.fstat(fh.fileno()).st_size, fh.tell() + 8 * dim * (2 * n_e + n_r)
        if size != expected:
            raise KBError("%s %s" % (path, "is truncated" if size < expected else "has trailing bytes"))
        entity = np.frombuffer(fh.read(n_e * 2 * dim * 8), dtype="<f8").reshape(n_e, 2 * dim)
        phase = np.frombuffer(fh.read(n_r * dim * 8), dtype="<f8").reshape(n_r, dim)
    for what, values in (("margin", margin), ("entity value", entity), ("phase value", phase)):
        if not np.isfinite(values).all():
            raise KBError("%s has a non-finite %s" % (path, what))
    return RotateModel(entity=entity.copy(), phase=phase.copy(), margin=margin)
