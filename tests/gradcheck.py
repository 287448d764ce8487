"""Central-difference gradient checks shared by unit and acceptance tests."""

from typing import Tuple

import numpy as np

import dense_oracle
import synthetic
from rulekbc import rotate, trainer

FD_STEP = 1e-5


def _rel_err(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic) + abs(numeric), 1e-8)
    return abs(analytic - numeric) / denom


def rotate_fd_check(seed: int, coords: int = 10) -> float:
    """Max relative error between analytic and numeric gradients of the
    embedding loss, over a random sample of entity and phase coordinates."""
    rng = np.random.default_rng(seed)
    n_e, n_r, dim, B, K = 7, 3, 4, 5, 3
    cfg = rotate.RotateConfig(dim=dim, margin=4.0, seed=seed, epochs=0)
    model = rotate.init_model(n_e, n_r, cfg)
    # move away from the symmetric init so gradients are generic
    model.entity += rng.normal(scale=0.3, size=model.entity.shape)
    model.phase += rng.normal(scale=0.3, size=model.phase.shape)
    positives = np.column_stack(
        [
            rng.integers(0, n_e, size=B),
            rng.integers(0, n_r, size=B),
            rng.integers(0, n_e, size=B),
        ]
    ).astype(np.int64)
    negs = rng.integers(0, n_e, size=(B, K)).astype(np.int64)
    _, g_entity, g_phase = rotate.loss_and_grad(model, positives, negs)

    def loss_only() -> float:
        return rotate.loss_and_grad(model, positives, negs)[0]

    worst = 0.0
    for _ in range(coords):
        i = int(rng.integers(n_e))
        j = int(rng.integers(2 * dim))
        orig = model.entity[i, j]
        model.entity[i, j] = orig + FD_STEP
        up = loss_only()
        model.entity[i, j] = orig - FD_STEP
        down = loss_only()
        model.entity[i, j] = orig
        worst = max(worst, _rel_err(g_entity[i, j], (up - down) / (2 * FD_STEP)))
    for _ in range(coords):
        i = int(rng.integers(n_r))
        j = int(rng.integers(dim))
        orig = model.phase[i, j]
        model.phase[i, j] = orig + FD_STEP
        up = loss_only()
        model.phase[i, j] = orig - FD_STEP
        down = loss_only()
        model.phase[i, j] = orig
        worst = max(worst, _rel_err(g_phase[i, j], (up - down) / (2 * FD_STEP)))
    return worst


def _random_relation_batch(seed: int) -> Tuple[np.ndarray, ...]:
    rng = np.random.default_rng(seed)
    H, n, E = 4, 3, 8
    S = rng.integers(-3, 4, size=(H, n, E)).astype(float)
    active = rng.random((H, n)) < 0.7
    S = S * active[:, :, None]  # inactive rules carry all-zero rows
    F = rng.random((H, E))
    Y = np.zeros((H, E))
    for h in range(H):
        golds = rng.choice(E, size=int(rng.integers(1, 4)), replace=False)
        for g in golds:
            Y[h, g] = int(rng.integers(1, 3))
    logits = rng.normal(scale=0.5, size=n + 1)
    mix = float(rng.normal(scale=0.5))
    return logits, mix, S, F, Y


def trainer_fd_check(seed: int, embedded: bool = True) -> float:
    """Max relative error for the rule-weight loss gradients (logits and mix);
    `embedded=False` checks a block without embedding rows."""
    logits, mix, S, F, Y = _random_relation_batch(seed)
    block = dense_oracle.block_from_dense(S, F if embedded else None)
    golds = dense_oracle.gold_cells(Y, block)
    _, d_logits, d_mix = trainer.relation_loss_and_grads(logits, mix, block, golds)

    def loss_at(lg, mx) -> float:
        return trainer.relation_loss_and_grads(lg, mx, block, golds)[0]

    worst = 0.0
    for j in range(len(logits)):
        bumped = logits.copy()
        bumped[j] += FD_STEP
        up = loss_at(bumped, mix)
        bumped[j] -= 2 * FD_STEP
        down = loss_at(bumped, mix)
        worst = max(worst, _rel_err(d_logits[j], (up - down) / (2 * FD_STEP)))
    up = loss_at(logits, mix + FD_STEP)
    down = loss_at(logits, mix - FD_STEP)
    worst = max(worst, _rel_err(d_mix, (up - down) / (2 * FD_STEP)))
    return worst
