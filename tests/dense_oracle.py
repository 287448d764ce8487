"""The rule-weight kernel written over a dense (heads, rules, entities) tensor.

This is the trainer's former arithmetic, kept as the reference the sparse
kernel is checked against, with converters from its dense inputs (S, Y) to
the kernel's block and gold cells. A block without embedding rows is
checked against the oracle at F = 0.
"""

import numpy as np

from rulekbc import trainer


def masked_weights(logits: np.ndarray, active: np.ndarray) -> np.ndarray:
    n = active.shape[-1]
    full = np.broadcast_to(logits, active.shape[:-1] + (n + 1,)).copy()
    full[..., :n][~active] = -np.inf
    return trainer.softmax(full, axis=-1)


def forward(logits, mix_logit, S, F, active):
    """Z, W, rule part R and embedding part Emb for S (H, n, E), F (H, E)."""
    W = masked_weights(logits, active)
    alpha = trainer.sigmoid(mix_logit)
    R = np.einsum("hn,hne->he", W[:, :-1], S)
    Emb = W[:, -1:] * F
    Z = alpha * R + (1.0 - alpha) * Emb
    return Z, W, R, Emb


def relation_loss_and_grads(logits, mix_logit, S, F, Y, active):
    """Y: (H, E) gold multiplicities. Returns (loss, d logits, d mix_logit)."""
    Z, W, R, Emb = forward(logits, mix_logit, S, F, active)
    counts = Y.sum(axis=1)
    total = counts.sum()
    if total == 0:
        return 0.0, np.zeros_like(logits), 0.0
    zmax = Z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(Z - zmax).sum(axis=1)) + zmax[:, 0]
    loss = float((counts * logsum - (Y * Z).sum(axis=1)).sum() / total)
    P = trainer.softmax(Z, axis=1)
    dZ = (counts[:, None] * P - Y) / total
    alpha = trainer.sigmoid(mix_logit)
    d_alpha = float((dZ * (R - Emb)).sum())
    d_mix = d_alpha * alpha * (1.0 - alpha)
    G = np.empty_like(W)
    G[:, :-1] = alpha * np.einsum("he,hne->hn", dZ, S)
    G[:, -1] = (1.0 - alpha) * (dZ * F).sum(axis=1)
    inner = (W * G).sum(axis=1, keepdims=True)
    d_logits = (W * (G - inner)).sum(axis=0)
    return loss, d_logits, d_mix


def block_from_dense(S: np.ndarray, F):
    """The kernel's block for evidence S (H, n, E) and embedding rows F, or
    None for a block without them (rows of zeros)."""
    head, rule, tail = np.nonzero(S)
    H, n, E = S.shape
    return trainer._Block(head, rule, tail, S[head, rule, tail], n, (H, E), F)


def gold_cells(Y: np.ndarray, block):
    """The kernel's golds for gold multiplicities Y (H, E) of `block`."""
    cells = np.flatnonzero(Y)
    return trainer._golds(block, cells, Y.reshape(-1)[cells].astype(float))


def dense_evidence(block) -> np.ndarray:
    """The (H, n, E) tensor of a block's nonzeros."""
    H, E = block.shape
    S = np.zeros((H, block.active.shape[1], E))
    S[block.head, block.rule, block.key % E] = block.value
    return S
