"""Former versions of the RotatE loss and gradients, kept as references.

`loss_and_grad` is the arithmetic written with np.hypot and np.add.at, which
the in-place, sparse-scatter kernel agrees with within 1e-12.
`whole_batch_loss_and_grad` is that kernel as it was before its negative part
ran a block of positives at a time and its scatter a block of columns at a
time: the whole batch's moduli in one buffer and one (rows, width) cell index.
rotate.loss_and_grad must give its bits exactly.
"""

from typing import Optional, Tuple

import numpy as np

from rulekbc.rotate import RotateModel, _check_ids, _modulus, _sigmoid, _softplus


def loss_and_grad(model, positives, neg_tails):
    """(loss, d entity, d phase) for (B, 3) positives and (B, K) negatives."""
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
    dldmn = (_sigmoid(s_neg) / (B * K))[:, :, None]
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


def _scatter(targets: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, row width) sums of `rows`, each added into row targets[j].

    One bincount over the flattened (target, column) cells: bincount adds its
    weights one after another from zero, so every target gets its terms in
    stack order and the sums are the bits `np.add.at` gives.
    """
    width = rows.shape[1]
    cells = targets[:, None] * width + np.arange(width)
    return np.bincount(cells.ravel(), weights=rows.ravel(), minlength=n * width).reshape(n, width)


def whole_batch_loss_and_grad(
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

    rows and moduli are work buffers of at least (B*(K+2), 2*dim) and
    B*K*dim floats, overwritten by the call; a caller that runs many batches
    passes the same ones to every call. By default fresh ones are allocated.
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
        moduli = np.empty(B * K * d)
    if rows.shape[0] < len(targets) or rows.shape[1] != 2 * d or moduli.size < B * K * d:
        raise ValueError("work buffers too small for a batch of %d x %d" % (B, K))
    if not rows.flags.c_contiguous:
        raise ValueError("rows must be C-contiguous")  # the in-place steps reshape it
    grads = rows[: len(targets)]
    pos, neg, head = grads[:B], grads[B : B + B * K], grads[B + B * K :]
    mn = moduli[: B * K * d].reshape(B, K, d)

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

    # negative part: corrupted tails share the rotated head; neg ends as their
    # gradient rows, -d loss / d un
    np.take(E, neg_tails.ravel(), axis=0, out=neg, mode="clip")
    un = neg.reshape(B, K, 2 * d)
    un_re, un_im = un[:, :, :d], un[:, :, d:]
    np.subtract(hr_re[:, None, :], un_re, out=un_re)
    np.subtract(hr_im[:, None, :], un_im, out=un_im)
    _modulus(un_re, un_im, out=mn)
    s_neg = model.margin - mn.sum(axis=2)
    loss += _softplus(s_neg).mean()
    dldmn = (_sigmoid(s_neg) / (B * K))[:, :, None]  # d s / d m = -1, sign folded
    np.copyto(mn, 1.0, where=mn == 0)
    un *= dldmn
    un.reshape(B, K, 2, d)[:] /= mn[:, :, None]
    g_hr -= un.sum(axis=1)

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
