"""The RotatE loss and gradients written with np.hypot and np.add.at.

This is rotate.loss_and_grad's former arithmetic, kept as the reference the
in-place, sparse-scatter kernel is checked against.
"""

import numpy as np

from rulekbc.rotate import _sigmoid, _softplus


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
