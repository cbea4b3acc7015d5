"""Training objectives, each with its gradient, and their sum.

Every data-dependent term returns (value, gradient) from one function, so the
value and its slope cannot drift apart; the L2 term's gradient is added by
nn.weight_grads_on_cpus, in each layer's own job. All data-dependent terms
are averaged over the batch so that the weighting constants (beta,
lambda_reg) keep their meaning across batch sizes. Reconstructions are
scored from decoder logits, so no log ever sees 0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass
class LossBreakdown:
    """One scalar per loss component; total is always the sum of all fields."""

    recon_source: float = 0.0
    kl_source: float = 0.0
    recon_target: float = 0.0
    kl_target: float = 0.0
    reg: float = 0.0
    mmd: float = 0.0
    map_loss: float = 0.0
    total: float = 0.0

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def masked_recon(a, pos, beta, batch):
    """(value, d value / d a) of the masked reconstruction of binary rows from logits a.

    pos holds the flat positions of the rows' ones in a, row-major ascending;
    every other cell is 0. With p = sigmoid(a), each cell costs
    -r log p - (1 - r) log(1 - p) - beta r log p, which is
    softplus(a) - r a + beta r softplus(-a), exact at any logit; its slope is
    (p - r) - beta r (1 - p). Both are averaged over the batch rows.
    """
    # softplus(+-a) = max(+-a, 0) + log1p(exp(-|a|)), so neither overflows;
    # the r terms are taken only at the ones, where r is exactly 1
    t = np.abs(a)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    a_pos = a.ravel()[pos]
    ones = np.maximum(np.negative(a_pos), 0.0)
    ones += t.ravel()[pos]
    ones *= beta
    ones -= a_pos
    value = float((np.maximum(a, 0.0).sum() + t.sum() + ones.sum()) / batch)
    # p = 1 / (1 + exp(-a)) in t's buffer, exactly 0 where exp overflows;
    # where r is 0 the slope is exactly p
    g = np.negative(a, out=t)
    with np.errstate(over="ignore"):
        np.exp(g, out=g)
    g += 1.0
    np.divide(1.0, g, out=g)
    flat = g.reshape(-1)
    p = flat[pos]
    flat[pos] = (p - 1.0) - beta * (1.0 - p)
    g /= batch
    return value, g


def kl_divergence(mu, logvar):
    """(value, (d value / d mu, d value / d logvar)) of KL(N(mu, exp(logvar)) || N(0, I)).

    The value is summed over dims and averaged over the batch rows.
    """
    batch = mu.shape[0]
    e = np.exp(logvar)
    per_row = 0.5 * (e + mu * mu - 1.0 - logvar).sum(axis=1)
    return float(per_row.mean()), (mu / batch, 0.5 * (e - 1.0) / batch)


def l2_reg(params, lambda_reg) -> float:
    """lambda_reg * sum of squares over every entry of a ParamStore."""
    if lambda_reg == 0.0:
        return 0.0
    # einsum reduces in place and never calls BLAS, whose threaded dot would
    # tie the value's last bits to the thread count.
    return lambda_reg * float(np.einsum("i,i->", params.flat, params.flat))


def mmd_linear(z_source, z_target):
    """(value, gradient) of the squared distance between the batches' latent means.

    The gradient is that w.r.t. each row of z_source; each row of z_target,
    of which there are as many, has its negative.
    """
    diff = z_source.mean(axis=0) - z_target.mean(axis=0)
    return float(diff @ diff), (2.0 / z_source.shape[0]) * diff


def mapping_loss(z_mapped, z_target):
    """(value, d value / d z_mapped) of the mean squared mapped-minus-target latent.

    The gradient w.r.t. z_target is the negative of the one returned.
    """
    d = z_mapped - z_target
    batch, latent = d.shape
    return float((d * d).mean(axis=1).mean()), 2.0 * d / (batch * latent)


def compose_total(**components) -> LossBreakdown:
    """LossBreakdown of the given components, the others 0; total sums them in field order."""
    out = LossBreakdown(**{name: float(v) for name, v in components.items()})
    out.total = sum(getattr(out, f.name) for f in fields(out) if f.name in components)
    return out
