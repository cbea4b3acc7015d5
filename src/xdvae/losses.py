"""Scalar training objectives and their composition per model variant.

All data-dependent terms are averaged over the batch so that the weighting
constants (beta, lambda_reg) keep their meaning across batch sizes.
Reconstructions are scored from decoder logits, so no log ever sees 0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .nn import BLOCK, blocks

VARIANTS = ("generic", "single", "merged", "no-mmd", "cold-start", "aux")

# Components entering each variant's total (absent ones are forced to zero).
_VARIANT_TERMS = {
    "generic": ("recon_source", "kl_source", "recon_target", "kl_target", "reg", "mmd"),
    "no-mmd": ("recon_source", "kl_source", "recon_target", "kl_target", "reg"),
    "single": ("recon_target", "kl_target", "reg"),
    "merged": ("recon_target", "kl_target", "reg"),
    "cold-start": (
        "recon_source", "kl_source", "recon_target", "kl_target", "reg", "mmd", "map_loss",
    ),
    "aux": ("recon_source", "kl_source", "recon_target", "kl_target", "reg", "mmd"),
}


@dataclass
class LossBreakdown:
    """One scalar per loss component; total is always the sum of all fields."""

    recon_source: float = 0.0
    recon_target: float = 0.0
    kl_source: float = 0.0
    kl_target: float = 0.0
    reg: float = 0.0
    mmd: float = 0.0
    map_loss: float = 0.0
    total: float = 0.0

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _as_batch(x):
    x = np.asarray(x, dtype=float)
    return x.reshape(1, -1) if x.ndim == 1 else x


def masked_recon(r, a, beta) -> float:
    """Cross-entropy of targets r under logits a, plus beta times that of the positives.

    With p = sigmoid(a), -r log p - (1 - r) log(1 - p) - beta r log p is
    softplus(a) - r a + beta r softplus(-a) per cell, exact at any logit.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    r = _as_batch(r)
    a = _as_batch(a)
    if r.shape != a.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {a.shape}")
    # softplus(+-a) = max(+-a, 0) + log1p(exp(-|a|)), so neither overflows;
    # the r terms are taken only where r is nonzero
    t = np.abs(a)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    at = np.flatnonzero(r != 0)
    a_pos = a.ravel()[at]
    pos = np.maximum(np.negative(a_pos), 0.0)
    pos += t.ravel()[at]
    pos *= beta
    pos -= a_pos
    pos *= r.ravel()[at]
    return float((np.maximum(a, 0.0).sum() + t.sum() + pos.sum()) / a.shape[0])


def kl_divergence(mu, logvar) -> float:
    """KL(N(mu, exp(logvar)) || N(0, I)), summed over dims, averaged over the batch."""
    mu = _as_batch(mu)
    logvar = _as_batch(logvar)
    per_row = 0.5 * (np.exp(logvar) + mu * mu - 1.0 - logvar).sum(axis=1)
    return float(per_row.mean())


def l2_reg(params, lambda_reg) -> float:
    """lambda_reg * sum of squares over every entry of a ParamStore."""
    if lambda_reg < 0:
        raise ValueError(f"lambda_reg must be >= 0, got {lambda_reg}")
    if lambda_reg == 0.0:
        return 0.0
    # einsum reduces in place and never calls BLAS, whose threaded dot would
    # tie the value's last bits to the thread count.
    return lambda_reg * float(np.einsum("i,i->", params.flat, params.flat))


def add_l2_grad(params, grads, lambda_reg):
    """Add the gradient of l2_reg, 2 * lambda_reg * params, into grads."""
    if lambda_reg:
        buf = np.empty(min(BLOCK, params.flat.size))
        for s in blocks(params.flat.size):
            p = params.flat[s]
            grads.flat[s] += np.multiply(2.0 * lambda_reg, p, out=buf[:p.size])


def mmd_linear(z_source, z_target) -> float:
    """Squared distance between the two batches' latent means."""
    z_source = _as_batch(z_source)
    z_target = _as_batch(z_target)
    if z_source.shape[1] != z_target.shape[1]:
        raise ValueError(
            f"latent dim mismatch {z_source.shape[1]} vs {z_target.shape[1]}"
        )
    diff = z_source.mean(axis=0) - z_target.mean(axis=0)
    return float(diff @ diff)


def mapping_loss(z_mapped, z_target) -> float:
    """Mean squared difference between mapped and encoded target latents."""
    z_mapped = _as_batch(z_mapped)
    z_target = _as_batch(z_target)
    if z_mapped.shape != z_target.shape:
        raise ValueError(f"shape mismatch {z_mapped.shape} vs {z_target.shape}")
    d = z_mapped - z_target
    return float((d * d).mean(axis=1).mean())


def compose_total(variant: str, **components) -> LossBreakdown:
    """Assemble a LossBreakdown for a variant; unused components are zeroed.

    Raises if a component the variant needs is missing.
    """
    if variant not in _VARIANT_TERMS:
        raise ValueError(f"unknown variant {variant!r}")
    terms = _VARIANT_TERMS[variant]
    missing = [t for t in terms if t not in components]
    if missing:
        raise ValueError(f"variant {variant!r} missing components: {missing}")
    out = LossBreakdown()
    for t in terms:
        setattr(out, t, float(components[t]))
    out.total = sum(getattr(out, t) for t in terms)
    return out
