"""Linked-VAE model variants for cross-domain recommendation.

The generic model runs one VAE per domain and concatenates the two latent
vectors as the target decoder's input, so source knowledge flows into target
reconstructions while the source decoder never sees target data (asymmetric
transfer). Ablations drop pieces of that design; the cold-start variant routes
the target decoder through a learned source->target latent mapping; the aux
variant fuses a per-user feature vector into the encoders via a sub-encoder.

Backpropagation is hand-derived per variant (see loss_and_grads); the sigmoid
output layer is fused with the cross-entropy terms for stability.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import losses
from .nn import DenseLayer, DenseStack, bind_layers

VARIANTS = losses.VARIANTS
LINKED_VARIANTS = ("generic", "no-mmd", "cold-start", "aux")
ABLATION_VARIANTS = ("generic", "single", "merged", "no-mmd")


@dataclass
class LatentState:
    """Posterior batch for one domain: z = mu + exp(0.5 * logvar) * eps."""

    mu: np.ndarray
    logvar: np.ndarray
    eps: np.ndarray
    z: np.ndarray


@dataclass
class ModelConfig:
    variant: str = "generic"
    beta: float = 15.0
    lambda_reg: float = 1e-4
    lr: float = 0.001
    batch_size: int = 32
    epochs: int = 100
    latent_dim: int = 128
    enc_dims_source: tuple = (256,)
    enc_dims_target: tuple = (256,)
    seed: int = 0
    inference_mode: str = "mean"
    aux_dim: int | None = None
    aux_encoder_dims: tuple = (128,)
    aux_attach: str = "both"          # "both" | "source" | "target"
    map_stop_gradient: bool = False   # mapping loss: treat z_T as a constant target
    cold_fraction: float = 0.1

    def validate(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.inference_mode not in ("mean", "sample"):
            raise ValueError(f"unknown inference_mode {self.inference_mode!r}")
        if self.aux_attach not in ("both", "source", "target"):
            raise ValueError(f"unknown aux_attach {self.aux_attach!r}")
        if self.variant == "aux" and not self.aux_dim:
            raise ValueError("aux variant requires aux_dim")
        return self

    def to_dict(self):
        d = asdict(self)
        for key in ("enc_dims_source", "enc_dims_target", "aux_encoder_dims"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        for key in ("enc_dims_source", "enc_dims_target", "aux_encoder_dims"):
            if key in d and d[key] is not None:
                d[key] = tuple(d[key])
        return cls(**d).validate()


def merge_latents(z_source, z_target):
    """Concatenate latent vectors, source half first (fixed order everywhere)."""
    if z_source.shape[-1] != z_target.shape[-1]:
        raise ValueError(
            f"latent dims differ: {z_source.shape[-1]} vs {z_target.shape[-1]}"
        )
    return np.concatenate([z_source, z_target], axis=-1)


def _recon_preact_grad(p, r, beta, batch):
    # d(masked recon)/d(pre-sigmoid activation), batch-averaged.
    return ((p - r) - beta * r * (1.0 - p)) / batch


def _kl_grads(state, batch):
    g_mu = state.mu / batch
    g_lv = 0.5 * (np.exp(state.logvar) - 1.0) / batch
    return g_mu, g_lv


class _Encoder:
    """Tanh hidden stack with parallel identity mu / logvar heads."""

    def __init__(self, hidden, mu_head, logvar_head):
        self.hidden = hidden
        self.mu_head = mu_head
        self.logvar_head = logvar_head

    @classmethod
    def create(cls, input_dim, hidden_dims, latent_dim, rng, extra_head_input=0):
        dims = [input_dim] + list(hidden_dims)
        hidden = DenseStack.create(dims, ["tanh"] * (len(dims) - 1), rng)
        head_in = dims[-1] + extra_head_input
        mu_head = DenseLayer.create(head_in, latent_dim, "identity", rng)
        logvar_head = DenseLayer.create(head_in, latent_dim, "identity", rng)
        return cls(hidden, mu_head, logvar_head)

    def forward(self, r, eps, sub_out=None):
        h, h_caches = self.hidden.forward(r)
        h_comb = h if sub_out is None else np.concatenate([h, sub_out], axis=1)
        mu, mu_cache = self.mu_head.forward(h_comb)
        logvar, lv_cache = self.logvar_head.forward(h_comb)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * eps
        state = LatentState(mu, logvar, eps, z)
        cache = {
            "h_caches": h_caches,
            "mu_cache": mu_cache,
            "lv_cache": lv_cache,
            "sigma": sigma,
            "main_width": h.shape[1],
            "has_sub": sub_out is not None,
        }
        return state, cache

    def backward(self, g_z, g_mu_extra, g_lv_extra, state, cache):
        """Backprop to the encoder input; returns the sub-encoder slice grad (or None)."""
        g_mu = g_z + g_mu_extra
        g_lv = g_z * (0.5 * cache["sigma"] * state.eps) + g_lv_extra
        g_hc = (self.mu_head.backward(g_mu, cache["mu_cache"])
                + self.logvar_head.backward(g_lv, cache["lv_cache"]))
        g_sub = None
        if cache["has_sub"]:
            w = cache["main_width"]
            g_sub = g_hc[:, w:]
            g_hc = g_hc[:, :w]
        self.hidden.backward(g_hc, cache["h_caches"])
        return g_sub

    def named_layers(self, prefix):
        return self.hidden.named_layers(f"{prefix}.h") + [
            (f"{prefix}.mu", self.mu_head), (f"{prefix}.logvar", self.logvar_head)]


def _make_decoder(input_dim, hidden_dims, output_dim, rng):
    dims = [input_dim] + list(hidden_dims) + [output_dim]
    activations = ["tanh"] * len(hidden_dims) + ["sigmoid"]
    return DenseStack.create(dims, activations, rng)


class _ModelBase:
    """Shared surface: parameter store, training step, config echo, eps draws."""

    def __init__(self, config, n_source, n_target, hosted_variants):
        config.validate()
        if config.variant not in hosted_variants:
            raise ValueError(f"{type(self).__name__} cannot host variant {config.variant!r}")
        self.config = config
        self.n_source = n_source
        self.n_target = n_target

    def params(self):
        """ParamStore of every tensor; the layers hold views into it."""
        return self._params

    def loss_and_grads(self, r_s, r_t, eps, aux=None):
        """(LossBreakdown, grads) for one batch; eps is (n_latents, batch, L) noise.

        grads is the model's own ParamStore, overwritten by the next call.
        """
        fwd = self.forward(r_s, r_t, eps, aux)
        return self.loss_breakdown(fwd), self.backward(fwd)

    def _eps_for(self, shape, mode, rng):
        if mode == "mean":
            return np.zeros(shape)
        if rng is None:
            raise ValueError("sample mode needs an rng")
        return rng.standard_normal(shape)


class LinkedVAE(_ModelBase):
    """Two per-domain VAEs joined at the latent layer (generic and kin).

    variant "generic"    - target decoder reads [z_S ; z_T], MMD on.
    variant "no-mmd"     - generic without the MMD alignment term.
    variant "cold-start" - target decoder reads tanh(W' z_S + b') only; the
                           mapping loss ties that to z_T during training.
    variant "aux"        - generic plus a sub-encoder fusing per-user features
                           into the encoder heads.
    """

    n_latents = 2   # noise blocks per training step: eps_S, eps_T

    def __init__(self, config, n_source, n_target, rng):
        super().__init__(config, n_source, n_target, LINKED_VARIANTS)
        L = config.latent_dim
        self.use_mmd = config.variant in ("generic", "aux", "cold-start")
        self.use_map = config.variant == "cold-start"
        self.aux_attached = (
            {"both": ("S", "T"), "source": ("S",), "target": ("T",)}[config.aux_attach]
            if config.variant == "aux"
            else ()
        )

        sub_out = config.aux_encoder_dims[-1] if self.aux_attached else 0
        self.enc_s = _Encoder.create(
            n_source, config.enc_dims_source, L, rng,
            extra_head_input=sub_out if "S" in self.aux_attached else 0,
        )
        self.enc_t = _Encoder.create(
            n_target, config.enc_dims_target, L, rng,
            extra_head_input=sub_out if "T" in self.aux_attached else 0,
        )
        self.dec_s = _make_decoder(
            L, list(reversed(config.enc_dims_source)), n_source, rng
        )
        dec_t_in = L if self.use_map else 2 * L
        self.dec_t = _make_decoder(
            dec_t_in, list(reversed(config.enc_dims_target)), n_target, rng
        )
        self.map_layer = (
            DenseLayer.create(L, L, "tanh", rng) if self.use_map else None
        )
        self.sub_encoder = None
        if self.aux_attached:
            dims = [config.aux_dim] + list(config.aux_encoder_dims)
            self.sub_encoder = DenseStack.create(dims, ["tanh"] * (len(dims) - 1), rng)

        named = [
            *self.enc_s.named_layers("enc_S"),
            *self.enc_t.named_layers("enc_T"),
            *self.dec_s.named_layers("dec_S"),
            *self.dec_t.named_layers("dec_T"),
        ]
        if self.map_layer is not None:
            named.append(("map", self.map_layer))
        if self.sub_encoder is not None:
            named += self.sub_encoder.named_layers("sub")
        self._params, self._grads = bind_layers(named)

    # -- forward pieces ----------------------------------------------------

    def encode(self, domain, r, eps, aux=None):
        """LatentState for one domain; aux is required when attached there."""
        enc = self.enc_s if domain == "source" else self.enc_t
        tag = "S" if domain == "source" else "T"
        sub_out = None
        if tag in self.aux_attached:
            if aux is None:
                raise ValueError(f"variant {self.config.variant!r} needs aux vectors")
            sub_out, _ = self.sub_encoder.forward(np.atleast_2d(aux))
        state, _ = enc.forward(np.atleast_2d(r), np.atleast_2d(eps), sub_out)
        return state

    def decode_target(self, z_prime):
        """Target reconstruction from the merged (2L) or mapped (L) latent."""
        out, _ = self.dec_t.forward(np.atleast_2d(z_prime))
        return out

    def map_latent(self, z_source):
        """Cold-start intermediary: tanh-linear map of the source latent."""
        if self.map_layer is None:
            raise ValueError(f"variant {self.config.variant!r} has no mapping layer")
        out, _ = self.map_layer.forward(np.atleast_2d(z_source))
        return out

    def forward(self, r_s, r_t, eps, aux=None):
        """Full training forward pass; returns a state dict for backward()."""
        eps_s, eps_t = eps
        sub_out = sub_caches = None
        if self.aux_attached:
            if aux is None:
                raise ValueError("aux vectors required for this variant")
            sub_out, sub_caches = self.sub_encoder.forward(aux)

        st_s, cache_s = self.enc_s.forward(
            r_s, eps_s, sub_out if "S" in self.aux_attached else None
        )
        st_t, cache_t = self.enc_t.forward(
            r_t, eps_t, sub_out if "T" in self.aux_attached else None
        )
        p_s, dec_s_caches = self.dec_s.forward(st_s.z)
        if self.use_map:
            z_prime, map_cache = self.map_layer.forward(st_s.z)
        else:
            z_prime, map_cache = merge_latents(st_s.z, st_t.z), None
        p_t, dec_t_caches = self.dec_t.forward(z_prime)
        return {
            "r_s": r_s, "r_t": r_t,
            "state_s": st_s, "state_t": st_t,
            "cache_s": cache_s, "cache_t": cache_t,
            "p_s": p_s, "p_t": p_t,
            "dec_s_caches": dec_s_caches, "dec_t_caches": dec_t_caches,
            "z_prime": z_prime, "map_cache": map_cache,
            "sub_caches": sub_caches,
        }

    def loss_breakdown(self, fwd):
        cfg = self.config
        st_s, st_t = fwd["state_s"], fwd["state_t"]
        parts = {
            "recon_source": losses.masked_recon(fwd["r_s"], fwd["p_s"], cfg.beta),
            "recon_target": losses.masked_recon(fwd["r_t"], fwd["p_t"], cfg.beta),
            "kl_source": losses.kl_divergence(st_s.mu, st_s.logvar),
            "kl_target": losses.kl_divergence(st_t.mu, st_t.logvar),
            "reg": losses.l2_reg(self._params, cfg.lambda_reg),
        }
        if self.use_mmd:
            parts["mmd"] = losses.mmd_linear(st_s.z, st_t.z)
        if self.use_map:
            parts["map_loss"] = losses.mapping_loss(fwd["z_prime"], st_t.z)
        return losses.compose_total(cfg.variant, **parts)

    # -- backward ----------------------------------------------------------

    def backward(self, fwd):
        cfg = self.config
        st_s, st_t = fwd["state_s"], fwd["state_t"]
        batch = fwd["r_s"].shape[0]
        L = cfg.latent_dim

        g_out_s = _recon_preact_grad(fwd["p_s"], fwd["r_s"], cfg.beta, batch)
        g_z_s = self.dec_s.backward(g_out_s, fwd["dec_s_caches"], final_preact=True)
        g_out_t = _recon_preact_grad(fwd["p_t"], fwd["r_t"], cfg.beta, batch)
        g_dec_t_in = self.dec_t.backward(g_out_t, fwd["dec_t_caches"], final_preact=True)

        if self.use_map:
            z_prime = fwd["z_prime"]
            g_map = 2.0 * (z_prime - st_t.z) / (batch * L)
            g_zp = g_dec_t_in + g_map
            g_z_t = np.zeros_like(st_t.z)
            if not cfg.map_stop_gradient:
                g_z_t -= g_map
            g_z_s += self.map_layer.backward(g_zp, fwd["map_cache"])
        else:
            g_z_s += g_dec_t_in[:, :L]
            g_z_t = g_dec_t_in[:, L:].copy()

        if self.use_mmd:
            diff = st_s.z.mean(axis=0) - st_t.z.mean(axis=0)
            g_z_s += (2.0 / batch) * diff
            g_z_t -= (2.0 / batch) * diff

        g_mu_s, g_lv_s = _kl_grads(st_s, batch)
        g_sub_s = self.enc_s.backward(g_z_s, g_mu_s, g_lv_s, st_s, fwd["cache_s"])
        g_mu_t, g_lv_t = _kl_grads(st_t, batch)
        g_sub_t = self.enc_t.backward(g_z_t, g_mu_t, g_lv_t, st_t, fwd["cache_t"])

        if self.sub_encoder is not None:
            g_sub = sum(g for g in (g_sub_s, g_sub_t) if g is not None)
            self.sub_encoder.backward(g_sub, fwd["sub_caches"])
        losses.add_l2_grad(self._params, self._grads, cfg.lambda_reg)
        return self._grads

    # -- prediction ----------------------------------------------------------

    def predict_scores(self, r_s, r_t=None, aux=None, mode=None, rng=None):
        """Ranking scores over target items; mode "mean" forces eps to zero.

        The cold-start variant never reads r_t (scores depend on the source
        row alone); the other variants treat a missing r_t as an all-zero row.
        """
        mode = mode or self.config.inference_mode
        single = np.asarray(r_s).ndim == 1
        r_s = np.atleast_2d(np.asarray(r_s, dtype=float))
        batch = r_s.shape[0]
        L = self.config.latent_dim
        eps_s = self._eps_for((batch, L), mode, rng)
        st_s = self.encode("source", r_s, eps_s, aux)
        if self.use_map:
            z_prime = self.map_latent(st_s.z)
        else:
            if r_t is None:
                r_t = np.zeros((batch, self.n_target))
            r_t = np.atleast_2d(np.asarray(r_t, dtype=float))
            eps_t = self._eps_for((batch, L), mode, rng)
            st_t = self.encode("target", r_t, eps_t, aux)
            z_prime = merge_latents(st_s.z, st_t.z)
        scores = self.decode_target(z_prime)
        return scores[0] if single else scores


class SingleVAE(_ModelBase):
    """One VAE over a single input block.

    variant "single" reconstructs the target matrix alone; variant "merged"
    reconstructs the concatenation [r_S ; r_T] with one shared latent, and
    scores are read off the target slice of the reconstruction.
    """

    n_latents = 1   # noise blocks per training step: the one encoder's eps

    def __init__(self, config, n_source, n_target, rng):
        super().__init__(config, n_source, n_target, ("single", "merged"))
        self.input_dim = n_target if config.variant == "single" else n_source + n_target
        L = config.latent_dim
        self.enc = _Encoder.create(self.input_dim, config.enc_dims_target, L, rng)
        self.dec = _make_decoder(
            L, list(reversed(config.enc_dims_target)), self.input_dim, rng
        )
        self._params, self._grads = bind_layers(
            [*self.enc.named_layers("enc"), *self.dec.named_layers("dec")]
        )

    def _input(self, r_s, r_t):
        if self.config.variant == "single":
            return r_t
        return np.concatenate([r_s, r_t], axis=1)

    def encode(self, x, eps):
        state, _ = self.enc.forward(np.atleast_2d(x), np.atleast_2d(eps))
        return state

    def forward(self, r_s, r_t, eps, aux=None):
        (eps_x,) = eps
        x = self._input(r_s, r_t)
        state, cache = self.enc.forward(x, eps_x)
        p, dec_caches = self.dec.forward(state.z)
        return {"x": x, "state": state, "cache": cache, "p": p, "dec_caches": dec_caches}

    def loss_breakdown(self, fwd):
        cfg = self.config
        return losses.compose_total(
            cfg.variant,
            recon_target=losses.masked_recon(fwd["x"], fwd["p"], cfg.beta),
            kl_target=losses.kl_divergence(fwd["state"].mu, fwd["state"].logvar),
            reg=losses.l2_reg(self._params, cfg.lambda_reg),
        )

    def backward(self, fwd):
        cfg = self.config
        batch = fwd["x"].shape[0]
        g_out = _recon_preact_grad(fwd["p"], fwd["x"], cfg.beta, batch)
        g_z = self.dec.backward(g_out, fwd["dec_caches"], final_preact=True)
        g_mu, g_lv = _kl_grads(fwd["state"], batch)
        self.enc.backward(g_z, g_mu, g_lv, fwd["state"], fwd["cache"])
        losses.add_l2_grad(self._params, self._grads, cfg.lambda_reg)
        return self._grads

    def predict_scores(self, r_s, r_t=None, aux=None, mode=None, rng=None):
        mode = mode or self.config.inference_mode
        ref = r_t if r_t is not None else r_s
        single = np.asarray(ref).ndim == 1
        batch = np.atleast_2d(np.asarray(ref)).shape[0]
        if r_t is None:
            r_t = np.zeros((batch, self.n_target))
        r_t = np.atleast_2d(np.asarray(r_t, dtype=float))
        if self.config.variant == "merged":
            if r_s is None:
                r_s = np.zeros((batch, self.n_source))
            r_s = np.atleast_2d(np.asarray(r_s, dtype=float))
            x = np.concatenate([r_s, r_t], axis=1)
        else:
            x = r_t
        eps = self._eps_for((batch, self.config.latent_dim), mode, rng)
        state = self.encode(x, eps)
        p, _ = self.dec.forward(state.z)
        scores = p[:, self.n_source:] if self.config.variant == "merged" else p
        return scores[0] if single else scores


def build_model(config, n_source, n_target, rng):
    """Instantiate the right architecture for config.variant."""
    config.validate()
    if config.variant in LINKED_VARIANTS:
        return LinkedVAE(config, n_source, n_target, rng)
    return SingleVAE(config, n_source, n_target, rng)
