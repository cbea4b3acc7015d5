"""Linked-VAE model variants for cross-domain recommendation.

The generic model runs one VAE per domain and concatenates the two latent
vectors as the target decoder's input, so source knowledge flows into target
reconstructions while the source decoder never sees target data (asymmetric
transfer). Ablations drop pieces of that design; the cold-start variant routes
the target decoder through a learned source->target latent mapping; the aux
variant fuses a per-user feature vector into the encoders via a sub-encoder.

Backpropagation is hand-derived per variant (see loss_and_grads). Decoders
end in an identity layer: they output logits, the reconstruction loss is
computed from them, and scores are logits too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import losses
from .nn import DenseLayer, DenseStack, bind_layers, init_weights, tensor_shapes

VARIANTS = losses.VARIANTS
LINKED_VARIANTS = ("generic", "no-mmd", "cold-start", "aux")
# the ablation runs; the "0" suffix forces beta to zero
ABLATION_VARIANTS = ("generic", "single", "single0", "merged", "merged0", "no-mmd")


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
    inference_mode: str = "mean"     # scores come from the posterior mean; kept in headers
    aux_dim: int | None = None
    aux_encoder_dims: tuple = (128,)
    aux_attach: str = "both"          # "both" | "source" | "target"
    map_stop_gradient: bool = False   # mapping loss: treat z_T as a constant target
    cold_fraction: float = 0.1

    def validate(self):
        """Raise ValueError for the first bad field; the message starts with its name."""
        for name, ok, rule in (
            ("variant", self.variant in VARIANTS, f"one of {VARIANTS}"),
            ("beta", 0 <= self.beta < math.inf, "finite and >= 0"),
            ("lambda_reg", 0 <= self.lambda_reg < math.inf, "finite and >= 0"),
            ("lr", 0 < self.lr < math.inf, "finite and > 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("latent_dim", self.latent_dim >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("cold_fraction", 0 < self.cold_fraction < 1, "in (0, 1)"),
            ("inference_mode", self.inference_mode == "mean", "'mean'"),
            ("aux_attach", self.aux_attach in ("both", "source", "target"),
             "'both', 'source' or 'target'"),
            ("aux_dim", self.variant != "aux" or bool(self.aux_dim), "set for the aux variant"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
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
    return np.concatenate([z_source, z_target], axis=-1)


def _kl_grads(state, batch):
    g_mu = state.mu / batch
    g_lv = 0.5 * (np.exp(state.logvar) - 1.0) / batch
    return g_mu, g_lv


class _Encoder:
    """Tanh hidden stack with parallel identity mu / logvar heads."""

    def __init__(self, input_dim, hidden_dims, latent_dim, extra_head_input=0):
        self.input_dim = input_dim
        dims = [input_dim] + list(hidden_dims)
        self.hidden = DenseStack.create(dims, ["tanh"] * (len(dims) - 1))
        head_in = dims[-1] + extra_head_input
        self.mu_head = DenseLayer(head_in, latent_dim, "identity")
        self.logvar_head = DenseLayer(head_in, latent_dim, "identity")

    def mean(self, r, sub_out=None, rows=0):
        """Posterior mean mu: the hidden stack and the mu head only.

        r None stands for `rows` all-zero input rows, whose first hidden
        layer runs no matmul.
        """
        if r is not None:
            h = self.hidden.apply(r)
        elif self.hidden.layers:
            h = self.hidden.forward_zeros(rows)
        else:  # no hidden layer: the heads read the zero rows themselves
            h = np.zeros((rows, self.input_dim))
        h_comb = h if sub_out is None else np.concatenate([h, sub_out], axis=1)
        return self.mu_head.forward(h_comb)[0]

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
        """Write the encoder's weight grads; returns the sub-encoder slice grad (or None).

        The gradient w.r.t. the encoder input is never needed, so it is not computed.
        """
        g_mu = g_z + g_mu_extra
        g_lv = g_z * (0.5 * cache["sigma"] * state.eps) + g_lv_extra
        g_hc = self.mu_head.backward(g_mu, cache["mu_cache"])
        g_hc += self.logvar_head.backward(g_lv, cache["lv_cache"])
        g_sub = None
        if cache["has_sub"]:
            w = cache["main_width"]
            g_sub = g_hc[:, w:]
            g_hc = g_hc[:, :w]
        self.hidden.backward(g_hc, cache["h_caches"], input_grad=False)
        return g_sub

    def named_layers(self, prefix):
        return self.hidden.named_layers(f"{prefix}.h") + [
            (f"{prefix}.mu", self.mu_head), (f"{prefix}.logvar", self.logvar_head)]


def _make_decoder(input_dim, hidden_dims, output_dim):
    dims = [input_dim] + list(hidden_dims) + [output_dim]
    activations = ["tanh"] * len(hidden_dims) + ["identity"]
    return DenseStack.create(dims, activations)


class _ModelBase:
    """Shared surface: parameter store, training step, config echo."""

    def __init__(self, config, n_source, n_target, hosted_variants):
        config.validate()
        if config.variant not in hosted_variants:
            raise ValueError(f"{type(self).__name__} cannot host variant {config.variant!r}")
        self.config = config
        self.n_source = n_source
        self.n_target = n_target

    def tensor_shapes(self):
        """(name, shape) of every tensor in store order; allocates nothing."""
        return tensor_shapes(self._layers)

    def bind(self):
        """Allocate the zeroed parameter store and its gradient twin; returns self."""
        self._params, self._grads = bind_layers(self._layers)
        return self

    def params(self):
        """ParamStore of every tensor; the layers hold views into it."""
        return self._params

    def loss_and_grads(self, r_s, r_t, pos, eps, aux=None):
        """(LossBreakdown, grads) for one batch.

        pos holds, per decoder, the flat positions of the ones of the rows it
        reconstructs (train._batch_inputs builds them); eps is
        (n_latents, batch, L) noise. grads is the model's own ParamStore,
        overwritten by the next call.
        """
        fwd = self.forward(r_s, r_t, pos, eps, aux)
        return self.loss_breakdown(fwd), self.backward(fwd)


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

    def __init__(self, config, n_source, n_target):
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
        self.enc_s = _Encoder(
            n_source, config.enc_dims_source, L,
            extra_head_input=sub_out if "S" in self.aux_attached else 0,
        )
        self.enc_t = _Encoder(
            n_target, config.enc_dims_target, L,
            extra_head_input=sub_out if "T" in self.aux_attached else 0,
        )
        self.dec_s = _make_decoder(L, list(reversed(config.enc_dims_source)), n_source)
        dec_t_in = L if self.use_map else 2 * L
        self.dec_t = _make_decoder(dec_t_in, list(reversed(config.enc_dims_target)), n_target)
        self.map_layer = DenseLayer(L, L, "tanh") if self.use_map else None
        self.sub_encoder = None
        if self.aux_attached:
            dims = [config.aux_dim] + list(config.aux_encoder_dims)
            self.sub_encoder = DenseStack.create(dims, ["tanh"] * (len(dims) - 1))

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
        self._layers = named

    # -- forward pieces ----------------------------------------------------

    def _sub_outputs(self, aux):
        """(sub-encoder output for enc_S, for enc_T, caches); None where not attached."""
        if not self.aux_attached:
            return None, None, None
        if aux is None:
            raise ValueError("aux vectors required for this variant")
        out, caches = self.sub_encoder.forward(aux)
        return (out if "S" in self.aux_attached else None,
                out if "T" in self.aux_attached else None, caches)

    def forward(self, r_s, r_t, pos, eps, aux=None):
        """Training forward pass through both reconstructions; returns a state dict for backward()."""
        pos_s, pos_t = pos
        eps_s, eps_t = eps
        sub_s, sub_t, sub_caches = self._sub_outputs(aux)
        st_s, cache_s = self.enc_s.forward(r_s, eps_s, sub_s)
        st_t, cache_t = self.enc_t.forward(r_t, eps_t, sub_t)
        a_s, dec_s_caches = self.dec_s.forward(st_s.z)
        if self.use_map:
            z_prime, map_cache = self.map_layer.forward(st_s.z)
        else:
            z_prime, map_cache = merge_latents(st_s.z, st_t.z), None
        a_t, dec_t_caches = self.dec_t.forward(z_prime)
        batch, beta = r_s.shape[0], self.config.beta
        return {
            "state_s": st_s, "state_t": st_t,
            "cache_s": cache_s, "cache_t": cache_t,
            "a_s": a_s, "a_t": a_t,
            "recon_s": losses.masked_recon(a_s, pos_s, beta, batch),
            "recon_t": losses.masked_recon(a_t, pos_t, beta, batch),
            "dec_s_caches": dec_s_caches, "dec_t_caches": dec_t_caches,
            "z_prime": z_prime, "map_cache": map_cache,
            "sub_caches": sub_caches,
        }

    def loss_breakdown(self, fwd):
        cfg = self.config
        st_s, st_t = fwd["state_s"], fwd["state_t"]
        parts = {
            "recon_source": fwd["recon_s"][0],
            "kl_source": losses.kl_divergence(st_s.mu, st_s.logvar),
            "recon_target": fwd["recon_t"][0],
            "kl_target": losses.kl_divergence(st_t.mu, st_t.logvar),
            "reg": losses.l2_reg(self._params, cfg.lambda_reg),
        }
        if self.use_mmd:
            parts["mmd"] = losses.mmd_linear(st_s.z, st_t.z)
        if self.use_map:
            parts["map_loss"] = losses.mapping_loss(fwd["z_prime"], st_t.z)
        return losses.compose_total(**parts)

    # -- backward ----------------------------------------------------------

    def backward(self, fwd):
        cfg = self.config
        st_s, st_t = fwd["state_s"], fwd["state_t"]
        batch = st_s.z.shape[0]
        L = cfg.latent_dim

        g_z_s = self.dec_s.backward(fwd["recon_s"][1], fwd["dec_s_caches"])
        g_dec_t_in = self.dec_t.backward(fwd["recon_t"][1], fwd["dec_t_caches"])

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
            self.sub_encoder.backward(g_sub, fwd["sub_caches"], input_grad=False)
        losses.add_l2_grad(self._params, self._grads, cfg.lambda_reg)
        return self._grads

    # -- prediction ----------------------------------------------------------

    def encode_source(self, r_s, aux=None):
        """The source side of a prediction: (z_S = mu_S, sub-encoder output for enc_T or None)."""
        sub_s, sub_t, _ = self._sub_outputs(aux)
        return self.enc_s.mean(r_s, sub_s), sub_t

    def encode_target(self, r_t, source):
        """The target side of a prediction, z_T = mu_T, given encode_source's result.

        r_t None stands for rows with no target positive. Nothing returned
        refers to r_t, so rows built as this call's argument are freed when
        it returns.
        """
        z_s, sub_t = source
        return self.enc_t.mean(r_t, sub_t, rows=len(z_s))

    def predict_scores(self, r_s, r_t, aux=None, source=None, target=None):
        """Target-item logits from the posterior means (z = mu), the ranking scores.

        source is encode_source(r_s, aux), computed here when absent; r_s and
        aux are then not read. target is encode_target(r_t, source), likewise;
        r_t is then not read. r_t None stands for rows with no target
        positive. The cold-start variant never reads r_t: its scores depend
        on the source row alone, through the mapped source latent.
        """
        if source is None:
            source = self.encode_source(r_s, aux)
        z_s = source[0]
        if self.use_map:
            z_prime, _ = self.map_layer.forward(z_s)
        else:
            z_t = self.encode_target(r_t, source) if target is None else target
            z_prime = merge_latents(z_s, z_t)
        return self.dec_t.apply(z_prime)


class SingleVAE(_ModelBase):
    """One VAE over a single input block.

    variant "single" reconstructs the target matrix alone; variant "merged"
    reconstructs the concatenation [r_S ; r_T] with one shared latent, and
    scores are read off the target slice of the reconstruction.
    """

    n_latents = 1   # noise blocks per training step: the one encoder's eps

    def __init__(self, config, n_source, n_target):
        super().__init__(config, n_source, n_target, ("single", "merged"))
        self.input_dim = n_target if config.variant == "single" else n_source + n_target
        L = config.latent_dim
        self.enc = _Encoder(self.input_dim, config.enc_dims_target, L)
        self.dec = _make_decoder(L, list(reversed(config.enc_dims_target)), self.input_dim)
        self._layers = [*self.enc.named_layers("enc"), *self.dec.named_layers("dec")]

    def _input(self, r_s, r_t):
        if self.config.variant == "single":
            return r_t
        return np.concatenate([r_s, r_t], axis=1)

    def forward(self, r_s, r_t, pos, eps, aux=None):
        (pos_x,) = pos
        (eps_x,) = eps
        x = self._input(r_s, r_t)
        state, cache = self.enc.forward(x, eps_x)
        a, dec_caches = self.dec.forward(state.z)
        return {"state": state, "cache": cache, "a": a, "dec_caches": dec_caches,
                "recon": losses.masked_recon(a, pos_x, self.config.beta, x.shape[0])}

    def loss_breakdown(self, fwd):
        cfg = self.config
        return losses.compose_total(
            recon_target=fwd["recon"][0],
            kl_target=losses.kl_divergence(fwd["state"].mu, fwd["state"].logvar),
            reg=losses.l2_reg(self._params, cfg.lambda_reg),
        )

    def backward(self, fwd):
        cfg = self.config
        batch = fwd["state"].z.shape[0]
        g_z = self.dec.backward(fwd["recon"][1], fwd["dec_caches"])
        g_mu, g_lv = _kl_grads(fwd["state"], batch)
        self.enc.backward(g_z, g_mu, g_lv, fwd["state"], fwd["cache"])
        losses.add_l2_grad(self._params, self._grads, cfg.lambda_reg)
        return self._grads

    def predict_scores(self, r_s, r_t, aux=None):
        """Target-item logits from the posterior mean (z = mu), the ranking scores."""
        a = self.dec.apply(self.enc.mean(self._input(r_s, r_t)))
        return a[:, self.n_source:] if self.config.variant == "merged" else a


def architecture(config, n_source, n_target):
    """The model for config.variant with its layers unbound: shapes only, nothing allocated."""
    config.validate()
    host = LinkedVAE if config.variant in LINKED_VARIANTS else SingleVAE
    return host(config, n_source, n_target)


def build_model(config, n_source, n_target, rng=None):
    """Instantiate the right architecture for config.variant.

    With rng, the weight matrices are Glorot-drawn in store order and biases
    are zero; without, every parameter stays zero for a checkpoint to fill.
    """
    model = architecture(config, n_source, n_target).bind()
    if rng is not None:
        init_weights(model.params(), rng)
    return model
