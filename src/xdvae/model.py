"""Linked-VAE model variants for cross-domain recommendation.

The generic model runs one VAE per domain and concatenates the two latent
vectors as the target decoder's input, so source knowledge flows into target
reconstructions while the source decoder never sees target data (asymmetric
transfer). Ablations drop pieces of that design; the cold-start variant routes
the target decoder through a learned source->target latent mapping; the aux
variant fuses a per-user feature vector into the encoders via a sub-encoder.

Backpropagation is hand-derived per variant (see loss_and_grads): forward
computes each loss term and its gradient once (see losses), keyed by its
LossBreakdown field, and backward chains those gradients. Decoders end in an
identity layer: they output logits, the reconstruction loss is computed from
them, and scores are logits too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import losses
from .data import at_least, check_fields, one_of
from .nn import (DenseLayer, DenseStack, bind_layers, init_weights, tensor_shapes,
                 weight_grads_on_cpus)

VARIANTS = ("generic", "single", "merged", "no-mmd", "cold-start", "aux")
LINKED_VARIANTS = ("generic", "no-mmd", "cold-start", "aux")
# the ablation runs; the "0" suffix forces beta to zero
ABLATION_VARIANTS = ("generic", "single", "single0", "merged", "merged0", "no-mmd")


@dataclass
class LatentState:
    """One encoder pass: the posterior batch z = mu + sigma * eps, sigma = exp(0.5 * logvar),
    its KL term (value, gradient), and what backward reads besides: the hidden
    stack's activation list and h, the heads' input."""

    mu: np.ndarray
    logvar: np.ndarray
    eps: np.ndarray
    z: np.ndarray
    kl: tuple
    sigma: np.ndarray
    acts: list
    h: np.ndarray


# the layer-width lists of a config: tuples in memory, lists in a header
_DIMS_FIELDS = ("enc_dims_source", "enc_dims_target", "aux_encoder_dims")
# Two header fields allow one value each, so no config holds them and to_dict
# writes them: scores come from the posterior mean, and the mapping loss moves
# z_T as well as the map.
PINNED = {"inference_mode": "mean", "map_stop_gradient": False}
_FINITE = ("finite and >= 0", lambda v, config: 0 <= v < math.inf)

# A config as a header holds it (see data.check_fields): a checkpoint's config
# object, what validate checks, and what the CLI's model flags must pass.
CONFIG_FIELDS = [
    ("variant", "string", one_of(*VARIANTS)),
    ("beta", "number", _FINITE),
    ("lambda_reg", "number", _FINITE),
    ("lr", "number", ("finite and > 0", lambda v, config: 0 < v < math.inf)),
    ("batch_size", "int", at_least(1)),
    ("epochs", "int", at_least(0)),
    ("latent_dim", "int", at_least(1)),
    ("seed", "int", at_least(0)),
    ("aux_dim", "int|null", ("null or >= 1, and set for the aux variant",
                             lambda v, config: v >= 1 if v is not None
                             else config["variant"] != "aux")),
    ("aux_attach", "string", one_of("both", "source", "target")),
    ("cold_fraction", "number", ("in (0, 1)", lambda v, config: 0 < v < 1)),
    # every encoder and sub-encoder has a hidden layer
    *((key, "list", ("non-empty", lambda v, config: len(v) > 0)) for key in _DIMS_FIELDS),
    *((f"{key}.*", "int", at_least(1)) for key in _DIMS_FIELDS),
    ("inference_mode", "string", ("'mean'", lambda v, config: v == PINNED["inference_mode"])),
    ("map_stop_gradient", "bool", ("False", lambda v, config: v == PINNED["map_stop_gradient"])),
]


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
    aux_dim: int | None = None
    aux_encoder_dims: tuple = (128,)
    aux_attach: str = "both"          # "both" | "source" | "target"
    cold_fraction: float = 0.1

    def validate(self):
        """Raise DataError for the first field that breaks CONFIG_FIELDS; the
        message starts with its name."""
        check_fields(self.to_dict(), CONFIG_FIELDS, root="config")
        return self

    def to_dict(self):
        return {**{k: list(v) if k in _DIMS_FIELDS else v for k, v in asdict(self).items()},
                **PINNED}

    @classmethod
    def from_dict(cls, d, checked=False):
        """The config of a header's config object d, such as to_dict() gives; a
        field that breaks CONFIG_FIELDS, or a key that none names, raises DataError.
        checked=True skips that walk for a d whose header table already made it."""
        if not checked:
            check_fields({"config": d}, [("config", "object", CONFIG_FIELDS)])
        return cls(**{f.name: tuple(d[f.name]) if f.name in _DIMS_FIELDS else d[f.name]
                      for f in fields(cls)})


def merge_latents(z_source, z_target):
    """Concatenate latent vectors, source half first (fixed order everywhere)."""
    return np.concatenate([z_source, z_target], axis=-1)


class _Encoder:
    """Tanh hidden stack with parallel identity mu / logvar heads."""

    def __init__(self, input_dim, hidden_dims, latent_dim, extra_head_input=0):
        dims = [input_dim] + list(hidden_dims)
        self.hidden = DenseStack(dims, ["tanh"] * (len(dims) - 1))
        # the heads read the hidden output, then the sub-encoder's, if any
        self.main_width = dims[-1]
        head_in = dims[-1] + extra_head_input
        self.mu_head = DenseLayer(head_in, latent_dim, "identity")
        self.logvar_head = DenseLayer(head_in, latent_dim, "identity")

    def mean(self, r, sub_out=None, rows=0):
        """Posterior mean mu: the hidden stack and the mu head only.

        r None stands for `rows` all-zero input rows, whose first hidden
        layer runs no matmul.
        """
        h = self.hidden.forward_zeros(rows) if r is None else self.hidden.forward(r)[-1]
        h_comb = h if sub_out is None else np.concatenate([h, sub_out], axis=1)
        return self.mu_head.forward(h_comb)

    def forward(self, r, eps, sub_out=None):
        """The LatentState of one training pass, which backward reads."""
        acts = self.hidden.forward(r)
        h = acts[-1] if sub_out is None else np.concatenate([acts[-1], sub_out], axis=1)
        mu = self.mu_head.forward(h)
        logvar = self.logvar_head.forward(h)
        sigma = np.exp(0.5 * logvar)
        return LatentState(mu, logvar, eps, mu + sigma * eps, losses.kl_divergence(mu, logvar),
                           sigma, acts, h)

    def backward(self, g_z, state, jobs):
        """Queue the encoder's weight grads on jobs; returns the sub-encoder slice grad (or None).

        g_z is the gradient w.r.t. z; the KL term's is added here. The gradient
        w.r.t. the encoder input is never needed, so it is not computed.
        """
        g_mu_kl, g_lv_kl = state.kl[1]
        g_mu = g_z + g_mu_kl
        g_lv = g_z * (0.5 * state.sigma * state.eps) + g_lv_kl
        g_h = self.mu_head.backward(g_mu, state.h, state.mu, jobs)
        g_h += self.logvar_head.backward(g_lv, state.h, state.logvar, jobs)
        g_sub = g_h[:, self.main_width:] if self.mu_head.shape[1] > self.main_width else None
        self.hidden.backward(g_h[:, :self.main_width], state.acts, jobs, input_grad=False)
        return g_sub

    def named_layers(self, prefix):
        return self.hidden.named_layers(f"{prefix}.h") + [
            (f"{prefix}.mu", self.mu_head), (f"{prefix}.logvar", self.logvar_head)]


def _make_decoder(input_dim, hidden_dims, output_dim):
    dims = [input_dim] + list(hidden_dims) + [output_dim]
    activations = ["tanh"] * len(hidden_dims) + ["identity"]
    return DenseStack(dims, activations)


class _ModelBase:
    """Shared surface: parameter store, training step, config echo."""

    def __init__(self, config, n_source, n_target, hosted_variants):
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

    def loss_breakdown(self, fwd):
        """The values of the loss terms forward computed, and their total."""
        return losses.compose_total(**{name: term[0] for name, term in fwd["terms"].items()})

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
            self.sub_encoder = DenseStack(dims, ["tanh"] * (len(dims) - 1))

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
        """(sub-encoder output for enc_S, for enc_T, its activations); None where not attached."""
        if not self.aux_attached:
            return None, None, None
        if aux is None:
            raise ValueError("aux vectors required for this variant")
        acts = self.sub_encoder.forward(aux)
        return (acts[-1] if "S" in self.aux_attached else None,
                acts[-1] if "T" in self.aux_attached else None, acts)

    def forward(self, r_s, r_t, pos, eps, aux=None):
        """Training forward pass through both reconstructions; returns a state dict for backward().

        Its "dec_s", "dec_t" and "sub" are the decoders' and the sub-encoder's
        activation lists (None without one): the logits are dec_t[-1], and the
        target decoder's input dec_t[0] is the map layer's output in the
        cold-start variant. Its "terms" maps each loss term the variant
        passes, named and ordered as the LossBreakdown fields, to its (value,
        gradient).
        """
        pos_s, pos_t = pos
        eps_s, eps_t = eps
        sub_s, sub_t, sub = self._sub_outputs(aux)
        st_s = self.enc_s.forward(r_s, eps_s, sub_s)
        st_t = self.enc_t.forward(r_t, eps_t, sub_t)
        dec_s = self.dec_s.forward(st_s.z)
        z_prime = self.map_layer.forward(st_s.z) if self.use_map else merge_latents(st_s.z, st_t.z)
        dec_t = self.dec_t.forward(z_prime)
        cfg, batch = self.config, r_s.shape[0]
        terms = {
            "recon_source": losses.masked_recon(dec_s[-1], pos_s, cfg.beta, batch),
            "kl_source": st_s.kl,
            "recon_target": losses.masked_recon(dec_t[-1], pos_t, cfg.beta, batch),
            "kl_target": st_t.kl,
            # the L2 gradient is added in each layer's weight-gradient job
            "reg": (losses.l2_reg(self._params, cfg.lambda_reg), None),
        }
        if self.use_mmd:
            terms["mmd"] = losses.mmd_linear(st_s.z, st_t.z)
        if self.use_map:
            terms["map_loss"] = losses.mapping_loss(z_prime, st_t.z)
        return {"state_s": st_s, "state_t": st_t, "dec_s": dec_s, "dec_t": dec_t, "sub": sub,
                "terms": terms}

    # -- backward ----------------------------------------------------------

    def backward(self, fwd):
        """The input-gradient chain on this thread, then every weight gradient on every CPU."""
        cfg, terms = self.config, fwd["terms"]
        st_s, st_t = fwd["state_s"], fwd["state_t"]
        L = cfg.latent_dim
        jobs = []

        g_z_s = self.dec_s.backward(terms["recon_source"][1], fwd["dec_s"], jobs)
        g_dec_t_in = self.dec_t.backward(terms["recon_target"][1], fwd["dec_t"], jobs)

        if self.use_map:
            g_map = terms["map_loss"][1]
            g_zp = g_dec_t_in + g_map
            g_z_t = 0.0 - g_map   # the mapping loss's gradient w.r.t. z_T
            g_z_s += self.map_layer.backward(g_zp, st_s.z, fwd["dec_t"][0], jobs)
        else:
            g_z_s += g_dec_t_in[:, :L]
            g_z_t = g_dec_t_in[:, L:].copy()

        if self.use_mmd:
            g_mmd = terms["mmd"][1]
            g_z_s += g_mmd
            g_z_t -= g_mmd

        g_sub_s = self.enc_s.backward(g_z_s, st_s, jobs)
        g_sub_t = self.enc_t.backward(g_z_t, st_t, jobs)

        if self.sub_encoder is not None:
            g_sub = sum(g for g in (g_sub_s, g_sub_t) if g is not None)
            self.sub_encoder.backward(g_sub, fwd["sub"], jobs, input_grad=False)
        weight_grads_on_cpus(jobs, cfg.lambda_reg)
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
            z_prime = self.map_layer.forward(z_s)
        else:
            z_t = self.encode_target(r_t, source) if target is None else target
            z_prime = merge_latents(z_s, z_t)
        return self.dec_t.forward(z_prime)[-1]


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
        state = self.enc.forward(x, eps_x)
        dec = self.dec.forward(state.z)
        cfg = self.config
        terms = {"recon_target": losses.masked_recon(dec[-1], pos_x, cfg.beta, x.shape[0]),
                 "kl_target": state.kl,
                 "reg": (losses.l2_reg(self._params, cfg.lambda_reg), None)}
        return {"state": state, "dec": dec, "terms": terms}

    def backward(self, fwd):
        """The input-gradient chain on this thread, then every weight gradient on every CPU."""
        jobs = []
        g_z = self.dec.backward(fwd["terms"]["recon_target"][1], fwd["dec"], jobs)
        self.enc.backward(g_z, fwd["state"], jobs)
        weight_grads_on_cpus(jobs, self.config.lambda_reg)
        return self._grads

    def predict_scores(self, r_s, r_t, aux=None):
        """Target-item logits from the posterior mean (z = mu), the ranking scores."""
        a = self.dec.forward(self.enc.mean(self._input(r_s, r_t)))[-1]
        return a[:, self.n_source:] if self.config.variant == "merged" else a


def architecture(config, n_source, n_target):
    """The model for config.variant with its layers unbound: shapes only, nothing
    allocated. config must be valid (ModelConfig.validate); it is not checked here."""
    host = LinkedVAE if config.variant in LINKED_VARIANTS else SingleVAE
    return host(config, n_source, n_target)


def build_model(config, n_source, n_target, rng=None):
    """Instantiate the right architecture for config.variant, once config is valid.

    With rng, the weight matrices are Glorot-drawn in store order and biases
    are zero; without, every parameter stays zero for a checkpoint to fill.
    """
    model = architecture(config.validate(), n_source, n_target).bind()
    if rng is not None:
        init_weights(model.params(), rng)
    return model
