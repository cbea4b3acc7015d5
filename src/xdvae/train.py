"""Mini-batch training loop, loss-history logging and checkpoint I/O.

A run is fully determined by (bundle, config): the master seed fans out into
named streams for initialization, per-epoch shuffling and reparametrization
noise, so identical inputs give bit-identical parameters.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DataError, at_least, check_fields, read_container, write_container
from .losses import LossBreakdown
from .model import ABLATION_VARIANTS, CONFIG_FIELDS, ModelConfig, architecture, build_model
from .nn import Adam, NumericError, assert_all_finite, map_on_cpus, named_rng

CHECKPOINT_MAGIC = b"XDV1"
CHECKPOINT_VERSION = 1

# Loss-plateau detector used for the end-of-run warning and optional early stop.
PLATEAU_PATIENCE = 10
PLATEAU_MIN_DELTA = 1e-4


class ModelTooLarge(MemoryError):
    """The parameter store of a config, with its optimizer moments, cannot be allocated."""


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)       # per-epoch LossBreakdown
    wall_times: list = field(default_factory=list)   # seconds per epoch
    seed: int = 0
    config: dict = field(default_factory=dict)
    users_trained: list = field(default_factory=list)
    early_stop_epoch: int | None = None
    plateau_warning: bool = False

    def totals(self):
        return [e.total for e in self.epochs]

    def to_dict(self):
        return {
            "seed": self.seed,
            "config": self.config,
            "users_trained": self.users_trained,
            "early_stop_epoch": self.early_stop_epoch,
            "plateau_warning": self.plateau_warning,
            "epochs": [e.as_dict() for e in self.epochs],
            "wall_times": self.wall_times,
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _batch_inputs(bundle, users, variant):
    """(r_s, r_t, pos) of a batch: its dense rows (r_s is None for "single") and, per
    decoder, the flat positions of the ones of the rows it reconstructs, row-major
    ascending. The merged decoder reconstructs [r_s ; r_t]. Each domain's positions
    are found once and fill its dense rows too."""
    src, tgt = bundle.source, bundle.target
    pos_t = tgt.positives(users)
    r_t = tgt.to_dense(users, pos_t)
    if variant == "single":
        return None, r_t, (pos_t,)
    pos_s = src.positives(users)
    r_s = src.to_dense(users, pos_s)
    if variant != "merged":
        return r_s, r_t, (pos_s, pos_t)
    # row u of [r_s ; r_t] starts at u * (n_s + n_t), its target block n_s cells in
    n_s, n_t = src.n_items, tgt.n_items
    both = np.concatenate([pos_s + pos_s // n_s * n_t, pos_t + (pos_t // n_t + 1) * n_s])
    return r_s, r_t, (np.sort(both),)


def train(bundle, config: ModelConfig, early_stop=False):
    """Train one model on a training bundle; returns (model, TrainHistory).

    The caller is responsible for passing training rows (held-out items
    already removed; cold-start restricted to its train users). For the aux
    variant the bundle must carry aux_vectors.
    """
    if bundle.m == 0:
        raise DataError("the training bundle has no users")
    n_s, n_t = bundle.source.n_items, bundle.target.n_items
    if config.variant == "aux":
        if bundle.aux_vectors is None:
            raise DataError("aux variant needs bundle.aux_vectors")
        if config.aux_dim != bundle.aux_vectors.shape[1]:
            raise DataError(
                f"aux_dim {config.aux_dim} != bundle aux width {bundle.aux_vectors.shape[1]}"
            )

    n_params = sum(math.prod(shape) for _, shape in
                   architecture(config.validate(), n_s, n_t).tensor_shapes())
    try:
        # a store past the address space is refused before numpy is asked
        if 8 * n_params > np.iinfo(np.intp).max:
            raise MemoryError
        model = build_model(config, n_s, n_t, named_rng(config.seed, "init"))
        adam = Adam(model.params(), lr=config.lr)
    except MemoryError:
        raise ModelTooLarge(
            f"a {config.variant!r} model of {n_params} parameters, too large to allocate"
        ) from None
    rng_shuffle = named_rng(config.seed, "shuffle")
    rng_eps = named_rng(config.seed, "eps")
    history = TrainHistory(seed=config.seed, config=config.to_dict())
    history.users_trained = list(bundle.source.user_index)

    m = bundle.m
    best_total, best_epoch = np.inf, -1

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng_shuffle.permutation(m)
        acc = {}
        seen = 0
        for at in range(0, m, config.batch_size):
            positions = order[at:at + config.batch_size]
            b = len(positions)
            r_s, r_t, pos = _batch_inputs(bundle, positions, config.variant)
            aux = (
                bundle.aux_vectors[positions]
                if config.variant == "aux" else None
            )
            eps = rng_eps.standard_normal((model.n_latents, b, config.latent_dim))
            # a diverging step is reported by the loss check and by the update,
            # which checks grads as it sweeps them, not by numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                breakdown, grads = model.loss_and_grads(r_s, r_t, pos, eps, aux)
                if not np.isfinite(breakdown.total):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, batch offset {at}"
                    )
                adam.step(model.params(), grads,
                          context=f"grads, epoch {epoch}, batch offset {at}")
            for key, value in breakdown.as_dict().items():
                acc[key] = acc.get(key, 0.0) + value * b
            seen += b
        assert_all_finite(model.params(), context=f"params, epoch {epoch}")
        epoch_break = LossBreakdown(**{k: v / seen for k, v in acc.items()})
        history.epochs.append(epoch_break)
        history.wall_times.append(time.perf_counter() - t0)

        if epoch_break.total < best_total - PLATEAU_MIN_DELTA:
            best_total, best_epoch = epoch_break.total, epoch
        elif early_stop and epoch - best_epoch >= PLATEAU_PATIENCE:
            history.early_stop_epoch = epoch
            break

    totals = history.totals()
    if len(totals) >= 10 and np.mean(totals[-5:]) > np.mean(totals[-10:-5]) + PLATEAU_MIN_DELTA:
        history.plateau_warning = True
    return model, history


# ---------------------------------------------------------------------------
# Checkpoints: XDV1 containers (see data.write_container) whose header names
# every tensor and its shape, followed by one blob, the tensors as
# little-endian float32 in declared order, which is the order of the model's
# ParamStore buffer. Round trips are bit-exact at storage precision.


# The checkpoint header (see data.check_fields). The tensor list must be the
# architecture that config and dims give, and the body must hold it.
CHECKPOINT_FIELDS = [
    ("format_version", "int", None),
    ("config", "object", CONFIG_FIELDS),
    # the top-level echoes of two config fields
    ("variant", "string", ("config.variant", lambda v, h: v == h["config"]["variant"])),
    ("seed", "int", ("config.seed", lambda v, h: v == h["config"]["seed"])),
    ("dims.n_source", "int", at_least(1)),
    ("dims.n_target", "int", at_least(1)),
    ("tensors.*.name", "string", None),
    ("tensors.*.shape.*", "int", None),
]


def save_checkpoint(model, path):
    params = model.params()
    header = {
        "format_version": CHECKPOINT_VERSION,
        "variant": model.config.variant,
        "dims": {"n_source": model.n_source, "n_target": model.n_target},
        "config": model.config.to_dict(),
        "seed": model.config.seed,
        "tensors": [{"name": name, "shape": list(a.shape)} for name, a in params.items()],
    }
    with write_container(path, CHECKPOINT_MAGIC, header) as fh:
        fh.write(params.flat.astype("<f4"))


def load_checkpoint(path, fingerprint=None):
    """Rebuild (model, config) from an XDV1 file; rejects any mismatch. `fingerprint`,
    when given, is called on the calling thread with the file bytes."""
    raw, header, at = read_container(path, CHECKPOINT_MAGIC, "a checkpoint")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {header.get('format_version')}"
        )
    # the one walk of CONFIG_FIELDS: the table's config row
    check_fields(header, CHECKPOINT_FIELDS, f"{path}: malformed checkpoint header")
    config, dims = ModelConfig.from_dict(header["config"], checked=True), header["dims"]
    model = architecture(config, dims["n_source"], dims["n_target"])
    declared = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
    # the header and the body size are checked before the store is allocated,
    # so a forged size is a data error, not an allocation attempt
    expected = model.tensor_shapes()
    if declared != expected:
        missing = sorted({n for n, _ in expected} - {n for n, _ in declared})
        extra = sorted({n for n, _ in declared} - {n for n, _ in expected})
        raise DataError(
            f"{path}: tensor list mismatch for variant {config.variant!r}: tensors must "
            f"list the architecture that config and dims give (missing {missing}, "
            f"unexpected {extra}, or a shape or order conflict)"
        )
    have, want = len(raw) - at, 4 * sum(math.prod(shape) for _, shape in expected)
    if have != want:
        problem = "truncated tensor data" if have < want else "trailing bytes after tensors"
        raise DataError(f"{path}: {problem} ({have} bytes, expected {want})")
    params = model.bind().params()

    def fill():
        # a signalling NaN would warn in the cast; the finite check below rejects it
        with np.errstate(invalid="ignore"):
            params.flat[...] = np.frombuffer(raw, dtype="<f4", offset=at)
        return params.flat.sum()

    # The calling thread takes the first item and hashes the file while a
    # second CPU, if there is one, casts the body: either alone takes about
    # 20 ms on a 27 MB checkpoint, and eval reads one per command.
    total = map_on_cpus(lambda _, job: job(), [lambda: fingerprint and fingerprint(raw), fill])[1]
    # float32 values cannot overflow a float64 sum, so it is finite iff they all are
    if not np.isfinite(total):
        raise DataError(f"{path}: non-finite tensor data")
    return model, config


# ---------------------------------------------------------------------------
# Ablation variants


def ablation_config(base: ModelConfig, name: str) -> ModelConfig:
    """Config for one ablation run derived from the generic baseline.

    single/merged keep the target-side layer widths; merged doubles hidden
    widths and the latent size so its one VAE matches the stated comparison
    architecture; the "...0" names force beta to zero.
    """
    name = name.lower()
    if name not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {name!r}")
    beta0 = name.endswith("0")
    stem = name[:-1] if beta0 else name
    cfg = replace(base, variant=stem)
    if beta0:
        cfg.beta = 0.0
    if stem == "merged":
        cfg.enc_dims_target = tuple(2 * h for h in base.enc_dims_target)
        cfg.latent_dim = 2 * base.latent_dim
    return cfg
