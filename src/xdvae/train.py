"""Mini-batch training loop, loss-history logging and checkpoint I/O.

A run is fully determined by (bundle, config): the master seed fans out into
named streams for initialization, per-epoch shuffling and reparametrization
noise, so identical inputs give bit-identical parameters.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .data import DataError
from .losses import LossBreakdown
from .model import ABLATION_VARIANTS, ModelConfig, build_model
from .nn import Adam, NumericError, assert_all_finite, named_rng

CHECKPOINT_MAGIC = b"XDV1"
CHECKPOINT_VERSION = 1

# Loss-plateau detector used for the end-of-run warning and optional early stop.
PLATEAU_PATIENCE = 10
PLATEAU_MIN_DELTA = 1e-4


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


def _batch_inputs(bundle, positions, need_source, need_target):
    r_s = bundle.source.to_dense(positions) if need_source else None
    r_t = bundle.target.to_dense(positions) if need_target else None
    return r_s, r_t


def train(bundle, config: ModelConfig, early_stop=False):
    """Train one model on a training bundle; returns (model, TrainHistory).

    The caller is responsible for passing training rows (held-out items
    already removed; cold-start restricted to its train users). For the aux
    variant the bundle must carry aux_vectors.
    """
    config.validate()
    n_s, n_t = bundle.source.n_items, bundle.target.n_items
    if config.variant == "aux":
        if bundle.aux_vectors is None:
            raise DataError("aux variant needs bundle.aux_vectors")
        if config.aux_dim != bundle.aux_vectors.shape[1]:
            raise DataError(
                f"aux_dim {config.aux_dim} != bundle aux width {bundle.aux_vectors.shape[1]}"
            )

    model = build_model(config, n_s, n_t, named_rng(config.seed, "init"))
    adam = Adam(model.params(), lr=config.lr)
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
            r_s, r_t = _batch_inputs(
                bundle, positions,
                need_source=(config.variant != "single"),
                need_target=True,
            )
            aux = (
                bundle.aux_vectors[positions]
                if config.variant == "aux" else None
            )
            eps = rng_eps.standard_normal((model.n_latents, b, config.latent_dim))
            breakdown, grads = model.loss_and_grads(r_s, r_t, eps, aux)
            if not np.isfinite(breakdown.total):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch offset {at}"
                )
            assert_all_finite(grads, context=f"grads, epoch {epoch}, batch offset {at}")
            adam.step(model.params(), grads)
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
# Checkpoints: XDV1 = magic, u32 header length, canonical-JSON header naming
# every tensor and its shape, then the tensors as little-endian float32 in
# declared order, which is the order of the model's ParamStore buffer. Round
# trips are bit-exact at storage precision.


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
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(params.flat.astype("<f4"))


def load_checkpoint(path):
    """Rebuild (model, config) from an XDV1 file; rejects any mismatch."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    if len(raw) < 8:
        raise DataError(f"{path}: truncated header")
    (head_len,) = struct.unpack("<I", raw[4:8])
    try:
        header = json.loads(raw[8:8 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt header ({e})") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: corrupt header (not a JSON object)")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {header.get('format_version')}"
        )
    # Header fields come from outside the program: a missing key, a wrong type
    # or a bad value anywhere below is a malformed file, not a crash.
    try:
        config = ModelConfig.from_dict(header["config"])
        variant = header["variant"]
        dims = header["dims"]
        model = build_model(config, dims["n_source"], dims["n_target"])
        declared = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(
            f"{path}: malformed checkpoint header ({type(e).__name__}: {e})"
        ) from None
    if config.variant != variant:
        raise DataError(f"{path}: variant mismatch between header fields")
    params = model.params()
    expected = [(name, p.shape) for name, p in params.items()]
    if declared != expected:
        missing = sorted({n for n, _ in expected} - {n for n, _ in declared})
        extra = sorted({n for n, _ in declared} - {n for n, _ in expected})
        raise DataError(
            f"{path}: tensor list mismatch for variant {config.variant!r} "
            f"(missing {missing}, unexpected {extra}, or a shape or order conflict)"
        )
    at = 8 + head_len
    have, want = len(raw) - at, 4 * params.flat.size
    if have != want:
        problem = "truncated tensor data" if have < want else "trailing bytes after tensors"
        raise DataError(f"{path}: {problem} ({have} bytes, expected {want})")
    # a signalling NaN would warn in the cast; the finite check below rejects it
    with np.errstate(invalid="ignore"):
        params.flat[...] = np.frombuffer(raw, dtype="<f4", offset=at)
    # float32 values cannot overflow a float64 sum, so it is finite iff they all are
    if not np.isfinite(params.flat.sum()):
        raise DataError(f"{path}: non-finite tensor data")
    return model, config


# ---------------------------------------------------------------------------
# Ablation suite


def ablation_config(base: ModelConfig, name: str) -> ModelConfig:
    """Config for one ablation run derived from the generic baseline.

    single/merged keep the target-side layer widths; merged doubles hidden
    widths and the latent size so its one VAE matches the stated comparison
    architecture; the "...0" names force beta to zero.
    """
    name = name.lower()
    beta0 = name.endswith("0")
    stem = name[:-1] if beta0 else name
    if stem not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {name!r}")
    cfg = ModelConfig.from_dict(base.to_dict())
    cfg.variant = stem
    if beta0:
        cfg.beta = 0.0
    if stem == "merged":
        cfg.enc_dims_target = tuple(2 * h for h in base.enc_dims_target)
        cfg.latent_dim = 2 * base.latent_dim
    return cfg


def run_variant_suite(bundle, base_config, variants, early_stop=False):
    """Train each requested ablation under identical seeds and shared data.

    Returns {variant name: (model, history)}; variant names may carry the
    "0" suffix meaning beta forced to zero.
    """
    out = {}
    for name in variants:
        cfg = ablation_config(base_config, name)
        out[name] = train(bundle, cfg, early_stop=early_stop)
    return out
