"""Dense-network substrate: layers, parameter store, Glorot init, Adam, finite checks.

Everything operates on row batches (shape ``(batch, dim)``) in float64.
A model's parameters are named views of one buffer (ParamStore), so the
optimizer, the L2 term, the finite check and checkpointing stay generic.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Mapping

import numpy as np

# Elements per chunk of element-wise passes over a whole store, bounding their
# temporaries; whole-buffer expressions raised peak RSS and slowed the epoch.
BLOCK = 32768


class NumericError(RuntimeError):
    """Raised when a non-finite value shows up in parameters, gradients or losses."""


def named_rng(seed: int, label: str) -> np.random.Generator:
    """Child generator for one named randomness stream.

    All randomness in a run flows from a single master seed; each consumer
    (init, shuffle, eps, negatives, splits, ...) gets its own stream so that
    protocols can share splits across variants. crc32 keeps the derivation
    stable across platforms and interpreter runs.
    """
    return np.random.default_rng([seed, zlib.crc32(label.encode("utf-8"))])


def glorot_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform Glorot matrix of shape (fan_out, fan_in); entries in +-sqrt(6/(fan_in+fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"bad fan sizes ({fan_in}, {fan_out})")
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def init_weights(params, rng):
    """Glorot-draw every "<prefix>.W" tensor of a store in place, in store order."""
    for name, w in params.items():
        if name.endswith(".W"):
            w[...] = glorot_init(w.shape[1], w.shape[0], rng)


def _act_forward(name, a):
    if name == "tanh":
        return np.tanh(a)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-a))
    if name == "identity":
        return a
    raise ValueError(f"unknown activation {name!r}")


def _act_backward(name, grad_y, y):
    # Derivatives expressed through the activation output.
    if name == "tanh":
        return grad_y * (1.0 - y * y)
    if name == "sigmoid":
        return grad_y * y * (1.0 - y)
    if name == "identity":
        return grad_y
    raise ValueError(f"unknown activation {name!r}")


def blocks(n):
    """Slices covering range(n) in chunks of BLOCK elements."""
    return (slice(at, at + BLOCK) for at in range(0, n, BLOCK))


class ParamStore(Mapping):
    """Read-only ``name -> view`` mapping; the views tile one float64 buffer, ``flat``."""

    def __init__(self, shapes, flat=None):
        """shapes: ordered (name, shape) pairs; flat holds their values, default zeros."""
        sizes = [math.prod(shape) for _, shape in shapes]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        self._views, at = {}, 0
        for (name, shape), size in zip(shapes, sizes):
            self._views[name] = self.flat[at:at + size].reshape(shape)
            at += size

    def __getitem__(self, name):
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self):
        return len(self._views)


def bind_layers(named_layers):
    """(params, grads) stores over a list of (prefix, DenseLayer) pairs.

    Tensors are named "<prefix>.W" and "<prefix>.b" and start at zero; each
    layer's w and b become views of params, and its gw and gb views of grads.
    """
    shapes = [(f"{p}.{t}", shape) for p, layer in named_layers
              for t, shape in (("W", layer.shape), ("b", layer.shape[:1]))]
    params, grads = ParamStore(shapes), ParamStore(shapes)
    for p, layer in named_layers:
        layer.w, layer.b = params[f"{p}.W"], params[f"{p}.b"]
        layer.gw, layer.gb = grads[f"{p}.W"], grads[f"{p}.b"]
    return params, grads


class DenseLayer:
    """Fully connected layer y = act(x @ W.T + b); backward writes grads into gw, gb.

    The layer holds only its shape until bind_layers points w, b, gw and gb
    at views of a parameter store and its gradient twin.
    """

    def __init__(self, in_dim, out_dim, activation):
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"bad layer sizes ({in_dim}, {out_dim})")
        if activation not in ("tanh", "sigmoid", "identity"):
            raise ValueError(f"unknown activation {activation!r}")
        self.shape = (out_dim, in_dim)
        self.activation = activation
        self.w = self.b = self.gw = self.gb = None

    @property
    def in_dim(self):
        return self.shape[1]

    def forward(self, x):
        """Returns (y, cache); x has shape (batch, in_dim)."""
        if x.shape[1] != self.w.shape[1]:
            raise ValueError(
                f"input dim {x.shape[1]} != layer in_dim {self.w.shape[1]}"
            )
        y = _act_forward(self.activation, x @ self.w.T + self.b)
        return y, (x, y)

    def backward(self, grad_y, cache):
        """Gradient w.r.t. output -> grad_x; overwrites gw and gb."""
        _, y = cache
        return self.backward_from_preact(_act_backward(self.activation, grad_y, y), cache)

    def backward_from_preact(self, grad_a, cache):
        """Same as backward() but grad is already w.r.t. the pre-activation."""
        x, _ = cache
        np.matmul(grad_a.T, x, out=self.gw)
        grad_a.sum(axis=0, out=self.gb)
        return grad_a @ self.w


class DenseStack:
    """A chain of DenseLayers applied in order."""

    def __init__(self, layers):
        self.layers = list(layers)

    @classmethod
    def create(cls, dims, activations) -> "DenseStack":
        """dims = [in, h1, ..., out]; activations has len(dims)-1 entries."""
        if len(activations) != len(dims) - 1:
            raise ValueError("one activation per layer required")
        return cls(DenseLayer(dims[k], dims[k + 1], activations[k])
                   for k in range(len(dims) - 1))

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, grad_y, caches, final_preact=False):
        """Backprop through the stack; returns the gradient w.r.t. its input.

        When final_preact is set, grad_y is taken w.r.t. the last layer's
        pre-activation (used to fuse sigmoid with cross-entropy).
        """
        grad = grad_y
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            if final_preact and k == len(self.layers) - 1:
                grad = layer.backward_from_preact(grad, caches[k])
            else:
                grad = layer.backward(grad, caches[k])
        return grad

    def named_layers(self, prefix):
        return [(f"{prefix}.{k}", layer) for k, layer in enumerate(self.layers)]


class Adam:
    """Bias-corrected Adam over a ParamStore; the moments are two flat arrays."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def step(self, params, grads):
        """One in-place update of params from grads, a store of the same layout."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        p, g = params.flat, grads.flat
        for s in blocks(p.size):
            m, v, gs = self.m[s], self.v[s], g[s]
            m *= self.beta1
            m += (1.0 - self.beta1) * gs
            v *= self.beta2
            v += (1.0 - self.beta2) * (gs * gs)
            p[s] -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def assert_all_finite(store, context=""):
    """Raise NumericError naming the first non-finite tensor of a ParamStore.

    The sum of ``flat`` is finite only if every entry is; the per-tensor
    search runs only when it is not, so an overflowing sum does not raise.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(store.flat.sum()):
            return
    for name, a in store.items():
        if not np.isfinite(a).all():
            where = f" ({context})" if context else ""
            raise NumericError(f"non-finite values in {name!r}{where}")
