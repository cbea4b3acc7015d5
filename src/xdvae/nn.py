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
    """Apply the activation (DenseLayer checked its name) to a in place and return it."""
    if name == "tanh":
        np.tanh(a, out=a)
    return a


def _act_backward(name, grad_y, y):
    # the tanh derivative is expressed through its output
    if name == "identity":
        return grad_y
    d = y * y
    np.subtract(1.0, d, out=d)
    return np.multiply(grad_y, d, out=d)


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


def tensor_shapes(named_layers):
    """(name, shape) of the "<prefix>.W" and "<prefix>.b" tensors of (prefix, DenseLayer) pairs."""
    return [(f"{p}.{t}", shape) for p, layer in named_layers
            for t, shape in (("W", layer.shape), ("b", layer.shape[:1]))]


def bind_layers(named_layers):
    """(params, grads) stores over a list of (prefix, DenseLayer) pairs.

    Tensors are named as tensor_shapes says and start at zero; each layer's
    w and b become views of params, and its gw and gb views of grads.
    """
    shapes = tensor_shapes(named_layers)
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
        if activation not in ("tanh", "identity"):
            raise ValueError(f"unknown activation {activation!r}")
        self.shape = (out_dim, in_dim)
        self.activation = activation
        self.w = self.b = self.gw = self.gb = None

    def forward(self, x):
        """Returns (y, cache); x has shape (batch, shape[1])."""
        if x.shape[1] != self.w.shape[1]:
            raise ValueError(
                f"input dim {x.shape[1]} != layer in_dim {self.w.shape[1]}"
            )
        # the bias add and the activation write into the matmul's own output
        a = x @ self.w.T
        a += self.b
        y = _act_forward(self.activation, a)
        return y, (x, y)

    def forward_zeros(self, rows):
        """forward()'s y for `rows` all-zero input rows, without the matmul.

        A zero row times W.T is +0 in every cell, so each row is act(+0 + b),
        computed here over the same (rows, out) layout forward() uses.
        """
        a = np.zeros((rows, self.shape[0]))
        a += self.b
        return _act_forward(self.activation, a)

    def backward(self, grad_y, cache, input_grad=True):
        """Gradient w.r.t. output -> grad_x; overwrites gw and gb.

        Without input_grad (an input layer) only gw and gb are written and
        the result is None.
        """
        grad_a = _act_backward(self.activation, grad_y, cache[1])
        if not input_grad:
            self.weight_grads(grad_a, cache)
            return None
        return self.backward_from_preact(grad_a, cache)

    def weight_grads(self, grad_a, cache):
        """Overwrite gw and gb from the gradient w.r.t. the pre-activation."""
        np.matmul(grad_a.T, cache[0], out=self.gw)
        grad_a.sum(axis=0, out=self.gb)

    def backward_from_preact(self, grad_a, cache):
        """Same as backward() but grad is already w.r.t. the pre-activation."""
        self.weight_grads(grad_a, cache)
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

    def forward_zeros(self, rows):
        """forward()'s output for `rows` all-zero input rows; the first layer runs no matmul."""
        first, *rest = self.layers
        x = first.forward_zeros(rows)
        for layer in rest:
            x = layer.forward(x)[0]
        return x

    def apply(self, x):
        """forward()'s output alone: each activation is freed once the next is computed."""
        for layer in self.layers:
            x = layer.forward(x)[0]
        return x

    def backward(self, grad_y, caches, input_grad=True):
        """Backprop through the stack; returns the gradient w.r.t. its input.

        Without input_grad the first layer writes only its weight gradients
        and the result is None.
        """
        grad = grad_y
        for k in range(len(self.layers) - 1, -1, -1):
            grad = self.layers[k].backward(grad, caches[k], input_grad=input_grad or k > 0)
        return grad

    def named_layers(self, prefix):
        return [(f"{prefix}.{k}", layer) for k, layer in enumerate(self.layers)]


class Adam:
    """Bias-corrected Adam over a ParamStore; the moments are two flat arrays.

    Every temporary of an update goes through two BLOCK-sized buffers that
    the optimizer owns, so a step allocates nothing.
    """

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self._buf = np.empty((2, min(BLOCK, params.flat.size)))

    def step(self, params, grads, context=""):
        """One in-place update of params from grads, a store of the same layout.

        The sweep checks each gradient block before updating it and raises
        NumericError naming the first non-finite tensor of grads, with
        context; the blocks before it are then already updated.
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        p, g = params.flat, grads.flat
        # an overflowing sum of finite values does not raise; non-finite
        # values the update itself produces reach the caller's params check
        with np.errstate(over="ignore", invalid="ignore"):
            for s in blocks(p.size):
                gs = g[s]
                if not np.isfinite(gs.sum()):
                    _search_non_finite(grads, context)
                m, v = self.m[s], self.v[s]
                t, u = self._buf[0, :gs.size], self._buf[1, :gs.size]
                # per element, in this order: m = b1 m + (1-b1) g,
                # v = b2 v + (1-b2) g^2, p -= lr (m/c1) / (sqrt(v/c2) + eps)
                m *= b1
                m += np.multiply(1.0 - b1, gs, out=t)
                v *= b2
                np.multiply(gs, gs, out=t)
                v += np.multiply(1.0 - b2, t, out=t)
                np.multiply(self.lr, np.divide(m, c1, out=t), out=t)
                np.sqrt(np.divide(v, c2, out=u), out=u)
                u += self.eps
                p[s] -= np.divide(t, u, out=t)


def _search_non_finite(store, context):
    """Raise NumericError naming the first non-finite tensor of a ParamStore, if any."""
    for name, a in store.items():
        if not np.isfinite(a).all():
            where = f" ({context})" if context else ""
            raise NumericError(f"non-finite values in {name!r}{where}")


def assert_all_finite(store, context=""):
    """Raise NumericError naming the first non-finite tensor of a ParamStore.

    The sum of ``flat`` is finite only if every entry is; the per-tensor
    search runs only when it is not, so an overflowing sum does not raise.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(store.flat.sum()):
            return
    _search_non_finite(store, context)
