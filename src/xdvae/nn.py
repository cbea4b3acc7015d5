"""Dense-network substrate: layers, parameter store, Glorot init, Adam, finite checks.

Everything operates on row batches (shape ``(batch, dim)``) in float64.
A model's parameters are named views of one buffer (ParamStore), so the
optimizer, the L2 term, the finite check and checkpointing stay generic.
"""

from __future__ import annotations

import math
import os
import threading
import zlib
from collections.abc import Mapping

import numpy as np

# Elements per chunk of element-wise passes over a whole store, bounding their
# temporaries; whole-buffer expressions raised peak RSS and slowed the epoch.
# Each chunk is one item of map_on_cpus.
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


def usable_cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# .k: the number k of the map_on_cpus thread while it runs an item, else unset
_item = threading.local()


def _map_item_k():
    """This thread's k while it runs an item of map_on_cpus, else None."""
    return getattr(_item, "k", None)


def map_on_cpus(fn, items):
    """[fn(k, x) for x in items], shared by this thread and up to usable CPUs - 1 helpers.

    k numbers the thread that runs the item: 0 for the calling thread, 1, 2,
    ... for the helpers, so fn can keep one scratch buffer per thread. Each
    thread takes the next item nobody has taken yet; the calling thread
    claims the first item before any helper starts. numpy keeps its error
    state per thread, so each thread runs fn under the caller's. BLAS and
    numpy's element-wise loops release the interpreter lock, so such items
    run side by side. A helper keeps in its own malloc arena what its items
    allocated, which the calling thread cannot reuse later, so no more
    helpers start than there are items left for them. After an exception no
    further item starts; once every helper has stopped, the first exception
    is raised here. With one usable CPU no thread starts, and neither does
    one in a map started from inside an item of another: that map runs its
    items in order on its own thread, under that thread's k, so the package
    never runs more threads than usable CPUs.
    """
    items = list(items)
    k = _map_item_k()
    if k is not None:
        return [fn(k, x) for x in items]
    results = [None] * len(items)
    pending = iter(range(len(items)))
    lock = threading.Lock()
    failures = []
    errors = np.geterr()

    def take():
        with lock:
            return next(pending, None)

    def drain(k, i):
        _item.k = k
        try:
            with np.errstate(**errors):
                while i is not None:
                    results[i] = fn(k, items[i])
                    i = take()
        except BaseException as e:  # raised below, on the calling thread
            with lock:
                failures.append(e)
                for _ in pending:  # nobody starts another item
                    pass
        finally:
            del _item.k

    first = take()
    helpers = [threading.Thread(target=lambda k=k: drain(k, take()), name=f"xdvae-cpu-{k}")
               for k in range(1, min(usable_cpus(), len(items)))]
    for t in helpers:
        t.start()
    drain(0, first)
    for t in helpers:
        t.join()
    if failures:
        raise failures[0]
    return results


# matmul_halves splits a product of at least these many rows, inner
# dimension and columns, so each half is at least 256 columns wide. Outside
# them halves gave other bytes than the single call even on one BLAS thread:
# batches of 2-8 rows at its cut, and last panels a few columns wide (5000
# columns cut at 4992, 519 at 512) at every row count. Smaller products gain
# nothing from a second thread anyway.
HALVES_MIN_ROWS, HALVES_MIN_INNER, HALVES_MIN_COLS = 64, 64, 512


def _one_blas_thread():
    """True when OPENBLAS_NUM_THREADS sets one BLAS thread, which OpenBLAS reads when it loads."""
    try:
        return int(os.environ.get("OPENBLAS_NUM_THREADS", "")) == 1
    except ValueError:
        return False


# A BLAS call on several threads cuts its output where the shape and the
# thread count say, so two halves would not keep its bytes: matmul_halves
# splits only when each BLAS call runs on one thread.
ONE_BLAS_THREAD = _one_blas_thread()


def matmul_halves(a, b):
    """np.matmul(a, b) of 2-d arrays, as two column halves on two CPUs when large.

    GEMM blocks only the inner dimension and computes column panels of the
    output independently, so one single-threaded BLAS call per column half,
    cut at 64 * (cols // 128), writes the bytes of the single call. Each half
    goes into its slice of one output array through map_on_cpus. The single
    call is made below the HALVES_MIN sizes, with one usable CPU, without
    ONE_BLAS_THREAD, and inside an item of map_on_cpus, whose map already
    keeps every CPU busy and where two halves on one thread cost 2-8% more.
    """
    rows, inner = a.shape
    cols = b.shape[1]
    if (rows < HALVES_MIN_ROWS or inner < HALVES_MIN_INNER or cols < HALVES_MIN_COLS
            or not ONE_BLAS_THREAD or _map_item_k() is not None or usable_cpus() < 2):
        return np.matmul(a, b)
    out = np.empty((rows, cols), dtype=np.result_type(a, b))
    cut = 64 * (cols // 128)
    map_on_cpus(lambda _, s: np.matmul(a, b[:, s], out=out[:, s]),
                (slice(0, cut), slice(cut, cols)))
    return out


def scratch(pool, k, shape):
    """pool[k], thread k's float64 buffer of the given shape, made on first use.

    Each thread of one map_on_cpus call has its own k, so no two threads
    share a buffer, and a pool kept across calls allocates nothing after the
    first.
    """
    buf = pool.get(k)
    if buf is None or buf.shape != shape:
        buf = pool[k] = np.empty(shape)
    return buf


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

    Tensors are named as tensor_shapes says and start at zero; each layer's w, b
    and span (w and b at once) view params, and its gw, gb and grad_span grads.
    """
    shapes = tensor_shapes(named_layers)
    params, grads = ParamStore(shapes), ParamStore(shapes)
    at = 0
    for p, layer in named_layers:
        layer.w, layer.b = params[f"{p}.W"], params[f"{p}.b"]
        layer.gw, layer.gb = grads[f"{p}.W"], grads[f"{p}.b"]
        end = at + layer.w.size + layer.b.size
        layer.span, layer.grad_span = params.flat[at:end], grads.flat[at:end]
        at = end
    return params, grads


class DenseLayer:
    """Fully connected layer y = act(x @ W.T + b); its weight gradients go into gw, gb.

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
        self.w = self.b = self.gw = self.gb = self.span = self.grad_span = None

    def forward(self, x):
        """The output y; x has shape (batch, shape[1])."""
        if x.shape[1] != self.w.shape[1]:
            raise ValueError(
                f"input dim {x.shape[1]} != layer in_dim {self.w.shape[1]}"
            )
        # the bias add and the activation write into the matmul's own output
        a = matmul_halves(x, self.w.T)
        a += self.b
        return _act_forward(self.activation, a)

    def forward_zeros(self, rows):
        """forward()'s y for `rows` all-zero input rows, without the matmul.

        A zero row times W.T is +0 in every cell, so each row is act(+0 + b),
        computed here over the same (rows, out) layout forward() uses.
        """
        a = np.zeros((rows, self.shape[0]))
        a += self.b
        return _act_forward(self.activation, a)

    def backward(self, grad_y, x, y, jobs, input_grad=True):
        """Gradient w.r.t. output -> grad_x, given forward's input x and output y.

        Queues (self, grad_a, x) on jobs, for weight_grads_on_cpus to
        overwrite gw and gb once the whole chain has run, so nothing may
        write grad_a or x in place after this call. Without input_grad (an
        input layer) the result is None.
        """
        grad_a = _act_backward(self.activation, grad_y, y)
        jobs.append((self, grad_a, x))
        if not input_grad:
            return None
        return self.backward_from_preact(grad_a)

    def weight_grads(self, grad_a, x):
        """Overwrite gw and gb from the gradient w.r.t. the pre-activation and the input x."""
        np.matmul(grad_a.T, x, out=self.gw)
        grad_a.sum(axis=0, out=self.gb)

    def backward_from_preact(self, grad_a):
        """The gradient w.r.t. the input from that w.r.t. the pre-activation; writes no gradient."""
        return matmul_halves(grad_a, self.w)


def weight_grads_on_cpus(jobs, lambda_reg):
    """Run weight_grads for every (layer, grad_a, x) of jobs, on every usable CPU.

    Each job overwrites its own layer's gw and gb with the BLAS call a serial
    loop would make, then adds the L2 gradient 2 * lambda_reg * (w, b) over
    the layer's span, BLOCK by BLOCK through one buffer per thread, so no
    byte depends on the thread. Whole BLAS calls overlap well on two cores;
    the largest W goes first, so the small ones even out the threads' ends.
    """
    jobs = sorted(jobs, key=lambda job: job[0].w.size, reverse=True)
    width = min(BLOCK, max((job[0].span.size for job in jobs), default=0))
    bufs = {}

    def run(k, job):
        layer, grad_a, x = job
        layer.weight_grads(grad_a, x)
        if lambda_reg:
            buf = scratch(bufs, k, (width,))
            p, g = layer.span, layer.grad_span
            for s in blocks(p.size):
                g[s] += np.multiply(2.0 * lambda_reg, p[s], out=buf[:p[s].size])

    map_on_cpus(run, jobs)


class DenseStack:
    """A chain of DenseLayers applied in order."""

    def __init__(self, dims, activations):
        """dims = [in, h1, ..., out]; activations has len(dims)-1 entries."""
        if len(activations) != len(dims) - 1:
            raise ValueError("one activation per layer required")
        self.layers = [DenseLayer(n_in, n_out, act)
                       for n_in, n_out, act in zip(dims, dims[1:], activations)]

    def forward(self, x):
        """The activation list [x, y1, ..., yn]: the input and each layer's output."""
        acts = [x]
        for layer in self.layers:
            acts.append(layer.forward(acts[-1]))
        return acts

    def forward_zeros(self, rows):
        """forward()'s output for `rows` all-zero input rows; the first layer runs no matmul."""
        first, *rest = self.layers
        x = first.forward_zeros(rows)
        for layer in rest:
            x = layer.forward(x)
        return x

    def backward(self, grad_y, acts, jobs, input_grad=True):
        """Backprop through the stack from forward()'s activation list; returns
        the gradient w.r.t. its input.

        Every layer queues its weight gradients on jobs (see
        DenseLayer.backward). Without input_grad the first layer computes no
        input gradient and the result is None.
        """
        grad = grad_y
        for k in range(len(self.layers) - 1, -1, -1):
            grad = self.layers[k].backward(grad, acts[k], acts[k + 1], jobs,
                                           input_grad=input_grad or k > 0)
        return grad

    def named_layers(self, prefix):
        return [(f"{prefix}.{k}", layer) for k, layer in enumerate(self.layers)]


class Adam:
    """Bias-corrected Adam over a ParamStore; the moments are two flat arrays.

    The update is element-wise, so its BLOCK-sized chunks are shared among
    every usable CPU (see map_on_cpus) and give the same bytes however they
    are shared. Every temporary of an update goes through two BLOCK-sized
    buffers per thread that the optimizer owns, so a step allocates nothing
    per block, nor at all once each thread has its buffers.
    """

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self._scratch = {}

    def step(self, params, grads, context=""):
        """One in-place update of params from grads, a store of the same layout.

        Each thread checks a gradient block before updating it. Once every
        thread has stopped, a non-finite block found by any of them raises
        NumericError naming the first non-finite tensor of grads, with
        context. Blocks on either side of the bad one may then already be
        updated: the other threads finish the blocks they have taken.
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        p, g = params.flat, grads.flat
        shape = (2, min(BLOCK, p.size))

        def update(k, s):
            gs = g[s]
            if not np.isfinite(gs.sum()):
                _search_non_finite(grads, context)
            m, v = self.m[s], self.v[s]
            t, u = scratch(self._scratch, k, shape)[:, :gs.size]
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

        # an overflowing sum of finite values does not raise; non-finite
        # values the update itself produces reach the caller's params check
        with np.errstate(over="ignore", invalid="ignore"):
            map_on_cpus(update, blocks(p.size))


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
