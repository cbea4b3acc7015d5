"""Layer mechanics, initialization, Adam, the CPU map, the matmul halves and the
finite-difference oracle."""

import itertools
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from xdvae import nn
from xdvae.nn import (
    BLOCK,
    Adam,
    DenseLayer,
    DenseStack,
    NumericError,
    assert_all_finite,
    bind_layers,
    glorot_init,
    init_weights,
    map_on_cpus,
    named_rng,
    weight_grads_on_cpus,
)

from conftest import cpu_helpers, finite_diff_check, make_layer, make_store, patch_cpus


def make_stack(dims, activations, rng):
    """Glorot-initialised DenseStack and its (params, grads) stores."""
    stack = DenseStack(dims, activations)
    params, grads = bind_layers(stack.named_layers("net"))
    init_weights(params, rng)
    return stack, params, grads


class TestGlorotInit:
    def test_bound_is_one_for_fan_three_three(self):
        w = glorot_init(3, 3, np.random.default_rng(0))
        assert w.shape == (3, 3)
        assert np.all(np.abs(w) <= 1.0)

    def test_same_seed_same_matrix(self):
        a = glorot_init(7, 5, np.random.default_rng(42))
        b = glorot_init(7, 5, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_sample_mean_near_zero(self):
        # uniform on +-1 has variance 1/3; 3 sigma of the mean of 1e6 draws
        w = glorot_init(1000, 1000, np.random.default_rng(1))
        sigma_mean = np.sqrt(1.0 / 3.0 / w.size)
        assert abs(w.mean()) < 3.0 * sigma_mean

    def test_rejects_zero_fan(self):
        with pytest.raises(ValueError):
            glorot_init(0, 3, np.random.default_rng(0))


class TestDenseForward:
    def test_identity_layer_passes_through(self):
        layer = make_layer(np.eye(2), np.zeros(2), "identity")
        y = layer.forward(np.array([[0.3, -0.5]]))
        assert np.allclose(y, [[0.3, -0.5]])

    def test_tanh_of_zero_is_zero(self):
        layer = make_layer(np.ones((3, 2)), np.zeros(3), "tanh")
        y = layer.forward(np.zeros((1, 2)))
        assert np.allclose(y, 0.0)

    def test_shape_mismatch_raises(self):
        layer = make_layer(np.ones((3, 2)), np.zeros(3), "tanh")
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 4)))

    def test_tanh_output_strictly_inside_pm_one(self):
        rng = np.random.default_rng(4)
        layer = make_layer(glorot_init(6, 4, rng), np.zeros(4), "tanh")
        y = layer.forward(rng.standard_normal((10, 6)))
        assert np.all(y > -1.0) and np.all(y < 1.0)


class TestDenseInPlace:
    """The layer writes bias and activation into its matmul output; the bytes
    must equal the expression act(x @ W.T + b) evaluated with temporaries."""

    REFERENCE = {
        "tanh": np.tanh,
        "identity": lambda a: a,
    }

    @pytest.mark.parametrize("activation", sorted(REFERENCE))
    def test_forward_matches_expression_bit_for_bit(self, activation):
        rng = np.random.default_rng(12)
        layer = make_layer(rng.standard_normal((7, 5)), rng.standard_normal(7), activation)
        x = 3.0 * rng.standard_normal((9, 5))
        x_before = x.copy()
        y = layer.forward(x)
        expected = self.REFERENCE[activation](x @ layer.w.T + layer.b)
        assert np.array_equal(y, expected)
        assert np.array_equal(x, x_before)

    def test_stack_without_input_grad_writes_the_same_weight_grads(self):
        rng = np.random.default_rng(13)
        stack, params, grads = make_stack([6, 5, 4, 3], ["tanh", "tanh", "identity"], rng)
        x = rng.standard_normal((8, 6))
        grad_y = rng.standard_normal((8, 3))
        acts = stack.forward(x)
        assert acts[0] is x and len(acts) == len(stack.layers) + 1
        jobs = []
        gx = stack.backward(grad_y, acts, jobs)
        weight_grads_on_cpus(jobs, 0.0)
        full = grads.flat.copy()
        grads.flat[...] = np.nan
        jobs = []
        assert stack.backward(grad_y, acts, jobs, input_grad=False) is None
        # the chain writes no gradient; it queues each layer, last first, with its own input
        assert np.isnan(grads.flat).all()
        assert [layer for layer, _, _ in jobs] == stack.layers[::-1]
        assert all(x_in is a for (_, _, x_in), a in zip(jobs, acts[-2::-1]))
        weight_grads_on_cpus(jobs, 0.0)
        assert gx.shape == x.shape
        assert grads.flat.tobytes() == full.tobytes()

    @pytest.mark.parametrize("activation", sorted(REFERENCE))
    def test_backward_from_preact_is_the_input_gradient_alone(self, activation):
        rng = np.random.default_rng(14)
        layer = make_layer(rng.standard_normal((4, 5)), rng.standard_normal(4), activation)
        layer.gw.flat[...] = np.arange(layer.gw.size)
        layer.gb[...] = -1.0
        before = layer.gw.tobytes() + layer.gb.tobytes()
        grad_a = rng.standard_normal((7, 4))
        gx = layer.backward_from_preact(grad_a)
        assert gx.tobytes() == (grad_a @ layer.w).tobytes()
        assert layer.gw.tobytes() + layer.gb.tobytes() == before


def backprop(net, grad_y, *inputs):
    """Run a layer's or a stack's backward and then its queued weight gradients;
    inputs are a layer's forward input and output, or a stack's activation list."""
    jobs = []
    grad_x = net.backward(grad_y, *inputs, jobs)
    weight_grads_on_cpus(jobs, 0.0)
    return grad_x


class TestDenseBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(0)
        layer = make_layer(glorot_init(4, 3, rng), np.zeros(3), "tanh")
        x = rng.standard_normal((5, 4))
        y = layer.forward(x)
        layer.gw[...] = 1.0
        layer.gb[...] = 1.0
        gx = backprop(layer, np.zeros_like(y), x, y)
        # the weight gradients overwrite the gradient views rather than adding to them
        assert not gx.any() and not layer.gw.any() and not layer.gb.any()

    def test_linear_squared_loss_closed_form(self):
        # f = sum((Wx - t)^2): dW = 2 (Wx - t) x^T
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 4))
        layer = make_layer(w, np.zeros(3), "identity")
        x = rng.standard_normal((1, 4))
        t = rng.standard_normal((1, 3))
        y = layer.forward(x)
        backprop(layer, 2.0 * (y - t), x, y)
        assert np.allclose(layer.gw, 2.0 * (y - t).T @ x)

    def test_stack_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        stack, params, grads = make_stack([4, 5, 3], ["tanh", "identity"], rng)
        x = rng.standard_normal((6, 4))
        t = rng.random((6, 3))

        def loss():
            y = stack.forward(x)[-1]
            return float(((y - t) ** 2).sum())

        acts = stack.forward(x)
        backprop(stack, 2.0 * (acts[-1] - t), acts)
        assert finite_diff_check(loss, params, grads) < 1e-6


class TestWeightGradsL2:
    """weight_grads_on_cpus adds the L2 term's gradient, 2 * lambda_reg * params,
    in each layer's own job, right after that layer's weight-gradient call."""

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_grads_are_the_weight_grads_plus_two_lambda_params(self, monkeypatch,
                                                               fast_switches, n_cpus):
        # with 64-element blocks the first W (253 entries) spans four of them,
        # the last one short, and every bias fits in one
        monkeypatch.setattr(nn, "BLOCK", 64)
        started = patch_cpus(monkeypatch, n_cpus)
        rng = np.random.default_rng(15)
        stack, params, grads = make_stack([23, 11, 7, 3], ["tanh", "tanh", "identity"], rng)
        params.flat[:] = rng.standard_normal(params.flat.size)
        acts = stack.forward(rng.standard_normal((6, 23)))
        grad_y = rng.standard_normal(acts[-1].shape)
        jobs = []
        stack.backward(grad_y, acts, jobs)

        def grads_after(lambda_reg):
            grads.flat[...] = np.nan
            weight_grads_on_cpus(jobs, lambda_reg)
            return grads.flat.copy()

        pure = grads_after(0.0)
        grads.flat[...] = np.nan
        for layer, grad_a, x in jobs:
            layer.weight_grads(grad_a, x)
        assert pure.tobytes() == grads.flat.tobytes()
        assert grads_after(0.3).tobytes() == (pure + (2.0 * 0.3) * params.flat).tobytes()
        # one map per call: a helper per CPU beyond the first, 3 jobs each
        assert len(cpu_helpers(started)) == 2 * (n_cpus - 1)


class TestParamStore:
    def test_views_tile_flat_in_declared_order(self):
        store = make_store(a=np.zeros((2, 3)), b=np.zeros(4), c=np.float64(0.0))
        assert list(store) == ["a", "b", "c"]
        assert store.flat.shape == (11,)
        store.flat[:] = np.arange(11.0)
        assert np.array_equal(store["a"], [[0, 1, 2], [3, 4, 5]])
        assert np.array_equal(store["b"], [6, 7, 8, 9])
        assert store["c"] == 10.0

    def test_copies_values_in_and_is_read_only(self):
        source = np.array([1.5, -2.0])
        store = make_store(a=source)
        store["a"][0] = 9.0
        assert source[0] == 1.5 and store.flat[0] == 9.0
        with pytest.raises(TypeError):
            store["a"] = np.zeros(2)

    def test_bind_moves_weights_into_store(self):
        stack = DenseStack([3, 4, 2], ["tanh", "identity"])
        assert all(layer.w is None for layer in stack.layers)
        params, grads = bind_layers(stack.named_layers("net"))
        assert list(params) == ["net.0.W", "net.0.b", "net.1.W", "net.1.b"]
        assert not params.flat.any()
        params.flat[:] = np.arange(params.flat.size)
        for k, layer in enumerate(stack.layers):
            assert layer.w.shape == layer.shape and layer.b.shape == layer.shape[:1]
            assert np.array_equal(layer.w, params[f"net.{k}.W"])
            assert np.shares_memory(layer.w, params.flat)
            assert np.shares_memory(layer.gw, grads.flat)

    def test_init_weights_matches_per_layer_glorot_in_store_order(self):
        stack = DenseStack([5, 4, 3, 2], ["tanh", "tanh", "identity"])
        params, _ = bind_layers(stack.named_layers("net"))
        init_weights(params, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for k, layer in enumerate(stack.layers):
            assert np.array_equal(params[f"net.{k}.W"], glorot_init(*layer.shape[::-1], rng))
            assert not params[f"net.{k}.b"].any()

    def test_layer_rejects_empty_sizes(self):
        for sizes in ((0, 3), (3, 0), (-2, 3)):
            with pytest.raises(ValueError, match="bad layer sizes"):
                DenseLayer(*sizes, "tanh")

    def test_layer_rejects_unknown_activations(self):
        # decoders output logits, so no layer has a sigmoid
        for activation in ("sigmoid", "relu"):
            with pytest.raises(ValueError, match="unknown activation"):
                DenseLayer(3, 3, activation)


class TestAdam:
    def test_first_step_is_minus_lr_for_unit_gradient(self):
        params = make_store(p=[0.0])
        opt = Adam(params, lr=0.001)
        opt.step(params, make_store(p=[1.0]))
        assert abs(params["p"][0] + 0.001) < 1e-10

    def test_zero_gradient_keeps_parameter(self):
        params = make_store(p=[1.5])
        opt = Adam(params, lr=0.1)
        opt.step(params, make_store(p=[0.0]))
        assert params["p"][0] == 1.5

    def test_first_step_magnitude_bounded_by_lr(self):
        for g in (1e-6, 0.5, 3.0, 1e4):
            params = make_store(p=[0.0])
            opt = Adam(params, lr=0.01)
            opt.step(params, make_store(p=[g]))
            step = abs(params["p"][0])
            assert 0.0 < step <= 0.01 + 1e-12

    def test_identical_runs_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(5)
            params = make_store(p=rng.standard_normal(4))
            grads = make_store(p=np.zeros(4))
            opt = Adam(params, lr=0.05)
            for _ in range(20):
                grads["p"][...] = params["p"] * 2.0 + 1.0
                opt.step(params, grads)
            return params["p"]

        assert np.array_equal(run(), run())

    def test_blocked_update_matches_per_tensor_reference(self, monkeypatch, fast_switches):
        # Sizes straddle the boundaries of many 64-element blocks, which 1, 2
        # or 3 threads share; the element-wise arithmetic is the same as a
        # per-tensor update, so Adam must be bit-identical. Frequent thread
        # switches would mix temporaries of a shared buffer.
        block = 64
        monkeypatch.setattr(nn, "BLOCK", block)
        sizes = {"a": 5 * block - 3, "b": 7, "c": 9 * block + 5}
        for n_cpus in (1, 2, 3):
            started = patch_cpus(monkeypatch, n_cpus)
            rng = np.random.default_rng(6)
            params = make_store(**{n: rng.standard_normal(k) for n, k in sizes.items()})
            grads = make_store(**{n: np.zeros(k) for n, k in sizes.items()})
            ref = {n: params[n].copy() for n in sizes}
            m = {n: np.zeros(k) for n, k in sizes.items()}
            v = {n: np.zeros(k) for n, k in sizes.items()}
            opt = Adam(params, lr=0.01)
            for t in range(1, 4):
                grads.flat[:] = rng.standard_normal(grads.flat.size)
                opt.step(params, grads)
                c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
                for n in sizes:
                    g = grads[n]
                    m[n] *= 0.9
                    m[n] += (1.0 - 0.9) * g
                    v[n] *= 0.999
                    v[n] += (1.0 - 0.999) * (g * g)
                    ref[n] -= 0.01 * (m[n] / c1) / (np.sqrt(v[n] / c2) + 1e-8)
            for n in sizes:
                assert np.array_equal(params[n], ref[n])
            # one helper per CPU beyond the first, for each of 3 updates
            assert len(cpu_helpers(started)) == 3 * (n_cpus - 1)

    def test_update_on_helpers_keeps_the_callers_error_state(self, monkeypatch):
        # lr * m overflows in every block; train() ignores that, and a helper
        # must too, or the RuntimeWarning it raises would reach the caller
        monkeypatch.setattr(nn, "BLOCK", 4)
        started = patch_cpus(monkeypatch, 3)
        params = make_store(x=np.zeros(16))
        grads = make_store(x=np.full(16, 1e10))
        with np.errstate(over="ignore", invalid="ignore"):
            Adam(params, lr=1e300).step(params, grads)
        assert np.isneginf(params.flat).all()
        assert len(cpu_helpers(started)) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_past_the_first_block_is_named(self, bad, monkeypatch):
        # with 2 or 3 threads the bad block is found on a helper or on the caller
        rng = np.random.default_rng(7)
        sizes = {"a": BLOCK + 5, "b": 9, "c": BLOCK}
        params = make_store(**{n: rng.standard_normal(k) for n, k in sizes.items()})
        grads = make_store(**{n: rng.standard_normal(k) for n, k in sizes.items()})
        grads["c"][BLOCK - 2] = bad
        opt = Adam(params, lr=0.01)
        for n_cpus in (1, 2, 3):
            patch_cpus(monkeypatch, n_cpus)
            threads = threading.active_count()
            with pytest.raises(NumericError,
                               match=r"'c' \(grads, epoch 4, batch offset 96\)"):
                opt.step(params, grads, context="grads, epoch 4, batch offset 96")
            assert threading.active_count() == threads

    def test_overflowing_gradient_sum_does_not_raise(self):
        # finite values whose sum overflows are not a non-finite gradient
        params = make_store(x=[0.5, 0.5])
        grads = make_store(x=[1e308, 1e308])
        with np.errstate(all="raise"):
            Adam(params, lr=0.01).step(params, grads)
        assert np.isfinite(params.flat).all()


class TestMapOnCpus:
    """The package's one CPU map: the results of a serial loop, in item order."""

    @pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
    @pytest.mark.parametrize("n_items", [0, 1, 2, 7])
    def test_results_in_item_order(self, cpus, n_items):
        n_cpus, started = cpus
        ran = []

        def square(k, x):
            ran.append((k, x, threading.current_thread().name))
            return x * x

        assert map_on_cpus(square, range(n_items)) == [x * x for x in range(n_items)]
        assert sorted(x for _, x, _ in ran) == list(range(n_items))
        assert len(started) == max(min(n_cpus, n_items) - 1, 0)
        # thread k is the caller for 0 and helper k otherwise; the caller
        # claims the first item before any helper starts
        names = {k: name for k, _, name in ran}
        assert names == {k: "MainThread" if k == 0 else f"xdvae-cpu-{k}" for k in names}
        assert n_items == 0 or (0, 0, "MainThread") in ran

    @pytest.mark.parametrize("cpus", [8], indirect=True)
    def test_every_item_taken_once_under_frequent_switches(self, cpus, fast_switches):
        # more threads than cores
        taken = []
        out = map_on_cpus(lambda k, x: taken.append(x) or -x, range(3000))
        assert out == [-x for x in range(3000)]
        assert sorted(taken) == list(range(3000))
        assert len(cpus[1]) == 7

    @pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
    def test_an_exception_on_a_helper_reaches_the_caller(self, cpus):
        n_cpus, started = cpus
        failed = threading.Event()

        def fail(k, x):
            if n_cpus > 1 and k == 0:
                # the caller's first item waits until a helper has failed
                assert failed.wait(timeout=60)
                return x
            failed.set()
            raise ValueError(f"item {x} failed on thread {k}")

        threads = threading.active_count()
        with pytest.raises(ValueError, match="item .* failed"):
            map_on_cpus(fail, range(6))
        assert failed.is_set() and len(started) == n_cpus - 1
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [2, 3], indirect=True)
    def test_helpers_run_under_the_callers_error_state(self, cpus):
        with np.errstate(over="ignore", invalid="raise", divide="warn", under="ignore"):
            caller = np.geterr()
            seen = map_on_cpus(lambda k, x: np.geterr(), range(4))
        assert seen == [caller] * 4

    @pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
    def test_a_map_inside_an_item_runs_on_the_items_thread(self, cpus):
        n_cpus, started = cpus

        def outer(k, x):
            inner = map_on_cpus(lambda j, y: (j, threading.current_thread().name, x * y),
                                range(3))
            return k, threading.current_thread().name, inner

        out = map_on_cpus(outer, range(4))
        assert len(started) == min(n_cpus, 4) - 1
        for x, (k, name, inner) in enumerate(out):
            assert inner == [(k, name, x * y) for y in range(3)]
        # once its map returns, the calling thread shares out its next map again
        started.clear()
        assert map_on_cpus(lambda k, x: x, range(4)) == list(range(4))
        assert len(started) == min(n_cpus, 4) - 1

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(nn.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(nn.os, "cpu_count", lambda: 3)
        assert nn.usable_cpus() == 3
        monkeypatch.setattr(nn.os, "cpu_count", lambda: None)
        assert nn.usable_cpus() == 1


# (rows, inner dimension, columns) of products the halves rule splits: row
# counts odd and even, column counts that are and are not multiples of 8,
# and wide inner dimensions as in the amazon-train encoders and decoders
HALVES_GRID = [*itertools.product([64, 65, 104, 128, 1348], [64, 300],
                                  [512, 519, 800, 2262, 5000, 5003]),
               (64, 2262, 519), (104, 2262, 2262), (128, 5000, 512), (1000, 5000, 512),
               (1000, 512, 5000)]


def record_matmuls(monkeypatch):
    """The column count of every np.matmul call's second operand from now on."""
    widths, matmul = [], np.matmul

    def recorded(a, b, **kw):
        widths.append(b.shape[1])
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", recorded)
    return widths


class TestMatmulHalves:
    """nn.matmul_halves: a large product in two column halves on two CPUs, with
    the bytes of the single call, when each BLAS call runs on one thread."""

    @pytest.mark.parametrize("shape", HALVES_GRID, ids=lambda s: "x".join(map(str, s)))
    def test_halves_equal_the_single_call(self, monkeypatch, shape):
        rows, inner, cols = shape
        started = patch_cpus(monkeypatch, 2)
        rng = np.random.default_rng(shape)
        # forward's x @ W.T over a (cols, inner) W, backward's g @ W over an (inner, cols) one
        weights = (rng.uniform(-0.1, 0.1, (cols, inner)).T, rng.uniform(-0.1, 0.1, (inner, cols)))
        dense = rng.standard_normal((rows, inner))
        ones = (rng.random((rows, inner)) < 0.05).astype(float)
        for x, w in itertools.product((dense, ones), weights):
            assert np.array_equal(nn.matmul_halves(x, w), x @ w)
        assert len(cpu_helpers(started)) == (4 if nn.ONE_BLAS_THREAD else 0)

    @pytest.mark.parametrize("shape, widths", [
        ((63, 64, 512), [512]), ((64, 63, 512), [512]), ((64, 64, 511), [511]),
        ((64, 64, 512), [256, 256]), ((64, 64, 519), [256, 263]), ((64, 64, 5003), [2496, 2507]),
    ], ids=str)
    def test_splits_from_each_threshold_on(self, monkeypatch, shape, widths):
        rows, inner, cols = shape
        monkeypatch.setattr(nn, "ONE_BLAS_THREAD", True)
        started = patch_cpus(monkeypatch, 2)
        calls = record_matmuls(monkeypatch)
        out = nn.matmul_halves(np.ones((rows, inner)), np.ones((inner, cols)))
        assert np.array_equal(out, np.full((rows, cols), float(inner)))
        assert sorted(calls) == widths
        assert len(started) == len(widths) - 1

    @pytest.mark.parametrize("case", ["one-usable-cpu", "threaded-blas", "inside-a-map-item"])
    def test_one_call_where_halves_do_not_pay(self, monkeypatch, case):
        monkeypatch.setattr(nn, "ONE_BLAS_THREAD", case != "threaded-blas")
        started = patch_cpus(monkeypatch, 1 if case == "one-usable-cpu" else 2)
        calls = record_matmuls(monkeypatch)
        a, b = np.ones((64, 64)), np.ones((64, 512))
        if case == "inside-a-map-item":
            outs = map_on_cpus(lambda k, _: nn.matmul_halves(a, b), range(2))
            assert calls == [512, 512]
            assert len(started) == 1   # the outer map's helper alone
        else:
            outs = [nn.matmul_halves(a, b)]
            assert calls == [512]
            assert started == []
        for out in outs:
            assert np.array_equal(out, np.full((64, 512), 64.0))

    def test_one_blas_thread_is_read_from_the_environment(self, monkeypatch):
        for value, one in (("1", True), (" 1 ", True), ("2", False), ("", False), ("x", False)):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
            assert nn._one_blas_thread() is one
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert nn._one_blas_thread() is False


class TestUnderOneBlasThread:
    def test_halves_split_and_keep_every_byte(self):
        # OpenBLAS reads its thread count when it loads, so the halves tests of
        # this file and of test_model.py run again in a fresh interpreter with
        # OPENBLAS_NUM_THREADS=1, where matmul_halves splits: they then check
        # the bytes of real halves, whatever BLAS threads this process has
        tests = pathlib.Path(__file__).parent
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{tests / 'test_nn.py'}::TestMatmulHalves",
             f"{tests / 'test_model.py'}::TestMatmulHalvesInModel"],
            cwd=tests.parent, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]


class TestFiniteDiff:
    def test_quadratic_is_exact(self):
        params = {"p": np.array([3.0])}
        grads = {"p": np.array([6.0])}
        err = finite_diff_check(lambda: float(params["p"][0] ** 2), params, grads)
        assert err < 1e-9


class TestFiniteGuard:
    def test_flags_nan_by_name(self):
        with pytest.raises(NumericError, match="bad"):
            assert_all_finite(make_store(ok=np.ones(3), bad=[np.nan], later=np.ones(2)))

    def test_flags_infinity_by_name(self):
        with pytest.raises(NumericError, match="'b'.*grads"):
            assert_all_finite(make_store(a=np.ones(2), b=[-np.inf]), context="grads")

    def test_overflowing_sum_of_finite_values_passes(self):
        store = make_store(x=[1e308], y=[1e308])
        with np.errstate(over="ignore"):
            assert not np.isfinite(store.flat.sum())
        assert_all_finite(store)


class TestNamedRng:
    def test_streams_differ_by_label_and_agree_by_seed(self):
        a = named_rng(9, "init").standard_normal(4)
        b = named_rng(9, "init").standard_normal(4)
        c = named_rng(9, "shuffle").standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
