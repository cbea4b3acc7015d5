"""Layer mechanics, initialization, Adam and the finite-difference oracle."""

import numpy as np
import pytest

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
    named_rng,
)

from conftest import finite_diff_check, make_layer, make_store


def make_stack(dims, activations, rng):
    """Glorot-initialised DenseStack and its (params, grads) stores."""
    stack = DenseStack.create(dims, activations)
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
        y, _ = layer.forward(np.array([[0.3, -0.5]]))
        assert np.allclose(y, [[0.3, -0.5]])

    def test_tanh_of_zero_is_zero(self):
        layer = make_layer(np.ones((3, 2)), np.zeros(3), "tanh")
        y, _ = layer.forward(np.zeros((1, 2)))
        assert np.allclose(y, 0.0)

    def test_sigmoid_of_zero_is_half(self):
        layer = make_layer([[1.0]], [0.0], "sigmoid")
        y, _ = layer.forward(np.array([[0.0]]))
        assert np.allclose(y, 0.5)

    def test_shape_mismatch_raises(self):
        layer = make_layer(np.ones((3, 2)), np.zeros(3), "tanh")
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 4)))

    def test_sigmoid_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        layer = make_layer(glorot_init(6, 4, rng), np.zeros(4), "sigmoid")
        y, _ = layer.forward(rng.standard_normal((10, 6)))
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_tanh_output_strictly_inside_pm_one(self):
        rng = np.random.default_rng(4)
        layer = make_layer(glorot_init(6, 4, rng), np.zeros(4), "tanh")
        y, _ = layer.forward(rng.standard_normal((10, 6)))
        assert np.all(y > -1.0) and np.all(y < 1.0)


class TestDenseBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(0)
        layer = make_layer(glorot_init(4, 3, rng), np.zeros(3), "tanh")
        y, cache = layer.forward(rng.standard_normal((5, 4)))
        layer.gw[...] = 1.0
        layer.gb[...] = 1.0
        gx = layer.backward(np.zeros_like(y), cache)
        # backward overwrites the gradient views rather than adding to them
        assert not gx.any() and not layer.gw.any() and not layer.gb.any()

    def test_linear_squared_loss_closed_form(self):
        # f = sum((Wx - t)^2): dW = 2 (Wx - t) x^T
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 4))
        layer = make_layer(w, np.zeros(3), "identity")
        x = rng.standard_normal((1, 4))
        t = rng.standard_normal((1, 3))
        y, cache = layer.forward(x)
        layer.backward(2.0 * (y - t), cache)
        assert np.allclose(layer.gw, 2.0 * (y - t).T @ x)

    def test_stack_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        stack, params, grads = make_stack([4, 5, 3], ["tanh", "sigmoid"], rng)
        x = rng.standard_normal((6, 4))
        t = rng.random((6, 3))

        def loss():
            y, _ = stack.forward(x)
            return float(((y - t) ** 2).sum())

        y, caches = stack.forward(x)
        stack.backward(2.0 * (y - t), caches)
        assert finite_diff_check(loss, params, grads) < 1e-6


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
        stack = DenseStack.create([3, 4, 2], ["tanh", "sigmoid"])
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
        stack = DenseStack.create([5, 4, 3, 2], ["tanh", "tanh", "sigmoid"])
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

    def test_blocked_update_matches_per_tensor_reference(self):
        # Sizes straddle BLOCK boundaries; the element-wise arithmetic is the
        # same as a per-tensor update, so the results must be bit-identical.
        rng = np.random.default_rng(6)
        sizes = {"a": BLOCK - 3, "b": 7, "c": BLOCK + 5}
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
