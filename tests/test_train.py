"""Training loop behaviour, determinism, checkpoint format, ablation suite."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xdvae import data, losses, nn
from xdvae.data import DataError, DatasetBundle
from xdvae.model import VARIANTS
from xdvae.nn import DenseLayer, DenseStack
from xdvae.train import (
    _batch_inputs,
    ablation_config,
    load_checkpoint,
    run_variant_suite,
    save_checkpoint,
    train,
)

from conftest import make_matrix, make_toy_bundle, make_toy_config, poison_last_grad


@pytest.fixture()
def trainable_bundle():
    return make_toy_bundle(m=8, n_source=6, n_target=8, seed=42, aux_dim=4)


class TestTrainLoop:
    def test_zero_epochs_returns_initialized_model(self, trainable_bundle):
        model, history = train(trainable_bundle, make_toy_config("generic", epochs=0))
        assert history.epochs == []
        assert all(np.all(np.isfinite(p)) for p in model.params().values())

    def test_toy_descent_over_fifty_epochs(self, trainable_bundle):
        config = make_toy_config("generic", epochs=50)
        model, history = train(trainable_bundle, config)
        totals = history.totals()
        assert totals[-1] < totals[0]
        assert len(history.epochs) == 50
        assert len(history.wall_times) == 50

    @pytest.mark.parametrize("variant", ["single", "merged", "no-mmd", "cold-start", "aux"])
    def test_all_variants_descend(self, trainable_bundle, variant):
        config = make_toy_config(variant, epochs=30)
        _, history = train(trainable_bundle, config)
        assert history.totals()[-1] < history.totals()[0]

    def test_bit_identical_given_same_seed(self, trainable_bundle):
        config = make_toy_config("generic", epochs=12)
        model_a, _ = train(trainable_bundle, config)
        model_b, _ = train(trainable_bundle, make_toy_config("generic", epochs=12))
        for name, p in model_a.params().items():
            assert np.array_equal(p, model_b.params()[name])

    def test_seed_changes_parameters(self, trainable_bundle):
        model_a, _ = train(trainable_bundle, make_toy_config("generic", epochs=5))
        model_b, _ = train(trainable_bundle, make_toy_config("generic", epochs=5, seed=99))
        assert any(
            not np.array_equal(p, model_b.params()[n])
            for n, p in model_a.params().items()
        )

    def test_aux_variant_requires_vectors(self):
        bundle = make_toy_bundle(m=8, n_source=6, n_target=8)
        with pytest.raises(DataError, match="aux"):
            train(bundle, make_toy_config("aux", epochs=1))

    def test_parameters_stay_finite(self, trainable_bundle):
        config = make_toy_config("generic", epochs=25, lr=0.01)
        model, history = train(trainable_bundle, config)
        for p in model.params().values():
            assert np.all(np.isfinite(p))
        assert all(np.isfinite(e.total) for e in history.epochs)

    def test_regularization_shrinks_params_on_empty_rows(self):
        # with no data signal (all-zero rows allowed here) and lambda > 0 the
        # weight norm must not grow
        bundle = make_toy_bundle(m=6, n_source=5, n_target=7, seed=1)
        for mat in (bundle.source, bundle.target):
            mat.indptr, mat.indices = np.zeros(7, dtype=np.int64), np.empty(0, dtype=np.int64)
        config = make_toy_config("generic", epochs=20, beta=0.0, lambda_reg=1e-2)
        model, history = train(bundle, config)
        first = history.epochs[0].reg
        last = history.epochs[-1].reg
        assert last <= first

    def test_history_json_round_trip(self, trainable_bundle, tmp_path):
        _, history = train(trainable_bundle, make_toy_config("generic", epochs=3))
        path = tmp_path / "history.json"
        history.save(path)
        payload = json.loads(path.read_text())
        assert len(payload["epochs"]) == 3
        assert payload["seed"] == 11
        assert payload["config"]["variant"] == "generic"

    def test_early_stop_on_plateau(self, trainable_bundle):
        config = make_toy_config("generic", epochs=200, lr=1e-12)  # lr must be > 0
        _, history = train(trainable_bundle, config, early_stop=True)
        assert history.early_stop_epoch is not None
        assert len(history.epochs) < 200


def dense_layers(obj):
    """Every DenseLayer reachable through a model's attributes."""
    if isinstance(obj, DenseLayer):
        return [obj]
    if isinstance(obj, DenseStack):
        return list(obj.layers)
    if type(obj).__module__ == "xdvae.model":
        return [layer for v in vars(obj).values() for layer in dense_layers(v)]
    return []


def offset(view, flat):
    """Element offset of a view's first entry inside flat."""
    return (view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]) // 8


class TestNoUsers:
    def test_bundle_without_users_rejected(self, trainable_bundle):
        # it used to train no step and return an untrained model
        empty = data.restrict_users(trainable_bundle, [])
        with pytest.raises(DataError, match="no users"):
            train(empty, make_toy_config("generic", epochs=2))


class TestNonFiniteGradient:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_named_with_epoch_and_batch_offset(self, trainable_bundle, monkeypatch, bad):
        # m = 8 rows in batches of 3: the fifth step is epoch 1, offset 3
        name = poison_last_grad(monkeypatch, at_call=5, value=bad)
        config = make_toy_config("generic", epochs=3, batch_size=3)
        with pytest.raises(nn.NumericError,
                           match=rf"'{name}' \(grads, epoch 1, batch offset 3\)"):
            train(trainable_bundle, config)


class TestParamStoreLayout:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_tensor_is_a_view_of_flat_in_declared_order(self, trainable_bundle, variant):
        model, _ = train(trainable_bundle, make_toy_config(variant, epochs=1))
        b = trainable_bundle
        eps = np.zeros((model.n_latents, b.m, model.config.latent_dim))
        aux = b.aux_vectors if variant == "aux" else None
        r_s, r_t, pos = _batch_inputs(b, np.arange(b.m), variant)
        _, grads = model.loss_and_grads(r_s, r_t, pos, eps, aux)
        params = model.params()
        assert list(grads) == list(params)
        for store in (params, grads):
            at = 0
            for view in store.values():
                assert np.shares_memory(view, store.flat)
                assert offset(view, store.flat) == at
                at += view.size
            assert at == store.flat.size
        at_of = {offset(v, params.flat): name for name, v in params.items()}
        layers = dense_layers(model)
        assert 2 * len(layers) == len(params)
        for layer in layers:
            w_at, b_at = offset(layer.w, params.flat), offset(layer.b, params.flat)
            assert at_of[w_at].endswith(".W") and at_of[b_at].endswith(".b")
            assert params[at_of[w_at]].shape == layer.w.shape
            assert offset(layer.gw, grads.flat) == w_at
            assert offset(layer.gb, grads.flat) == b_at


class TestCheckpoints:
    def test_round_trip_preserves_forward_pass(self, trainable_bundle, tmp_path):
        model, _ = train(trainable_bundle, make_toy_config("generic", epochs=4))
        path = tmp_path / "model.xdv"
        save_checkpoint(model, path)
        loaded, config = load_checkpoint(path)
        assert config.variant == "generic"
        r_s = trainable_bundle.source.to_dense()
        r_t = trainable_bundle.target.to_dense()
        a = model.predict_scores(r_s, r_t).astype(np.float32)
        b = loaded.predict_scores(r_s, r_t).astype(np.float32)
        # float32 storage: outputs agree once both parameter sets are rounded
        save_checkpoint(model, tmp_path / "again.xdv")
        rounded, _ = load_checkpoint(tmp_path / "again.xdv")
        c = rounded.predict_scores(r_s, r_t).astype(np.float32)
        assert np.array_equal(b, c)
        assert np.allclose(a, b, atol=1e-5)

    def test_save_load_save_byte_identical(self, trainable_bundle, tmp_path):
        model, _ = train(trainable_bundle, make_toy_config("cold-start", epochs=3))
        p1, p2 = tmp_path / "a.xdv", tmp_path / "b.xdv"
        save_checkpoint(model, p1)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_draws_nothing_from_the_init_stream(self, trainable_bundle, tmp_path,
                                                     monkeypatch):
        model, _ = train(trainable_bundle, make_toy_config("aux", epochs=1))
        path = tmp_path / "model.xdv"
        save_checkpoint(model, path)

        def no_draws(*args):
            raise AssertionError("init stream drawn while loading")

        monkeypatch.setattr(nn, "glorot_init", no_draws)
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded.params().flat,
                              model.params().flat.astype(np.float32))

    def test_truncated_file_rejected(self, trainable_bundle, tmp_path):
        model, _ = train(trainable_bundle, make_toy_config("generic", epochs=1))
        path = tmp_path / "model.xdv"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.xdv"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_variant_tensor_schema_enforced(self, trainable_bundle, tmp_path):
        # header claims cold-start but the tensor list misses the map layer
        model, _ = train(trainable_bundle, make_toy_config("cold-start", epochs=1))
        path = tmp_path / "model.xdv"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        import struct

        (head_len,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + head_len].decode())
        header["tensors"] = [t for t in header["tensors"] if not t["name"].startswith("map")]
        new_head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        patched = bytes(raw[:4]) + struct.pack("<I", len(new_head)) + new_head + bytes(raw[8 + head_len:])
        path.write_bytes(patched)
        with pytest.raises(DataError, match="map"):
            load_checkpoint(path)


class TestAblationSuite:
    def test_zero_suffix_forces_beta_zero(self):
        base = make_toy_config("generic", beta=7.0)
        assert ablation_config(base, "single0").beta == 0.0
        assert ablation_config(base, "single").beta == 7.0

    def test_merged_doubles_widths_and_latent(self):
        base = make_toy_config("generic")
        merged = ablation_config(base, "merged")
        assert merged.enc_dims_target == (10,)
        assert merged.latent_dim == 6

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ablation_config(make_toy_config("generic"), "bogus")

    @pytest.mark.parametrize("name", ["generic0", "no-mmd0"])
    def test_zero_suffix_only_on_single_and_merged(self, name):
        # the CLI and README know only single0 and merged0
        with pytest.raises(ValueError, match="unknown ablation variant"):
            ablation_config(make_toy_config("generic"), name)

    def test_suite_trains_each_variant(self, trainable_bundle):
        base = make_toy_config("generic", epochs=2)
        results = run_variant_suite(trainable_bundle, base, ["generic", "single0", "no-mmd"])
        assert set(results) == {"generic", "single0", "no-mmd"}
        for name, (model, history) in results.items():
            assert len(history.epochs) == 2
        assert results["single0"][0].config.beta == 0.0

    def test_suite_shares_initialization_where_shapes_agree(self, trainable_bundle):
        base = make_toy_config("generic", epochs=0)
        results = run_variant_suite(trainable_bundle, base, ["generic", "no-mmd"])
        params_a = results["generic"][0].params()
        params_b = results["no-mmd"][0].params()
        for name, p in params_a.items():
            assert np.array_equal(p, params_b[name])


# The reconstruction's value and logit gradient as the two functions they were
# before one function computed both; each finds the ones of r by scanning it.
def two_pass_value(r, a, beta):
    t = np.abs(a)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    at = np.flatnonzero(r != 0)
    a_pos = a.ravel()[at]
    pos = np.maximum(np.negative(a_pos), 0.0)
    pos += t.ravel()[at]
    pos *= beta
    pos -= a_pos
    pos *= r.ravel()[at]
    return float((np.maximum(a, 0.0).sum() + t.sum() + pos.sum()) / a.shape[0])


def two_pass_grad(a, r, beta, batch):
    g = np.negative(a)
    np.exp(g, out=g)
    g += 1.0
    np.divide(1.0, g, out=g)
    at = np.flatnonzero(r != 0)
    flat = g.reshape(-1)
    p, r_pos = flat[at], r.ravel()[at]
    flat[at] = (p - r_pos) - (beta * r_pos) * (1.0 - p)
    g /= batch
    return g


@st.composite
def csr_batches(draw):
    """(bundle, batch user positions, dense source rows, dense target rows); rows may be empty."""
    m, n_s, n_t = draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    users = [f"u{u}" for u in range(m)]
    dense = []
    for domain, n in (("source", n_s), ("target", n_t)):
        rows = [sorted(draw(st.sets(st.integers(0, n - 1)))) for _ in range(m)]
        dense.append((make_matrix(domain, users, [f"{domain[0]}{j}" for j in range(n)], rows),
                      rows))
    (src, rows_s), (tgt, rows_t) = dense
    batch = draw(st.permutations(range(m)))[:draw(st.integers(1, m))]

    def to_dense(rows, n):
        out = np.zeros((len(batch), n))
        for i, u in enumerate(batch):
            out[i, rows[u]] = 1.0
        return out

    return (DatasetBundle(source=src, target=tgt), np.array(batch),
            to_dense(rows_s, n_s), to_dense(rows_t, n_t))


class TestBatchPositives:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_domain_is_gathered_once(self, trainable_bundle, monkeypatch, variant):
        # to_dense used to find the positions the loss is handed a second time
        calls, positives = [], data.DomainMatrix.positives

        def counted(mat, *args):
            calls.append(mat.domain)
            return positives(mat, *args)

        monkeypatch.setattr(data.DomainMatrix, "positives", counted)
        _batch_inputs(trainable_bundle, np.array([2, 0]), variant)
        assert sorted(calls) == (["target"] if variant == "single" else ["source", "target"])

    @given(case=csr_batches(), beta=st.sampled_from([0.0, 1.5, 15.0]), draw=st.data())
    @settings(deadline=None)
    def test_positions_are_the_ones_each_variant_reconstructs(self, case, beta, draw):
        bundle, batch, dense_s, dense_t = case
        for variant in VARIANTS:
            r_s, r_t, pos = _batch_inputs(bundle, batch, variant)
            assert np.array_equal(r_t, dense_t)
            assert r_s is None if variant == "single" else np.array_equal(r_s, dense_s)
            recon = {"single": [dense_t],
                     "merged": [np.concatenate([dense_s, dense_t], axis=1)]}.get(
                         variant, [dense_s, dense_t])
            assert len(pos) == len(recon)
            for at, r in zip(pos, recon):
                assert np.array_equal(at, np.flatnonzero(r != 0))
                # the one function gives the two old ones' bytes, at any logit
                a = draw.draw(hnp.arrays(float, r.shape, elements=st.floats(-800, 800)))
                value, grad = losses.masked_recon(a, at, beta, len(batch))
                with np.errstate(over="ignore"):
                    want = two_pass_grad(a, r, beta, len(batch))
                assert value.hex() == two_pass_value(r, a, beta).hex()
                assert grad.tobytes() == want.tobytes()
