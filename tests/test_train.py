"""Training loop behaviour, determinism, checkpoint format, ablation suite."""

import json

import numpy as np
import pytest

from xdvae import data, nn
from xdvae.data import DataError
from xdvae.model import VARIANTS
from xdvae.nn import DenseLayer, DenseStack
from xdvae.train import (
    ablation_config,
    load_checkpoint,
    run_variant_suite,
    save_checkpoint,
    train,
)

from conftest import make_toy_bundle, make_toy_config


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


class TestParamStoreLayout:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_tensor_is_a_view_of_flat_in_declared_order(self, trainable_bundle, variant):
        model, _ = train(trainable_bundle, make_toy_config(variant, epochs=1))
        b = trainable_bundle
        eps = np.zeros((model.n_latents, b.m, model.config.latent_dim))
        aux = b.aux_vectors if variant == "aux" else None
        _, grads = model.loss_and_grads(b.source.to_dense(), b.target.to_dense(), eps, aux)
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
