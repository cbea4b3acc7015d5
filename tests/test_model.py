"""Variant architectures: forward contracts, asymmetry, gradients vs finite
differences on toy instances with frozen reparametrization noise."""

import numpy as np
import pytest

from xdvae import nn
from xdvae.model import LinkedVAE, ModelConfig, build_model, merge_latents
from xdvae.nn import named_rng

from conftest import finite_diff_check, make_toy_bundle, make_toy_config

TOY = dict(m=8, n_source=6, n_target=8)


def toy_batch(variant, seed=3, aux_dim=4):
    """Dense toy inputs plus frozen eps, shaped (2, m, L), for gradient checking.

    Linked variants read both noise blocks, single and merged the first.
    """
    bundle = make_toy_bundle(**TOY, seed=seed, aux_dim=aux_dim)
    rng = np.random.default_rng(seed + 1)
    r_s = bundle.source.to_dense()
    r_t = bundle.target.to_dense()
    eps = np.stack([rng.standard_normal((TOY["m"], 3)), rng.standard_normal((TOY["m"], 3))])
    return r_s, r_t, eps, bundle.aux_vectors


def build_toy_model(variant, seed=11, **overrides):
    config = make_toy_config(variant, **overrides)
    return build_model(config, TOY["n_source"], TOY["n_target"], named_rng(seed, "init"))


class TestEncode:
    def test_zero_input_zero_biases_gives_eps(self):
        model = build_toy_model("generic")
        eps = np.random.default_rng(0).standard_normal((1, 3))
        state, _ = model.enc_s.forward(np.zeros((1, 6)), eps)
        # tanh(0) = 0 chains through zero-init biases into zero heads
        assert np.allclose(state.mu, 0.0)
        assert np.allclose(state.logvar, 0.0)
        assert np.allclose(state.z, eps)

    def test_zero_eps_collapses_to_mu(self):
        model = build_toy_model("generic")
        r = np.random.default_rng(1).random((1, 6))
        state, _ = model.enc_s.forward(r, np.zeros((1, 3)))
        assert np.array_equal(state.z, state.mu)
        assert np.array_equal(model.enc_s.mean(r), state.mu)

    def test_deterministic(self):
        model = build_toy_model("generic")
        rng = np.random.default_rng(2)
        r, eps = rng.random((2, 6)), rng.standard_normal((2, 3))
        a, _ = model.enc_s.forward(r, eps)
        b, _ = model.enc_s.forward(r, eps)
        assert np.array_equal(a.z, b.z)

    def test_reparametrization_identity(self):
        model = build_toy_model("generic")
        rng = np.random.default_rng(3)
        state, _ = model.enc_t.forward(rng.random((4, 8)), rng.standard_normal((4, 3)))
        rebuilt = state.mu + np.exp(0.5 * state.logvar) * state.eps
        assert np.array_equal(state.z, rebuilt)


class TestDecoders:
    def test_source_outputs_in_unit_interval(self):
        model = build_toy_model("generic")
        out, _ = model.dec_s.forward(np.random.default_rng(0).standard_normal((5, 3)))
        assert out.shape == (5, 6)
        assert np.all(out > 0) and np.all(out < 1)

    def test_target_generic_width_is_two_latents(self):
        model = build_toy_model("generic")
        out, _ = model.dec_t.forward(np.zeros((2, 6)))
        assert out.shape == (2, 8)

    def test_merge_orders_source_first(self):
        z = merge_latents(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
        assert np.array_equal(z, [[1.0, 2.0, 3.0, 4.0]])

    def test_merge_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            merge_latents(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_perturbing_source_half_changes_target_output(self):
        model = build_toy_model("generic")
        rng = np.random.default_rng(4)
        z = rng.standard_normal((1, 6))
        bumped = z.copy()
        bumped[0, 0] += 0.5
        assert not np.allclose(model.dec_t.forward(z)[0], model.dec_t.forward(bumped)[0])


class TestColdStartPaths:
    def test_map_latent_range_and_shape(self):
        model = build_toy_model("cold-start")
        out, _ = model.map_layer.forward(np.random.default_rng(0).standard_normal((4, 3)))
        assert out.shape == (4, 3)
        assert np.all(out > -1) and np.all(out < 1)

    def test_target_decoder_width_is_single_latent(self):
        model = build_toy_model("cold-start")
        assert model.dec_t.forward(np.zeros((2, 3)))[0].shape == (2, 8)

    def test_prediction_ignores_target_row(self):
        model = build_toy_model("cold-start")
        r_s, r_t, *_ = toy_batch("cold-start")
        a = model.predict_scores(r_s, r_t)
        b = model.predict_scores(r_s, np.zeros_like(r_t))
        c = model.predict_scores(r_s, None)
        assert np.array_equal(a, b) and np.array_equal(a, c)


class TestAsymmetry:
    def test_source_reconstruction_blind_to_target_row(self):
        model = build_toy_model("generic")
        r_s, r_t, eps, _ = toy_batch("generic")
        fwd_a = model.forward(r_s, r_t, eps)
        fwd_b = model.forward(r_s, 1.0 - r_t, eps)
        assert np.array_equal(fwd_a["p_s"], fwd_b["p_s"])
        assert np.array_equal(fwd_a["state_s"].z, fwd_b["state_s"].z)

    def test_target_scores_depend_on_target_row_for_generic(self):
        model = build_toy_model("generic")
        r_s, r_t, *_ = toy_batch("generic")
        a = model.predict_scores(r_s, r_t)
        b = model.predict_scores(r_s, np.zeros_like(r_t))
        assert not np.allclose(a, b)


class TestAuxVariant:
    def test_encoder_heads_read_wider_input(self):
        model = build_toy_model("aux")
        width = model.enc_s.mu_head.in_dim
        assert width == 5 + 3  # hidden width + sub-encoder output

    def test_zeroed_aux_columns_make_aux_irrelevant(self):
        model = build_toy_model("aux")
        r_s, r_t, eps, aux = toy_batch("aux")
        for head in (model.enc_s.mu_head, model.enc_s.logvar_head):
            head.w[:, 5:] = 0.0
        a = model.forward(r_s, r_t, eps, aux)["state_s"]
        b = model.forward(r_s, r_t, eps, np.zeros_like(aux))["state_s"]
        assert np.array_equal(a.z, b.z)

    def test_aux_required(self):
        model = build_toy_model("aux")
        with pytest.raises(ValueError, match="aux"):
            model.predict_scores(np.zeros((1, 6)), np.zeros((1, 8)))

    def test_attach_one_side_only(self):
        model = build_toy_model("aux", aux_attach="source")
        assert model.enc_s.mu_head.in_dim == 8
        assert model.enc_t.mu_head.in_dim == 5


class TestSingleAndMerged:
    def test_single_ignores_source(self):
        model = build_toy_model("single")
        r_s, r_t, *_ = toy_batch("single")
        a = model.predict_scores(r_s, r_t)
        b = model.predict_scores(None, r_t)
        assert np.array_equal(a, b)

    def test_merged_input_width_is_domain_sum(self):
        model = build_toy_model("merged")
        assert model.input_dim == TOY["n_source"] + TOY["n_target"]

    def test_merged_scores_cover_target_slice(self):
        model = build_toy_model("merged")
        r_s, r_t, *_ = toy_batch("merged")
        scores = model.predict_scores(r_s, r_t)
        assert scores.shape == (TOY["m"], TOY["n_target"])


class TestPredictScores:
    @pytest.mark.parametrize("variant", ["generic", "single", "merged", "cold-start"])
    def test_mean_mode_deterministic_and_bounded(self, variant):
        model = build_toy_model(variant)
        r_s, r_t, *_ = toy_batch(variant)
        a = model.predict_scores(r_s, r_t)
        b = model.predict_scores(r_s, r_t)
        assert np.array_equal(a, b)
        assert np.all(a > 0) and np.all(a < 1)

    @pytest.mark.parametrize("variant, attach", [
        ("generic", "both"), ("no-mmd", "both"), ("single", "both"), ("merged", "both"),
        ("cold-start", "both"), ("aux", "both"), ("aux", "source"), ("aux", "target"),
    ])
    def test_equals_target_output_of_forward_with_zero_noise(self, variant, attach):
        # prediction runs the mu heads only; the training forward pass with
        # eps = 0 has z = mu, so both must give the same target outputs
        model = build_toy_model(variant, aux_attach=attach)
        r_s, r_t, eps, aux = toy_batch(variant)
        aux = aux if variant == "aux" else None
        fwd = model.forward(r_s, r_t, np.zeros_like(eps[:model.n_latents]), aux)
        if variant in ("single", "merged"):
            want = fwd["p"][:, model.n_source:] if variant == "merged" else fwd["p"]
        else:
            want = fwd["p_t"]
        assert np.array_equal(model.predict_scores(r_s, r_t, aux), want)


class TestVariantSharing:
    def test_generic_and_no_mmd_share_initialization(self):
        a = build_toy_model("generic", seed=21)
        b = build_toy_model("no-mmd", seed=21)
        for name, p in a.params().items():
            assert np.array_equal(p, b.params()[name])

    def test_breakdown_total_matches_field_sum(self):
        for variant in ("generic", "no-mmd", "single", "merged", "cold-start", "aux"):
            model = build_toy_model(variant)
            r_s, r_t, eps, aux = toy_batch(variant)
            breakdown, _ = model.loss_and_grads(
                r_s, r_t, eps[:model.n_latents], aux if variant == "aux" else None
            )
            parts = breakdown.as_dict()
            total = parts.pop("total")
            assert total == pytest.approx(sum(parts.values()), rel=1e-10)


GRAD_TOLERANCE = 1e-4


def run_gradient_check(variant, **overrides):
    model = build_toy_model(variant, **overrides)
    r_s, r_t, eps, aux = toy_batch(variant)
    eps = eps[:model.n_latents]
    aux = aux if variant == "aux" else None

    def loss():
        return model.loss_breakdown(model.forward(r_s, r_t, eps, aux)).total

    _, grads = model.loss_and_grads(r_s, r_t, eps, aux)
    return finite_diff_check(loss, model.params(), grads)


class TestGradients:
    @pytest.mark.parametrize(
        "variant", ["generic", "no-mmd", "single", "merged", "cold-start", "aux"]
    )
    def test_analytic_matches_finite_differences(self, variant):
        assert run_gradient_check(variant) < GRAD_TOLERANCE

    def test_cold_start_stop_gradient_only_detaches_target_encoder(self):
        # With the stop-gradient option the mapping loss no longer backprops
        # into z_T, so enc_T grads intentionally deviate from the true
        # derivative; everything else must still match finite differences.
        model = build_toy_model("cold-start", map_stop_gradient=True)
        r_s, r_t, eps, _ = toy_batch("cold-start")

        def loss():
            return model.loss_breakdown(model.forward(r_s, r_t, eps)).total

        _, grads = model.loss_and_grads(r_s, r_t, eps)
        kept = {n: p for n, p in model.params().items() if not n.startswith("enc_T")}
        kept_grads = {n: grads[n] for n in kept}
        assert finite_diff_check(loss, kept, kept_grads) < GRAD_TOLERANCE

        flow = build_toy_model("cold-start", map_stop_gradient=False)
        _, flow_grads = flow.loss_and_grads(r_s, r_t, eps)
        assert np.allclose(grads["map.W"], flow_grads["map.W"])
        enc_t_keys = [n for n in grads if n.startswith("enc_T")]
        assert any(not np.allclose(grads[n], flow_grads[n]) for n in enc_t_keys)

    def test_aux_attached_to_one_domain(self):
        assert run_gradient_check("aux", aux_attach="target") < GRAD_TOLERANCE

    def test_beta_zero_path(self):
        assert run_gradient_check("generic", beta=0.0) < GRAD_TOLERANCE

    def test_deep_encoder_stack(self):
        assert run_gradient_check("generic", enc_dims_source=(5, 4), enc_dims_target=(6, 4)) < GRAD_TOLERANCE


class TestConfig:
    def test_round_trip(self):
        config = make_toy_config("aux")
        again = ModelConfig.from_dict(config.to_dict())
        assert again == config

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="bogus").validate()

    def test_aux_requires_dimension(self):
        with pytest.raises(ValueError, match="aux_dim"):
            ModelConfig(variant="aux").validate()

    def test_linked_hosts_reject_single(self):
        with pytest.raises(ValueError):
            LinkedVAE(make_toy_config("single"), 6, 8)

    def test_rejects_sampled_inference(self):
        with pytest.raises(ValueError, match="inference_mode"):
            make_toy_config("generic", inference_mode="sample")

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -3), ("lr", 0.0), ("lr", -1.0), ("lr", np.nan),
        ("beta", np.nan), ("beta", np.inf), ("lambda_reg", np.inf), ("lambda_reg", -1e-4),
        ("cold_fraction", 1.5), ("cold_fraction", 0.0), ("epochs", -1), ("latent_dim", 0),
        ("seed", -1),
    ])
    def test_rejects_out_of_range_values_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            make_toy_config("generic", **{field: value})


class TestBuild:
    def test_without_rng_draws_nothing_and_leaves_zeros(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("init stream drawn")

        monkeypatch.setattr(nn, "glorot_init", no_draws)
        model = build_model(make_toy_config("aux"), 6, 8)
        assert not model.params().flat.any()

    @pytest.mark.parametrize("variant", ["generic", "single", "merged", "cold-start", "aux"])
    def test_weights_are_per_layer_glorot_draws_in_store_order(self, variant):
        model = build_toy_model(variant, seed=5)
        rng = named_rng(5, "init")
        for name, p in model.params().items():
            want = nn.glorot_init(p.shape[1], p.shape[0], rng) if name.endswith(".W") else 0.0
            assert np.array_equal(p, np.broadcast_to(want, p.shape)), name

    def test_rejects_empty_item_catalog(self):
        with pytest.raises(ValueError, match="bad layer sizes"):
            build_model(make_toy_config("generic"), 0, 8)
