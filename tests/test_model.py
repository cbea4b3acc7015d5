"""Variant architectures: forward contracts, asymmetry, gradients vs finite
differences on toy instances with frozen reparametrization noise."""

import numpy as np
import pytest

from xdvae import losses, nn
from xdvae.model import LinkedVAE, ModelConfig, build_model, merge_latents
from xdvae.nn import DenseLayer, named_rng
from xdvae.train import _batch_inputs

from conftest import cpu_helpers, finite_diff_check, make_toy_bundle, make_toy_config, patch_cpus
from test_losses import PASSED

TOY = dict(m=8, n_source=6, n_target=8)


def toy_batch(variant, seed=3, aux_dim=4):
    """Dense toy inputs, the variant's positives, frozen eps shaped (2, m, L), aux.

    Linked variants read both noise blocks, single and merged the first.
    """
    bundle = make_toy_bundle(**TOY, seed=seed, aux_dim=aux_dim)
    rng = np.random.default_rng(seed + 1)
    r_s = bundle.source.to_dense()
    _, r_t, pos = _batch_inputs(bundle, np.arange(TOY["m"]), variant)
    eps = np.stack([rng.standard_normal((TOY["m"], 3)), rng.standard_normal((TOY["m"], 3))])
    return r_s, r_t, pos, eps, bundle.aux_vectors


def build_toy_model(variant, seed=11, **overrides):
    config = make_toy_config(variant, **overrides)
    return build_model(config, TOY["n_source"], TOY["n_target"], named_rng(seed, "init"))


class TestEncode:
    def test_zero_input_zero_biases_gives_eps(self):
        model = build_toy_model("generic")
        eps = np.random.default_rng(0).standard_normal((1, 3))
        state = model.enc_s.forward(np.zeros((1, 6)), eps)
        # tanh(0) = 0 chains through zero-init biases into zero heads
        assert np.allclose(state.mu, 0.0)
        assert np.allclose(state.logvar, 0.0)
        assert np.allclose(state.z, eps)

    def test_zero_eps_collapses_to_mu(self):
        model = build_toy_model("generic")
        r = np.random.default_rng(1).random((1, 6))
        state = model.enc_s.forward(r, np.zeros((1, 3)))
        assert np.array_equal(state.z, state.mu)
        assert np.array_equal(model.enc_s.mean(r), state.mu)

    def test_deterministic(self):
        model = build_toy_model("generic")
        rng = np.random.default_rng(2)
        r, eps = rng.random((2, 6)), rng.standard_normal((2, 3))
        a = model.enc_s.forward(r, eps)
        b = model.enc_s.forward(r, eps)
        assert np.array_equal(a.z, b.z)

    def test_reparametrization_identity(self):
        model = build_toy_model("generic")
        rng = np.random.default_rng(3)
        state = model.enc_t.forward(rng.random((4, 8)), rng.standard_normal((4, 3)))
        rebuilt = state.mu + np.exp(0.5 * state.logvar) * state.eps
        assert np.array_equal(state.z, rebuilt)


class TestDecoders:
    def test_source_outputs_are_logits(self):
        # the last decoder layer is the identity: its output is h @ W.T + b
        model = build_toy_model("generic")
        z = np.random.default_rng(0).standard_normal((5, 3))
        acts = model.dec_s.forward(z)
        out, last = acts[-1], model.dec_s.layers[-1]
        assert out.shape == (5, 6)
        assert np.array_equal(out, acts[-2] @ last.w.T + last.b)
        assert (out < 0).any()

    def test_target_generic_width_is_two_latents(self):
        model = build_toy_model("generic")
        assert model.dec_t.forward(np.zeros((2, 6)))[-1].shape == (2, 8)

    def test_merge_orders_source_first(self):
        z = merge_latents(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
        assert np.array_equal(z, [[1.0, 2.0, 3.0, 4.0]])

    def test_perturbing_source_half_changes_target_output(self):
        model = build_toy_model("generic")
        rng = np.random.default_rng(4)
        z = rng.standard_normal((1, 6))
        bumped = z.copy()
        bumped[0, 0] += 0.5
        assert not np.allclose(model.dec_t.forward(z)[-1], model.dec_t.forward(bumped)[-1])


class TestColdStartPaths:
    def test_map_latent_range_and_shape(self):
        model = build_toy_model("cold-start")
        out = model.map_layer.forward(np.random.default_rng(0).standard_normal((4, 3)))
        assert out.shape == (4, 3)
        assert np.all(out > -1) and np.all(out < 1)

    def test_target_decoder_width_is_single_latent(self):
        model = build_toy_model("cold-start")
        assert model.dec_t.forward(np.zeros((2, 3)))[-1].shape == (2, 8)

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
        r_s, r_t, pos, eps, _ = toy_batch("generic")
        fwd_a = model.forward(r_s, r_t, pos, eps)
        fwd_b = model.forward(r_s, 1.0 - r_t, pos, eps)
        assert np.array_equal(fwd_a["dec_s"][-1], fwd_b["dec_s"][-1])
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
        width = model.enc_s.mu_head.shape[1]
        assert width == 5 + 3  # hidden width + sub-encoder output

    def test_zeroed_aux_columns_make_aux_irrelevant(self):
        model = build_toy_model("aux")
        r_s, r_t, pos, eps, aux = toy_batch("aux")
        for head in (model.enc_s.mu_head, model.enc_s.logvar_head):
            head.w[:, 5:] = 0.0
        a = model.forward(r_s, r_t, pos, eps, aux)["state_s"]
        b = model.forward(r_s, r_t, pos, eps, np.zeros_like(aux))["state_s"]
        assert np.array_equal(a.z, b.z)

    def test_aux_required(self):
        model = build_toy_model("aux")
        with pytest.raises(ValueError, match="aux"):
            model.predict_scores(np.zeros((1, 6)), np.zeros((1, 8)))

    def test_attach_one_side_only(self):
        model = build_toy_model("aux", aux_attach="source")
        assert model.enc_s.mu_head.shape[1] == 8
        assert model.enc_t.mu_head.shape[1] == 5


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
        # scores are logits: finite, and not squashed into (0, 1)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a)) and (a < 0).any()

    @pytest.mark.parametrize("variant, attach", [
        ("generic", "both"), ("no-mmd", "both"), ("single", "both"), ("merged", "both"),
        ("cold-start", "both"), ("aux", "both"), ("aux", "source"), ("aux", "target"),
    ])
    def test_equals_target_output_of_forward_with_zero_noise(self, variant, attach):
        # prediction runs the mu heads only; the training forward pass with
        # eps = 0 has z = mu, so both must give the same target outputs
        model = build_toy_model(variant, aux_attach=attach)
        r_s, r_t, pos, eps, aux = toy_batch(variant)
        aux = aux if variant == "aux" else None
        fwd = model.forward(r_s, r_t, pos, np.zeros_like(eps[:model.n_latents]), aux)
        if variant in ("single", "merged"):
            want = fwd["dec"][-1][:, model.n_source:] if variant == "merged" else fwd["dec"][-1]
        else:
            want = fwd["dec_t"][-1]
        assert np.array_equal(model.predict_scores(r_s, r_t, aux), want)

    @pytest.mark.parametrize("dims", [(5,), (5, 4)])
    def test_no_target_rows_equal_zero_rows(self, dims):
        # r_t None stands for rows without positives, with one or more hidden layers
        model = build_toy_model("aux", aux_attach="target", enc_dims_target=dims)
        r_s, r_t, *_, aux = toy_batch("aux")
        want = model.predict_scores(r_s, np.zeros_like(r_t), aux)
        assert model.predict_scores(r_s, None, aux).tobytes() == want.tobytes()


class TestVariantSharing:
    def test_generic_and_no_mmd_share_initialization(self):
        a = build_toy_model("generic", seed=21)
        b = build_toy_model("no-mmd", seed=21)
        for name, p in a.params().items():
            assert np.array_equal(p, b.params()[name])

    @pytest.mark.parametrize("variant", sorted(PASSED))
    def test_forward_passes_exactly_its_terms(self, variant):
        # the terms are keyed by LossBreakdown field, in field order
        model = build_toy_model(variant)
        r_s, r_t, pos, eps, aux = toy_batch(variant)
        fwd = model.forward(r_s, r_t, pos, eps[:model.n_latents],
                            aux if variant == "aux" else None)
        assert tuple(fwd["terms"]) == PASSED[variant]

    def test_breakdown_total_matches_field_sum(self):
        for variant in ("generic", "no-mmd", "single", "merged", "cold-start", "aux"):
            model = build_toy_model(variant)
            r_s, r_t, pos, eps, aux = toy_batch(variant)
            breakdown, _ = model.loss_and_grads(
                r_s, r_t, pos, eps[:model.n_latents], aux if variant == "aux" else None
            )
            parts = breakdown.as_dict()
            total = parts.pop("total")
            assert total == pytest.approx(sum(parts.values()), rel=1e-10)


GRAD_TOLERANCE = 1e-4


def run_gradient_check(variant, **overrides):
    model = build_toy_model(variant, **overrides)
    r_s, r_t, pos, eps, aux = toy_batch(variant)
    eps = eps[:model.n_latents]
    aux = aux if variant == "aux" else None

    def loss():
        return model.loss_breakdown(model.forward(r_s, r_t, pos, eps, aux)).total

    _, grads = model.loss_and_grads(r_s, r_t, pos, eps, aux)
    return finite_diff_check(loss, model.params(), grads)


class TestGradients:
    @pytest.mark.parametrize(
        "variant", ["generic", "no-mmd", "single", "merged", "cold-start", "aux"]
    )
    def test_analytic_matches_finite_differences(self, variant):
        assert run_gradient_check(variant) < GRAD_TOLERANCE

    def test_output_grad_matches_the_closed_form_bit_for_bit(self):
        rng = np.random.default_rng(9)
        a, r = 4.0 * rng.standard_normal((6, 11)), (rng.random((6, 11)) < 0.3).astype(float)
        a[0, :2] = (40.0, -40.0)
        a_before = a.copy()
        _, g = losses.masked_recon(a, np.flatnonzero(r), 15.0, 6)
        p = 1.0 / (1.0 + np.exp(-a))
        assert np.array_equal(g, ((p - r) - 15.0 * r * (1.0 - p)) / 6)
        assert np.array_equal(a, a_before)

    @pytest.mark.parametrize("a", [40.0, -40.0])
    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_output_grad_is_the_slope_of_the_loss_at_saturation(self, a, r):
        # one function: the analytic slope of masked_recon at |a| = 40 is its
        # central difference (about 1 at a = 40, r = 0; -16 at a = -40, r = 1)
        logits, pos, h = np.array([[a]]), np.flatnonzero([r]), 1e-6
        numeric = (losses.masked_recon(logits + h, pos, 15.0, 1)[0]
                   - losses.masked_recon(logits - h, pos, 15.0, 1)[0]) / (2.0 * h)
        analytic = losses.masked_recon(logits, pos, 15.0, 1)[1][0, 0]
        assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-6)

    def test_saturated_decoder_matches_finite_differences(self):
        # every decoder output starts near logit 40: far from the data where
        # r is 0, saturated where it is 1; the loss is still differentiated exactly
        model = build_toy_model("generic")
        for name in ("dec_S.1.b", "dec_T.1.b"):
            model.params()[name][...] = 40.0
        r_s, r_t, pos, eps, _ = toy_batch("generic")
        eps = eps[:model.n_latents]
        fwd = model.forward(r_s, r_t, pos, eps)
        assert np.abs(fwd["dec_s"][-1]).min() > 36.0 and np.abs(fwd["dec_t"][-1]).min() > 36.0

        def loss():
            return model.loss_breakdown(model.forward(r_s, r_t, pos, eps)).total

        _, grads = model.loss_and_grads(r_s, r_t, pos, eps)
        assert finite_diff_check(loss, model.params(), grads) < GRAD_TOLERANCE

    def test_aux_attached_to_one_domain(self):
        assert run_gradient_check("aux", aux_attach="target") < GRAD_TOLERANCE

    def test_beta_zero_path(self):
        assert run_gradient_check("generic", beta=0.0) < GRAD_TOLERANCE

    def test_deep_encoder_stack(self):
        assert run_gradient_check("generic", enc_dims_source=(5, 4), enc_dims_target=(6, 4)) < GRAD_TOLERANCE


WEIGHT_GRAD_CASES = {
    "generic": ("generic", {}),
    "no-mmd": ("no-mmd", {}),
    "cold-start": ("cold-start", {}),
    "aux-both": ("aux", {"aux_attach": "both"}),
    "aux-source": ("aux", {"aux_attach": "source"}),
    "aux-target": ("aux", {"aux_attach": "target"}),
    "single": ("single", {}),
    "merged": ("merged", {}),
}


class TestWeightGradsOnCpus:
    """backward runs the input-gradient chain on the calling thread, then every
    layer's weight gradients, each with its L2 term, in one CPU map; the whole
    gradient store equals that of computing both inline, in the chain."""

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(WEIGHT_GRAD_CASES))
    def test_grads_equal_inline_weight_grads(self, monkeypatch, fast_switches, case, n_cpus):
        variant, overrides = WEIGHT_GRAD_CASES[case]
        model = build_toy_model(variant, **overrides)
        r_s, r_t, pos, eps, aux = toy_batch(variant)
        args = (r_s, r_t, pos, eps[:model.n_latents], aux if variant == "aux" else None)
        n_layers = len(model.tensor_shapes()) // 2
        backward, weight_grads = DenseLayer.backward, DenseLayer.weight_grads
        two_lambda = 2.0 * model.config.lambda_reg

        def inline(layer, grad_y, x, y, jobs, input_grad=True):
            own = []
            grad_x = backward(layer, grad_y, x, y, own, input_grad)
            for queued, grad_a, x in own:
                queued.weight_grads(grad_a, x)
                queued.gw += two_lambda * queued.w
                queued.gb += two_lambda * queued.b
            return grad_x

        grads = model.loss_and_grads(*args)[1]
        grads.flat[...] = np.nan   # a tensor nobody writes stays NaN
        with monkeypatch.context() as patch:
            patch.setattr(DenseLayer, "backward", inline)
            model.loss_and_grads(*args)
        want = grads.flat.tobytes()
        assert not np.isnan(grads.flat).any()

        started = patch_cpus(monkeypatch, n_cpus)
        events, maps, map_on_cpus = [], [], nn.map_on_cpus

        def chain(layer, *a, **kw):
            grad_x = backward(layer, *a, **kw)
            events.append("chain")
            return grad_x

        def job(layer, grad_a, x):
            events.append("job")
            weight_grads(layer, grad_a, x)

        def recorded(fn, items):
            items, helpers = list(items), len(cpu_helpers(started))
            out = map_on_cpus(fn, items)
            maps.append((items, len(cpu_helpers(started)) - helpers))
            return out

        monkeypatch.setattr(DenseLayer, "backward", chain)
        monkeypatch.setattr(DenseLayer, "weight_grads", job)
        monkeypatch.setattr(nn, "map_on_cpus", recorded)
        grads.flat[...] = np.nan
        assert model.loss_and_grads(*args)[1] is grads
        assert grads.flat.tobytes() == want
        # every job starts after the whole chain, one job per layer
        assert events == ["chain"] * n_layers + ["job"] * n_layers
        # one map over the jobs, which add the L2 gradient too, serves the whole backward
        assert [type(items[0]) for items, _ in maps] == [tuple]
        jobs, helpers = maps[0]
        assert len({id(layer) for layer, _, _ in jobs}) == len(jobs) == n_layers
        assert [layer.w.size for layer, _, _ in jobs] == sorted(
            (layer.w.size for layer, _, _ in jobs), reverse=True)
        assert helpers == min(n_cpus, n_layers) - 1


def split_model_outputs(started):
    """(loss, gradient bytes, score bytes, helpers started by predict_scores) of
    a generic model whose decoders end in a 64 x 64 x 600 product, which
    nn.matmul_halves splits: dims 64, 600 items per domain, 64 users."""
    config = make_toy_config("generic", latent_dim=64, enc_dims_source=(64,),
                             enc_dims_target=(64,), batch_size=64)
    model = build_model(config, 600, 600, named_rng(11, "init"))
    bundle = make_toy_bundle(m=64, n_source=600, n_target=600, seed=5)
    r_s = bundle.source.to_dense()
    _, r_t, pos = _batch_inputs(bundle, np.arange(64), "generic")
    eps = np.random.default_rng(6).standard_normal((2, 64, 64))
    loss, grads = model.loss_and_grads(r_s, r_t, pos, eps)
    helpers = len(cpu_helpers(started))
    scores = model.predict_scores(r_s, r_t)
    return loss, grads.flat.tobytes(), scores.tobytes(), len(cpu_helpers(started)) - helpers


class TestMatmulHalvesInModel:
    """Training and scoring give the same bytes whether the products of the
    decoders' output layers split (see nn.matmul_halves) or not."""

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_same_bytes_on_any_cpus(self, monkeypatch, n_cpus):
        *want, _ = split_model_outputs(patch_cpus(monkeypatch, 1))
        *got, predict_helpers = split_model_outputs(patch_cpus(monkeypatch, n_cpus))
        assert got == want
        # the target decoder's output product is the only one predict_scores splits
        assert predict_helpers == (n_cpus > 1 and nn.ONE_BLAS_THREAD)

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_same_bytes_inside_a_map_item(self, monkeypatch, n_cpus):
        *want, _ = split_model_outputs(patch_cpus(monkeypatch, 1))
        started = patch_cpus(monkeypatch, n_cpus)
        # the calling thread runs the first item: the model; a helper may take the second
        got = nn.map_on_cpus(lambda k, first: first and split_model_outputs(started),
                             [True, False])[0]
        assert got[:3] == tuple(want) and got[3] == 0
        # the maps inside the item, the weight gradients' and the halves', start no thread
        assert len(cpu_helpers(started)) == min(n_cpus, 2) - 1


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
        # and values of the wrong type
        ("beta", True), ("beta", "1"), ("beta", None), ("lambda_reg", False), ("lr", True),
        ("cold_fraction", "0.5"), ("map_stop_gradient", "no"), ("map_stop_gradient", 0),
        # pinned to false, like inference_mode to "mean"
        ("map_stop_gradient", True),
        # layer widths: a non-empty list of integers >= 1
        ("enc_dims_source", ()), ("enc_dims_target", (0,)), ("aux_encoder_dims", ()),
        ("enc_dims_target", (5, -1)),
    ])
    def test_rejects_out_of_range_values_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            make_toy_config("generic", **{field: value})

    def test_integer_reals_stay_valid(self):
        config = make_toy_config("generic", beta=0, lambda_reg=0, lr=1)
        assert ModelConfig.from_dict(config.to_dict()) == config


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
