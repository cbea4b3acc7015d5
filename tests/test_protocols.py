"""Desk-scale protocol runs on the planted synthetic dataset.

These complement the MovieLens acceptance criteria: they prove the training
and evaluation machinery learns real cross-domain structure (clearly above
the 0.10 chance level of ranking 1 among 100) without asserting the MovieLens
reference orderings, which do not transfer to this tiny corpus.
"""

import numpy as np
import pytest

from xdvae import data
from xdvae.evaluate import evaluate, evaluate_cold_start, evaluate_degraded
from xdvae.model import ModelConfig
from xdvae.train import ablation_config, train

from conftest import make_synthetic_interactions

CHANCE_HR10 = 0.10


@pytest.fixture(scope="module")
def strong_bundle(tmp_path_factory):
    """Synthetic corpus with a strong planted taste signal."""
    root = tmp_path_factory.mktemp("strong")
    ratings, movies = make_synthetic_interactions(
        m=300, n_source=60, n_target=180,
        source_density=6.0, target_density=6.0,
    )
    (root / "r.dat").write_text("\n".join(ratings) + "\n")
    (root / "m.dat").write_text("\n".join(movies) + "\n")
    interactions = data.load_ratings(str(root / "r.dat"))
    labels = data.load_item_labels(str(root / "m.dat"))
    source, target = data.split_domains(interactions, labels, {"Action"}, {"Comedy", "Drama"})
    return data.binarize_and_filter(source, target)


def desk_config(variant="generic", seed=1, **overrides):
    base = dict(
        variant=variant, beta=4.0, lambda_reg=1e-4, lr=3e-3, batch_size=32,
        epochs=150, latent_dim=16, enc_dims_source=(32,), enc_dims_target=(32,),
        seed=seed,
    )
    base.update(overrides)
    return ModelConfig(**base).validate()


@pytest.mark.slow
class TestLearnsCrossDomainStructure:
    def test_generic_beats_chance_across_seeds(self, strong_bundle):
        for seed in (1, 2, 3):
            split = data.build_loo_split(strong_bundle, seed=seed)
            view = data.training_bundle(strong_bundle, split)
            model, history = train(view, desk_config(seed=seed))
            assert history.totals()[-1] < history.totals()[0]
            report = evaluate(model, view, split)
            assert report.hr[10] >= 0.14, f"seed {seed}: HR@10 {report.hr[10]:.3f}"
            assert report.hr[10] > CHANCE_HR10

    def test_cold_start_beats_chance(self, strong_bundle):
        seed = 1
        cold = data.cold_start_split(strong_bundle, 0.1, seed=seed)
        view = data.restrict_users(strong_bundle, cold.train_users)
        model, history = train(view, desk_config("cold-start", seed=seed))
        report = evaluate_cold_start(model, cold, strong_bundle)
        assert report.hr[10] >= 0.14, f"HR@10 {report.hr[10]:.3f}"
        assert report.m_evaluated == sum(
            np.diff(strong_bundle.target.indptr)[u] for u in cold.test_users
        )

    def test_cold_training_never_sees_test_users(self, strong_bundle):
        cold = data.cold_start_split(strong_bundle, 0.1, seed=4)
        view = data.restrict_users(strong_bundle, cold.train_users)
        _, history = train(view, desk_config("cold-start", seed=4, epochs=1))
        trained = set(history.users_trained)
        test_keys = {strong_bundle.source.user_index[u] for u in cold.test_users}
        assert trained.isdisjoint(test_keys)


@pytest.mark.slow
class TestProtocolShapes:
    def test_degradation_pipeline_covers_all_fractions(self, strong_bundle):
        split = data.build_loo_split(strong_bundle, seed=5)
        view = data.training_bundle(strong_bundle, split)
        model, _ = train(view, desk_config(seed=5, epochs=60))
        fractions = [1.0, 0.75, 0.5, 0.25, 0.0]
        reports = evaluate_degraded(model, view, split, fractions, seed=5)
        assert [r.extra["fraction_kept"] for r in reports] == fractions
        standard = evaluate(model, view, split)
        assert reports[0].hr[10] == standard.hr[10]
        for r in reports:
            assert 0.0 <= r.ndcg[10] <= r.hr[10] <= 1.0

    def test_variant_suite_all_train_and_evaluate(self, strong_bundle):
        split = data.build_loo_split(strong_bundle, seed=6)
        view = data.training_bundle(strong_bundle, split)
        base = desk_config(seed=6, epochs=40)
        results = {
            name: train(view, ablation_config(base, name))
            for name in ["generic", "single", "single0", "merged", "merged0", "no-mmd"]
        }
        hr = {}
        for name, (model, history) in results.items():
            assert np.isfinite(history.totals()[-1])
            hr[name] = evaluate(model, view, split).hr[10]
        assert set(hr) == {"generic", "single", "single0", "merged", "merged0", "no-mmd"}
        assert all(0.0 <= v <= 1.0 for v in hr.values())
