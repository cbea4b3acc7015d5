"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line.

Criteria that reproduce published MovieLens 1M numbers need the real dataset
on disk (not redistributable with this repo): set $XDVAE_ML1M_DIR or unpack
ml-1m so that ratings.dat/movies.dat sit under <repo>/data/ml-1m/. Without it
those tests skip; everything else runs on bundled synthetic data. The
full-scale trainings are additionally marked `slow`.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from xdvae import data, evaluate
from xdvae.evaluate import hit_ratio, ndcg, rank_first
from xdvae.cli import main as cli_main
from xdvae.model import ModelConfig, build_model
from xdvae.nn import named_rng
from xdvae.train import _batch_inputs, ablation_config, load_checkpoint, save_checkpoint, train

from conftest import finite_diff_check, make_toy_bundle, make_toy_config

ML1M_ENV = "XDVAE_ML1M_DIR"
SOURCE_GENRES = {"Action"}
TARGET_GENRES = {"Comedy", "Drama", "Fantasy", "Romance"}
SEEDS = (101, 202, 303)


def ml1m_dir():
    candidates = [os.environ.get(ML1M_ENV), str(Path(__file__).parent.parent / "data" / "ml-1m")]
    for cand in candidates:
        if cand and os.path.exists(os.path.join(cand, "ratings.dat")) \
                and os.path.exists(os.path.join(cand, "movies.dat")):
            return cand
    return None


requires_ml1m = pytest.mark.skipif(
    ml1m_dir() is None,
    reason=f"MovieLens 1M not found: set {ML1M_ENV} or unpack the dataset under "
           f"data/ml-1m/ (ratings.dat + movies.dat)",
)


def check(criterion, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def ml1m_bundle():
    root = ml1m_dir()
    interactions = data.load_ratings(os.path.join(root, "ratings.dat"), "movielens-dat")
    labels = data.load_item_labels(os.path.join(root, "movies.dat"), "movielens-dat")
    source, target = data.split_domains(interactions, labels, SOURCE_GENRES, TARGET_GENRES)
    return data.binarize_and_filter(source, target)


def reference_config(seed, variant="generic", **overrides):
    """MovieLens hyperparameters: n-256-128 stacks, L=128, batch 32, beta 15."""
    base = dict(
        variant=variant, beta=15.0, lambda_reg=1e-4, lr=1e-3, batch_size=32,
        epochs=int(os.environ.get("XDVAE_ACCEPT_EPOCHS", "100")),
        latent_dim=128, enc_dims_source=(256,), enc_dims_target=(256,), seed=seed,
    )
    base.update(overrides)
    return ModelConfig(**base).validate()


# -- criterion 1: Table 2 statistics ----------------------------------------


@requires_ml1m
class TestCriterion01Table2:
    def test_criterion_01_table2_statistics(self, ml1m_bundle):
        b = ml1m_bundle
        stats = {
            "m": (b.m, 1348),
            "n_source": (b.source.n_items, 300),
            "n_target": (b.target.n_items, 2262),
            "inter_source": (b.source.n_interactions, 52158),
            "inter_target": (b.target.n_interactions, 150615),
        }
        failures = [
            f"{key}: {got} vs {want}"
            for key, (got, want) in stats.items()
            if abs(got - want) > 0.02 * want
        ]
        sparsity = {
            "sparsity_source": (100.0 * b.source.sparsity(), 52.26),
            "sparsity_target": (100.0 * b.target.sparsity(), 95.06),
        }
        failures += [
            f"{key}: {got:.2f}% vs {want:.2f}%"
            for key, (got, want) in sparsity.items()
            if abs(got - want) > 0.5
        ]
        detail = "; ".join(
            f"{k}={v[0]}" for k, v in {**stats, **sparsity}.items()
        )
        check(1, not failures, detail + ("; OFF: " + "; ".join(failures) if failures else ""))


# -- criterion 2: gradient correctness ---------------------------------------


class TestCriterion02Gradients:
    TOY = dict(m=8, n_source=6, n_target=8)

    def _check_variant(self, variant):
        config = make_toy_config(variant)  # L=3, d_aux=4
        bundle = make_toy_bundle(**self.TOY, seed=5, aux_dim=4)
        model = build_model(config, 6, 8, named_rng(4, "init"))
        rng = np.random.default_rng(17)
        r_s, r_t, pos = _batch_inputs(bundle, np.arange(bundle.m), variant)
        eps = rng.standard_normal((2, 8, 3))[:model.n_latents]
        aux = bundle.aux_vectors if variant == "aux" else None
        loss = lambda: model.loss_breakdown(model.forward(r_s, r_t, pos, eps, aux)).total
        _, grads = model.loss_and_grads(r_s, r_t, pos, eps, aux)
        return finite_diff_check(loss, model.params(), grads)

    def test_criterion_02_gradient_checks(self):
        worst = {
            variant: self._check_variant(variant)
            for variant in ("generic", "single", "merged", "no-mmd", "cold-start", "aux")
        }
        detail = "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        check(2, all(v < 1e-4 for v in worst.values()), detail)


# -- criterion 3: metric oracles ---------------------------------------------


class TestCriterion03MetricOracles:
    def test_criterion_03_metric_oracles(self):
        rng = np.random.default_rng(99)
        exact = True
        for _ in range(1000):
            ranks = rng.integers(1, 101, size=int(rng.integers(5, 400)))
            k = int(rng.choice([5, 10, 20, 50]))
            hits, gains = 0, []
            for p in ranks.tolist():
                if p <= k:
                    hits += 1
                    gains.append(math.log(2) / math.log(p + 1))
            if hit_ratio(ranks, k) != hits / len(ranks):
                exact = False
                break
            if ndcg(ranks, k) != math.fsum(gains) / len(ranks):
                exact = False
                break

        users = 100_000
        ids = np.arange(100)
        hit = 0
        for u in range(users):
            scores = rng.random(100)
            if rank_first(scores[None], ids[None])[0] <= 10:
                hit += 1
        hr10 = hit / users
        check(
            3, exact and abs(hr10 - 0.10) < 0.01,
            f"1000 outcome sets exact={exact}; random-scorer HR@10={hr10:.4f}",
        )


# -- criterion 4: MovieLens headline reproduction ----------------------------


@requires_ml1m
@pytest.mark.slow
class TestCriterion04Headline:
    def test_criterion_04_movielens_headline(self, ml1m_bundle):
        hrs, ndcgs = [], []
        for seed in SEEDS:
            split = data.build_loo_split(ml1m_bundle, seed=seed)
            view = data.training_bundle(ml1m_bundle, split)
            model, _ = train(view, reference_config(seed))
            report = evaluate.evaluate(model, view, split)
            hrs.append(report.hr[10])
            ndcgs.append(report.ndcg[10])
        hr, nd = float(np.mean(hrs)), float(np.mean(ndcgs))
        ok = abs(hr - 0.7930) <= 0.04 and abs(nd - 0.5084) <= 0.04
        check(4, ok, f"HR@10={hr:.4f} (target 0.7930±0.04), NDCG@10={nd:.4f} (target 0.5084±0.04)")


# -- criterion 5: ablation ordering ------------------------------------------


@requires_ml1m
@pytest.mark.slow
class TestCriterion05Ablation:
    VARIANTS = ("generic", "single", "single0", "merged", "merged0", "no-mmd")

    def test_criterion_05_ablation_ordering(self, ml1m_bundle):
        mean_hr = {v: [] for v in self.VARIANTS}
        for seed in SEEDS:
            split = data.build_loo_split(ml1m_bundle, seed=seed)
            view = data.training_bundle(ml1m_bundle, split)
            base = reference_config(seed)
            for name in self.VARIANTS:
                model, _ = train(view, ablation_config(base, name))
                mean_hr[name].append(evaluate.evaluate(model, view, split).hr[10])
        hr = {k: float(np.mean(v)) for k, v in mean_hr.items()}
        gain = (hr["generic"] - hr["no-mmd"]) / hr["no-mmd"]
        ok = (
            hr["generic"] > hr["single"] > hr["merged"]
            and hr["single"] > hr["single0"]
            and hr["merged"] > hr["merged0"]
            and hr["generic"] >= hr["no-mmd"]
            and 0.0 <= gain <= 0.08
        )
        detail = ", ".join(f"{k}={v:.4f}" for k, v in hr.items()) + f", mmd-gain={gain:.2%}"
        check(5, ok, detail)


# -- criterion 6: beta sensitivity -------------------------------------------


@requires_ml1m
@pytest.mark.slow
class TestCriterion06Beta:
    def test_criterion_06_beta_sensitivity(self, ml1m_bundle):
        deltas = []
        for seed in SEEDS:
            split = data.build_loo_split(ml1m_bundle, seed=seed)
            view = data.training_bundle(ml1m_bundle, split)
            with_beta, _ = train(view, reference_config(seed, beta=15.0))
            without, _ = train(view, reference_config(seed, beta=0.0))
            deltas.append(
                evaluate.evaluate(with_beta, view, split).hr[10]
                - evaluate.evaluate(without, view, split).hr[10]
            )
        delta = float(np.mean(deltas))
        check(6, delta >= 0.01, f"HR@10(beta=15) - HR@10(beta=0) = {delta:.4f} (need >= 0.01)")


# -- criterion 7: cold start -------------------------------------------------


class TestCriterion07ColdStart:
    def test_criterion_07a_architecture_blind_to_target_row(self, synthetic_bundle):
        cold = data.cold_start_split(synthetic_bundle, 0.1, seed=8)
        view = data.restrict_users(synthetic_bundle, cold.train_users)
        config = make_toy_config(
            "cold-start", epochs=5, latent_dim=8,
            enc_dims_source=(16,), enc_dims_target=(16,), batch_size=32,
        )
        model, _ = train(view, config)
        r_s = synthetic_bundle.source.to_dense(cold.test_users)
        r_t = synthetic_bundle.target.to_dense(cold.test_users)
        with_rows = model.predict_scores(r_s, r_t)
        zeroed = model.predict_scores(r_s, np.zeros_like(r_t))
        check(
            "7a", np.array_equal(with_rows, zeroed),
            "cold-start predictions bit-identical with target rows zeroed",
        )

    @requires_ml1m
    @pytest.mark.slow
    def test_criterion_07b_movielens_cold_start(self, ml1m_bundle):
        hrs, ndcgs = [], []
        for seed in SEEDS:
            cold = data.cold_start_split(ml1m_bundle, 0.1, seed=seed)
            view = data.restrict_users(ml1m_bundle, cold.train_users)
            model, _ = train(view, reference_config(seed, variant="cold-start"))
            report = evaluate.evaluate_cold_start(model, cold, ml1m_bundle)
            hrs.append(report.hr[10])
            ndcgs.append(report.ndcg[10])
        hr, nd = float(np.mean(hrs)), float(np.mean(ndcgs))
        ok = abs(hr - 0.5801) <= 0.05 and abs(nd - 0.3236) <= 0.05
        check("7b", ok, f"HR@10={hr:.4f} (target 0.5801±0.05), NDCG@10={nd:.4f} (target 0.3236±0.05)")


# -- criterion 8: degradation trend + generic-format ingestion ---------------


class TestCriterion08Degradation:
    @requires_ml1m
    @pytest.mark.slow
    def test_criterion_08a_movielens_monotone_trend(self, ml1m_bundle):
        fractions = [1.0, 0.75, 0.5, 0.25, 0.0]
        split = data.build_loo_split(ml1m_bundle, seed=SEEDS[0])
        view = data.training_bundle(ml1m_bundle, split)
        model, _ = train(view, reference_config(SEEDS[0]))
        reports = evaluate.evaluate_degraded(model, view, split, fractions, seed=SEEDS[0])
        hrs = [r.hr[10] for r in reports]
        steps_ok = all(hrs[i + 1] <= hrs[i] + 0.01 for i in range(len(hrs) - 1))
        check("8a", steps_ok, "HR@10 per fraction " + ", ".join(f"{h:.4f}" for h in hrs))

    def test_criterion_08b_amazon_style_csv_ingestion(self, tmp_path):
        # category-labelled csv logs must flow through the same pipeline
        rng = np.random.default_rng(12)
        lines = ["user,item,rating,timestamp"]
        for u in range(80):
            for j in rng.choice(12, size=4, replace=False):
                lines.append(f"u{u},movie{j},{rng.integers(4, 6)},{1000 + u}")
            for j in rng.choice(200, size=8, replace=False):
                lines.append(f"u{u},book{j},{rng.integers(4, 6)},{2000 + u}")
        ratings = tmp_path / "amazon.csv"
        ratings.write_text("\n".join(lines) + "\n")
        items = tmp_path / "categories.csv"
        items.write_text(
            "item,labels\n"
            + "\n".join(f"movie{j},Movies" for j in range(12)) + "\n"
            + "\n".join(f"book{j},Books" for j in range(200)) + "\n"
        )
        out = tmp_path / "amazon.xdb"
        code = cli_main([
            "prepare", "--ratings", str(ratings), "--items", str(items),
            "--format", "csv", "--source-labels", "Movies",
            "--target-labels", "Books", "--seed", "3", "--out", str(out),
        ])
        bundle, split = data.load_bundle(out)
        ok = code == 0 and bundle.m == 80 and split is not None
        check("8b", ok, f"csv ingestion exit={code}, m={bundle.m}")


# -- criterion 9: command determinism ----------------------------------------


class TestCriterion09Determinism:
    def test_criterion_09_bit_identical_artifacts(self, synthetic_corpus, tmp_path):
        flags_prepare = [
            "prepare", "--ratings", synthetic_corpus["ratings"],
            "--items", synthetic_corpus["movies"],
            "--source-labels", "Action", "--target-labels", "Comedy,Drama",
            "--seed", "7", "--out", str(tmp_path / "b.xdb"),
        ]
        flags_train = [
            "train", "--bundle", str(tmp_path / "b.xdb"), "--variant", "generic",
            "--dims", "16", "--latent-dim", "8", "--epochs", "2",
            "--seed", "7", "--out", str(tmp_path / "m.xdv"),
        ]
        flags_eval = [
            "eval", "--model", str(tmp_path / "m.xdv"), "--bundle", str(tmp_path / "b.xdb"),
            "--protocol", "standard", "--out", str(tmp_path / "metrics"),
        ]
        artifacts = ("b.xdb", "m.xdv", "metrics.json", "metrics.csv")
        snapshots = []
        for _ in range(2):
            for flags in (flags_prepare, flags_train, flags_eval):
                assert cli_main(flags) == 0
            snapshots.append({a: (tmp_path / a).read_bytes() for a in artifacts})
        same = {a: snapshots[0][a] == snapshots[1][a] for a in artifacts}
        check(9, all(same.values()), f"identical={same}")


# -- criterion 10: format round trips ----------------------------------------


class TestCriterion10RoundTrips:
    def test_criterion_10_save_load_save_byte_identity(self, synthetic_bundle, tmp_path):
        split = data.build_loo_split(synthetic_bundle, seed=13)
        view = data.training_bundle(synthetic_bundle, split)
        b1, b2 = tmp_path / "b1.xdb", tmp_path / "b2.xdb"
        data.save_bundle(synthetic_bundle, b1, split=split)
        loaded, loaded_split = data.load_bundle(b1)
        data.save_bundle(loaded, b2, split=loaded_split)
        bundle_ok = b1.read_bytes() == b2.read_bytes()

        model, _ = train(
            view,
            make_toy_config("cold-start", epochs=2, latent_dim=8,
                            enc_dims_source=(16,), enc_dims_target=(16,), batch_size=32),
        )
        c1, c2 = tmp_path / "c1.xdv", tmp_path / "c2.xdv"
        save_checkpoint(model, c1)
        reloaded, _ = load_checkpoint(c1)
        save_checkpoint(reloaded, c2)
        ckpt_ok = c1.read_bytes() == c2.read_bytes()
        check(10, bundle_ok and ckpt_ok, f"bundle={bundle_ok}, checkpoint={ckpt_ok}")
