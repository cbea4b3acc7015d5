"""Ranking metrics against brute-force oracles plus the protocol runners."""

import json
import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdvae import data, evaluate
from xdvae.data import DataError
from xdvae.evaluate import hit_ratio, ndcg, rank_first
from xdvae.model import build_model
from xdvae.nn import named_rng
from xdvae.train import train

from conftest import make_toy_bundle, make_toy_config, row_list, with_rows


def rank_test_item(scores, test_position, candidate_ids):
    """rank_first on one row, with the test candidate rolled to the front."""
    return int(rank_first(np.roll(scores, -test_position)[None],
                          np.roll(candidate_ids, -test_position)[None])[0])


def brute_force_metrics(ranks, k):
    """Independent reimplementation: loop, count, correctly-rounded sum."""
    hits, gains = 0, []
    for p in ranks:
        if p <= k:
            hits += 1
            gains.append(math.log(2) / math.log(p + 1))
    return hits / len(ranks), math.fsum(gains) / len(ranks)


class TestRankTestItem:
    """rank_first on a single candidate row."""

    def test_strictly_highest_is_rank_one(self):
        scores = np.linspace(0.1, 0.9, 100)
        scores[7] = 0.99
        assert rank_test_item(scores, 7, np.arange(100)) == 1

    def test_strictly_lowest_is_rank_hundred(self):
        scores = np.linspace(0.1, 0.9, 100)
        scores[3] = 0.0
        assert rank_test_item(scores, 3, np.arange(100)) == 100

    def test_all_equal_breaks_ties_by_item_id(self):
        scores = np.full(100, 0.5)
        ids = np.arange(100, 200)
        assert rank_test_item(scores, 0, ids) == 1
        assert rank_test_item(scores, 99, ids) == 100
        assert rank_test_item(scores, 10, ids) == 11

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_sort(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(100)
        ids = rng.permutation(1000)[:100]
        pos = int(rng.integers(100))
        # brute force: order candidates by (-score, id) and find the test item
        order = sorted(range(100), key=lambda c: (-scores[c], ids[c]))
        assert rank_test_item(scores, pos, ids) == order.index(pos) + 1


class TestAggregates:
    def test_hit_ratio_direct_count(self):
        assert hit_ratio([1, 15, 7], 10) == pytest.approx(2 / 3)

    def test_hit_ratio_all_inside(self):
        assert hit_ratio([1, 2, 3], 10) == 1.0

    def test_hit_ratio_at_hundred_is_one(self):
        assert hit_ratio([100, 57, 99], 100) == 1.0

    def test_ndcg_rank_one_contributes_one(self):
        assert ndcg([1], 5) == pytest.approx(1.0)

    def test_ndcg_rank_three_is_half(self):
        assert ndcg([3], 5) == pytest.approx(0.5)

    def test_ndcg_truncation(self):
        assert ndcg([1, 3], 2) == pytest.approx(0.5)

    def test_empty_outcomes_rejected(self):
        with pytest.raises(DataError):
            hit_ratio([], 5)

    @given(seed=st.integers(0, 2**16), k=st.sampled_from([5, 10, 20, 50]))
    @settings(max_examples=60, deadline=None)
    def test_equals_brute_force(self, seed, k):
        ranks = np.random.default_rng(seed).integers(1, 101, size=37)
        hr_brute, ndcg_brute = brute_force_metrics(ranks.tolist(), k)
        assert hit_ratio(ranks, k) == hr_brute
        assert ndcg(ranks, k) == ndcg_brute

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_ndcg_below_hr_and_monotone_in_k(self, seed):
        ranks = np.random.default_rng(seed).integers(1, 101, size=50)
        previous_hr, previous_ndcg = 0.0, 0.0
        for k in (5, 10, 20, 50, 100):
            hr_k, ndcg_k = hit_ratio(ranks, k), ndcg(ranks, k)
            assert ndcg_k <= hr_k + 1e-12
            assert hr_k >= previous_hr and ndcg_k >= previous_ndcg - 1e-12
            previous_hr, previous_ndcg = hr_k, ndcg_k


class TestRandomScorerCalibration:
    def test_hr10_approaches_ten_percent(self):
        # ranked uniformly at random, the held-out item lands in the top 10
        # of 100 candidates 10% of the time
        rng = np.random.default_rng(0)
        users = 100_000
        scores = rng.random((users, 100))
        ranks = (scores > scores[:, [0]]).sum(axis=1) + 1  # ties have measure zero
        assert abs(hit_ratio(ranks, 10) - 0.10) < 0.01


@pytest.fixture(scope="module")
def toy_setup():
    bundle = make_toy_bundle(m=10, n_source=6, n_target=12, seed=9, min_target=4)
    split = data.build_loo_split(bundle, seed=2, n_negatives=5)
    view = data.training_bundle(bundle, split)
    return bundle, split, view


class _OracleModel:
    """Scores the held-out item 1.0 and everything else 0.0."""

    def __init__(self, split, n_target, variant="generic"):
        self.split = split
        self.n_target = n_target
        self.config = make_toy_config(variant)

    def predict_scores(self, r_s, r_t, aux=None):
        out = np.zeros((r_s.shape[0], self.n_target))
        out[np.arange(r_s.shape[0]), self.split.held_out] = 1.0
        return out


class TestEvaluateProtocols:
    def test_oracle_model_hits_everything(self, toy_setup):
        bundle, split, view = toy_setup
        model = _OracleModel(split, bundle.target.n_items)
        report = evaluate.evaluate(model, view, split, ks=(5, 10))
        assert report.hr[5] == 1.0 and report.ndcg[5] == 1.0

    def test_leakage_guard(self, toy_setup):
        bundle, split, _ = toy_setup
        model = _OracleModel(split, bundle.target.n_items)
        with pytest.raises(DataError, match="held-out"):
            evaluate.evaluate(model, bundle, split)  # full rows still hold the item

    def test_trained_model_evaluates_deterministically(self, toy_setup):
        _, split, view = toy_setup
        model, _ = train(view, make_toy_config("generic", epochs=4, latent_dim=3))
        a = evaluate.evaluate(model, view, split, ks=(5, 10))
        b = evaluate.evaluate(model, view, split, ks=(5, 10))
        assert a.hr == b.hr and a.ndcg == b.ndcg
        assert a.m_evaluated == view.m

    def test_degraded_identity_fraction_matches_standard(self, toy_setup):
        _, split, view = toy_setup
        model, _ = train(view, make_toy_config("generic", epochs=4, latent_dim=3))
        standard = evaluate.evaluate(model, view, split, ks=(5,))
        (degraded,) = evaluate.evaluate_degraded(model, view, split, [1.0], seed=0, ks=(5,))
        assert degraded.hr[5] == standard.hr[5]
        assert degraded.extra["fraction_kept"] == 1.0

    def test_degraded_rejects_wrong_variant(self, toy_setup):
        _, split, view = toy_setup
        model, _ = train(view, make_toy_config("single", epochs=1, latent_dim=3))
        with pytest.raises(DataError, match="generic-family"):
            evaluate.evaluate_degraded(model, view, split, [1.0], seed=0)

    def test_cold_start_report_counts_interactions(self):
        bundle = make_toy_bundle(m=10, n_source=6, n_target=12, seed=3, min_target=4)
        cold = data.cold_start_split(bundle, 0.2, seed=5)
        view = data.restrict_users(bundle, cold.train_users)
        model, _ = train(view, make_toy_config("cold-start", epochs=3, latent_dim=3))
        report = evaluate.evaluate_cold_start(model, cold, bundle, ks=(2, 5), n_negatives=5)
        expected = sum(len(row_list(bundle.target)[u]) for u in cold.test_users)
        assert report.m_evaluated == expected
        assert report.protocol == "coldstart"

    def test_cold_start_rejects_generic_model(self, toy_setup):
        bundle, split, view = toy_setup
        cold = data.cold_start_split(bundle, 0.2, seed=5)
        model, _ = train(view, make_toy_config("generic", epochs=1, latent_dim=3))
        with pytest.raises(DataError, match="cold-start"):
            evaluate.evaluate_cold_start(model, cold, bundle)


def reference_rank(score_row, ids):
    """Per-candidate loop: one place down for each higher score or lower-id tie."""
    s0, id0 = score_row[ids[0]], ids[0]
    rank = 1
    for item in ids[1:]:
        if score_row[item] > s0 or (score_row[item] == s0 and item < id0):
            rank += 1
    return rank


class _TiedModel:
    """Random scores rounded to one decimal, so candidates often tie."""

    def __init__(self, n_target, variant):
        self.n_target = n_target
        self.config = make_toy_config(variant)
        self.rng = np.random.default_rng(17)

    def predict_scores(self, r_s, r_t, aux=None):
        self.scores = np.round(self.rng.random((r_s.shape[0], self.n_target)), 1)
        return self.scores


@pytest.fixture()
def captured_ranks(monkeypatch):
    """Rank vectors the protocol runners hand to _aggregate, in call order."""
    seen = []
    aggregate = evaluate._aggregate

    def spy(ranks, *args, **kwargs):
        seen.append(np.asarray(ranks).tolist())
        return aggregate(ranks, *args, **kwargs)

    monkeypatch.setattr(evaluate, "_aggregate", spy)
    return seen


class TestRankOracles:
    def test_standard_ranks_match_reference_loop(self, captured_ranks):
        bundle = make_toy_bundle(m=40, n_source=6, n_target=30, seed=4, min_target=4)
        split = data.build_loo_split(bundle, seed=2, n_negatives=10)
        view = data.training_bundle(bundle, split)
        model = _TiedModel(bundle.target.n_items, "generic")
        evaluate.evaluate(model, view, split)
        expected = [reference_rank(model.scores[u], [split.held_out[u], *split.negatives[u]])
                    for u in range(view.m)]
        assert captured_ranks == [expected]
        # the tie-break is exercised: some test item shares its score with a candidate
        users = np.arange(view.m)
        test_scores = model.scores[users, split.held_out][:, None]
        assert (model.scores[users[:, None], split.negatives] == test_scores).any()

    @pytest.mark.parametrize("empty_user", [None, 0])
    def test_cold_start_ranks_match_reference_loop(self, captured_ranks, empty_user):
        bundle = make_toy_bundle(m=40, n_source=6, n_target=30, seed=4, min_target=4)
        cold = data.cold_start_split(bundle, 0.25, seed=5)
        if empty_user is not None:
            # an empty target row consumes no draws and raises nothing
            bundle.target = with_rows(bundle.target, {cold.test_users[empty_user]: []})
        model = _TiedModel(bundle.target.n_items, "cold-start")
        evaluate.evaluate_cold_start(model, cold, bundle, seed=3, n_negatives=5)
        # reference: a fresh setdiff1d pool and one draw per test interaction
        rng = named_rng(3, "cold-negatives")
        expected = []
        for k_row, u in enumerate(cold.test_users):
            row = row_list(bundle.target)[u]
            pool = np.setdiff1d(np.arange(bundle.target.n_items), row)
            for item in row:
                ids = [item, *rng.choice(pool, size=5, replace=False)]
                expected.append(reference_rank(model.scores[k_row], ids))
        assert captured_ranks == [expected]


class TestReportFiles:
    def test_json_and_csv_round_trip(self, toy_setup, tmp_path):
        _, split, view = toy_setup
        model, _ = train(view, make_toy_config("generic", epochs=2, latent_dim=3))
        report = evaluate.evaluate(model, view, split, ks=(5, 10))
        json_path = tmp_path / "m.json"
        csv_path = tmp_path / "m.csv"
        evaluate.write_reports_json([report], json_path, manifest="m.manifest.json")
        evaluate.write_reports_csv([report], csv_path, manifest="m.manifest.json")
        import json as jsonlib

        payload = jsonlib.loads(json_path.read_text())
        assert payload["manifest"] == "m.manifest.json"
        assert payload["reports"][0]["hr"]["5"] == report.hr[5]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# manifest: m.manifest.json"
        assert lines[1] == "variant,protocol,K,HR,NDCG,m,seed"
        assert len(lines) == 2 + 2  # two K rows


LINKED_CASES = [("generic", "both"), ("no-mmd", "both"),
                ("aux", "both"), ("aux", "source"), ("aux", "target")]
DEGRADE_FRACTIONS = (1.0, 0.75, 0.5, 0.25, 0.0)


@pytest.fixture(scope="module")
def degrade_view():
    # a wider catalog than the toy bundles elsewhere, with aux vectors
    bundle = make_toy_bundle(m=40, n_source=30, n_target=120, seed=4, min_target=4, aux_dim=4)
    split = data.build_loo_split(bundle, seed=2, n_negatives=5)
    return data.training_bundle(bundle, split), split


def _linked_model(view, variant, attach, trained):
    config = make_toy_config(variant, aux_attach=attach, enc_dims_source=(48,),
                             enc_dims_target=(48,), latent_dim=6, epochs=3, batch_size=8)
    if trained:
        return train(view, config)[0]
    # Glorot weights and zero biases, as training starts
    return build_model(config, view.source.n_items, view.target.n_items,
                       named_rng(config.seed, "init"))


class TestDegradedScoring:
    """The degradation protocol encodes the source once and scores a fraction
    that keeps no target positive from r_t None; both give every score byte
    that predict_scores gives on the dense rows."""

    @pytest.mark.parametrize("trained", [False, True], ids=["untrained", "trained"])
    @pytest.mark.parametrize("variant, attach", LINKED_CASES)
    def test_scores_equal_dense_rows_byte_for_byte(self, degrade_view, variant, attach, trained):
        view, _ = degrade_view
        model = _linked_model(view, variant, attach, trained)
        r_s, aux = view.source.to_dense(), view.aux_vectors if variant == "aux" else None
        source = model.encode_source(r_s, aux)
        for fraction in DEGRADE_FRACTIONS:
            kept = data.degrade_target_rows(view.target, fraction, seed=7)
            r_t = kept.to_dense()
            want = model.predict_scores(r_s, r_t, aux)
            got = model.predict_scores(r_s, r_t if kept.n_interactions else None, source=source)
            assert got.tobytes() == want.tobytes(), fraction
        assert model.predict_scores(r_s, None, aux).tobytes() == want.tobytes()

    def test_one_source_encoding_and_one_prediction_per_fraction(self, degrade_view,
                                                                  monkeypatch):
        view, split = degrade_view
        model = _linked_model(view, "aux", "both", trained=True)
        calls = {"encode_source": [], "encode_target": [], "predict_scores": []}

        def spy(name):
            method = getattr(model, name)

            def record(*args, **kwargs):
                calls[name].append(args)
                return method(*args, **kwargs)
            monkeypatch.setattr(model, name, record)

        for name in calls:
            spy(name)
        reports = evaluate.evaluate_degraded(model, view, split, DEGRADE_FRACTIONS, seed=7)
        assert [len(calls[name]) for name in calls] == [1, 5, 5]
        # the fractions may be scored in any order; only 0.0 keeps no target row
        kept = [data.degrade_target_rows(view.target, f, seed=7).n_interactions
                for f in DEGRADE_FRACTIONS]
        assert sorted(-1 if r_t is None else int(r_t.sum()) for r_t, _ in calls["encode_target"]) \
            == sorted(n or -1 for n in kept)
        assert kept[-1] == 0 and min(kept[:-1]) > 0
        assert [r.extra["fraction_kept"] for r in reports] == list(DEGRADE_FRACTIONS)


def _serial_degraded(model, view, split, fractions, seed, ks=evaluate.DEFAULT_KS):
    """Reference: fraction by fraction, dense target rows, the whole prediction each time."""
    r_s = view.source.to_dense()
    ids = np.column_stack((split.held_out, split.negatives))
    reports = []
    for fraction in fractions:
        r_t = data.degrade_target_rows(view.target, fraction, seed).to_dense()
        scores = model.predict_scores(r_s, r_t, view.aux_vectors)
        ranks = [reference_rank(row, row_ids) for row, row_ids in zip(scores, ids)]
        report = evaluate.MetricsReport(model.config.variant, "degrade", seed, len(ranks),
                                        ks=tuple(ks), extra={"fraction_kept": fraction})
        for k in ks:
            report.hr[k], report.ndcg[k] = brute_force_metrics(ranks, k)
        reports.append(report)
    return reports


@pytest.fixture()
def interleaved(cpus, monkeypatch):
    """Names of the threads that score a fraction. The main thread holds its
    first fraction until a helper has taken one, so with a helper both work."""
    _, started = cpus
    workers, helper_took_one = set(), threading.Event()
    real = evaluate.degrade_target_rows

    def degrade(mat, fraction, seed):
        workers.add(threading.current_thread().name)
        if threading.current_thread() is not threading.main_thread():
            helper_took_one.set()
        elif started:
            assert helper_took_one.wait(timeout=60)
        return real(mat, fraction, seed)

    monkeypatch.setattr(evaluate, "degrade_target_rows", degrade)
    return workers


class TestDegradedOnCpus:
    """Fractions shared between the calling thread and helpers give the bytes
    of a serial loop, in the order of the fractions asked for."""

    @pytest.mark.parametrize("fractions", [DEGRADE_FRACTIONS, (0.0, 1.0, 0.5), (0.25,)],
                             ids=["default", "reordered", "one"])
    @pytest.mark.parametrize("variant, attach", LINKED_CASES)
    def test_reports_equal_a_serial_loop(self, degrade_view, cpus, interleaved, variant, attach,
                                         fractions):
        n_cpus, started = cpus
        view, split = degrade_view
        model = _linked_model(view, variant, attach, trained=True)
        # training shares each step's weight gradients among the CPUs too;
        # only the threads evaluate_degraded starts count below
        started.clear()
        threads = threading.active_count()
        got = evaluate.evaluate_degraded(model, view, split, fractions, seed=7)
        assert threading.active_count() == threads
        # one helper per usable CPU beyond the first, never more than fractions to share
        assert len(started) == min(n_cpus, len(fractions)) - 1
        assert interleaved == {"MainThread", *started}
        want = _serial_degraded(model, view, split, fractions, seed=7)
        assert json.dumps([r.to_dict() for r in got]) == json.dumps([r.to_dict() for r in want])

    def test_dense_target_rows_freed_before_the_decoder(self, degrade_view, cpus, interleaved,
                                                        monkeypatch):
        n_cpus, _ = cpus
        view, split = degrade_view
        model = _linked_model(view, "generic", "both", trained=False)
        rows, alive = [], []
        to_dense = data.DomainMatrix.to_dense

        def dense(mat, *args, **kwargs):
            out = to_dense(mat, *args, **kwargs)
            if mat.domain == view.target.domain:
                rows.append(weakref.ref(out))
            return out

        decode = model.dec_t.forward

        def decoder(z):
            alive.append(sum(r() is not None for r in rows))
            return decode(z)

        monkeypatch.setattr(data.DomainMatrix, "to_dense", dense)
        monkeypatch.setattr(model.dec_t, "forward", decoder)
        evaluate.evaluate_degraded(model, view, split, DEGRADE_FRACTIONS, seed=7)
        assert len(rows) == 4 and len(alive) == 5   # 0.0 builds no rows
        # each thread drops its rows before decoding; another may hold its own
        assert max(alive) <= n_cpus - 1

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_failed_fraction_reaches_the_caller(self, degrade_view, cpus, monkeypatch):
        n_cpus, started = cpus
        view, split = degrade_view
        model = _linked_model(view, "generic", "both", trained=False)
        failing = threading.Event()
        real = evaluate.degrade_target_rows

        def degrade(mat, fraction, seed):
            if n_cpus > 1 and threading.current_thread() is threading.main_thread():
                # hold the main thread's first fraction until a helper has failed
                assert failing.wait(timeout=60)
                return real(mat, fraction, seed)
            failing.set()
            raise DataError(f"fraction {fraction} failed")

        monkeypatch.setattr(evaluate, "degrade_target_rows", degrade)
        threads = threading.active_count()
        with pytest.raises(DataError, match="fraction .* failed"):
            evaluate.evaluate_degraded(model, view, split, DEGRADE_FRACTIONS, seed=7)
        assert len(started) == n_cpus - 1
        assert threading.active_count() == threads
