"""Ingestion, domain routing, filtering, splits and bundle round trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdvae import data
from xdvae.data import DataError, Interaction
from xdvae.nn import named_rng

from conftest import make_toy_bundle, rewrite_header


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadRatings:
    def test_movielens_line(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::1193::5::978300760\n")
        (x,) = data.load_ratings(path, "movielens-dat")
        assert x == Interaction("1", "1193", 5, 978300760)

    def test_empty_file_errors(self, tmp_path):
        path = write(tmp_path, "r.dat", "")
        with pytest.raises(DataError, match="no interactions"):
            data.load_ratings(path, "movielens-dat")

    def test_csv_missing_timestamp(self, tmp_path):
        path = write(tmp_path, "r.csv", "user,item,rating,timestamp\nu1,i1,4,\n")
        (x,) = data.load_ratings(path, "csv")
        assert x == Interaction("u1", "i1", 4, None)

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::2::5::9\n1::2\n")
        with pytest.raises(DataError, match=":2:"):
            data.load_ratings(path, "movielens-dat")

    def test_rating_out_of_range(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::2::6::9\n")
        with pytest.raises(DataError, match="outside"):
            data.load_ratings(path, "movielens-dat")

    def test_order_preserved(self, tmp_path):
        path = write(tmp_path, "r.dat", "2::b::4::1\n1::a::5::2\n")
        users = [x.user for x in data.load_ratings(path, "movielens-dat")]
        assert users == ["2", "1"]


class TestSplitDomains:
    labels = {
        "a": {"Action"},
        "b": {"Action", "Comedy"},
        "c": {"Thriller"},
        "d": {"Drama"},
    }
    source_labels = {"Action"}
    target_labels = {"Comedy", "Drama", "Fantasy", "Romance"}

    def interactions(self, *items):
        return [Interaction("u", item, 5) for item in items]

    def test_pure_source_routed(self):
        src, tgt = data.split_domains(
            self.interactions("a"), self.labels, self.source_labels, self.target_labels
        )
        assert [x.item for x in src] == ["a"] and tgt == []

    def test_dual_label_dropped(self):
        src, tgt = data.split_domains(
            self.interactions("b"), self.labels, self.source_labels, self.target_labels
        )
        assert src == [] and tgt == []

    def test_off_label_dropped(self):
        src, tgt = data.split_domains(
            self.interactions("c"), self.labels, self.source_labels, self.target_labels
        )
        assert src == [] and tgt == []

    def test_unknown_item_errors(self):
        with pytest.raises(DataError, match="zzz"):
            data.split_domains(
                self.interactions("zzz"), self.labels,
                self.source_labels, self.target_labels,
            )

    def test_output_item_sets_disjoint(self):
        src, tgt = data.split_domains(
            self.interactions("a", "b", "c", "d"), self.labels,
            self.source_labels, self.target_labels,
        )
        assert {x.item for x in src} & {x.item for x in tgt} == set()


class TestBinarizeAndFilter:
    def test_user_without_target_dropped(self):
        source = [Interaction("u1", "s1", 5), Interaction("u2", "s1", 5)]
        target = [
            Interaction("u1", "t1", 5), Interaction("u1", "t2", 4),
            Interaction("u2", "t1", 3),
        ]
        bundle = data.binarize_and_filter(source, target)
        assert bundle.source.user_index == ["u1"]

    def test_threshold_below_all_ratings_is_identity(self):
        source = [Interaction("u1", "s1", 5)]
        target = [Interaction("u1", "t1", 5), Interaction("u1", "t2", 5)]
        a = data.binarize_and_filter(source, target, threshold=4)
        b = data.binarize_and_filter(source, target, threshold=1)
        assert a.source.item_index == b.source.item_index
        assert all(np.array_equal(x, y) for x, y in zip(a.target.rows, b.target.rows))

    def test_zero_survivors_errors(self):
        source = [Interaction("u1", "s1", 2)]
        target = [Interaction("u1", "t1", 2), Interaction("u1", "t2", 2)]
        with pytest.raises(DataError, match="no users"):
            data.binarize_and_filter(source, target)

    def test_min_positive_invariant_holds(self, synthetic_bundle):
        for row in synthetic_bundle.source.rows:
            assert len(row) >= 1
        for row in synthetic_bundle.target.rows:
            assert len(row) >= 2

    def test_items_all_have_a_surviving_positive(self, synthetic_bundle):
        for mat in (synthetic_bundle.source, synthetic_bundle.target):
            seen = set()
            for row in mat.rows:
                seen.update(int(j) for j in row)
            assert seen == set(range(mat.n_items))

    def test_dropped_items_absent(self, synthetic_bundle):
        items = set(synthetic_bundle.source.item_index) | set(
            synthetic_bundle.target.item_index
        )
        assert "both0" not in items and "none0" not in items


class TestLooSplit:
    def test_two_choice_case(self):
        bundle = make_toy_bundle(m=1, n_target=4, min_target=2, seed=5)
        bundle.target.rows[0] = np.array([1, 3])
        split, training = data.build_loo_split(bundle, seed=0, n_negatives=2)
        assert split.held_out[0] in (1, 3)
        assert list(training.target.rows[0]) == [3 if split.held_out[0] == 1 else 1]

    def test_determinism(self, toy_bundle):
        a, _ = data.build_loo_split(toy_bundle, seed=77, n_negatives=1)
        b, _ = data.build_loo_split(toy_bundle, seed=77, n_negatives=1)
        assert np.array_equal(a.held_out, b.held_out)
        assert np.array_equal(a.negatives, b.negatives)

    def test_latest_policy_takes_max_timestamp(self):
        bundle = make_toy_bundle(m=1, n_target=4, min_target=2)
        bundle.target.rows[0] = np.array([0, 2])
        bundle.target.row_ts = [np.array([10, 99])]
        split, _ = data.build_loo_split(bundle, seed=0, policy="latest", n_negatives=2)
        assert split.held_out[0] == 2

    def test_invariants_over_users(self, synthetic_bundle):
        split, training = data.build_loo_split(synthetic_bundle, seed=3)
        for u in range(synthetic_bundle.m):
            assert split.held_out[u] not in training.target.rows[u]
            assert len(split.negatives[u]) == 99
            assert len(set(split.negatives[u].tolist())) == 99
            positives = set(synthetic_bundle.target.rows[u].tolist())
            assert positives.isdisjoint(split.negatives[u].tolist())

    def test_user_with_single_positive_named(self):
        bundle = make_toy_bundle(m=2, min_target=3)
        bundle.target.rows[1] = np.array([0])
        with pytest.raises(DataError, match="u1"):
            data.build_loo_split(bundle, seed=0, n_negatives=2)


class TestSampleNegatives:
    def test_forced_selection(self):
        rng = named_rng(0, "x")
        out = data.sample_negatives([0], 100, 99, rng)
        assert sorted(out.tolist()) == list(range(1, 100))

    def test_k_zero(self):
        assert data.sample_negatives([0], 10, 0, named_rng(0, "x")).size == 0

    def test_insufficient_pool(self):
        with pytest.raises(DataError, match="cannot sample"):
            data.sample_negatives([0, 1], 10, 9, named_rng(0, "x"))

    @given(seed=st.integers(0, 2**16), n=st.integers(20, 60), npos=st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_never_overlaps_positives(self, seed, n, npos):
        rng = np.random.default_rng(seed)
        positives = rng.choice(n, size=npos, replace=False)
        k = min(10, n - npos)
        out = data.sample_negatives(positives, n, k, rng)
        assert set(out.tolist()).isdisjoint(positives.tolist())
        assert len(set(out.tolist())) == k

    @given(seed=st.integers(0, 2**16), n=st.integers(20, 60), npos=st.integers(0, 10),
           k=st.integers(0, 10), size=st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_stack_equals_sequential_calls(self, seed, n, npos, k, size):
        positives = np.random.default_rng(seed).choice(n, size=npos, replace=False)
        rng = named_rng(seed, "x")
        stacked = data.sample_negatives(positives, n, k, rng, size=size)
        # reference: one call per draw, each rebuilding its pool with setdiff1d
        ref_rng = named_rng(seed, "x")
        pool = np.setdiff1d(np.arange(n), positives)
        sequential = [ref_rng.choice(pool, size=k, replace=False) if k else []
                      for _ in range(size)]
        assert stacked.shape == (size, k) and stacked.dtype == np.int64
        assert stacked.tolist() == [list(draw) for draw in sequential]
        assert rng.random() == ref_rng.random()  # both consumed the same draws


class TestColdStartSplit:
    def test_exact_arithmetic(self):
        bundle = make_toy_bundle(m=10)
        cold = data.cold_start_split(bundle, 0.1, seed=0)
        assert len(cold.test_users) == 1 and len(cold.train_users) == 9

    def test_partition(self, toy_bundle):
        cold = data.cold_start_split(toy_bundle, 0.25, seed=4)
        both = np.concatenate([cold.train_users, cold.test_users])
        assert sorted(both.tolist()) == list(range(toy_bundle.m))

    def test_determinism(self, toy_bundle):
        a = data.cold_start_split(toy_bundle, 0.1, seed=9)
        b = data.cold_start_split(toy_bundle, 0.1, seed=9)
        assert np.array_equal(a.test_users, b.test_users)

    def test_rounding_to_nearest(self):
        bundle = make_toy_bundle(m=48)
        cold = data.cold_start_split(bundle, 0.1, seed=0)
        assert len(cold.test_users) == 5  # round(4.8)

    def test_fraction_out_of_range(self, toy_bundle):
        with pytest.raises(DataError):
            data.cold_start_split(toy_bundle, 1.5, seed=0)


class TestDegradeRows:
    rows = [np.array([0, 2, 5, 7]), np.array([1]), np.array([3, 4])]

    def test_identity_fraction(self):
        out = data.degrade_target_rows(self.rows, 1.0, seed=0)
        assert all(np.array_equal(a, b) for a, b in zip(out, self.rows))

    def test_zero_fraction_empties_rows(self):
        out = data.degrade_target_rows(self.rows, 0.0, seed=0)
        assert all(r.size == 0 for r in out)

    def test_ceiling_keeps_one_of_four(self):
        out = data.degrade_target_rows([np.array([0, 2, 5, 7])], 0.25, seed=0)
        assert out[0].size == 1 and out[0][0] in (0, 2, 5, 7)

    def test_kept_items_are_subset(self):
        out = data.degrade_target_rows(self.rows, 0.5, seed=1)
        for kept, orig in zip(out, self.rows):
            assert set(kept.tolist()) <= set(orig.tolist())


class TestAuxVectors:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "aux.csv", "u1,0.5,-1.5\nu2,0.25,0.75\n")
        vectors = data.load_aux_vectors(path, expected_dim=2)
        assert np.allclose(vectors["u1"], [0.5, -1.5])

    def test_dimension_mismatch(self, tmp_path):
        path = write(tmp_path, "aux.csv", "u1,0.5\n")
        with pytest.raises(DataError, match="expected 2"):
            data.load_aux_vectors(path, expected_dim=2)

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, "aux.csv", "u1,0.5,inf\n")
        with pytest.raises(DataError, match="non-finite"):
            data.load_aux_vectors(path, expected_dim=2)

    def test_missing_user_gets_zero_vector(self, toy_bundle, tmp_path):
        path = write(tmp_path, "aux.csv", "u0,1.0,2.0\n")
        data.attach_aux(toy_bundle, data.load_aux_vectors(path, expected_dim=2))
        assert np.allclose(toy_bundle.aux_vectors[0], [1.0, 2.0])
        assert not toy_bundle.aux_vectors[1].any()
        assert toy_bundle.provenance["aux_missing_users"] == toy_bundle.m - 1


class TestBundleRoundTrip:
    def test_save_load_save_is_byte_identical(self, synthetic_bundle, tmp_path):
        split, _ = data.build_loo_split(synthetic_bundle, seed=5)
        p1, p2 = tmp_path / "a.xdb", tmp_path / "b.xdb"
        data.save_bundle(synthetic_bundle, p1, split=split)
        loaded, loaded_split = data.load_bundle(p1)
        data.save_bundle(loaded, p2, split=loaded_split)
        assert p1.read_bytes() == p2.read_bytes()

    def test_content_survives(self, toy_bundle, tmp_path):
        toy_bundle.aux_vectors = np.arange(toy_bundle.m * 3, dtype=float).reshape(-1, 3)
        path = tmp_path / "t.xdb"
        data.save_bundle(toy_bundle, path)
        loaded, split = data.load_bundle(path)
        assert split is None
        assert loaded.source.user_index == toy_bundle.source.user_index
        assert loaded.target.item_index == toy_bundle.target.item_index
        for a, b in zip(loaded.target.rows, toy_bundle.target.rows):
            assert np.array_equal(a, b)
        assert np.allclose(loaded.aux_vectors, toy_bundle.aux_vectors)

    def test_truncated_file_rejected(self, toy_bundle, tmp_path):
        path = tmp_path / "t.xdb"
        data.save_bundle(toy_bundle, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            data.load_bundle(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.xdb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            data.load_bundle(path)

    @pytest.mark.parametrize("raw", [b"XDB1", b"XDB1\x01\x00", b"XDB1\x01\x00\x00"])
    def test_file_shorter_than_header_length_rejected(self, tmp_path, raw):
        path = tmp_path / "t.xdb"
        path.write_bytes(raw)
        with pytest.raises(DataError, match="truncated"):
            data.load_bundle(path)


def _negative_target_index(bundle, split):
    bundle.target.rows[0] = np.array([-1, 2, 3])


def _index_past_catalog(bundle, split):
    bundle.source.rows[1] = np.array([0, bundle.source.n_items])


def _unsorted_row(bundle, split):
    bundle.target.rows[2] = np.array([3, 1, 4])


def _repeated_item_in_row(bundle, split):
    bundle.target.rows[2] = np.array([1, 1, 4])


def _negative_past_catalog(bundle, split):
    split.negatives[0, 0] = 10**6


def _negative_held_out(bundle, split):
    split.held_out[3] = -2


def _held_out_one_short(bundle, split):
    split.held_out = split.held_out[:-1]


def _negatives_one_row_short(bundle, split):
    split.negatives = split.negatives[:-1]


def _negatives_three_dimensional(bundle, split):
    split.negatives = split.negatives[:, None, :]


class TestBundleInvariants:
    @pytest.mark.parametrize("defect", [
        _negative_target_index, _index_past_catalog, _unsorted_row, _repeated_item_in_row,
        _negative_past_catalog, _negative_held_out, _held_out_one_short,
        _negatives_one_row_short, _negatives_three_dimensional,
    ], ids=lambda f: f.__name__.strip("_"))
    def test_structural_defect_rejected(self, toy_bundle, tmp_path, defect):
        split, _ = data.build_loo_split(toy_bundle, seed=1, n_negatives=2)
        defect(toy_bundle, split)
        path = tmp_path / "t.xdb"
        data.save_bundle(toy_bundle, path, split=split)
        with pytest.raises(DataError):
            data.load_bundle(path)

    def test_non_object_header_rejected(self, tmp_path):
        path = tmp_path / "t.xdb"
        path.write_bytes(data.BUNDLE_MAGIC + struct.pack("<I", 3) + b"[1]")
        with pytest.raises(DataError, match="not a JSON object"):
            data.load_bundle(path)

    def test_row_lengths_must_cover_the_blob(self, toy_bundle, tmp_path):
        path = tmp_path / "t.xdb"
        data.save_bundle(toy_bundle, path)

        def shorten_first_row(header):
            header["domains"]["target"]["row_lengths"][0] -= 1

        rewrite_header(path, path, shorten_first_row)
        with pytest.raises(DataError, match="row lengths"):
            data.load_bundle(path)


class TestTrainingViews:
    def test_training_bundle_removes_held_out(self, synthetic_bundle):
        split, _ = data.build_loo_split(synthetic_bundle, seed=1)
        view = data.training_bundle(synthetic_bundle, split)
        for u in range(synthetic_bundle.m):
            assert split.held_out[u] not in view.target.rows[u]
            assert len(view.target.rows[u]) == len(synthetic_bundle.target.rows[u]) - 1

    def test_restrict_users_keeps_alignment(self, synthetic_bundle):
        sub = data.restrict_users(synthetic_bundle, [3, 5, 8])
        assert sub.m == 3
        assert sub.source.user_index == [synthetic_bundle.source.user_index[u] for u in (3, 5, 8)]
        assert np.array_equal(sub.target.rows[1], synthetic_bundle.target.rows[5])
