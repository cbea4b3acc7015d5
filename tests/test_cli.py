"""End-to-end CLI runs over the synthetic corpus, including exit codes,
manifests and byte-level determinism of artifacts."""

import gc
import json

import pytest

from xdvae import data
from xdvae.cli import main

from conftest import rewrite_header


@pytest.fixture(scope="module")
def prepared(tmp_path_factory, synthetic_corpus):
    out = tmp_path_factory.mktemp("cli") / "synthetic.xdb"
    code = main([
        "prepare",
        "--ratings", synthetic_corpus["ratings"],
        "--items", synthetic_corpus["movies"],
        "--format", "movielens-dat",
        "--source-labels", "Action",
        "--target-labels", "Comedy,Drama",
        "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    return out


TRAIN_FLAGS = ["--dims", "16", "--latent-dim", "8", "--batch-size", "32",
               "--beta", "4", "--seed", "5"]


@pytest.fixture(scope="module")
def trained(prepared, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train") / "generic.xdv"
    code = main([
        "train", "--bundle", str(prepared), "--variant", "generic",
        "--epochs", "3", "--out", str(out), *TRAIN_FLAGS,
    ])
    assert code == 0
    return out


class TestPrepare:
    def test_outputs_exist_with_manifest(self, prepared):
        assert prepared.exists()
        manifest = json.loads((prepared.parent / f"{prepared.name}.manifest.json").read_text())
        assert manifest["command"] == "prepare"
        assert str(prepared) in manifest["artifacts"]
        assert len(manifest["inputs"]) == 2

    def test_summary_matches_bundle(self, prepared, synthetic_corpus, capsys, tmp_path):
        out = tmp_path / "again.xdb"
        main([
            "prepare", "--ratings", synthetic_corpus["ratings"],
            "--items", synthetic_corpus["movies"],
            "--source-labels", "Action", "--target-labels", "Comedy,Drama",
            "--seed", "5", "--out", str(out),
        ])
        printed = capsys.readouterr().out
        assert "users (shared): 140" in printed
        assert "sparsity" in printed

    def test_overlapping_labels_exit_one(self, synthetic_corpus, tmp_path):
        code = main([
            "prepare", "--ratings", synthetic_corpus["ratings"],
            "--items", synthetic_corpus["movies"],
            "--source-labels", "Action", "--target-labels", "Action,Comedy",
            "--out", str(tmp_path / "x.xdb"),
        ])
        assert code == 1

    def test_impossible_threshold_exit_two(self, synthetic_corpus, tmp_path):
        code = main([
            "prepare", "--ratings", synthetic_corpus["ratings"],
            "--items", synthetic_corpus["movies"],
            "--source-labels", "Action", "--target-labels", "Comedy,Drama",
            "--min-rating", "6", "--out", str(tmp_path / "x.xdb"),
        ])
        assert code == 2

    def test_determinism_byte_identical_bundles(self, prepared, synthetic_corpus, tmp_path):
        out = tmp_path / "again.xdb"
        main([
            "prepare", "--ratings", synthetic_corpus["ratings"],
            "--items", synthetic_corpus["movies"],
            "--source-labels", "Action", "--target-labels", "Comedy,Drama",
            "--seed", "5", "--out", str(out),
        ])
        assert out.read_bytes() == prepared.read_bytes()


class TestTrain:
    def test_checkpoint_history_manifest(self, trained):
        assert trained.exists()
        history = json.loads((trained.parent / f"{trained.name}.history.json").read_text())
        assert len(history["epochs"]) == 3
        manifest = json.loads((trained.parent / f"{trained.name}.manifest.json").read_text())
        assert manifest["config"]["variant"] == "generic"

    def test_epochs_zero_writes_initialization(self, prepared, tmp_path):
        out = tmp_path / "init.xdv"
        code = main([
            "train", "--bundle", str(prepared), "--variant", "generic",
            "--epochs", "0", "--out", str(out), *TRAIN_FLAGS,
        ])
        assert code == 0 and out.exists()

    def test_determinism_byte_identical_checkpoints(self, prepared, trained, tmp_path):
        out = tmp_path / "again.xdv"
        main([
            "train", "--bundle", str(prepared), "--variant", "generic",
            "--epochs", "3", "--out", str(out), *TRAIN_FLAGS,
        ])
        assert out.read_bytes() == trained.read_bytes()

    def test_cold_start_variant_trains(self, prepared, tmp_path):
        out = tmp_path / "cold.xdv"
        code = main([
            "train", "--bundle", str(prepared), "--variant", "cold-start",
            "--epochs", "1", "--out", str(out), *TRAIN_FLAGS,
        ])
        assert code == 0


HEADER_DEFECTS = {
    "unknown-config-key": lambda h: h["config"].update(bogus=1),
    "missing-dims": lambda h: h.pop("dims"),
    "string-latent-dim": lambda h: h["config"].update(latent_dim="128"),
    "missing-variant": lambda h: h.pop("variant"),
    "missing-tensors": lambda h: h.pop("tensors"),
    "tensor-without-shape": lambda h: h["tensors"][0].pop("shape"),
    "negative-dims": lambda h: h["dims"].update(n_target=-3),
    "zero-n-source": lambda h: h["dims"].update(n_source=0),
    "sample-inference-mode": lambda h: h["config"].update(inference_mode="sample"),
}

BUNDLE_HEADER_DEFECTS = {
    "missing-blobs": lambda h: h.pop("blobs"),
    "blob-dtype-not-a-string": lambda h: h["blobs"][0].update(dtype=7),
    "missing-user-index": lambda h: h.pop("user_index"),
    "user-index-not-a-list": lambda h: h.update(user_index=5),
    "missing-item-index": lambda h: h["domains"]["source"].pop("item_index"),
    "null-row-lengths": lambda h: h["domains"]["target"].update(row_lengths=None),
    "missing-has-ts": lambda h: h["domains"]["target"].pop("has_ts"),
    "missing-provenance": lambda h: h.pop("provenance"),
    "provenance-not-an-object": lambda h: h.update(provenance=5),
    "missing-aux-dim": lambda h: h.pop("aux_dim"),
    "missing-split-seed": lambda h: h["split"].pop("seed"),
    "missing-split-policy": lambda h: h["split"].pop("policy"),
}


def _held_out_outside_row(bundle, split):
    split.held_out[0] = split.negatives[0, 0]


def _negative_inside_row(bundle, split):
    split.negatives[0, 0] = bundle.target.indices[bundle.target.indptr[0]]


class TestEval:
    @pytest.mark.parametrize("defect", sorted(HEADER_DEFECTS))
    def test_malformed_checkpoint_header_exit_two(self, prepared, trained, tmp_path, capsys,
                                                  defect):
        bad = tmp_path / "bad.xdv"
        rewrite_header(trained, bad, HEADER_DEFECTS[defect])
        code = main([
            "eval", "--model", str(bad), "--bundle", str(prepared),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "malformed checkpoint header" in capsys.readouterr().err

    def test_sampled_inference_checkpoint_names_the_field(self, prepared, trained, tmp_path,
                                                           capsys):
        bad = tmp_path / "bad.xdv"
        rewrite_header(trained, bad, HEADER_DEFECTS["sample-inference-mode"])
        code = main([
            "eval", "--model", str(bad), "--bundle", str(prepared),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "inference_mode must be 'mean', got 'sample'" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", sorted(BUNDLE_HEADER_DEFECTS))
    def test_malformed_bundle_header_exit_two(self, prepared, trained, tmp_path, capsys,
                                              defect):
        bad = tmp_path / "bad.xdb"
        rewrite_header(prepared, bad, BUNDLE_HEADER_DEFECTS[defect])
        code = main([
            "eval", "--model", str(trained), "--bundle", str(bad),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "malformed bundle header" in capsys.readouterr().err

    @pytest.mark.parametrize("defect, message", [
        (_held_out_outside_row, "held_out item outside"),
        (_negative_inside_row, "negative among"),
    ], ids=["held-out-outside-row", "negative-inside-row"])
    def test_split_off_target_rows_exit_two(self, prepared, trained, tmp_path, capsys,
                                            defect, message):
        bundle, split = data.load_bundle(prepared)
        defect(bundle, split)
        bad = tmp_path / "bad.xdb"
        data.save_bundle(bundle, bad, split=split)
        code = main([
            "eval", "--model", str(trained), "--bundle", str(bad),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_standard_protocol_writes_metrics(self, prepared, trained, tmp_path):
        prefix = tmp_path / "metrics"
        code = main([
            "eval", "--model", str(trained), "--bundle", str(prepared),
            "--protocol", "standard", "--out", str(prefix),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "metrics.json").read_text())
        (report,) = payload["reports"]
        assert set(report["hr"]) == {"5", "10", "20", "50"}
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[1].startswith("variant,protocol")
        assert len(lines) == 2 + 4

    def test_metrics_deterministic_across_runs(self, prepared, trained, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for prefix in (a, b):
            main([
                "eval", "--model", str(trained), "--bundle", str(prepared),
                "--protocol", "standard", "--out", str(prefix),
            ])
        assert (tmp_path / "a.csv").read_text().replace("a.manifest", "x.manifest") == \
            (tmp_path / "b.csv").read_text().replace("b.manifest", "x.manifest")

    def test_degrade_protocol_table(self, prepared, trained, tmp_path):
        prefix = tmp_path / "deg"
        code = main([
            "eval", "--model", str(trained), "--bundle", str(prepared),
            "--protocol", "degrade", "--fractions", "1.0,0.5,0.0",
            "--out", str(prefix),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "deg.json").read_text())
        fractions = [r["extra"]["fraction_kept"] for r in payload["reports"]]
        assert fractions == [1.0, 0.5, 0.0]

    def test_degrade_on_cold_model_exit_two(self, prepared, tmp_path):
        cold = tmp_path / "cold.xdv"
        main([
            "train", "--bundle", str(prepared), "--variant", "cold-start",
            "--epochs", "1", "--out", str(cold), *TRAIN_FLAGS,
        ])
        code = main([
            "eval", "--model", str(cold), "--bundle", str(prepared),
            "--protocol", "degrade", "--out", str(tmp_path / "bad"),
        ])
        assert code == 2

    def test_coldstart_protocol(self, prepared, tmp_path):
        cold = tmp_path / "cold.xdv"
        main([
            "train", "--bundle", str(prepared), "--variant", "cold-start",
            "--epochs", "1", "--out", str(cold), *TRAIN_FLAGS,
        ])
        code = main([
            "eval", "--model", str(cold), "--bundle", str(prepared),
            "--protocol", "coldstart", "--out", str(tmp_path / "cs"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "cs.json").read_text())
        assert payload["reports"][0]["protocol"] == "coldstart"

    def test_bad_k_exit_one(self, prepared, trained, tmp_path):
        code = main([
            "eval", "--model", str(trained), "--bundle", str(prepared),
            "--ks", "0,10", "--out", str(tmp_path / "x"),
        ])
        assert code == 1


# Numeric model flags that used to train (exit 0), fail mid-epoch (exit 3) or
# be reported as data errors (exit 2); each is a usage error naming its flag.
BAD_MODEL_FLAGS = {
    "batch-size-negative": ["--batch-size", "-3"],
    "batch-size-zero": ["--batch-size", "0"],
    "lr-negative": ["--lr", "-1"],
    "lr-nan": ["--lr", "nan"],
    "beta-nan": ["--beta", "nan"],
    "lambda-reg-inf": ["--lambda-reg", "inf"],
    "epochs-negative": ["--epochs", "-1"],
    "latent-dim-zero": ["--latent-dim", "0"],
    "dims-zero": ["--dims", "0"],
    "seed-negative": ["--seed", "-1"],
}


class TestModelFlags:
    @pytest.mark.parametrize("case", sorted(BAD_MODEL_FLAGS))
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_bad_value_exit_one_naming_the_flag(self, prepared, tmp_path, capsys, command,
                                                case):
        flags = BAD_MODEL_FLAGS[case]
        out = tmp_path / "x"
        code = main([command, "--bundle", str(prepared), *TRAIN_FLAGS, "--epochs", "1",
                     *flags, "--out", str(out)])
        assert code == 1
        assert f"xdvae: error: {flags[0]} " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_cold_fraction_outside_unit_interval_exit_one(self, prepared, tmp_path, capsys):
        code = main(["train", "--bundle", str(prepared), "--variant", "cold-start",
                     *TRAIN_FLAGS, "--cold-fraction", "1.5", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--cold-fraction must be in (0, 1)" in capsys.readouterr().err

    def test_beta_sweep_value_is_checked(self, prepared, tmp_path, capsys):
        code = main(["ablate", "--bundle", str(prepared), *TRAIN_FLAGS, "--epochs", "1",
                     "--beta-sweep", "4,nan", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--beta must be finite and >= 0, got nan" in capsys.readouterr().err

    def test_shared_flags_keep_names_and_defaults(self, prepared, tmp_path):
        out = tmp_path / "m.xdv"
        assert main(["train", "--bundle", str(prepared), "--epochs", "0", "--dims", "8",
                     "--latent-dim", "4", "--out", str(out)]) == 0
        argv = json.loads((tmp_path / "m.xdv.manifest.json").read_text())["argv"]
        for item in ("batch_size=32", "beta=15.0", "lambda_reg=0.0001", "lr=0.001",
                     "seed=0", "aux_attach=both", "cold_fraction=0.1"):
            assert item in argv


class TestAblate:
    def test_small_suite(self, prepared, tmp_path):
        prefix = tmp_path / "ablation"
        code = main([
            "ablate", "--bundle", str(prepared),
            "--variants", "generic,single0",
            "--epochs", "2", "--out", str(prefix), *TRAIN_FLAGS,
        ])
        assert code == 0
        payload = json.loads((tmp_path / "ablation.json").read_text())
        assert {r["variant"] for r in payload["reports"]} == {"generic", "single0"}

    def test_beta_sweep(self, prepared, tmp_path):
        prefix = tmp_path / "sweep"
        code = main([
            "ablate", "--bundle", str(prepared),
            "--beta-sweep", "0,4",
            "--epochs", "2", "--out", str(prefix), *TRAIN_FLAGS,
        ])
        assert code == 0
        payload = json.loads((tmp_path / "sweep.json").read_text())
        betas = [r["extra"]["beta"] for r in payload["reports"]]
        assert betas == [0.0, 4.0]


class TestParserReuse:
    def test_repeated_main_calls_leave_no_cycles(self, tmp_path):
        missing = str(tmp_path / "missing.dat")
        argv = ["prepare", "--ratings", missing, "--items", missing, "--source-labels", "Action",
                "--target-labels", "Drama", "--out", str(tmp_path / "x.xdb")]
        assert main(argv) == 2  # warm-up
        gc.collect()
        gc.disable()
        try:
            assert [main(argv) for _ in range(3)] == [2, 2, 2]
            # a parser built per call leaves a few hundred objects in cycles
            assert gc.collect() < 100
        finally:
            gc.enable()
