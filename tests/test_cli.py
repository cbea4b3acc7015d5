"""End-to-end CLI runs over the synthetic corpus, including exit codes,
manifests and byte-level determinism of artifacts."""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import sys
import threading
import warnings
import weakref
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdvae import data, evaluate, nn, train as training
from xdvae.cli import InputHashes, build_parser, main
from xdvae.model import ModelConfig, architecture

from conftest import cpu_helpers, patch_cpus, poison_last_grad, rewrite_header


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


@pytest.fixture(scope="module")
def aux_bundle_models(prepared, tmp_path_factory):
    """The prepared bundle with 3 aux columns, and an untrained aux and cold-start
    checkpoint of it by variant."""
    out = tmp_path_factory.mktemp("cli-aux")
    bundle = _with_aux(prepared, out / "aux3.xdb", 3)
    models = {variant: out / f"{variant}.xdv" for variant in ("aux", "cold-start")}
    for variant, path in models.items():
        assert main(["train", "--bundle", str(bundle), "--variant", variant, *TRAIN_FLAGS,
                     "--epochs", "0", "--out", str(path)]) == 0
    return bundle, models


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

    def test_impossible_threshold_exit_two(self, synthetic_corpus, tmp_path, capsys):
        # a rating threshold outside 1..5 is a usage error; thresholds no user
        # meets are found in the data
        code = main([
            "prepare", "--ratings", synthetic_corpus["ratings"],
            "--items", synthetic_corpus["movies"],
            "--source-labels", "Action", "--target-labels", "Comedy,Drama",
            "--min-rating", "5", "--min-target-positives", "1000",
            "--out", str(tmp_path / "x.xdb"),
        ])
        assert code == 2
        assert "no users survive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--aux-dim", "-1"], ["--min-rating", "0"]])
    def test_flags_checked_before_any_file_is_read(self, tmp_path, capsys, flags):
        code = main([
            "prepare", "--ratings", str(tmp_path / "missing.dat"),
            "--items", str(tmp_path / "missing-items.dat"),
            "--source-labels", "Action", "--target-labels", "Comedy",
            *flags, "--out", str(tmp_path / "x.xdb"),
        ])
        assert code == 1
        assert f"xdvae: error: {flags[0]} must be " in capsys.readouterr().err

    def test_determinism_byte_identical_bundles(self, prepared, synthetic_corpus, tmp_path):
        out = tmp_path / "again.xdb"
        main([
            "prepare", "--ratings", synthetic_corpus["ratings"],
            "--items", synthetic_corpus["movies"],
            "--source-labels", "Action", "--target-labels", "Comedy,Drama",
            "--seed", "5", "--out", str(out),
        ])
        assert out.read_bytes() == prepared.read_bytes()


SEP = {"movielens-dat": "::", "csv": ","}


def canonical_log(fmt):
    """A log that prepares: three users rate one source item and 50 target items
    each, so every user keeps the 99 non-positives its negatives are drawn from."""
    lines = [f"u{k // 50}{SEP[fmt]}t{k}{SEP[fmt]}5{SEP[fmt]}{1000 + k}" for k in range(150)]
    lines += [f"u{u}{SEP[fmt]}s0{SEP[fmt]}4{SEP[fmt]}" for u in range(3)]
    head = ["user,item,rating,timestamp"] if fmt == "csv" else []
    return "\n".join(head + lines).encode() + b"\n"


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("log-bytes")
    items = ["s0", *(f"t{k}" for k in range(150))]
    genres = ["Action"] + ["Comedy"] * 150
    (root / "movielens-dat.items").write_text(
        "".join(f"{i}::{i}::{g}\n" for i, g in zip(items, genres)))
    (root / "csv.items").write_text(
        "item,labels\n" + "".join(f"{i},{g}\n" for i, g in zip(items, genres)))
    return root


# bytes of both formats' lines, line breaks of splitlines() and padding that
# strip() removes, besides any byte at all
LOG_BYTES = st.one_of(st.sampled_from(list(b"::,\n\r\x0b\x85\xa0 \t-+_u s059")),
                      st.integers(0, 255))


class TestRatingLogBytes:
    """prepare --ratings on arbitrary bytes and on one-byte edits of a canonical
    log: exit 0, or exit 2 with one data error on stderr, and never a traceback
    or a numpy warning."""

    def prepare(self, root, fmt, raw, block):
        (root / "r.log").write_bytes(raw)
        err = io.StringIO()
        with patch.object(data, "BLOCK", block), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "prepare", "--ratings", str(root / "r.log"), "--format", fmt,
                "--items", str(root / f"{fmt}.items"),
                "--source-labels", "Action", "--target-labels", "Comedy",
                "--out", str(root / "r.xdb"),
            ])
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 2)
        assert err.getvalue() == "" if code == 0 else \
            err.getvalue().startswith("xdvae: data error: ")
        return code

    @pytest.mark.parametrize("fmt", sorted(SEP))
    def test_canonical_log_prepares(self, log_dir, fmt):
        assert self.prepare(log_dir, fmt, canonical_log(fmt), data.BLOCK) == 0

    @given(fmt=st.sampled_from(sorted(SEP)), raw=st.lists(LOG_BYTES, max_size=200).map(bytes),
           block=st.sampled_from([1, 7, 64, data.BLOCK]))
    @settings(deadline=None)
    def test_arbitrary_bytes(self, log_dir, fmt, raw, block):
        self.prepare(log_dir, fmt, raw, block)

    @given(fmt=st.sampled_from(sorted(SEP)), edit=st.sampled_from(["replace", "insert", "delete"]),
           where=st.integers(0, 10**6), byte=LOG_BYTES, block=st.sampled_from([7, 64, data.BLOCK]))
    @settings(deadline=None)
    def test_one_byte_edit_of_canonical_log(self, log_dir, fmt, edit, where, byte, block):
        raw = canonical_log(fmt)
        at = where % len(raw)
        if edit == "replace":
            raw = raw[:at] + bytes([byte]) + raw[at + 1:]
        elif edit == "insert":
            raw = raw[:at] + bytes([byte]) + raw[at:]
        else:
            raw = raw[:at] + raw[at + 1:]
        self.prepare(log_dir, fmt, raw, block)


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

    def test_non_finite_gradient_exit_three_without_checkpoint(self, prepared, tmp_path,
                                                              capsys, monkeypatch):
        # the update's blocks are shared among 1, 2 and 3 threads
        for n_cpus in (1, 2, 3):
            with monkeypatch.context() as patch:
                name = poison_last_grad(patch, at_call=2)
                started = patch_cpus(patch, n_cpus)
                code = main([
                    "train", "--bundle", str(prepared), "--variant", "generic",
                    "--epochs", "2", "--out", str(tmp_path / "nan.xdv"), *TRAIN_FLAGS,
                ])
            assert code == 3
            err = capsys.readouterr().err
            assert f"numeric failure: non-finite values in {name!r} (grads, epoch 0, " in err
            assert not list(tmp_path.iterdir())
            assert bool(cpu_helpers(started)) == (n_cpus > 1)

    def test_cold_start_variant_trains(self, prepared, tmp_path):
        out = tmp_path / "cold.xdv"
        code = main([
            "train", "--bundle", str(prepared), "--variant", "cold-start",
            "--epochs", "1", "--out", str(out), *TRAIN_FLAGS,
        ])
        assert code == 0

    @pytest.mark.parametrize("fraction, left", [("0.9999", "0 training and 140 test"),
                                                ("0.001", "140 training and 0 test")])
    def test_cold_start_split_without_users_exit_two(self, prepared, tmp_path, capsys,
                                                     fraction, left):
        # 140 users: 0.9999 used to train on no one and exit 0
        code = main([
            "train", "--bundle", str(prepared), "--variant", "cold-start",
            "--cold-fraction", fraction, "--epochs", "1",
            "--out", str(tmp_path / "cold.xdv"), *TRAIN_FLAGS,
        ])
        assert code == 2
        assert f"leaves {left} users" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_diverging_training_exit_three_without_warnings(self, prepared, tmp_path, capsys,
                                                            monkeypatch):
        # at 1e308 the first update overflows, which helper threads must
        # ignore under the caller's numpy error state as the caller does
        monkeypatch.setattr(nn, "BLOCK", 64)
        for n_cpus, lr in itertools.product((1, 2, 3), ("1e300", "1e308")):
            started = patch_cpus(monkeypatch, n_cpus)
            code = main([
                "train", "--bundle", str(prepared), "--variant", "generic",
                "--epochs", "1", "--out", str(tmp_path / "big.xdv"), *TRAIN_FLAGS,
                "--lr", lr,
            ])
            assert code == 3
            err = capsys.readouterr().err
            assert "numeric failure: non-finite loss at epoch 0, batch offset 32" in err
            assert "Warning" not in err
            assert not list(tmp_path.iterdir())
            assert bool(cpu_helpers(started)) == (n_cpus > 1)


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

def _to_float(table, key):
    """Turn table[key], an integer or a list of them, into equal floats."""
    value = table[key]
    table[key] = [float(v) for v in value] if isinstance(value, list) else float(value)


# (field the error names, edit) per defect of an integer field in a
# checkpoint's header; floats equal to the trained integers keep the tensor
# list matching, so only the type is wrong
INTEGER_FIELD_DEFECTS = {
    "float-seed": ("seed", lambda h: h["config"].update(seed=1.5)),
    "bool-seed": ("seed", lambda h: h["config"].update(seed=True)),
    "float-aux-dim": ("aux_dim", lambda h: h["config"].update(aux_dim=3.0)),
    **{f"float-{key.replace('_', '-')}": (key, lambda h, key=key: _to_float(h["config"], key))
       for key in ("latent_dim", "enc_dims_source", "enc_dims_target", "aux_encoder_dims")},
    **{f"float-{key.replace('_', '-')}": (f"dims.{key}",
                                          lambda h, key=key: _to_float(h["dims"], key))
       for key in ("n_source", "n_target")},
}

# (field the error names, edit) per defect of a checkpoint header field that
# is not about an integer type; each used to load, to end in an error that did
# not name the field, or (aux_encoder_dims [] in an aux checkpoint) in an
# IndexError traceback
TYPED_FIELD_DEFECTS = {
    "bool-lr": ("lr", lambda h: h["config"].update(lr=True)),
    "bool-lambda-reg": ("lambda_reg", lambda h: h["config"].update(lambda_reg=False)),
    "string-map-stop-gradient": ("map_stop_gradient",
                                 lambda h: h["config"].update(map_stop_gradient="no")),
    "true-map-stop-gradient": ("map_stop_gradient",
                               lambda h: h["config"].update(map_stop_gradient=True)),
    "string-beta": ("beta", lambda h: h["config"].update(beta="1")),
    "null-beta": ("beta", lambda h: h["config"].update(beta=None)),
    "string-cold-fraction": ("cold_fraction", lambda h: h["config"].update(cold_fraction="0.5")),
    "empty-enc-dims-source": ("enc_dims_source", lambda h: h["config"].update(enc_dims_source=[])),
    "zero-enc-dims-target": ("enc_dims_target", lambda h: h["config"].update(enc_dims_target=[0])),
    "empty-aux-encoder-dims": ("aux_encoder_dims",
                               lambda h: h["config"].update(aux_encoder_dims=[])),
    "bool-format-version": ("format_version", lambda h: h.update(format_version=True)),
    "float-format-version": ("format_version", lambda h: h.update(format_version=1.0)),
    "seed-not-config-seed": ("seed", lambda h: h.update(seed=999)),
}


def _repeat_first(ids):
    ids[1] = ids[0]


# (what the error names, edit) per defect of a bundle header; None where the
# error names no field. From "string-split-seed" on, each used to load.
BUNDLE_HEADER_DEFECTS = {
    "missing-blobs": ("'blobs'", lambda h: h.pop("blobs")),
    "blob-dtype-not-a-string": ("blob 'source.rows'", lambda h: h["blobs"][0].update(dtype=7)),
    "missing-user-index": ("'user_index'", lambda h: h.pop("user_index")),
    "user-index-not-a-list": ("user_index", lambda h: h.update(user_index=5)),
    "missing-item-index": ("'item_index'", lambda h: h["domains"]["source"].pop("item_index")),
    "null-row-lengths": (None, lambda h: h["domains"]["target"].update(row_lengths=None)),
    "missing-has-ts": ("'has_ts'", lambda h: h["domains"]["target"].pop("has_ts")),
    "missing-provenance": ("'provenance'", lambda h: h.pop("provenance")),
    "provenance-not-an-object": ("provenance", lambda h: h.update(provenance=5)),
    "missing-aux-dim": ("'aux_dim'", lambda h: h.pop("aux_dim")),
    "missing-split-seed": ("'seed'", lambda h: h["split"].pop("seed")),
    "missing-split-policy": ("'policy'", lambda h: h["split"].pop("policy")),
    "string-split-seed": ("split.seed", lambda h: h["split"].update(seed="x")),
    "float-split-seed": ("split.seed", lambda h: h["split"].update(seed=1.5)),
    "list-split-policy": ("split.policy", lambda h: h["split"].update(policy=[1])),
    "wrong-n-negatives": ("split.n_negatives", lambda h: h["split"].update(n_negatives=5)),
    "wrong-m": ("m must", lambda h: h.update(m=10**9)),
    "repeated-user-id": ("user_index", lambda h: _repeat_first(h["user_index"])),
    "int-user-id": ("user_index", lambda h: h["user_index"].__setitem__(0, 7)),
    "list-user-id": ("user_index", lambda h: h["user_index"].__setitem__(0, ["u"])),
    "repeated-item-id": ("domains.target.item_index",
                         lambda h: _repeat_first(h["domains"]["target"]["item_index"])),
    "int-item-id": ("domains.source.item_index",
                    lambda h: h["domains"]["source"]["item_index"].__setitem__(0, 3)),
    "string-has-ts": ("domains.target.has_ts",
                      lambda h: h["domains"]["target"].update(has_ts="yes")),
    "bool-version": ("version", lambda h: h.update(version=True)),
    "float-version": ("version", lambda h: h.update(version=1.0)),
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

    @pytest.mark.parametrize("protocol", ["standard", "degrade", "coldstart"])
    @pytest.mark.parametrize("defect", sorted(INTEGER_FIELD_DEFECTS))
    def test_non_integer_field_exit_two(self, aux_bundle_models, tmp_path, capsys, protocol,
                                        defect):
        # used to end in a TypeError traceback from np.zeros or named_rng, or
        # for a field the model does not read, to load
        bundle, models = aux_bundle_models
        field, edit = INTEGER_FIELD_DEFECTS[defect]
        bad = tmp_path / "bad.xdv"
        rewrite_header(models["cold-start" if protocol == "coldstart" else "aux"], bad, edit)
        code = main(["eval", "--model", str(bad), "--bundle", str(bundle),
                     "--protocol", protocol, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed checkpoint header" in err
        assert f"{field} must be of integer type" in err

    @pytest.mark.parametrize("defect", sorted(TYPED_FIELD_DEFECTS))
    def test_mistyped_field_exit_two(self, aux_bundle_models, tmp_path, capsys, defect):
        # the aux variant reads every config field, aux_encoder_dims too
        bundle, models = aux_bundle_models
        field, edit = TYPED_FIELD_DEFECTS[defect]
        bad = tmp_path / "bad.xdv"
        rewrite_header(models["aux"], bad, edit)
        code = main(["eval", "--model", str(bad), "--bundle", str(bundle),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"malformed checkpoint header (ValueError: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("declared, message", [
        ("original", "tensor list mismatch"),
        ("forged", "truncated tensor data"),
    ])
    def test_forged_petabyte_model_exit_two(self, prepared, trained, tmp_path, capsys,
                                            declared, message):
        # a header asking for about a PiB of parameters is checked against the
        # tensor list and the body size before anything is allocated
        def forge(header):
            header["config"]["latent_dim"] = 10**12
            if declared == "forged":
                from xdvae.model import ModelConfig, architecture

                model = architecture(ModelConfig.from_dict(header["config"]), **header["dims"])
                header["tensors"] = [{"name": name, "shape": list(shape)}
                                     for name, shape in model.tensor_shapes()]

        bad = tmp_path / "bad.xdv"
        rewrite_header(trained, bad, forge)
        code = main(["eval", "--model", str(bad), "--bundle", str(prepared),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_unknown_top_level_key_is_ignored(self, prepared, trained, tmp_path):
        # only unknown config keys are rejected (HEADER_DEFECTS "unknown-config-key")
        extra = tmp_path / "extra.xdv"
        rewrite_header(trained, extra, lambda h: h.update(note="not a field"))
        reports = []
        for model, out in ((trained, "a"), (extra, "b")):
            assert main(["eval", "--model", str(model), "--bundle", str(prepared),
                         "--protocol", "standard", "--out", str(tmp_path / out)]) == 0
            reports.append(json.loads((tmp_path / f"{out}.json").read_text())["reports"])
        assert reports[0] == reports[1]

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
        named, edit = BUNDLE_HEADER_DEFECTS[defect]
        bad = tmp_path / "bad.xdb"
        rewrite_header(prepared, bad, edit)
        code = main([
            "eval", "--model", str(trained), "--bundle", str(bad),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed bundle header" in err
        assert named is None or named in err

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

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_degrade_error_on_a_helper_exit_two(self, prepared, trained, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(nn, "usable_cpus", lambda: 2)
        failed = threading.Event()
        real = evaluate.degrade_target_rows

        def degrade(mat, fraction, seed):
            if threading.current_thread() is threading.main_thread():
                # the main thread's fraction waits until the helper's has failed
                assert failed.wait(timeout=60)
                return real(mat, fraction, seed)
            failed.set()
            raise data.DataError(f"no rows kept at {fraction}")

        monkeypatch.setattr(evaluate, "degrade_target_rows", degrade)
        threads = threading.active_count()
        code = main(["eval", "--model", str(trained), "--bundle", str(prepared),
                     "--protocol", "degrade", "--out", str(tmp_path / "deg")])
        assert code == 2
        assert "data error: no rows kept at" in capsys.readouterr().err
        assert failed.is_set() and threading.active_count() == threads

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

    def test_coldstart_split_without_training_users_exit_two(self, prepared, trained,
                                                             tmp_path, capsys):
        # a checkpoint whose cold fraction leaves this bundle no training user
        model = tmp_path / "cold.xdv"
        rewrite_header(trained, model, lambda h: h["config"].update(cold_fraction=0.9999))
        code = main([
            "eval", "--model", str(model), "--bundle", str(prepared),
            "--protocol", "coldstart", "--out", str(tmp_path / "cs"),
        ])
        assert code == 2
        assert "leaves 0 training and 140 test users" in capsys.readouterr().err

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

# train and ablate flags that used to end as a file-not-found data error (exit 2)
# when the bundle was missing too; they are checked before the bundle is read
FLAGS_BEFORE_BUNDLE = {
    "train-beta": ("train", ["--beta", "nan"], "--beta must be finite and >= 0"),
    "ablate-beta": ("ablate", ["--beta", "nan"], "--beta must be finite and >= 0"),
    "train-batch-size": ("train", ["--batch-size", "0"], "--batch-size must be >= 1"),
    "ablate-dims": ("ablate", ["--dims", "0"], "--dims widths must be >= 1"),
    "ablate-beta-sweep": ("ablate", ["--beta-sweep", "4,nan"],
                          "--beta-sweep must be finite and >= 0, got nan"),
    "ablate-variants": ("ablate", ["--variants", "generic,bogus"], "unknown ablation variants"),
    # used to write reports with no run in them
    "ablate-variants-empty": ("ablate", ["--variants", " , "], "--variants is empty"),
    "ablate-variants-repeated": ("ablate", ["--variants", "single0,Single0"],
                                 "--variants must be distinct"),
    "ablate-beta-sweep-repeated": ("ablate", ["--beta-sweep", "2,2"],
                                   "--beta-sweep must be distinct"),
    "ablate-beta-sweep-signed-zero": ("ablate", ["--beta-sweep", "0,-0"],
                                      "--beta-sweep must be distinct"),
    # distinct floats that both used to be reported as generic-b0.123457
    "ablate-beta-sweep-same-label": ("ablate", ["--beta-sweep", "0.1234567,0.1234568"],
                                     "--beta-sweep must be distinct values at 6 significant"),
    "ablate-ks-repeated": ("ablate", ["--ks", "10,5,10"], "--ks must be distinct values"),
    "eval-ks-repeated": ("eval", ["--model", "missing.xdv", "--ks", "10,10"],
                         "--ks must be distinct values"),
    "eval-fractions-repeated": ("eval", ["--model", "missing.xdv", "--protocol", "degrade",
                                         "--fractions", "0.5,0.50"],
                                "--fractions must be distinct values"),
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

    @pytest.mark.parametrize("case", sorted(FLAGS_BEFORE_BUNDLE))
    def test_checked_before_the_bundle_is_read(self, tmp_path, capsys, case):
        command, flags, message = FLAGS_BEFORE_BUNDLE[case]
        missing = tmp_path / "missing.xdb"
        code = main([command, "--bundle", str(missing), *flags, "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"xdvae: error: {message}" in capsys.readouterr().err

    # PiB-scale stores, which numpy refuses at once (a size it could reserve
    # lazily would be filled by the Glorot draws), and stores past the address
    # space, which numpy cannot even size
    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("flag", ["--dims", "--latent-dim"])
    @pytest.mark.parametrize("size", [10 ** 12, 10 ** 20])
    def test_model_too_large_to_allocate_exit_one(self, prepared, tmp_path, capsys, command,
                                                  flag, size):
        # used to end in a MemoryError traceback, or in a data error (exit 2)
        code = main([command, "--bundle", str(prepared), *TRAIN_FLAGS, "--epochs", "1",
                     flag, str(size), "--out", str(tmp_path / "x")])
        assert code == 1
        bundle, _ = data.load_bundle(prepared)
        # generic is the first model train and ablate build
        dims, latent = ((size,), 8) if flag == "--dims" else ((16,), size)
        config = ModelConfig(enc_dims_source=dims, enc_dims_target=dims, latent_dim=latent)
        shapes = architecture(config, bundle.source.n_items, bundle.target.n_items)
        n = sum(math.prod(shape) for _, shape in shapes.tensor_shapes())
        assert capsys.readouterr().err == (
            f"xdvae: error: --dims/--latent-dim give a 'generic' model of {n} parameters, "
            "too large to allocate\n")
        assert not list(tmp_path.iterdir())

    def test_cold_fraction_outside_unit_interval_exit_one(self, prepared, tmp_path, capsys):
        code = main(["train", "--bundle", str(prepared), "--variant", "cold-start",
                     *TRAIN_FLAGS, "--cold-fraction", "1.5", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--cold-fraction must be in (0, 1)" in capsys.readouterr().err

    def test_beta_sweep_value_is_checked(self, prepared, tmp_path, capsys):
        # used to name --beta, a flag the command line did not pass
        for sweep, bad in (("4,nan", "nan"), ("1,-2", "-2.0")):
            code = main(["ablate", "--bundle", str(prepared), *TRAIN_FLAGS, "--epochs", "1",
                         "--beta-sweep", sweep, "--out", str(tmp_path / "x")])
            assert code == 1
            assert capsys.readouterr().err == (
                f"xdvae: error: --beta-sweep must be finite and >= 0, got {bad}\n")

    def test_shared_flags_keep_names_and_defaults(self, prepared, tmp_path):
        out = tmp_path / "m.xdv"
        assert main(["train", "--bundle", str(prepared), "--epochs", "0", "--dims", "8",
                     "--latent-dim", "4", "--out", str(out)]) == 0
        argv = json.loads((tmp_path / "m.xdv.manifest.json").read_text())["argv"]
        for item in ("batch_size=32", "beta=15.0", "lambda_reg=0.0001", "lr=0.001",
                     "seed=0", "aux_attach=both", "cold_fraction=0.1"):
            assert item in argv


# prepare, eval and ablate flags that used to run (exit 0) or end as data
# errors (exit 2); each is a usage error naming its flag, before any work.
BAD_RUN_FLAGS = {
    "prepare-min-target-positives": ("prepare", ["--min-target-positives", "-4"]),
    "prepare-seed": ("prepare", ["--seed", "-1"]),
    "prepare-aux-dim": ("prepare", ["--aux-dim", "-1"]),
    "prepare-min-rating-zero": ("prepare", ["--min-rating", "0"]),
    "prepare-min-rating-six": ("prepare", ["--min-rating", "6"]),
    "eval-seed": ("eval", ["--protocol", "degrade", "--seed", "-1"]),
    "eval-fraction-above-one": ("eval", ["--protocol", "degrade", "--fractions", "1,1.5"]),
    "eval-fraction-negative": ("eval", ["--protocol", "degrade", "--fractions", "-0.25"]),
    "eval-fraction-nan": ("eval", ["--protocol", "degrade", "--fractions", "0.5,nan"]),
    "eval-ks": ("eval", ["--ks", "10,500"]),
    "ablate-ks": ("ablate", ["--ks", "0,500"]),
    # repeats used to train the same model again and report it under two names
    "ablate-variants-repeated": ("ablate", ["--variants", "generic,single,generic"]),
    "ablate-variants-case": ("ablate", ["--variants", "generic,Generic"]),
    "ablate-beta-sweep-repeated": ("ablate", ["--beta-sweep", "0,1,1.0"]),
    # a repeated cutoff or fraction used to be scored and reported twice
    "eval-ks-repeated": ("eval", ["--ks", "10,10"]),
    "eval-fractions-repeated": ("eval", ["--protocol", "degrade", "--fractions", "0.5,0.5"]),
    "ablate-ks-repeated": ("ablate", ["--ks", "5,10,5"]),
}


class TestRunFlags:
    @pytest.mark.parametrize("case", sorted(BAD_RUN_FLAGS))
    def test_bad_value_exit_one_naming_the_flag(self, synthetic_corpus, prepared, trained,
                                                tmp_path, capsys, case):
        command, flags = BAD_RUN_FLAGS[case]
        out = tmp_path / "x"
        inputs = {
            "prepare": ["--ratings", synthetic_corpus["ratings"],
                        "--items", synthetic_corpus["movies"],
                        "--source-labels", "Action", "--target-labels", "Comedy,Drama"],
            "eval": ["--model", str(trained), "--bundle", str(prepared)],
            "ablate": ["--bundle", str(prepared), *TRAIN_FLAGS, "--epochs", "1"],
        }[command]
        code = main([command, *inputs, *flags, "--out", str(out)])
        assert code == 1
        assert f"xdvae: error: {flags[-2]} must be " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


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

    def test_variants_and_beta_sweep_are_exclusive(self, tmp_path, capsys):
        # --variants used to be ignored, unknown names included, beside --beta-sweep
        missing = tmp_path / "missing.xdb"
        assert main(["ablate", "--bundle", str(missing), "--variants", "generic,bogus",
                     "--beta-sweep", "1", "--out", str(tmp_path / "x")]) == 1
        assert ("argument --beta-sweep: not allowed with argument --variants"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("runs", [["--variants", "generic,single0,merged"],
                                      ["--beta-sweep", "0,4,1"]])
    def test_one_trained_model_alive_at_a_time(self, prepared, tmp_path, monkeypatch, runs):
        models, alive = [], []
        real_train = training.train

        def train(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in models))
            model, history = real_train(*args, **kwargs)
            models.append(weakref.ref(model))
            return model, history

        monkeypatch.setattr(training, "train", train)
        code = main(["ablate", "--bundle", str(prepared), *runs, *TRAIN_FLAGS,
                     "--epochs", "1", "--out", str(tmp_path / "x")])
        assert code == 0
        # every earlier model is gone when the next one is trained
        assert alive == [0, 0, 0]


def _with_aux(prepared, path, width):
    """The prepared bundle and split with `width` aux columns, or none for None."""
    bundle, split = data.load_bundle(prepared)
    if width is not None:
        bundle.aux_vectors = np.linspace(-1, 1, bundle.m * width).reshape(bundle.m, width)
    data.save_bundle(bundle, path, split=split)
    return path


class TestAuxWidth:
    def test_bundle_aux_without_columns_exit_two(self, prepared, tmp_path, capsys):
        # used to load, and train then exited 1 naming --aux-dim, which it lacks
        bundle = _with_aux(prepared, tmp_path / "aux0.xdb", 0)
        code = main(["train", "--bundle", str(bundle), "--variant", "aux", *TRAIN_FLAGS,
                     "--epochs", "0", "--out", str(tmp_path / "aux.xdv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"xdvae: data error: {bundle}: aux blob of shape" in err
        assert "--aux-dim" not in err

    @pytest.mark.parametrize("width", [3, 5, None])
    def test_eval_compares_the_aux_width(self, prepared, tmp_path, capsys, width):
        # a width other than the checkpoint's used to exit 2 naming neither file
        checkpoint = tmp_path / "aux.xdv"
        assert main(["train", "--bundle", str(_with_aux(prepared, tmp_path / "aux3.xdb", 3)),
                     "--variant", "aux", *TRAIN_FLAGS, "--epochs", "0",
                     "--out", str(checkpoint)]) == 0
        bundle = _with_aux(prepared, tmp_path / "other.xdb", width)
        code = main(["eval", "--model", str(checkpoint), "--bundle", str(bundle),
                     "--out", str(tmp_path / "m")])
        assert code == (0 if width == 3 else 2)
        if width != 3:
            b, _ = data.load_bundle(bundle)
            dims = (b.source.n_items, b.target.n_items)
            assert capsys.readouterr().err == (
                "xdvae: data error: bundle dimensions do not match the checkpoint: "
                f"(source items, target items, aux width) are {(*dims, width)} in {bundle} "
                f"and {(*dims, 3)} in {checkpoint}\n")


class TestParserExits:
    """main returns argparse's exit code rather than raising SystemExit."""

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["eval", "--bundle", "x.xdb", "--out", "y"], 1, "err",
         "the following arguments are required: --model"),
        (["eval", "--model", "m.xdv", "--bundle", "x.xdb", "--protocol", "bogus", "--out", "y"],
         1, "err", "argument --protocol: invalid choice: 'bogus'"),
        ([], 1, "err", "the following arguments are required: command"),
        (["eval", "--help"], 0, "out", "--protocol {standard,degrade,coldstart}"),
        (["--help"], 0, "out", "{prepare,train,eval,ablate}"),
        (["--version"], 0, "out", "xdvae "),
    ], ids=["missing-required", "bad-choice", "no-command", "eval-help", "help", "version"])
    def test_exit_code_returned(self, capsys, argv, code, stream, text):
        assert main(argv) == code
        assert text in getattr(capsys.readouterr(), stream)


def _flag_actions():
    """{command: [(flag, action), ...]} read from the parser itself."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [(a.option_strings[-1], a) for a in p._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()}


# (valid, invalid) toy values per flag destination. Sizes stay at toy scale and
# --epochs at 2 or less (the default is 100): larger values are legal and only slow.
ARGV_VALUES = {
    "source_labels": (["Action", "Action,Drama"], [" , ", "Nope", "Comedy"]),
    "target_labels": (["Comedy,Drama", "Drama"], ["", "Nope", "Action"]),
    "ks": (["5,10", "10"], ["0", "101", "5,5", "x", ""]),
    "fractions": (["1.0,0.5,0.0", "0.25", "0,1"], ["0.5,0.5", "1.5", "nan", "x"]),
    "variants": (["generic,single0", "merged0,no-mmd"], ["Generic,generic", "bogus", " , "]),
    "beta_sweep": (["0,4", "1"], ["1,1", "nan", "-1", "x"]),
    "dims": (["4", "4,3"], ["0", "-4", "x", ""]),
    "epochs": (["0", "1", "2"], ["-1", "x"]),
    "batch_size": (["1", "16"], ["0", "x"]),
    "latent_dim": (["1", "3"], ["0", "x"]),
    "seed": (["0", "5"], ["-1", "x"]),
    "min_rating": (["1", "4"], ["6", "x"]),
    "min_target_positives": (["1", "2"], ["0", "999"]),
    "aux_dim": (["3"], ["2", "0"]),
    "cold_fraction": (["0.25"], ["0", "1", "nan"]),
}
FLOAT_VALUES = (["0.001", "0.5", "4"], ["-1", "nan", "inf", "1e300", "x"])
TOY_SIZE = ("dims", "latent_dim", "epochs")   # given in every argv that takes them


class TestArgvFuzz:
    """Every argv built from the parser's own flags ends in a documented exit
    code, with no traceback and no numpy warning."""

    @pytest.fixture(scope="class")
    def values(self, synthetic_corpus, prepared, trained, tmp_path_factory):
        """(valid, invalid) values per flag destination, the file flags' included."""
        root = tmp_path_factory.mktemp("argv-fuzz")
        (root / "aux.csv").write_text("".join(f"{u},{u / 7:.3f},{-u:.1f},1\n"
                                              for u in range(1, 60)))
        (root / "out").mkdir()
        missing, ratings, movies = str(root / "missing"), *synthetic_corpus.values()
        inputs = {"ratings": (ratings, movies), "items": (movies, ratings),
                  "aux": (str(root / "aux.csv"), movies),
                  "bundle": (str(prepared), str(trained)), "model": (str(trained), str(prepared))}
        paths = {dest: ([good], [wrong, missing, str(root)])
                 for dest, (good, wrong) in inputs.items()}
        outputs = ([str(root / "out" / "run")], [str(root / "missing" / "run"), str(root)])
        return {**ARGV_VALUES, **paths, "out": outputs, "history": outputs}

    @staticmethod
    def _choices(action, values):
        if action.choices:
            return list(action.choices), ["bogus"]
        if action.dest in values:
            return values[action.dest]
        assert action.type is float, action.dest   # a new flag needs values above
        return FLOAT_VALUES

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_argv_ends_in_an_exit_code(self, values, data):
        actions = _flag_actions()
        command = data.draw(st.sampled_from(sorted(actions)), label="command")
        argv = [command]
        for flag, action in actions[command]:
            # a required flag is left out now and then, an optional one often;
            # the model size and the epoch count are always toy values
            keep = 10 if action.dest in TOY_SIZE else 9 if action.required else 4
            if data.draw(st.integers(0, 9), label=flag) >= keep:
                continue
            if action.nargs == 0:
                argv.append(flag)
                continue
            valid, invalid = self._choices(action, values)
            pool = valid if data.draw(st.integers(0, 9), label=flag) < 9 else invalid
            argv.append(f"{flag}={data.draw(st.sampled_from(pool), label=flag)}")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        assert not caught, (argv, [str(w.message) for w in caught])


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


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestManifestInputs:
    """A manifest's input fingerprint is the sha256 of the bytes the command read."""

    @pytest.mark.parametrize("command", ["prepare", "train", "eval", "ablate"])
    def test_digest_is_the_sha256_of_the_input_bytes(self, synthetic_corpus, prepared, trained,
                                                      tmp_path, command):
        aux = tmp_path / "aux.csv"
        aux.write_text("user,a,b\n1,0.5,-1\n2,0.25,3\n")
        argv, inputs = {
            "prepare": (["prepare", "--ratings", synthetic_corpus["ratings"],
                         "--items", synthetic_corpus["movies"], "--source-labels", "Action",
                         "--target-labels", "Comedy,Drama", "--aux", str(aux),
                         "--aux-dim", "2"],
                        [synthetic_corpus["ratings"], synthetic_corpus["movies"], str(aux)]),
            "train": (["train", "--bundle", str(prepared), *TRAIN_FLAGS, "--epochs", "1"],
                      [str(prepared)]),
            "eval": (["eval", "--model", str(trained), "--bundle", str(prepared)],
                     [str(trained), str(prepared)]),
            "ablate": (["ablate", "--bundle", str(prepared), "--variants", "single",
                        *TRAIN_FLAGS, "--epochs", "1"], [str(prepared)]),
        }[command]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert manifest["inputs"] == {path: sha256_of(path) for path in inputs}

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_piped_ratings_record_the_piped_bytes(self, synthetic_corpus, prepared, tmp_path):
        # the manifest used to hash the drained pipe again: sha256 of nothing
        payload = Path(synthetic_corpus["ratings"]).read_bytes()
        assert len(payload) > 1 << 16  # more than a pipe holds unread
        read_fd, write_fd = os.pipe()

        def write():
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)

        writer = threading.Thread(target=write)
        writer.start()
        piped = f"/dev/fd/{read_fd}"
        out = tmp_path / "piped.xdb"
        try:
            code = main(["prepare", "--ratings", piped, "--items", synthetic_corpus["movies"],
                         "--format", "movielens-dat", "--source-labels", "Action",
                         "--target-labels", "Comedy,Drama", "--seed", "5", "--out", str(out)])
        finally:
            writer.join(timeout=60)
            os.close(read_fd)
        assert not writer.is_alive()
        assert code == 0
        inputs = json.loads((tmp_path / "piped.xdb.manifest.json").read_text())["inputs"]
        assert inputs[piped] == hashlib.sha256(payload).hexdigest()
        assert out.read_bytes() == prepared.read_bytes()

    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_no_thread_outlives_main(self, prepared, trained, tmp_path, monkeypatch, code):
        argv = {
            0: ["eval", "--model", str(trained), "--bundle", str(prepared)],
            # each failure comes after the bundle or the checkpoint was read
            1: ["train", "--bundle", str(prepared), *TRAIN_FLAGS, "--dims", str(10 ** 12)],
            2: ["eval", "--model", str(prepared), "--bundle", str(prepared)],
            3: ["train", "--bundle", str(prepared), *TRAIN_FLAGS, "--epochs", "2"],
        }[code]
        if code == 3:
            poison_last_grad(monkeypatch, at_call=2)
        before = threading.active_count()
        assert main([*argv, "--out", str(tmp_path / "x")]) == code
        assert threading.active_count() == before

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    def test_reports_name_their_manifest_by_file_name(self, prepared, trained, tmp_path,
                                                      monkeypatch, command):
        # the reports used to carry --out as typed, so these two runs differed
        argv = {
            "eval": ["eval", "--model", str(trained), "--bundle", str(prepared)],
            "ablate": ["ablate", "--bundle", str(prepared), "--variants", "single",
                       *TRAIN_FLAGS, "--epochs", "1"],
        }[command]
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / "b")
        assert main([*argv, "--out", str(tmp_path / "a" / "r")]) == 0
        assert main([*argv, "--out", "r"]) == 0
        for ext in ("json", "csv"):
            assert (tmp_path / "a" / f"r.{ext}").read_bytes() == \
                (tmp_path / "b" / f"r.{ext}").read_bytes()
        assert json.loads((tmp_path / "b" / "r.json").read_text())["manifest"] == \
            "r.manifest.json"


class TestInputHashes:
    def test_chunks_hash_in_file_order_under_fast_switching(self):
        rng = random.Random(0)
        sizes = [0, 1, 100, 2047, 2048, 3000, 70000]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            expected = {}
            with InputHashes() as inputs:
                for k in range(6):
                    feed = inputs.fingerprint(f"in{k}")
                    chunks = [rng.randbytes(rng.choice(sizes)) for _ in range(60)]
                    for chunk in chunks:
                        feed(chunk)
                    expected[f"in{k}"] = hashlib.sha256(b"".join(chunks)).hexdigest()
                assert inputs.digests() == expected
        finally:
            sys.setswitchinterval(interval)

    def test_a_failed_hash_is_raised_by_digests(self):
        with InputHashes() as inputs:
            inputs.fingerprint("x")(12)  # not bytes: sha256.update raises TypeError
            inputs.fingerprint("y")(b"later")  # does not wait forever on the failed job
            with pytest.raises(TypeError):
                inputs.digests()

    def test_a_path_read_twice_keeps_its_first_read(self):
        before = threading.active_count()
        with InputHashes() as inputs:
            inputs.fingerprint("x")(b"first")
            inputs.fingerprint("x")(b"second")
            assert inputs.digests() == {"x": hashlib.sha256(b"first").hexdigest()}
        assert threading.active_count() == before
