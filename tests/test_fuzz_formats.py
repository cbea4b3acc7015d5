"""Damaged XDB1 bundles and XDV1 checkpoints: every truncation and every
single-bit flip must end in DataError or in an object that passes the
structural checks, never in another exception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdvae import data
from xdvae.data import DataError
from xdvae.model import build_model
from xdvae.nn import named_rng
from xdvae.train import load_checkpoint, save_checkpoint

from conftest import make_toy_bundle, make_toy_config, rewrite_header


def toy_bundle_bytes(tmp_path):
    """A bundle with a split, timestamps on both domains and aux vectors."""
    bundle = make_toy_bundle(m=5, n_source=4, n_target=9, seed=8, aux_dim=2)
    for k, mat in enumerate((bundle.source, bundle.target)):
        mat.ts = 1000 * k + np.arange(mat.indices.size, dtype=np.int64)
    split = data.build_loo_split(bundle, seed=1, n_negatives=3)
    path = tmp_path / "toy.xdb"
    data.save_bundle(bundle, path, split=split)
    return path.read_bytes()


def toy_checkpoint_bytes(tmp_path):
    config = make_toy_config("generic", latent_dim=2, enc_dims_source=(3,),
                             enc_dims_target=(3,))
    model = build_model(config, 4, 6, named_rng(config.seed, "init"))
    path = tmp_path / "toy.xdv"
    save_checkpoint(model, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return {"bundle": toy_bundle_bytes(root), "checkpoint": toy_checkpoint_bytes(root)}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-scratch")


def check_bundle(path):
    """Load a damaged bundle; what loads must pass the structural checks again."""
    try:
        bundle, split = data.load_bundle(path)
    except DataError:
        return
    bundle.validate()
    for mat in (bundle.source, bundle.target):
        assert mat.indptr.dtype == np.int64 and mat.indices.dtype == np.int64
        assert mat.ts is None or mat.ts.dtype == np.int64
    if split is not None:
        data._check_split(split.held_out, split.negatives, bundle.target)
    data.save_bundle(bundle, path.with_suffix(".again"), split=split)


def check_checkpoint(path):
    """Load a damaged checkpoint; what loads must be a finite, runnable model."""
    try:
        model, config = load_checkpoint(path)
    except DataError:
        return
    config.validate()
    assert model.config.variant == config.variant
    assert np.isfinite(model.params().flat).all()
    scores = model.predict_scores(np.zeros((1, model.n_source)), np.zeros((1, model.n_target)))
    assert scores.shape == (1, model.n_target) and np.isfinite(scores).all()


CHECKS = {"bundle": check_bundle, "checkpoint": check_checkpoint}

# float32 with an all-ones exponent, quiet bit clear and a nonzero payload;
# casting it to float64 raises numpy's "invalid value" flag
SIGNALLING_NAN_F32 = np.array([0x7F800001], dtype="<u4").tobytes()


@pytest.mark.parametrize("kind", sorted(CHECKS))
class TestDamagedFiles:
    @given(draw=st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncation(self, originals, scratch, kind, draw):
        raw = originals[kind]
        path = scratch / f"cut.{kind}"
        path.write_bytes(raw[:draw.draw(st.integers(0, len(raw) - 1), label="length")])
        CHECKS[kind](path)

    @given(draw=st.data())
    @settings(max_examples=400, deadline=None)
    def test_bit_flip(self, originals, scratch, kind, draw):
        raw = bytearray(originals[kind])
        bit = draw.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        raw[bit // 8] ^= 1 << (bit % 8)
        path = scratch / f"flip.{kind}"
        path.write_bytes(bytes(raw))
        CHECKS[kind](path)

    def test_original_loads(self, originals, scratch, kind):
        path = scratch / f"whole.{kind}"
        path.write_bytes(originals[kind])
        CHECKS[kind](path)


class TestFoundByFuzzing:
    """Damage that got past the loaders before their dtype and finiteness checks:
    each case raised an exception other than DataError, or loaded wrong or
    non-finite values."""

    @pytest.mark.parametrize("dtype", [",i8", "8i8", "<a8", ">i8"])
    def test_bundle_blob_dtype_other_than_declared_format(self, originals, tmp_path, dtype):
        path = tmp_path / "t.xdb"
        path.write_bytes(originals["bundle"])
        rewrite_header(path, path, lambda h: h["blobs"][0].update(dtype=dtype))
        with pytest.raises(DataError, match="malformed bundle header"):
            data.load_bundle(path)

    def test_bundle_non_finite_aux_vector(self, tmp_path):
        bundle = make_toy_bundle(m=4, aux_dim=2)
        bundle.aux_vectors[2, 1] = np.inf
        path = tmp_path / "t.xdb"
        data.save_bundle(bundle, path)
        with pytest.raises(DataError, match="non-finite auxiliary value"):
            data.load_bundle(path)

    @pytest.mark.filterwarnings("error")
    def test_bundle_signalling_nan_aux_vector(self, tmp_path):
        bundle = make_toy_bundle(m=4, aux_dim=2)
        path = tmp_path / "t.xdb"
        data.save_bundle(bundle, path)
        raw = path.read_bytes()
        # the aux blob is last: its final float32 becomes a signalling NaN
        path.write_bytes(raw[:-4] + SIGNALLING_NAN_F32)
        with pytest.raises(DataError, match="non-finite auxiliary value"):
            data.load_bundle(path)

    @pytest.mark.filterwarnings("error")
    def test_checkpoint_signalling_nan_tensor(self, originals, tmp_path):
        path = tmp_path / "t.xdv"
        path.write_bytes(originals["checkpoint"][:-4] + SIGNALLING_NAN_F32)
        with pytest.raises(DataError, match="non-finite tensor data"):
            load_checkpoint(path)

    def test_checkpoint_non_finite_tensor(self, tmp_path):
        config = make_toy_config("generic")
        model = build_model(config, 4, 6, named_rng(config.seed, "init"))
        model.params().flat[5] = np.nan
        path = tmp_path / "t.xdv"
        save_checkpoint(model, path)
        with pytest.raises(DataError, match="non-finite tensor data"):
            load_checkpoint(path)
