"""Damaged XDB1 bundles and XDV1 checkpoints: every truncation and every
single-bit flip must end in DataError or in an object that passes the
structural checks, never in another exception. Damaged label and aux files
must end `prepare` in exit 0 or 2."""

import contextlib
import copy
import io
import json
import re
import struct
import warnings
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from xdvae import data
from xdvae.cli import main
from xdvae.data import DataError
from xdvae.model import build_model
from xdvae.nn import named_rng
from xdvae.train import load_checkpoint, save_checkpoint

from conftest import make_synthetic_interactions, make_toy_bundle, make_toy_config, rewrite_header


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
LOADERS = {"bundle": data.load_bundle, "checkpoint": load_checkpoint}

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


MAGIC = {"bundle": b"XDB1", "checkpoint": b"XDV1"}
VERSION_KEY = {"bundle": "version", "checkpoint": "format_version"}


def _header(head):
    """Damage that replaces the whole file by its magic and a header of bytes head."""
    return lambda kind, raw: MAGIC[kind] + struct.pack("<I", len(head)) + head


def _bumped_version(kind, raw):
    (head_len,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + head_len])
    header[VERSION_KEY[kind]] = 2
    return _header(json.dumps(header).encode())(kind, raw)


# fault: (damage to the original file, the loader's exact message after "<path>: ")
CONTAINER_FAULTS = {
    "bad-magic": (lambda kind, raw: b"NOPE" + raw[4:], "not {what} (bad magic)"),
    "shorter-than-8-bytes": (lambda kind, raw: raw[:7], "truncated header"),
    "header-not-utf8": (_header(b"\xff{}"), "corrupt header ('utf-8' codec can't decode "
                                            "byte 0xff in position 0: invalid start byte)"),
    "header-not-json": (_header(b"{x}"), "corrupt header (Expecting property name enclosed "
                                         "in double quotes: line 1 column 2 (char 1))"),
    "header-not-an-object": (_header(b"[1]"), "corrupt header (not a JSON object)"),
    "unsupported-version": (_bumped_version, "unsupported {kind} version 2"),
}


@pytest.mark.parametrize("fault", CONTAINER_FAULTS)
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_container_fault_message(originals, tmp_path, kind, fault):
    damage, message = CONTAINER_FAULTS[fault]
    path = tmp_path / f"t.{kind}"
    path.write_bytes(damage(kind, originals[kind]))
    with pytest.raises(DataError) as err:
        LOADERS[kind](path)
    what = {"bundle": "a bundle file", "checkpoint": "a checkpoint"}[kind]
    assert str(err.value) == f"{path}: " + message.format(what=what, kind=kind)


# what every header field is swept through: a value of each JSON type, and
# the integers at the edges of a rule
SWEEP_VALUES = [None, True, 0.5, "x", [], {}, 0, -1, 2**63]
SAVERS = {
    "bundle": lambda loaded, path: data.save_bundle(loaded[0], path, split=loaded[1]),
    "checkpoint": lambda loaded, path: save_checkpoint(loaded[0], path),
}


def _fields(node, path=()):
    """The path of every field below a JSON value, objects and lists included."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield (*path, key)
            yield from _fields(child, (*path, key))


def _names_field(message, path):
    """Whether message names the field at path or an ancestor as a dotted
    path; a checkpoint names its config fields bare."""
    names = {".".join(map(str, path[:n])) for n in range(1, len(path) + 1)}
    if path[0] == "config":
        names |= {".".join(map(str, path[1:n])) for n in range(2, len(path) + 1)}
    return any(re.search(rf"(?<![\w.]){re.escape(name)}(?![\w.])", message) for name in names)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_header_field_swept(originals, tmp_path, kind):
    # Each field of the toy file's header, a leaf or an object or list,
    # replaced by each sweep value, ends in a DataError naming the field or an
    # ancestor (the version key's is the "unsupported version" of
    # CONTAINER_FAULTS), or loads an object that saves back to the same
    # bytes: every other field as in the original, and the field read as
    # written (a split seed of 0 is a valid header).
    raw = originals[kind]
    (head_len,) = struct.unpack("<I", raw[4:8])
    header, body = json.loads(raw[8:8 + head_len]), raw[8 + head_len:]
    path, again = tmp_path / f"t.{kind}", tmp_path / f"again.{kind}"
    for leaf in _fields(header):
        for value in SWEEP_VALUES:
            damaged = copy.deepcopy(header)
            reduce(getitem, leaf[:-1], damaged)[leaf[-1]] = value
            head = json.dumps(damaged, sort_keys=True, separators=(",", ":")).encode()
            path.write_bytes(MAGIC[kind] + struct.pack("<I", len(head)) + head + body)
            try:
                loaded = LOADERS[kind](path)
            except DataError as e:
                message = str(e).removeprefix(f"{path}: ")
                unsupported = leaf == (VERSION_KEY[kind],) and message.startswith(
                    f"unsupported {kind} version ")
                assert unsupported or _names_field(message, leaf), (leaf, value, message)
                continue
            SAVERS[kind](loaded, again)
            assert again.read_bytes() == path.read_bytes(), (leaf, value)


# line faults: (line bytes, field separator, drawn index) -> damaged line
LINE_FAULTS = {
    "invalid-utf8": lambda line, sep, at: line[:at] + b"\xff" + line[at:],
    "truncated-utf8": lambda line, sep, at: line[:at] + b"\xc3" + line[at:],
    "nul": lambda line, sep, at: line[:at] + b"\x00" + line[at:],
    "cr": lambda line, sep, at: line[:at] + b"\r" + line[at:],
    "field-dropped": lambda line, sep, at: sep.join(line.split(sep)[:-1]),
    "field-added": lambda line, sep, at: line + sep + b"1",
    "field-blanked": lambda line, sep, at: _set_field(line, sep, at, b""),
    "not-a-number": lambda line, sep, at: _set_field(line, sep, at, b"x"),
    "underscore-digits": lambda line, sep, at: _set_field(line, sep, at, b"1_0"),
    "inf": lambda line, sep, at: _set_field(line, sep, at, b"inf"),
    "nan": lambda line, sep, at: _set_field(line, sep, at, b"nan"),
}
# file faults: (lines, drawn index) -> lines
FILE_FAULTS = {
    "bom": lambda lines, at: [b"\xef\xbb\xbf" + lines[0], *lines[1:]],
    "crlf": lambda lines, at: [line + b"\r" for line in lines],
    "repeated-line": lambda lines, at: [*lines[:at + 1], lines[at], *lines[at + 1:]],
    "blank-line": lambda lines, at: [*lines[:at], b"", *lines[at:]],
    "spaces-line": lambda lines, at: [*lines[:at], b"  ", *lines[at:]],
}


def _set_field(line, sep, at, value):
    fields = line.split(sep)
    fields[at % len(fields)] = value
    return sep.join(fields)


class TestDamagedLabelAndAuxFiles:
    """movies.dat, item,labels csv and aux csv contents with injected faults:
    `prepare` on the toy corpus ends in exit 0 or 2, with no traceback and no
    numpy warning."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        """The folder holding the toy corpus, and its label and aux files as
        name -> (lines, field separator)."""
        root = tmp_path_factory.mktemp("label-fuzz")
        ratings, movies = make_synthetic_interactions(m=40, n_source=20, n_target=150, seed=3)
        csv_ratings = ["user,item,rating,timestamp", *(r.replace("::", ",") for r in ratings)]
        labels = ["item,labels", *(f"{m.split('::')[0]},{m.split('::')[2]}" for m in movies)]
        aux = ["user,a,b", *(f"{u},{u / 7:.3f},{-u}" for u in range(1, 41))]
        files = {"ratings.dat": (ratings, b"::"), "ratings.csv": (csv_ratings, b","),
                 "movies.dat": (movies, b"::"), "labels.csv": (labels, b","),
                 "aux.csv": (aux, b",")}
        for name, (lines, _) in files.items():
            (root / name).write_text("\n".join(lines) + "\n")
        return root, {name: ([line.encode() for line in lines], sep)
                      for name, (lines, sep) in files.items()
                      if name in ("movies.dat", "labels.csv", "aux.csv")}

    @staticmethod
    def _prepare(root, damaged=None):
        """Exit code, stderr and warnings of `prepare` on the toy corpus, with
        `damaged` standing in for the file of that name."""
        path = {name: str(root / ("damaged" if name == damaged else name))
                for name in ("movies.dat", "labels.csv", "aux.csv")}
        if damaged == "movies.dat":
            inputs = ["--ratings", str(root / "ratings.dat"), "--items", path["movies.dat"],
                      "--format", "movielens-dat"]
        else:
            inputs = ["--ratings", str(root / "ratings.csv"), "--items", path["labels.csv"],
                      "--format", "csv", "--aux", path["aux.csv"], "--aux-dim", "2"]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["prepare", *inputs, "--source-labels", "Action",
                         "--target-labels", "Comedy,Drama", "--out", str(root / "out.xdb")])
        return code, err.getvalue(), [str(w.message) for w in caught]

    @given(draw=st.data())
    @settings(deadline=None)
    def test_prepare_ends_in_exit_zero_or_two(self, corpus, draw):
        root, files = corpus
        name = draw.draw(st.sampled_from(sorted(files)), label="file")
        lines, sep = files[name]
        for _ in range(draw.draw(st.integers(1, 3), label="faults")):
            fault = draw.draw(st.sampled_from(sorted(LINE_FAULTS) + sorted(FILE_FAULTS)),
                              label="fault")
            at = draw.draw(st.integers(0, len(lines) - 1), label="line")
            if fault in FILE_FAULTS:
                lines = FILE_FAULTS[fault](lines, at)
            else:
                column = draw.draw(st.integers(0, len(lines[at])), label="column")
                lines = [*lines[:at], LINE_FAULTS[fault](lines[at], sep, column),
                         *lines[at + 1:]]
        (root / "damaged").write_bytes(b"".join(line + b"\n" for line in lines))
        code, err, caught = self._prepare(root, damaged=name)
        event(f"{name} exit {code}")
        assert code in (0, 2), (name, lines, err)
        assert "Traceback" not in err
        assert not caught, caught

    @pytest.mark.parametrize("name", ["movies.dat", "labels.csv"])
    def test_undamaged_files_prepare(self, corpus, name):
        # the control: each input set prepares as written
        root, files = corpus
        (root / "damaged").write_bytes(b"".join(line + b"\n" for line in files[name][0]))
        assert self._prepare(root, damaged=name) == (0, "", [])
