"""Shared fixtures: toy bundles, parameter stores and a synthetic rating corpus
with planted cross-domain structure (shared user tastes drive both domains)."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from xdvae.data import DatasetBundle, DomainMatrix
from xdvae.model import ModelConfig
from xdvae.nn import DenseLayer, ParamStore, bind_layers


def make_toy_bundle(m=8, n_source=6, n_target=8, seed=123, min_target=3, aux_dim=None):
    """Small random bundle honouring the pipeline invariants."""
    rng = np.random.default_rng(seed)
    users = [f"u{i}" for i in range(m)]

    def rows_for(n_items, at_least):
        at_most = max(at_least, n_items // 2)
        rows = []
        for _ in range(m):
            size = rng.integers(at_least, at_most + 1)
            rows.append(np.sort(rng.choice(n_items, size=size, replace=False)))
        return rows

    bundle = DatasetBundle(
        source=make_matrix("source", users, [f"s{j}" for j in range(n_source)],
                           rows_for(n_source, 1)),
        target=make_matrix("target", users, [f"t{j}" for j in range(n_target)],
                           rows_for(n_target, min_target)),
    )
    if aux_dim:
        bundle.aux_vectors = rng.standard_normal((m, aux_dim))
    return bundle.validate()


def make_matrix(domain, users, items, rows, row_ts=None):
    """CSR DomainMatrix from one item list (and one timestamp list) per user."""
    def flat(lists):
        return np.array([x for r in lists for x in r], dtype=np.int64)

    indptr = np.cumsum([0, *map(len, rows)], dtype=np.int64)
    return DomainMatrix(domain, users, items, indptr, flat(rows),
                        None if row_ts is None else flat(row_ts))


def row_list(mat, values=None):
    """Per-user slices of mat.indices (or of values, e.g. mat.ts)."""
    return np.split(mat.indices if values is None else values, mat.indptr[1:-1])


def with_rows(mat, edits, row_ts=None):
    """Copy of mat with the rows of edits ({user position: items}) replaced."""
    rows = row_list(mat)
    for u, items in edits.items():
        rows[u] = items
    return make_matrix(mat.domain, mat.user_index, mat.item_index, rows, row_ts)


def make_store(**arrays):
    """ParamStore holding copies of the given arrays, in argument order."""
    shapes = [(name, np.shape(a)) for name, a in arrays.items()]
    return ParamStore(shapes, np.concatenate([np.ravel(a) for a in arrays.values()], dtype=float))


def make_layer(w, b, activation):
    """DenseLayer bound to stores of its own, holding copies of w and b."""
    w = np.asarray(w, dtype=float)
    layer = DenseLayer(w.shape[1], w.shape[0], activation)
    bind_layers([("layer", layer)])
    layer.w[...], layer.b[...] = w, b
    return layer


def finite_diff_check(loss_fn, params, grads, h=1e-5):
    """Max relative error between analytic grads and central differences.

    loss_fn() must re-run the forward pass from the current parameter values
    with all sampling noise frozen; params are perturbed in place and restored.
    """
    worst = 0.0
    for name, p in params.items():
        g = grads[name]
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            f_plus = loss_fn()
            flat_p[idx] = orig - h
            f_minus = loss_fn()
            flat_p[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = flat_g[idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def rewrite_header(src, dst, edit):
    """Copy an XDB1 bundle or XDV1 checkpoint after edit() changed its JSON header in place."""
    raw = src.read_bytes()
    (head_len,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + head_len])
    edit(header)
    head = json.dumps(header).encode()
    dst.write_bytes(raw[:4] + struct.pack("<I", len(head)) + head + raw[8 + head_len:])


def make_toy_config(variant="generic", **overrides):
    base = dict(
        variant=variant,
        beta=1.5,
        lambda_reg=1e-3,
        lr=1e-3,
        batch_size=4,
        epochs=0,
        latent_dim=3,
        enc_dims_source=(5,),
        enc_dims_target=(5,),
        seed=11,
    )
    if variant == "aux":
        base.update(aux_dim=4, aux_encoder_dims=(3,))
    base.update(overrides)
    return ModelConfig(**base).validate()


def make_synthetic_interactions(m=140, n_source=50, n_target=170, seed=7,
                                taste_dim=4, source_density=2.2, target_density=1.2):
    """Planted-model interactions: one latent taste drives both domains.

    Returns (ratings_lines, movies_lines) in movielens-dat format, including
    a few dual-genre and off-genre items the pipeline must drop.
    """
    rng = np.random.default_rng(seed)
    taste = rng.standard_normal((m, taste_dim))
    vec_s = rng.standard_normal((n_source, taste_dim))
    vec_t = rng.standard_normal((n_target, taste_dim))

    def positives(vecs, density, rate):
        logits = taste @ vecs.T * density / np.sqrt(taste_dim)
        probs = 1.0 / (1.0 + np.exp(-logits))
        return rng.random(probs.shape) < probs * rate

    pos_s = positives(vec_s, source_density, rate=0.8)
    pos_t = positives(vec_t, target_density, rate=0.25)
    # patch rows so every user survives filtering (>=1 source, >=3 target)
    for u in range(m):
        if pos_s[u].sum() < 1:
            pos_s[u, np.argmax(taste[u] @ vec_s.T)] = True
        while pos_t[u].sum() < 3:
            scores = taste[u] @ vec_t.T
            scores[pos_t[u]] = -np.inf
            pos_t[u, np.argmax(scores)] = True

    ratings = []
    ts = 1_000_000
    for u in range(m):
        for j in range(n_source):
            if pos_s[u, j]:
                ratings.append(f"{u + 1}::s{j}::{rng.integers(4, 6)}::{ts}")
            elif rng.random() < 0.05:
                ratings.append(f"{u + 1}::s{j}::{rng.integers(1, 4)}::{ts}")
            ts += 1
        for j in range(n_target):
            if pos_t[u, j]:
                ratings.append(f"{u + 1}::t{j}::{rng.integers(4, 6)}::{ts}")
            elif rng.random() < 0.05:
                ratings.append(f"{u + 1}::t{j}::{rng.integers(1, 4)}::{ts}")
            ts += 1
    # items the domain split must discard
    ratings.append("1::both0::5::999")
    ratings.append("2::none0::5::999")

    movies = [f"s{j}::Source Movie {j} (1999)::Action" for j in range(n_source)]
    movies += [
        f"t{j}::Target Movie {j} (2001)::{'Comedy' if j % 2 else 'Drama'}"
        for j in range(n_target)
    ]
    movies.append("both0::Dual Genre (2000)::Action|Comedy")
    movies.append("none0::Off Genre (2000)::Thriller")
    return ratings, movies


@pytest.fixture(scope="session")
def synthetic_corpus(tmp_path_factory):
    """ratings.dat / movies.dat pair for the planted synthetic dataset."""
    root = tmp_path_factory.mktemp("corpus")
    ratings, movies = make_synthetic_interactions()
    ratings_path = root / "ratings.dat"
    movies_path = root / "movies.dat"
    ratings_path.write_text("\n".join(ratings) + "\n")
    movies_path.write_text("\n".join(movies) + "\n")
    return {"ratings": str(ratings_path), "movies": str(movies_path)}


@pytest.fixture()
def toy_bundle():
    return make_toy_bundle()


@pytest.fixture(scope="session")
def synthetic_bundle(synthetic_corpus):
    from xdvae import data

    interactions = data.load_ratings(synthetic_corpus["ratings"], "movielens-dat")
    labels = data.load_item_labels(synthetic_corpus["movies"], "movielens-dat")
    source, target = data.split_domains(
        interactions, labels, {"Action"}, {"Comedy", "Drama"}
    )
    return data.binarize_and_filter(source, target)
