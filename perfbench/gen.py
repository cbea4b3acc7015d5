"""Seeded synthetic corpora for the benchmark workloads.

Every corpus is built around a planted-taste core: one low-dimensional taste
vector per user drives positives in both domains, so cross-domain transfer is
learnable and HR@10 after one epoch sits well above the random 0.10. The core
has exact per-domain row totals and covers every in-domain item, so
``xdvae prepare`` reduces the log to declared counts. Around the core the raw
log carries what ingestion must throw away: low ratings, dual-label and
off-label items, and users that fail the shared-domain filter.

Row sizes, line counts and user ids come from a stream that is the same for
every seed, so every seed gives each stage the same amount of work; the seed
draws the content. The same seed always writes byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Core bundle counts plus the raw log around them."""

    m: int                  # users surviving prepare
    n_source: int
    n_target: int
    inter_source: int       # positives in the bundle
    inter_target: int
    users: int              # users in the raw log
    items: int              # items in the raw label file
    id_space: int           # item ids are drawn from 1..id_space
    lines: int              # approximate raw log length
    n_dual: int             # items labelled with both domains
    core_extra: int         # mean discardable lines per surviving user
    source_sigma: float     # lognormal spread of row sizes
    target_sigma: float

    def counts(self):
        return dict(m=self.m, n_source=self.n_source, n_target=self.n_target,
                    inter_source=self.inter_source, inter_target=self.inter_target)


# ML-1M as the paper processes it (Table 2; Action -> Comedy/Drama/Fantasy/Romance).
# The acceptance test's sparsity_source of 52.26% contradicts these counts:
# 52,158 / (1348 * 300) leaves 87.10% of source cells empty. The counts win.
ML1M = Shape(m=1348, n_source=300, n_target=2262, inter_source=52_158,
             inter_target=150_615, users=6040, items=3706, id_space=3952,
             lines=1_000_000, n_dual=400, core_extra=120,
             source_sigma=0.6, target_sigma=0.7)
ML1M_LABELS = ("Action", "Comedy,Drama,Fantasy,Romance")

# Amazon-style catalog: larger and sparser than ML-1M.
AMAZON = Shape(m=1000, n_source=800, n_target=5000, inter_source=12_000,
               inter_target=20_000, users=1300, items=6300, id_space=1 << 34,
               lines=75_000, n_dual=200, core_extra=20,
               source_sigma=0.7, target_sigma=0.8)
AMAZON_LABELS = ("Books", "Movies_TV")

_TS_RANGE = (956_703_932, 1_046_454_590)
# Star distribution of unconstrained ratings (ML-1M shares, 1..5 stars).
_STARS = np.array([0.056, 0.108, 0.261, 0.349, 0.226])


@dataclass
class Corpus:
    ratings: str
    items: str
    format: str
    source_labels: str
    target_labels: str
    expected: dict          # bundle counts prepare must reproduce


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _shape_rng():
    """The same stream for every seed: row sizes, line counts and user ids.

    Fixing them makes the work of every stage independent of the seed; with
    the CLI's own seed fixed too, the cold-start test users hold the same
    number of interactions in every corpus. The seed varies the content:
    tastes, which items each user rates, ratings and timestamps.
    """
    return np.random.default_rng([0, 99])


def _row_sizes(rng, m, total, lo, hi, sigma):
    """m lognormal row sizes in [lo, hi] summing exactly to total."""
    w = rng.lognormal(0.0, sigma, m)
    k = np.clip(lo + np.floor(w / w.sum() * (total - lo * m)), lo, hi).astype(np.int64)
    while (diff := total - int(k.sum())) != 0:
        room = np.flatnonzero(k < hi) if diff > 0 else np.flatnonzero(k > lo)
        pick = rng.choice(room, size=min(abs(diff), room.size), replace=False)
        k[pick] += 1 if diff > 0 else -1
    return k


def _planted_rows(rng, taste, n_items, sizes, min_cover_size):
    """Boolean (m, n_items) positives with exact row sizes and full column cover.

    Rows are Gumbel-top-k draws from taste-item affinities plus an item
    popularity bias; each item is first forced into one row whose size is at
    least min_cover_size, picked in proportion to row size, so no item drops
    out of the index.
    """
    m, d = taste.shape
    vecs = rng.standard_normal((n_items, d))
    popularity = rng.normal(0.0, 0.7, n_items)
    keys = 2.5 * (taste @ vecs.T) / np.sqrt(d) + popularity
    keys += rng.gumbel(size=keys.shape)
    big = np.flatnonzero(sizes >= min_cover_size)
    owner = rng.choice(big, size=n_items, p=sizes[big] / sizes[big].sum())
    if np.any(np.bincount(owner, minlength=m) > sizes):
        raise RuntimeError("forced item cover exceeds a row size")
    keys[owner, np.arange(n_items)] = np.inf
    kmax = int(sizes.max())
    top = np.argpartition(-keys, kmax - 1, axis=1)[:, :kmax]
    top = np.take_along_axis(top, np.argsort(-np.take_along_axis(keys, top, 1), axis=1), 1)
    take = np.arange(kmax)[None, :] < sizes[:, None]
    pos = np.zeros((m, n_items), dtype=bool)
    pos[np.broadcast_to(np.arange(m)[:, None], take.shape)[take], top[take]] = True
    return pos


def _log(seed, shape):
    """Rating log as (user slot, item slot, stars, timestamp) arrays.

    User slots below m are the surviving users. Item slots are laid out as
    source items, target items, dual-label items, then off-label items.
    Returns the arrays plus slot -> id codes for users and items.
    """
    srng = _shape_rng()
    crng = _rng(seed, 1)
    m, n_s, n_t = shape.m, shape.n_source, shape.n_target
    k_s = _row_sizes(srng, m, shape.inter_source, 1, n_s, shape.source_sigma)
    k_t = _row_sizes(srng, m, shape.inter_target, 2, n_t, shape.target_sigma)
    user_code = srng.permutation(shape.users)
    taste = crng.standard_normal((m, 8))
    pos_s = _planted_rows(crng, taste, n_s, k_s, min_cover_size=8)
    pos_t = _planted_rows(crng, taste, n_t, k_t, min_cover_size=20)
    item_code = crng.choice(shape.id_space, size=shape.items, replace=False)
    us, is_ = np.nonzero(pos_s)
    ut, it = np.nonzero(pos_t)
    cols = [[np.concatenate([us, ut])], [np.concatenate([is_, n_s + it])]]
    cols.append([crng.integers(4, 6, cols[0][0].size)])
    _add_noise(srng, _rng(seed, 2), shape, pos_s, pos_t, *cols)
    u, i, r = (np.concatenate(c) for c in cols)
    # core timestamps come first from the core stream, so noise cannot move them
    t = np.concatenate([crng.integers(*_TS_RANGE, size=cols[0][0].size),
                        _rng(seed, 3).integers(*_TS_RANGE, size=u.size - cols[0][0].size)])
    return u, i, r, t, user_code, item_code


def _add_noise(srng, rng, shape, pos_s, pos_t, users, items, stars):
    """Append the lines prepare must discard to the column lists.

    Line counts per user come from the shape stream srng, contents from rng.
    """
    m, n_s = shape.m, shape.n_source
    in_domain = n_s + shape.n_target
    extra = srng.poisson(shape.core_extra, m)
    spare = shape.lines - shape.inter_source - shape.inter_target - shape.core_extra * m
    n_other = shape.users - m
    mean = max(1.0, spare / max(1, n_other))
    other = np.maximum(1, srng.lognormal(np.log(mean) - 0.32, 0.8, n_other)).astype(np.int64)
    off_items = np.arange(in_domain, shape.items)
    all_items = np.arange(shape.items)

    def add(user, its, st):
        users.append(np.full(its.size, user, dtype=np.int64))
        items.append(its.astype(np.int64))
        stars.append(np.asarray(st, dtype=np.int64))

    for u in range(m):
        # low ratings on unrated in-domain items, any rating off-domain
        rated = np.concatenate([np.flatnonzero(pos_s[u]), n_s + np.flatnonzero(pos_t[u])])
        free = np.setdiff1d(np.arange(in_domain), rated, assume_unique=True)
        low = rng.choice(free, size=min(extra[u] // 2, free.size), replace=False)
        add(u, low, rng.integers(1, 4, low.size))
        off = rng.choice(off_items, size=min(extra[u] - low.size, off_items.size), replace=False)
        add(u, off, _stars(rng, off.size))
    for k, count in enumerate(other):
        # fails the shared-domain filter: no source positive, or no target positive
        its = rng.choice(all_items, size=min(int(count), all_items.size), replace=False)
        st = _stars(rng, its.size)
        capped = its < n_s if k % 2 == 0 else (its >= n_s) & (its < in_domain)
        st[capped] = np.minimum(st[capped], 3)
        add(m + k, its, st)


def _stars(rng, n):
    return rng.choice(5, size=n, p=_STARS) + 1


def _labels(shape, source, target, dual, off, seed):
    """Label strings per item slot: source, target, dual-label, then off-label items."""
    crng = _rng(seed, 4)
    n_in = shape.n_source + shape.n_target
    out = np.concatenate([
        np.asarray(source)[crng.integers(len(source), size=shape.n_source)],
        np.asarray(target)[crng.integers(len(target), size=shape.n_target)],
    ]).astype(object)
    nrng = _rng(seed, 5)
    rest = np.concatenate([
        np.asarray(dual)[nrng.integers(len(dual), size=shape.n_dual)],
        np.asarray(off)[nrng.integers(len(off), size=shape.items - n_in - shape.n_dual)],
    ]).astype(object)
    return np.concatenate([out, rest])


def _write_lines(path, header, fmt, columns):
    body = "\n".join([fmt % row for row in zip(*(c.tolist() for c in columns))])
    with open(path, "w", encoding="latin-1", newline="\n") as fh:
        if header:
            fh.write(header + "\n")
        fh.write(body)
        fh.write("\n")


def ml1m_corpus(seed, out_dir):
    """ML-1M-shaped ``ratings.dat`` + ``movies.dat`` reducing to the Table 2 counts.

    The log has about 1.0 M lines over 6,040 users and 3,706 items, 400 of
    them dual-genre and 744 off-genre.
    """
    shape = ML1M
    u, i, r, t, user_code, item_code = _log(seed, shape)
    order = np.lexsort((_rng(seed, 6).random(u.size), user_code[u]))
    os.makedirs(out_dir, exist_ok=True)
    ratings = os.path.join(out_dir, "ratings.dat")
    movies = os.path.join(out_dir, "movies.dat")
    _write_lines(ratings, None, "%d::%d::%d::%d",
                 (1 + user_code[u][order], 1 + item_code[i][order], r[order], t[order]))
    labels = _labels(
        shape, seed=seed,
        source=("Action", "Action|Thriller", "Action|Sci-Fi", "Action|Adventure",
                "Action|War", "Action|Crime", "Action|Western"),
        target=("Comedy", "Drama", "Fantasy", "Romance", "Comedy|Drama",
                "Comedy|Romance", "Drama|Romance", "Comedy|Fantasy", "Drama|Musical",
                "Children's|Comedy", "Romance|Thriller", "Animation|Comedy",
                "Drama|Mystery"),
        dual=("Action|Comedy", "Action|Drama", "Action|Romance", "Action|Fantasy"),
        off=("Horror", "Documentary", "Thriller", "Sci-Fi", "War", "Mystery|Thriller",
             "Film-Noir", "Crime|Horror", "Western", "Musical", "Animation|Children's"),
    )
    with open(movies, "w", encoding="latin-1", newline="\n") as fh:
        for k in np.argsort(item_code, kind="stable"):
            code = 1 + item_code[k]
            fh.write(f"{code}::Movie {code} ({1919 + code % 82})::{labels[k]}\n")
    return Corpus(ratings, movies, "movielens-dat", *ML1M_LABELS, shape.counts())


def amazon_corpus(seed, out_dir):
    """Amazon-style ``ratings.csv`` (user,item,rating,timestamp) + ``items.csv``.

    User and product ids are opaque strings; about one timestamp in ten
    is left empty, as the csv format allows.
    """
    shape = AMAZON
    u, i, r, t, user_code, item_code = _log(seed, shape)
    order = _rng(seed, 6).permutation(u.size)
    ts = t[order].astype(str)
    ts[_rng(seed, 7).random(ts.size) < 0.1] = ""
    user_ids = np.array([f"A{x:09X}" for x in user_code.tolist()])
    item_ids = np.array([f"B{x:09X}" for x in item_code.tolist()])
    os.makedirs(out_dir, exist_ok=True)
    ratings = os.path.join(out_dir, "ratings.csv")
    items = os.path.join(out_dir, "items.csv")
    _write_lines(ratings, "user,item,rating,timestamp", "%s,%s,%d,%s",
                 (user_ids[u][order], item_ids[i][order], r[order], ts))
    labels = _labels(
        shape, seed=seed,
        source=("Books", "Books|Fiction", "Books|Kindle"),
        target=("Movies_TV", "Movies_TV|Drama", "Movies_TV|Kids"),
        dual=("Books|Movies_TV",),
        off=("Music", "Toys", "Electronics|Music", "Grocery"),
    )
    _write_lines(items, "item,labels", "%s,%s", (item_ids, labels))
    return Corpus(ratings, items, "csv", *AMAZON_LABELS, shape.counts())
