"""Rating ingestion, domain splitting, filtering and evaluation splits.

The pipeline turns raw rating logs into a pair of binary user-item matrices
with a shared user index (source domain dense, target domain sparse), then
derives the leave-one-out, cold-start and degradation splits used by the
evaluation protocols. Everything is seeded explicitly and deterministic.
"""

from __future__ import annotations

import json
import struct
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .nn import named_rng

BUNDLE_MAGIC = b"XDB1"
BUNDLE_VERSION = 1
# Log lines parsed per bulk step. It bounds the per-line token list; larger
# chunks parsed no faster and raised the parse's peak RSS.
CHUNK = 1 << 12


class DataError(ValueError):
    """Malformed input data or an impossible pipeline request."""


@dataclass
class Ratings:
    """A rating log as columns in input order; ids are codes into sorted id lists."""

    users: list              # distinct user ids, sorted as strings
    items: list              # distinct item ids, sorted as strings
    user: np.ndarray         # int64 codes into users
    item: np.ndarray         # int64 codes into items
    rating: np.ndarray       # int64
    ts: np.ndarray           # int64, -1 where the line has no timestamp
    has_ts: np.ndarray       # bool: a literal -1 timestamp is still a timestamp

    def select(self, mask):
        """The same log reduced to the lines where mask holds."""
        return replace(self, user=self.user[mask], item=self.item[mask],
                       rating=self.rating[mask], ts=self.ts[mask], has_ts=self.has_ts[mask])


@dataclass
class DomainMatrix:
    """Binary interactions for one domain; rows are sorted positive item indices."""

    domain: str                      # "source" or "target"
    user_index: list                 # shared across the paired matrices
    item_index: list
    rows: list                       # per user: int64 array of item positions
    row_ts: list | None = None       # optional timestamps aligned with rows

    @property
    def n_items(self):
        return len(self.item_index)

    @property
    def n_interactions(self):
        return int(sum(len(r) for r in self.rows))

    def sparsity(self):
        """Fraction of empty cells, 1 - interactions / (m * n)."""
        cells = len(self.user_index) * self.n_items
        return 1.0 - self.n_interactions / cells if cells else 1.0

    def to_dense(self, user_positions=None, rows=None):
        """Dense float64 matrix for the given user positions (default: all)."""
        rows = self.rows if rows is None else rows
        if user_positions is None:
            user_positions = range(len(rows))
        out = np.zeros((len(user_positions), self.n_items))
        for k, u in enumerate(user_positions):
            out[k, rows[u]] = 1.0
        return out


@dataclass
class DatasetBundle:
    source: DomainMatrix
    target: DomainMatrix
    aux_vectors: np.ndarray | None = None   # (m, d_aux) when present
    provenance: dict = field(default_factory=dict)

    @property
    def m(self):
        return len(self.source.user_index)

    def validate(self):
        if self.source.user_index != self.target.user_index:
            raise DataError("source/target user indices differ")
        for mat in (self.source, self.target):
            for u, row in enumerate(mat.rows):
                if len(row) == 0 and mat.domain == "source":
                    raise DataError(f"user {mat.user_index[u]!r} has empty {mat.domain} row")
        if self.aux_vectors is not None and self.aux_vectors.shape[0] != self.m:
            raise DataError("aux_vectors row count != m")
        return self


@dataclass
class LeaveOneOutSplit:
    """Per user: one held-out target positive plus 99 frozen negatives."""

    held_out: np.ndarray     # (m,) item positions
    negatives: np.ndarray    # (m, 99)
    seed: int
    policy: str = "random"


@dataclass
class ColdStartSplit:
    train_users: np.ndarray
    test_users: np.ndarray
    fraction: float
    seed: int


def load_ratings(path, format="movielens-dat"):
    """Parse a rating log into columnar Ratings, preserving input order.

    movielens-dat lines look like ``user::item::rating::timestamp``; csv files
    carry a ``user,item,rating,timestamp`` header and may leave the timestamp
    empty. Lines are parsed CHUNK at a time into arrays; only a chunk that
    fails is scanned line by line, for the first bad line's message.
    """
    if format not in ("movielens-dat", "csv"):
        raise DataError(f"unknown ratings format {format!r}")
    with open(path, "r", encoding="latin-1") as fh:
        lines = fh.read().splitlines()
    start = 0
    if format == "csv":
        if not lines:
            raise DataError(f"{path}: no interactions")
        header = [c.strip().lower() for c in lines[0].split(",")]
        if header[:3] != ["user", "item", "rating"]:
            raise DataError(f"{path}: expected 'user,item,rating,timestamp' header")
        start = 1
    sep = "::" if format == "movielens-dat" else ","
    # provisional codes in first-seen order: a new id gets the count of ids before it
    user_ids, item_ids = defaultdict(), defaultdict()
    user_ids.default_factory, item_ids.default_factory = user_ids.__len__, item_ids.__len__
    chunks = []
    for at in range(start, len(lines), CHUNK):
        chunk = lines[at:at + CHUNK]
        try:
            chunks.append(_parse_chunk(chunk, sep, user_ids, item_ids))
        except (ValueError, OverflowError):
            raise _first_bad_line(path, chunk, at + 1, sep) from None
    if not sum(len(c[0]) for c in chunks):
        raise DataError(f"{path}: no interactions")
    user, item, rating, ts, has_ts = map(np.concatenate, zip(*chunks))
    users, user = _in_string_order(user_ids, user)
    items, item = _in_string_order(item_ids, item)
    return Ratings(users, items, user, item, rating, ts, has_ts)


def _parse_chunk(chunk, sep, user_ids, item_ids):
    """Columns (user, item, rating, ts, has_ts); ValueError or OverflowError if a line is bad."""
    fields = np.fromiter(map(str.count, chunk, repeat(sep)), np.int64, len(chunk)) + 1
    # a line without a separator is blank (skipped) or malformed
    blank = np.flatnonzero(fields == 1)
    if not np.isin(fields, (1, 3, 4)).all() or any(chunk[k].strip() for k in blank):
        raise ValueError("malformed line")
    lines = np.array(chunk, dtype=object)[fields > 1]
    lines[fields[fields > 1] == 3] += sep  # empty timestamp field
    # splitlines leaves no "\n" inside a line, so no separator can span two lines
    # (joining on a "::" separator would misread a line that ends in ":")
    tokens = "\n".join(lines.tolist()).replace(sep, "\n").split("\n")
    n = len(lines)
    rating = np.fromiter(map(int, tokens[2::4]), np.int64, n)
    if ((rating < 1) | (rating > 5)).any():
        raise ValueError("rating outside 1..5")
    ts_text = list(map(str.strip, tokens[3::4]))
    has_ts = np.fromiter(map(bool, ts_text), bool, n)
    ts = np.fromiter((int(t) if t else -1 for t in ts_text), np.int64, n)
    user = np.fromiter(map(user_ids.__getitem__, map(str.strip, tokens[0::4])), np.int64, n)
    item = np.fromiter(map(item_ids.__getitem__, map(str.strip, tokens[1::4])), np.int64, n)
    return user, item, rating, ts, has_ts


def _first_bad_line(path, chunk, first, sep):
    """DataError for the first bad line of a chunk whose bulk parse failed."""
    for n, line in enumerate(chunk, start=first):
        if not line.strip():
            continue
        parts = line.split(sep)
        if len(parts) not in (3, 4):
            return DataError(f"{path}:{n}: malformed line {line!r}")
        try:
            rating = int(parts[2].strip())
        except ValueError:
            return DataError(f"{path}:{n}: bad rating {parts[2]!r}")
        if rating < 1 or rating > 5:
            return DataError(f"{path}:{n}: rating {rating} outside 1..5")
        if len(parts) == 4 and parts[3].strip():
            try:
                np.int64(int(parts[3].strip()))
            except (ValueError, OverflowError):
                return DataError(f"{path}:{n}: bad timestamp {parts[3]!r}")
    raise AssertionError("chunk failed but no line is bad")


def _in_string_order(ids, codes):
    """Ids sorted as strings, and first-seen codes renumbered to match."""
    names = sorted(ids)
    # argsort inverts the permutation sorted position -> first-seen code
    return names, np.argsort([ids[x] for x in names])[codes]


def load_item_labels(path, format="movielens-dat"):
    """Item -> label set map from movies.dat (``id::title::g1|g2``) or ``item,labels`` csv."""
    labels = {}
    with open(path, "r", encoding="latin-1") as fh:
        lines = fh.read().splitlines()
    start = 0
    sep, width = ("::", 3) if format == "movielens-dat" else (",", 2)
    if format == "csv" and lines and lines[0].split(",")[0].strip().lower() == "item":
        start = 1
    for n, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split(sep)
        if len(parts) != width:
            raise DataError(f"{path}:{n}: malformed line {line!r}")
        item, genre_field = parts[0].strip(), parts[-1]
        labels[item] = {g.strip() for g in genre_field.split("|") if g.strip()}
    if not labels:
        raise DataError(f"{path}: no items")
    return labels


def split_domains(ratings, item_labels, source_labels, target_labels):
    """Route ratings to (source, target) Ratings by item label.

    An item belongs to the source domain iff its labels touch source_labels
    and not target_labels, and vice versa; items touching both or neither are
    dropped together with their interactions.
    """
    source_labels = set(source_labels)
    target_labels = set(target_labels)
    unknown = [item for item in ratings.items if item not in item_labels]
    if unknown:
        shown = ", ".join(unknown[:10])
        more = f" (+{len(unknown) - 10} more)" if len(unknown) > 10 else ""
        raise DataError(f"items without a label entry: {shown}{more}")
    in_s = np.array([bool(item_labels[x] & source_labels) for x in ratings.items], dtype=bool)
    in_t = np.array([bool(item_labels[x] & target_labels) for x in ratings.items], dtype=bool)
    return (ratings.select((in_s & ~in_t)[ratings.item]),
            ratings.select((in_t & ~in_s)[ratings.item]))


def binarize_and_filter(source, target, threshold=4, min_target_positives=2):
    """Build the shared-user DatasetBundle of binary positives.

    source and target are split_domains' halves of one log. Ratings >= threshold
    become positives; a repeated positive keeps its last line's timestamp. A
    user survives only with at least one source positive and
    min_target_positives target positives (so one target item can be held out
    while the training row stays nonempty). Items without any surviving
    positive are dropped from the index.
    """
    if not source.user.size or not target.user.size:
        raise DataError("empty source or target interaction list")
    n_users, n_items = len(source.users), len(source.items)

    def positives(ratings):
        """Ascending packed keys user * n_items + item, with each pair's last ts."""
        at = np.flatnonzero(ratings.rating >= threshold)[::-1]  # last line first
        keys, first = np.unique(ratings.user[at] * n_items + ratings.item[at], return_index=True)
        return keys, ratings.ts[at[first]], ratings.has_ts[at[first]]

    pos_s, pos_t = positives(source), positives(target)
    count_s, count_t = (np.bincount(p[0] // n_items, minlength=n_users) for p in (pos_s, pos_t))
    # a user needs a target positive even when min_target_positives < 1
    kept = (count_s >= 1) & (count_t >= max(min_target_positives, 1))
    if not kept.any():
        raise DataError("no users survive the shared-domain filter")
    users = [source.users[u] for u in np.flatnonzero(kept)]

    def build(domain, keys, ts, has_ts):
        on = kept[keys // n_items]
        codes, rows = np.unique(keys[on] % n_items, return_inverse=True)
        bounds = np.cumsum(np.bincount(keys[on] // n_items, minlength=n_users)[kept])[:-1]
        row_ts = np.split(ts[on], bounds) if has_ts[on].any() else None
        items = [source.items[c] for c in codes]
        return DomainMatrix(domain, users, items, np.split(rows, bounds), row_ts)

    provenance = {"threshold": threshold, "min_target_positives": min_target_positives}
    return DatasetBundle(build("source", *pos_s), build("target", *pos_t),
                         provenance=provenance).validate()


def sample_negatives(positives, n_items, k, rng, size=None):
    """k distinct items drawn uniformly from those the user never interacted with;
    size=n gives an (n, k) stack of n draws from one pool, as n sequential calls."""
    outside = np.ones(n_items, dtype=bool)
    outside[np.asarray(positives, dtype=np.int64)] = False
    pool = np.flatnonzero(outside)
    if len(pool) < k:
        raise DataError(
            f"cannot sample {k} negatives from {len(pool)} non-interacted items"
        )
    out = np.empty((1 if size is None else size, k), dtype=np.int64)
    if k:
        for draw in out:
            draw[:] = rng.choice(pool, size=k, replace=False)
    return out[0] if size is None else out


def build_loo_split(bundle, seed, policy="random", n_negatives=99):
    """Hold one target positive per user out and freeze 99 negatives.

    policy "random" picks uniformly; "latest" picks the max-timestamp positive.
    training_bundle(bundle, split) gives the rows to train on.
    """
    if policy not in ("random", "latest"):
        raise DataError(f"unknown hold-out policy {policy!r}")
    rng = named_rng(seed, "loo-split")
    m = bundle.m
    target = bundle.target
    held = np.empty(m, dtype=np.int64)
    negatives = np.empty((m, n_negatives), dtype=np.int64)
    for u in range(m):
        row = target.rows[u]
        if len(row) < 2:
            raise DataError(
                f"user {target.user_index[u]!r} has {len(row)} target positives, need >= 2"
            )
        if policy == "latest":
            if target.row_ts is None:
                raise DataError("policy 'latest' requires timestamps")
            pick = int(np.argmax(target.row_ts[u]))
        else:
            pick = int(rng.integers(len(row)))
        held[u] = row[pick]
        negatives[u] = np.sort(sample_negatives(row, target.n_items, n_negatives, rng))
    return LeaveOneOutSplit(held, negatives, seed=seed, policy=policy)


def training_bundle(bundle, split):
    """Training view of a full bundle: target rows minus the held-out items."""
    target = bundle.target
    rows, row_ts = [], []
    # rows rise strictly, so != drops exactly the held-out entry
    for u in range(bundle.m):
        keep = target.rows[u] != split.held_out[u]
        rows.append(target.rows[u][keep])
        if target.row_ts is not None:
            row_ts.append(target.row_ts[u][keep])
    return DatasetBundle(
        source=bundle.source,
        target=DomainMatrix(
            "target", target.user_index, target.item_index, rows,
            row_ts if target.row_ts is not None else None,
        ),
        aux_vectors=bundle.aux_vectors,
        provenance=dict(bundle.provenance, loo_seed=split.seed, loo_policy=split.policy),
    )


def restrict_users(bundle, user_positions):
    """Bundle over a subset of users (keeps item indices unchanged)."""
    user_positions = np.asarray(user_positions, dtype=np.int64)
    users = [bundle.source.user_index[u] for u in user_positions]

    def cut(mat):
        return DomainMatrix(
            mat.domain,
            users,
            mat.item_index,
            [mat.rows[u] for u in user_positions],
            [mat.row_ts[u] for u in user_positions] if mat.row_ts is not None else None,
        )

    aux = bundle.aux_vectors[user_positions] if bundle.aux_vectors is not None else None
    return DatasetBundle(cut(bundle.source), cut(bundle.target), aux, dict(bundle.provenance))


def cold_start_split(bundle, fraction=0.1, seed=0):
    """Uniform user partition into train/test; test gets round(fraction * m) users."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must be in (0, 1), got {fraction}")
    m = bundle.m
    n_test = int(fraction * m + 0.5)
    perm = named_rng(seed, "cold-split").permutation(m)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    return ColdStartSplit(train, test, fraction, seed)


def degrade_target_rows(rows, fraction_kept, seed):
    """Keep ceil(fraction_kept * len) uniformly chosen positives per row."""
    if not 0.0 <= fraction_kept <= 1.0:
        raise DataError(f"fraction_kept must be in [0, 1], got {fraction_kept}")
    if fraction_kept == 1.0:
        return [row.copy() for row in rows]
    rng = named_rng(seed, f"degrade-{fraction_kept}")
    out = []
    for row in rows:
        keep = int(np.ceil(fraction_kept * len(row)))
        if keep == 0:
            out.append(np.empty(0, dtype=np.int64))
        else:
            out.append(np.sort(rng.choice(row, size=keep, replace=False)))
    return out


def load_aux_vectors(path, expected_dim=256):
    """Dense per-user auxiliary vectors from csv rows ``user,v1,...,vd``."""
    vectors = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 1 if lines and lines[0].split(",")[0].strip().lower() == "user" else 0
    for n, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        user = parts[0].strip()
        values = parts[1:]
        if len(values) != expected_dim:
            raise DataError(
                f"{path}:{n}: expected {expected_dim} values, got {len(values)}"
            )
        vec = np.array([float(v) for v in values])
        if not np.all(np.isfinite(vec)):
            raise DataError(f"{path}:{n}: non-finite auxiliary value")
        vectors[user] = vec
    if not vectors:
        raise DataError(f"{path}: no auxiliary vectors")
    return vectors


def attach_aux(bundle, vectors, expected_dim=None):
    """Align user -> vector map with the bundle; absent users get zero vectors."""
    dim = expected_dim or len(next(iter(vectors.values())))
    out = np.zeros((bundle.m, dim))
    missing = []
    for u, user in enumerate(bundle.source.user_index):
        if user in vectors:
            vec = vectors[user]
            if len(vec) != dim:
                raise DataError(f"aux vector for user {user!r} has dim {len(vec)} != {dim}")
            out[u] = vec
        else:
            missing.append(user)
    bundle.aux_vectors = out
    bundle.provenance["aux_dim"] = dim
    bundle.provenance["aux_missing_users"] = len(missing)
    return bundle


# ---------------------------------------------------------------------------
# Bundle persistence: XDB1 = magic, u32 header length, canonical-JSON header,
# then the declared little-endian binary blobs back to back. Writing the same
# bundle twice yields byte-identical files.


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _pack_rows(rows):
    lengths = [len(r) for r in rows]
    flat = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    return lengths, flat.astype("<i8")


def save_bundle(bundle, path, split=None):
    """Serialize a bundle (and optionally its leave-one-out split) to one file."""
    blobs = []
    header = {
        "version": BUNDLE_VERSION,
        "m": bundle.m,
        "user_index": list(bundle.source.user_index),
        "provenance": bundle.provenance,
        "domains": {},
        "split": None,
        "aux_dim": None,
        "blobs": [],
    }

    def add_blob(name, arr, dtype):
        arr = np.ascontiguousarray(arr, dtype=dtype)
        header["blobs"].append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())

    for mat in (bundle.source, bundle.target):
        lengths, flat = _pack_rows(mat.rows)
        header["domains"][mat.domain] = {
            "item_index": list(mat.item_index),
            "row_lengths": lengths,
            "has_ts": mat.row_ts is not None,
        }
        add_blob(f"{mat.domain}.rows", flat, "<i8")
        if mat.row_ts is not None:
            _, flat_ts = _pack_rows(mat.row_ts)
            add_blob(f"{mat.domain}.ts", flat_ts, "<i8")
    if split is not None:
        header["split"] = {
            "seed": split.seed,
            "policy": split.policy,
            "n_negatives": int(split.negatives.shape[1]),
        }
        add_blob("split.held_out", split.held_out, "<i8")
        add_blob("split.negatives", split.negatives, "<i8")
    if bundle.aux_vectors is not None:
        header["aux_dim"] = int(bundle.aux_vectors.shape[1])
        add_blob("aux", bundle.aux_vectors, "<f4")

    head = _canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(BUNDLE_MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        for blob in blobs:
            fh.write(blob)


def _check_rows(path, domain, flat, lengths, m, n_items):
    """Reject packed rows that break the DomainMatrix invariants.

    Every row must hold item indices in [0, n_items), strictly increasing.
    The checks run on the whole packed blob at once, not row by row.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (m,) or (lengths < 0).any() or lengths.sum() != flat.size:
        raise DataError(
            f"{path}: {domain} row lengths do not split {flat.size} entries over {m} users"
        )
    if flat.size and (flat.min() < 0 or flat.max() >= n_items):
        raise DataError(f"{path}: {domain} item index outside [0, {n_items})")
    rising = np.diff(flat) > 0
    starts = np.cumsum(lengths)[:-1]
    # a row may start below where the previous one ended
    rising[starts[(starts > 0) & (starts < flat.size)] - 1] = True
    if not rising.all():
        raise DataError(f"{path}: {domain} row not strictly increasing")


def _check_split(path, held_out, negatives, target_flat, lengths, n_items):
    """Reject a leave-one-out split that does not fit the bundle's target rows.

    Each held-out item must be a positive of its user and no negative may be;
    the packed keys u * n_items + item rise strictly (rows are checked sorted
    first), so one searchsorted answers both for every user at once.
    """
    m = len(lengths)
    if held_out.shape != (m,) or negatives.ndim != 2 or negatives.shape[0] != m:
        raise DataError(
            f"{path}: split shapes {held_out.shape} and {negatives.shape} do not fit {m} users"
        )
    for name, a in (("held_out", held_out), ("negatives", negatives)):
        if a.size and (a.min() < 0 or a.max() >= n_items):
            raise DataError(f"{path}: split {name} index outside [0, {n_items})")
    # the sentinel m * n_items sits above every key and equals no query
    keys = np.append(np.repeat(np.arange(m), lengths) * n_items + target_flat, m * n_items)
    base = np.arange(m) * n_items
    if not (keys[np.searchsorted(keys, base + held_out)] == base + held_out).all():
        raise DataError(f"{path}: split held_out item outside its user's target row")
    queries = base[:, None] + negatives
    if (keys[np.searchsorted(keys, queries)] == queries).any():
        raise DataError(f"{path}: split negative among its user's target positives")


def _unpack_rows(flat, lengths):
    rows, at = [], 0
    for n in lengths:
        rows.append(flat[at:at + n].astype(np.int64))
        at += n
    return rows


def load_bundle(path):
    """Inverse of save_bundle; returns (bundle, split-or-None)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != BUNDLE_MAGIC:
        raise DataError(f"{path}: not a bundle file (bad magic)")
    if len(raw) < 8:
        raise DataError(f"{path}: truncated header")
    (head_len,) = struct.unpack("<I", raw[4:8])
    try:
        header = json.loads(raw[8:8 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt header ({e})") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: corrupt header (not a JSON object)")
    if header.get("version") != BUNDLE_VERSION:
        raise DataError(f"{path}: unsupported bundle version {header.get('version')}")
    # Header fields come from outside the program: a missing key or a wrong
    # type anywhere in the decoding is a malformed file, not a crash.
    try:
        return _decode_bundle(path, raw, 8 + head_len, header)
    except (KeyError, TypeError) as e:
        raise DataError(
            f"{path}: malformed bundle header ({type(e).__name__}: {e})"
        ) from None


def _decode_bundle(path, raw, at, header):
    """Blobs from offset `at` and header fields into (bundle, split-or-None)."""
    arrays = {}
    for entry in header["blobs"]:
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        nbytes = count * np.dtype(entry["dtype"]).itemsize
        if at + nbytes > len(raw):
            raise DataError(f"{path}: truncated file at blob {entry['name']!r}")
        arrays[entry["name"]] = np.frombuffer(
            raw[at:at + nbytes], dtype=entry["dtype"]
        ).reshape(entry["shape"])
        at += nbytes
    if at != len(raw):
        raise DataError(f"{path}: trailing bytes after declared blobs")

    users = header["user_index"]

    def mat(domain):
        dom = header["domains"][domain]
        flat = arrays[f"{domain}.rows"]
        _check_rows(path, domain, flat, dom["row_lengths"], len(users), len(dom["item_index"]))
        rows = _unpack_rows(flat, dom["row_lengths"])
        row_ts = None
        if dom["has_ts"]:
            if arrays[f"{domain}.ts"].shape != flat.shape:
                raise DataError(f"{path}: {domain} timestamps do not align with rows")
            row_ts = _unpack_rows(arrays[f"{domain}.ts"], dom["row_lengths"])
        return DomainMatrix(domain, users, dom["item_index"], rows, row_ts)

    if not isinstance(header["provenance"], dict):
        raise TypeError("provenance is not an object")
    bundle = DatasetBundle(
        source=mat("source"),
        target=mat("target"),
        provenance=header["provenance"],
    )
    if header["aux_dim"] is not None:
        bundle.aux_vectors = arrays["aux"].astype(np.float64)
    split = None
    if header["split"] is not None:
        _check_split(
            path, arrays["split.held_out"], arrays["split.negatives"],
            arrays["target.rows"], header["domains"]["target"]["row_lengths"],
            bundle.target.n_items,
        )
        split = LeaveOneOutSplit(
            held_out=arrays["split.held_out"].astype(np.int64),
            negatives=arrays["split.negatives"].astype(np.int64),
            seed=header["split"]["seed"],
            policy=header["split"]["policy"],
        )
    return bundle.validate(), split
