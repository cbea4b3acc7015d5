"""Rating ingestion, domain splitting, filtering and evaluation splits.

The pipeline turns raw rating logs into a pair of binary user-item matrices
with a shared user index (source domain dense, target domain sparse), then
derives the leave-one-out, cold-start and degradation splits used by the
evaluation protocols. Everything is seeded explicitly and deterministic.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import struct
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from string import ascii_letters, digits

import numpy as np

from .nn import named_rng

BUNDLE_MAGIC = b"XDB1"
BUNDLE_VERSION = 1
LOO_POLICIES = ("random", "latest")
# Bytes of the rating log read and parsed per step, cut after the last line
# break. Blocks of 1 MiB raised the amazon-train peak RSS by 1.4%, and holding
# the whole file raised the peak of ml1m's prepare from 111 to 351 MiB.
BLOCK = 1 << 18
# The canonical line of load_ratings: ids of 1..ID_BYTES bytes of ID_CHARS, and
# a timestamp of at most TS_DIGITS digits, which always fits in int64.
ID_BYTES, TS_DIGITS = 16, 18
ID_CHARS = (ascii_letters + digits + "_.-").encode()
# _choose replays its calls a chunk at a time, the calls whose pools fill about
# SAMPLE_CELLS cells: its "taken" bitmap holds a byte a cell. sample_negatives
# maps SAMPLE_CELLS // n_items calls at a time, through pools of at most nine
# bytes a (call, item) cell. On ml1m and amazon shapes 2^20 to 2^22 time the
# same, and 2^18 is 1.4x slower.
SAMPLE_CELLS = 1 << 20
# Generator.choice(pool, k, replace=False) shuffles the tail of arange(pool) in
# place of Floyd's algorithm when pool > TAIL_POOL and k > pool // TAIL_SHARE.
TAIL_POOL, TAIL_SHARE = 10000, 50


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
        # one scan of the mask; a mask per column scans it once per column
        at = np.flatnonzero(mask)
        return replace(self, user=self.user[at], item=self.item[at],
                       rating=self.rating[at], ts=self.ts[at], has_ts=self.has_ts[at])


@dataclass
class DomainMatrix:
    """Binary interactions for one domain as CSR rows: user u's positives are
    indices[indptr[u]:indptr[u + 1]], item positions rising strictly."""

    domain: str                      # "source" or "target"
    user_index: list                 # shared across the paired matrices
    item_index: list
    indptr: np.ndarray               # (m + 1,) int64 row offsets into indices
    indices: np.ndarray              # (nnz,) int64 item positions
    ts: np.ndarray | None = None     # (nnz,) int64 timestamps aligned with indices

    @property
    def n_items(self):
        return len(self.item_index)

    @property
    def n_interactions(self):
        return int(self.indices.size)

    def sparsity(self):
        """Fraction of empty cells, 1 - interactions / (m * n)."""
        cells = len(self.user_index) * self.n_items
        return 1.0 - self.n_interactions / cells if cells else 1.0

    def to_dense(self, user_positions=None, at=None):
        """Dense float64 matrix for the given user positions (default: all).

        `at` is positives(user_positions) when the caller has it already.
        """
        if at is None:
            at = self.positives(user_positions)
        m = len(self.indptr) - 1 if user_positions is None else len(user_positions)
        out = np.zeros((m, self.n_items))
        out.reshape(-1)[at] = 1.0
        return out

    def positives(self, user_positions=None):
        """Flat positions of the ones of to_dense(user_positions), row-major ascending."""
        indptr, at = self.indptr, slice(None)
        if user_positions is not None:
            indptr, at = gather_rows(self.indptr, user_positions)
        return row_ids(indptr) * self.n_items + self.indices[at]

    def contains(self, users, items):
        """Whether items[k] is a positive of user users[k], elementwise after broadcasting."""
        # rows rise strictly, so the packed keys u * n_items + item rise strictly;
        # the sentinel m * n_items sits above every key and equals no query
        n = self.n_items
        keys = np.append(self.positives(), (len(self.indptr) - 1) * n)
        queries = np.asarray(users, dtype=np.int64) * n + items
        return keys[np.searchsorted(keys, queries)] == queries


def row_ids(indptr):
    """The row of every CSR entry: u repeated indptr[u + 1] - indptr[u] times."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def gather_rows(indptr, users):
    """(indptr, entry positions) of the CSR rows `users`, stacked in that order."""
    users = np.asarray(users, dtype=np.int64)
    lengths = indptr[users + 1] - indptr[users]
    out = _indptr(lengths)
    return out, np.arange(out[-1]) + np.repeat(indptr[users] - out[:-1], lengths)


def _indptr(lengths):
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _check_rows(mat):
    """Reject CSR rows whose item positions leave [0, n_items) or do not rise
    strictly. A loaded bundle's header gives its row layout (BUNDLE_FIELDS)."""
    indptr, indices = mat.indptr, mat.indices
    if indices.size and (indices.min() < 0 or indices.max() >= mat.n_items):
        raise DataError(f"{mat.domain} item index outside [0, {mat.n_items}), the length of "
                        f"domains.{mat.domain}.item_index")
    rising = np.diff(indices) > 0
    starts = indptr[1:-1]
    # a row may start below where the previous one ended
    rising[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    if not rising.all():
        raise DataError(f"{mat.domain} row not strictly increasing")


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
            _check_rows(mat)
        empty = np.flatnonzero(np.diff(self.source.indptr) == 0)
        if empty.size:
            raise DataError(f"user {self.source.user_index[empty[0]]!r} has empty source row")
        aux = self.aux_vectors
        if aux is not None and (aux.ndim != 2 or aux.shape[0] != self.m):
            raise DataError("aux_vectors row count != m")
        if aux is not None and not np.isfinite(aux).all():
            raise DataError("non-finite auxiliary value")
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


def load_ratings(path, format="movielens-dat", fingerprint=None):
    """Parse a rating log into columnar Ratings, preserving input order.

    movielens-dat lines look like ``user::item::rating::timestamp``; csv files
    carry a ``user,item,rating,timestamp`` header and may leave the timestamp
    empty. The file is read in blocks of about BLOCK bytes, each cut after its
    last line break. A canonical block is parsed with array operations: it holds
    only ID_CHARS, the separator and "\n", and each of its lines is two ids of
    1..ID_BYTES bytes, a rating digit 1..5 and 0..TS_DIGITS timestamp digits,
    joined by three separators. Any other block is split into lines as text and
    parsed line by line by _parse_lines, whose DataError names the first bad
    line and its line number in the file.

    `fingerprint`, when given, is called with every block in file order, before
    any of it is parsed; the blocks join to the file's bytes.
    """
    if format not in ("movielens-dat", "csv"):
        raise DataError(f"unknown ratings format {format!r}")
    sep = "::" if format == "movielens-dat" else ","
    users, items = _IdCodes(), _IdCodes()
    # user, item, rating, ts, has_ts, filled up to n: each block is copied in
    # and dropped. Block arrays kept for one final join held the peak near
    # twice the columns, since freed they stay in the malloc heap.
    columns, n = [np.empty(0, np.int64)] * 4 + [np.empty(0, bool)], 0
    first = 1  # the file line number of the block's first line
    read = 0   # bytes of the file in the blocks so far
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size  # 0 if unknown, as for a pipe
        for block in _blocks(fh):
            if fingerprint is not None:
                fingerprint(block)
            read += len(block)
            if format == "csv" and first == 1:
                head = block.decode("latin-1").splitlines(True)[0]
                header = [c.strip().lower() for c in head.split(",")]
                if header[:3] != ["user", "item", "rating"]:
                    raise DataError(f"{path}: expected 'user,item,rating,timestamp' header")
                block, first = block[len(head):], 2
                if not block:
                    continue
            parsed = _parse_block(block, sep.encode(), users, items)
            if parsed is None:
                # latin-1 maps bytes to characters one to one, and splitlines
                # breaks at "\r\n" and "\r" as text mode's newline translation does
                lines = block.decode("latin-1").splitlines()
                parsed = _parse_lines(path, lines, first, sep, users.first_seen, items.first_seen)
                first += len(lines)
            else:
                first += len(parsed[0])
            k = len(parsed[0])
            if n + k > columns[0].size:
                # room for the rows of the whole file at the rows per byte so
                # far, 1/16 over; twice the rows if the file is read past its size
                room = (n + k) * size // read if size >= read else 2 * (n + k)
                columns = [_with_room(c, n, room + room // 16) for c in columns]
            for column, part in zip(columns, parsed):
                column[n:n + k] = part
            n += k
    if not n:
        raise DataError(f"{path}: no interactions")
    for column in columns:
        column.resize(n, refcheck=False)  # gives the unused room back; no view of it exists
    user, item, rating, ts, has_ts = columns
    del columns  # so each code column is freed once it is renumbered below
    users, user = _in_string_order(users.first_seen, user)
    items, item = _in_string_order(items.first_seen, item)
    return Ratings(users, items, user, item, rating, ts, has_ts)


def _blocks(fh):
    """The bytes of fh in blocks of about BLOCK bytes, each cut after its last line break.

    Every block then holds whole lines, so the lines of the blocks are those of
    the whole file.
    """
    rest = b""
    for piece in iter(partial(fh.read, BLOCK), b""):
        piece = rest + piece
        # a "\r" ends a line once the byte after it is known not to be "\n"
        cut = max(piece.rfind(b"\n"), piece.rfind(b"\r", 0, len(piece) - 1)) + 1
        rest = piece[cut:]
        if cut:
            yield piece[:cut]
    if rest:
        yield rest


# the low k bytes of a 64-bit word, for k in 0..8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_POW10 = 10 ** np.arange(TS_DIGITS, dtype=np.int64)
# odd multiplier mixing an id's second key word into its hash
_MIX = np.array([0x9E3779B97F4A7C15], np.uint64)


class _IdCodes:
    """Provisional codes of ids, in first-seen order, for both kinds of block.

    `first_seen` maps an id to its code, a new id getting the count of ids
    before it. A canonical block hands its ids over as packed keys: an id's
    bytes zero-padded to ID_BYTES and read as two uint64 words, which no two
    ids share since ID_CHARS has no zero byte. Only the first line of each run
    of one key is looked up, since a log grouped by user repeats each user id
    for many lines in a row. Keys seen before are found in a cache sorted by a
    hash of the key, so only new ids are decoded and looked up in `first_seen`.
    """

    def __init__(self):
        self.first_seen = defaultdict()
        self.first_seen.default_factory = self.first_seen.__len__
        self.hashes = np.empty(0, np.uint64)      # sorted
        self.keys = np.empty((0, 2), np.uint64)   # the key of each hash
        self.codes = np.empty(0, np.int64)        # the code of each hash

    def lookup(self, keys):
        """Codes of (n, 2) packed keys; None if two distinct keys share a hash."""
        # rows of a 2-d array are gathered with take: indexing with an array
        # copies them about ten times slower
        changed = keys[1:] != keys[:-1]
        starts = np.flatnonzero(np.concatenate(([True], changed[:, 0] | changed[:, 1])))
        runs = keys.take(starts, axis=0)  # the other lines of a run hold its first one's key
        h = runs[:, 1] * _MIX
        h ^= runs[:, 0]  # the key itself for ids of up to 8 bytes
        # with no return_index, np.unique sorts unstably; any run of a hash
        # may stand for it, as every run is checked against it below
        hashes, inverse = np.unique(h, return_inverse=True)
        rep = np.empty(hashes.size, np.int64)
        rep[inverse] = np.arange(inverse.size)
        distinct = runs.take(rep, axis=0)
        at = np.searchsorted(self.hashes, hashes)
        seen = np.zeros(hashes.size, bool)
        if self.hashes.size:
            seen = self.hashes[np.minimum(at, self.hashes.size - 1)] == hashes
        old, new = np.flatnonzero(seen), np.flatnonzero(~seen)
        if ((distinct.take(inverse, axis=0) != runs).any()
                or (self.keys.take(at[old], axis=0) != distinct.take(old, axis=0)).any()):
            return None
        codes = np.empty(hashes.size, np.int64)
        codes[old] = self.codes[at[old]]
        if new.size:
            fresh = distinct.take(new, axis=0)
            # the key words as little-endian bytes are the id's bytes again
            ids = fresh.astype("<u8").view(f"S{ID_BYTES}").ravel().tolist()
            codes[new] = [self.first_seen[x.decode("latin-1")] for x in ids]
            self.hashes = np.insert(self.hashes, at[new], hashes[new])
            self.keys = np.insert(self.keys, at[new], fresh, axis=0)
            self.codes = np.insert(self.codes, at[new], codes[new])
        return np.repeat(codes[inverse], np.diff(starts, append=len(keys)))


def _within(x, lo, hi):
    """Whether every entry of x lies in lo..hi."""
    return bool(((x >= lo) & (x <= hi)).all())


def _parse_block(block, sep, users, items):
    """Columns (user, item, rating, ts, has_ts) of a canonical block; None for any other.

    `sep` is the separator as bytes: b"::" or b",".
    """
    if block.translate(None, ID_CHARS + sep[:1] + b"\n"):
        return None
    if not block.endswith(b"\n"):
        block += b"\n"  # the file's last line
    # zeros in front keep the timestamp digit reads in range, behind the id word reads
    buf = bytes(TS_DIGITS) + block + bytes(ID_BYTES)
    a = np.frombuffer(buf, np.uint8)
    word = np.ndarray((a.size - 7,), "<u8", buf, strides=(1,))  # word[i]: bytes i..i+7
    end = np.flatnonzero(a == ord("\n"))
    at = np.flatnonzero(a == sep[0])
    n, w = end.size, len(sep)
    if at.size != 3 * w * n or (w == 2 and (at[1::2] != at[0::2] + 1).any()):
        return None
    at = at[::w].reshape(n, 3)  # where each of a line's three separators starts
    start = np.concatenate(([TS_DIGITS], end[:-1] + 1))
    user_len, item_len = at[:, 0] - start, at[:, 1] - at[:, 0] - w
    ts_len = end - at[:, 2] - w
    # with 3n separators, a non-empty first field and a last field that ends at
    # the line's "\n" put exactly three separators in every line
    if not (_within(user_len, 1, ID_BYTES) and _within(item_len, 1, ID_BYTES)
            and (at[:, 2] - at[:, 1] == w + 1).all() and _within(ts_len, 0, TS_DIGITS)):
        return None
    rating = a[at[:, 1] + w].astype(np.int64) - ord("0")
    if not _within(rating, 1, 5):
        return None
    ts = np.zeros(n, np.int64)
    for k in range(ts_len.max()):  # the k-th digit from the right
        # in int64: numpy 1 would keep uint8 * int64 scalar in uint8 and wrap
        digit = a[end - 1 - k].astype(np.int64) - ord("0")
        digit[ts_len <= k] = 0
        if not _within(digit, 0, 9):
            return None
        ts += digit * _POW10[k]
    has_ts = ts_len > 0
    ts[~has_ts] = -1

    def keys(first, length):
        out = np.empty((n, 2), np.uint64)
        np.bitwise_and(word[first], _LOW_BYTES[np.minimum(length, 8)], out=out[:, 0])
        np.bitwise_and(word[first + 8], _LOW_BYTES[np.maximum(length - 8, 0)], out=out[:, 1])
        return out

    user = users.lookup(keys(start, user_len))
    item = items.lookup(keys(at[:, 0] + w, item_len))
    if user is None or item is None:
        return None
    return user, item, rating, ts, has_ts


def _with_room(column, n, size):
    """A copy of column[:n] in a new array of size entries."""
    out = np.empty(size, column.dtype)
    out[:n] = column[:n]
    return out


def _parse_lines(path, lines, first, sep, user_ids, item_ids):
    """Columns (user, item, rating, ts, has_ts) of text lines, the first numbered
    `first`; DataError naming the first bad line. Blank lines are skipped."""
    user, item, rating, ts, has_ts = [], [], [], [], []
    for n, line in enumerate(lines, start=first):
        parts = line.split(sep)
        if len(parts) == 3:
            parts.append("")  # no timestamp field
        elif len(parts) != 4:
            if not line.strip():
                continue
            raise DataError(f"{path}:{n}: malformed line {line!r}")
        u, i, r, t = parts
        try:
            stars = int(r.strip())
        except ValueError:
            raise DataError(f"{path}:{n}: bad rating {r!r}") from None
        if stars < 1 or stars > 5:
            raise DataError(f"{path}:{n}: rating {stars} outside 1..5")
        stamp = t.strip()
        try:
            value = int(stamp) if stamp else -1
        except ValueError:
            value = None
        if value is None or not -(1 << 63) <= value < 1 << 63:
            raise DataError(f"{path}:{n}: bad timestamp {t!r}")
        user.append(user_ids[u.strip()])
        item.append(item_ids[i.strip()])
        rating.append(stars)
        ts.append(value)
        has_ts.append(stamp != "")
    return (np.array(user, np.int64), np.array(item, np.int64), np.array(rating, np.int64),
            np.array(ts, np.int64), np.array(has_ts, bool))


def _in_string_order(ids, codes):
    """Ids sorted as strings, and first-seen codes renumbered to match."""
    names = sorted(ids)
    # argsort inverts the permutation sorted position -> first-seen code
    return names, np.argsort([ids[x] for x in names])[codes]


def load_item_labels(path, format="movielens-dat", fingerprint=None):
    """Item -> label set map from movies.dat (``id::title::g1|g2``) or ``item,labels`` csv;
    one line per item. `fingerprint`, when given, is called with the file's bytes."""
    labels, first_line = {}, {}
    lines = _read_lines(path, "latin-1", fingerprint)
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
        if item in first_line:
            raise DataError(f"{path}:{n}: item {item!r} already listed on line {first_line[item]}")
        first_line[item] = n
        labels[item] = {g.strip() for g in genre_field.split("|") if g.strip()}
    if not labels:
        raise DataError(f"{path}: no items")
    return labels


def _read_lines(path, encoding, fingerprint):
    """The lines of a text file, read once as bytes and handed to fingerprint if given."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if fingerprint is not None:
        fingerprint(raw)
    try:
        text = raw.decode(encoding)
    except UnicodeDecodeError as e:
        # the bad byte lies on the last line of the text before it plus one character
        line = len((raw[:e.start].decode(encoding) + "x").splitlines())
        raise DataError(f"{path}:{line}: {e}") from None
    # splitlines breaks at "\r\n" and "\r" as text mode's newline translation does
    return text.splitlines()


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
        at = np.flatnonzero(ratings.rating >= threshold)
        keys = ratings.user[at] * n_items + ratings.item[at]
        order = np.argsort(keys)  # unstable: a pair's lines come in any order
        keys, at = keys[order], at[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0
        last = np.maximum.reduceat(at, starts)
        return keys[starts], ratings.ts[last], ratings.has_ts[last]

    pos_s, pos_t = positives(source), positives(target)
    count_s, count_t = (np.bincount(p[0] // n_items, minlength=n_users) for p in (pos_s, pos_t))
    # a user needs a target positive even when min_target_positives < 1
    kept = (count_s >= 1) & (count_t >= max(min_target_positives, 1))
    if not kept.any():
        raise DataError("no users survive the shared-domain filter")
    users = [source.users[u] for u in np.flatnonzero(kept)]

    def build(domain, keys, ts, has_ts):
        on = kept[keys // n_items]
        codes, indices = np.unique(keys[on] % n_items, return_inverse=True)
        indptr = _indptr(np.bincount(keys[on] // n_items, minlength=n_users)[kept])
        items = [source.items[c] for c in codes]
        return DomainMatrix(domain, users, items, indptr, indices,
                            ts[on] if has_ts[on].any() else None)

    provenance = {"threshold": threshold, "min_target_positives": min_target_positives}
    return DatasetBundle(build("source", *pos_s), build("target", *pos_t),
                         provenance=provenance).validate()


def sample_negatives(indptr, indices, n_items, k, rng, draws=1, lead=False):
    """Negatives of CSR rows: for each row u, draws[u] successive draws of k
    distinct items outside the row, stacked in row order as a (sum(draws), k)
    int64 array. With lead, each row first draws rng.integers(len(row)), and
    (those picks, the negatives) come back.

    Each draw is the call rng.choice(pool, k, replace=False), pool being the
    items outside the row in ascending order, replayed by _choose: it holds the
    items that call picks, in the order _choose gives, and the generator ends
    in the state the sequential calls leave.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    lengths = np.diff(indptr)
    pops = n_items - lengths
    low = np.flatnonzero(pops < k)
    if low.size:
        raise DataError(f"cannot sample {k} negatives from {pops[low[0]]} non-interacted items")
    draws = np.broadcast_to(np.asarray(draws, dtype=np.int64), lengths.shape)
    # one unit per call in stream order; a row's lead draw opens its first unit,
    # and a row without calls keeps a unit of no picks for it
    units = np.maximum(draws, int(lead))
    unit_row = np.repeat(np.arange(len(lengths)), units)
    calls = np.repeat(draws > 0, units)
    first = _indptr(units)[:-1]
    bounds = None
    if lead:
        bounds = np.zeros(len(unit_row), dtype=np.int64)
        bounds[first] = lengths - 1
    picks, out = _choose(rng, pops[unit_row], np.where(calls, k, 0), bounds)
    out = out.reshape(int(calls.sum()), k)
    rows = unit_row[calls]
    step = max(1, SAMPLE_CELLS // max(n_items, 1))
    for lo in range(0, len(rows) if k else 0, step):
        # pool positions to item ids through the pools of a chunk of rows
        chunk, local = out[lo:lo + step], rows[lo:lo + step]
        r0, r1 = local[0], local[-1] + 1
        outside = np.ones((r1 - r0, n_items), dtype=bool)
        outside[row_ids(indptr[r0:r1 + 1]), indices[indptr[r0]:indptr[r1]]] = False
        local = local - r0
        chunk += _indptr(pops[r0:r1])[local][:, None]
        chunk[...] = np.flatnonzero(outside)[chunk]
        chunk -= local[:, None] * n_items
    return (picks[first], out) if lead else out


def _choose(rng, pops, ks, lead=None):
    """The sequential calls rng.choice(pops[c], ks[c], replace=False): (the
    draws rng.integers(0, lead[c], endpoint=True) that each call is preceded by
    when lead is given, else zeros; the pool positions the calls pick,
    concatenated in call order), as int64. The generator ends in the state
    the calls leave.

    Such a call is Floyd's algorithm, then a Fisher-Yates shuffle of its k
    picks; past numpy's cut, pop > TAIL_POOL and k > pop // TAIL_SHARE, it is a
    shuffle of the tail of arange(pop) alone. Each of its draws is one bounded
    integer whose bound is known before anything is drawn, so a chunk of calls,
    about SAMPLE_CELLS pool positions, is drawn with one rng.integers(0, highs,
    endpoint=True): the same bounded routine on the same stream, a bound of 0
    drawing nothing. The final shuffle is drawn but not resolved, so each
    call's positions come in Floyd's order, the order choice(..., shuffle=False)
    gives from the same state on Floyd's path; past the cut they come in the
    tail shuffle's order, choice's own.
    """
    pops, ks = np.asarray(pops, dtype=np.int64), np.asarray(ks, dtype=np.int64)
    led = np.zeros(len(pops), dtype=np.int64)
    out = np.empty(int(ks.sum()), dtype=np.int64)
    at, ends = _indptr(ks), np.cumsum(pops)
    lo = 0
    while lo < len(pops):
        # the calls whose pools fit in SAMPLE_CELLS cells, and at least one
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - pops[lo] + SAMPLE_CELLS, "right")))
        p, k = pops[lo:hi], ks[lo:hi]
        tail = (p > TAIL_POOL) & (k > p // TAIL_SHARE)
        bounds = None if lead is None else lead[lo:hi]
        if k.min() == k.max() and not tail.any():
            led[lo:hi] = _choose_one_k(rng, p, int(k[0]), bounds, out[at[lo]:at[hi]])
        else:
            led[lo:hi] = _choose_ragged(rng, p, k, tail, bounds, out, at[lo:hi])
        lo = hi
    return led, out


def _choose_one_k(rng, p, k, lead, out):
    """A chunk of calls that all pick k on Floyd's path: their bounds are one
    (calls, draws) matrix, and Floyd's columns are those of its transpose."""
    n, w0 = len(p), int(lead is not None)
    highs = np.empty((n, w0 + max(2 * k - 1, 0)), dtype=np.int64)
    # Floyd's j = pop - k .. pop - 1, then the shuffle's i = k - 1 .. 1
    highs[:, w0:w0 + k] = (p - k)[:, None] + np.arange(k)
    highs[:, w0 + k:] = np.arange(k - 1, 0, -1)
    if w0:
        highs[:, 0] = lead
    drawn = rng.integers(0, highs, endpoint=True)
    if k:
        # each call's draws as cells of one bitmap of the calls' pools
        base = _indptr(p)
        cells = np.add(drawn[:, w0:w0 + k].T, base[:-1], order="C")
        _floyd(cells, base[:-1] + p - k + np.arange(k)[:, None], base[-1])
        np.subtract(cells.T, base[:-1, None], out=out.reshape(n, k))
    return drawn[:, 0] if w0 else 0


def _choose_ragged(rng, p, k, tail, lead, out, at):
    """Any chunk of calls: their bounds lie end to end, and the columns of
    Floyd's calls and of the tail's are jagged, the calls of each sorted by k,
    largest first, so that column s holds the calls with k > s."""
    w0 = int(lead is not None)
    first = _indptr(w0 + k + np.where(tail, 0, np.maximum(k - 1, 0)))
    highs = np.zeros(first[-1], dtype=np.int64)
    first = first[:-1] + w0
    if w0:
        highs[first - 1] = lead
    groups = []
    for in_tail in (False, True):
        calls = np.flatnonzero((tail == in_tail) & (k > 0))
        if not calls.size:
            continue
        calls = calls[np.argsort(-k[calls], kind="stable")]
        sizes = len(calls) - np.cumsum(np.bincount(k[calls]))[:k[calls[0]]]
        ends = np.cumsum(sizes)
        # entry e of the columns is draw step[e] of call calls[rank[e]]
        step = np.repeat(np.arange(len(sizes)), sizes)
        rank = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
        who = calls[rank]
        pos = first[who] + step
        if in_tail:
            # the tail shuffle's i = pop - 1 down to pop - k
            highs[pos] = p[who] - 1 - step
            dest = at[who] + k[who] - 1 - step
        else:
            # Floyd's j = pop - k .. pop - 1, then the shuffle's i = k - 1 .. 1
            highs[pos] = p[who] - k[who] + step
            rest = slice(ends[0], None)
            highs[pos[rest] + k[who[rest]] - 1] = k[who[rest]] - step[rest]
            dest = at[who] + step
        base = _indptr(p[calls])
        shift = base[:-1][rank]
        groups.append((in_tail, pos, shift, shift + highs[pos], dest, ends[:-1], base[-1]))
    drawn = rng.integers(0, highs, endpoint=True)
    for in_tail, pos, shift, marks, dest, cuts, size in groups:
        cells = drawn[pos] + shift
        (_tail_shuffle if in_tail else _floyd)(np.split(cells, cuts), np.split(marks, cuts), size)
        cells -= shift
        out[dest] = cells
    return drawn[first - 1] if w0 else 0


def _floyd(columns, marks, size):
    """Floyd's picks in place, a column of calls at a time: a column holds one
    draw of each of its calls as a cell of one bitmap of size cells, and marks
    the cells of those calls' j. A draw already taken takes j instead, which no
    earlier pick can be."""
    taken = np.zeros(size, dtype=bool)
    for v, j in zip(columns, marks):
        np.copyto(v, j, where=taken[v])
        taken[v] = True


def _tail_shuffle(columns, marks, size):
    """numpy's tail shuffle in place, a column of calls at a time: cell i of
    each call, its mark, swaps with its draw, for i = pop - 1 down to pop - k,
    and the draw becomes the cell that lands at i, which no later swap moves."""
    perm = np.arange(size)
    for v, i in zip(columns, marks):
        perm[v], perm[i] = perm[i], perm[v]
        v[:] = perm[i]


def build_loo_split(bundle, seed, policy="random", n_negatives=99):
    """Hold one target positive per user out and freeze 99 negatives.

    policy "random" picks uniformly; "latest" picks the max-timestamp positive,
    the first of equal ones. training_bundle(bundle, split) gives the rows to
    train on.
    """
    if policy not in LOO_POLICIES:
        raise DataError(f"unknown hold-out policy {policy!r}")
    target = bundle.target
    lengths = np.diff(target.indptr)
    latest = policy == "latest"
    # the errors of a walk over the users: each row is checked for length, the
    # first one then for timestamps, and each row's pool as it is drawn from
    if latest and target.ts is None and len(lengths) and lengths[0] >= 2:
        raise DataError("policy 'latest' requires timestamps")
    bad = np.flatnonzero((lengths < 2) | (target.n_items - lengths < n_negatives))
    if bad.size and lengths[bad[0]] < 2:
        raise DataError(f"user {target.user_index[bad[0]]!r} has {lengths[bad[0]]} "
                        "target positives, need >= 2")
    rng, starts = named_rng(seed, "loo-split"), target.indptr[:-1]
    if latest:
        negatives = sample_negatives(target.indptr, target.indices, target.n_items,
                                     n_negatives, rng)
        picks = _first_max(target.ts, target.indptr) if bundle.m else starts
    else:
        picks, negatives = sample_negatives(target.indptr, target.indices, target.n_items,
                                            n_negatives, rng, lead=True)
    return LeaveOneOutSplit(target.indices[starts + picks], np.sort(negatives, axis=1),
                            seed=seed, policy=policy)


def _first_max(values, indptr):
    """The position in each non-empty CSR row of its first maximum, as np.argmax gives."""
    starts = indptr[:-1]
    top = np.repeat(np.maximum.reduceat(values, starts), np.diff(indptr))
    at = np.where(values == top, np.arange(len(values)), len(values))
    return np.minimum.reduceat(at, starts) - starts


def training_bundle(bundle, split):
    """Training view of a full bundle: target rows minus the held-out items."""
    target = bundle.target
    owner = row_ids(target.indptr)
    # rows rise strictly, so != drops exactly the held-out entry
    keep = target.indices != split.held_out[owner]
    return DatasetBundle(
        source=bundle.source,
        target=DomainMatrix(
            "target", target.user_index, target.item_index,
            _indptr(np.bincount(owner[keep], minlength=bundle.m)), target.indices[keep],
            None if target.ts is None else target.ts[keep],
        ),
        aux_vectors=bundle.aux_vectors,
        provenance=dict(bundle.provenance, loo_seed=split.seed, loo_policy=split.policy),
    )


def restrict_users(bundle, user_positions):
    """Bundle over a subset of users (keeps item indices unchanged)."""
    user_positions = np.asarray(user_positions, dtype=np.int64)
    users = [bundle.source.user_index[u] for u in user_positions]

    def cut(mat):
        indptr, at = gather_rows(mat.indptr, user_positions)
        return DomainMatrix(mat.domain, users, mat.item_index, indptr, mat.indices[at],
                            None if mat.ts is None else mat.ts[at])

    aux = bundle.aux_vectors[user_positions] if bundle.aux_vectors is not None else None
    return DatasetBundle(cut(bundle.source), cut(bundle.target), aux, dict(bundle.provenance))


def cold_start_split(bundle, fraction=0.1, seed=0):
    """Uniform user partition into train/test; test gets round(fraction * m) users.

    A split that leaves either side without users is a DataError.
    """
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must be in (0, 1), got {fraction}")
    m = bundle.m
    n_test = int(fraction * m + 0.5)
    if not 0 < n_test < m:
        raise DataError(f"cold-start fraction {fraction} of {m} users leaves "
                        f"{m - n_test} training and {n_test} test users")
    perm = named_rng(seed, "cold-split").permutation(m)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    return ColdStartSplit(train, test, fraction, seed)


def degrade_target_rows(mat, fraction_kept, seed):
    """Copy of mat keeping ceil(fraction_kept * len) uniformly chosen positives
    per row, without timestamps; fraction 1 returns mat itself."""
    if not 0.0 <= fraction_kept <= 1.0:
        raise DataError(f"fraction_kept must be in [0, 1], got {fraction_kept}")
    if fraction_kept == 1.0:
        return mat
    rng = named_rng(seed, f"degrade-{fraction_kept}")
    lengths = np.diff(mat.indptr)
    keep = np.ceil(fraction_kept * lengths).astype(np.int64)
    # each row's positions are those of rng.choice(len(row), k, replace=False),
    # which draws the stream rng.choice(row, k) draws and picks the same
    # positions; a row that keeps nothing draws nothing
    _, at = _choose(rng, lengths, keep)
    # rows rise strictly and sit in ascending ranges of mat.indices, so one
    # sort of the kept entry positions sorts every row
    at += np.repeat(mat.indptr[:-1], keep)
    at.sort()
    return DomainMatrix(mat.domain, mat.user_index, mat.item_index, _indptr(keep),
                        mat.indices[at])


def load_aux_vectors(path, expected_dim=256, fingerprint=None):
    """Dense per-user auxiliary vectors from csv rows ``user,v1,...,vd``; one row per user.
    `fingerprint`, when given, is called with the file's bytes."""
    vectors, first_line = {}, {}
    lines = _read_lines(path, "utf-8", fingerprint)
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
        if user in first_line:
            raise DataError(f"{path}:{n}: user {user!r} already listed on line {first_line[user]}")
        try:
            vec = np.array([float(v) for v in values])
        except ValueError as e:
            raise DataError(f"{path}:{n}: {e}") from None
        if not np.all(np.isfinite(vec)):
            raise DataError(f"{path}:{n}: non-finite auxiliary value")
        vectors[user], first_line[user] = vec, n
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
# Containers: XDB1 bundles and XDV1 checkpoints share one layout, a 4-byte
# magic, the u32 little-endian length of a canonical-JSON header object, then
# the little-endian binary blobs the header declares, back to back. Writing
# the same object twice yields byte-identical files.


@contextmanager
def write_container(path, magic, header):
    """Open path, write magic, header length and header as canonical JSON, and
    yield the file for the caller to write the declared blobs to."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        yield fh


def read_container(path, magic, what, fingerprint=None):
    """(file bytes, header object, offset of the first blob) of a container.

    `what` names the kind of file when the magic is not `magic`. `fingerprint`,
    when given, is called with the file bytes before they are checked.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if fingerprint is not None:
        fingerprint(raw)
    if raw[:4] != magic:
        raise DataError(f"{path}: not {what} (bad magic)")
    if len(raw) < 8:
        raise DataError(f"{path}: truncated header")
    (head_len,) = struct.unpack("<I", raw[4:8])
    try:
        header = json.loads(raw[8:8 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt header ({e})") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: corrupt header (not a JSON object)")
    return raw, header, 8 + head_len


# JSON type name -> (Python types, text); an integer field takes no float
JSON_TYPES = {"int": ((int,), "of integer type"), "number": ((int, float), "of number type"),
              "string": ((str,), "of string type"), "bool": ((bool,), "of bool type"),
              "list": ((list,), "of list type"), "object": ((dict,), "of object type"),
              "null": ((type(None),), "null")}


def at_least(low):
    return f">= {low}", lambda v, doc: v >= low


def one_of(*values):
    return f"one of {values}", lambda v, doc: v in values


def check_fields(doc, table, context=None, root="header"):
    """Raise DataError for the first field of the JSON object doc that breaks its row.

    A row is (dotted path, JSON_TYPES names joined by "|", rule): "*" is each
    list item, a null its row allows holds no field, and the rule is None,
    (text, test(value, doc)), or the table of an object that may hold no other
    key (root names doc in its messages). Every type is checked before any
    rule. The README's "File formats" gives the message form; context, when
    given, makes it "<context> (ValueError: <message>)".
    """
    def fail(name, text, value, item=None):
        at = "" if item is None else f" (item {item})"
        raise DataError(f"{name} must be {text}, got {reprlib.repr(value)}{at}")

    # a null holds no field only where its own row allows it
    nullable = {path for path, types, _ in table if "null" in types.split("|")}

    def fields(path):
        """(name, values, indexed) of each place at path: a list's name and its
        items, indexed, when path ends in "*", else a field's name and [value]."""
        keys, found = path.split("."), [("", doc)]
        for depth, key in enumerate(keys):
            step = []
            for name, node in found:
                if node is None and ".".join(keys[:depth]) in nullable:
                    continue
                is_list = key == "*"
                if not isinstance(node, list if is_list else dict):
                    fail(name, JSON_TYPES["list" if is_list else "object"][1], node)
                if is_list and depth == len(keys) - 1:
                    step.append((name, node))
                elif is_list:
                    step += [(f"{name}.{k}", item) for k, item in enumerate(node)]
                elif key not in node:
                    raise DataError(f"{name or root} has no field {key!r}")
                else:
                    step.append((f"{name}.{key}".lstrip("."), node[key]))
            found = step
        if keys[-1] == "*":
            return [(name, items, True) for name, items in found]
        return [(name, [value], False) for name, value in found]

    try:
        for path, types, _ in table:
            classes = sum((JSON_TYPES[t][0] for t in types.split("|")), ())
            text = " or ".join(JSON_TYPES[t][1] for t in types.split("|"))
            for name, values, indexed in fields(path):
                # values of JSON's own types pass at once; a bool is never an int
                if set(map(type, values)) <= set(classes):
                    continue
                for k, value in enumerate(values):
                    if not isinstance(value, classes) or (isinstance(value, bool)
                                                          and bool not in classes):
                        fail(name, text, value, k if indexed else None)
        for path, _, rule in table:
            for name, values, indexed in fields(path) if rule else ():
                for k, value in enumerate(values):
                    if isinstance(rule, list):
                        unknown = sorted(set(value) - {row[0].split(".")[0] for row in rule})
                        if unknown:
                            raise DataError(f"{name} has unknown field {unknown[0]!r}")
                        check_fields(value, rule, root=name)
                    elif not rule[1](value, doc):
                        fail(name, rule[0], value, k if indexed else None)
    except DataError as e:
        if context is None:
            raise
        raise DataError(f"{context} (ValueError: {e})") from None


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
        header["domains"][mat.domain] = {
            "item_index": list(mat.item_index),
            "row_lengths": np.diff(mat.indptr).tolist(),
            "has_ts": mat.ts is not None,
        }
        for kind, arr in (("rows", mat.indices), ("ts", mat.ts)):
            if arr is not None:
                add_blob(f"{mat.domain}.{kind}", arr, "<i8")
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

    with write_container(path, BUNDLE_MAGIC, header) as fh:
        for blob in blobs:
            fh.write(blob)


def _check_split(held_out, negatives, target):
    """Reject a leave-one-out split that does not fit the bundle's target rows:
    each held-out item must be a positive of its user and no negative may be."""
    m = len(target.user_index)
    for name, a in (("held_out", held_out), ("negatives", negatives)):
        if a.size and (a.min() < 0 or a.max() >= target.n_items):
            raise DataError(f"split {name} index outside [0, {target.n_items})")
    users = np.arange(m)
    if not target.contains(users, held_out).all():
        raise DataError("split held_out item outside its user's target row")
    if target.contains(users[:, None], negatives).any():
        raise DataError("split negative among its user's target positives")


def _blobs(header):
    """(name, dtype, shape) of each blob that a bundle header's other fields
    declare, in the order save_bundle writes them: every blob is little-endian
    int64 but the float32 aux vectors, whose shape is checked where they are read."""
    m, split, blobs = header["m"], header["split"], []
    for d in ("source", "target"):
        dom = header["domains"][d]
        size = [sum(dom["row_lengths"])]
        blobs += [(f"{d}.rows", "<i8", size)] + [(f"{d}.ts", "<i8", size)] * dom["has_ts"]
    if split is not None:
        blobs += [("split.held_out", "<i8", [m]),
                  ("split.negatives", "<i8", [m, split["n_negatives"]])]
    return blobs + [("aux", "<f4", None)] * (header["aux_dim"] is not None)


_DISTINCT = ("a list of distinct ids", lambda v, h: len(set(v)) == len(v))

# The bundle header (see check_fields). Each blob's size is checked against
# the file where the blobs are read.
BUNDLE_FIELDS = [
    ("version", "int", None),
    ("user_index", "list", _DISTINCT),
    ("user_index.*", "string", None),
    ("m", "int", ("the number of user_index ids", lambda v, h: v == len(h["user_index"]))),
    ("provenance", "object", None),
    *(row for d in ("source", "target") for row in (
        (f"domains.{d}.item_index", "list", _DISTINCT),
        (f"domains.{d}.item_index.*", "string", None),
        (f"domains.{d}.row_lengths", "list", (
            "m row lengths >= 0", lambda v, h: len(v) == h["m"] and min(v, default=0) >= 0)),
        (f"domains.{d}.row_lengths.*", "int", None),
        (f"domains.{d}.has_ts", "bool", None),
    )),
    ("split", "object|null", None),
    ("aux_dim", "int|null", None),
    ("blobs.*.name", "string", None),
    ("blobs.*.dtype", "string", None),
    # numpy refuses a shape whose nonzero sides multiply past its index range
    ("blobs.*.shape", "list", ("under 2**56 cells, a side of 0 counted as 1",
                               lambda v, h: math.prod(n or 1 for n in v) < 2**56)),
    ("blobs.*.shape.*", "int", at_least(0)),
    ("blobs", "list", (
        "the blobs, in order, that domains, split and aux_dim declare (rows sized by the "
        "row lengths, split.negatives m by split.n_negatives)",
        lambda v, h: _blobs(h) == [(b["name"], b["dtype"], None if b["name"] == "aux"
                                    else b["shape"]) for b in v])),
    ("split.seed", "int", at_least(0)),
    ("split.policy", "string", one_of(*LOO_POLICIES)),
    ("split.n_negatives", "int", None),
]


def load_bundle(path, fingerprint=None):
    """Inverse of save_bundle; returns (bundle, split-or-None). `fingerprint`,
    when given, is called with the file bytes."""
    raw, header, at = read_container(path, BUNDLE_MAGIC, "a bundle file", fingerprint)
    if header.get("version") != BUNDLE_VERSION:
        raise DataError(f"{path}: unsupported bundle version {header.get('version')}")
    try:
        check_fields(header, BUNDLE_FIELDS, "malformed bundle header")
        return _decode_bundle(raw, at, header)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def _decode_bundle(raw, at, header):
    """Blobs from offset `at` and the fields of a checked header into (bundle, split-or-None)."""
    arrays = {}
    for k, entry in enumerate(header["blobs"]):
        dtype, count = np.dtype(entry["dtype"]), math.prod(entry["shape"])
        if at + count * dtype.itemsize > len(raw):
            raise DataError(f"truncated file at blob {entry['name']!r} (blobs.{k})")
        arrays[entry["name"]] = np.frombuffer(raw, dtype, count, at).reshape(entry["shape"]).copy()
        at += count * dtype.itemsize
    if at != len(raw):
        raise DataError("trailing bytes after declared blobs")

    def mat(domain):
        dom = header["domains"][domain]
        # the row lengths are >= 0 and sum to the row blob's size, so they fit int64
        indptr = _indptr(np.asarray(dom["row_lengths"], dtype=np.int64))
        return DomainMatrix(domain, header["user_index"], dom["item_index"], indptr,
                            arrays[f"{domain}.rows"], arrays.get(f"{domain}.ts"))

    bundle = DatasetBundle(mat("source"), mat("target"), provenance=header["provenance"])
    if header["aux_dim"] is not None:
        shape = arrays["aux"].shape
        if len(shape) != 2 or shape[1] != header["aux_dim"] or shape[1] < 1:
            raise DataError(f"aux blob of shape {list(shape)} for aux_dim "
                            f"{header['aux_dim']!r}; it must hold aux_dim >= 1 columns")
        # a signalling NaN would warn in the cast; validate() rejects it
        with np.errstate(invalid="ignore"):
            bundle.aux_vectors = arrays["aux"].astype(np.float64)
    bundle.validate()
    split = None
    if header["split"] is not None:
        meta = header["split"]
        split = LeaveOneOutSplit(arrays["split.held_out"], arrays["split.negatives"],
                                 meta["seed"], meta["policy"])
        _check_split(split.held_out, split.negatives, bundle.target)
    return bundle, split
