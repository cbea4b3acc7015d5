"""Ingestion, domain routing, filtering, splits and bundle round trips."""

import re
import struct
from string import ascii_letters, digits
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdvae import data
from xdvae.data import DataError
from xdvae.nn import named_rng

from conftest import make_matrix, make_toy_bundle, rewrite_header, row_list, with_rows


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def make_ratings(*lines):
    """Ratings from (user, item, rating[, ts]) tuples, ids coded in string order."""
    users = sorted({x[0] for x in lines})
    items = sorted({x[1] for x in lines})
    ts = [x[3] if len(x) > 3 else None for x in lines]
    return data.Ratings(
        users, items,
        np.array([users.index(x[0]) for x in lines], dtype=np.int64),
        np.array([items.index(x[1]) for x in lines], dtype=np.int64),
        np.array([x[2] for x in lines], dtype=np.int64),
        np.array([-1 if t is None else t for t in ts], dtype=np.int64),
        np.array([t is not None for t in ts], dtype=bool),
    )


def halves(source, target):
    """split_domains-style (source, target) halves of one log holding both lists."""
    log = make_ratings(*source, *target)
    first = np.arange(len(log.user)) < len(source)
    return log.select(first), log.select(~first)


def rows_of(ratings):
    """(user, item, rating, ts-or-None) per line, in log order."""
    return [
        (ratings.users[u], ratings.items[i], int(r), int(t) if h else None)
        for u, i, r, t, h in zip(ratings.user, ratings.item, ratings.rating,
                                 ratings.ts, ratings.has_ts)
    ]


class TestLoadRatings:
    def test_movielens_line(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::1193::5::978300760\n")
        ratings = data.load_ratings(path, "movielens-dat")
        assert rows_of(ratings) == [("1", "1193", 5, 978300760)]
        assert ratings.users == ["1"] and ratings.items == ["1193"]
        for col in (ratings.user, ratings.item, ratings.rating, ratings.ts):
            assert col.dtype == np.int64
        assert ratings.has_ts.dtype == bool

    def test_empty_file_errors(self, tmp_path):
        path = write(tmp_path, "r.dat", "")
        with pytest.raises(DataError, match="no interactions"):
            data.load_ratings(path, "movielens-dat")

    def test_csv_missing_timestamp(self, tmp_path):
        path = write(tmp_path, "r.csv", "user,item,rating,timestamp\nu1,i1,4,\n")
        ratings = data.load_ratings(path, "csv")
        assert rows_of(ratings) == [("u1", "i1", 4, None)]
        assert ratings.ts.tolist() == [-1]

    def test_literal_minus_one_timestamp_is_a_timestamp(self, tmp_path):
        path = write(tmp_path, "r.csv", "user,item,rating,timestamp\nu1,i1,4,-1\n")
        assert data.load_ratings(path, "csv").has_ts.tolist() == [True]

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
        ratings = data.load_ratings(path, "movielens-dat")
        assert [ratings.users[u] for u in ratings.user] == ["2", "1"]
        assert ratings.users == ["1", "2"]

    def test_ids_in_string_order(self, tmp_path):
        path = write(tmp_path, "r.dat", "9::9::4::1\n10::10::5::2\n")
        ratings = data.load_ratings(path, "movielens-dat")
        assert ratings.users == ["10", "9"] and ratings.user.tolist() == [1, 0]
        assert ratings.items == ["10", "9"] and ratings.item.tolist() == [1, 0]

    def test_first_bad_line_wins_whatever_its_fault(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::2::5::9\n1::2::5::x\n1::2::9::9\n1::2\n")
        with pytest.raises(DataError, match=r":2: bad timestamp 'x'$"):
            data.load_ratings(path, "movielens-dat")

    def test_line_ending_in_separator_character(self, tmp_path):
        # "::" joins would pair the trailing ":" with the next line's separator
        path = write(tmp_path, "r.dat", "1::2::5::9:\n3::4::5::9\n")
        with pytest.raises(DataError, match=r":1: bad timestamp '9:'"):
            data.load_ratings(path, "movielens-dat")


class TestChunkBoundaries:
    """A log longer than data.BLOCK bytes, so its lines are parsed in several blocks."""

    filler = "zz::s9::1::0"  # below threshold, so it adds no positive
    # lines wholly within the first block
    per_block = data.BLOCK // len(filler + "\n")

    def log(self, edits):
        lines = [self.filler] * (self.per_block + 50)
        for line_number, text in edits.items():
            lines[line_number - 1] = text
        return "\n".join(lines) + "\n"

    def test_bad_rating_in_second_chunk_reports_its_line(self, tmp_path):
        bad = self.per_block + 7
        path = write(tmp_path, "r.dat", self.log({bad: "u1::t1::x::5", bad + 3: "u1"}))
        with pytest.raises(DataError, match=rf"r\.dat:{bad}: bad rating 'x'$"):
            data.load_ratings(path, "movielens-dat")

    def test_later_chunk_wins_duplicates_and_new_ids_sort_into_place(self, tmp_path):
        later = self.per_block + 5
        path = write(tmp_path, "r.dat", self.log({
            1: "u1::t1::5::100", 2: "u1::s1::5::1", 3: "u1::t2::4::1",
            later: "u1::t1::5::200",
            later + 1: "a0::s1::5::1", later + 2: "a0::t0::5::1", later + 3: "a0::t1::5::1",
        }))
        labels = {"s1": {"Action"}, "s9": {"Action"}, "t0": {"Drama"}, "t1": {"Drama"},
                  "t2": {"Drama"}}
        ratings = data.load_ratings(path, "movielens-dat")
        assert ratings.users == ["a0", "u1", "zz"]
        assert ratings.items == ["s1", "s9", "t0", "t1", "t2"]
        bundle = data.binarize_and_filter(
            *data.split_domains(ratings, labels, {"Action"}, {"Drama"}))
        assert bundle.target.user_index == ["a0", "u1"]
        assert bundle.target.item_index == ["t0", "t1", "t2"]
        assert row_list(bundle.target)[1].tolist() == [1, 2]
        assert row_list(bundle.target, bundle.target.ts)[1].tolist() == [200, 1]


class TestLineBreaks:
    """The log is read in blocks of data.BLOCK bytes, but lines and line numbers
    are those of splitlines() on the whole text, which also breaks at \\x0b,
    \\x0c, \\x1c-\\x1e and \\x85 (and sees \\r\\n and \\r as \\n). Block sizes
    run from one byte per read to more than the whole log."""

    text = ("u1::s1::5::1\x0cu1::t1::5::2\r\nu1::t2::4::3\x1c\x85u2::s1::5::4\n"
            "u2::t1::5::5\x0bu2::t2::5::6\ru3::t2::5::7\x1d\x1eu3::s1::5::8\n")

    def log(self, tmp_path, text):
        path = tmp_path / "r.dat"
        path.write_bytes(text.encode("latin-1"))
        return str(path)

    @pytest.mark.parametrize("block", [1, 2, 3, 4096])
    def test_lines_as_whole_text_splitlines(self, tmp_path, block):
        path = self.log(tmp_path, self.text)
        with patch.object(data, "BLOCK", block):
            ratings = data.load_ratings(path, "movielens-dat")
        with open(path, encoding="latin-1") as fh:
            lines = [line.split("::") for line in fh.read().splitlines() if line]
        assert rows_of(ratings) == [(u, i, int(r), int(t)) for u, i, r, t in lines]

    @pytest.mark.parametrize("block", [1, 2, 3, 4096])
    def test_error_line_numbers_count_every_break(self, tmp_path, block):
        path = self.log(tmp_path, self.text + "u4::t1::x::9\n")
        # 10 lines above it: 8 ratings and the empty lines in \x1c\x85 and \x1d\x1e
        with patch.object(data, "BLOCK", block), \
                pytest.raises(DataError, match=r"r\.dat:11: bad rating 'x'$"):
            data.load_ratings(path, "movielens-dat")


class TestLoadItemLabels:
    def test_csv_header_is_an_exact_item_field(self, tmp_path):
        path = write(tmp_path, "i.csv", "items42,Books\nB1,Movies_TV\n")
        assert data.load_item_labels(path, "csv") == {"items42": {"Books"}, "B1": {"Movies_TV"}}
        path = write(tmp_path, "h.csv", " Item ,labels\nB1,Books\n")
        assert data.load_item_labels(path, "csv") == {"B1": {"Books"}}

    @pytest.mark.parametrize("fmt, text, line", [
        ("movielens-dat", "1::A (1999)::Action\n\n2::B (2000)::Drama\n 1 ::A again::Comedy\n", 4),
        ("csv", "item,labels\n1,Action\n2,Drama\n1 ,Comedy\n", 4),
    ])
    def test_repeated_item_names_both_lines(self, tmp_path, fmt, text, line):
        # a repeat used to keep its last line's labels silently
        path = write(tmp_path, "items", text)
        first = 1 if fmt == "movielens-dat" else 2
        message = f"{path}:{line}: item '1' already listed on line {first}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            data.load_item_labels(path, fmt)


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
        return make_ratings(*[("u", item, 5) for item in items])

    def test_pure_source_routed(self):
        src, tgt = data.split_domains(
            self.interactions("a"), self.labels, self.source_labels, self.target_labels
        )
        assert [x[1] for x in rows_of(src)] == ["a"] and rows_of(tgt) == []

    def test_dual_label_dropped(self):
        src, tgt = data.split_domains(
            self.interactions("b"), self.labels, self.source_labels, self.target_labels
        )
        assert rows_of(src) == [] and rows_of(tgt) == []

    def test_off_label_dropped(self):
        src, tgt = data.split_domains(
            self.interactions("c"), self.labels, self.source_labels, self.target_labels
        )
        assert rows_of(src) == [] and rows_of(tgt) == []

    def test_unknown_item_errors(self):
        with pytest.raises(DataError, match="zzz"):
            data.split_domains(
                self.interactions("zzz"), self.labels,
                self.source_labels, self.target_labels,
            )

    def test_unknown_items_sorted_first_ten_shown(self):
        items = [f"x{k}" for k in range(12, 0, -1)]
        with pytest.raises(DataError) as err:
            data.split_domains(self.interactions(*items), self.labels,
                               self.source_labels, self.target_labels)
        shown = ", ".join(sorted(items)[:10])
        assert str(err.value) == f"items without a label entry: {shown} (+2 more)"

    def test_output_item_sets_disjoint(self):
        src, tgt = data.split_domains(
            self.interactions("a", "b", "c", "d"), self.labels,
            self.source_labels, self.target_labels,
        )
        assert {x[1] for x in rows_of(src)} & {x[1] for x in rows_of(tgt)} == set()


@st.composite
def repeated_pair_logs(draw):
    """(format, text, item labels) of up to 300 lines over at most 3 users and 4
    items, so that (user, item) pairs repeat, with ratings on both sides of any
    threshold. Each domain's lines all have a timestamp, none has, or some have."""
    fmt = draw(st.sampled_from(["movielens-dat", "csv"]))
    sep = "::" if fmt == "movielens-dat" else ","
    users = st.sampled_from(["u1", "10", "9"][:draw(st.integers(1, 3))])
    domains = []
    for items in (["s1", "s2"], ["t1", "t2"]):
        stamp = draw(st.sampled_from([st.none(), st.integers(0, 10**6),
                                      st.one_of(st.none(), st.integers(0, 10**6))]))
        line = st.tuples(users, st.sampled_from(items), st.integers(1, 5), stamp)
        domains += draw(st.lists(line, min_size=1, max_size=150))
    lines = [sep.join([u, i, str(r), "" if t is None else str(t)])
             for u, i, r, t in draw(st.permutations(domains))]
    if fmt == "csv":
        lines.insert(0, "user,item,rating,timestamp")
    labels = {"s1": {"S"}, "s2": {"S"}, "t1": {"T"}, "t2": {"T"}}
    return fmt, "\n".join(lines) + "\n", labels


class TestBinarizeAndFilter:
    def test_user_without_target_dropped(self):
        source, target = halves(
            [("u1", "s1", 5), ("u2", "s1", 5)],
            [("u1", "t1", 5), ("u1", "t2", 4), ("u2", "t1", 3)],
        )
        bundle = data.binarize_and_filter(source, target)
        assert bundle.source.user_index == ["u1"]

    def test_threshold_below_all_ratings_is_identity(self):
        source, target = halves([("u1", "s1", 5)], [("u1", "t1", 5), ("u1", "t2", 5)])
        a = data.binarize_and_filter(source, target, threshold=4)
        b = data.binarize_and_filter(source, target, threshold=1)
        assert a.source.item_index == b.source.item_index
        assert all(np.array_equal(x, y) for x, y in zip(row_list(a.target), row_list(b.target)))

    def test_zero_survivors_errors(self):
        source, target = halves([("u1", "s1", 2)], [("u1", "t1", 2), ("u1", "t2", 2)])
        with pytest.raises(DataError, match="no users"):
            data.binarize_and_filter(source, target)

    def test_last_duplicate_positive_wins(self):
        source, target = halves(
            [("u1", "s1", 5)],
            [("u1", "t1", 5, 30), ("u1", "t2", 4, 20), ("u1", "t1", 4, 10), ("u1", "t1", 2, 99)],
        )
        bundle = data.binarize_and_filter(source, target)
        assert row_list(bundle.target)[0].tolist() == [0, 1]
        assert row_list(bundle.target, bundle.target.ts)[0].tolist() == [10, 20]

    @given(log=repeated_pair_logs(), threshold=st.integers(1, 5),
           min_target=st.sampled_from([1, 2]))
    @settings(deadline=None)  # the example count comes from the active profile
    def test_last_line_at_or_above_threshold_wins(self, scratch_dir, log, threshold,
                                                  min_target):
        # reference_bundle keeps a dict per user in which each later line at or
        # above the threshold overwrites its pair's timestamp
        fmt, text, labels = log
        path = scratch_dir / "p.log"
        path.write_text(text, encoding="latin-1")
        args = (str(path), fmt, labels, {"S"}, {"T"})
        kwargs = dict(threshold=threshold, min_target_positives=min_target)
        assert_same_outcome(outcome(columnar_bundle, *args, **kwargs),
                            outcome(reference_bundle, *args, **kwargs), scratch_dir)

    def test_min_positive_invariant_holds(self, synthetic_bundle):
        for row in row_list(synthetic_bundle.source):
            assert len(row) >= 1
        for row in row_list(synthetic_bundle.target):
            assert len(row) >= 2

    def test_items_all_have_a_surviving_positive(self, synthetic_bundle):
        for mat in (synthetic_bundle.source, synthetic_bundle.target):
            seen = set()
            for row in row_list(mat):
                seen.update(int(j) for j in row)
            assert seen == set(range(mat.n_items))

    def test_dropped_items_absent(self, synthetic_bundle):
        items = set(synthetic_bundle.source.item_index) | set(
            synthetic_bundle.target.item_index
        )
        assert "both0" not in items and "none0" not in items


def reference_log(path, fmt):
    """The per-line parser the columnar ingestion replaced: (user, item, rating, ts or None)."""
    with open(path, "r", encoding="latin-1") as fh:
        lines = fh.read().splitlines()
    start = 0
    if fmt == "csv":
        if not lines:
            raise DataError(f"{path}: no interactions")
        header = [c.strip().lower() for c in lines[0].split(",")]
        if header[:3] != ["user", "item", "rating"]:
            raise DataError(f"{path}: expected 'user,item,rating,timestamp' header")
        start = 1
    sep = "::" if fmt == "movielens-dat" else ","
    log = []
    for n, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split(sep)
        if len(parts) not in (3, 4):
            raise DataError(f"{path}:{n}: malformed line {line!r}")
        ts = parts[3].strip() if len(parts) == 4 else ""
        try:
            rating = int(parts[2].strip())
        except ValueError:
            raise DataError(f"{path}:{n}: bad rating {parts[2]!r}") from None
        if rating < 1 or rating > 5:
            raise DataError(f"{path}:{n}: rating {rating} outside 1..5")
        try:
            timestamp = int(ts) if ts else None
        except ValueError:
            raise DataError(f"{path}:{n}: bad timestamp {parts[3]!r}") from None
        log.append((parts[0].strip(), parts[1].strip(), rating, timestamp))
    if not log:
        raise DataError(f"{path}: no interactions")
    return log


def reference_bundle(path, fmt, item_labels, source_labels, target_labels,
                     threshold=4, min_target_positives=2):
    """The per-line parser and dict-of-dicts filter the columnar pipeline replaced."""
    log = reference_log(path, fmt)
    unknown = sorted({x[1] for x in log if x[1] not in item_labels})
    if unknown:
        more = f" (+{len(unknown) - 10} more)" if len(unknown) > 10 else ""
        raise DataError(f"items without a label entry: {', '.join(unknown[:10])}{more}")
    route = {}
    for item, labels in item_labels.items():
        in_s, in_t = bool(labels & source_labels), bool(labels & target_labels)
        if in_s != in_t:
            route[item] = "source" if in_s else "target"
    source = [x for x in log if route.get(x[1]) == "source"]
    target = [x for x in log if route.get(x[1]) == "target"]
    if not source or not target:
        raise DataError("empty source or target interaction list")

    def positives(interactions):
        by_user = {}
        for user, item, rating, timestamp in interactions:
            if rating >= threshold:
                by_user.setdefault(user, {})[item] = timestamp
        return by_user

    pos_s, pos_t = positives(source), positives(target)
    users = sorted(u for u in pos_s if u in pos_t and len(pos_t[u]) >= min_target_positives)
    if not users:
        raise DataError("no users survive the shared-domain filter")

    def build(domain, pos):
        items = sorted({item for u in users for item in pos[u]})
        item_pos = {item: k for k, item in enumerate(items)}
        rows, row_ts = [], []
        for u in users:
            entries = sorted((item_pos[item], ts) for item, ts in pos[u].items())
            rows.append(np.array([e[0] for e in entries], dtype=np.int64))
            row_ts.append(np.array([-1 if e[1] is None else e[1] for e in entries],
                                   dtype=np.int64))
        has_ts = any(ts is not None for u in users for ts in pos[u].values())
        return make_matrix(domain, users, items, rows, row_ts if has_ts else None)

    provenance = {"threshold": threshold, "min_target_positives": min_target_positives}
    return data.DatasetBundle(build("source", pos_s), build("target", pos_t),
                              provenance=provenance).validate()


def columnar_bundle(path, fmt, item_labels, source_labels, target_labels, **kwargs):
    source, target = data.split_domains(
        data.load_ratings(path, fmt), item_labels, source_labels, target_labels)
    return data.binarize_and_filter(source, target, **kwargs)


def outcome(build, path, *args, **kwargs):
    """('ok', bundle) or ('error', DataError message) of one pipeline."""
    try:
        return "ok", build(path, *args, **kwargs)
    except DataError as e:
        return "error", str(e)


# "10" and "9" sort one way as strings and the other as numbers; "a:" ends in
# a character of the "::" separator. Items route to source (S) or target (T)
# unless a draw reroutes them.
USERS = ["9", "10", "a:"]
ITEMS = {"1": {"S"}, "9": {"S"}, "10": {"T"}, "a:": {"T"}, "B": {"T"}}
PAD = st.sampled_from(["", " ", "\t", "\xa0", "\x1f"])


@st.composite
def rating_logs(draw):
    """(format, text, item labels) of a small rating log, sometimes with faults."""
    fmt = draw(st.sampled_from(["movielens-dat", "csv"]))
    sep = "::" if fmt == "movielens-dat" else ","

    def field(value):
        return draw(PAD) + value + draw(PAD)

    def good_line():
        if draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from(["", "   ", "\t"]))
        user, item = draw(st.sampled_from(USERS)), draw(st.sampled_from(list(ITEMS)))
        rating = draw(st.sampled_from("12345555"))
        parts = [field(user), field(item), field(rating)]
        kind = draw(st.sampled_from(["ts", "ts", "ts", "empty-ts", "minus-one", "three"]))
        if kind == "ts":
            parts.append(field(str(draw(st.integers(0, 10**12)))))
        elif kind == "empty-ts":
            parts.append(draw(PAD))
        elif kind == "minus-one":
            parts.append(field("-1"))
        return sep.join(parts)

    def bad_line():
        kind = draw(st.sampled_from(["malformed", "rating", "range", "ts", "ts-colon"]))
        user, item = draw(st.sampled_from(USERS)), draw(st.sampled_from(list(ITEMS)))
        if kind == "malformed":
            return sep.join([user] * draw(st.sampled_from([1, 2, 5])))
        if kind == "rating":
            return sep.join([user, item, draw(st.sampled_from(["x", "", "4.0"])), "1"])
        if kind == "range":
            return sep.join([user, item, draw(st.sampled_from(["0", "6", "-3"])), "1"])
        return sep.join([user, item, "5", "x7" if kind == "ts" else "7:"])

    lines = draw(st.lists(st.builds(good_line), min_size=8, max_size=40))
    if draw(st.integers(0, 3)) == 0:
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), bad_line())
    if fmt == "csv":
        lines.insert(0, draw(st.sampled_from(["user,item,rating,timestamp", " User ,Item,Rating"])))
    # a rerouted item goes to the other side, both (dropped), neither, or has no entry
    labels = {}
    for item, route in ITEMS.items():
        if draw(st.integers(0, 5)) == 0:
            route = draw(st.sampled_from([{"S"}, {"T"}, {"S", "T"}, {"X"}, None]))
        if route is not None:
            labels[item] = route
    return fmt, "\n".join(lines) + draw(st.sampled_from(["", "\n"])), labels


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


def assert_same_outcome(got, want, scratch_dir):
    """Two outcome() results agree: the same error, or equal bundles saved to equal bytes."""
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
        return
    a, b = got[1], want[1]
    for x, y in ((a.source, b.source), (a.target, b.target)):
        assert x.user_index == y.user_index and x.item_index == y.item_index
        assert [r.tolist() for r in row_list(x)] == [r.tolist() for r in row_list(y)]
        assert (x.ts is None) == (y.ts is None)
        if x.ts is not None:
            assert [t.tolist() for t in row_list(x, x.ts)] == \
                [t.tolist() for t in row_list(y, y.ts)]
    data.save_bundle(a, scratch_dir / "a.xdb")
    data.save_bundle(b, scratch_dir / "b.xdb")
    assert (scratch_dir / "a.xdb").read_bytes() == (scratch_dir / "b.xdb").read_bytes()


class TestIngestionOracle:
    @given(log=rating_logs(), threshold=st.sampled_from([1, 4, 4, 5]),
           min_target=st.sampled_from([0, 1, 2, 2, 3]),
           block=st.sampled_from([1, 2, 3, 7, 64, data.BLOCK]))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_line_reference(self, scratch_dir, log, threshold, min_target, block):
        fmt, text, labels = log
        path = scratch_dir / "r.log"
        path.write_text(text, encoding="latin-1")
        args = (str(path), fmt, labels, {"S"}, {"T"})
        kwargs = dict(threshold=threshold, min_target_positives=min_target)
        want = outcome(reference_bundle, *args, **kwargs)
        with patch.object(data, "BLOCK", block):
            got = outcome(columnar_bundle, *args, **kwargs)
        assert_same_outcome(got, want, scratch_dir)


# canonical ids: "9" and "10" sort one way as strings and the other as numbers
CANONICAL_IDS = st.one_of(st.sampled_from(["9", "10", "09", "x" * 16]),
                          st.text(ascii_letters + digits + "_.-", min_size=1, max_size=16))


@st.composite
def canonical_logs(draw):
    """(format, text, item labels) of a log whose every line is canonical."""
    fmt = draw(st.sampled_from(["movielens-dat", "csv"]))
    sep = "::" if fmt == "movielens-dat" else ","
    users = draw(st.lists(CANONICAL_IDS, min_size=1, max_size=6, unique=True))
    items = draw(st.lists(CANONICAL_IDS, min_size=2, max_size=8, unique=True))
    # timestamps of 0 (left empty) to 18 digits, leading zeros included
    line = st.tuples(st.sampled_from(users), st.sampled_from(items), st.sampled_from("12345"),
                     st.text(digits, max_size=18)).map(sep.join)
    lines = draw(st.lists(line, min_size=1, max_size=40))
    if fmt == "csv":
        lines.insert(0, "user,item,rating,timestamp")
    labels = {item: draw(st.sampled_from([{"S"}, {"T"}, {"T"}])) for item in items}
    return fmt, "\n".join(lines) + draw(st.sampled_from(["", "\n"])), labels


class TestCanonicalBlocks:
    @given(log=canonical_logs(), block=st.sampled_from([1, 5, 16, 64, 256, data.BLOCK]))
    @settings(deadline=None)  # the example count comes from the active profile
    def test_parsed_as_arrays_like_the_per_line_reference(self, scratch_dir, log, block):
        fmt, text, labels = log
        path = scratch_dir / "c.log"
        path.write_text(text, encoding="latin-1")
        args = (str(path), fmt, labels, {"S"}, {"T"})
        with patch.object(data, "BLOCK", block), \
                patch.object(data, "_parse_lines", wraps=data._parse_lines) as general:
            rows = rows_of(data.load_ratings(str(path), fmt))
            got = outcome(columnar_bundle, *args)
        assert not general.called
        assert rows == reference_log(str(path), fmt)
        assert_same_outcome(got, outcome(reference_bundle, *args), scratch_dir)

    @pytest.mark.parametrize("fmt", ["movielens-dat", "csv"])
    def test_benchmark_shaped_logs_never_reach_the_general_parser(self, tmp_path, scratch_dir,
                                                                  fmt):
        # ML-1M: numeric ids and 9-10 digit timestamps, grouped by user; Amazon:
        # 10-byte ids in random order, one timestamp in ten left empty
        rng = np.random.default_rng(0)
        n = 50_000
        user, item = rng.integers(1, 6041, n), rng.integers(1, 3953, n)
        rating, ts = rng.integers(1, 6, n), rng.integers(956_703_932, 1_046_454_590, n)
        if fmt == "movielens-dat":
            user.sort()
            names = [str(i) for i in range(1, 3953)]
            lines = [f"{u}::{i}::{r}::{t}" for u, i, r, t in zip(user, item, rating, ts)]
        else:
            names = [f"B{i:09X}" for i in range(1, 3953)]
            stamps = np.where(rng.random(n) < 0.1, "", ts.astype(str))
            lines = ["user,item,rating,timestamp"] + [
                f"A{u:09X},B{i:09X},{r},{t}" for u, i, r, t in zip(user, item, rating, stamps)]
        # one item in five is on both sides or neither, so the split drops its lines
        routes = [{"S"}, {"T"}, {"T"}, {"T"}, {"S", "T"}, {"X"}]
        labels = {name: routes[k] for name, k in zip(names, rng.integers(0, 6, len(names)))}
        path = write(tmp_path, "r.log", "\n".join(lines) + "\n")
        args = (path, fmt, labels, {"S"}, {"T"})
        with patch.object(data, "_parse_lines", wraps=data._parse_lines) as general:
            rows = rows_of(data.load_ratings(path, fmt))
            got = outcome(columnar_bundle, *args)
        assert not general.called
        assert rows == reference_log(path, fmt)
        assert got[0] == "ok"
        assert_same_outcome(got, outcome(reference_bundle, *args), scratch_dir)

    # the file's own size; unknown (0), as for a pipe; a file read past its size
    @pytest.mark.parametrize("size", [None, 0, 100])
    def test_columns_hold_no_unused_room(self, tmp_path, size):
        # the later lines are longer, so the room sized from the first blocks falls short
        lines = [f"u{k}::i{k % 7}::{1 + k % 5}::{k}" for k in range(300)]
        lines += [f"u{k:015d}::i{k % 7:015d}::{1 + k % 5}::{10 ** 17 + k}" for k in range(300)]
        path = write(tmp_path, "r.dat", "\n".join(lines) + "\n")
        stat = type("Stat", (), {"st_size": size})
        sized = data.os.fstat if size is None else (lambda fd: stat)
        with patch.object(data, "BLOCK", 256), patch.object(data.os, "fstat", sized):
            ratings = data.load_ratings(path, "movielens-dat")
        assert rows_of(ratings) == reference_log(path, "movielens-dat")
        for col in (ratings.user, ratings.item, ratings.rating, ratings.ts, ratings.has_ts):
            assert col.base is None and col.size == len(lines)


def blocks_of(path):
    """The lines of each block load_ratings reads from path at the patched BLOCK."""
    with open(path, "rb") as fh:
        return [block.decode("latin-1").splitlines() for block in data._blocks(fh)]


class TestIdRuns:
    """A log grouped by user repeats each user id for many lines in a row; the
    ids are looked up once per run, and runs cross block cuts."""

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("block", [64, 256, 4096, data.BLOCK])
    def test_runs_across_block_cuts_read_like_the_reference(self, tmp_path, split, block):
        # 700 lines per user, item runs of three
        lines = [f"{u}::i{k // 3 % 50}::{1 + k % 5}::{k}" for u in ("u7", "10", "9")
                 for k in range(700)]
        if split:
            lines.insert(350, "w1::i1::5::1")  # splits u7's lines into two runs
        path = write(tmp_path, "r.dat", "\n".join(lines) + "\n")
        with patch.object(data, "BLOCK", block), \
                patch.object(data, "_parse_lines", wraps=data._parse_lines) as general:
            rows = rows_of(data.load_ratings(path, "movielens-dat"))
            blocks = blocks_of(path)
        assert not general.called
        assert rows == reference_log(path, "movielens-dat")
        if len(blocks) > 1:
            assert any(len({x.split("::")[0] for x in b}) == 1 for b in blocks)


class TestHashCollisions:
    """With the hash's mixing word at zero an id's hash is its first 8 bytes, so
    two ids of 9-16 bytes that share them share a hash. A block holding both,
    or one while the cache holds the other, goes to the general parser."""

    ids = ("abcdefgh1", "abcdefgh22")

    def expected(self, blocks, column):
        """The blocks that hold a collision, in order: two ids of one hash in the
        block, or one whose hash the cache holds for another id."""
        cache, out = {}, []
        for lines in blocks:
            found = {x.split("::")[column] for x in lines}
            hashes = {x[:8] for x in found}
            if len(hashes) < len(found) or any(cache.get(x[:8], x) != x for x in found):
                out.append(lines)
            else:
                cache.update((x[:8], x) for x in found)
        return out

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("later", [False, True], ids=["one-block", "later-block"])
    def test_collision_blocks_alone_go_to_the_general_parser(self, tmp_path, column, later):
        def line(k, x=None):
            ids = [f"u{k % 3}", f"i{k % 4}"]
            ids[column] = x or ids[column]
            return "::".join([*ids, str(1 + k % 5), str(k)])

        lines = [line(k) for k in range(40)]
        one, two = self.ids
        if later:  # the second id first appears blocks after the first
            picks = {1: one, 2: one, 25: two, 33: one, 38: two}
        else:  # both ids in one block, and only there
            picks = {20: one, 21: two}
        for k, x in picks.items():
            lines[k] = line(k, x)
        path = write(tmp_path, "r.dat", "\n".join(lines) + "\n")
        with patch.object(data, "BLOCK", 64), patch.object(data, "_MIX", np.zeros(1, np.uint64)), \
                patch.object(data, "_parse_lines", wraps=data._parse_lines) as general:
            rows = rows_of(data.load_ratings(path, "movielens-dat"))
            blocks = blocks_of(path)
        want = self.expected(blocks, column)
        assert want and [c.args[1] for c in general.call_args_list] == want
        # the pair of one-block sits in that block
        assert later or len(want) == 1 and all(x in "\n".join(want[0]) for x in self.ids)
        assert rows == reference_log(path, "movielens-dat")


# canonical lines around the one under test; at BLOCK = 64 they fill several blocks
MIXED_LEAD = [f"u{k % 3}::{'st'[k % 2]}{k % 4}::{1 + k % 5}::{100 + k}" for k in range(12)]
MIXED_TAIL = ["u1::t1::5::900", "u2::s0::4::901"]


class TestMixedBlocks:
    """One non-canonical line in a later block: its block alone goes through the
    general parser, and the log reads as the per-line reference reads it."""

    @pytest.mark.parametrize("line", [
        "u9::t1::4::7\r",                      # a CRLF line end
        "u9\t::t1::4::7", "\xa0u9::t1::4::7",  # padding that strip() removes
        "u9::t1::\x1f4\x1f::7",                # padding that strip() removes, int() not
        "u9::t1::4::7\x85u8::t2::5::8",        # a line break of splitlines()
        "",                                   # a blank line
        "u9::t1::+4::7", "u9::t1::4::1_0",    # forms int() reads
        "u" + "9" * 16 + "::t1::4::7",        # a 17-byte id
        "u9::t1::4::1000000000000000000",     # a 19-digit timestamp
        "u9::t1::4::7:", "u9::t1::x::7", "u9::t1::6::7",  # bad lines
        "u9:t1:::4::7",                       # six ":" that do not pair into "::"
    ])
    @pytest.mark.parametrize("fault_after", [False, True])
    @pytest.mark.parametrize("fmt", ["movielens-dat", "csv"])
    def test_matches_per_line_reference(self, tmp_path, fmt, line, fault_after):
        lines = [*MIXED_LEAD, line, *MIXED_TAIL, *["u3::t3::x::1"] * fault_after]
        if fmt == "csv":
            lines = ["user,item,rating,timestamp"] + [x.replace("::", ",") for x in lines]
        path = tmp_path / "r.log"
        path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        with patch.object(data, "BLOCK", 64), \
                patch.object(data, "_parse_lines", wraps=data._parse_lines) as general:
            got = outcome(lambda p: rows_of(data.load_ratings(p, fmt)), str(path))
        assert got == outcome(reference_log, str(path), fmt)
        # a fault after it may sit in a block of its own
        assert general.call_count == 1 or fault_after and general.call_count == 2

    def test_timestamp_beyond_int64_is_bad(self, tmp_path):
        lines = [*MIXED_LEAD, "u9::t1::4::" + "9" * 20, *MIXED_TAIL]
        path = write(tmp_path, "r.dat", "\n".join(lines) + "\n")
        with patch.object(data, "BLOCK", 64), \
                pytest.raises(DataError, match=rf"r\.dat:13: bad timestamp '{'9' * 20}'$"):
            data.load_ratings(path, "movielens-dat")


def per_user_split(bundle, seed, policy="random", n_negatives=99):
    """(held_out, negatives) of the per-user loop: each user's row is checked,
    its pick drawn (or its first latest timestamp taken), then its negatives."""
    rng = named_rng(seed, "loo-split")
    target = bundle.target
    held, negatives = [], []
    for u, (a, b) in enumerate(zip(target.indptr[:-1], target.indptr[1:])):
        row = target.indices[a:b]
        if len(row) < 2:
            raise DataError(
                f"user {target.user_index[u]!r} has {len(row)} target positives, need >= 2")
        if policy == "latest":
            if target.ts is None:
                raise DataError("policy 'latest' requires timestamps")
            pick = int(np.argmax(target.ts[a:b]))
        else:
            pick = int(rng.integers(len(row)))
        held.append(row[pick])
        pool = np.setdiff1d(np.arange(target.n_items), row)
        if len(pool) < n_negatives:
            raise DataError(
                f"cannot sample {n_negatives} negatives from {len(pool)} non-interacted items")
        negatives.append(np.sort(rng.choice(pool, size=n_negatives, replace=False)))
    return (np.array(held, dtype=np.int64),
            np.array(negatives, dtype=np.int64).reshape(len(held), n_negatives))


@st.composite
def loo_bundles(draw):
    """Bundles whose target rows hold 0, 1 or 2 positives, or nearly the whole
    catalog, with or without timestamps (few distinct, so ties are common)."""
    n_items = draw(st.integers(2, 40))
    n_negatives = draw(st.integers(0, n_items))
    # mostly rows of 2 or 3, so that many bundles pass every check
    lengths = draw(st.lists(st.one_of(st.sampled_from([2, 2, 2, 3, 1, 0]), st.integers(0, 2).map(
        lambda d: n_items - n_negatives - 1 + d)), max_size=6))
    sizes = [min(max(n, 0), n_items) for n in lengths]
    rows = [sorted(draw(st.sets(st.integers(0, n_items - 1), min_size=n, max_size=n)))
            for n in sizes]
    ts = None
    if draw(st.booleans()):
        ts = [draw(st.lists(st.integers(0, 3), min_size=len(r), max_size=len(r))) for r in rows]
    users = [f"u{k}" for k in range(len(rows))]
    bundle = data.DatasetBundle(make_matrix("source", users, ["s0"], [[0]] * len(rows)),
                                make_matrix("target", users, [f"t{j}" for j in range(n_items)],
                                            rows, ts))
    return bundle, n_negatives


class TestLooSplit:
    def test_two_choice_case(self):
        bundle = make_toy_bundle(m=1, n_target=4, min_target=2, seed=5)
        bundle.target = with_rows(bundle.target, {0: [1, 3]})
        split = data.build_loo_split(bundle, seed=0, n_negatives=2)
        training = data.training_bundle(bundle, split)
        assert split.held_out[0] in (1, 3)
        assert list(row_list(training.target)[0]) == [3 if split.held_out[0] == 1 else 1]

    def test_determinism(self, toy_bundle):
        a = data.build_loo_split(toy_bundle, seed=77, n_negatives=1)
        b = data.build_loo_split(toy_bundle, seed=77, n_negatives=1)
        assert np.array_equal(a.held_out, b.held_out)
        assert np.array_equal(a.negatives, b.negatives)

    def test_latest_policy_takes_max_timestamp(self):
        bundle = make_toy_bundle(m=1, n_target=4, min_target=2)
        bundle.target = with_rows(bundle.target, {0: [0, 2]}, row_ts=[[10, 99]])
        split = data.build_loo_split(bundle, seed=0, policy="latest", n_negatives=2)
        assert split.held_out[0] == 2

    def test_latest_policy_takes_first_of_tied_timestamps(self):
        bundle = make_toy_bundle(m=2, n_target=6, min_target=2)
        bundle.target = with_rows(bundle.target, {0: [0, 2, 4], 1: [1, 3, 5]},
                                  row_ts=[[7, 99, 99], [99, 99, 7]])
        split = data.build_loo_split(bundle, seed=0, policy="latest", n_negatives=2)
        assert split.held_out.tolist() == [2, 1]

    def test_invariants_over_users(self, synthetic_bundle):
        split = data.build_loo_split(synthetic_bundle, seed=3)
        training = data.training_bundle(synthetic_bundle, split)
        for u in range(synthetic_bundle.m):
            assert split.held_out[u] not in row_list(training.target)[u]
            assert len(split.negatives[u]) == 99
            assert len(set(split.negatives[u].tolist())) == 99
            positives = set(row_list(synthetic_bundle.target)[u].tolist())
            assert positives.isdisjoint(split.negatives[u].tolist())

    def test_user_with_single_positive_named(self):
        bundle = make_toy_bundle(m=2, min_target=3)
        bundle.target = with_rows(bundle.target, {1: [0]})
        with pytest.raises(DataError, match="u1"):
            data.build_loo_split(bundle, seed=0, n_negatives=2)

    @given(case=loo_bundles(), seed=st.integers(0, 2**32 - 1),
           policy=st.sampled_from(data.LOO_POLICIES))
    @settings(deadline=None)
    def test_equals_per_user_loop(self, case, seed, policy):
        bundle, n_negatives = case
        got = outcome(data.build_loo_split, bundle, seed, policy, n_negatives)
        want = outcome(per_user_split, bundle, seed, policy, n_negatives)
        if want[0] == "error":
            assert got == want
        else:
            assert got[0] == "ok"
            pairs = ((got[1].held_out, want[1][0]), (got[1].negatives, want[1][1]))
            for have, expected in pairs:
                assert have.shape == expected.shape and have.dtype == expected.dtype
                assert have.tobytes() == expected.tobytes()

    def test_errors_name_the_first_failing_user(self):
        users = ["a", "b", "c"]
        bundle = data.DatasetBundle(
            make_matrix("source", users, ["s0"], [[0]] * 3),
            make_matrix("target", users, [f"t{j}" for j in range(6)],
                        [[0, 1], [2], [0, 1, 2, 3, 4]]))
        # b's row is too short before c's pool is too small
        with pytest.raises(DataError, match=r"^user 'b' has 1 target positives, need >= 2$"):
            data.build_loo_split(bundle, seed=0, n_negatives=2)
        with pytest.raises(DataError, match=r"^policy 'latest' requires timestamps$"):
            data.build_loo_split(bundle, seed=0, policy="latest", n_negatives=2)


def replayed_choice(rng, pool, k):
    """(the row the replay gives, what rng.choice(pool, k, replace=False)
    returns), the latter drawn from rng. The row is choice(pool, k,
    replace=False, shuffle=False) drawn from a copy of rng's state: Floyd's
    picks before the final shuffle. Past numpy's tail cut, where shuffle=False
    keeps Floyd's path up to k = pool // 20, it is choice's own tail order."""
    scratch = np.random.Generator(type(rng.bit_generator)())
    scratch.bit_generator.state = rng.bit_generator.state
    picks = rng.choice(pool, size=k, replace=False)
    if len(pool) > data.TAIL_POOL and k > len(pool) // data.TAIL_SHARE:
        return picks, picks
    return scratch.choice(pool, size=k, replace=False, shuffle=False), picks


def sequential_negatives(rows, n_items, k, rng, draws, lead):
    """(picks, rows, choices) of one call at a time: for each row,
    rng.integers(len(row)) when lead, then draws[u] calls rng.choice(pool, k,
    replace=False), each as the replay orders it and as choice returns it."""
    picks, out = [], []
    for row, n in zip(rows, draws):
        if lead:
            picks.append(int(rng.integers(len(row))))
        pool = np.setdiff1d(np.arange(n_items), row)
        out += [replayed_choice(rng, pool, k) for _ in range(n)]
    ordered, choices = (np.array([pair[i] for pair in out], dtype=np.int64).reshape(len(out), k)
                        for i in (0, 1))
    return np.array(picks, dtype=np.int64), ordered, choices


@st.composite
def sampler_cases(draw):
    """(rows, n_items, k, draws, lead, cells): rows with pools of different
    sizes over small catalogs, or pools of 10000 and 10001 items with k either
    side of numpy's cut from Floyd's algorithm to the tail shuffle."""
    lead = draw(st.booleans(), label="lead")
    if draw(st.booleans()):
        pop = draw(st.sampled_from([10000, 10001]))
        k = draw(st.sampled_from([pop // 50, pop // 50 + 1]))
        # one row at exactly pop, the others a little either side
        lengths = [3] + draw(st.lists(st.integers(1, 5), max_size=3))
        n_items = pop + 3
        cells = draw(st.sampled_from([1, 3 * n_items, data.SAMPLE_CELLS]))
    else:
        k = draw(st.one_of(st.sampled_from([0, 1, 2, 99, 201]), st.integers(0, 12)))
        n_items = k + draw(st.integers(1, 30))
        lengths = draw(st.lists(st.integers(int(lead), n_items - k), max_size=6))
        cells = draw(st.sampled_from([1, n_items, 3 * n_items, data.SAMPLE_CELLS]))
    rows = [sorted(draw(st.sets(st.integers(0, n_items - 1), min_size=n, max_size=n)))
            for n in lengths]
    draws = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    return rows, n_items, k, draws, lead, cells


def csr(rows):
    return np.cumsum([0, *map(len, rows)]), np.array([j for r in rows for j in r], dtype=np.int64)


class Recorder:
    """A generator that records each bounds array it draws."""
    def __init__(self, rng):
        self.rng, self.highs = rng, []

    def integers(self, low, high, **kwargs):
        self.highs.append(np.array(high))
        return self.rng.integers(low, high, **kwargs)


class TestSampleNegatives:
    def test_forced_selection(self):
        rng = named_rng(0, "x")
        out = data.sample_negatives([0, 1], [0], 100, 99, rng)
        assert sorted(out[0].tolist()) == list(range(1, 100))

    def test_k_zero(self):
        assert data.sample_negatives([0, 1], [0], 10, 0, named_rng(0, "x")).size == 0

    def test_insufficient_pool(self):
        with pytest.raises(DataError, match="cannot sample"):
            data.sample_negatives([0, 2], [0, 1], 10, 9, named_rng(0, "x"))

    @given(seed=st.integers(0, 2**16), n=st.integers(20, 60), npos=st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_never_overlaps_positives(self, seed, n, npos):
        rng = np.random.default_rng(seed)
        positives = np.sort(rng.choice(n, size=npos, replace=False))
        k = min(10, n - npos)
        out = data.sample_negatives([0, npos], positives, n, k, rng)[0]
        assert set(out.tolist()).isdisjoint(positives.tolist())
        assert len(set(out.tolist())) == k

    @given(seed=st.integers(0, 2**16), n=st.integers(20, 60), npos=st.integers(0, 10),
           k=st.integers(0, 10), size=st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_stack_equals_sequential_calls(self, seed, n, npos, k, size):
        positives = np.sort(np.random.default_rng(seed).choice(n, size=npos, replace=False))
        rng = named_rng(seed, "x")
        stacked = data.sample_negatives([0, npos], positives, n, k, rng, draws=size)
        # reference: one call per draw, each rebuilding its pool with setdiff1d
        ref_rng = named_rng(seed, "x")
        pool = np.setdiff1d(np.arange(n), positives)
        sequential = [replayed_choice(ref_rng, pool, k) if k else ([], [])
                      for _ in range(size)]
        assert stacked.shape == (size, k) and stacked.dtype == np.int64
        assert stacked.tolist() == [list(row) for row, _ in sequential]
        assert [sorted(row) for row in stacked.tolist()] == [sorted(c) for _, c in sequential]
        assert rng.random() == ref_rng.random()  # both consumed the same draws

    @given(case=sampler_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_replays_sequential_calls(self, case, seed):
        rows, n_items, k, draws, lead, cells = case
        indptr, indices = csr(rows)
        rng, ref_rng = named_rng(seed, "x"), named_rng(seed, "x")
        with patch.object(data, "SAMPLE_CELLS", cells):
            got = data.sample_negatives(indptr, indices, n_items, k, rng, draws, lead)
        picks, want, choices = sequential_negatives(rows, n_items, k, ref_rng, draws, lead)
        if lead:
            assert got[0].dtype == np.int64 and got[0].tolist() == picks.tolist()
            got = got[1]
        assert got.shape == want.shape and got.dtype == np.int64
        assert got.tolist() == want.tolist()
        assert np.sort(got, axis=1).tolist() == np.sort(choices, axis=1).tolist()
        assert rng.random() == ref_rng.random()  # both consumed the same draws

    def test_draws_a_chunk_of_calls_at_a_time(self):
        indptr, indices = csr([[0], [1, 2], [], [5]] * 5)
        rng = Recorder(named_rng(1, "x"))
        with patch.object(data, "SAMPLE_CELLS", 3 * 10):
            out = data.sample_negatives(indptr, indices, 10, 4, rng, draws=2)
        # 40 calls, 3 a chunk, each with Floyd's 4 draws and the shuffle's 3
        assert out.shape == (40, 4)
        assert [h.shape for h in rng.highs] == [(3, 7)] * 13 + [(1, 7)]
        pools = [9, 9, 8, 8, 10, 10, 9, 9] * 5
        want = [[pool - 4, pool - 3, pool - 2, pool - 1, 3, 2, 1] for pool in pools]
        assert np.concatenate(rng.highs).tolist() == want

    def test_calls_of_different_k_draw_their_bounds_end_to_end(self):
        # a row without calls keeps its lead draw, so the chunk's k differ
        indptr, indices = csr([[0], [1, 2], [3]])
        rng = Recorder(named_rng(1, "x"))
        data.sample_negatives(indptr, indices, 10, 3, rng, draws=[1, 0, 2], lead=True)
        # each unit: a lead slot, len(row) - 1 on a row's first unit and 0,
        # which draws nothing, after it; then, for a call, Floyd's pool - 3 ..
        # pool - 1 and the shuffle's 2, 1
        assert [h.tolist() for h in rng.highs] == [
            [0, 6, 7, 8, 2, 1, 1, 0, 6, 7, 8, 2, 1, 0, 6, 7, 8, 2, 1]]


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

    @pytest.mark.parametrize("fraction, left", [(0.95, "0 training and 8 test"),
                                                (0.05, "8 training and 0 test")])
    def test_split_leaving_a_side_without_users_rejected(self, fraction, left):
        bundle = make_toy_bundle(m=8)
        with pytest.raises(DataError, match=f"leaves {left} users"):
            data.cold_start_split(bundle, fraction, seed=0)
        # the nearest fractions that leave a user on both sides
        assert len(data.cold_start_split(bundle, 0.9, seed=0).train_users) == 1
        assert len(data.cold_start_split(bundle, 0.1, seed=0).test_users) == 1


def target_matrix(rows):
    return make_matrix("target", [f"u{k}" for k in range(len(rows))],
                       [f"t{j}" for j in range(8)], rows)


def per_row_degrade(mat, fraction_kept, seed):
    """(indptr, indices) of the row-by-row degradation: one choice over each
    row's items and one sort per row."""
    if fraction_kept == 1.0:
        return mat.indptr, mat.indices
    rng = named_rng(seed, f"degrade-{fraction_kept}")
    indptr = np.zeros(len(mat.indptr), dtype=np.int64)
    np.cumsum(np.ceil(fraction_kept * np.diff(mat.indptr)).astype(np.int64), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    for u in np.flatnonzero(np.diff(indptr)).tolist():
        row = mat.indices[mat.indptr[u]:mat.indptr[u + 1]]
        indices[indptr[u]:indptr[u + 1]] = np.sort(
            rng.choice(row, size=indptr[u + 1] - indptr[u], replace=False))
    return indptr, indices


@st.composite
def degrade_cases(draw):
    """(rows, n_items, fraction, cells): rows of up to 30 items, among them
    2-item rows that fraction 0.99 keeps whole, in one chunk or spread over
    several; or rows of 10000 and 10001 positions keeping n // 50 or
    n // 50 + 1, either side of numpy's cut from Floyd's algorithm to the
    tail shuffle, beside short rows, whose k then differ in one chunk."""
    if draw(st.booleans()):
        n_items = 10004
        lengths = draw(st.lists(st.sampled_from([10000, 10001]), min_size=1, max_size=2))
        # ceil(fraction * n) is n // 50 + extra for the first long row
        extra = draw(st.sampled_from([0, 1]))
        fraction = (lengths[0] // 50 + extra - 0.5) / lengths[0]
        rows = [sorted(set(range(n_items)) - draw(
            st.sets(st.integers(0, n_items - 1), min_size=n_items - n, max_size=n_items - n)))
            for n in lengths]
        rows += draw(st.lists(st.lists(st.integers(0, n_items - 1), unique=True).map(sorted),
                              max_size=3))
        cells = draw(st.sampled_from([1, 10001, data.SAMPLE_CELLS]))
    else:
        n_items = 30
        fraction = draw(st.one_of(st.sampled_from([0.0, 1.0, 0.25, 0.5, 0.75, 0.99]),
                                  st.floats(0.0, 1.0)))
        rows = draw(st.lists(st.one_of(
            st.lists(st.integers(0, n_items - 1), min_size=2, max_size=2, unique=True),
            st.lists(st.integers(0, n_items - 1), unique=True)).map(sorted), max_size=12))
        cells = draw(st.sampled_from([1, 2, 7, 30, 100, data.SAMPLE_CELLS]))
    return rows, n_items, fraction, cells


class TestDegradeRows:
    rows = [[0, 2, 5, 7], [1], [3, 4]]

    @settings(deadline=None)
    @given(case=degrade_cases(), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_row_loop(self, case, seed):
        rows, n_items, fraction, cells = case
        mat = make_matrix("target", [f"u{k}" for k in range(len(rows))],
                          [f"t{j}" for j in range(n_items)], rows)
        with patch.object(data, "SAMPLE_CELLS", cells):
            out = data.degrade_target_rows(mat, fraction, seed)
        indptr, indices = per_row_degrade(mat, fraction, seed)
        for got, want in ((out.indptr, indptr), (out.indices, indices)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_rows_draw_choice_bounds_end_to_end(self):
        # rows of 150, 1 and 0 positions keep k = 4, 1, 0 on Floyd's path; one
        # of 10001 keeps 201, past numpy's cut to the tail shuffle
        rows = [list(range(150)), [3], [], list(range(10001))]
        mat = make_matrix("target", [f"u{k}" for k in range(4)],
                          [f"t{j}" for j in range(10001)], rows)
        fraction = 200.5 / 10001
        recorders = []

        def recorded(seed, name):
            recorders.append(Recorder(named_rng(seed, name)))
            return recorders[-1]

        with patch.object(data, "named_rng", recorded):
            out = data.degrade_target_rows(mat, fraction, seed=2)
        # Floyd's pool - k .. pool - 1 and the shuffle's k - 1 .. 1, then the
        # tail shuffle's pool - 1 down to pool - k with no shuffle after it
        want = [146, 147, 148, 149, 3, 2, 1, 0, *range(10000, 10000 - 201, -1)]
        assert [h.tolist() for h in recorders[0].highs] == [want]
        assert np.diff(out.indptr).tolist() == [4, 1, 0, 201]

    def test_identity_fraction(self):
        out = data.degrade_target_rows(target_matrix(self.rows), 1.0, seed=0)
        assert all(np.array_equal(a, b) for a, b in zip(row_list(out), self.rows))

    def test_zero_fraction_empties_rows(self):
        out = data.degrade_target_rows(target_matrix(self.rows), 0.0, seed=0)
        assert all(r.size == 0 for r in row_list(out))

    def test_ceiling_keeps_one_of_four(self):
        out = data.degrade_target_rows(target_matrix([[0, 2, 5, 7]]), 0.25, seed=0)
        assert out.indices.size == 1 and out.indices[0] in (0, 2, 5, 7)

    def test_kept_items_are_subset(self):
        out = data.degrade_target_rows(target_matrix(self.rows), 0.5, seed=1)
        for kept, orig in zip(row_list(out), self.rows):
            assert set(kept.tolist()) <= set(orig)

    @pytest.mark.parametrize("fraction", [0.75, 0.5, 0.25, 0.1])
    def test_draws_match_per_row_reference(self, synthetic_bundle, fraction):
        out = data.degrade_target_rows(synthetic_bundle.target, fraction, seed=4)
        # reference: ceil(fraction * len) items drawn row by row from one stream
        rng = named_rng(4, f"degrade-{fraction}")
        expected = []
        for row in row_list(synthetic_bundle.target):
            keep = int(np.ceil(fraction * len(row)))
            expected.append(sorted(rng.choice(row, size=keep, replace=False)) if keep else [])
        assert [r.tolist() for r in row_list(out)] == expected
        assert out.ts is None and out.user_index == synthetic_bundle.target.user_index


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

    def test_bad_value_names_path_and_line(self, tmp_path):
        path = write(tmp_path, "aux.csv", "user,a,b\nu1,0.5,1\nu2,x,1\n")
        message = f"{path}:3: could not convert string to float: 'x'"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            data.load_aux_vectors(path, expected_dim=2)

    @pytest.mark.parametrize("raw, line", [
        (b"user,a,b\nu1,0.5,\xff1\n", 2),
        (b"\xffu1,0.5,1\n", 1),
        (b"u1,0.5,1\r\nu2,\xc3,1\r\n", 2),
        (b"u1,0.5,1\ru2,1,2\r\n\nu3,0.5,\x80\n", 4),
    ], ids=["lf", "first-byte", "crlf", "cr-and-blank"])
    def test_invalid_utf8_names_path_and_line(self, tmp_path, raw, line):
        # used to end in the decoder's bare message, without path or line
        path = tmp_path / "aux.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:{line}: 'utf-8' codec "
                                            rf"can't decode byte 0x[0-9a-f]{{2}} in position"):
            data.load_aux_vectors(path, expected_dim=2)

    def test_repeated_user_names_both_lines(self, tmp_path):
        path = write(tmp_path, "aux.csv", "u1,0.5,1\n\nu2,1,2\nu1,0.5,1\n")
        message = f"{path}:4: user 'u1' already listed on line 1"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            data.load_aux_vectors(path, expected_dim=2)

    def test_missing_user_gets_zero_vector(self, toy_bundle, tmp_path):
        path = write(tmp_path, "aux.csv", "u0,1.0,2.0\n")
        data.attach_aux(toy_bundle, data.load_aux_vectors(path, expected_dim=2))
        assert np.allclose(toy_bundle.aux_vectors[0], [1.0, 2.0])
        assert not toy_bundle.aux_vectors[1].any()
        assert toy_bundle.provenance["aux_missing_users"] == toy_bundle.m - 1


class TestBundleRoundTrip:
    def test_save_load_save_is_byte_identical(self, synthetic_bundle, tmp_path):
        split = data.build_loo_split(synthetic_bundle, seed=5)
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
        for a, b in zip(row_list(loaded.target), row_list(toy_bundle.target)):
            assert np.array_equal(a, b)
        assert np.allclose(loaded.aux_vectors, toy_bundle.aux_vectors)

    def test_aux_without_columns_rejected(self, toy_bundle, tmp_path):
        # used to load, and the aux variant then failed naming a flag train lacks
        toy_bundle.aux_vectors = np.zeros((toy_bundle.m, 0))
        path = tmp_path / "t.xdb"
        data.save_bundle(toy_bundle, path)
        message = (f"{path}: aux blob of shape [{toy_bundle.m}, 0] for aux_dim 0; "
                   "it must hold aux_dim >= 1 columns")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            data.load_bundle(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(aux_dim=2),
        lambda h: h.update(aux_dim=4),
        lambda h: h["blobs"][-1].update(shape=[3 * h["m"]]),  # the aux blob is last
    ], ids=["header-narrower", "header-wider", "blob-one-dimensional"])
    def test_aux_width_other_than_the_header_rejected(self, toy_bundle, tmp_path, edit):
        toy_bundle.aux_vectors = np.ones((toy_bundle.m, 3))
        path = tmp_path / "t.xdb"
        data.save_bundle(toy_bundle, path)
        rewrite_header(path, path, edit)
        with pytest.raises(DataError, match=r"aux blob of shape \[.*\] for aux_dim \d"):
            data.load_bundle(path)

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
    bundle.target = with_rows(bundle.target, {0: [-1, 2, 3]})


def _index_past_catalog(bundle, split):
    bundle.source = with_rows(bundle.source, {1: [0, bundle.source.n_items]})


def _unsorted_row(bundle, split):
    bundle.target = with_rows(bundle.target, {2: [3, 1, 4]})


def _repeated_item_in_row(bundle, split):
    bundle.target = with_rows(bundle.target, {2: [1, 1, 4]})


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
        split = data.build_loo_split(toy_bundle, seed=1, n_negatives=2)
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
        split = data.build_loo_split(synthetic_bundle, seed=1)
        view = data.training_bundle(synthetic_bundle, split)
        view_rows, rows = row_list(view.target), row_list(synthetic_bundle.target)
        for u in range(synthetic_bundle.m):
            assert split.held_out[u] not in view_rows[u]
            assert len(view_rows[u]) == len(rows[u]) - 1

    def test_restrict_users_keeps_alignment(self, synthetic_bundle):
        sub = data.restrict_users(synthetic_bundle, [3, 5, 8])
        assert sub.m == 3
        assert sub.source.user_index == [synthetic_bundle.source.user_index[u] for u in (3, 5, 8)]
        assert np.array_equal(row_list(sub.target)[1], row_list(synthetic_bundle.target)[5])


@st.composite
def csr_rows(draw):
    """Strictly increasing item rows over a small catalog, some of them empty."""
    n_items = draw(st.integers(1, 9))
    rows = draw(st.lists(st.sets(st.integers(0, n_items - 1)).map(sorted), min_size=1, max_size=8))
    return n_items, rows


class TestCsrOracles:
    """CSR array passes against per-row loops over the same rows."""

    @given(csr=csr_rows(), draw=st.data())
    @settings(max_examples=100, deadline=None)
    def test_to_dense_and_gather_match_row_loops(self, csr, draw):
        n_items, rows = csr
        mat = make_matrix("target", [f"u{k}" for k in range(len(rows))],
                          [f"t{j}" for j in range(n_items)], rows)
        users = draw.draw(st.lists(st.integers(0, len(rows) - 1), max_size=10), label="users")
        expected = np.zeros((len(users), n_items))
        for k, u in enumerate(users):
            expected[k, rows[u]] = 1.0
        assert np.array_equal(mat.to_dense(users), expected)
        assert np.array_equal(mat.to_dense(), mat.to_dense(range(len(rows))))
        indptr, at = data.gather_rows(mat.indptr, users)
        assert np.diff(indptr).tolist() == [len(rows[u]) for u in users]
        assert mat.indices[at].tolist() == [j for u in users for j in rows[u]]

    @given(csr=csr_rows())
    @settings(max_examples=100, deadline=None)
    def test_contains_matches_membership(self, csr):
        n_items, rows = csr
        mat = make_matrix("target", [f"u{k}" for k in range(len(rows))],
                          [f"t{j}" for j in range(n_items)], rows)
        users = np.arange(len(rows))[:, None]
        items = np.arange(n_items)[None, :]
        expected = [[j in rows[u] for j in range(n_items)] for u in range(len(rows))]
        assert mat.contains(users, items).tolist() == expected
