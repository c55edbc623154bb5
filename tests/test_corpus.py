import dataclasses
import gzip
import hashlib
import json
import os
import random
import re
import tempfile
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commhate import atomic, corpus
from commhate.corpus import (
    NEGATIVE,
    POSITIVE,
    Comment,
    CorpusSlice,
    LabeledDataset,
    Platform,
)


def _comment(i, body="some words here", community="c", **kw):
    return Comment(id=str(i), body=body, community=community, **kw)


def _slice(n, body="some words here", community="c"):
    return CorpusSlice(tuple(_comment(i, body, community) for i in range(n)))


def _load(path, **kwargs):
    """The comments ``iter_jsonl`` reads from ``path``, and how many lines it skipped."""
    skipped = []
    return CorpusSlice(corpus.iter_jsonl(path, on_skip=skipped.append, **kwargs)), len(skipped)


class TestComment:
    def test_requires_id_and_community(self):
        with pytest.raises(ValueError, match="id"):
            Comment(id="", body="x", community="c")
        with pytest.raises(ValueError, match="community"):
            Comment(id="1", body="x", community="")

    def test_deleted_sentinels_flagged(self):
        for body in ("[deleted]", "[removed]"):
            assert Comment(id="1", body=body, community="c").deleted

    def test_empty_body_requires_deleted_flag(self):
        with pytest.raises(ValueError, match="empty body"):
            Comment(id="1", body="", community="c")
        assert Comment(id="1", body="", community="c", deleted=True).deleted


class TestRecordMapping:
    def test_reddit_fields(self):
        c = corpus.comment_from_record(
            Platform.REDDIT, None,
            {"id": "abc", "body": "hi", "subreddit": "CoonTown",
             "created_utc": 1438387200, "author": "u1", "score": 5},
        )
        assert (c.id, c.community, c.created_at, c.author) == (
            "abc", "CoonTown", 1438387200, "u1"
        )
        assert c.platform is Platform.REDDIT

    def test_generic_community_fallbacks(self):
        for key in ("community", "subreddit", "subverse", "board"):
            c = corpus.comment_from_record(
                Platform.OTHER, None, {"id": "1", "body": "hi", key: "x"}
            )
            assert c.community == "x"

    def test_missing_body_rejected(self):
        with pytest.raises(ValueError, match="body"):
            corpus.comment_from_record(Platform.REDDIT, None, {"id": "1", "subreddit": "x"})

    def test_infinite_timestamp_is_malformed(self):
        with pytest.raises(ValueError, match="'created_utc' is out of range"):
            corpus.comment_from_record(
                Platform.REDDIT, None,
                {"id": "1", "body": "hi", "subreddit": "x", "created_utc": float("inf")},
            )

    @pytest.mark.parametrize("record", [
        {"id": "", "body": "hi", "subreddit": "out"},
        {"id": "1", "body": "", "subreddit": "out"},
        {"id": "1", "body": "hi", "subreddit": ""},
        {"id": "1", "body": "hi", "subreddit": "out", "created_utc": [1]},
        {"id": "1", "subreddit": "out"},
    ], ids=["empty-id", "empty-body", "empty-community", "list-timestamp", "no-body"])
    def test_record_outside_filter_is_checked_like_any_other(self, record):
        with pytest.raises((ValueError, TypeError)) as unfiltered:
            corpus.comment_from_record(Platform.REDDIT, None, record)
        with pytest.raises(type(unfiltered.value), match=re.escape(str(unfiltered.value))):
            corpus.comment_from_record(Platform.REDDIT, {"in"}, record)

    def test_wellformed_record_outside_filter_maps_to_none(self):
        for body in ("hi", "[deleted]"):
            record = {"id": "1", "body": body, "subreddit": "out"}
            assert corpus.comment_from_record(Platform.REDDIT, {"in"}, record) is None
            kept = corpus.comment_from_record(Platform.REDDIT, {"out"}, record)
            assert kept == corpus.comment_from_record(Platform.REDDIT, None, record)


class TestJsonlIO:
    def _write(self, path, lines):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def test_two_wellformed_lines(self, tmp_path):
        p = tmp_path / "c.jsonl"
        self._write(p, [
            json.dumps({"id": "1", "body": "a", "subreddit": "s"}),
            json.dumps({"id": "2", "body": "b", "subreddit": "s"}),
        ])
        sl, skipped = _load(str(p))
        assert [c.id for c in sl.comments] == ["1", "2"]
        assert skipped == 0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("", encoding="utf-8")
        sl, skipped = _load(str(p))
        assert len(sl) == 0 and skipped == 0

    def test_malformed_line_lenient_and_strict(self, tmp_path):
        p = tmp_path / "c.jsonl"
        self._write(p, [
            json.dumps({"id": "1", "body": "a", "subreddit": "s"}),
            "{not json",
            json.dumps({"id": "3", "body": "c", "subreddit": "s"}),
        ])
        sl, skipped = _load(str(p))
        assert [c.id for c in sl.comments] == ["1", "3"]
        assert skipped == 1
        with pytest.raises(ValueError, match=r":2:"):
            _load(str(p), strict=True)

    def test_community_filter(self, tmp_path):
        p = tmp_path / "c.jsonl"
        self._write(p, [
            json.dumps({"id": "1", "body": "a", "subreddit": "keep"}),
            json.dumps({"id": "2", "body": "b", "subreddit": "drop"}),
        ])
        sl, _ = _load(str(p), community_filter={"keep"})
        assert [c.community for c in sl.comments] == ["keep"]

    def test_gzip_round_trip(self, tmp_path):
        original = CorpusSlice(
            tuple(
                Comment(id=str(i), body=f"body {i} é", community="s",
                        platform=Platform.REDDIT, created_at=i, author=f"u{i}")
                for i in range(5)
            ),
        )
        p = tmp_path / "c.jsonl.gz"
        corpus.write_jsonl(original, str(p))
        with gzip.open(p, "rt", encoding="utf-8") as fh:
            assert len(fh.readlines()) == 5
        loaded, skipped = _load(str(p), platform=Platform.REDDIT)
        assert skipped == 0
        for a, b in zip(original.comments, loaded.comments):
            assert (a.id, a.body, a.community, a.created_at, a.author) == (
                b.id, b.body, b.community, b.created_at, b.author
            )

    def test_plain_round_trip_identity(self, tmp_path):
        original = _slice(4)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        corpus.write_jsonl(original, str(p1))
        loaded, _ = _load(str(p1), platform=Platform.OTHER)
        corpus.write_jsonl(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_streaming_is_lazy(self, tmp_path):
        p = tmp_path / "c.jsonl"
        self._write(p, [
            json.dumps({"id": str(i), "body": "b", "subreddit": "s"})
            for i in range(100)
        ])
        it = corpus.iter_jsonl(str(p))
        assert next(it).id == "0"  # consumes one line, not the file

    @pytest.mark.parametrize("name", ["c.jsonl", "c.jsonl.gz"])
    @pytest.mark.parametrize("bad", [
        b"\xff\xfe\n",
        b'{"id": "2", "body": "\xe9t\xe9", "subreddit": "s"}\n',
        b'{"id": "2", "body": "b", "subreddit": "s", "created_utc": 1e400}\n',
        b'{"id": "2", "body": "b", "subreddit": "s", "created_utc": -1e400}\n',
    ], ids=["bom-bytes", "latin-1-body", "inf-timestamp", "minus-inf-timestamp"])
    def test_bad_line_is_one_malformed_record(self, tmp_path, name, bad):
        # Invalid UTF-8 and a timestamp beyond int range each cost one line:
        # lenient mode skips it and reads on, strict mode names path:line.
        good = [json.dumps({"id": i, "body": "ok", "subreddit": "s"}).encode() + b"\n"
                for i in ("1", "3")]
        blob = good[0] + bad + good[1]
        p = tmp_path / name
        p.write_bytes(gzip.compress(blob) if name.endswith(".gz") else blob)
        skipped_lines = []
        kept = list(corpus.iter_jsonl(str(p), on_skip=skipped_lines.append))
        assert [c.id for c in kept] == ["1", "3"]
        assert skipped_lines == [2]
        with pytest.raises(ValueError, match=rf"{name}:2: malformed record"):
            list(corpus.iter_jsonl(str(p), strict=True))

    @pytest.mark.parametrize("field,value,reason", [
        ("body", ["kill", "them"], "'body' must be a string, got ['kill', 'them']"),
        ("subreddit", ["a"], "'subreddit' must be a string, got ['a']"),
        ("subreddit", 0, "'subreddit' must be a string, got 0"),
        ("author", {"n": 1}, "'author' must be a string, got {'n': 1}"),
        ("id", True, "'id' must be a string or an integer, got True"),
        ("id", False, "'id' must be a string or an integer, got False"),
        ("created_utc", True, "'created_utc' must be a number or an integer string, got True"),
    ], ids=["body", "community", "falsy-community", "author", "id", "falsy-id", "created"])
    def test_ill_typed_field_is_one_malformed_record(self, tmp_path, field, value, reason):
        # A field of the wrong kind is refused, not coerced with str() or
        # int() nor passed over for the next community key, and before the
        # community filter, so the skip count does not depend on the filter.
        good = {"id": "1", "body": "ok", "subreddit": "s", "community": "s", "author": "u",
                "created_utc": 5}
        p = tmp_path / "c.jsonl"
        self._write(p, [json.dumps(r) for r in (good, {**good, "id": "2", field: value},
                                                {**good, "id": "3"})])
        for communities in (None, {"s"}, {"other"}):
            skipped_lines = []
            kept = list(corpus.iter_jsonl(str(p), communities, on_skip=skipped_lines.append))
            assert [c.id for c in kept] == ([] if communities == {"other"} else ["1", "3"])
            assert skipped_lines == [2]
        with pytest.raises(ValueError, match=re.escape(
                f"{p}:2: malformed record: record field {reason}")):
            list(corpus.iter_jsonl(str(p), strict=True))

    def test_integer_ids_are_kept_as_strings(self, tmp_path):
        # 0 is an integer id like any other, not a missing one.
        p = tmp_path / "c.jsonl"
        self._write(p, [json.dumps({"id": i, "body": "x", "community": "c"}) for i in (0, 7)])
        skipped_lines = []
        kept = list(corpus.iter_jsonl(str(p), on_skip=skipped_lines.append))
        assert [c.id for c in kept] == ["0", "7"]
        assert skipped_lines == []

    def test_truncated_gzip_keeps_complete_lines(self, tmp_path):
        rows = [json.dumps({"id": str(i), "body": f"body {i} " * 8, "subreddit": "s"})
                for i in range(2000)]
        blob = gzip.compress(("\n".join(rows) + "\n").encode())
        p = tmp_path / "cut.jsonl.gz"
        p.write_bytes(blob[: len(blob) // 2])
        skipped_lines = []
        kept = list(corpus.iter_jsonl(str(p), on_skip=skipped_lines.append))
        assert 0 < len(kept) < len(rows)
        assert [c.id for c in kept] == [str(i) for i in range(len(kept))]
        assert skipped_lines == [len(kept) + 1]
        with pytest.raises(ValueError, match=rf"cut.jsonl.gz: .*truncated after line {len(kept)}:"):
            list(corpus.iter_jsonl(str(p), strict=True))

    @pytest.mark.parametrize("damage", ["deflate", "crc"])
    def test_corrupt_gzip_keeps_complete_lines(self, tmp_path, damage):
        rows = [json.dumps({"id": str(i), "body": f"body {i} " * 8, "subreddit": "s"})
                for i in range(400)]
        intact = gzip.compress(("\n".join(rows[:300]) + "\n").encode())
        tail = bytearray(gzip.compress(("\n".join(rows[300:]) + "\n").encode()))
        if damage == "deflate":
            # A second gzip member whose first block has the reserved type 11:
            # zlib.error once the first member's 300 lines are read.
            tail[10] |= 0b110
            n_kept, error = 300, "invalid block type"
        else:
            for i in range(len(tail) - 8, len(tail)):  # CRC32 and ISIZE
                tail[i] ^= 0xFF
            n_kept, error = 400, "CRC check failed"
        p = tmp_path / "bad.jsonl.gz"
        p.write_bytes(intact + bytes(tail))
        skipped_lines = []
        kept = list(corpus.iter_jsonl(str(p), on_skip=skipped_lines.append))
        assert [c.id for c in kept] == [str(i) for i in range(n_kept)]
        assert skipped_lines == [n_kept + 1]
        with pytest.raises(ValueError, match=rf"bad.jsonl.gz: compressed stream corrupt "
                                             rf"after line {n_kept}: .*{error}"):
            list(corpus.iter_jsonl(str(p), strict=True))

    def test_blank_and_crlf_lines(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_bytes(b'{"id": "1", "body": "a", "subreddit": "s"}\r\n'
                      b"  \r\n\n"
                      b'{"id": "2", "body": "b\xc3\xa9", "subreddit": "s"}\n')
        sl, skipped = _load(str(p))
        assert [(c.id, c.body) for c in sl.comments] == [("1", "a"), ("2", "b\u00e9")]
        assert skipped == 0


_BIG = "__1e400__"  # stands for the JSON number 1e400, which parses as inf
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _mostly(*good):
    """One of ``good`` three times in four, any JSON value otherwise."""
    return st.one_of(*[st.sampled_from(good)] * 3, _JSON)


def _drop(record, key):
    record.pop(key, None)
    return json.dumps(record).replace(f'"{_BIG}"', "1e400").encode()


_RECORDS = st.builds(
    _drop,
    st.fixed_dictionaries(
        {"id": _mostly("1", "x", ""), "body": _mostly("hi", "", "[deleted]", "[removed]"),
         "subreddit": _mostly("a", "b", "c", "")},
        optional={"community": _mostly("a", "b"), "author": _mostly("u", ""),
                  "created_utc": _mostly(1, _BIG, [1], "7", None)},
    ),
    st.sampled_from([None, None, None, "id", "body", "subreddit"]),
)
_LINES = st.lists(
    _RECORDS | _JSON.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=12)
    | st.sampled_from([b"", b"  ", b"[" * 100_000, b"{broken"]),
    max_size=8,
)


def _scan(path, communities=None, strict=False):
    """(comments, skipped line numbers, strict-mode error or None)."""
    skipped = []
    try:
        kept = list(corpus.iter_jsonl(path, communities, strict=strict,
                                      on_skip=skipped.append))
    except ValueError as exc:
        assert strict
        return None, skipped, str(exc)
    return kept, skipped, None


def _valid_comment(**fields):
    """A Comment of these fields, or None where Comment refuses them."""
    try:
        return Comment(**fields)
    except ValueError:
        return None


class TestWriteJsonl:
    """``write_jsonl`` writes only comments that its own reader reads back equal."""

    @pytest.mark.parametrize("kwargs,error,message", [
        ({"created_at": True, "author": None}, TypeError,
         "comment '1': created_at True is not an int"),
        ({"created_at": 1.5}, TypeError, "comment '1': created_at 1.5 is not an int"),
        ({"author": None}, TypeError, "first argument must be a string, not NoneType"),
        ({"deleted": True}, ValueError,
         "comment '1': a deleted body must be [deleted]/[removed]"),
    ], ids=["bool-created-null-author", "float-created", "null-author", "deleted-flag"])
    def test_comment_that_would_not_read_back_raises(self, tmp_path, kwargs, error, message):
        comments = [_comment(0), Comment(id="1", body="hi there", community="c", **kwargs)]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            corpus.write_jsonl(comments, str(tmp_path / "c.jsonl"))
        assert os.listdir(tmp_path) == []

    @settings(max_examples=100, deadline=None)
    @given(comments=st.lists(st.builds(
        _valid_comment,
        id=st.text(max_size=6),
        body=st.text(max_size=12) | st.sampled_from(["[deleted]", "[removed]"]),
        community=st.text(max_size=6),
        created_at=st.integers(-2**70, 2**70) | st.sampled_from([True, 0.5]),
        author=st.text(max_size=4) | st.none(),
        deleted=st.booleans(),
    ).filter(bool), max_size=5), platform=st.sampled_from(list(Platform)), gz=st.booleans())
    def test_every_comment_written_reads_back_equal(self, comments, platform, gz):
        comments = [dataclasses.replace(c, platform=platform) for c in comments]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.jsonl.gz" if gz else "c.jsonl")
            try:
                assert corpus.write_jsonl(comments, path) == len(comments)
            except (TypeError, ValueError):
                assert not os.listdir(tmp)
                return
            loaded, skipped = _load(path, platform=platform)
        assert (list(loaded), skipped) == (comments, 0)


class TestIngestFilterFuzz:
    @given(_LINES, st.sets(st.sampled_from(["a", "b", "c", "d"])))
    @settings(max_examples=200, deadline=None)
    def test_filter_matches_unfiltered_scan(self, lines, communities):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "dump.jsonl")
            with open(path, "wb") as fh:
                fh.write(b"\n".join(line.replace(b"\n", b" ") for line in lines))
            kept, skipped, _ = _scan(path)
            kept_f, skipped_f, _ = _scan(path, communities)
            assert skipped_f == skipped
            assert kept_f == [c for c in kept if c.community in communities]
            for filt in (None, communities):
                strict_kept, _, error = _scan(path, filt, strict=True)
                if skipped:
                    assert error.startswith(f"{path}:{skipped[0]}: malformed record: ")
                else:
                    assert strict_kept == (kept if filt is None else kept_f)


class TestSampling:
    def test_exhaustive_sample_returns_all(self):
        items = list(range(1000))
        out = corpus.sample_without_replacement(items, 1000, random.Random(1))
        assert sorted(out) == items

    def test_deterministic_under_seed(self):
        items = list(range(200))
        a = corpus.sample_without_replacement(items, 50, random.Random(9))
        b = corpus.sample_without_replacement(items, 50, random.Random(9))
        c = corpus.sample_without_replacement(items, 50, random.Random(10))
        assert a == b
        assert a != c

    @given(st.integers(0, 2**32), st.integers(1, 50))
    @settings(max_examples=30)
    def test_sample_without_replacement_is_uniform_subset(self, seed, n):
        items = list(range(60))
        rng = random.Random(seed)
        out = corpus.sample_without_replacement(items, n, rng)
        assert len(out) == n
        assert len(set(out)) == n
        assert set(out) <= set(items)


class TestBuildBalanced:
    def test_downsamples_majority(self):
        ds, dropped = corpus.build_balanced(_slice(100), _slice(500), seed=0)
        assert ds.counts() == (100, 100)
        assert dropped == 0

    def test_drop_tally_counts_empty_after_preprocess(self):
        pos = CorpusSlice(
            tuple(_comment(i) for i in range(8))
            + (_comment("e1", body="the 123"), _comment("e2", body="!!!")),
        )
        ds, dropped = corpus.build_balanced(pos, _slice(10), seed=0)
        assert ds.counts() == (8, 8)
        assert dropped == 2

    def test_deleted_comments_never_enter_dataset(self):
        pos = CorpusSlice(
            tuple(_comment(i) for i in range(5))
            + (_comment("d", body="[deleted]"),),
        )
        ds, dropped = corpus.build_balanced(pos, _slice(5), seed=0)
        assert dropped == 1
        assert all(cid != "d" for cid, _ in ds.provenance)

    def test_empty_side_error(self):
        empty = CorpusSlice((_comment("x", body="the the"),))
        with pytest.raises(ValueError, match="non-empty"):
            corpus.build_balanced(empty, _slice(5), seed=0)

    def test_deterministic(self):
        a, _ = corpus.build_balanced(_slice(30), _slice(80), seed=4)
        b, _ = corpus.build_balanced(_slice(30), _slice(80), seed=4)
        assert a == b

    def test_sides_may_be_one_shot_iterators(self):
        pos = [_comment(f"p{i}", body=f"alpha{i} beta") for i in range(12)]
        pos.append(_comment("d", body="[deleted]"))
        neg = [_comment(f"n{i}", body=f"gamma{i} delta") for i in range(30)]
        neg.append(_comment("e", body="the 123"))
        for seed in (0, 5):
            assert corpus.build_balanced(iter(pos), iter(neg), seed=seed) == (
                corpus.build_balanced(CorpusSlice(pos), CorpusSlice(neg), seed=seed))


class TestTokenize:
    def test_reads_any_iterable_once_into_rows(self):
        comments = [_comment(1, body="Cats and DOGS"), _comment(2, body="[removed]"),
                     _comment(3, body="the 123"), _comment(4, body="dogs", community="d")]
        rows, dropped = corpus.tokenize(c for c in comments)
        assert (rows, dropped) == corpus.tokenize(comments)
        assert rows == [("1", "c", ["cats", "dogs"]), ("4", "d", ["dogs"])]
        assert dropped == 2
        assert not any(isinstance(field, Comment) for row in rows for field in row)


class TestImbalanced:
    @staticmethod
    def _dataset(n_pos, n_neg):
        return LabeledDataset(
            tuple((f"t{i}",) for i in range(n_pos + n_neg)),
            (POSITIVE,) * n_pos + (NEGATIVE,) * n_neg,
            tuple((str(i), "c") for i in range(n_pos + n_neg)),
        )

    def test_exact_ratio(self):
        ds = corpus.imbalanced_subset(self._dataset(50, 600), ratio=10)
        assert ds.counts() == (50, 500)

    def test_insufficient_negatives_error_names_counts(self):
        with pytest.raises(ValueError) as exc:
            corpus.imbalanced_subset(self._dataset(50, 10000), ratio=1000)
        assert "50000" in str(exc.value) and "10000" in str(exc.value)

    def test_ratio_one_matches_balanced_counts(self):
        ds = corpus.imbalanced_subset(self._dataset(40, 90), ratio=1)
        assert ds.counts() == (40, 40)

    def test_dataset_level_subset(self):
        big = self._dataset(20, 300)
        small = corpus.imbalanced_subset(big, 5, seed=1)
        assert small.counts() == (20, 100)
        assert set(small.provenance) <= set(big.provenance)
        assert small.documents[:20] == big.documents[:20]  # every positive kept
        with pytest.raises(ValueError, match="needs"):
            corpus.imbalanced_subset(self._dataset(20, 20), 3)


class TestKfold:
    def _dataset(self, n_pos, n_neg):
        docs = tuple(("tok",) for _ in range(n_pos + n_neg))
        labels = (POSITIVE,) * n_pos + (NEGATIVE,) * n_neg
        prov = tuple((str(i), "c") for i in range(n_pos + n_neg))
        return LabeledDataset(docs, labels, prov)

    def test_partition_100_k10(self):
        ds = self._dataset(50, 50)
        splits = corpus.kfold_split(ds, 10, seed=0)
        all_test = [i for _, test in splits for i in test]
        assert sorted(all_test) == list(range(100))
        assert all(len(test) == 10 for _, test in splits)
        for train, test in splits:
            assert set(train) & set(test) == set()
            assert sorted(set(train) | set(test)) == list(range(100))

    def test_sizes_105_k10(self):
        ds = self._dataset(53, 52)
        sizes = sorted(len(test) for _, test in corpus.kfold_split(ds, 10, seed=3))
        assert sizes == [10] * 5 + [11] * 5

    def test_stratification_balanced(self):
        ds = self._dataset(50, 50)
        for _, test in corpus.kfold_split(ds, 10, seed=7):
            labels = [ds.labels[i] for i in test]
            assert labels.count(POSITIVE) == 5
            assert labels.count(NEGATIVE) == 5

    @given(st.integers(2, 10), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_partition_property(self, k, seed):
        ds = self._dataset(17, 23)
        splits = corpus.kfold_split(ds, k, seed=seed)
        all_test = sorted(i for _, test in splits for i in test)
        assert all_test == list(range(40))
        sizes = [len(test) for _, test in splits]
        assert max(sizes) - min(sizes) <= 1
        # class ratio within one item per class of the dataset's
        for _, test in splits:
            labels = [ds.labels[i] for i in test]
            n_pos = labels.count(POSITIVE)
            expected = 17 * len(test) / 40
            assert abs(n_pos - expected) <= 1

    def test_k_exceeds_size_error(self):
        with pytest.raises(ValueError, match="exceeds"):
            corpus.kfold_split(self._dataset(2, 2), 5)

    def test_deterministic(self):
        ds = self._dataset(30, 30)
        assert corpus.kfold_split(ds, 5, seed=2) == corpus.kfold_split(ds, 5, seed=2)
        assert corpus.kfold_split(ds, 5, seed=2) != corpus.kfold_split(ds, 5, seed=3)


# Strings json escapes ('"', '\\', U+0000-U+001F), passes through with
# ensure_ascii=False (U+007F, U+2028/U+2029, astral), and plain text. Lone
# surrogates are not UTF-8; a test of their own covers them.
_ROW_TEXT = st.text(st.one_of(
    st.sampled_from('"\\\x7f\u2028\u2029é中\U0001f600\U00010000'),
    st.characters(max_codepoint=0x1F), st.characters(exclude_categories=("Cs",))), max_size=6)


def _dumps_write(ds, path):
    """write_dataset as first written, one json encode per row."""
    atomic.write_jsonl(path, (
        {"tokens": list(tokens), "label": label, "id": cid, "community": community}
        for tokens, label, (cid, community) in zip(ds.documents, ds.labels, ds.provenance)))


def _dumps_fingerprint(ds):
    """dataset_fingerprint as first written, one json.dumps per row."""
    h = hashlib.sha256()
    for tokens, label, (cid, community) in zip(ds.documents, ds.labels, ds.provenance):
        row = json.dumps(
            [list(tokens), label, cid, community], ensure_ascii=False, separators=(",", ":")
        )
        h.update(row.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class TestDatasetPersistence:
    def _dataset(self):
        return LabeledDataset(
            (("a", "b"), ("c",), ("d", "e")),
            (POSITIVE, NEGATIVE, POSITIVE),
            (("1", "x"), ("2", "y"), ("3", "x")),
        )

    def test_round_trip(self, tmp_path):
        ds = self._dataset()
        p = tmp_path / "ds.jsonl"
        corpus.write_dataset(ds, str(p))
        loaded = corpus.load_dataset(str(p))
        assert loaded.documents == ds.documents
        assert loaded.labels == ds.labels
        assert loaded.provenance == ds.provenance

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"tokens": ["a"], "label": "positive", "id": "1", '
                     '"community": "c"}\n{"oops": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r":2:"):
            corpus.load_dataset(str(p))

    @pytest.mark.parametrize("fields,reason", [
        ({"tokens": "hate"}, "field 'tokens' must be a list of strings"),
        ({"tokens": {"a": 1}}, "field 'tokens' must be a list of strings"),
        ({"tokens": ["a", 1]}, "field 'tokens' must be a list of strings"),
        ({"id": None}, "field 'id' must be a string, got None"),
        ({"label": 1}, "field 'label' must be a string, got 1"),
        ({"community": ["c"]}, "field 'community' must be a string, got ['c']"),
    ], ids=["string-tokens", "object-tokens", "non-string-token", "null-id", "int-label",
            "list-community"])
    def test_ill_typed_row_names_line(self, tmp_path, fields, reason):
        row = {"tokens": ["b"], "label": "negative", "id": "2", "community": "c", **fields}
        p = tmp_path / "ds.jsonl"
        p.write_text('{"tokens": ["a"], "label": "positive", "id": "1", "community": "c"}\n'
                     + json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            corpus.load_dataset(str(p))
        assert str(exc.value) == f"{p}:2: malformed record: {reason}"

    @pytest.mark.parametrize("bad,reason", [
        (b"[" * 100_000, "maximum recursion depth exceeded"),
        (b'{"tokens": ["\xff"], "label": "negative", "id": "2", "community": "c"}',
         "'utf-8' codec can't decode"),
    ], ids=["deep-nesting", "non-utf8"])
    def test_undecodable_row_names_line(self, tmp_path, bad, reason):
        p = tmp_path / "ds.jsonl"
        p.write_bytes(b'{"tokens": ["a"], "label": "positive", "id": "1", '
                      b'"community": "c"}\n' + bad + b"\n")
        with pytest.raises(ValueError) as exc:
            corpus.load_dataset(str(p))
        assert str(exc.value).startswith(f"{p}:2: malformed record: {reason}")

    @given(st.lists(st.tuples(st.lists(_ROW_TEXT, max_size=4), st.sampled_from([POSITIVE, NEGATIVE]),
                              st.tuples(_ROW_TEXT, _ROW_TEXT)), max_size=4))
    @settings(max_examples=150)
    def test_row_text_equals_json_dumps(self, rows):
        ds = LabeledDataset(*zip(*rows)) if rows else LabeledDataset((), (), ())
        assert corpus.dataset_fingerprint(ds) == _dumps_fingerprint(ds)
        with tempfile.TemporaryDirectory() as tmp:
            new, old = os.path.join(tmp, "new.jsonl"), os.path.join(tmp, "old.jsonl")
            corpus.write_dataset(ds, new)
            _dumps_write(ds, old)
            with open(new, encoding="utf-8", newline="") as a, \
                    open(old, encoding="utf-8", newline="") as b:
                assert a.read().split("\n") == b.read().split("\n")

    @pytest.mark.parametrize("row", [
        (("a", "x\ud800y"), POSITIVE, ("1", "c")),
        (("a",), NEGATIVE, ("\udfff", "c")),
        (("a",), POSITIVE, ("1", "é\udbff")),
    ], ids=["token", "id", "community"])
    def test_lone_surrogate_raises_as_json_dumps_did(self, tmp_path, row):
        ds = LabeledDataset(*zip(row))
        errors = []
        for fingerprint, write in ((corpus.dataset_fingerprint, corpus.write_dataset),
                                   (_dumps_fingerprint, _dumps_write)):
            with pytest.raises(UnicodeEncodeError) as hashed:
                fingerprint(ds)
            with pytest.raises(UnicodeEncodeError) as written:
                write(ds, str(tmp_path / "ds.jsonl"))
            errors.append((str(hashed.value), str(written.value)))
        assert errors[0] == errors[1]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("documents,labels,provenance", [
        ((("a", 1),), (POSITIVE,), (("1", "c"),)),
        ((("a",),), (1,), (("1", "c"),)),
        ((("a",),), (POSITIVE,), ((1, "c"),)),
        ((("a",),), (POSITIVE,), (("1", None),)),
    ], ids=["token", "label", "id", "community"])
    def test_non_string_field_raises_type_error(self, tmp_path, documents, labels, provenance):
        # LabeledDataset refuses a label outside POSITIVE/NEGATIVE, so a
        # stand-in with the same three fields carries the int label.
        ds = types.SimpleNamespace(documents=documents, labels=labels, provenance=provenance)
        with pytest.raises(TypeError):
            corpus.dataset_fingerprint(ds)
        with pytest.raises(TypeError):
            corpus.write_dataset(ds, str(tmp_path / "ds.jsonl"))
        assert os.listdir(tmp_path) == []

    def test_fingerprint_stable_and_sensitive(self):
        ds = self._dataset()
        assert corpus.dataset_fingerprint(ds) == corpus.dataset_fingerprint(ds)
        other = LabeledDataset(
            ds.documents, (NEGATIVE, POSITIVE, POSITIVE), ds.provenance
        )
        assert corpus.dataset_fingerprint(ds) != corpus.dataset_fingerprint(other)


class TestLabeledDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            LabeledDataset((("a",),), (POSITIVE, NEGATIVE), (("1", "c"),))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label"):
            LabeledDataset((("a",),), ("maybe",), (("1", "c"),))

    def test_subset_preserves_alignment(self):
        ds = LabeledDataset(
            (("a",), ("b",), ("c",)),
            (POSITIVE, NEGATIVE, POSITIVE),
            (("1", "x"), ("2", "y"), ("3", "z")),
        )
        sub = ds.subset([2, 0])
        assert sub.documents == (("c",), ("a",))
        assert sub.labels == (POSITIVE, POSITIVE)
        assert sub.provenance == (("3", "z"), ("1", "x"))

    def test_shuffle_labels_preserves_marginals(self, shuffle_labels):
        ds = LabeledDataset(
            tuple((f"t{i}",) for i in range(20)),
            (POSITIVE,) * 8 + (NEGATIVE,) * 12,
            tuple((str(i), "c") for i in range(20)),
        )
        shuffled = shuffle_labels(ds, seed=3)
        assert shuffled.counts() == ds.counts()
        assert shuffled.documents == ds.documents
        assert shuffled.labels != ds.labels
