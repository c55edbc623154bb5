"""The benchmark's input generator: deterministic per seed, varied across
seeds, and its recorded counts match the files it wrote.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import gzip
import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gen  # noqa: E402

DUMP_SIZES = {"train": 3000, "heldout": 1000}


def _files(top):
    return {name: open(os.path.join(top, name), "rb").read() for name in sorted(os.listdir(top))}


def test_same_seed_is_byte_identical(tmp_path):
    for kind, sizes in (("dumps", DUMP_SIZES), ("dataset", {"per_side": 20})):
        gen.build(kind, 5, sizes, str(tmp_path / f"{kind}-a"))
        gen.build(kind, 5, sizes, str(tmp_path / f"{kind}-b"))
        assert _files(tmp_path / f"{kind}-a") == _files(tmp_path / f"{kind}-b")


def test_different_seeds_differ(tmp_path):
    for kind, sizes, data in (("dumps", DUMP_SIZES, ("train.jsonl.gz", "heldout.jsonl.gz")),
                              ("dataset", {"per_side": 20}, ("dataset.jsonl",))):
        gen.build(kind, 5, sizes, str(tmp_path / f"{kind}-5"))
        gen.build(kind, 6, sizes, str(tmp_path / f"{kind}-6"))
        a, b = _files(tmp_path / f"{kind}-5"), _files(tmp_path / f"{kind}-6")
        assert all(a[name] != b[name] for name in data)


def _valid(line):
    """The generator's notion of a well-formed record, checked independently."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(obj, dict) or not obj.get("id") or "body" not in obj:
        return None
    return obj


def test_recorded_counts_match_the_dump(tmp_path):
    gen.build("dumps", 3, DUMP_SIZES, str(tmp_path / "d"))
    counts = json.loads((tmp_path / "d" / "counts.json").read_text())
    for month, n_lines in DUMP_SIZES.items():
        with gzip.open(tmp_path / "d" / f"{month}.jsonl.gz", "rt", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        records = [_valid(line) for line in lines]
        c = counts[month]
        assert len(lines) == c["lines"] == n_lines
        assert sum(r is None for r in records) == c["malformed"]
        for side in (gen.HATE, gen.SUPPORT):
            mine = [r for r in records if r and r["subreddit"] == side]
            assert len(mine) == c["kept"][side]
            assert sum(r["author"] == "AutoModerator" for r in mine) == c["automod"][side]
            assert sum(r["body"] in ("[deleted]", "[removed]") for r in mine) == c["deleted"][side]


def test_months_share_one_vocabulary():
    vocab = gen.Vocabulary()
    assert len(set(w for block in vocab.blocks for w in block)) == sum(map(len, vocab.blocks))
    train = set(vocab.draw(random.Random("a"), gen.HATE, 5000))
    heldout = vocab.draw(random.Random("b"), gen.HATE, 1000)
    assert sum(tok in train for tok in heldout) > 0.7 * len(heldout)


def test_cache_reuses_inputs(tmp_path):
    first, counts = gen.cached(str(tmp_path), "dataset", 2, {"per_side": 10})
    stamp = os.stat(os.path.join(first, "dataset.jsonl")).st_mtime_ns
    again, counts_again = gen.cached(str(tmp_path), "dataset", 2, {"per_side": 10})
    assert (again, counts_again) == (first, counts)
    assert os.stat(os.path.join(again, "dataset.jsonl")).st_mtime_ns == stamp
    other, _ = gen.cached(str(tmp_path), "dataset", 2, {"per_side": 11})
    assert other != first
