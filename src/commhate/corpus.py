"""Comment corpora: JSONL ingestion, tokenization, sampling, dataset
assembly, fold splits.

Reads the monthly Reddit dump format (one JSON object per line, optionally
gzip-compressed) as well as generic JSONL from other platforms; a record with
a field of the wrong kind is malformed, never coerced. ``tokenize`` is the
one place a comment becomes tokens or is dropped (deleted, or no token left
after preprocessing). It reads any iterable of comments once and keeps
(id, community, tokens) rows, so no later stage holds a ``Comment``. Sampling
uses CPython's Mersenne Twister (``random.Random``) with explicit partial
Fisher-Yates selection, so every draw is a pure function of (input, seed).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

from . import atomic, textprep

POSITIVE = "positive"
NEGATIVE = "negative"

_DELETED_SENTINELS = ("[deleted]", "[removed]")


class Platform(str, Enum):
    REDDIT = "reddit"
    VOAT = "voat"
    FORUM = "forum"
    OTHER = "other"


@dataclass(frozen=True)
class Comment:
    """One post or comment together with its community of origin."""

    id: str
    body: str
    community: str
    platform: Platform = Platform.OTHER
    created_at: int = 0
    author: str = ""
    deleted: bool = False

    def __post_init__(self):
        if _checked_deleted(self.id, self.body, self.community, self.deleted):
            object.__setattr__(self, "deleted", True)


def _checked_deleted(cid: str, body: str, community: str, deleted: bool) -> bool:
    """The deleted flag of a Comment with these fields; ValueError if none may."""
    if not cid:
        raise ValueError("comment id must be non-empty")
    if not community:
        raise ValueError(f"comment {cid!r}: community must be non-empty")
    deleted = deleted or body in _DELETED_SENTINELS
    if not body and not deleted:
        raise ValueError(f"comment {cid!r}: empty body on a non-deleted record")
    return deleted


@dataclass(frozen=True)
class CorpusSlice:
    """An ordered run of comments from one source."""

    comments: tuple[Comment, ...]

    def __post_init__(self):
        object.__setattr__(self, "comments", tuple(self.comments))

    def __len__(self) -> int:
        return len(self.comments)

    def __iter__(self) -> Iterator[Comment]:
        return iter(self.comments)


@dataclass(frozen=True)
class LabeledDataset:
    """Tokenized documents with binary labels and per-document provenance."""

    documents: tuple[tuple[str, ...], ...]
    labels: tuple[str, ...]
    provenance: tuple[tuple[str, str], ...]  # (comment id, source community)

    def __post_init__(self):
        object.__setattr__(self, "documents", tuple(tuple(d) for d in self.documents))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "provenance", tuple(tuple(p) for p in self.provenance))
        if not (len(self.documents) == len(self.labels) == len(self.provenance)):
            raise ValueError("documents, labels and provenance must have equal length")
        bad = {l for l in self.labels} - {POSITIVE, NEGATIVE}
        if bad:
            raise ValueError(f"unknown labels: {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.documents)

    def counts(self) -> tuple[int, int]:
        n_pos = sum(1 for l in self.labels if l == POSITIVE)
        return n_pos, len(self.labels) - n_pos

    def subset(self, indices: Iterable[int]) -> "LabeledDataset":
        idx = list(indices)
        return LabeledDataset(
            tuple(self.documents[i] for i in idx),
            tuple(self.labels[i] for i in idx),
            tuple(self.provenance[i] for i in idx),
        )


# ---------------------------------------------------------------------------
# JSONL ingestion
# ---------------------------------------------------------------------------

# Reddit dumps use subreddit/created_utc; generic files use the field names
# of Comment itself. Unknown fields are ignored either way.
_COMMUNITY_KEYS = ("community", "subreddit", "subverse", "board")
_CREATED_KEYS = ("created_at", "created_utc")


def comment_from_record(obj: dict, platform: Platform,
                        communities: set[str] | None = None) -> Comment | None:
    """Map one parsed JSONL record to a Comment. Raises ValueError if malformed.
    A record outside ``communities`` (if given) is checked the same way but
    maps to None, with no Comment built."""
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    community = ""
    keys = _COMMUNITY_KEYS if platform != Platform.REDDIT else ("subreddit", "community")
    for key in keys:
        value = obj.get(key)
        if value is not None and type(value) is not str:
            raise ValueError(f"record field {key!r} must be a string, got {value!r}")
        if value:
            community = value
            break
    created = 0
    for key in _CREATED_KEYS:
        value = obj.get(key)
        if value is not None:
            if type(value) not in (int, float, str):  # a bool's type is not int
                raise ValueError(f"record field {key!r} must be a number or an integer "
                                 f"string, got {value!r}")
            try:
                created = int(value)
            except OverflowError:  # 1e400 parses as inf
                raise ValueError(f"record field {key!r} is out of range") from None
            break
    body, cid, author = obj.get("body"), obj.get("id", ""), obj.get("author")
    if body is None:
        raise ValueError("record has no body field")
    if not isinstance(body, str):
        raise ValueError(f"record field 'body' must be a string, got {body!r}")
    if type(cid) is not str:
        if type(cid) is not int:
            raise ValueError(f"record field 'id' must be a string or an integer, got {cid!r}")
        cid = str(cid)
    if author is None:
        author = ""
    elif not isinstance(author, str):
        raise ValueError(f"record field 'author' must be a string, got {author!r}")
    if communities is not None and community not in communities:
        _checked_deleted(cid, body, community, False)
        return None
    return Comment(
        id=cid,
        body=body,
        community=community,
        platform=platform,
        created_at=created,
        author=author,
    )


def iter_jsonl(
    path: str,
    community_filter: set[str] | None = None,
    platform: Platform = Platform.REDDIT,
    strict: bool = False,
    on_skip: Callable[[int], None] | None = None,
) -> Iterator[Comment]:
    """Stream comments from a JSONL (optionally .gz) file, one at a time.

    Lazy: a Table-1-scale dump can be filtered down to one community without
    ever materializing the rest. Malformed lines are skipped or raised as
    ``atomic.read_jsonl`` describes.
    """
    yield from atomic.read_jsonl(
        path, lambda obj: comment_from_record(obj, platform, community_filter),
        strict, on_skip,
    )


def load_jsonl(
    path: str,
    community_filter: set[str] | None = None,
    platform: Platform = Platform.REDDIT,
    strict: bool = False,
) -> tuple[CorpusSlice, int]:
    """Load a JSONL dump into a CorpusSlice, preserving line order.

    Returns (slice, number of skipped malformed lines).
    """
    skipped = []
    comments = iter_jsonl(path, community_filter, platform, strict, skipped.append)
    return CorpusSlice(comments), len(skipped)


def write_jsonl(comments: Iterable[Comment], path: str) -> int:
    """Write comments in the generic schema (round-trips losslessly), one line
    each as they arrive; returns the count."""
    return atomic.write_jsonl(path, (
        {"id": c.id, "body": c.body, "community": c.community,
         "platform": c.platform.value, "created_at": c.created_at, "author": c.author}
        for c in comments
    ))


# ---------------------------------------------------------------------------
# Seeded sampling
# ---------------------------------------------------------------------------


def sample_without_replacement(items: list, n: int, rng: random.Random) -> list:
    """Uniform sample of n items via partial Fisher-Yates on an index array."""
    idx = list(range(len(items)))
    for i in range(n):
        j = rng.randrange(i, len(idx))
        idx[i], idx[j] = idx[j], idx[i]
    return [items[i] for i in idx[:n]]


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


def tokenize(comments: Iterable[Comment], config=None) -> tuple[list, int]:
    """Preprocess comments, read once, into (id, community, tokens) rows. A
    comment that is deleted, or has no token left, is dropped. Returns the
    rows and the drop tally."""
    cfg = config or textprep.default_config()
    rows, dropped = [], 0
    for c in comments:
        tokens = None if c.deleted else textprep.preprocess(c.body, cfg)
        if tokens:
            rows.append((c.id, c.community, tokens))
        else:
            dropped += 1
    return rows, dropped


def balanced_pair(positive: list, negative: list, rng: random.Random) -> tuple[list, list]:
    """Downsample the larger side to the smaller side's size with ``rng``,
    drawing for the positives first; the smaller side is kept as it is."""
    m = min(len(positive), len(negative))
    if len(positive) > m:
        positive = sample_without_replacement(positive, m, rng)
    if len(negative) > m:
        negative = sample_without_replacement(negative, m, rng)
    return positive, negative


def dataset_from_pairs(positive: list, negative: list) -> LabeledDataset:
    """A dataset of ``tokenize`` rows: the positives, then the negatives."""
    rows = positive + negative
    return LabeledDataset(
        tuple(tokens for _, _, tokens in rows),
        (POSITIVE,) * len(positive) + (NEGATIVE,) * len(negative),
        tuple((cid, community) for cid, community, _ in rows),
    )


def build_balanced(
    positive: Iterable[Comment],
    negative: Iterable[Comment],
    seed: int = 0,
    config=None,
) -> tuple[LabeledDataset, int]:
    """Build an exactly balanced dataset, downsampling the majority side.

    Returns (dataset, drop tally) where the tally counts deleted and
    empty-after-preprocessing documents removed before balancing.
    """
    pos, dropped_p = tokenize(positive, config)
    neg, dropped_n = tokenize(negative, config)
    for side, rows in (("positive", pos), ("negative", neg)):
        if not rows:
            raise ValueError(f"the {side} side must be non-empty after preprocessing")
    pos, neg = balanced_pair(pos, neg, random.Random(seed))
    return dataset_from_pairs(pos, neg), dropped_p + dropped_n


def imbalanced_subset(dataset: LabeledDataset, ratio: int, seed: int = 0) -> LabeledDataset:
    """Resample a dataset to a 1:ratio positive:negative test set.

    Every positive is kept and ratio negatives per positive are drawn
    without replacement; used to derive the imbalance grid from one
    held-out test set.
    """
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    pos_idx = [i for i, l in enumerate(dataset.labels) if l == POSITIVE]
    neg_idx = [i for i, l in enumerate(dataset.labels) if l == NEGATIVE]
    required = ratio * len(pos_idx)
    if len(neg_idx) < required:
        raise ValueError(
            f"1:{ratio} ratio needs {required} negatives for {len(pos_idx)} positives, "
            f"only {len(neg_idx)} available"
        )
    rng = random.Random(seed)
    neg_sel = sample_without_replacement(neg_idx, required, rng)
    return dataset.subset(pos_idx + neg_sel)


def kfold_split(
    dataset: LabeledDataset, k: int, seed: int = 0
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Stratified k-fold split: disjoint test folds covering [0, n).

    Fold sizes differ by at most one and each fold's class ratio matches the
    dataset's within one item per class.
    """
    n = len(dataset)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"k={k} exceeds dataset size {n}")
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in (POSITIVE, NEGATIVE):
        idx = [i for i, l in enumerate(dataset.labels) if l == label]
        rng.shuffle(idx)
        base, rem = divmod(len(idx), k)
        # Hand the remainder to the currently smallest folds so overall fold
        # sizes stay within one of each other across classes.
        order = sorted(range(k), key=lambda f: (len(folds[f]), f))
        pos = 0
        for rank, f in enumerate(order):
            take = base + (1 if rank < rem else 0)
            folds[f].extend(idx[pos : pos + take])
            pos += take
    splits = []
    for f in range(k):
        test = sorted(folds[f])
        test_set = set(test)
        train = tuple(i for i in range(n) if i not in test_set)
        splits.append((train, tuple(test)))
    return splits


# ---------------------------------------------------------------------------
# Dataset persistence and fingerprints
# ---------------------------------------------------------------------------


def write_dataset(dataset: LabeledDataset, path: str) -> None:
    """Persist a dataset as JSONL rows {tokens, label, id, community}, one write per
    row; a token, label, id or community that is not a ``str`` raises TypeError."""
    quote = json.encoder.encode_basestring  # json's own for a str, given ensure_ascii=False
    with atomic.writing(path) as fh:
        for tokens, label, (cid, community) in zip(dataset.documents, dataset.labels,
                                                   dataset.provenance):
            fh.write(f'{{"tokens": [{", ".join(map(quote, tokens))}], "label": {quote(label)}, '
                     f'"id": {quote(cid)}, "community": {quote(community)}}}\n')


_ROW_FIELDS = (("tokens", atomic.STRINGS), ("label", atomic.STRING), ("id", atomic.STRING),
               ("community", atomic.STRING))


def _dataset_row(obj: dict) -> tuple:
    tokens, label, cid, community = atomic.fields(obj, "field ", _ROW_FIELDS)
    return tuple(tokens), label, (cid, community)


def load_dataset(path: str) -> LabeledDataset:
    """Load a dataset written by write_dataset; a malformed row raises
    ValueError naming ``path:line``."""
    rows = tuple(atomic.read_jsonl(path, _dataset_row, strict=True))
    return LabeledDataset(*zip(*rows)) if rows else LabeledDataset((), (), ())


def dataset_fingerprint(dataset: LabeledDataset) -> str:
    """SHA-256 of one compact [tokens,label,id,community] JSON line per row, non-ASCII
    kept; a token, label, id or community that is not a ``str`` raises TypeError."""
    quote, h = json.encoder.encode_basestring, hashlib.sha256()
    for tokens, label, (cid, community) in zip(dataset.documents, dataset.labels,
                                               dataset.provenance):
        h.update(f'[[{",".join(map(quote, tokens))}],{quote(label)},{quote(cid)},'
                 f'{quote(community)}]\n'.encode())
    return h.hexdigest()
