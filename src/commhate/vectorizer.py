"""Sparse bag-of-words batches and a from-scratch tf-idf model.

Tokens become term ids in one place, count_terms, which counts a document
set once into a TermCounts batch over the set's sorted terms. Fitting and both
transforms work from such a batch with numpy; given tokens, they count first.

Weighting is raw term count times a smoothed inverse document frequency,

    idf(t) = ln((1 + n_docs) / (1 + df(t))) + 1

followed by L2 normalization of each document vector. The vocabulary is the
set of training terms with df >= min_df, ordered lexicographically by
code point, so index assignment is reproducible across runs and platforms.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence, Union

import numpy as np

from . import atomic

SCHEMA_VERSION = 1
DEFAULT_MIN_DF = 2


@dataclass(frozen=True, eq=False)
class CsrBatch:
    """Rows of sparse vectors in compressed sparse row form: row r holds
    ``indices[indptr[r]:indptr[r+1]]`` with values ``data[...]`` over ``dim``
    coordinates. Indices are strictly increasing within a row and zeros are
    represented by absence, so stored values must be > 0; both the count and
    the tf-idf representations satisfy that by construction."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dim: int

    def __post_init__(self):
        indptr = np.asarray(self.indptr, dtype=np.intp)
        indices = np.asarray(self.indices, dtype=np.intp)
        data = np.asarray(self.data, dtype=float)
        for name, arr in (("indptr", indptr), ("indices", indices), ("data", data)):
            object.__setattr__(self, name, arr)
        if indices.size != data.size:
            raise ValueError("indices and data must have equal length")
        starts = indptr[:-1]
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size or np.any(
                np.diff(indptr) < 0):
            raise ValueError("indptr must rise from 0 to the number of stored values")
        row_start = np.zeros(indices.size, dtype=bool)
        row_start[starts[starts < indices.size]] = True
        if np.any((np.diff(indices) <= 0) & ~row_start[1:]):
            raise ValueError("indices must be strictly increasing within each row")
        if indices.size and (indices.min() < 0 or indices.max() >= self.dim):
            raise ValueError(f"index out of range for dim={self.dim}")
        if not np.all(np.isfinite(data) & (data > 0.0)):
            raise ValueError("values must be positive and finite")

    def __len__(self) -> int:
        return self.indptr.size - 1

    def row_ids(self) -> np.ndarray:
        """The row of every stored value."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))


@dataclass(frozen=True, eq=False)
class TermCounts:
    """Raw term counts of a document set: row r of ``batch`` counts document
    r over ``terms``, sorted by code point: the set's distinct terms, or the
    terms it was counted over."""

    terms: tuple[str, ...]
    batch: CsrBatch

    def rows(self, indices: Sequence[int]) -> "TermCounts":
        """The given rows, in the given order, over the same terms."""
        idx = np.asarray(indices, dtype=np.intp)
        lengths = np.diff(self.batch.indptr)[idx]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        take = np.repeat(self.batch.indptr[idx] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return TermCounts(self.terms, CsrBatch(indptr, self.batch.indices[take],
                                               self.batch.data[take], self.batch.dim))


def count_terms(documents: Iterable[Sequence[str]],
                terms: Sequence[str] | None = None) -> TermCounts:
    """Count each document's terms, reading the input once, over ``terms`` if
    given (sorted by code point, other tokens dropped), else the documents' own."""
    docs = list(documents)
    terms = sorted(set(chain.from_iterable(docs))) if terms is None else terms
    ids = dict(zip(terms, range(len(terms))))
    # One key per token, row * len(terms) + term id; unique keys come out
    # sorted, so each row's terms are increasing. A token outside terms takes
    # an id that puts its key below 0, so those keys sort first and are cut.
    keys = np.repeat(np.arange(len(docs)) * len(terms), [len(doc) for doc in docs])
    keys += np.fromiter(map(ids.get, chain.from_iterable(docs),
                            repeat(-len(docs) * len(terms) - 1)), dtype=np.intp, count=keys.size)
    keys, counts = np.unique(keys, return_counts=True)
    cut = np.searchsorted(keys, 0)
    row_of, indices = np.divmod(keys[cut:], max(len(terms), 1))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=len(docs)))))
    return TermCounts(tuple(terms),
                      CsrBatch(indptr, indices, counts[cut:].astype(float), len(terms)))


Documents = Union[TermCounts, Iterable[Sequence[str]]]  # counted or token documents


@dataclass(frozen=True)
class TfidfModel:
    """Fitted vocabulary with document frequencies. Fit once on training
    text only; apply to held-out text via transform_all."""

    vocabulary: tuple[str, ...]
    doc_freq: tuple[int, ...]
    n_docs: int
    min_df: int

    def __post_init__(self):
        if len(self.vocabulary) != len(self.doc_freq):
            raise ValueError("vocabulary and doc_freq must have equal length")
        if any(a >= b for a, b in zip(self.vocabulary, self.vocabulary[1:])):
            raise ValueError("vocabulary must be sorted and free of duplicates")

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def idf(self) -> np.ndarray:
        df = np.asarray(self.doc_freq, dtype=float)
        return np.log((1.0 + self.n_docs) / (1.0 + df)) + 1.0

    def transform_counts_all(self, documents: Documents) -> CsrBatch:
        """Raw term counts over the fitted vocabulary (no idf, no norm), one
        row per document. Out-of-vocabulary terms are ignored."""
        return self._counts(documents)

    def _counts(self, documents: Documents) -> CsrBatch:
        # Both transforms call this rather than each other, so a wrapper on
        # either public method sees each batch exactly once.
        if not isinstance(documents, TermCounts):
            return count_terms(documents, self.vocabulary).batch
        lookup = dict(zip(self.vocabulary, range(self.dim)))
        # Both term lists are sorted, so kept columns stay increasing in a row.
        column = np.fromiter(map(lookup.get, documents.terms, repeat(-1)), dtype=np.intp,
                             count=len(documents.terms))[documents.batch.indices]
        kept = column >= 0
        indptr = np.concatenate(([0], np.cumsum(kept)))[documents.batch.indptr]
        return CsrBatch(indptr, column[kept], documents.batch.data[kept], self.dim)

    def transform_all(self, documents: Documents) -> CsrBatch:
        """L2-normalized tf-idf rows. Documents whose terms are all out of
        vocabulary map to the zero vector (an empty row) rather than raising."""
        counts = self._counts(documents)
        weights = counts.data * self.idf()[counts.indices]
        rows = counts.row_ids()
        # bincount sums each row left to right, as a scalar loop would.
        norms = np.sqrt(np.bincount(rows, weights=weights * weights, minlength=len(counts)))
        return CsrBatch(counts.indptr, counts.indices, weights / norms[rows], self.dim)


def fit_tfidf(documents: Documents, min_df: int = DEFAULT_MIN_DF) -> TfidfModel:
    """Fit a tf-idf model on counted or tokenized documents.

    df counts document presence, not term occurrences. Terms with
    df < min_df are dropped from the vocabulary entirely.
    """
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    counts = documents if isinstance(documents, TermCounts) else count_terms(documents)
    if len(counts.batch) == 0:
        raise ValueError("cannot fit on an empty document collection")
    df = np.bincount(counts.batch.indices, minlength=len(counts.terms))
    keep = np.flatnonzero(df >= min_df)
    return TfidfModel(vocabulary=tuple(counts.terms[i] for i in keep.tolist()),
                      doc_freq=tuple(df[keep].tolist()), n_docs=len(counts.batch), min_df=min_df)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def model_to_dict(model: TfidfModel) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "n_docs": model.n_docs,
        "min_df": model.min_df,
        "terms": [
            {"term": t, "df": d} for t, d in zip(model.vocabulary, model.doc_freq)
        ],
    }


_FIELDS = (("terms", atomic.LIST), ("n_docs", atomic.COUNT), ("min_df", atomic.COUNT))
_TERM_FIELDS = (("term", atomic.STRING), ("df", atomic.COUNT))


def model_from_dict(obj: dict) -> TfidfModel:
    """Inverse of model_to_dict; a missing or ill-typed field raises ValueError naming it."""
    atomic.check_header(obj, "vectorizer", SCHEMA_VERSION)
    terms, n_docs, min_df = atomic.fields(obj, "vectorizer field ", _FIELDS)
    flat = []  # term, df, term, df, ...: no list per entry lives on for the GC to scan
    for k, entry in enumerate(terms):
        flat += atomic.fields(entry, f"vectorizer terms[{k}] field ", _TERM_FIELDS)
    return TfidfModel(tuple(flat[0::2]), tuple(flat[1::2]), n_docs=n_docs, min_df=min_df)


def save_tfidf(model: TfidfModel, path: str) -> None:
    atomic.write_json(path, model_to_dict(model))


def load_tfidf(path: str) -> TfidfModel:
    return atomic.read_record(path, model_from_dict)


def model_fingerprint(model: TfidfModel) -> str:
    """SHA-256 of the canonical serialization; ties classifiers to the exact
    vocabulary they were trained against."""
    blob = json.dumps(model_to_dict(model), ensure_ascii=False, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
