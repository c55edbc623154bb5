"""Sparse bag-of-words batches and a from-scratch tf-idf model.

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
from typing import Iterable, Sequence

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
        if list(self.vocabulary) != sorted(self.vocabulary):
            raise ValueError("vocabulary must be sorted")

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def idf(self) -> np.ndarray:
        df = np.asarray(self.doc_freq, dtype=float)
        return np.log((1.0 + self.n_docs) / (1.0 + df)) + 1.0

    def transform_counts_all(self, documents: Iterable[Sequence[str]]) -> CsrBatch:
        """Raw term counts over the fitted vocabulary (no idf, no norm), one
        row per document. Out-of-vocabulary terms are ignored."""
        return self._counts(documents)

    def _counts(self, documents: Iterable[Sequence[str]]) -> CsrBatch:
        # Both transforms call this rather than each other, so a wrapper on
        # either public method sees each batch exactly once.
        lookup = {term: i for i, term in enumerate(self.vocabulary)}
        ids: list[int] = []
        lengths: list[int] = []
        for doc in documents:
            known = [lookup[t] for t in doc if t in lookup]
            ids.extend(known)
            lengths.append(len(known))
        rows = np.repeat(np.arange(len(lengths)), lengths)
        # One sorted key per (row, term) pair orders terms within each row.
        keys, counts = np.unique(rows * self.dim + np.asarray(ids, dtype=np.intp),
                                 return_counts=True)
        row_of, indices = np.divmod(keys, max(self.dim, 1))
        indptr = np.zeros(len(lengths) + 1, dtype=np.intp)
        np.cumsum(np.bincount(row_of, minlength=len(lengths)), out=indptr[1:])
        return CsrBatch(indptr, indices, counts.astype(float), self.dim)

    def transform_all(self, documents: Iterable[Sequence[str]]) -> CsrBatch:
        """L2-normalized tf-idf rows. Documents whose terms are all out of
        vocabulary map to the zero vector (an empty row) rather than raising."""
        counts = self._counts(documents)
        weights = counts.data * self.idf()[counts.indices]
        rows = counts.row_ids()
        # bincount sums each row left to right, as a scalar loop would.
        norms = np.sqrt(np.bincount(rows, weights=weights * weights, minlength=len(counts)))
        return CsrBatch(counts.indptr, counts.indices, weights / norms[rows], self.dim)


def fit_tfidf(documents: Iterable[Sequence[str]], min_df: int = DEFAULT_MIN_DF) -> TfidfModel:
    """Fit a tf-idf model on tokenized documents.

    df counts document presence, not term occurrences. Terms with
    df < min_df are dropped from the vocabulary entirely.
    """
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    df: dict[str, int] = {}
    n_docs = 0
    for doc in documents:
        n_docs += 1
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    if n_docs == 0:
        raise ValueError("cannot fit on an empty document collection")
    vocab = sorted(t for t, d in df.items() if d >= min_df)
    return TfidfModel(
        vocabulary=tuple(vocab),
        doc_freq=tuple(df[t] for t in vocab),
        n_docs=n_docs,
        min_df=min_df,
    )


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


def _field(obj, name: str, where: str):
    if not isinstance(obj, dict) or name not in obj:
        raise ValueError(f"{where} {name!r} is missing")
    return obj[name]


def _count(obj, name: str, where: str = "vectorizer field") -> int:
    value = _field(obj, name, where)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{where} {name!r} must be a non-negative integer, got {value!r}")
    return value


def model_from_dict(obj: dict) -> TfidfModel:
    """Inverse of model_to_dict. A missing or ill-typed field raises
    ValueError naming it."""
    if not isinstance(obj, dict):
        raise ValueError(f"vectorizer file must hold a JSON object, got {type(obj).__name__}")
    if obj.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported vectorizer schema version: {obj.get('version')!r}")
    terms = _field(obj, "terms", "vectorizer field")
    if not isinstance(terms, list):
        raise ValueError("vectorizer field 'terms' must be a list")
    vocabulary, doc_freq = [], []
    for k, entry in enumerate(terms):
        where = f"vectorizer terms[{k}] field"
        term = _field(entry, "term", where)
        if not isinstance(term, str):
            raise ValueError(f"{where} 'term' must be a string, got {term!r}")
        vocabulary.append(term)
        doc_freq.append(_count(entry, "df", where))
    return TfidfModel(
        vocabulary=tuple(vocabulary),
        doc_freq=tuple(doc_freq),
        n_docs=_count(obj, "n_docs"),
        min_df=_count(obj, "min_df"),
    )


def save_tfidf(model: TfidfModel, path: str) -> None:
    atomic.write_json(path, model_to_dict(model))


def load_tfidf(path: str) -> TfidfModel:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return model_from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def model_fingerprint(model: TfidfModel) -> str:
    """SHA-256 of the canonical serialization; ties classifiers to the exact
    vocabulary they were trained against."""
    blob = json.dumps(model_to_dict(model), ensure_ascii=False, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
