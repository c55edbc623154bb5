"""Keyword extraction and keyword-matched baseline dataset construction.

Three extraction methods over a hate corpus and a contrast corpus: topical
terms from the two-label topic model, and chi-square scores against either a
random background (variant I) or the matching support community (variant II).
chi-square uses document-level presence, no continuity correction:

    chi2 = N (ad - bc)^2 / ((a+b)(c+d)(a+c)(b+d))

with a = positive docs containing the term, b = negative docs containing it,
c, d the complements. A term present in every document scores 0 by
convention (the absent row is empty, so the table carries no signal).

Keyword matching against a comment pool is exact token equality after
preprocessing; no stemming, no substrings.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import atomic
from .corpus import (
    Comment,
    LabeledDataset,
    dataset_from_pairs,
    sample_without_replacement,
    tokenize,
)
from .topics import LldaConfig, fit_two_sides, term_scores, top_terms
from .vectorizer import count_terms

KEYWORD_SCHEMA_VERSION = 1
DEFAULT_K = 30
DEFAULT_MIN_DF = 5


class KeywordMethod(str, Enum):
    LLDA = "llda"
    CHI2_I = "chi2_i"
    CHI2_II = "chi2_ii"


@dataclass(frozen=True)
class KeywordSet:
    """Ranked (term, score) list from one extraction method."""

    method: KeywordMethod
    target_group: str
    terms: tuple[tuple[str, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "method", KeywordMethod(self.method))
        object.__setattr__(
            self, "terms", tuple((str(t), float(s)) for t, s in self.terms)
        )
        names = [t for t, _ in self.terms]
        if len(set(names)) != len(names):
            raise ValueError("keyword terms must be unique")
        scores = [s for _, s in self.terms]
        if any(b > a for a, b in zip(scores, scores[1:])):
            raise ValueError("keyword scores must be non-increasing in rank")

    @property
    def k(self) -> int:
        return len(self.terms)

    def term_set(self) -> frozenset[str]:
        return frozenset(t for t, _ in self.terms)


def chi2_scores(
    positive_docs: Sequence[Sequence[str]],
    negative_docs: Sequence[Sequence[str]],
    min_df: int = 1,
) -> dict[str, float]:
    """Per-term chi-square association with the positive corpus.

    Symmetric in the two corpora. Terms present in fewer than min_df
    documents overall are excluded before scoring.
    """
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    if not positive_docs or not negative_docs:
        raise ValueError("both corpora must be non-empty")
    n_pos, n_neg = len(positive_docs), len(negative_docs)
    n = n_pos + n_neg
    counts = count_terms(chain(positive_docs, negative_docs))
    present = [np.bincount(side, minlength=len(counts.terms)).tolist()
               for side in np.split(counts.batch.indices, [counts.batch.indptr[n_pos]])]
    scores: dict[str, float] = {}
    # Python ints: in int64, n * (ad - bc)^2 overflows at ~10^4 documents.
    for term, a, b in zip(counts.terms, *present):
        if a + b < min_df:
            continue
        c = n_pos - a
        d = n_neg - b
        denom = (a + b) * (c + d) * (a + c) * (b + d)
        if denom == 0:
            scores[term] = 0.0  # term in all N documents
        else:
            scores[term] = n * (a * d - b * c) ** 2 / denom
    return scores


def build_keyword_set(
    method: KeywordMethod,
    hate_docs: Sequence[Sequence[str]],
    contrast_docs: Sequence[Sequence[str]],
    k: int = DEFAULT_K,
    target_group: str = "",
    min_df: int = DEFAULT_MIN_DF,
    llda_config: LldaConfig | None = None,
) -> KeywordSet:
    """Top-k keywords for the hate side by the requested method.

    Variant I expects a random-background contrast corpus, variant II the
    support community; the caller supplies the right one. If fewer than k
    terms survive min_df the full list is returned with a warning.
    """
    method = KeywordMethod(method)
    if k < 1:
        raise ValueError("k must be >= 1")
    if method is KeywordMethod.LLDA:
        model = fit_two_sides(hate_docs, contrast_docs, llda_config or LldaConfig())
        terms = top_terms(model, "community", k)
        score_map = term_scores(model, "community")
        ranked = [(t, score_map[t]) for t in terms]
    else:
        score_map = chi2_scores(hate_docs, contrast_docs, min_df=min_df)
        ranked = sorted(score_map.items(), key=lambda e: (-e[1], e[0]))[:k]
    if len(ranked) < k:
        warnings.warn(
            f"requested {k} keywords but only {len(ranked)} terms available",
            stacklevel=2,
        )
    return KeywordSet(method=method, target_group=target_group, terms=tuple(ranked))


def matches_keywords(tokens: Sequence[str], keyword_terms: frozenset[str]) -> bool:
    return any(t in keyword_terms for t in tokens)


def keyword_match_dataset(
    pool: Iterable[Comment],
    keywords: KeywordSet,
    n_pos: int,
    n_neg: int,
    seed: int = 0,
) -> LabeledDataset:
    """Label a comment pool by keyword presence and sample a training set.

    Positives contain at least one keyword after preprocessing, negatives
    none. The pool must not overlap the corpora that produced the keywords;
    that is the caller's contract.
    """
    if n_pos < 1 or n_neg < 1:
        raise ValueError("n_pos and n_neg must be >= 1")
    rows, _dropped = tokenize(pool)
    terms = keywords.term_set()
    pos_pool = [row for row in rows if matches_keywords(row[2], terms)]
    neg_pool = [row for row in rows if not matches_keywords(row[2], terms)]
    if len(pos_pool) < n_pos or len(neg_pool) < n_neg:
        raise ValueError(
            f"insufficient keyword matches: need {n_pos} positive / {n_neg} negative, "
            f"pool has {len(pos_pool)} / {len(neg_pool)}"
        )
    rng = random.Random(seed)
    pos_sel = sample_without_replacement(pos_pool, n_pos, rng)
    neg_sel = sample_without_replacement(neg_pool, n_neg, rng)
    return dataset_from_pairs(pos_sel, neg_sel)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def keyword_set_to_dict(ks: KeywordSet) -> dict:
    return {
        "version": KEYWORD_SCHEMA_VERSION,
        "method": ks.method.value,
        "target_group": ks.target_group,
        "k": ks.k,
        "terms": [{"term": t, "score": s} for t, s in ks.terms],
    }


def save_keyword_set(ks: KeywordSet, path: str) -> None:
    atomic.write_json(path, keyword_set_to_dict(ks))


def format_keyword_list(ks: KeywordSet) -> str:
    """Plain keyword list, one term per line, highest score first."""
    return "\n".join(t for t, _ in ks.terms) + "\n"
