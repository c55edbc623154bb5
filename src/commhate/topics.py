"""Labeled LDA over a labeled corpus, one topic per label.

Labeled LDA restricts each token's topic to its document's label set
(Ramage et al. 2009). With exactly one label per document, the only case
the public API admits, every token's topic is fixed by its document, so
there is nothing to sample: phi is the beta-smoothed label-conditional
term frequency, computed here in closed form.

Top terms are ranked by a distinctiveness score (the label's phi minus the
best competing label's phi) so generic high-frequency terms shared by all
labels drop out; raw-phi ranking is available via ``ranking="phi"``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import balanced_pair
from .seeding import derive_seed
from .vectorizer import count_terms


@dataclass(frozen=True)
class LldaConfig:
    beta: float = 0.1
    seed: int = 0  # drives fit_two_sides' subsampling

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")


@dataclass(frozen=True, eq=False)
class LldaModel:
    """Per-label term counts and phi, both (labels x vocabulary) arrays.

    The vocabulary is sorted, so ranking by index breaks ties
    lexicographically.
    """

    labels: tuple[str, ...]
    vocabulary: tuple[str, ...]
    topic_word_counts: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("topic_word_counts", "phi"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n_labels = len(self.labels)
        if len(self.phi) != n_labels or len(self.topic_word_counts) != n_labels:
            raise ValueError("one count row and one phi row per label required")
        shape = (n_labels, len(self.vocabulary))
        if self.phi.shape != shape or self.topic_word_counts.shape != shape:
            raise ValueError("count and phi rows must span the vocabulary")
        if list(self.vocabulary) != sorted(set(self.vocabulary)):
            raise ValueError("vocabulary must be sorted and free of duplicates")
        row_sums = self.phi.sum(axis=1)
        if not (np.all(np.abs(row_sums - 1.0) <= 1e-9) and np.all(self.phi >= 0)):
            raise ValueError("phi rows must be distributions summing to 1")

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r}; have {list(self.labels)}") from None


def fit_llda(
    documents: Sequence[Sequence[str]],
    doc_labels: Sequence[str],
    config: LldaConfig,
) -> LldaModel:
    """Fit the one-topic-per-label model: beta-smoothed per-label term
    frequencies.

    Every document must carry one label and the corpus must contain at least
    two distinct labels; empty vocabularies are rejected.
    """
    if len(documents) != len(doc_labels):
        raise ValueError("documents and doc_labels must have equal length")
    if not documents:
        raise ValueError("corpus is empty")
    for i, label in enumerate(doc_labels):
        if not label:
            raise ValueError(f"document {i} has an absent label")
    labels = tuple(sorted(set(doc_labels)))
    if len(labels) < 2:
        raise ValueError(f"need at least 2 distinct labels, got {list(labels)}")
    counted = count_terms(documents)
    vocab, batch = counted.terms, counted.batch
    if not vocab:
        raise ValueError("empty vocabulary: no document contains any token")
    label_index = {l: i for i, l in enumerate(labels)}
    n_labels, n_terms = len(labels), len(vocab)
    doc_label = np.array([label_index[label] for label in doc_labels], dtype=np.intp)
    counts = np.bincount(doc_label[batch.row_ids()] * n_terms + batch.indices, weights=batch.data,
                         minlength=n_labels * n_terms).reshape(n_labels, n_terms)
    denom = counts.sum(axis=1, keepdims=True) + config.beta * n_terms
    phi = (counts + config.beta) / denom
    phi = phi / phi.sum(axis=1, keepdims=True)  # absorb rounding in the tail
    return LldaModel(labels=labels, vocabulary=vocab, topic_word_counts=counts, phi=phi)


def _distinctiveness(model: LldaModel, li: int) -> np.ndarray:
    """phi(label)[t] minus the largest phi any other label gives t."""
    others = np.delete(model.phi, li, axis=0)
    return model.phi[li] - (others.max(axis=0) if len(others) else 0.0)


def _ranked(model: LldaModel, label: str, k: int, ranking: str) -> np.ndarray:
    """Vocabulary indices of the k highest-ranked terms for a label."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if ranking not in ("distinctiveness", "phi"):
        raise ValueError(f"unknown ranking {ranking!r}")
    li = model.label_index(label)
    scores = model.phi[li] if ranking == "phi" else _distinctiveness(model, li)
    return np.argsort(-scores, kind="stable")[:k]


def top_terms(
    model: LldaModel, label: str, k: int, ranking: str = "distinctiveness"
) -> list[str]:
    """k highest-ranked terms for a label; ties broken lexicographically.

    Distinctiveness of term t is phi(label)[t] minus the largest phi any
    other label gives t, which suppresses corpus-wide frequent terms.
    """
    return [model.vocabulary[t] for t in _ranked(model, label, k, ranking)]


def term_scores(model: LldaModel, label: str) -> dict[str, float]:
    """Distinctiveness score per vocabulary term for one label."""
    scores = _distinctiveness(model, model.label_index(label))
    return dict(zip(model.vocabulary, scores.tolist()))


def jaccard_index(a: set, b: set) -> float:
    """|a & b| / |a | b|, taking the empty/empty case to be 0."""
    if not a and not b:
        return 0.0
    sa, sb = set(a), set(b)
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# Two-sided convenience wrapper and reports
# ---------------------------------------------------------------------------


def fit_two_sides(
    pos_docs: Sequence[Sequence[str]],
    neg_docs: Sequence[Sequence[str]],
    config: LldaConfig,
) -> LldaModel:
    """Fit community-vs-background topics, downsampling the larger side so
    both contribute equally (seeded from config.seed)."""
    pos = [list(d) for d in pos_docs if d]
    neg = [list(d) for d in neg_docs if d]
    if not pos or not neg:
        raise ValueError("both sides must contain at least one non-empty document")
    rng = random.Random(derive_seed(config.seed, "llda", "subsample"))
    pos, neg = balanced_pair(pos, neg, rng)
    documents = pos + neg
    labels = ["community"] * len(pos) + ["background"] * len(neg)
    return fit_llda(documents, labels, config)


def topic_report(model: LldaModel, k: int, ranking: str = "distinctiveness") -> dict:
    """Per-label top-k terms plus pairwise Jaccard overlap, as plain data."""
    per_label = []
    term_lists: dict[str, list[str]] = {}
    for li, label in enumerate(model.labels):
        ranked = _ranked(model, label, k, ranking)
        scores = _distinctiveness(model, li)
        term_lists[label] = [model.vocabulary[t] for t in ranked]
        per_label.append(
            {
                "label": label,
                "terms": [
                    {
                        "term": model.vocabulary[t],
                        "phi": float(model.phi[li, t]),
                        "distinctiveness": float(scores[t]),
                    }
                    for t in ranked
                ],
            }
        )
    pairs = []
    for i, a in enumerate(model.labels):
        for b in model.labels[i + 1 :]:
            pairs.append(
                {
                    "labels": [a, b],
                    "jaccard": jaccard_index(set(term_lists[a]), set(term_lists[b])),
                }
            )
    return {"k": k, "ranking": ranking, "topics": per_label, "overlap": pairs}


def format_topic_table(report: dict) -> str:
    """Aligned text rendering of a topic_report: one column per label."""
    labels = [entry["label"] for entry in report["topics"]]
    columns = [[e["term"] for e in entry["terms"]] for entry in report["topics"]]
    widths = [
        max(len(label), *(len(t) for t in col)) if col else len(label)
        for label, col in zip(labels, columns)
    ]
    lines = ["  ".join(label.ljust(w) for label, w in zip(labels, widths))]
    lines.append("  ".join("-" * w for w in widths))
    depth = max((len(c) for c in columns), default=0)
    for r in range(depth):
        row = [
            (col[r] if r < len(col) else "").ljust(w)
            for col, w in zip(columns, widths)
        ]
        lines.append("  ".join(row).rstrip())
    for pair in report["overlap"]:
        a, b = pair["labels"]
        lines.append(f"JI({a}, {b}) = {pair['jaccard']:.2f}")
    return "\n".join(lines) + "\n"
