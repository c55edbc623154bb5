"""Community-labeled hateful-speech detection pipeline.

Training data comes from self-identified hateful communities instead of
manual annotation: comments from a hate community are the positive class,
sampled background comments the negative class. The package covers corpus
ingestion, preprocessing, tf-idf vectorization, three classifiers, a
two-label topic model, chi-square keyword extraction, the evaluation
harness, and a synthetic-corpus generator used as a verification oracle.
"""

__version__ = "0.1.0"

from .classifiers import Algorithm, TrainConfig, train
from .corpus import (
    Comment,
    CorpusSlice,
    LabeledDataset,
    Platform,
    build_balanced,
)
from .evaluation import ExperimentSpec, compute_metrics, cross_validate, run_experiment
from .keywords import KeywordMethod, KeywordSet, build_keyword_set, chi2_scores
from .seeding import derive_seed
from .synthgen import SynthSpec, generate
from .textprep import preprocess
from .topics import LldaConfig, LldaModel, fit_llda, fit_two_sides, jaccard_index, top_terms
from .vectorizer import CsrBatch, TfidfModel, fit_tfidf

__all__ = [
    "Algorithm",
    "Comment",
    "CorpusSlice",
    "CsrBatch",
    "ExperimentSpec",
    "KeywordMethod",
    "KeywordSet",
    "LabeledDataset",
    "LldaConfig",
    "LldaModel",
    "Platform",
    "SynthSpec",
    "TfidfModel",
    "TrainConfig",
    "__version__",
    "build_balanced",
    "build_keyword_set",
    "chi2_scores",
    "compute_metrics",
    "cross_validate",
    "derive_seed",
    "fit_llda",
    "fit_tfidf",
    "fit_two_sides",
    "generate",
    "jaccard_index",
    "preprocess",
    "run_experiment",
    "top_terms",
    "train",
]
