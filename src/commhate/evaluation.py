"""Metrics, cross-validation, experiment orchestration and reports.

All ratio metrics are computed from the integer confusion counts in one
final division each, so hand-checkable cases come out exact (the canonical
worked example tp=40 fn=10 fp=20 tn=30 gives kappa 2000/5000 = 0.4, no
rounding). Zero-division conventions are fixed and documented on
metrics_from_counts so degenerate folds never crash a run.

Reports are plain dicts serialized with sorted keys; everything except the
"timestamp" field is a pure function of (spec, data, seed), which is what
makes byte-level reproducibility checkable.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

from . import atomic
from .classifiers import Algorithm, TrainConfig, train
from .corpus import (
    NEGATIVE,
    POSITIVE,
    LabeledDataset,
    build_balanced,
    dataset_fingerprint,
    imbalanced_subset,
    kfold_split,
    load_dataset,
    tokenize,
)
from .seeding import derive_seed
from .vectorizer import (DEFAULT_MIN_DF, CsrBatch, Documents, TermCounts, TfidfModel,
                         count_terms, fit_tfidf, model_fingerprint)

REPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
        if self.total == 0:
            raise ValueError("confusion counts must cover at least one instance")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    kappa: float
    counts: ConfusionCounts


@dataclass(frozen=True)
class MetricSummary:
    """The five ratio metrics without counts; used for fold means."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    kappa: float


_COLUMNS = ("accuracy", "precision", "recall", "f1", "kappa")


def tally_counts(predicted: Sequence[str], expected: Sequence[str]) -> ConfusionCounts:
    if len(predicted) != len(expected):
        raise ValueError(f"length mismatch: {len(predicted)} predictions vs "
                         f"{len(expected)} truths")
    if not predicted:
        raise ValueError("cannot tally empty label sequences")
    pairs = Counter(zip(predicted, expected))
    for p, e in pairs:
        if p not in (POSITIVE, NEGATIVE) or e not in (POSITIVE, NEGATIVE):
            raise ValueError(f"unknown label in pair ({p!r}, {e!r})")
    return ConfusionCounts(tp=pairs[POSITIVE, POSITIVE], fp=pairs[POSITIVE, NEGATIVE],
                           tn=pairs[NEGATIVE, NEGATIVE], fn=pairs[NEGATIVE, POSITIVE])


def metrics_from_counts(counts: ConfusionCounts) -> EvalMetrics:
    """Accuracy, precision, recall, F1 and Cohen's kappa from counts.

    Conventions: precision is 0 when tp+fp = 0, recall is 0 when tp+fn = 0,
    F1 is 0 when precision and recall are both 0. Kappa's chance agreement
    p_e comes from the marginal products; when p_e = 1 kappa is 1 if
    observed agreement is also 1, else 0.
    """
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    n = counts.total
    accuracy = (tp + tn) / n
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    # kappa = (p_o - p_e) / (1 - p_e), scaled by n^2 to stay in integers.
    agree = n * (tp + tn)
    chance = (tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)
    denom = n * n - chance
    if denom == 0:
        kappa = 1.0 if tp + tn == n else 0.0
    else:
        kappa = (agree - chance) / denom
    return EvalMetrics(accuracy, precision, recall, f1, kappa, counts)


def compute_metrics(predicted: Sequence[str], expected: Sequence[str]) -> EvalMetrics:
    return metrics_from_counts(tally_counts(predicted, expected))


def _left_sum(values) -> float:
    """Plain left-to-right float sum. The builtin sum() is compensated from
    Python 3.12, which would make report bytes depend on the version."""
    total = 0.0
    for v in values:
        total += v
    return total


def mean_of(per_fold: Sequence[EvalMetrics]) -> MetricSummary:
    k = len(per_fold)
    if k == 0:
        raise ValueError("no fold metrics to average")
    return MetricSummary(**{name: _left_sum(getattr(m, name) for m in per_fold) / k
                            for name in _COLUMNS})


def pooled_of(per_fold: Sequence[EvalMetrics]) -> EvalMetrics:
    return metrics_from_counts(
        ConfusionCounts(
            tp=sum(m.counts.tp for m in per_fold),
            fp=sum(m.counts.fp for m in per_fold),
            tn=sum(m.counts.tn for m in per_fold),
            fn=sum(m.counts.fn for m in per_fold),
        )
    )


# ---------------------------------------------------------------------------
# Training plumbing
# ---------------------------------------------------------------------------


def vectors_for(kind: Algorithm, model: TfidfModel, documents) -> CsrBatch:
    """NB consumes raw counts; the linear models consume tf-idf vectors."""
    if kind is Algorithm.NB:
        return model.transform_counts_all(documents)
    return model.transform_all(documents)


def train_and_eval(train_ds: LabeledDataset, test_ds: LabeledDataset, kind: Algorithm,
                   seed: int, min_df: int = DEFAULT_MIN_DF,
                   fitted: tuple[TfidfModel, TermCounts, Documents] | None = None,
                   ) -> tuple[EvalMetrics, str]:
    """Fit the vectorizer on the training split only, train one classifier,
    and score the test split. ``fitted`` is that fit already, with the
    counted train and test rows. Returns (metrics, vectorizer fingerprint)."""
    if fitted is None:
        rows = count_terms(train_ds.documents)
        fitted = fit_tfidf(rows, min_df=min_df), rows, test_ds.documents
    vec, train_rows, test_rows = fitted
    cfg = TrainConfig(algorithm=kind, seed=seed)
    model = train(vectors_for(kind, vec, train_rows), train_ds.labels, cfg)
    predicted = model.predict_all(vectors_for(kind, vec, test_rows))
    return compute_metrics(predicted, test_ds.labels), model_fingerprint(vec)


def _outcomes(fn, items) -> list:
    """(True, fn(item)) per item, up to and including the first (False, exception)."""
    out = []
    for item in items:
        try:
            out.append((True, fn(item)))
        except Exception as exc:
            out.append((False, exc))
            break
    return out


def _fork_map(fn, items: list, prepare=lambda item: item) -> list:
    """[fn(prepare(item)) for item in items], the items dealt round-robin to
    one process per CPU this process may run on. prepare runs here, for a
    child's share just before its fork, so one share at a time is prepared.
    Raises the first failing item's exception, in item order."""
    n = max(1, min(atomic.cpus(), len(items)))
    children = {}  # pid -> the read end of its pipe
    try:
        for share in range(1, n):  # a share is prepared just before its fork, freed after it
            pid, fh = atomic.fork(lambda out, mine=[prepare(item) for item in items[share::n]]:
                                  out.write(pickle.dumps(_outcomes(fn, mine))))
            children[pid] = fh
        shares = [_outcomes(lambda item: fn(prepare(item)), items[0::n])]
        for pid in list(children):
            data = children[pid].read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if code != 0 or not data:
                raise OSError(f"worker process exited with status {code} before "
                              f"sending its results")
            shares.append(pickle.loads(data))
    finally:
        for pid, fh in children.items():
            fh.close()
            os.waitpid(pid, 0)
    results = []
    for i in range(len(items)):
        ok, value = shares[i % n][i // n]
        if not ok:
            raise value
        results.append(value)
    return results


@dataclass(frozen=True)
class CvResult:
    algorithm: Algorithm
    per_fold: tuple[EvalMetrics, ...]
    mean: MetricSummary
    pooled: EvalMetrics
    vectorizer_fingerprints: tuple[str, ...]


def cross_validate(dataset: LabeledDataset, k: int, kinds: Sequence[Algorithm], seed: int = 0,
                   min_df: int = DEFAULT_MIN_DF) -> dict[Algorithm, CvResult]:
    """Stratified k-fold CV with a fresh vectorizer per fold (train side
    only, so folds cannot leak vocabulary into each other). This process counts
    the dataset once and fits every (kind, fold) vectorizer; _fork_map runs the
    rest of each task on the CPUs this process may use, with equal results."""
    kinds = sorted(dict.fromkeys(Algorithm(x) for x in kinds), key=lambda a: a.value)
    if not kinds:
        raise ValueError("at least one classifier kind required")
    splits = kfold_split(dataset, k, derive_seed(seed, "cv", "folds"))
    counts = count_terms(dataset.documents)

    def prepare(task):
        kind, fold_index = task
        return kind, fold_index, fit_tfidf(counts.rows(splits[fold_index][0]), min_df=min_df)

    def run(prepared):
        kind, fold_index, vec = prepared
        train_idx, test_idx = splits[fold_index]
        return train_and_eval(train_ds=dataset.subset(train_idx), test_ds=dataset.subset(test_idx),
                              kind=kind, seed=derive_seed(seed, "cv", kind.value, fold_index),
                              fitted=(vec, counts.rows(train_idx), counts.rows(test_idx)))

    tasks = [(kind, fold_index) for kind in kinds for fold_index in range(len(splits))]
    outcomes = iter(_fork_map(run, tasks, prepare))
    results = {}
    for kind in kinds:
        per_fold, fingerprints = zip(*(next(outcomes) for _ in splits))
        results[kind] = CvResult(kind, per_fold, mean_of(per_fold), pooled_of(per_fold),
                                 fingerprints)
    return results


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

_SPEC_TYPES = {"name": str, "train_source": str, "test_source": str, "kinds": list,
               "seed": int, "imbalance_ratio": int}


@dataclass(frozen=True)
class ExperimentSpec:
    """One train/test arrangement: either CV on a single dataset
    (test_source "cv:k", train and test coincide) or a held-out test set,
    optionally resampled to a 1:ratio class imbalance."""

    name: str
    train_source: str
    test_source: str
    kinds: tuple[Algorithm, ...] = (Algorithm.NB, Algorithm.LR, Algorithm.SVM)
    seed: int = 0
    imbalance_ratio: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(Algorithm(x) for x in self.kinds))
        if not self.name:
            raise ValueError("experiment name must be non-empty")
        if not self.train_source or not self.test_source:
            raise ValueError("train_source and test_source must be non-empty")
        if not self.kinds:
            raise ValueError("at least one classifier kind required")
        if self.cv_k is not None:
            if self.cv_k < 2:
                raise ValueError("cv fold count must be >= 2")
            if self.imbalance_ratio is not None:
                raise ValueError("imbalance_ratio requires a held-out test set")
        if self.imbalance_ratio is not None and self.imbalance_ratio < 1:
            raise ValueError("imbalance_ratio must be >= 1")

    @property
    def cv_k(self) -> int | None:
        if self.test_source.startswith("cv:"):
            try:
                return int(self.test_source[3:])
            except ValueError:
                raise ValueError(f"malformed cv test_source {self.test_source!r}") from None
        return None


def experiment_from_dict(obj: dict) -> ExperimentSpec:
    atomic.check_types(obj, _SPEC_TYPES, "experiment key ", "unknown experiment config keys")
    missing = {k for k in ("name", "train_source", "test_source") if obj.get(k) is None}
    if missing:
        raise ValueError(f"missing experiment config keys: {sorted(missing)}")
    return ExperimentSpec(**{k: v for k, v in obj.items() if v is not None})


def experiment_to_dict(spec: ExperimentSpec) -> dict:
    return {**asdict(spec), "kinds": [k.value for k in spec.kinds]}


def _dataset_entry(path: str, ds: LabeledDataset) -> dict:
    n_pos, n_neg = ds.counts()
    return {
        "path": path,
        "n": len(ds),
        "n_pos": n_pos,
        "n_neg": n_neg,
        "fingerprint": dataset_fingerprint(ds),
    }


def dataset_paths(spec: ExperimentSpec, base_dir: str = ".") -> dict[str, str]:
    """The dataset files a spec reads, by field: train_source, and
    test_source for a held-out spec. A relative path is taken from base_dir."""
    fields = ("train_source",) if spec.cv_k is not None else ("train_source", "test_source")
    return {field: os.path.join(base_dir, getattr(spec, field)) for field in fields}


def run_experiment(
    spec: ExperimentSpec,
    base_dir: str = ".",
    min_df: int = DEFAULT_MIN_DF,
) -> dict:
    """Execute one experiment and return the full report as plain data.

    Everything but the timestamp is deterministic given the experiment
    spec argument and the dataset files it names.
    """
    paths = dataset_paths(spec, base_dir)
    train_ds = load_dataset(paths["train_source"])
    report: dict = {
        "version": REPORT_SCHEMA_VERSION,
        "name": spec.name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "spec": experiment_to_dict(spec),
        "min_df": min_df,
        "datasets": {"train": _dataset_entry(spec.train_source, train_ds)},
        "results": {},
    }
    if spec.cv_k is not None:
        cv = cross_validate(train_ds, spec.cv_k, spec.kinds, seed=spec.seed, min_df=min_df)
        for kind, res in cv.items():
            report["results"][kind.value] = {
                "mode": f"cv:{spec.cv_k}",
                "per_fold": [asdict(m) for m in res.per_fold],
                "mean": asdict(res.mean),
                "pooled": asdict(res.pooled),
                "vectorizer_fingerprints": list(res.vectorizer_fingerprints),
            }
        return report

    test_ds = load_dataset(paths["test_source"])
    if spec.imbalance_ratio is not None:
        test_ds = imbalanced_subset(
            test_ds, spec.imbalance_ratio,
            seed=derive_seed(spec.seed, "imbalance", spec.imbalance_ratio),
        )
    report["datasets"]["test"] = _dataset_entry(spec.test_source, test_ds)
    rows = count_terms(train_ds.documents)
    fitted = fit_tfidf(rows, min_df=min_df), rows, count_terms(test_ds.documents)
    for kind in sorted(set(spec.kinds), key=lambda a: a.value):
        m, fp = train_and_eval(train_ds, test_ds, kind, fitted=fitted,
                               seed=derive_seed(spec.seed, "holdout", kind.value))
        report["results"][kind.value] = {
            "mode": "holdout",
            "metrics": asdict(m),
            "vectorizer_fingerprint": fp,
        }
    return report


def save_report(report: dict, path: str) -> None:
    atomic.write_json(path, report, indent=2)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _headline_metrics(report: dict, kind: str) -> dict:
    entry = report["results"][kind]
    if entry["mode"].startswith("cv:"):
        return dict(entry["mean"])
    m = dict(entry["metrics"])
    m.pop("counts", None)
    return m


def format_metrics_table(report: dict) -> str:
    """Aligned text grid, one row per classifier kind."""
    header = ["algorithm"] + list(_COLUMNS)
    rows = [header]
    for kind in sorted(report["results"]):
        m = _headline_metrics(report, kind)
        rows.append([kind] + [f"{m[c]:.2f}" for c in _COLUMNS])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["algorithm", *_COLUMNS])
    for kind in sorted(report["results"]):
        m = _headline_metrics(report, kind)
        writer.writerow([kind] + [repr(m[c]) for c in _COLUMNS])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Synthetic-corpus claim pipelines
# ---------------------------------------------------------------------------


def overlap_curve(
    overlaps: Sequence[float] = (0.0, 0.3, 0.7),
    n_docs: int = 500,
    k: int = 15,
    vocab_core: int = 15,
    vocab_shared: int = 20,
    seed: int = 0,
) -> list[dict]:
    """Top-k vocabulary overlap between the two sides as a function of the
    planted shared-mass weight.

    Uses raw-phi ranking: with shared terms carrying most of the mass both
    sides surface them, which is exactly the overlap being measured
    (distinctiveness ranking would subtract it away by design).
    """
    from .synthgen import SynthSpec, generate
    from .topics import LldaConfig, fit_two_sides, jaccard_index, top_terms

    out = []
    for w in overlaps:
        spec = SynthSpec(
            n_docs=n_docs, vocab_core=vocab_core, vocab_shared=vocab_shared,
            overlap_weight=w, seed=derive_seed(seed, "curve", repr(w)),
        )
        pos, neg, _gt = generate(spec)
        pos_docs, neg_docs = ([tokens for _, _, tokens in tokenize(side)[0]]
                              for side in (pos, neg))
        model = fit_two_sides(
            pos_docs, neg_docs, LldaConfig(seed=derive_seed(seed, "curve", "llda", repr(w)))
        )
        top_pos = top_terms(model, "community", k, ranking="phi")
        top_neg = top_terms(model, "background", k, ranking="phi")
        out.append(
            {"overlap_weight": w, "jaccard": jaccard_index(set(top_pos), set(top_neg))}
        )
    return out


def community_vs_keyword_gap(
    seed: int = 0,
    n_docs_per_side: int = 5000,
    overlap_weight: float = 0.6,
    keyword_k: int = 30,
) -> dict:
    """Train one LR classifier on community labels and one on keyword-matched
    labels over the same pool; score both on a held-out truth-labeled test.

    Keyword matching labels every comment containing a keyword as positive.
    When the two sides share vocabulary (and chi-square, being symmetric,
    surfaces both sides' distinctive terms), those matches sweep in genuine
    negatives, so the keyword-trained model inherits a corrupted boundary.
    """
    from .keywords import KeywordMethod, build_keyword_set, keyword_match_dataset
    from .synthgen import SynthSpec, generate

    if n_docs_per_side < 50:
        raise ValueError("n_docs_per_side too small to partition")
    spec = SynthSpec(
        n_docs=n_docs_per_side, vocab_core=50, vocab_shared=50,
        overlap_weight=overlap_weight, seed=derive_seed(seed, "gap", "corpus"),
    )
    pos, neg, _gt = generate(spec)
    kw_n = n_docs_per_side // 5
    test_n = n_docs_per_side // 5
    pool_lo, pool_hi = kw_n, n_docs_per_side - test_n
    kw_docs = ([tokens for _, _, tokens in tokenize(side.comments[:kw_n])[0]]
               for side in (pos, neg))
    keyword_set = build_keyword_set(KeywordMethod.CHI2_I, *kw_docs, k=keyword_k)
    pool_pos = pos.comments[pool_lo:pool_hi]
    pool_neg = neg.comments[pool_lo:pool_hi]
    community_train, _ = build_balanced(
        pool_pos, pool_neg, seed=derive_seed(seed, "gap", "community")
    )
    n_side = (pool_hi - pool_lo) * 2 // 5
    baseline_train = keyword_match_dataset(
        pool_pos + pool_neg, keyword_set, n_pos=n_side, n_neg=n_side,
        seed=derive_seed(seed, "gap", "kwmatch"),
    )
    test_ds, _ = build_balanced(
        pos.comments[pool_hi:], neg.comments[pool_hi:], seed=derive_seed(seed, "gap", "test")
    )
    test_rows, metrics = count_terms(test_ds.documents), {}  # the test set, counted once
    for name, train_ds in (("community", community_train), ("baseline", baseline_train)):
        rows = count_terms(train_ds.documents)
        metrics[name], _ = train_and_eval(train_ds, test_ds, Algorithm.LR,
                                          seed=derive_seed(seed, "gap", "train", name),
                                          fitted=(fit_tfidf(rows), rows, test_rows))
    return {
        "seed": seed,
        "keywords": [t for t, _ in keyword_set.terms],
        **{name: asdict(m) for name, m in metrics.items()},
        "precision_gap": metrics["community"].precision - metrics["baseline"].precision,
    }


def median_precision_gap(
    seeds: Sequence[int] = (0, 1, 2, 3, 4), **kwargs
) -> dict:
    """community_vs_keyword_gap across seeds, reduced to the median gap."""
    import statistics  # here: the CLI never loads it (nor decimal and fractions)
    runs = [community_vs_keyword_gap(seed=s, **kwargs) for s in seeds]
    return {
        "runs": runs,
        "median_precision_gap": statistics.median([r["precision_gap"] for r in runs]),
    }
