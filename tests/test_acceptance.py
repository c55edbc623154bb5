"""Release gate: every criterion below must hold at the stated tolerance.

Each test carries an ``acceptance`` marker; the conftest hook prints one
ACCEPTANCE <id> PASS/FAIL line per criterion in the terminal summary. The
checks compare library output against independently coded references
(brute-force tallies, closed forms, finite differences), never against the
library's own intermediate values.
"""

import gzip
import inspect
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from time import perf_counter

import pytest

from commhate import evaluation
from commhate.classifiers import Algorithm, TrainConfig, train_linear, train_nb
from commhate.corpus import (
    NEGATIVE,
    POSITIVE,
    LabeledDataset,
    build_balanced,
    imbalanced_subset,
    iter_jsonl,
    load_jsonl,
    write_dataset,
    write_jsonl,
)
from commhate.evaluation import (
    ConfusionCounts,
    ExperimentSpec,
    compute_metrics,
    cross_validate,
    metrics_from_counts,
    run_experiment,
    save_report,
    train_and_eval,
)
from commhate.keywords import chi2_scores
from commhate.synthgen import SynthSpec, generate
from commhate.topics import LldaConfig, fit_llda, fit_two_sides, jaccard_index, top_terms
from commhate.vectorizer import CsrBatch, fit_tfidf

LABELS = (POSITIVE, NEGATIVE)


@pytest.mark.acceptance("C1", "metric oracle on 1000 random vectors, counts exact, "
                              "ratios within 1e-12, worked kappa example exact")
def test_c01_metric_oracle():
    rng = random.Random(1001)
    t0 = perf_counter()
    for _ in range(1000):
        n = rng.randint(1, 1000)
        predicted = [rng.choice(LABELS) for _ in range(n)]
        expected = [rng.choice(LABELS) for _ in range(n)]
        m = compute_metrics(predicted, expected)

        tp = sum(p == POSITIVE and e == POSITIVE for p, e in zip(predicted, expected))
        fp = sum(p == POSITIVE and e == NEGATIVE for p, e in zip(predicted, expected))
        fn = sum(p == NEGATIVE and e == POSITIVE for p, e in zip(predicted, expected))
        tn = sum(p == NEGATIVE and e == NEGATIVE for p, e in zip(predicted, expected))
        assert (m.counts.tp, m.counts.fp, m.counts.fn, m.counts.tn) == (tp, fp, fn, tn)

        assert abs(m.accuracy - (tp + tn) / n) <= 1e-12
        assert abs(m.precision - (tp / (tp + fp) if tp + fp else 0.0)) <= 1e-12
        assert abs(m.recall - (tp / (tp + fn) if tp + fn else 0.0)) <= 1e-12
        prec, rec = m.precision, m.recall
        ref_f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert abs(m.f1 - ref_f1) <= 1e-12
        po = (tp + tn) / n
        pe = ((tp + fp) / n) * ((tp + fn) / n) + ((fn + tn) / n) * ((fp + tn) / n)
        ref_kappa = (1.0 if po == 1.0 else 0.0) if pe == 1.0 else (po - pe) / (1 - pe)
        assert abs(m.kappa - ref_kappa) <= 1e-12
    assert perf_counter() - t0 < 5.0

    worked = metrics_from_counts(ConfusionCounts(tp=40, fp=20, tn=30, fn=10))
    assert worked.kappa == 0.40


def _nb_reference(train_docs, labels, test_doc, vocab, alpha):
    vset = set(vocab)
    by_class = {POSITIVE: [], NEGATIVE: []}
    for doc, label in zip(train_docs, labels):
        by_class[label].append(doc)
    n = len(train_docs)
    score = math.log(len(by_class[POSITIVE]) / n) - math.log(len(by_class[NEGATIVE]) / n)
    for label, sign in ((POSITIVE, 1.0), (NEGATIVE, -1.0)):
        tokens = [t for d in by_class[label] for t in d if t in vset]
        counts = Counter(tokens)
        total = len(tokens)
        for t in test_doc:
            if t in vset:
                score += sign * math.log(
                    (counts[t] + alpha) / (total + alpha * len(vocab))
                )
    return score


@pytest.mark.acceptance("C2", "closed-form NB equals brute-force posterior on 100 "
                              "random small corpora within 1e-9")
def test_c02_nb_oracle():
    rng = random.Random(1002)
    pool = [f"w{i}" for i in range(10)]
    for _ in range(100):
        n_docs = rng.randint(2, 20)
        docs = [
            [rng.choice(pool) for _ in range(rng.randint(1, 7))] for _ in range(n_docs)
        ]
        labels = [rng.choice(LABELS) for _ in range(n_docs)]
        if POSITIVE not in labels:
            labels[0] = POSITIVE
        if NEGATIVE not in labels:
            labels[-1] = NEGATIVE
        vec = fit_tfidf(docs, min_df=1)
        model = train_nb(
            vec.transform_counts_all(docs), labels, TrainConfig(algorithm="nb")
        )
        for _ in range(3):
            test_doc = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
            expected = _nb_reference(docs, labels, test_doc, vec.vocabulary, 1.0)
            got = model.score_all(vec.transform_counts_all([test_doc]))[0]
            assert abs(got - expected) <= 1e-9


@pytest.mark.acceptance("C3", "analytic LR gradient matches central finite "
                              "differences on 50 instances within 1e-5 relative")
def test_c03_lr_gradient_check(sgd_epoch_reference):
    # One epoch of train_linear, for LR and for the SVM, on 50 random CSR
    # batches each, against plain SGD steps whose gradients are central
    # finite differences of the per-instance regularized loss.
    rng = random.Random(1003)
    for algorithm in ("lr", "svm"):
        checked = 0
        while checked < 50:
            n, dim = rng.randint(2, 8), rng.randint(1, 8)
            indptr, indices, data = [0], [], []
            for _ in range(n):
                row = sorted(rng.sample(range(dim), rng.randint(0, dim)))
                indices += row
                data += [rng.uniform(0.05, 2.0) for _ in row]
                indptr.append(len(indices))
            labels = [rng.choice(LABELS) for _ in range(n)]
            labels[:2] = [POSITIVE, NEGATIVE]
            batch = CsrBatch(indptr, indices, data, dim)
            cfg = TrainConfig(algorithm=algorithm, epochs=1,
                              learning_rate=rng.uniform(0.1, 1.0),
                              l2_lambda=10 ** rng.uniform(-3, -1),
                              seed=rng.randrange(2**31))
            w, b, near_kink = sgd_epoch_reference(batch, labels, cfg)
            if near_kink:  # the hinge has no gradient there: redraw
                continue
            model = train_linear(batch, labels, cfg)
            for got, ref in zip([*model.weights, model.bias], [*w, b]):
                assert abs(got - ref) <= 1e-5 * max(1.0, abs(ref), abs(got))
            checked += 1


@pytest.mark.acceptance("C4", "topic model matches smoothed label frequencies within "
                              "1e-6 and recovers >= 18/20 planted terms in < 30 s")
def test_c04_llda_degeneracy_and_recovery():
    t0 = perf_counter()
    rng = random.Random(1004)
    pool = [f"t{i}" for i in range(15)]
    for trial in range(10):
        n_docs = rng.randint(2, 30)
        docs = [
            [rng.choice(pool) for _ in range(rng.randint(1, 9))] for _ in range(n_docs)
        ]
        labels = [rng.choice("ABC") for _ in range(n_docs)]
        if len(set(labels)) < 2:
            labels[0] = "A" if labels[0] != "A" else "B"
        beta = rng.choice([0.05, 0.1, 0.5])
        model = fit_llda(docs, labels, LldaConfig(beta=beta, seed=trial))
        v = len(model.vocabulary)
        for li, lab in enumerate(model.labels):
            counts = Counter(
                t for d, l in zip(docs, labels) if l == lab for t in d
            )
            total = sum(counts.values())
            for ti, term in enumerate(model.vocabulary):
                ref = (counts[term] + beta) / (total + beta * v)
                assert abs(model.phi[li][ti] - ref) <= 1e-6

    pos, neg, gt = generate(
        SynthSpec(n_docs=250, vocab_core=10, vocab_shared=10,
                  overlap_weight=0.2, seed=42)
    )
    pos_docs = [c.body.split() for c in pos.comments]
    neg_docs = [c.body.split() for c in neg.comments]
    two = fit_two_sides(pos_docs, neg_docs, LldaConfig(seed=7))
    hits = len(set(top_terms(two, "community", 10)) & set(gt["positive_terms"]))
    hits += len(set(top_terms(two, "background", 10)) & set(gt["negative_terms"]))
    assert hits >= 18
    assert perf_counter() - t0 < 30.0


@pytest.mark.acceptance("C5", "chi-square matches brute-force contingency values "
                              "exactly; perfect association = N, independence = 0")
def test_c05_chi2_oracle():
    # 10-document corpus, 4 positive / 6 negative
    pos = [
        ["perf", "ind", "mix"],
        ["perf", "ind"],
        ["perf", "mix", "rare"],
        ["perf"],
    ]
    neg = [
        ["ind", "mix"],
        ["ind"],
        ["ind", "other"],
        ["mix", "other"],
        ["other"],
        ["mix", "other", "rare"],
    ]
    scores = chi2_scores(pos, neg, min_df=1)
    for term in scores:
        a = sum(1 for d in pos if term in d)
        b = sum(1 for d in neg if term in d)
        c, d = len(pos) - a, len(neg) - b
        denom = (a + b) * (c + d) * (a + c) * (b + d)
        expected = 0.0 if denom == 0 else float(
            Fraction(10 * (a * d - b * c) ** 2, denom)
        )
        assert scores[term] == expected
    assert scores["perf"] == 10.0  # in all 4 pos, no neg: chi2 = N
    assert scores["ind"] == 0.0  # 2/4 pos vs 3/6 neg: equal rates, no association

    # independence by construction: same presence rate both sides
    pos_i = [["t"], ["t"], ["x"], ["x"]]
    neg_i = [["t"], ["t"], ["t"], ["x"], ["x"], ["x"]]
    assert chi2_scores(pos_i, neg_i, min_df=1)["t"] == 0.0


@pytest.mark.acceptance("C6", "Jaccard exact on enumerated pairs including 0.5, "
                              "1.0 and the both-empty convention")
def test_c06_jaccard_enumerated():
    assert jaccard_index({"a", "b", "c"}, {"b", "c", "d"}) == 0.5
    assert jaccard_index({"x"}, {"x"}) == 1.0
    assert jaccard_index(set(), set()) == 0.0
    assert jaccard_index(set(), {"y"}) == 0.0
    assert jaccard_index({"a", "b"}, {"c"}) == 0.0
    assert jaccard_index({"a", "b", "c", "d"}, {"c", "d", "e", "f"}) == 1 / 3


@pytest.mark.acceptance("C7", "top-15 vocabulary overlap is 0 at overlap weight 0 "
                              "and non-decreasing across {0, 0.3, 0.7}")
def test_c07_overlap_curve():
    curve = evaluation.overlap_curve(overlaps=(0.0, 0.3, 0.7), seed=0)
    ji = [pt["jaccard"] for pt in curve]
    assert ji[0] == 0.0
    assert ji[0] <= ji[1] <= ji[2]


@pytest.mark.acceptance("C8", "community-trained LR beats the top-30 chi-square "
                              "keyword baseline by >= 0.05 median precision in < 2 min")
def test_c08_precision_gap():
    t0 = perf_counter()
    out = evaluation.median_precision_gap(
        seeds=(0, 1, 2, 3, 4), n_docs_per_side=5000, overlap_weight=0.6, keyword_k=30
    )
    assert out["median_precision_gap"] >= 0.05
    assert perf_counter() - t0 < 120.0


@pytest.mark.acceptance("C9", "CV accuracy >= 0.95 for all three classifiers on "
                              "disjoint vocabularies; shuffled-label kappa within 0.1 of 0")
def test_c09_separability_and_chance_floor(shuffle_labels):
    pos, neg, _ = generate(SynthSpec(n_docs=1000, seed=9))
    ds, _ = build_balanced(pos, neg, seed=1)
    assert len(ds) == 2000
    results = cross_validate(ds, 10, list(Algorithm), seed=3)
    for kind, res in results.items():
        assert res.mean.accuracy >= 0.95, kind
    shuffled = shuffle_labels(ds, seed=123)
    chance = cross_validate(shuffled, 10, list(Algorithm), seed=4)
    for kind, res in chance.items():
        assert abs(res.pooled.kappa) <= 0.1, kind


@pytest.mark.acceptance("C10", "rerunning an experiment spec reproduces the report "
                               "byte for byte apart from the timestamp")
def test_c10_report_determinism(tmp_path):
    pos, neg, _ = generate(SynthSpec(n_docs=60, vocab_core=8, vocab_shared=8, seed=2))
    ds, _ = build_balanced(pos, neg, seed=1)
    write_dataset(ds, str(tmp_path / "train.jsonl"))
    spec = ExperimentSpec(
        name="det", train_source="train.jsonl", test_source="cv:5", seed=11
    )
    reports = []
    for i in range(2):
        path = tmp_path / f"det{i}.json"
        save_report(run_experiment(spec, base_dir=str(tmp_path)), str(path))
        data, n = re.subn(rb'\n  "timestamp": "[^"\n]*",', b"", path.read_bytes())
        assert n == 1
        reports.append(data)
    assert reports[0] == reports[1]


@pytest.mark.acceptance("C11", "1:10 / 1:100 / 1:1000 test sets build at exact "
                               "ratios and every ratio evaluates to metrics")
def test_c11_imbalance_grid():
    pos, neg, _ = generate(SynthSpec(n_docs=2200, vocab_core=20, vocab_shared=10, seed=5))
    train_pos, train_neg, _ = generate(
        SynthSpec(n_docs=200, vocab_core=20, vocab_shared=10, seed=6)
    )
    train_ds, _ = build_balanced(train_pos, train_neg, seed=2)
    pool, _ = build_balanced(pos, neg, seed=0)
    pos_idx = [i for i, l in enumerate(pool.labels) if l == POSITIVE]
    pool = pool.subset(pos_idx[:2] + [i for i, l in enumerate(pool.labels) if l == NEGATIVE])
    for ratio in (10, 100, 1000):
        test_ds = imbalanced_subset(pool, ratio, seed=ratio)
        assert test_ds.counts() == (2, 2 * ratio)
        metrics, _ = train_and_eval(train_ds, test_ds, Algorithm.LR, seed=1)
        assert metrics.counts.total == 2 + 2 * ratio
        for value in (metrics.accuracy, metrics.precision, metrics.recall,
                      metrics.f1):
            assert 0.0 <= value <= 1.0
        assert -1.0 <= metrics.kappa <= 1.0


@pytest.mark.acceptance("C12", "100k-line JSONL ingests at > 20k lines/s plain and "
                               "gzipped, round-trips losslessly, and streams lazily")
def test_c12_ingestion_throughput(tmp_path):
    n = 100_000
    communities = ("groupone", "grouptwo", "groupthree")
    plain = tmp_path / "dump.jsonl"
    with open(plain, "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(json.dumps({
                "id": f"c{i}",
                "body": f"comment number {i} with some plain words",
                "subreddit": communities[i % 3],
                "created_utc": 1_500_000_000 + i,
                "author": f"author{i % 97}",
            }) + "\n")
    zipped = tmp_path / "dump.jsonl.gz"
    with open(plain, "rb") as src, gzip.open(zipped, "wb") as dst:
        dst.write(src.read())

    for path in (plain, zipped):
        t0 = perf_counter()
        count = sum(1 for _ in iter_jsonl(str(path)))
        elapsed = perf_counter() - t0
        assert count == n
        assert count / elapsed > 20_000, f"{path.name}: {count / elapsed:.0f} lines/s"

    loaded, skipped = load_jsonl(str(plain))
    assert skipped == 0 and len(loaded) == n
    echo = tmp_path / "echo.jsonl"
    write_jsonl(loaded, str(echo))
    again, skipped = load_jsonl(str(echo))
    assert skipped == 0
    assert again.comments == loaded.comments

    # a generator pulls line by line; nothing forces whole-file materialization
    assert inspect.isgeneratorfunction(iter_jsonl)
