import json
import math
import random
import re

import numpy as np
import pytest

from commhate import classifiers
from commhate.classifiers import (
    Algorithm,
    LinearModel,
    TrainConfig,
    train,
    train_linear,
    train_nb,
)
from commhate.corpus import NEGATIVE, POSITIVE
from commhate.seeding import derive_seed
from commhate.vectorizer import CsrBatch, fit_tfidf


def _nb_reference(train_docs, labels, test_doc, vocab, alpha):
    """Independent count-based NB posterior difference (the oracle)."""
    vset = set(vocab)
    by_class = {POSITIVE: [], NEGATIVE: []}
    for doc, label in zip(train_docs, labels):
        by_class[label].append(doc)
    n = len(train_docs)
    score = math.log(len(by_class[POSITIVE]) / n) - math.log(
        len(by_class[NEGATIVE]) / n
    )
    tot = {}
    cnt = {}
    for label, docs in by_class.items():
        tokens = [t for d in docs for t in d if t in vset]
        tot[label] = len(tokens)
        cnt[label] = {t: tokens.count(t) for t in vocab}
    v = len(vocab)
    for t in test_doc:
        if t not in vset:
            continue
        score += math.log((cnt[POSITIVE][t] + alpha) / (tot[POSITIVE] + alpha * v))
        score -= math.log((cnt[NEGATIVE][t] + alpha) / (tot[NEGATIVE] + alpha * v))
    return score


class TestNaiveBayes:
    def test_disjoint_vocab_example(self):
        docs = [["foo"], ["bar"]]
        labels = [POSITIVE, NEGATIVE]
        vec = fit_tfidf(docs, min_df=1)
        model = train_nb(vec.transform_counts_all(docs), labels, TrainConfig(algorithm="nb"))
        assert model.predict_all(vec.transform_counts_all([["foo"]])) == [POSITIVE]
        assert model.predict_all(vec.transform_counts_all([["bar"]])) == [NEGATIVE]

    def test_matches_reference_on_random_corpora(self):
        rng = random.Random(11)
        vocab_pool = [f"w{c}" for c in "abcdefghij"]
        for _ in range(10):
            n_docs = rng.randint(2, 12)
            docs, labels = [], []
            for i in range(n_docs):
                docs.append([rng.choice(vocab_pool) for _ in range(rng.randint(1, 6))])
                labels.append(POSITIVE if i % 2 == 0 else NEGATIVE)
            vec = fit_tfidf(docs, min_df=1)
            model = train_nb(vec.transform_counts_all(docs), labels, TrainConfig(algorithm="nb"))
            test_doc = [rng.choice(vocab_pool) for _ in range(4)]
            expected = _nb_reference(docs, labels, test_doc, vec.vocabulary, 1.0)
            got = model.score_all(vec.transform_counts_all([test_doc]))[0]
            assert got == pytest.approx(expected, abs=1e-9)

    def test_zero_vector_scores_log_prior_difference(self):
        docs = [["a"], ["a"], ["b"]]
        labels = [POSITIVE, POSITIVE, NEGATIVE]
        vec = fit_tfidf(docs, min_df=1)
        model = train_nb(vec.transform_counts_all(docs), labels, TrainConfig(algorithm="nb"))
        zero = CsrBatch([0, 0], [], [], vec.dim)
        assert model.score_all(zero)[0] == pytest.approx(math.log(2 / 3) - math.log(1 / 3))

    def test_single_class_error(self):
        vec = fit_tfidf([["a"], ["b"]], min_df=1)
        with pytest.raises(ValueError, match="both classes"):
            train_nb(vec.transform_counts_all([["a"], ["b"]]), [POSITIVE, POSITIVE],
                     TrainConfig(algorithm="nb"))

    def test_dimension_mismatch_error(self):
        vec = fit_tfidf([["a"], ["b"]], min_df=1)
        model = train_nb(
            vec.transform_counts_all([["a"], ["b"]]), [POSITIVE, NEGATIVE],
            TrainConfig(algorithm="nb"),
        )
        with pytest.raises(ValueError, match="dimension"):
            model.score_all(CsrBatch([0, 1], [0], [1.0], 99))


def _separable(n=100, seed=0):
    rng = random.Random(seed)
    docs, labels = [], []
    for i in range(n):
        side = i % 2
        vocab = ["aaa", "aab", "aac"] if side == 0 else ["bba", "bbb", "bbc"]
        docs.append([rng.choice(vocab) for _ in range(rng.randint(3, 6))])
        labels.append(POSITIVE if side == 0 else NEGATIVE)
    return docs, labels


class TestLinearModels:
    @pytest.mark.parametrize("algorithm", ["lr", "svm"])
    def test_separable_training_accuracy(self, algorithm):
        docs, labels = _separable(200)
        vec = fit_tfidf(docs, min_df=1)
        vectors = vec.transform_all(docs)
        model = train_linear(vectors, labels, TrainConfig(algorithm=algorithm, seed=3))
        predictions = model.predict_all(vectors)
        assert predictions == list(labels)

    @pytest.mark.parametrize("algorithm", ["lr", "svm"])
    def test_bit_identical_under_same_seed(self, algorithm):
        docs, labels = _separable(60)
        vec = fit_tfidf(docs, min_df=1)
        vectors = vec.transform_all(docs)
        cfg = TrainConfig(algorithm=algorithm, seed=7)
        a = train_linear(vectors, labels, cfg)
        b = train_linear(vectors, labels, cfg)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
        c = train_linear(vectors, labels, TrainConfig(algorithm=algorithm, seed=8))
        assert not np.array_equal(a.weights, c.weights)

    def test_label_flip_negates_lr_scores(self):
        docs, labels = _separable(80)
        flipped = [NEGATIVE if l == POSITIVE else POSITIVE for l in labels]
        vec = fit_tfidf(docs, min_df=1)
        vectors = vec.transform_all(docs)
        cfg = TrainConfig(algorithm="lr", seed=5)
        a = train_linear(vectors, labels, cfg)
        b = train_linear(vectors, flipped, cfg)
        np.testing.assert_allclose(a.weights, -b.weights, rtol=0, atol=1e-12)
        assert a.bias == pytest.approx(-b.bias, abs=1e-12)

    def test_score_is_linear_in_input_scale(self):
        docs, labels = _separable(40)
        vec = fit_tfidf(docs, min_df=1)
        model = train_linear(
            vec.transform_all(docs), labels, TrainConfig(algorithm="lr", seed=1)
        )
        v = vec.transform_all([docs[0]])
        scaled = CsrBatch(v.indptr, v.indices, 3.0 * v.data, v.dim)
        lin = model.score_all(v)[0] - model.bias
        lin_scaled = model.score_all(scaled)[0] - model.bias
        assert lin_scaled == pytest.approx(3.0 * lin, rel=1e-9)

    def test_zero_vector_lr_scores_bias(self):
        docs, labels = _separable(40)
        vec = fit_tfidf(docs, min_df=1)
        model = train_linear(
            vec.transform_all(docs), labels, TrainConfig(algorithm="lr", seed=1)
        )
        assert model.score_all(CsrBatch([0, 0], [], [], vec.dim))[0] == model.bias

    def test_zero_weight_model_scores_zero_and_ties_negative(self):
        model = LinearModel(weights=np.zeros(2), bias=0.0, algorithm=Algorithm.LR)
        v = CsrBatch([0, 1], [0], [2.5], 2)
        assert model.score_all(v)[0] == 0.0
        assert model.predict_all(v) == [NEGATIVE]

    def test_score_all_equals_scalar_loop(self):
        # The per-document loop, bias first then terms left to right, is the
        # reference; the batch mat-vec must reproduce it bit for bit.
        rng = random.Random(13)
        dim = 50
        model = LinearModel(weights=[rng.uniform(-3, 3) for _ in range(dim)],
                            bias=rng.uniform(-1, 1), algorithm=Algorithm.LR)
        rows = [sorted(rng.sample(range(dim), rng.randint(0, dim))) for _ in range(40)]
        values = [[rng.uniform(0.01, 5.0) for _ in r] for r in rows]
        batch = CsrBatch(np.cumsum([0] + [len(r) for r in rows]),
                         [i for r in rows for i in r], [v for vs in values for v in vs], dim)
        expected = []
        for r, vs in zip(rows, values):
            s = model.bias
            for i, v in zip(r, vs):
                s += v * float(model.weights[i])
            expected.append(s)
        assert model.score_all(batch).tolist() == expected

    def test_rejects_nb_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            train_linear(CsrBatch([0], [], [], 0), [], TrainConfig(algorithm="nb"))

    def test_single_class_error(self):
        vec = fit_tfidf([["a"], ["b"]], min_df=1)
        with pytest.raises(ValueError, match="both classes"):
            train_linear(vec.transform_all([["a"], ["b"]]),
                         [NEGATIVE, NEGATIVE], TrainConfig(algorithm="svm"))


class TestLogisticGradient:
    def test_loss_is_stable_for_large_margins(self):
        # The LR step's loss derivative y * sigma(-m), far past where exp overflows.
        assert classifiers._stable_sigmoid_neg(1000.0) == 0.0
        assert classifiers._stable_sigmoid_neg(-1000.0) == 1.0
        assert classifiers._stable_sigmoid_neg(0.0) == 0.5

    def test_train_linear_takes_plain_gradient_steps(self, sgd_epoch_reference):
        # One LR epoch equals w <- w - eta_t * grad and b <- b - eta_t * grad_b
        # with finite-difference gradients, in the trainer's order with its eta_t.
        docs, labels = _separable(12, seed=4)
        vec = fit_tfidf(docs, min_df=1)
        batch = vec.transform_all(docs)
        cfg = TrainConfig(algorithm="lr", epochs=1, learning_rate=0.5, l2_lambda=0.05, seed=6)
        model = train_linear(batch, labels, cfg)
        w, b, _ = sgd_epoch_reference(batch, labels, cfg)
        assert np.abs(w).max() > 0.1  # the steps moved the weights
        np.testing.assert_allclose(model.weights, w, rtol=0, atol=1e-8)
        assert abs(model.bias - b) <= 1e-8


def _sgd_reference(batch, labels, cfg):
    """The trainer's SGD written as one scalar loop over Python floats: the
    same shuffle, eta_t and lazy L2 scale, with each row's dot product summed
    left to right and no numpy in the step."""
    indptr, indices, data = batch.indptr.tolist(), batch.indices.tolist(), batch.data.tolist()
    eta0, lam = cfg.learning_rate, cfg.l2_lambda
    direction, scale, bias, t = [0.0] * batch.dim, 1.0, 0.0, 0
    order = list(range(len(labels)))
    rng = random.Random(derive_seed(cfg.seed, "sgd", cfg.algorithm.value))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for i in order:
            t += 1
            eta = eta0 / (1.0 + eta0 * lam * t)
            y = 1.0 if labels[i] == POSITIVE else -1.0
            dot = 0.0
            for k in range(indptr[i], indptr[i + 1]):
                dot += direction[indices[k]] * data[k]
            z = bias + scale * dot
            m = y * z
            if cfg.algorithm is Algorithm.SVM:
                step = y if m < 1.0 else 0.0
            else:  # y * sigma(-m), without overflow
                e = math.exp(-abs(m))
                step = y * (e / (1.0 + e) if m >= 0 else 1.0 / (1.0 + e))
            scale *= 1.0 - eta * lam
            if step != 0.0:
                for k in range(indptr[i], indptr[i + 1]):
                    direction[indices[k]] += (eta * step / scale) * data[k]
                bias += eta * step
    return [scale * d for d in direction], bias


class TestShuffle:
    @pytest.mark.parametrize("seed", [0, 1, 5, 2024, 2**70 + 1])
    def test_draws_and_swaps_equal_random_shuffle(self, seed):
        # The inlined draw must leave the list and the generator exactly as
        # random.Random.shuffle does, across many widths of its draws.
        ours, ref = random.Random(seed), random.Random(seed)
        for n in range(301):
            a, b = list(range(n)), list(range(n))
            classifiers._shuffle(a, ours.getrandbits)
            ref.shuffle(b)
            assert a == b, n
            assert ours.getstate() == ref.getstate(), n


class TestSgdOracle:
    @pytest.mark.parametrize("algorithm", ["lr", "svm"])
    @pytest.mark.parametrize("seed,n_rows", [
        *(pytest.param(seed, 81, id=str(seed)) for seed in range(4)),
        # 2 and 65 rows: the shuffle's draw bound m crosses a power of two.
        *(pytest.param(seed, n, id=f"rows{n}-{seed}") for n in (2, 65) for seed in range(4)),
    ])
    def test_weights_equal_scalar_reference(self, algorithm, seed, n_rows):
        rng = random.Random(seed)
        vocab = [f"t{k}" for k in range(120)]
        docs = [rng.sample(vocab, rng.randint(1, 30)) for _ in range(80)]
        labels = [POSITIVE if rng.random() < 0.5 else NEGATIVE for _ in docs]
        vec = fit_tfidf(docs, min_df=2)
        docs, labels = docs[:n_rows - 1], labels[:n_rows - 1]
        docs.append(["never", "seen"])  # all out of vocabulary: an empty row
        # The empty row takes the class the other rows lack, if one is missing.
        labels.append(NEGATIVE if set(labels) == {POSITIVE} else POSITIVE)
        batch = vec.transform_all(docs)
        assert batch.indptr[-1] == batch.indptr[-2]
        cfg = TrainConfig(algorithm=algorithm, epochs=5, learning_rate=0.3,
                          l2_lambda=1e-3, seed=seed)
        model = train_linear(batch, labels, cfg)
        weights, bias = _sgd_reference(batch, labels, cfg)
        assert model.weights.tolist() == weights
        assert model.bias == bias

    @pytest.mark.parametrize("algorithm", ["lr", "svm"])
    def test_divergence_names_the_epoch(self, algorithm):
        # eta0 * lambda = 1e20 shrinks the scale to exactly 0 on the first step.
        docs, labels = _separable(20)
        vec = fit_tfidf(docs, min_df=1)
        cfg = TrainConfig(algorithm=algorithm, learning_rate=1e20, l2_lambda=1.0)
        with pytest.raises(ValueError, match="training diverged: non-finite "
                           "parameters after epoch 1$"):
            train_linear(vec.transform_all(docs), labels, cfg)


class TestDispatchAndPersistence:
    def _fitted(self, algorithm):
        docs, labels = _separable(40)
        vec = fit_tfidf(docs, min_df=1)
        cfg = TrainConfig(algorithm=algorithm, seed=2)
        if cfg.algorithm is Algorithm.NB:
            vectors = vec.transform_counts_all(docs)
        else:
            vectors = vec.transform_all(docs)
        return vec, vectors, train(vectors, labels, cfg)

    @pytest.mark.parametrize("algorithm,cls", [
        ("nb", LinearModel), ("lr", LinearModel), ("svm", LinearModel),
    ])
    def test_dispatch_types(self, algorithm, cls):
        _, _, model = self._fitted(algorithm)
        assert isinstance(model, cls)
        assert model.algorithm is Algorithm(algorithm)

    @pytest.mark.parametrize("algorithm", ["nb", "lr", "svm"])
    def test_round_trip_preserves_predictions(self, algorithm, tmp_path):
        vec, vectors, model = self._fitted(algorithm)
        p = tmp_path / "model.json"
        classifiers.save_model(model, str(p), vectorizer_hash="abc123")
        loaded, vhash = classifiers.load_model(str(p))
        assert vhash == "abc123"
        assert loaded.predict_all(vectors) == model.predict_all(vectors)
        assert loaded.score_all(vectors).tolist() == pytest.approx(
            model.score_all(vectors).tolist(), rel=1e-12
        )

    def test_schema_v1_file_is_rejected(self, tmp_path):
        v1 = {"version": 1, "algorithm": "nb", "vectorizer_hash": "abc123", "alpha": 1.0,
              "log_prior": [math.log(0.4), math.log(0.6)],
              "log_cond_pos": [-1.0, -2.0], "log_cond_neg": [-2.0, -1.0]}
        p = tmp_path / "model.json"
        p.write_text(json.dumps(v1), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: unsupported model "
                           "schema version: 1$"):
            classifiers.load_model(str(p))

    @pytest.mark.parametrize("obj,field", [
        ({"version": 2, "algorithm": "lr", "bias": 0.0}, "weights"),
        ({"version": 2, "algorithm": "lr", "weights": [1.0]}, "bias"),
        ({"version": 2, "weights": [1.0], "bias": 0.0}, "algorithm"),
        ({"version": 2, "algorithm": "knn", "weights": [1.0], "bias": 0.0}, "algorithm"),
        ({"version": 2, "algorithm": "lr", "weights": 1.0, "bias": 0.0}, "weights"),
        ({"version": 2, "algorithm": "lr", "weights": [1.0, None], "bias": 0.0}, "weights"),
        ({"version": 2, "algorithm": "lr", "weights": [True], "bias": 0.0}, "weights"),
        ({"version": 2, "algorithm": "lr", "weights": [[1.0]], "bias": 0.0}, "weights"),
        ({"version": 2, "algorithm": "lr", "weights": [float("nan")], "bias": 0.0}, "weights"),
        ({"version": 2, "algorithm": "lr", "weights": [10**400], "bias": 0.0}, "weights"),
        ({"version": 2, "algorithm": "lr", "weights": [1.0], "bias": [0.0]}, "bias"),
        ({"version": 2, "algorithm": "lr", "weights": [1.0], "bias": float("inf")}, "bias"),
        ({"version": 2, "algorithm": "lr", "weights": [1.0], "bias": 0.0,
          "vectorizer_hash": None}, "vectorizer_hash"),
        ({"version": 2, "algorithm": "lr", "weights": [1.0], "bias": 0.0,
          "vectorizer_hash": ["x"]}, "vectorizer_hash"),
        ({"version": 2, "algorithm": "lr", "weights": [1.0], "bias": 0.0,
          "vectorizer_hash": False}, "vectorizer_hash"),
    ])
    def test_malformed_field_is_named(self, tmp_path, obj, field):
        p = tmp_path / "model.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: model field '{field}'"):
            classifiers.load_model(str(p))

    @pytest.mark.parametrize("extra,recorded", [
        ({}, ""), ({"vectorizer_hash": ""}, ""), ({"vectorizer_hash": "abc123"}, "abc123"),
    ], ids=["absent", "empty", "set"])
    def test_recorded_vectorizer_hash(self, extra, recorded):
        # An absent or empty hash records no vectorizer; evaluate then skips the check.
        obj = {"version": 2, "algorithm": "lr", "weights": [1.0], "bias": 0.0, **extra}
        assert classifiers.model_from_dict(obj)[1] == recorded

    @pytest.mark.parametrize("obj", [[1, 2], "model", 3, None])
    def test_non_object_file_is_rejected(self, obj):
        with pytest.raises(ValueError, match="must hold a JSON object"):
            classifiers.model_from_dict(obj)

    def test_schema_version_enforced(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps({"version": 42, "algorithm": "lr"}), encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            classifiers.load_model(str(p))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.l2_lambda, cfg.epochs, cfg.learning_rate, cfg.nb_alpha) == (
            1e-4, 20, 0.1, 1.0
        )

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"learning_rate": 0.0},
        {"l2_lambda": 0.0},
        {"l2_lambda": -1.0},
        {"nb_alpha": 0.0},
    ])
    def test_rejects_non_positive_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("name", ["learning_rate", "l2_lambda", "nb_alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rates(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})

    def test_algorithm_coerced_from_string(self):
        assert TrainConfig(algorithm="svm").algorithm is Algorithm.SVM
        with pytest.raises(ValueError):
            TrainConfig(algorithm="forest")
