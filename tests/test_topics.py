import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commhate.topics import (
    LldaConfig,
    LldaModel,
    fit_llda,
    fit_two_sides,
    format_topic_table,
    jaccard_index,
    term_scores,
    top_terms,
    topic_report,
)


def _smoothed_label_frequencies(docs, doc_labels, beta):
    """The closed form, coded independently with Counter and Python floats."""
    labels = sorted(set(doc_labels))
    vocab = sorted({t for d in docs for t in d})
    v = len(vocab)
    phi = []
    for lab in labels:
        cnt = Counter(t for d, l in zip(docs, doc_labels) if l == lab for t in d)
        total = sum(cnt.values())
        phi.append([(cnt.get(t, 0) + beta) / (total + beta * v) for t in vocab])
    return labels, vocab, phi


class TestConfig:
    def test_defaults(self):
        cfg = LldaConfig()
        assert (cfg.beta, cfg.seed) == (0.1, 0)

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0},
        {"beta": -0.1},
        {"beta": math.nan},
        {"beta": math.inf},
        {"beta": -math.inf},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LldaConfig(**kwargs)


class TestFitDegenerate:
    def test_two_document_example(self):
        docs = [["x", "x", "y"], ["z"]]
        model = fit_llda(docs, ["A", "B"], LldaConfig(beta=0.1, seed=0))
        assert model.labels == ("A", "B")
        assert model.vocabulary == ("x", "y", "z")
        expected_a = (2.1 / 3.3, 1.1 / 3.3, 0.1 / 3.3)
        expected_b = (0.1 / 1.3, 0.1 / 1.3, 1.1 / 1.3)
        for got, want in zip(model.phi[0], expected_a):
            assert got == pytest.approx(want, abs=1e-12)
        for got, want in zip(model.phi[1], expected_b):
            assert got == pytest.approx(want, abs=1e-12)
        assert top_terms(model, "A", 2) == ["x", "y"]
        assert top_terms(model, "A", 2, ranking="phi") == ["x", "y"]

    def test_matches_closed_form_on_random_corpora(self):
        rng = random.Random(99)
        vocab_pool = [f"t{i}" for i in range(12)]
        for trial in range(20):
            n = rng.randint(2, 15)
            docs, labs = [], []
            for i in range(n):
                docs.append([rng.choice(vocab_pool) for _ in range(rng.randint(1, 8))])
                labs.append(rng.choice(["A", "B", "C"]))
            if len(set(labs)) < 2:
                labs[0] = "A" if labs[0] != "A" else "B"
            beta = rng.choice([0.01, 0.1, 0.5])
            model = fit_llda(docs, labs, LldaConfig(beta=beta, seed=trial))
            e_labels, e_vocab, e_phi = _smoothed_label_frequencies(docs, labs, beta)
            assert model.labels == tuple(e_labels)
            assert model.vocabulary == tuple(e_vocab)
            for got_row, want_row in zip(model.phi, e_phi):
                for got, want in zip(got_row, want_row):
                    assert got == pytest.approx(want, abs=1e-9)
            for lab in e_labels:
                scores = term_scores(model, lab)
                ranked = sorted(scores, key=lambda t: (-scores[t], t))
                assert top_terms(model, lab, len(e_vocab)) == ranked

    def test_deterministic(self):
        docs = [["a", "b"], ["c"], ["a", "c"]]
        labs = ["A", "B", "B"]
        m1 = fit_llda(docs, labs, LldaConfig(seed=4))
        m2 = fit_llda(docs, labs, LldaConfig(seed=4))
        assert np.array_equal(m1.phi, m2.phi)
        assert np.array_equal(m1.topic_word_counts, m2.topic_word_counts)


class TestFitValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_llda([["a"]], ["A", "B"], LldaConfig())

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            fit_llda([], [], LldaConfig())

    def test_absent_label(self):
        with pytest.raises(ValueError, match="label"):
            fit_llda([["a"], ["b"]], ["A", ""], LldaConfig())

    def test_single_label(self):
        with pytest.raises(ValueError, match="2 distinct labels"):
            fit_llda([["a"], ["b"]], ["A", "A"], LldaConfig())

    def test_empty_vocabulary(self):
        with pytest.raises(ValueError, match="vocabulary"):
            fit_llda([[], []], ["A", "B"], LldaConfig())


class TestPlantedRecovery:
    def test_recovers_exclusive_terms(self):
        rng = random.Random(17)
        core = {"A": [f"ca{i}" for i in range(5)], "B": [f"cb{i}" for i in range(5)]}
        shared = [f"sh{i}" for i in range(3)]
        docs, labs = [], []
        for lab in ("A", "B"):
            for _ in range(40):
                doc = [rng.choice(core[lab]) for _ in range(6)]
                doc += [rng.choice(shared) for _ in range(4)]
                rng.shuffle(doc)
                docs.append(doc)
                labs.append(lab)
        model = fit_llda(docs, labs, LldaConfig(seed=2))
        for lab in ("A", "B"):
            assert set(top_terms(model, lab, 5)) == set(core[lab])


class TestTopTerms:
    @pytest.fixture()
    def model(self):
        return fit_llda(
            [["x", "x", "y"], ["z"]], ["A", "B"], LldaConfig(beta=0.1, seed=0)
        )

    def test_k_capped_at_vocabulary(self, model):
        assert len(top_terms(model, "A", 50)) == 3

    def test_rejects_bad_arguments(self, model):
        with pytest.raises(ValueError, match="k must be"):
            top_terms(model, "A", 0)
        with pytest.raises(ValueError, match="ranking"):
            top_terms(model, "A", 2, ranking="tfidf")
        with pytest.raises(ValueError, match="unknown label"):
            top_terms(model, "Z", 2)

    def test_ties_break_lexicographically(self):
        docs = [["beta", "alpha"], ["gamma", "delta"]]
        model = fit_llda(docs, ["A", "B"], LldaConfig(seed=0))
        assert top_terms(model, "A", 2, ranking="phi") == ["alpha", "beta"]
        assert top_terms(model, "B", 2, ranking="phi") == ["delta", "gamma"]

    def test_distinctiveness_suppresses_shared_terms(self):
        docs, labs = [], []
        for lab, term in (("A", "onlya"), ("B", "onlyb")):
            for _ in range(10):
                docs.append(["common", "common", "common", term])
                labs.append(lab)
        model = fit_llda(docs, labs, LldaConfig(seed=0))
        assert top_terms(model, "A", 1) == ["onlya"]
        assert top_terms(model, "A", 1, ranking="phi") == ["common"]

    def test_term_scores_align_with_ranking(self, model):
        scores = term_scores(model, "A")
        assert set(scores) == {"x", "y", "z"}
        assert scores["x"] > scores["y"] > scores["z"]


class TestModelValidation:
    def test_row_must_normalize(self):
        with pytest.raises(ValueError, match="summing to 1"):
            LldaModel(("A",), ("x", "y"), ((1.0, 1.0),), ((0.7, 0.2),))

    def test_row_length_must_match_vocab(self):
        with pytest.raises(ValueError, match="span the vocabulary"):
            LldaModel(("A",), ("x", "y"), ((1.0,),), ((1.0,),))

    def test_vocabulary_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            LldaModel(("A",), ("y", "x"), ((1.0, 1.0),), ((0.5, 0.5),))

    def test_one_row_per_label(self):
        with pytest.raises(ValueError, match="per label"):
            LldaModel(("A", "B"), ("x",), ((1.0,),), ((1.0,),))


class TestJaccard:
    def test_examples(self):
        assert jaccard_index(set(), set()) == 0.0
        assert jaccard_index({"a"}, set()) == 0.0
        assert jaccard_index({"a", "b", "c"}, {"b", "c", "d"}) == 0.5
        assert jaccard_index({"a"}, {"a"}) == 1.0
        assert jaccard_index({"a", "b"}, {"c", "d"}) == 0.0

    @given(
        st.sets(st.text(max_size=3), max_size=8),
        st.sets(st.text(max_size=3), max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_bounded_and_discriminates_equality(self, a, b):
        ji = jaccard_index(a, b)
        assert ji == jaccard_index(b, a)
        assert 0.0 <= ji <= 1.0
        if a or b:
            assert (ji == 1.0) == (a == b)


class TestTwoSides:
    def _sides(self, n_pos=12, n_neg=20):
        rng = random.Random(3)
        pos = [[rng.choice(["ha", "hb"]) for _ in range(4)] for _ in range(n_pos)]
        neg = [[rng.choice(["sa", "sb"]) for _ in range(4)] for _ in range(n_neg)]
        return pos, neg

    def test_labels_and_recovery(self):
        pos, neg = self._sides()
        model = fit_two_sides(pos, neg, LldaConfig(seed=1))
        assert model.labels == ("background", "community")
        assert set(top_terms(model, "community", 2)) == {"ha", "hb"}
        assert set(top_terms(model, "background", 2)) == {"sa", "sb"}

    def test_subsampling_balances_sides(self):
        pos, neg = self._sides(5, 40)
        model = fit_two_sides(pos, neg, LldaConfig(seed=1))
        # each doc has 4 tokens; 5 docs per side after downsampling
        assert sum(sum(r) for r in model.topic_word_counts) == pytest.approx(40.0)

    def test_empty_documents_dropped_and_empty_side_rejected(self):
        pos, neg = self._sides()
        model = fit_two_sides(pos + [[]], neg, LldaConfig(seed=1))
        assert sum(model.topic_word_counts[model.label_index("community")]) > 0
        with pytest.raises(ValueError, match="non-empty"):
            fit_two_sides([[], []], neg, LldaConfig(seed=1))

    def test_deterministic(self):
        pos, neg = self._sides(30, 7)
        a = fit_two_sides(pos, neg, LldaConfig(seed=9))
        b = fit_two_sides(pos, neg, LldaConfig(seed=9))
        assert np.array_equal(a.phi, b.phi)


class TestReport:
    def test_report_structure_and_table(self):
        model = fit_llda(
            [["x", "x", "y"], ["z"]], ["A", "B"], LldaConfig(beta=0.1, seed=0)
        )
        report = topic_report(model, k=2)
        assert report["k"] == 2
        assert [e["label"] for e in report["topics"]] == ["A", "B"]
        a_terms = [t["term"] for t in report["topics"][0]["terms"]]
        assert a_terms == ["x", "y"]
        for entry in report["topics"][0]["terms"]:
            assert 0.0 <= entry["phi"] <= 1.0
        # B's top-2 by distinctiveness is [z, y]: one shared term of three
        assert report["overlap"] == [
            {"labels": ["A", "B"], "jaccard": pytest.approx(1 / 3)}
        ]
        text = format_topic_table(report)
        assert "A" in text and "JI(A, B) = 0.33" in text
        assert text.endswith("\n")
