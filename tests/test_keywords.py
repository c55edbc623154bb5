import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commhate.corpus import NEGATIVE, POSITIVE, Comment, CorpusSlice
from commhate.keywords import (
    DEFAULT_K,
    DEFAULT_MIN_DF,
    KeywordMethod,
    KeywordSet,
    build_keyword_set,
    chi2_scores,
    format_keyword_list,
    keyword_match_dataset,
    keyword_set_to_dict,
    matches_keywords,
    save_keyword_set,
)
from commhate.topics import LldaConfig


def _chi2_reference(pos_docs, neg_docs, term):
    """Exact chi-square from an independently tabulated 2x2 presence table."""
    a = sum(1 for d in pos_docs if term in d)
    b = sum(1 for d in neg_docs if term in d)
    c = len(pos_docs) - a
    d = len(neg_docs) - b
    n = a + b + c + d
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return 0.0
    return float(Fraction(n * (a * d - b * c) ** 2, denom))


class TestChi2:
    def test_perfect_association_equals_n(self):
        pos = [["slur", "x"] for _ in range(7)]
        neg = [["kind", "y"] for _ in range(5)]
        scores = chi2_scores(pos, neg)
        assert scores["slur"] == 12.0
        assert scores["kind"] == 12.0

    def test_independent_term_scores_zero(self):
        pos = [["t"], ["t"], ["u"], ["u"]]
        neg = [["t"], ["t"], ["t"], ["u"], ["u"], ["u"]]
        assert chi2_scores(pos, neg)["t"] == 0.0

    def test_term_in_every_document_scores_zero(self):
        pos = [["every", "a"]] * 3
        neg = [["every", "b"]] * 3
        assert chi2_scores(pos, neg)["every"] == 0.0

    def test_matches_reference_on_random_corpora(self):
        rng = random.Random(5)
        vocab = [f"v{i}" for i in range(8)]
        for _ in range(30):
            pos = [
                [t for t in vocab if rng.random() < 0.4]
                for _ in range(rng.randint(1, 10))
            ]
            neg = [
                [t for t in vocab if rng.random() < 0.4]
                for _ in range(rng.randint(1, 10))
            ]
            scores = chi2_scores(pos, neg)
            for term in scores:
                assert scores[term] == pytest.approx(
                    _chi2_reference(pos, neg, term), rel=1e-12
                )

    def test_symmetric_in_corpora(self):
        pos = [["a", "b"], ["b"], ["c"]]
        neg = [["a"], ["c", "c", "b"]]
        assert chi2_scores(pos, neg) == chi2_scores(neg, pos)

    def test_min_df_excludes_rare_terms(self):
        pos = [["rare"], ["common"]]
        neg = [["common"], ["common"]]
        scores = chi2_scores(pos, neg, min_df=2)
        assert "rare" not in scores and "common" in scores

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="non-empty"):
            chi2_scores([], [["a"]])
        with pytest.raises(ValueError, match="non-empty"):
            chi2_scores([["a"]], [])

    @pytest.mark.parametrize("min_df", [0, -5])
    def test_rejects_min_df_below_one(self, min_df):
        with pytest.raises(ValueError, match="min_df must be >= 1"):
            chi2_scores([["a"]], [["b"]], min_df=min_df)

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_scores_bounded_by_n_and_nonnegative(self, seed):
        rng = random.Random(seed)
        vocab = ["p", "q", "r"]
        pos = [[t for t in vocab if rng.random() < 0.5] for _ in range(rng.randint(1, 6))]
        neg = [[t for t in vocab if rng.random() < 0.5] for _ in range(rng.randint(1, 6))]
        n = len(pos) + len(neg)
        for term, score in chi2_scores(pos, neg).items():
            assert 0.0 <= score <= n + 1e-9


class TestKeywordSet:
    def test_defaults(self):
        assert DEFAULT_K == 30 and DEFAULT_MIN_DF == 5

    def test_properties(self):
        ks = KeywordSet(
            method="chi2_i", target_group="g", terms=(("b", 2.0), ("a", 1.0))
        )
        assert ks.method is KeywordMethod.CHI2_I
        assert ks.k == 2
        assert ks.term_set() == frozenset({"a", "b"})

    def test_rejects_duplicates_and_increasing_scores(self):
        with pytest.raises(ValueError, match="unique"):
            KeywordSet(method="llda", target_group="", terms=(("a", 2.0), ("a", 1.0)))
        with pytest.raises(ValueError, match="non-increasing"):
            KeywordSet(method="llda", target_group="", terms=(("a", 1.0), ("b", 2.0)))


class TestBuildKeywordSet:
    def _corpora(self):
        # "slur" is the only perfectly one-sided term; "mild" is half of the
        # negative side and "filler" is everywhere, so neither can outrank it.
        pos = [["slur", "filler"] for _ in range(6)]
        neg = [["mild", "filler"] if i % 2 == 0 else ["filler"] for i in range(6)]
        return pos, neg

    def test_chi2_picks_discriminative_term(self):
        pos, neg = self._corpora()
        ks = build_keyword_set(KeywordMethod.CHI2_I, pos, neg, k=1, min_df=1)
        assert [t for t, _ in ks.terms] == ["slur"]
        assert ks.terms[0][1] == 12.0

    def test_chi2_orders_by_score_then_term(self):
        pos = [["strong", "weak", "zzz"], ["strong", "aaa"], ["strong"]]
        neg = [["weak"], ["other"], ["zzz", "aaa"]]
        with pytest.warns(UserWarning, match="only 5 terms"):
            ks = build_keyword_set(KeywordMethod.CHI2_II, pos, neg, k=10, min_df=1)
        scores = [s for _, s in ks.terms]
        assert scores == sorted(scores, reverse=True)
        for (t1, s1), (t2, s2) in zip(ks.terms, ks.terms[1:]):
            if s1 == s2:
                assert t1 < t2

    def test_llda_delegates_to_topic_model(self):
        pos, neg = self._corpora()
        ks = build_keyword_set(
            KeywordMethod.LLDA, pos, neg, k=1, llda_config=LldaConfig(seed=3)
        )
        assert [t for t, _ in ks.terms] == ["slur"]
        assert ks.method is KeywordMethod.LLDA

    def test_method_accepts_plain_string(self):
        pos, neg = self._corpora()
        ks = build_keyword_set("chi2_i", pos, neg, k=1, min_df=1)
        assert ks.method is KeywordMethod.CHI2_I

    def test_short_vocabulary_warns(self):
        pos, neg = self._corpora()
        with pytest.warns(UserWarning, match="only 3 terms"):
            ks = build_keyword_set(KeywordMethod.CHI2_I, pos, neg, k=30, min_df=1)
        assert ks.k == 3

    def test_rejects_bad_arguments(self):
        pos, neg = self._corpora()
        with pytest.raises(ValueError, match="k must be"):
            build_keyword_set(KeywordMethod.CHI2_I, pos, neg, k=0)
        with pytest.raises(ValueError, match="non-empty"):
            build_keyword_set(KeywordMethod.CHI2_I, [], neg)


class TestMatching:
    def test_matches_keywords(self):
        terms = frozenset({"bad", "worse"})
        assert matches_keywords(["so", "bad"], terms)
        assert not matches_keywords(["fine", "text"], terms)
        assert not matches_keywords([], terms)

    def _pool(self, n_match=6, n_clean=8):
        comments = []
        for i in range(n_match):
            comments.append(
                Comment(id=f"m{i}", body=f"truly bad stuff {i}", community="pool")
            )
        for i in range(n_clean):
            comments.append(
                Comment(id=f"c{i}", body=f"pleasant calm words {i}", community="pool")
            )
        return CorpusSlice(tuple(comments))

    def _keywords(self):
        return KeywordSet(method="chi2_i", target_group="", terms=(("bad", 9.0),))

    def test_partition_and_labels(self):
        ds = keyword_match_dataset(self._pool(), self._keywords(), n_pos=4, n_neg=5)
        assert ds.counts() == (4, 5)
        for doc, label in zip(ds.documents, ds.labels):
            assert ("bad" in doc) == (label == POSITIVE)
        ids = {pid for pid, _ in ds.provenance}
        assert all(pid.startswith(("m", "c")) for pid in ids)

    def test_insufficient_matches_reports_pool_sizes(self):
        with pytest.raises(ValueError, match=r"need 7 positive / 5 negative.*6 / 8"):
            keyword_match_dataset(self._pool(), self._keywords(), n_pos=7, n_neg=5)

    def test_deterministic_and_seed_sensitive(self):
        pool, ks = self._pool(10, 10), self._keywords()
        a = keyword_match_dataset(pool, ks, n_pos=3, n_neg=3, seed=1)
        b = keyword_match_dataset(pool, ks, n_pos=3, n_neg=3, seed=1)
        c = keyword_match_dataset(pool, ks, n_pos=3, n_neg=3, seed=2)
        assert a.provenance == b.provenance
        assert a.provenance != c.provenance

    def test_pool_may_be_a_one_shot_iterator(self):
        pool, ks = self._pool(10, 10), self._keywords()
        assert keyword_match_dataset(iter(pool.comments), ks, n_pos=3, n_neg=3, seed=1) == (
            keyword_match_dataset(pool, ks, n_pos=3, n_neg=3, seed=1))

    def test_rejects_non_positive_requests(self):
        with pytest.raises(ValueError, match=">= 1"):
            keyword_match_dataset(self._pool(), self._keywords(), n_pos=0, n_neg=1)


class TestPersistence:
    def _ks(self):
        return KeywordSet(
            method="chi2_ii",
            target_group="group",
            terms=(("b", 2.5), ("a", 2.5), ("c", 0.5)),
        )

    def test_dict_round_trip(self):
        obj = keyword_set_to_dict(self._ks())
        assert obj == {
            "version": 1, "method": "chi2_ii", "target_group": "group", "k": 3,
            "terms": [{"term": "b", "score": 2.5}, {"term": "a", "score": 2.5},
                      {"term": "c", "score": 0.5}],
        }
        assert json.loads(json.dumps(obj)) == obj

    def test_file_round_trip(self, tmp_path):
        ks = self._ks()
        p = tmp_path / "kw.json"
        save_keyword_set(ks, str(p))
        assert json.loads(p.read_text(encoding="utf-8")) == keyword_set_to_dict(ks)

    def test_format_keyword_list(self):
        assert format_keyword_list(self._ks()) == "b\na\nc\n"
