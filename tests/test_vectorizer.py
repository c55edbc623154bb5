import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commhate import vectorizer
from commhate.vectorizer import CsrBatch, TfidfModel, count_terms, fit_tfidf

TOKENS = st.text(alphabet="abcdefg", min_size=1, max_size=4)
DOCS = st.lists(st.lists(TOKENS, min_size=0, max_size=8), min_size=1, max_size=12)
# Long rows over a large vocabulary, so that summing a row in another order
# (pairwise rather than left to right) changes some norms in the last bit.
LONG_DOCS = st.lists(
    st.lists(st.text(alphabet="abcdefghij", min_size=1, max_size=3), max_size=60),
    min_size=1, max_size=12,
)


def _reference_rows(model, docs):
    """The per-document algorithm, one row at a time: dict counts, then
    count * idf, then division by the left-to-right L2 norm."""
    index = {t: i for i, t in enumerate(model.vocabulary)}
    idf = model.idf()
    tfidf, counts = [], []
    for doc in docs:
        c = {}
        for tok in doc:
            if tok in index:
                c[index[tok]] = c.get(index[tok], 0) + 1
        indices = sorted(c)
        weights = [c[i] * idf[i] for i in indices]
        norm = math.sqrt(sum(w * w for w in weights))
        tfidf.append((indices, [float(w / norm) for w in weights]))
        counts.append((indices, [float(c[i]) for i in indices]))
    return tfidf, counts


def _rows(batch):
    return [
        (batch.indices[lo:hi].tolist(), batch.data[lo:hi].tolist())
        for lo, hi in zip(batch.indptr[:-1], batch.indptr[1:])
    ]


def _first_row(batch):
    return dict(zip(*_rows(batch)[0]))


class TestCsrBatch:
    def test_validation(self):
        CsrBatch([0, 2], [0, 2], [1.0, 3.0], 5)
        CsrBatch([0, 1, 1, 2], [3, 0], [1.0, 1.0], 5)  # indices restart per row
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrBatch([0, 2], [2, 2], [1.0, 1.0], 5)
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrBatch([0, 2], [3, 1], [1.0, 1.0], 5)
        with pytest.raises(ValueError, match="out of range"):
            CsrBatch([0, 2], [0, 7], [1.0, 1.0], 5)
        with pytest.raises(ValueError, match="out of range"):
            CsrBatch([0, 1], [-1], [1.0], 5)
        with pytest.raises(ValueError, match="positive"):
            CsrBatch([0, 1], [0], [0.0], 5)
        with pytest.raises(ValueError, match="positive"):
            CsrBatch([0, 1], [0], [float("nan")], 5)
        with pytest.raises(ValueError, match="positive"):
            CsrBatch([0, 1], [0], [float("inf")], 5)
        with pytest.raises(ValueError, match="equal length"):
            CsrBatch([0, 2], [0, 1], [1.0], 5)
        with pytest.raises(ValueError, match="indptr"):
            CsrBatch([0, 1], [0, 1], [1.0, 1.0], 5)
        with pytest.raises(ValueError, match="indptr"):
            CsrBatch([0, 2, 1, 2], [0, 1], [1.0, 1.0], 5)

    def test_len_counts_rows(self):
        assert len(CsrBatch([0], [], [], 3)) == 0
        batch = CsrBatch([0, 0, 2], [0, 1], [1.0, 1.0], 3)
        assert len(batch) == 2
        assert batch.row_ids().tolist() == [1, 1]


def _raw(batch):
    return batch.indptr.tobytes(), batch.indices.tobytes(), batch.data.tobytes(), batch.dim


# Mixed case and non-ASCII, so that code-point order differs from a locale's.
COUNT_DOCS = st.lists(st.lists(st.sampled_from(["B", "a", "b", "é", "ab", "Ab", "z"]),
                               max_size=8), min_size=1, max_size=12)


class TestCountTerms:
    def test_terms_come_out_in_code_point_order(self):
        assert count_terms([["é", "a"], ["B", "a"]]).terms == ("B", "a", "é")

    def test_empty_documents_give_empty_rows(self):
        counts = count_terms([[], ["a"], []])
        assert counts.batch.indptr.tolist() == [0, 0, 1, 1]
        assert count_terms([]).terms == () and len(count_terms([]).batch) == 0

    @given(COUNT_DOCS)
    @settings(max_examples=50)
    def test_rows_equal_per_document_counters(self, docs):
        counts = count_terms(docs)
        assert counts.terms == tuple(sorted({t for doc in docs for t in doc}))
        assert len(counts.batch) == len(docs)
        for (indices, values), doc in zip(_rows(counts.batch), docs):
            assert {counts.terms[i]: v for i, v in zip(indices, values)} == Counter(doc)
        from_generator = count_terms(doc for doc in docs)
        assert from_generator.terms == counts.terms
        assert _raw(from_generator.batch) == _raw(counts.batch)

    @given(COUNT_DOCS, COUNT_DOCS, st.data(), st.integers(1, 2))
    @settings(max_examples=50)
    def test_rows_fit_and_transform_as_their_documents(self, docs, fit_docs, data, min_df):
        idx = data.draw(st.permutations(range(len(docs))))
        idx = idx[:data.draw(st.integers(1, len(idx)))]
        picked, rows = [docs[i] for i in idx], count_terms(docs).rows(idx)
        assert fit_tfidf(rows, min_df=min_df) == fit_tfidf(picked, min_df=min_df)
        model = fit_tfidf(fit_docs, min_df=min_df)
        for transform in (model.transform_all, model.transform_counts_all):
            assert _raw(transform(rows)) == _raw(transform(picked))

    @given(st.lists(st.lists(st.sampled_from(["B", "a", "b", "é", "ab", "Ab", "z", "q", "ü"]),
                             max_size=8), max_size=12),
           st.sets(st.sampled_from(["B", "a", "é", "ab", "z", "zz"])))
    @settings(max_examples=100)
    def test_counts_over_vocabulary_equal_column_map(self, docs, vocab):
        # Tokens outside vocab ("b", "Ab", "q", "ü"), vocab terms no document
        # holds ("zz"), empty documents and repeated tokens.
        terms = tuple(sorted(vocab))
        model = TfidfModel(terms, (1,) * len(terms), n_docs=1, min_df=1)
        over_vocab = count_terms(docs, terms)
        assert over_vocab.terms == terms
        assert _raw(over_vocab.batch) == _raw(model.transform_counts_all(count_terms(docs)))
        assert _raw(model.transform_all(docs)) == _raw(model.transform_all(count_terms(docs)))

    def test_out_of_vocabulary_rows_are_empty(self):
        model = fit_tfidf([["cat", "dog"]], min_df=1)
        batch = model.transform_all(count_terms([["zebra"], [], ["dog", "emu"]]))
        assert batch.indptr.tolist() == [0, 0, 0, 1] and batch.indices.tolist() == [1]


class TestFit:
    def test_hand_example_min_df_1(self):
        model = fit_tfidf([["cat", "cat", "dog"], ["dog", "fish"]], min_df=1)
        assert model.vocabulary == ("cat", "dog", "fish")
        assert model.doc_freq == (1, 2, 1)
        idf = dict(zip(model.vocabulary, model.idf()))
        assert idf["dog"] == pytest.approx(math.log(3 / 3) + 1, rel=1e-12)
        assert idf["cat"] == pytest.approx(math.log(3 / 2) + 1, rel=1e-12)
        assert idf["fish"] == idf["cat"]

    def test_min_df_2_prunes_singletons(self):
        model = fit_tfidf([["cat", "cat", "dog"], ["dog", "fish"]], min_df=2)
        assert model.vocabulary == ("dog",)

    def test_single_document_idf(self):
        model = fit_tfidf([["a", "b", "a"]], min_df=1)
        assert all(v == pytest.approx(1.0) for v in model.idf())

    def test_df_counts_presence_not_occurrences(self):
        model = fit_tfidf([["a", "a", "a"], ["b"]], min_df=1)
        assert model.doc_freq[model.vocabulary.index("a")] == 1

    def test_empty_collection_error(self):
        with pytest.raises(ValueError, match="empty"):
            fit_tfidf([], min_df=1)

    def test_all_empty_docs_give_empty_vocab(self):
        model = fit_tfidf([[], []], min_df=1)
        assert model.vocabulary == ()

    @given(DOCS, st.integers(0, 100))
    @settings(max_examples=30)
    def test_fit_invariant_under_document_permutation(self, docs, seed):
        import random

        shuffled = list(docs)
        random.Random(seed).shuffle(shuffled)
        a = fit_tfidf(docs, min_df=1)
        b = fit_tfidf(shuffled, min_df=1)
        assert a.vocabulary == b.vocabulary
        assert a.doc_freq == b.doc_freq

    def test_vocabulary_is_code_point_sorted(self):
        model = fit_tfidf([["b", "a", "é", "B"]], min_df=1)
        assert model.vocabulary == tuple(sorted(model.vocabulary))
        assert model.vocabulary == ("B", "a", "b", "é")


class TestTransform:
    @pytest.fixture()
    def model(self):
        return fit_tfidf([["cat", "cat", "dog"], ["dog", "fish"]], min_df=1)

    def test_hand_example(self, model):
        # Independent recomputation of the documented example: weights are
        # count * idf, then L2-normalized.
        idf_cat = math.log(3 / 2) + 1
        pre_cat, pre_dog = 2 * idf_cat, 1.0
        norm = math.hypot(pre_cat, pre_dog)
        got = _first_row(model.transform_all([["cat", "cat", "dog"]]))
        cat, dog = model.vocabulary.index("cat"), model.vocabulary.index("dog")
        assert got[cat] == pytest.approx(pre_cat / norm, rel=1e-12)
        assert got[dog] == pytest.approx(pre_dog / norm, rel=1e-12)
        # loose sanity band around commonly quoted 4dp values; the exact
        # check above is the real oracle (0.9421556..., 0.3351806...)
        assert got[cat] == pytest.approx(0.9422, abs=2e-4)
        assert got[dog] == pytest.approx(0.3352, abs=2e-4)

    def test_oov_only_doc_is_zero_vector(self, model):
        batch = model.transform_all([["zebra"]])
        assert len(batch) == 1 and batch.indices.size == 0 and batch.data.size == 0

    def test_empty_doc_is_zero_vector(self, model):
        batch = model.transform_all([[]])
        assert len(batch) == 1 and batch.indices.size == 0

    def test_counts_transform_raw(self, model):
        got = _first_row(model.transform_counts_all([["cat", "cat", "dog", "zebra"]]))
        assert got == {model.vocabulary.index("cat"): 2.0, model.vocabulary.index("dog"): 1.0}

    @given(DOCS, st.lists(TOKENS, max_size=10))
    @settings(max_examples=50)
    def test_nonzero_transforms_have_unit_norm(self, docs, doc):
        model = fit_tfidf(docs, min_df=1)
        values = model.transform_all([doc]).data
        if values.size:
            assert abs(math.sqrt(sum(v * v for v in values)) - 1.0) < 1e-9

    @given(LONG_DOCS, LONG_DOCS, st.integers(1, 2))
    @settings(max_examples=50, deadline=None)
    def test_batch_rows_equal_per_document_reference(self, fit_docs, docs, min_df):
        model = fit_tfidf(fit_docs, min_df=min_df)
        tfidf, counts = _reference_rows(model, docs)
        assert _rows(model.transform_all(docs)) == tfidf
        assert _rows(model.transform_counts_all(docs)) == counts

    def test_transform_does_not_mutate_model(self, model):
        before = (model.vocabulary, model.doc_freq, model.n_docs)
        model.transform_all([["cat", "new", "terms"]])
        assert (model.vocabulary, model.doc_freq, model.n_docs) == before


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = fit_tfidf([["cat", "cat", "dog"], ["dog", "fish"]], min_df=1)
        p = tmp_path / "vec.json"
        vectorizer.save_tfidf(model, str(p))
        loaded = vectorizer.load_tfidf(str(p))
        assert loaded == model
        np.testing.assert_allclose(loaded.idf(), model.idf(), rtol=0, atol=0)

    def test_schema_version_enforced(self, tmp_path):
        p = tmp_path / "vec.json"
        p.write_text(json.dumps({"version": 99, "terms": []}), encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            vectorizer.load_tfidf(str(p))

    def test_invalid_json_reported_with_path(self, tmp_path):
        p = tmp_path / "vec.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(ValueError, match="vec.json"):
            vectorizer.load_tfidf(str(p))

    _GOOD = {"version": 1, "n_docs": 3, "min_df": 1,
             "terms": [{"term": "a", "df": 1}, {"term": "b", "df": 2}]}

    @pytest.mark.parametrize("obj,message", [
        ([1], "vectorizer file must hold a JSON object, got list"),
        ("vec", "vectorizer file must hold a JSON object, got str"),
        ({"version": 1}, "vectorizer field 'terms' is missing"),
        ({**_GOOD, "terms": {"a": 1}}, "vectorizer field 'terms' must be a list"),
        ({k: v for k, v in _GOOD.items() if k != "n_docs"}, "field 'n_docs' is missing"),
        ({k: v for k, v in _GOOD.items() if k != "min_df"}, "field 'min_df' is missing"),
        ({**_GOOD, "n_docs": "3"}, "field 'n_docs' must be a non-negative integer"),
        ({**_GOOD, "min_df": True}, "field 'min_df' must be a non-negative integer"),
        ({**_GOOD, "terms": [{"df": 1}]}, "terms[0] field 'term' is missing"),
        ({**_GOOD, "terms": ["a"]}, "terms[0] field 'term' is missing"),
        ({**_GOOD, "terms": [{"term": 7, "df": 1}]}, "terms[0] field 'term' must be a string"),
        ({**_GOOD, "terms": [{"term": "a", "df": 1}, {"term": "b"}]},
         "terms[1] field 'df' is missing"),
        ({**_GOOD, "terms": [{"term": "a", "df": 1.5}]},
         "terms[0] field 'df' must be a non-negative integer"),
        ({**_GOOD, "terms": [{"term": "a", "df": -1}]},
         "terms[0] field 'df' must be a non-negative integer"),
    ])
    def test_malformed_field_is_named(self, tmp_path, obj, message):
        p = tmp_path / "vec.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            vectorizer.load_tfidf(str(p))
        assert str(exc.value).startswith(f"{p}: ") and message in str(exc.value)

    @pytest.mark.parametrize("vocabulary", [("a", "a", "b"), ("b", "a")])
    def test_vocabulary_must_strictly_increase(self, vocabulary):
        with pytest.raises(ValueError, match="sorted and free of duplicates"):
            TfidfModel(vocabulary, (1,) * len(vocabulary), n_docs=3, min_df=1)
        obj = {**self._GOOD, "terms": [{"term": t, "df": 1} for t in vocabulary]}
        with pytest.raises(ValueError, match="sorted and free of duplicates"):
            vectorizer.model_from_dict(obj)

    def test_well_formed_dict_loads(self):
        model = vectorizer.model_from_dict(self._GOOD)
        assert model.vocabulary == ("a", "b") and model.doc_freq == (1, 2)
        assert vectorizer.model_to_dict(model) == self._GOOD

    def test_fingerprint_tracks_content(self):
        a = fit_tfidf([["cat", "dog"], ["dog"]], min_df=1)
        b = fit_tfidf([["cat", "dog"], ["dog"]], min_df=1)
        c = fit_tfidf([["cat", "dog"], ["cat"]], min_df=1)
        assert vectorizer.model_fingerprint(a) == vectorizer.model_fingerprint(b)
        assert vectorizer.model_fingerprint(a) != vectorizer.model_fingerprint(c)
