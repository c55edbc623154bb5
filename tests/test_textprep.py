import re
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commhate import textprep

# Reference built from regexes: URL removal, lowercasing, punctuation and
# underscore to space, decimal digits deleted, then any other numeric
# characters deleted per token. preprocess must give the same tokens.
_PUNCT_RE = re.compile(r"[^\w\s]|_")
_DIGIT_RE = re.compile(r"\d+")


def _reference(body, stop):
    text = textprep._URL_RE.sub(" ", body).lower()
    text = _DIGIT_RE.sub("", _PUNCT_RE.sub(" ", text))
    tokens = [
        tok if tok.isascii() else "".join(c for c in tok if not c.isnumeric())
        for tok in text.split()
    ]
    return [tok for tok in tokens if tok and tok not in stop]


# Fragments that steer the URL guard, the table's three outcomes and the
# case mappings that change length or depend on context.
_FRAGMENTS = st.sampled_from([
    "http://", "HTTPS://", "www.", "WWW.", "/", ".com", "a.b/", "_", "0", "42",
    "\u00bd", "\u00b2", "\u0663", "\x1c", "\x1d", "\x1e", "\x1f", "\u03a3",
    "\u0130", "\u017f", "\u212a", "\u2026", " ", "\n", "the", "Cat",
])
_BODIES = st.lists(_FRAGMENTS | st.text(max_size=6), max_size=16).map("".join)


@pytest.fixture(scope="module")
def stop():
    return textprep.builtin_stopwords()


class TestPreprocess:
    def test_documented_example(self, stop):
        assert textprep.preprocess("Check HTTP://x.com THE 123 cats!!", stop) == ["cats"]

    def test_empty_input(self, stop):
        assert textprep.preprocess("", stop) == []

    def test_url_variants_removed(self, stop):
        for body in (
            "visit https://example.com/a?b=1 now",
            "visit www.example.com now",
            "visit example.com/path now",
        ):
            assert textprep.preprocess(body, stop) == ["visit"]

    def test_bare_domain_without_path_is_kept_as_tokens(self, stop):
        # Only domains with a path count as bare URLs; "example.com" alone
        # splits into plain tokens at the dot.
        assert textprep.preprocess("example.com", stop) == ["example", "com"]

    def test_lowercasing(self, stop):
        assert textprep.preprocess("CaTs DoGs", stop) == ["cats", "dogs"]

    def test_punctuation_becomes_space(self, stop):
        assert textprep.preprocess("cats,dogs", stop) == ["cats", "dogs"]

    def test_contraction_splits_to_stopword_fragments(self, stop):
        # "don't" -> "don t"; both halves are stopwords.
        assert textprep.preprocess("don't panic", stop) == ["panic"]

    def test_digits_deleted_not_spaced(self, stop):
        # Digit stripping deletes in place: "abc123def" stays one token.
        assert textprep.preprocess("abc123def", stop) == ["abcdef"]

    def test_standalone_number_vanishes(self, stop):
        assert textprep.preprocess("42", stop) == []

    def test_unicode_lowercased_and_kept(self, stop):
        assert textprep.preprocess("Grüße MÜNCHEN", stop) == ["grüße", "münchen"]

    def test_underscore_is_punctuation(self, stop):
        assert textprep.preprocess("snake_case", stop) == ["snake", "case"]

    def test_stopword_filter_respects_config_set(self):
        assert textprep.preprocess("cats dogs", frozenset({"cats"})) == ["dogs"]

    def test_an_empty_stopword_set_removes_nothing(self):
        # None means the built-in list; an empty set is a list of no words.
        assert textprep.preprocess("the cat", frozenset()) == ["the", "cat"]
        assert textprep.preprocess("the cat") == ["cat"]


class TestPreprocessProperties:
    @given(st.text(max_size=200))
    def test_tokens_are_clean(self, body):
        stop = textprep.builtin_stopwords()
        for tok in textprep.preprocess(body, stop):
            assert tok == tok.lower()
            assert not any(ch.isnumeric() for ch in tok)
            assert not any(ch.isspace() for ch in tok)
            assert tok not in stop
            assert tok  # never empty

    @given(st.text(max_size=200))
    def test_idempotent_under_default_config(self, body):
        stop = textprep.builtin_stopwords()
        once = textprep.preprocess(body, stop)
        again = textprep.preprocess(" ".join(once), stop)
        assert once == again

    @given(st.text(max_size=200))
    def test_deterministic(self, body):
        stop = textprep.builtin_stopwords()
        assert textprep.preprocess(body, stop) == textprep.preprocess(body, stop)


class TestReferenceOracle:
    @given(_BODIES)
    @settings(max_examples=500, deadline=None)
    def test_matches_regex_pipeline(self, body):
        stop = textprep.builtin_stopwords()
        assert textprep.preprocess(body, stop) == _reference(body, stop)

    def test_every_code_point_matches_regex_pipeline(self, monkeypatch):
        # A fresh table, so the one the module keeps does not end up
        # holding every code point.
        monkeypatch.setattr(textprep, "_CHARS", type(textprep._CHARS)())
        stop = textprep.builtin_stopwords()
        for start in range(0, sys.maxunicode + 1, 4096):
            block = range(start, min(start + 4096, sys.maxunicode + 1))
            body = "x".join(map(chr, block))
            assert textprep.preprocess(body, stop) == _reference(body, stop), hex(start)

    def test_numeric_characters_beyond_decimal_digits_are_deleted(self, stop):
        assert textprep.preprocess("cat\u00b2 dog\u00bd \u0663", stop) == ["cat", "dog"]


class TestStopwords:
    def test_builtin_list_nonempty_and_lowercase(self):
        words = textprep.builtin_stopwords()
        assert len(words) >= 150
        assert all(w == w.lower() and w == w.strip() for w in words)

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("Alpha\nbeta\n\nbeta\n", encoding="utf-8")
        loaded = textprep.load_stopwords(str(p))
        assert loaded == frozenset({"alpha", "beta"})

    def test_core_function_words_present(self):
        words = textprep.builtin_stopwords()
        assert {"the", "a", "and", "is", "t", "s", "check"} <= words


def test_ascii_letters_only_tokens_pass_through(stop=None):
    stop = textprep.builtin_stopwords()
    body = " ".join(["zq" + c for c in string.ascii_lowercase])
    assert textprep.preprocess(body, stop) == body.split()
