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


def _reference(body, cfg):
    text = textprep._URL_RE.sub(" ", body).lower()
    text = _DIGIT_RE.sub("", _PUNCT_RE.sub(" ", text))
    tokens = [
        tok if tok.isascii() else "".join(c for c in tok if not c.isnumeric())
        for tok in text.split()
    ]
    return [tok for tok in tokens if tok and tok not in cfg.stopwords]


# Fragments that steer the URL guard, the table's three outcomes and the
# case mappings that change length or depend on context.
_FRAGMENTS = st.sampled_from([
    "http://", "HTTPS://", "www.", "WWW.", "/", ".com", "a.b/", "_", "0", "42",
    "\u00bd", "\u00b2", "\u0663", "\x1c", "\x1d", "\x1e", "\x1f", "\u03a3",
    "\u0130", "\u017f", "\u212a", "\u2026", " ", "\n", "the", "Cat",
])
_BODIES = st.lists(_FRAGMENTS | st.text(max_size=6), max_size=16).map("".join)


@pytest.fixture(scope="module")
def cfg():
    return textprep.default_config()


class TestPreprocess:
    def test_documented_example(self, cfg):
        assert textprep.preprocess("Check HTTP://x.com THE 123 cats!!", cfg) == ["cats"]

    def test_empty_input(self, cfg):
        assert textprep.preprocess("", cfg) == []

    def test_url_variants_removed(self, cfg):
        for body in (
            "visit https://example.com/a?b=1 now",
            "visit www.example.com now",
            "visit example.com/path now",
        ):
            assert textprep.preprocess(body, cfg) == ["visit"]

    def test_bare_domain_without_path_is_kept_as_tokens(self, cfg):
        # Only domains with a path count as bare URLs; "example.com" alone
        # splits into plain tokens at the dot.
        assert textprep.preprocess("example.com", cfg) == ["example", "com"]

    def test_lowercasing(self, cfg):
        assert textprep.preprocess("CaTs DoGs", cfg) == ["cats", "dogs"]

    def test_punctuation_becomes_space(self, cfg):
        assert textprep.preprocess("cats,dogs", cfg) == ["cats", "dogs"]

    def test_contraction_splits_to_stopword_fragments(self, cfg):
        # "don't" -> "don t"; both halves are stopwords.
        assert textprep.preprocess("don't panic", cfg) == ["panic"]

    def test_digits_deleted_not_spaced(self, cfg):
        # Digit stripping deletes in place: "abc123def" stays one token.
        assert textprep.preprocess("abc123def", cfg) == ["abcdef"]

    def test_standalone_number_vanishes(self, cfg):
        assert textprep.preprocess("42", cfg) == []

    def test_unicode_lowercased_and_kept(self, cfg):
        assert textprep.preprocess("Grüße MÜNCHEN", cfg) == ["grüße", "münchen"]

    def test_underscore_is_punctuation(self, cfg):
        assert textprep.preprocess("snake_case", cfg) == ["snake", "case"]

    def test_stopword_filter_respects_config_set(self):
        cfg = textprep.PreprocessConfig(stopwords=frozenset({"cats"}))
        assert textprep.preprocess("cats dogs", cfg) == ["dogs"]


class TestPreprocessProperties:
    @given(st.text(max_size=200))
    def test_tokens_are_clean(self, body):
        cfg = textprep.default_config()
        for tok in textprep.preprocess(body, cfg):
            assert tok == tok.lower()
            assert not any(ch.isnumeric() for ch in tok)
            assert not any(ch.isspace() for ch in tok)
            assert tok not in cfg.stopwords
            assert tok  # never empty

    @given(st.text(max_size=200))
    def test_idempotent_under_default_config(self, body):
        cfg = textprep.default_config()
        once = textprep.preprocess(body, cfg)
        again = textprep.preprocess(" ".join(once), cfg)
        assert once == again

    @given(st.text(max_size=200))
    def test_deterministic(self, body):
        cfg = textprep.default_config()
        assert textprep.preprocess(body, cfg) == textprep.preprocess(body, cfg)


class TestReferenceOracle:
    @given(_BODIES)
    @settings(max_examples=500, deadline=None)
    def test_matches_regex_pipeline(self, body):
        cfg = textprep.default_config()
        assert textprep.preprocess(body, cfg) == _reference(body, cfg)

    def test_every_code_point_matches_regex_pipeline(self, monkeypatch):
        # A fresh table, so the one the module keeps does not end up
        # holding every code point.
        monkeypatch.setattr(textprep, "_CHARS", type(textprep._CHARS)())
        cfg = textprep.default_config()
        for start in range(0, sys.maxunicode + 1, 4096):
            block = range(start, min(start + 4096, sys.maxunicode + 1))
            body = "x".join(map(chr, block))
            assert textprep.preprocess(body, cfg) == _reference(body, cfg), hex(start)

    def test_numeric_characters_beyond_decimal_digits_are_deleted(self, cfg):
        assert textprep.preprocess("cat\u00b2 dog\u00bd \u0663", cfg) == ["cat", "dog"]


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


def test_ascii_letters_only_tokens_pass_through(cfg=None):
    cfg = textprep.default_config()
    body = " ".join(["zq" + c for c in string.ascii_lowercase])
    assert textprep.preprocess(body, cfg) == body.split()
