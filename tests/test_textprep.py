import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commhate import textprep


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
