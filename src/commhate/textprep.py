"""Deterministic text normalization and tokenization.

The pipeline applies, in this fixed order: URL removal, lowercasing, one
per-character table (punctuation to a space, then numeric characters
deleted), whitespace tokenization, stopword removal. URL removal runs first
because punctuation stripping would destroy URL structure; punctuation
becomes a space (not deleted) so "don't" splits into the stopwords "don"
and "t" instead of merging.

The stopword list ships with the package (data/stopwords.txt, one term per
line) so results are reproducible without any external resource.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

# http(s)/www URLs plus bare domains with a path; matched case-insensitively
# because removal happens before lowercasing.
_URL_RE = re.compile(
    r"(?i)\b(?:https?://\S+|www\.\S+|[a-z0-9][a-z0-9.\-]*\.[a-z]{2,}/\S*)"
)


class _CharTable(dict):
    """``str.translate`` table filled per code point on first sight. Anything
    neither ``isalnum`` nor ``isspace`` is punctuation (the underscore too)
    and becomes a space; numeric characters are deleted; the rest are kept."""

    def __missing__(self, code: int):
        ch = chr(code)
        if not (ch.isalnum() or ch.isspace()):
            self[code] = " "
        else:
            self[code] = None if ch.isnumeric() else code
        return self[code]


_CHARS = _CharTable()


@lru_cache(maxsize=1)
def builtin_stopwords() -> frozenset[str]:
    """The stopword inventory shipped with the package."""
    text = resources.files("commhate").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


def load_stopwords(path: str) -> frozenset[str]:
    """Load a stopword list from a plain-text file, one term per line."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(w.strip().lower() for w in fh if w.strip())


@dataclass(frozen=True)
class PreprocessConfig:
    stopwords: frozenset[str] = field(default_factory=builtin_stopwords)


def default_config() -> PreprocessConfig:
    return PreprocessConfig()


def preprocess(body: str, config: PreprocessConfig | None = None) -> list[str]:
    """Normalize and tokenize one comment body.

    Total function: any input (including empty) yields a token list, possibly
    empty. Output tokens never contain whitespace, uppercase letters,
    digits, or the config's stopwords.
    """
    cfg = config or default_config()
    text = body.lower()
    # Every _URL_RE alternative needs a "/" or a "www.".
    if "/" in body or "www." in text:
        text = _URL_RE.sub(" ", body).lower()
    stopwords = cfg.stopwords
    return [tok for tok in text.translate(_CHARS).split() if tok not in stopwords]
