"""Deterministic synthetic two-sided corpora with known ground truth.

Each side draws tokens from its own planted core vocabulary plus a shared
vocabulary; ``overlap_weight`` is the probability mass on shared terms. Core
terms never appear on the opposite side, which is what makes generated
corpora usable as oracles: topical-term recovery, separability, and
vocabulary-overlap behavior all follow from the construction.

Term names are purely alphabetic so they pass through preprocessing intact
(digit stripping would otherwise mangle them).
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from . import atomic
from .corpus import Comment, CorpusSlice, Platform
from .seeding import derive_seed

POS_COMMUNITY = "synthhate"
NEG_COMMUNITY = "synthsupport"


def _term_block(prefix: str, count: int) -> tuple[str, ...]:
    width = 1
    while 26**width < count:
        width += 1
    suffixes = itertools.product("abcdefghijklmnopqrstuvwxyz", repeat=width)
    return tuple(prefix + "".join(s) for s in itertools.islice(suffixes, count))


@dataclass(frozen=True)
class SynthSpec:
    n_docs: int = 500  # per side
    vocab_core: int = 50  # planted distinctive terms per side
    vocab_shared: int = 50
    overlap_weight: float = 0.0
    doc_len_min: int = 5
    doc_len_max: int = 15
    seed: int = 0
    zipf: bool = False  # rank-weighted draws within each term block

    def __post_init__(self):
        if self.n_docs < 1 or self.vocab_core < 1 or self.vocab_shared < 1:
            raise ValueError("n_docs, vocab_core and vocab_shared must be >= 1")
        if not 0.0 <= self.overlap_weight <= 1.0:
            raise ValueError("overlap_weight must lie in [0, 1]")
        if not 1 <= self.doc_len_min <= self.doc_len_max:
            raise ValueError("need 1 <= doc_len_min <= doc_len_max")


def _sampler(block: tuple[str, ...], zipf: bool):
    """Return draw(rng) -> term from block, built once per block.

    With zipf, P(rank r) is proportional to 1/(r+1): inverse-CDF by bisecting
    the left-to-right cumulative weights. A draw at or past the last partial
    sum takes the last term, which ``ends`` also holds at index n.
    """
    n = len(block)
    if not zipf:
        return lambda rng: block[rng.randrange(n)]
    weights = [1.0 / (r + 1) for r in range(n)]
    total = sum(weights)  # not cum[-1]: sum() is compensated on 3.12+
    cum = list(itertools.accumulate(weights))
    ends, bisect_right = block + block[-1:], bisect.bisect_right
    return lambda rng: ends[bisect_right(cum, rng.random() * total)]


def generate(spec: SynthSpec) -> tuple[CorpusSlice, CorpusSlice, dict]:
    """Generate (positive slice, negative slice, ground truth).

    Ground truth lists the planted core vocabularies and the shared block;
    identical specs yield byte-identical corpora.
    """
    pos_terms = _term_block("hat", spec.vocab_core)
    neg_terms = _term_block("sup", spec.vocab_core)
    shared_terms = _term_block("shr", spec.vocab_shared)
    draw_shared = _sampler(shared_terms, spec.zipf)
    sides = []
    for side_name, community, core in (
        ("pos", POS_COMMUNITY, pos_terms),
        ("neg", NEG_COMMUNITY, neg_terms),
    ):
        rng = random.Random(derive_seed(spec.seed, "synthgen", side_name))
        draw_core = _sampler(core, spec.zipf)
        uniform, overlap = rng.random, spec.overlap_weight
        comments = []
        for i in range(spec.n_docs):
            length = rng.randint(spec.doc_len_min, spec.doc_len_max)
            tokens = [(draw_shared if uniform() < overlap else draw_core)(rng)
                      for _ in range(length)]
            comments.append(Comment(id=f"{side_name}{i:06d}", body=" ".join(tokens),
                                    community=community, platform=Platform.OTHER,
                                    created_at=i, author="synthgen"))
        sides.append(tuple(comments))
    ground_truth = {
        "positive_terms": list(pos_terms),
        "negative_terms": list(neg_terms),
        "shared_terms": list(shared_terms),
        "overlap_weight": spec.overlap_weight,
        "n_docs_per_side": spec.n_docs,
        "seed": spec.seed,
    }
    return CorpusSlice(sides[0]), CorpusSlice(sides[1]), ground_truth


def write_ground_truth(ground_truth: dict, path: str) -> None:
    atomic.write_json(path, ground_truth, indent=2)
